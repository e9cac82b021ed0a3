//! `falcon512`: one thread signing in a closed loop, in process, with
//! the paper's constant-time bitsliced base sampler
//! (`KnuthYaoCtBase`). Every signature is verified after the timed
//! loop.

use std::time::{Duration, Instant};

use ctgauss_falcon::base::KnuthYaoCtBase;
use ctgauss_falcon::sign::BaseSampler;
use ctgauss_falcon::{FalconParams, SecretKey, Signature};
use ctgauss_prng::{ChaChaRng, RandomSource, SplitMix64};

use crate::common::{derive_seed, Metric, Op, PassOutcome, PassPlan, SetupInfo, Verdict};
use crate::cpu;
use crate::trace::Recorder;

/// `KnuthYaoCtBase` refills its buffer with one 8 × 64-sample kernel
/// pass on draws 0, 512, 1024, …; those are the draws timed as the
/// base sampler's cost.
const BASE_REFILL: u64 = 512;

/// A set-up Falcon-512 signer.
pub struct State {
    base: KnuthYaoCtBase,
    sk: SecretKey,
    rng: ChaChaRng,
    seed: u64,
}

/// Synthesises the base sampler and generates a Falcon-512 key.
///
/// # Panics
///
/// Panics if key generation gives up, which the scheme only does on
/// pathological randomness.
pub fn setup(seed: u64) -> (State, SetupInfo) {
    let base = KnuthYaoCtBase::new(derive_seed(seed, 1));
    let mut rng = ChaChaRng::from_u64_seed(derive_seed(seed, 2));
    let keygen_started = Instant::now();
    let sk = SecretKey::generate(FalconParams::level2(), &mut rng).expect("Falcon-512 keygen");
    let keygen = keygen_started.elapsed();
    let info = SetupInfo {
        keygen: Some(keygen),
        ..SetupInfo::default()
    };
    (
        State {
            base,
            sk,
            rng,
            seed,
        },
        info,
    )
}

/// The message signed as request `i`.
fn message(seed: u64, i: u64) -> [u8; 32] {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x5157_0000 + i));
    let mut msg = [0u8; 32];
    rng.fill_bytes(&mut msg);
    msg
}

/// Counts base draws; when timing, also times the draws that refill.
struct Counting<'a> {
    inner: &'a mut KnuthYaoCtBase,
    draws: u64,
    timing: bool,
    refills: Vec<(Instant, Instant)>,
}

impl BaseSampler for Counting<'_> {
    fn next(&mut self) -> i32 {
        let refill = self.timing && self.draws.is_multiple_of(BASE_REFILL);
        self.draws += 1;
        if refill {
            let start = Instant::now();
            let v = self.inner.next();
            self.refills.push((start, Instant::now()));
            v
        } else {
            self.inner.next()
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Signs for `plan.seconds`, then verifies every signature.
pub fn run(mut state: State, plan: &PassPlan) -> PassOutcome {
    let mut rec = Recorder::new(plan.epoch, plan.lanes, plan.tracing);
    let mut base = Counting {
        inner: &mut state.base,
        draws: 0,
        timing: plan.tracing,
        refills: Vec::new(),
    };
    let mut ops = Vec::new();
    let mut signatures: Vec<(u64, Signature)> = Vec::new();
    let (mut refill_ns, mut sign_ns) = (0u64, 0u64);
    let started = Instant::now();
    let cpu_started = cpu::process();
    let deadline = started + Duration::from_secs_f64(plan.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let msg = message(state.seed, i);
        let drawn = base.draws;
        let id = rec.reserve();
        let t0 = Instant::now();
        let cpu0 = cpu::thread();
        let result = state.sk.sign(&msg, &mut base, &mut state.rng);
        let cpu1 = cpu::thread();
        let t1 = Instant::now();
        let ok = result.is_ok();
        ops.push(Op {
            at: (t1 - started).as_secs_f64(),
            // The signing thread's CPU time: a signature never waits,
            // so on an unshared core this is its wall time, while on a
            // shared one wall time also counts other tenants' slices.
            latency: ok.then_some(cpu1 - cpu0),
            samples: base.draws - drawn,
        });
        if let Ok(sig) = result {
            signatures.push((i, sig));
        }
        sign_ns += (t1 - t0).as_nanos() as u64;
        rec.record_as(id, "falcon.sign", i, None, t0, t1);
        for (a, b) in base.refills.drain(..) {
            refill_ns += (b - a).as_nanos() as u64;
            rec.record("falcon.base_refill", i, Some(id), a, b);
        }
        i += 1;
    }
    let elapsed = started.elapsed();
    let cpu = cpu::process() - cpu_started;
    let draws = base.draws;

    let pk = state.sk.public_key();
    let rejected = signatures
        .iter()
        .filter(|(i, sig)| !pk.verify(&message(state.seed, *i), sig))
        .count() as u64;
    let verdict = Verdict {
        compared: signatures.len() as u64,
        mismatches: rejected,
        detail: format!(
            "falcon512: {} of {} signatures verify",
            signatures.len() as u64 - rejected,
            signatures.len()
        ),
    };

    let layer = if plan.tracing {
        vec![
            Metric::new(
                "falcon.base_draws_per_sign",
                draws as f64 / i.max(1) as f64,
                "count",
            ),
            Metric::new(
                "falcon.base_ns_per_draw",
                refill_ns as f64 / draws.max(1) as f64,
                "ns",
            ),
            Metric::new(
                "falcon.base_share",
                refill_ns as f64 / sign_ns.max(1) as f64,
                "frac",
            ),
        ]
    } else {
        Vec::new()
    };
    PassOutcome {
        ops,
        samples: draws,
        elapsed,
        cpu,
        layer,
        spans: rec.into_spans(),
        verdict,
    }
}
