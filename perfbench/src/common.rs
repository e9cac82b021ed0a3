//! What every workload shares: sampler profiles, seed derivation, the
//! set-up record and the outcome of one timed pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ctgauss_core::{BuildTrace, CtSampler, SamplerSpec, Strategy, SynthStage};
use ctgauss_prng::{RandomSource, SplitMix64};

use crate::trace::Span;

/// One metric as printed: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A sampler profile of the pool and RPC workloads.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Label used in metric names.
    pub label: &'static str,
    /// σ as the exact decimal the synthesis pipeline parses.
    pub sigma: &'static str,
    /// Probability-matrix precision in bits.
    pub precision: u32,
}

/// The pool and RPC profiles: σ 2 at n 64 and 128, and σ 6.15543 at
/// n 128. Requests rotate over them in this order.
pub const POOL_PROFILES: [Profile; 3] = [
    Profile {
        label: "s2_n64",
        sigma: "2",
        precision: 64,
    },
    Profile {
        label: "s2_n128",
        sigma: "2",
        precision: 128,
    },
    Profile {
        label: "s6.15543_n128",
        sigma: "6.15543",
        precision: 128,
    },
];

/// Metric label of the Falcon base sampler's profile.
pub const FALCON_LABEL: &str = "falcon";

/// The Falcon base sampler's spec, as `KnuthYaoCtBase` builds it:
/// σ 2, n 128, tail cut 13, split-exact strategy.
pub fn falcon_spec() -> SamplerSpec {
    SamplerSpec::new("2", 128)
        .tail_cut(13)
        .strategy(Strategy::SplitExact)
}

/// Synthesis time per stage, summed over the profiles a set-up built.
#[derive(Debug, Clone, Default)]
pub struct SynthTimes(pub Vec<(&'static str, Duration)>);

impl SynthTimes {
    /// Adds one build's stage times.
    pub fn add(&mut self, trace: &BuildTrace) {
        for record in &trace.stages {
            let name = record.stage.name();
            match self.0.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += record.duration,
                None => self.0.push((name, record.duration)),
            }
        }
    }

    /// One `synth.<stage>_ms` metric per pipeline stage.
    pub fn metrics(&self) -> Vec<Metric> {
        SynthStage::ALL
            .iter()
            .map(|stage| {
                let total = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == stage.name())
                    .map_or(Duration::ZERO, |(_, d)| *d);
                Metric::new(
                    format!("synth.{}_ms", stage.name()),
                    total.as_secs_f64() * 1e3,
                    "ms",
                )
            })
            .collect()
    }
}

/// Builds the pool profiles with the kernel cache off, returning the
/// shared samplers and their stage times.
///
/// # Panics
///
/// Panics if a profile fails to build: the profiles are fixed, so that
/// is a bug in the program under test.
pub fn build_pool_profiles() -> (Vec<Arc<CtSampler>>, SynthTimes) {
    let mut times = SynthTimes::default();
    let samplers = POOL_PROFILES
        .iter()
        .map(|p| {
            let (sampler, trace) = SamplerSpec::new(p.sigma, p.precision)
                .build_shared_traced()
                .expect("pool profile builds");
            times.add(&trace);
            sampler
        })
        .collect();
    (samplers, times)
}

/// A seed for sub-stream `tag` of run seed `seed`: distinct tags give
/// independent inputs, and the same run seed always gives the same ones.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// A fast 64-bit digest of a sample buffer, so responses can be checked
/// against replay without keeping them.
pub fn digest(samples: &[i32]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ samples.len() as u64;
    for &s in samples {
        h = (h ^ u64::from(s as u32)).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Worker threads available to this process (the pool's shard count).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generator threads: at most two, and never more than `nproc`.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// One timed pass of a workload.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    /// How long the pass generates load.
    pub seconds: f64,
    /// Whether spans are recorded.
    pub tracing: bool,
    /// Epoch every span of the run is offset from.
    pub epoch: Instant,
    /// First recorder lane this pass may use; passes of one run use
    /// disjoint lanes so span ids stay unique.
    pub lanes: u64,
}

/// What the correctness check of one pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Outputs compared against an independent check.
    pub compared: u64,
    /// Outputs that did not match.
    pub mismatches: u64,
    /// What was checked, for the log.
    pub detail: String,
}

impl Verdict {
    /// Whether the pass checked something and every check held.
    pub fn ok(&self) -> bool {
        self.compared > 0 && self.mismatches == 0
    }
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct PassOutcome {
    /// Every attempted operation.
    pub ops: Vec<Op>,
    /// Samples delivered to the caller.
    pub samples: u64,
    /// Wall time of the load phase.
    pub elapsed: Duration,
    /// CPU time the whole process used during the load phase.
    pub cpu: Duration,
    /// Layer metrics this workload is the home of (traced passes only).
    pub layer: Vec<Metric>,
    /// Recorded spans (traced passes only).
    pub spans: Vec<Span>,
    /// The correctness check.
    pub verdict: Verdict,
}

/// One attempted operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When it completed or failed, in seconds from the pass's start.
    pub at: f64,
    /// Its latency, or `None` if it failed or was refused.
    pub latency: Option<Duration>,
    /// Samples it delivered.
    pub samples: u64,
}

impl PassOutcome {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Operations that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| o.latency.is_none()).count() as u64
    }

    /// Operations that completed.
    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }
}

/// What a workload's set-up measured about itself.
#[derive(Debug, Clone, Default)]
pub struct SetupInfo {
    /// Stage times of the profiles it synthesised.
    pub synth: SynthTimes,
    /// Falcon key generation, for the Falcon workload.
    pub keygen: Option<Duration>,
}
