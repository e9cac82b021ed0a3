//! CI gate for the kernel cache: cached-artifact execution must be
//! bit-identical to fresh synthesis, across process restarts.
//!
//! The binary builds the sigma = 2 and sigma = 6.15543 profiles through
//! [`SamplerSpec::build_shared_traced`] (which consults the cache
//! configured by `CTGAUSS_CACHE_DIR`), then:
//!
//! * synthesizes the same profiles *fresh* in-process (no cache) and
//!   asserts the two samplers produce bit-identical streams at lane
//!   widths W = 1, 2 and 4 on fixed seeds;
//! * with `--expect cold`, asserts every synthesis stage ran and the
//!   artifact was stored; with `--expect warm`, asserts the cache hit
//!   and minimization + compilation + both lowerings were skipped;
//! * prints one deterministic digest line per (profile, W) to stdout.
//!
//! The CI job runs it twice against one cache directory and diffs the
//! stdout of the cold and warm runs — a byte-for-byte equal transcript
//! across the restart is the "bit-identical sample streams" gate — then
//! removes the directory and runs once more to prove the cache-miss
//! fallback stays green.

use ctgauss_core::{Backend, CacheDisposition, CtSampler, Fingerprint, SamplerSpec, SynthStage};
use ctgauss_prng::ChaChaRng;

const PROFILES: &[(&str, u32)] = &[("2", 24), ("2", 128), ("6.15543", 128)];

const SYNTH_STAGES: [SynthStage; 4] = [
    SynthStage::MinimizedSop,
    SynthStage::Program,
    SynthStage::CompiledKernel,
    SynthStage::TiledKernel,
];

/// Content hash of a sample stream, for compact diffable transcripts
/// (the pipeline's own stable [`Fingerprint`] — no second hasher).
fn digest(samples: &[i32]) -> u64 {
    let mut fp = Fingerprint::new();
    for s in samples {
        fp.u32(*s as u32);
    }
    fp.value()
}

/// The W-wide stream: 4 lanes-path batches of `64 * w` samples on a
/// fixed seed, through a width-`w` backend.
fn stream(sampler: &CtSampler, w: usize, seed: u64) -> Vec<i32> {
    let mut rng = ChaChaRng::from_u64_seed(seed);
    let mut scratch = sampler.lane_scratch_for(Backend::select_for_width(w));
    let mut out = vec![0i32; 4 * 64 * w];
    for batch in out.chunks_exact_mut(64 * w) {
        sampler.sample_batch_lanes(&mut rng, &mut scratch, batch);
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let expect = args
        .iter()
        .position(|a| a == "--expect")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let mut failures = 0usize;

    for &(sigma, n) in PROFILES {
        eprintln!("[cache_smoke] profile sigma = {sigma}, n = {n}");
        let spec = SamplerSpec::new(sigma, n);
        let (cached, trace) = spec.build_shared_traced().expect("paper parameters build");

        match expect {
            Some("cold") => {
                let ok = matches!(
                    trace.cache,
                    CacheDisposition::Miss { stored: true } | CacheDisposition::Bypassed
                ) && SYNTH_STAGES.iter().all(|&s| trace.ran(s));
                if !ok {
                    eprintln!("FAIL: expected a cold build, got {:?}", trace.cache);
                    failures += 1;
                }
            }
            Some("warm") => {
                let skipped = SYNTH_STAGES.iter().all(|&s| !trace.ran(s));
                if trace.cache != CacheDisposition::Hit || !skipped {
                    eprintln!(
                        "FAIL: expected a warm start (hit + synthesis skipped), got {:?}",
                        trace.cache
                    );
                    failures += 1;
                }
            }
            Some(other) => {
                eprintln!("FAIL: unknown --expect value '{other}' (want cold|warm)");
                failures += 1;
            }
            None => {}
        }

        // The ground truth: a fresh, cache-free synthesis in this very
        // process. Whatever the cache served must match it bit for bit.
        let fresh = spec.builder().build().expect("paper parameters build");
        for w in [1usize, 2, 4] {
            let seed = 0xCA5E ^ (n as u64) << 8 ^ w as u64;
            let got = stream(&cached, w, seed);
            let want = stream(&fresh, w, seed);
            if got != want {
                eprintln!("FAIL: sigma={sigma} n={n} W={w}: cached stream diverges from fresh");
                failures += 1;
            }
            // The diffable transcript line (identical cold vs. warm).
            println!(
                "sigma={sigma} n={n} w={w} samples={} digest={:016x}",
                got.len(),
                digest(&got)
            );
        }
    }

    if failures > 0 {
        eprintln!("[cache_smoke] {failures} failure(s)");
        std::process::exit(1);
    }
    eprintln!("[cache_smoke] OK");
}
