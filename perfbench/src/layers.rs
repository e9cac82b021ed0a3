//! The bottom three layers timed alone, per profile, from outside:
//! the ChaCha fill (`ChaChaRng::fill_u64s` for one batch's words), the
//! kernel on pre-drawn words (`CtSampler::run_batch_lanes`) and the
//! whole sampler (`CtSampler::sample_into`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ctgauss_core::CtSampler;
use ctgauss_prng::{ChaChaRng, RandomSource};

use crate::common::Metric;
use crate::stats::median;
use crate::trace::Recorder;

/// Pre-drawn input sets the kernel cycles through, so no input is
/// constant across calls.
const INPUT_SETS: usize = 16;

/// Samples per `sample_into` call: one bulk request.
const SAMPLE_INTO_LEN: usize = 4096;

/// Target length of one timed chunk of calls.
const CHUNK: Duration = Duration::from_millis(2);

/// Times `f` in chunks for `budget`, each chunk a calibrated number of
/// calls, and returns the median nanoseconds per unit over the chunks.
/// Each call does `units` units of work.
fn ns_per_unit(
    budget: Duration,
    units: u64,
    rec: &mut Recorder,
    name: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_nanos(1));
    let calls = (CHUNK.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as u64;
    let mut per_unit = Vec::new();
    let started = Instant::now();
    let mut chunk = 0u64;
    while per_unit.is_empty() || started.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        let t1 = Instant::now();
        rec.record(name, chunk, None, t0, t1);
        chunk += 1;
        per_unit.push((t1 - t0).as_nanos() as f64 / (calls * units) as f64);
    }
    median(&per_unit)
}

/// Times the three layers on one profile, splitting `budget` evenly.
pub fn measure(
    label: &str,
    sampler: &CtSampler,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> Vec<Metric> {
    let slice = budget / 3;
    let backend = sampler.backend();
    let w = backend.width();
    let n = sampler.tiled_kernel().num_inputs() as usize;
    let outputs = sampler.tiled_kernel().num_outputs();
    let batch = (64 * w) as u64;
    let mut rng = ChaChaRng::from_u64_seed(seed);

    let mut words = vec![0u64; (n + 1) * w];
    let fill = ns_per_unit(slice, batch, rec, "prng.fill_u64s", || {
        rng.fill_u64s(black_box(&mut words));
    });

    let mut inputs = vec![0u64; INPUT_SETS * n * w];
    let mut signs = vec![0u64; INPUT_SETS * w];
    rng.fill_u64s(&mut inputs);
    rng.fill_u64s(&mut signs);
    let mut planes = vec![0u64; outputs * w];
    let mut out = vec![0i32; 64 * w];
    let mut set = 0;
    let kernel = ns_per_unit(slice, batch, rec, "kernel.run_batch_lanes", || {
        sampler.run_batch_lanes(
            backend,
            black_box(&inputs[set * n * w..(set + 1) * n * w]),
            &mut planes,
            &signs[set * w..(set + 1) * w],
            &mut out,
        );
        black_box(&out);
        set = (set + 1) % INPUT_SETS;
    });

    let mut buf = vec![0i32; SAMPLE_INTO_LEN];
    let whole = ns_per_unit(
        slice,
        SAMPLE_INTO_LEN as u64,
        rec,
        "sampler.sample_into",
        || {
            sampler.sample_into(&mut buf, &mut rng);
            black_box(&buf);
        },
    );

    vec![
        Metric::new(format!("prng.fill_ns_per_sample.{label}"), fill, "ns"),
        Metric::new(format!("kernel.ns_per_sample.{label}"), kernel, "ns"),
        Metric::new(format!("sampler.ns_per_sample.{label}"), whole, "ns"),
    ]
}
