//! Criterion benches behind Figure 5: end-to-end batch sampling throughput
//! (PRNG included) at several widths, plus the word-width ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctgauss_core::{Backend, SamplerBuilder};
use ctgauss_prng::ChaChaRng;

fn bench_batches(c: &mut Criterion) {
    let sampler = SamplerBuilder::new("2", 128).build().unwrap();
    let mut group = c.benchmark_group("fig5_batch_throughput");
    group.throughput(Throughput::Elements(64));
    let mut rng = ChaChaRng::from_u64_seed(2);
    group.bench_function(BenchmarkId::new("width", 1), |b| {
        b.iter(|| std::hint::black_box(sampler.sample_batch(&mut rng)))
    });
    for width in [4usize, 8] {
        let mut scratch = sampler.lane_scratch_for(Backend::select_for_width(width));
        let mut out = vec![0i32; 64 * width];
        group.throughput(Throughput::Elements(64 * width as u64));
        group.bench_function(BenchmarkId::new("width", width), |b| {
            b.iter(|| {
                sampler.sample_batch_lanes(&mut rng, &mut scratch, &mut out);
                std::hint::black_box(out[0])
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(60).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_batches
}
criterion_main!(benches);
