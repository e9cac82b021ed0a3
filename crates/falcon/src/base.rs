//! The four base-sampler configurations of Table 1, each owning a ChaCha
//! PRNG (the paper keeps the PRNG fixed across samplers).

use std::sync::Arc;

use ctgauss_cdt::{BinarySearchCdt, ByteScanCdt, CdtTable, LinearSearchCdt};
use ctgauss_core::{Backend, CtSampler, LaneScratch, SamplerSpec, Strategy};
use ctgauss_knuthyao::GaussianParams;
use ctgauss_prng::ChaChaRng;

use crate::sign::BaseSampler;

/// The paper's base-sampler parameters: sigma = 2, n = 128 bits, tau = 13.
fn base_params() -> GaussianParams {
    GaussianParams::new("2", 128, 13).expect("paper parameters are valid")
}

/// Lane width of the signing path's batches: 8 × 64 samples per tiled
/// kernel pass.
const WIDE: usize = 8;

/// "This work": the constant-time bitsliced Knuth-Yao sampler, consumed
/// through its lanes batch interface on an 8-word (8 x 64 lanes)
/// backend. The lane scratch and the sample buffer are allocated once at
/// construction and reused for every refill, so steady-state signing
/// performs no heap allocation in the sampling path. By the draw-order
/// contract the stream equals consecutive scalar batches, whichever
/// 8-word backend the machine selects.
pub struct KnuthYaoCtBase {
    sampler: Arc<CtSampler>,
    rng: ChaChaRng,
    scratch: LaneScratch,
    buf: [i32; 64 * WIDE],
    pos: usize,
}

impl KnuthYaoCtBase {
    /// Builds the sampler (split-exact strategy) and seeds its PRNG.
    ///
    /// Goes through [`SamplerSpec::build_shared`], so signing cold-starts
    /// from a warm [`KernelCache`](ctgauss_core::KernelCache) — the n =
    /// 128 minimization (the dominant startup cost) is skipped whenever a
    /// precompiled artifact is available.
    pub fn new(seed: u64) -> Self {
        let sampler = SamplerSpec::new("2", 128)
            .tail_cut(13)
            .strategy(Strategy::SplitExact)
            .build_shared()
            .expect("paper parameters build");
        let scratch = sampler.lane_scratch_for(Backend::select_for_width(WIDE));
        KnuthYaoCtBase {
            sampler,
            rng: ChaChaRng::from_u64_seed(seed),
            scratch,
            buf: [0; 64 * WIDE],
            pos: 64 * WIDE,
        }
    }

    /// Access to the inner sampler (for reports).
    pub fn sampler(&self) -> &CtSampler {
        &self.sampler
    }
}

impl BaseSampler for KnuthYaoCtBase {
    fn next(&mut self) -> i32 {
        if self.pos == self.buf.len() {
            self.sampler
                .sample_batch_lanes(&mut self.rng, &mut self.scratch, &mut self.buf);
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn name(&self) -> &'static str {
        "bitsliced Knuth-Yao (this work)"
    }
}

/// "CDT": the classical binary-search CDT sampler (non-constant-time).
pub struct BinaryCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl BinaryCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        BinaryCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for BinaryCdtBase {
    fn next(&mut self) -> i32 {
        BinarySearchCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "binary-search CDT"
    }
}

/// "Byte-scanning CDT": the lazy byte-wise scanner (fastest
/// non-constant-time baseline).
pub struct ByteScanCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl ByteScanCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        ByteScanCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for ByteScanCdtBase {
    fn next(&mut self) -> i32 {
        ByteScanCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "byte-scanning CDT"
    }
}

/// "Linear search CDT": the constant-time exhaustive-comparison sampler.
pub struct LinearCdtBase {
    table: CdtTable,
    rng: ChaChaRng,
}

impl LinearCdtBase {
    /// Builds the table and seeds the PRNG.
    pub fn new(seed: u64) -> Self {
        LinearCdtBase {
            table: CdtTable::build(&base_params()).expect("paper parameters build"),
            rng: ChaChaRng::from_u64_seed(seed),
        }
    }
}

impl BaseSampler for LinearCdtBase {
    fn next(&mut self) -> i32 {
        LinearSearchCdt::new(&self.table).sample_signed(&mut self.rng)
    }

    fn name(&self) -> &'static str {
        "linear-search CDT (constant-time)"
    }
}

/// Builds all four Table 1 base samplers with distinct seeds.
pub fn all_base_samplers(seed: u64) -> Vec<Box<dyn BaseSampler>> {
    vec![
        Box::new(ByteScanCdtBase::new(seed)),
        Box::new(BinaryCdtBase::new(seed + 1)),
        Box::new(LinearCdtBase::new(seed + 2)),
        Box::new(KnuthYaoCtBase::new(seed + 3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four base samplers target the identical distribution; check
    /// mean/variance of each.
    #[test]
    fn all_bases_share_moments() {
        for mut base in all_base_samplers(42) {
            let n = 40_000;
            let mut sum = 0f64;
            let mut sq = 0f64;
            for _ in 0..n {
                let v = f64::from(base.next());
                sum += v;
                sq += v * v;
            }
            let mean = sum / f64::from(n);
            let var = sq / f64::from(n) - mean * mean;
            assert!(mean.abs() < 0.05, "{}: mean {mean}", base.name());
            assert!((var - 4.0).abs() < 0.2, "{}: var {var}", base.name());
        }
    }

    /// FNV-1a over the little-endian bytes of `draws`.
    fn fnv1a(draws: &[i32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in draws.iter().flat_map(|d| d.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// FNV-1a digest of the first 4096 draws of `KnuthYaoCtBase::new(7)`:
    /// the Falcon base stream every batch engine must reproduce.
    const GOLDEN: u64 = 0x89cf_9570_f00a_299c;

    /// The first 4096 draws of the signing path's base sampler are pinned
    /// by digest, so a change to the batch engine underneath cannot
    /// silently change the Falcon base stream.
    #[test]
    fn knuth_yao_base_stream_is_pinned() {
        let mut base = KnuthYaoCtBase::new(7);
        let draws: Vec<i32> = (0..4096).map(|_| base.next()).collect();
        assert_eq!(fnv1a(&draws), GOLDEN);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_base_samplers(1).iter().map(|b| b.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(dedup.len(), 4);
    }
}
