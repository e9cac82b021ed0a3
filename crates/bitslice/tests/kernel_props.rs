//! Property tests: a lowered [`CompiledKernel`] and its superinstruction
//! re-lowering ([`TiledKernel`]) are bit-exact with the reference
//! interpreter on random well-formed programs and random inputs, for lane
//! widths W = 1, 2 and 4; tiling is a pure re-encoding of the compiled
//! instruction stream; and neither engine's constant-time audit ever
//! gains an input dependence over the source program's.

use ctgauss_bitslice::{
    audit, audit_kernel, audit_tiled, interpret, CompiledKernel, Op, Program, TiledKernel,
};
use proptest::prelude::*;

/// The scalar interpreter run once per machine word of `[u64; W]` lane
/// words: the oracle for every wide execution.
fn interpret_per_word<const W: usize>(program: &Program, inputs: &[[u64; W]]) -> Vec<[u64; W]> {
    let mut out = vec![[0u64; W]; program.outputs().len()];
    for w in 0..W {
        let scalar: Vec<u64> = inputs.iter().map(|v| v[w]).collect();
        for (o, word) in interpret(program, &scalar).into_iter().enumerate() {
            out[o][w] = word;
        }
    }
    out
}

/// Deterministically expands a seed into a random well-formed program:
/// `num_inputs` declared inputs, `len` ops whose operands are drawn from
/// the already-defined registers, and 1..=4 random outputs. Gate/load kinds
/// are weighted toward `Not` so the fusion rules (`AndNot`, `Xnor`,
/// double-negation) are exercised often.
fn build_program(seed: u64, num_inputs: u32, len: usize) -> Program {
    let mut state = seed | 1;
    let mut next = move || {
        // SplitMix64 step — self-contained so the generator is stable.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut ops = Vec::with_capacity(len);
    for r in 0..len {
        let pick = |next: &mut dyn FnMut() -> u64| (next() % r.max(1) as u64) as u32;
        let op = if r == 0 {
            Op::Input(next() as u32 % num_inputs)
        } else {
            match next() % 10 {
                0 => Op::Input(next() as u32 % num_inputs),
                1 => Op::Const(next() & 1 == 1),
                2..=4 => Op::Not(pick(&mut next)),
                5 | 6 => Op::And(pick(&mut next), pick(&mut next)),
                7 => Op::Or(pick(&mut next), pick(&mut next)),
                _ => Op::Xor(pick(&mut next), pick(&mut next)),
            }
        };
        ops.push(op);
    }
    let n_outputs = 1 + (next() % 4) as usize;
    let outputs = (0..n_outputs)
        .map(|_| (next() % len as u64) as u32)
        .collect();
    Program::new(num_inputs, ops, outputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// W = 1: compiled and tiled outputs equal the interpreter on random
    /// inputs, and tiling is a pure re-encoding of the compiled stream.
    #[test]
    fn prop_kernel_equals_interpreter_scalar(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
        input_seed in any::<u64>(),
    ) {
        let program = build_program(seed, num_inputs, len);
        let kernel = CompiledKernel::lower(&program);
        let tiled = TiledKernel::lower(&kernel);
        let mut s = input_seed;
        let inputs: Vec<u64> = (0..num_inputs)
            .map(|i| {
                s = s.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(u64::from(i) | 1);
                s
            })
            .collect();
        let expected = interpret(&program, &inputs);
        prop_assert_eq!(kernel.run(&inputs), expected.clone(), "{}", kernel);
        prop_assert_eq!(tiled.run(&inputs), expected, "{}", tiled);
        prop_assert_eq!(tiled.micro_instrs(), kernel.instrs().to_vec());
        prop_assert_eq!(
            tiled.tiles().iter().map(|t| t.width()).sum::<usize>(),
            kernel.instrs().len()
        );
    }

    /// W = 2 and W = 4: every machine word of the wide execution equals
    /// the scalar interpreter run on that word alone — for both the per-op
    /// kernel and the tiled engine.
    #[test]
    fn prop_kernel_equals_interpreter_wide(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
        input_seed in any::<u64>(),
    ) {
        let program = build_program(seed, num_inputs, len);
        let kernel = CompiledKernel::lower(&program);
        let tiled = TiledKernel::lower(&kernel);
        let mut s = input_seed;
        let mut word = move || {
            s = s.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
            s
        };
        let inputs2: Vec<[u64; 2]> = (0..num_inputs).map(|_| [word(), word()]).collect();
        let expected2 = interpret_per_word(&program, &inputs2);
        prop_assert_eq!(kernel.run(&inputs2), expected2.clone());
        prop_assert_eq!(tiled.run(&inputs2), expected2);
        let inputs4: Vec<[u64; 4]> =
            (0..num_inputs).map(|_| [word(), word(), word(), word()]).collect();
        let expected4 = interpret_per_word(&program, &inputs4);
        prop_assert_eq!(kernel.run(&inputs4), expected4.clone());
        prop_assert_eq!(tiled.run(&inputs4), expected4);
    }

    /// The fused kernel's audit stays constant-time and never *gains* an
    /// input dependence: each output support is a subset of the source
    /// program's (folding may shrink it).
    #[test]
    fn prop_kernel_audit_supports_shrink(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
    ) {
        let program = build_program(seed, num_inputs, len);
        let kernel = CompiledKernel::lower(&program);
        let rp = audit(&program);
        let rk = audit_kernel(&kernel);
        prop_assert!(rk.is_constant_time());
        prop_assert_eq!(rk.output_supports.len(), rp.output_supports.len());
        for (k_sup, p_sup) in rk.output_supports.iter().zip(&rp.output_supports) {
            for input in k_sup {
                prop_assert!(
                    p_sup.contains(input),
                    "kernel support {k_sup:?} not within program support {p_sup:?}"
                );
            }
        }
        // Tiling preserves the audit verbatim: a tile's support is the
        // union of its ops' supports, so the tiled report equals the
        // per-op kernel's.
        let rt = audit_tiled(&TiledKernel::lower(&kernel));
        prop_assert!(rt.is_constant_time());
        prop_assert_eq!(rt, rk);
    }

    /// Lowering is idempotent on the outputs: re-running on the same
    /// program yields an identical kernel (determinism of the pipeline),
    /// and the tile re-lowering inherits that determinism.
    #[test]
    fn prop_lowering_is_deterministic(
        seed in any::<u64>(),
        num_inputs in 1u32..6,
        len in 1usize..60,
    ) {
        let program = build_program(seed, num_inputs, len);
        let (a, b) = (CompiledKernel::lower(&program), CompiledKernel::lower(&program));
        prop_assert_eq!(TiledKernel::lower(&a), TiledKernel::lower(&b));
        prop_assert_eq!(a, b);
    }
}
