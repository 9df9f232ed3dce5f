//! Property tests for the vectorized kernel layer (`DESIGN.md` §12): the
//! SWAR slice primitives must agree with a scalar [`Gf256::mul`] loop on
//! every constant, length and alignment, and the Reed–Solomon hot paths
//! rebuilt on them must match their pre-kernel scalar forms byte for byte.
//! (The CRC table ≡ bitwise properties live inside `src/crc.rs`, where the
//! private bitwise references are visible.) Replayable from the pinned
//! `PROPTEST_SEED` alone, like every property suite in the workspace.

use proptest::prelude::*;
use ule_gf256::{Gf256, GfKernels, RsCode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mul_slice_matches_scalar_mul_loop(
        c in any::<u8>(),
        src in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let mut dst = vec![0xEEu8; src.len()];
        k.mul_slice(c, &src, &mut dst);
        let scalar: Vec<u8> = src.iter().map(|&s| gf.mul(c, s)).collect();
        prop_assert_eq!(dst, scalar);
    }

    #[test]
    fn mul_add_slice_matches_scalar_mul_xor_loop(
        c in any::<u8>(),
        src in proptest::collection::vec(any::<u8>(), 0..100),
        seed in any::<u8>(),
    ) {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let base: Vec<u8> = (0..src.len())
            .map(|i| (i as u8).wrapping_mul(59).wrapping_add(seed))
            .collect();
        let mut dst = base.clone();
        k.mul_add_slice(c, &src, &mut dst);
        let scalar: Vec<u8> = src
            .iter()
            .zip(&base)
            .map(|(&s, &d)| d ^ gf.mul(c, s))
            .collect();
        prop_assert_eq!(dst, scalar);
    }

    #[test]
    fn unaligned_windows_agree_with_scalar(
        c in 1u8..=255,
        data in proptest::collection::vec(any::<u8>(), 24..80),
        off in 0usize..8,
    ) {
        // The encoder slides its parity window one byte per step, so the
        // SWAR loop constantly runs at every alignment; pin that the
        // offset never changes the bytes.
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let src = &data[off..data.len() - (8 - off)];
        let mut dst = vec![0u8; src.len()];
        k.mul_slice(c, src, &mut dst);
        for (s, d) in src.iter().zip(&dst) {
            prop_assert_eq!(*d, gf.mul(c, *s));
        }
    }

    #[test]
    fn kernel_encode_matches_scalar_division(
        msg in proptest::collection::vec(any::<u8>(), 17),
    ) {
        // Scalar LFSR re-implementation from public parts: one gf.mul per
        // parity coefficient per message byte, exactly the pre-kernel
        // encoder.
        let rs = RsCode::new(20, 17);
        let gf = rs.field();
        let gen = rs.generator();
        let p = rs.parity_len();
        let mut rem = vec![0u8; p];
        for &m in &msg[..rs.k()] {
            let factor = m ^ rem[0];
            rem.copy_within(1.., 0);
            rem[p - 1] = 0;
            if factor != 0 {
                for (i, slot) in rem.iter_mut().enumerate() {
                    *slot ^= gf.mul(factor, gen[p - 1 - i]);
                }
            }
        }
        let cw = rs.encode(&msg);
        prop_assert_eq!(&cw[..17], &msg[..]);
        prop_assert_eq!(&cw[17..], &rem[..]);
    }

    #[test]
    fn eval_desc_matches_scalar_horner(
        x in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let gf = Gf256::new();
        let k = GfKernels::new(&gf);
        let naive = data.iter().fold(0u8, |acc, &b| gf.mul(acc, x) ^ b);
        prop_assert_eq!(k.eval_desc(&gf, x, &data), naive);
    }
}
