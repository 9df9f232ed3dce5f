//! Property-based tests for the Reed–Solomon codec: for any message and any
//! error/erasure pattern within capacity, decoding restores the message.

use proptest::prelude::*;
use ule_gf256::RsCode;

fn inject_errors(cw: &mut [u8], positions: &[usize], xor: u8) {
    for &p in positions {
        cw[p] ^= xor;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rs255_223_corrects_random_errors(
        msg in proptest::collection::vec(any::<u8>(), 223),
        err_pos in proptest::collection::hash_set(0usize..255, 0..=16),
        xor in 1u8..=255,
    ) {
        let rs = RsCode::new(255, 223);
        let mut cw = rs.encode(&msg);
        let positions: Vec<usize> = err_pos.into_iter().collect();
        inject_errors(&mut cw, &positions, xor);
        let fixed = rs.decode(&mut cw, &[]).unwrap();
        prop_assert_eq!(fixed, positions.len());
        prop_assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn rs255_223_corrects_random_erasures(
        msg in proptest::collection::vec(any::<u8>(), 223),
        era in proptest::collection::hash_set(0usize..255, 0..=32),
    ) {
        let rs = RsCode::new(255, 223);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = era.into_iter().collect();
        for &e in &erasures {
            cw[e] = cw[e].wrapping_add(101);
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..223], &msg[..]);
    }

    #[test]
    fn rs20_17_any_three_erasures(
        msg in proptest::collection::vec(any::<u8>(), 17),
        era in proptest::collection::hash_set(0usize..20, 0..=3),
        fill in any::<u8>(),
    ) {
        let rs = RsCode::new(20, 17);
        let mut cw = rs.encode(&msg);
        let erasures: Vec<usize> = era.into_iter().collect();
        for &e in &erasures {
            cw[e] = fill;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..17], &msg[..]);
    }

    #[test]
    fn mixed_budget_honored(
        msg in proptest::collection::vec(any::<u8>(), 100),
        seed in any::<u64>(),
    ) {
        // RS(140,100): 40 parity. Use e erasures + v errors with 2v+e <= 40.
        let rs = RsCode::new(140, 100);
        let mut cw = rs.encode(&msg);
        let e = (seed % 20) as usize;          // 0..19 erasures
        let v = ((40 - e) / 2).min(10);        // errors within budget
        let mut erasures = Vec::new();
        for i in 0..e {
            let p = (seed as usize + i * 13) % 140;
            if !erasures.contains(&p) {
                erasures.push(p);
            }
        }
        for &p in &erasures {
            cw[p] = !cw[p];
        }
        let mut injected = 0;
        let mut p = (seed as usize).wrapping_mul(7) % 140;
        while injected < v {
            if !erasures.contains(&p) {
                cw[p] ^= 0x3C;
                injected += 1;
            }
            p = (p + 11) % 140;
        }
        rs.decode(&mut cw, &erasures).unwrap();
        prop_assert_eq!(&cw[..100], &msg[..]);
    }

    #[test]
    fn encode_is_systematic(msg in proptest::collection::vec(any::<u8>(), 50)) {
        let rs = RsCode::new(80, 50);
        let cw = rs.encode(&msg);
        prop_assert_eq!(&cw[..50], &msg[..]);
        prop_assert!(rs.is_clean(&cw));
    }

    #[test]
    fn parity_of_multi_column_survives_any_m_erased_columns(
        k in 2usize..=5,
        m in 1usize..=3,
        len in 1usize..=48,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        // The vault's RS(k+m, k) reel groups (DESIGN.md §16): `parity_of`
        // hands back m parity streams over k data streams in one
        // column-batched pass, and erasing ANY m of the k+m columns must
        // reconstruct every stream byte-identically through a column-wise
        // erasure decode. This is exactly the multi-parity math
        // `Vault::archive` encodes with and `reconstruct_group_frames`
        // decodes with.
        let n = k + m;
        let streams: Vec<Vec<u8>> = (0..k)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        (seed >> ((i + s) % 8)) as u8 ^ (i as u8).wrapping_mul(37 + s as u8)
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let rs = RsCode::new(n, k);
        let parity = rs.parity_of(&refs);
        prop_assert_eq!(parity.len(), m);
        for p in &parity {
            prop_assert_eq!(p.len(), len);
        }

        // Erase m distinct columns chosen from `pick`, anywhere in the
        // codeword (data and parity positions alike).
        let mut erased: Vec<usize> = Vec::new();
        let mut c = pick as usize;
        while erased.len() < m {
            let cand = c % n;
            if !erased.contains(&cand) {
                erased.push(cand);
            }
            c = c / n + 1 + c % 7;
        }

        // Column-wise erasure decode over the surviving streams.
        let column = |col: usize, i: usize| -> u8 {
            if col < k { streams[col][i] } else { parity[col - k][i] }
        };
        for i in 0..len {
            let mut cw: Vec<u8> = (0..n)
                .map(|col| if erased.contains(&col) { 0 } else { column(col, i) })
                .collect();
            rs.decode(&mut cw, &erased).unwrap();
            for (col, &byte) in cw.iter().enumerate() {
                prop_assert_eq!(byte, column(col, i), "column {} byte {}", col, i);
            }
        }
    }
}
