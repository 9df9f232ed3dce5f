//! Seeded randomness. Every input the benchmark makes — dumps, query
//! parameters, table choices, lost reels, fault seeds — comes from the
//! run's `--seed` through these helpers, so one seed is one input set.

/// Derive an independent sub-seed from `seed` and a label (SplitMix64
/// finaliser over the pair).
pub fn mix(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Element `i` of a seeded cycle through `xs`: every element once per
    /// `xs.len()` consecutive `i`, in an order fixed by `seed`.
    pub fn cycled<T: Clone>(seed: u64, i: u64, xs: &[T]) -> T {
        let order = Rng::new(seed).choose(&(0..xs.len()).collect::<Vec<_>>(), xs.len());
        xs[order[(i % xs.len() as u64) as usize]].clone()
    }

    /// `k` distinct elements of `xs`, in draw order.
    pub fn choose<T: Copy>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut pool = xs.to_vec();
        (0..k.min(pool.len()))
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }
}
