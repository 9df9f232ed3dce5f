//! Minimal deterministic RNG (splitmix64) for reproducible degradations.
//!
//! The scanner simulation must be exactly reproducible from a seed so that
//! robustness experiments (E4) are rerunnable; this avoids pulling a full
//! RNG crate into the library's dependency closure.

/// The splitmix64 increment ("golden gamma"): the state after `k` draws
/// is `seed + k·γ` (mod 2⁶⁴).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Uniform draws per [`SplitMix64::next_gaussian`] sample.
pub(crate) const GAUSSIAN_DRAWS: u64 = 12;

/// splitmix64 — tiny, fast, and statistically solid for simulation noise.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Skip `n` draws in O(1), exactly as `n` calls to
    /// [`SplitMix64::next_u64`] would. The generator is counter-based, so
    /// a stream can be split into bands that start from one state.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform float in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, n). `n` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Approximately normal sample (mean 0, sigma 1) via the sum of twelve
    /// uniforms — plenty for optical-noise modelling.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..GAUSSIAN_DRAWS {
            s += self.next_f64();
        }
        s - 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_mean_near_zero() {
        let mut r = SplitMix64::new(99);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_gaussian()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn advance_equals_discarded_draws() {
        let stepped = |n: u64| {
            let mut r = SplitMix64::new(0xDEAD_BEEF);
            for _ in 0..n {
                r.next_u64();
            }
            r.next_u64()
        };
        // 12·4960: one A4 row of noise pixels.
        for n in [0u64, 1, 12 * 4960] {
            let mut r = SplitMix64::new(0xDEAD_BEEF);
            r.advance(n);
            assert_eq!(r.next_u64(), stepped(n), "n={n}");
        }
        // A count past 2⁶⁴ wraps: u64::MAX + 4 draws land where 3 do.
        let mut r = SplitMix64::new(0xDEAD_BEEF);
        r.advance(u64::MAX);
        r.advance(4);
        assert_eq!(r.next_u64(), stepped(3));
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }
}
