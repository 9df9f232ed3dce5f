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

/// Samples [`SplitMix64::add_gaussian`] draws side by side: one
/// generator per lane, so the lanes' multiplies fill vector registers.
const LANES: usize = 16;

/// splitmix64's output function: the draw made from `state`.
#[inline(always)]
fn mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `bits` as a float in [0, 1), exactly
/// `(bits >> 11) as f64 / 2⁵³`.
///
/// The integer is split into halves that become doubles by setting an
/// exponent over them (2⁸⁴ + hi·2³² and 2⁵² + lo, both exact); removing
/// the two offsets and adding gives `hi·2³² + lo`, which is below 2⁵³
/// and so exact too. Scaling by 2⁻⁵³ is exact. Unlike an integer
/// conversion, every step has a vector instruction.
#[inline(always)]
fn unit_f64(bits: u64) -> f64 {
    let m = bits >> 11;
    let hi = f64::from_bits(0x4530_0000_0000_0000 | (m >> 32));
    let lo = f64::from_bits(0x4330_0000_0000_0000 | (m & 0xFFFF_FFFF));
    // 2⁸⁴ + 2⁵²
    (hi - 19_342_813_118_337_666_422_669_312.0 + lo) * (1.0 / 9_007_199_254_740_992.0)
}

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
        mix(self.state)
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
        unit_f64(self.next_u64())
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

    /// `*v += self.next_gaussian() * sigma` for each of `vals` in order:
    /// the same bits, and the generator ends where that loop leaves it.
    ///
    /// Blocks of [`LANES`] values run side by side. Value `l` of a block
    /// gets its own generator, `12·l` draws past the block's first (the
    /// jump [`SplitMix64::advance`] makes), makes its twelve draws and
    /// sums them in the order `next_gaussian` does, so every lane's sum
    /// is the same sequence of roundings. The values past the last whole
    /// block use `next_gaussian` itself.
    #[inline(always)]
    pub(crate) fn add_gaussian(&mut self, vals: &mut [f64], sigma: f64) {
        let mut blocks = vals.chunks_exact_mut(LANES);
        for block in &mut blocks {
            let mut state = [0u64; LANES];
            for (l, s) in state.iter_mut().enumerate() {
                *s = self
                    .state
                    .wrapping_add((GAUSSIAN_DRAWS * l as u64).wrapping_mul(GAMMA));
            }
            let mut sum = [0.0f64; LANES];
            for _ in 0..GAUSSIAN_DRAWS {
                for (s, acc) in state.iter_mut().zip(&mut sum) {
                    *s = s.wrapping_add(GAMMA);
                    *acc += unit_f64(mix(*s));
                }
            }
            for (v, acc) in block.iter_mut().zip(sum) {
                *v += (acc - 6.0) * sigma;
            }
            self.advance(GAUSSIAN_DRAWS * LANES as u64);
        }
        for v in blocks.into_remainder() {
            *v += self.next_gaussian() * sigma;
        }
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
    fn add_gaussian_equals_per_value_loop() {
        // Shorter than one block, whole blocks, blocks plus a remainder.
        for len in [0, 1, 15, 16, 17, 32, 61] {
            let start: Vec<f64> = (0..len).map(|i| i as f64 * 3.5 - 40.0).collect();
            let mut lanes = SplitMix64::new(0x5EED);
            let mut got = start.clone();
            lanes.add_gaussian(&mut got, 14.0);
            let mut serial = SplitMix64::new(0x5EED);
            let want: Vec<f64> = start
                .iter()
                .map(|v| v + serial.next_gaussian() * 14.0)
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "len {len}");
            assert_eq!(lanes.next_u64(), serial.next_u64(), "len {len}: end state");
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }
}
