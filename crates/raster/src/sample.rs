//! Sub-pixel sampling and resizing, and the exact byte rounding they
//! share with the scanner model.
//!
//! Without SSE4.1, `f64::floor` and `f64::round` are libm calls. The
//! scanner samples tens of millions of pixels per frame, so
//! [`bilinear`]'s floor and [`quantize`] compute the same values with
//! add/subtract tricks on the FPU's own round-to-nearest.

use crate::image::GrayImage;

/// 1.5 · 2⁵²: adding it to an `f64` of magnitude below 2⁵¹ leaves a sum
/// in [2⁵², 2⁵³], where the spacing of doubles is 1, so the addition
/// rounds to the nearest integer (ties to even).
const ROUNDER: f64 = 6_755_399_441_055_744.0;

/// `x.floor()` and the same value as an integer, computed exactly
/// without libm for |x| < 2⁵¹.
///
/// `t = x + 1.5·2⁵²` rounds `x` to its nearest integer `n`, and
/// `r = t − 1.5·2⁵² = n` is exact (Sterbenz). `n` is also the distance
/// between the bit patterns of `t` and 1.5·2⁵² (one unit of the low bits
/// is 1 in that binade, and the step into 2⁵³ is too). When `r > x` the
/// floor is `n − 1`, taken without a branch: a sampler's fractional
/// positions make that test a coin flip. The integer converts back to
/// the float exactly, and the sign of `x` is copied onto it so that
/// `floor(-0.0)` is `-0.0`, as `f64::floor` has it. Outside that range,
/// and for NaN, this is `f64::floor` (the integer saturates, as `as`
/// does).
#[inline(always)]
fn floor(x: f64) -> (f64, i64) {
    if x.abs() < 2_251_799_813_685_248.0 {
        let t = x + ROUNDER;
        let n = t.to_bits() as i64 - ROUNDER.to_bits() as i64;
        let n = n - i64::from(t - ROUNDER > x);
        ((n as f64).copysign(x), n)
    } else {
        let f = x.floor();
        (f, f as i64)
    }
}

/// `v.round().clamp(0.0, 255.0) as u8`, without libm: the one rounding
/// of an intensity to a pixel.
///
/// Clamping first changes nothing (`round` is monotone and the bounds
/// are integers). For `c` in [0, 255], `c + 2⁵² − 2⁵²` is the nearest
/// integer `r` with ties to even, and `c − r` is exact (Sterbenz, or
/// `r = 0`); a tie that went down (`c − r = ½`) goes up instead, which is
/// `round`'s ties away from zero on non-negative values. NaN stays NaN
/// throughout and casts to 0, as it does in `f64::round`'s version.
#[inline(always)]
pub fn quantize(v: f64) -> u8 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let c = v.clamp(0.0, 255.0);
    let r = (c + TWO_52) - TWO_52;
    let r = if c - r == 0.5 { r + 1.0 } else { r };
    r as u8
}

/// `u8 → f64` by lookup: one load instead of an integer conversion per
/// tap of [`bilinear`].
static U8_F64: [f64; 256] = {
    let mut t = [0.0; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = i as f64;
        i += 1;
    }
    t
};

/// Bilinear sample at fractional coordinates (edge-clamped).
#[inline(always)]
pub fn bilinear(img: &GrayImage, x: f64, y: f64) -> f64 {
    let (x0, x0i) = floor(x);
    let (y0, y0i) = floor(y);
    let fx = x - x0;
    let fy = y - y0;
    let (w, h) = (img.width(), img.height());
    let d = img.as_bytes();
    let (p00, p10, p01, p11) = if x0i >= 0 && y0i >= 0 && x0i < w as i64 - 1 && y0i < h as i64 - 1 {
        // Interior: all four taps are in the image.
        let i = y0i as usize * w + x0i as usize;
        let (top, bottom) = (&d[i..i + 2], &d[i + w..i + w + 2]);
        (top[0], top[1], bottom[0], bottom[1])
    } else {
        let (x0i, y0i) = (x0i as isize, y0i as isize);
        let (x1i, y1i) = (x0i.saturating_add(1), y0i.saturating_add(1));
        (
            img.get_clamped(x0i, y0i),
            img.get_clamped(x1i, y0i),
            img.get_clamped(x0i, y1i),
            img.get_clamped(x1i, y1i),
        )
    };
    let [p00, p10, p01, p11] = [p00, p10, p01, p11].map(|p| U8_F64[p as usize]);
    p00 * (1.0 - fx) * (1.0 - fy) + p10 * fx * (1.0 - fy) + p01 * (1.0 - fx) * fy + p11 * fx * fy
}

/// Resize with bilinear interpolation (used when a 2K film frame is
/// scanned at 4K, and for emblem pyramid levels during detection).
pub fn resize(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
    assert!(new_w > 0 && new_h > 0);
    let mut out = GrayImage::new(new_w, new_h, 0);
    let sx = img.width() as f64 / new_w as f64;
    let sy = img.height() as f64 / new_h as f64;
    for y in 0..new_h {
        for x in 0..new_w {
            // Map pixel centres, not corners.
            let src_x = (x as f64 + 0.5) * sx - 0.5;
            let src_y = (y as f64 + 0.5) * sy - 0.5;
            out.set(x, y, quantize(bilinear(img, src_x, src_y)));
        }
    }
    out
}

/// Average the `block × block` cell with top-left `(x, y)` (clipped).
pub fn block_mean(img: &GrayImage, x: usize, y: usize, block: usize) -> f64 {
    let x1 = (x + block).min(img.width());
    let y1 = (y + block).min(img.height());
    if x >= x1 || y >= y1 {
        return 0.0;
    }
    let mut sum = 0u64;
    for yy in y..y1 {
        sum += img.row(yy)[x..x1].iter().map(|&p| p as u64).sum::<u64>();
    }
    sum as f64 / ((x1 - x) * (y1 - y)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_matches_libm_round_and_clamp() {
        let libm = |v: f64| v.round().clamp(0.0, 255.0) as u8;
        let specials = [
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            254.49999999999997,
            254.5,
            255.0,
            255.49999999999997,
            255.5,
            -0.5,
            -0.49999999999999994,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
        ];
        for v in specials {
            assert_eq!(quantize(v), libm(v), "{v:e}");
        }
        // Every half-integer in range and the doubles either side of it,
        // then seeded values over [-300, 600).
        for k in -300..600 {
            let half = k as f64 + 0.5;
            for v in [
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ] {
                assert_eq!(quantize(v), libm(v), "{v:e}");
            }
        }
        let mut rng = crate::rng::SplitMix64::new(0x0A17);
        for _ in 0..1_000_000 {
            let v = rng.next_f64() * 900.0 - 300.0;
            assert_eq!(quantize(v), libm(v), "{v:e}");
        }
    }

    #[test]
    fn floor_matches_libm_floor() {
        let two_51 = 2_251_799_813_685_248.0f64;
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.5,
            -0.5,
            -1e-300,
            two_51,
            -two_51,
            two_51 - 0.25,
            -(two_51 - 0.25),
            two_51 + 1.0,
            -(two_51 + 1.0),
            2.0 * two_51 + 1.0,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // Integers, the doubles just below and above them, and halves.
        for k in (-1000i64..1000).chain([1 << 20, -(1 << 20), 1 << 40, -(1 << 40)]) {
            let n = k as f64;
            let below = if n > 0.0 {
                n.to_bits() - 1
            } else {
                n.to_bits() + 1
            };
            values.extend([n, f64::from_bits(below), n + 0.5, n - 0.5]);
        }
        let mut rng = crate::rng::SplitMix64::new(0xF100);
        for _ in 0..100_000 {
            values.push((rng.next_f64() - 0.5) * 8192.0);
        }
        for x in values {
            let (f, n) = floor(x);
            let want = x.floor();
            assert!(
                f.to_bits() == want.to_bits() || (f.is_nan() && want.is_nan()),
                "floor({x:e}) = {f:e}, want {want:e}"
            );
            assert_eq!(n, want as i64, "floor({x:e}) as an integer");
        }
    }

    #[test]
    fn bilinear_at_integer_coords_is_exact() {
        let img = GrayImage::from_raw(2, 2, vec![0, 100, 200, 50]);
        assert_eq!(bilinear(&img, 0.0, 0.0), 0.0);
        assert_eq!(bilinear(&img, 1.0, 0.0), 100.0);
        assert_eq!(bilinear(&img, 0.0, 1.0), 200.0);
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let img = GrayImage::from_raw(2, 1, vec![0, 100]);
        assert!((bilinear(&img, 0.5, 0.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn resize_identity() {
        let img = GrayImage::from_raw(3, 2, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(resize(&img, 3, 2), img);
    }

    #[test]
    fn upscale_preserves_flat_regions() {
        let img = GrayImage::new(10, 10, 77);
        let up = resize(&img, 20, 20);
        assert!(up.as_bytes().iter().all(|&p| p == 77));
    }

    #[test]
    fn downscale_averages() {
        let mut img = GrayImage::new(4, 4, 0);
        for y in 0..4 {
            for x in 2..4 {
                img.set(x, y, 200);
            }
        }
        let down = resize(&img, 2, 2);
        // Left column black, right column bright.
        assert!(down.get(0, 0) < 60);
        assert!(down.get(1, 0) > 140);
    }

    #[test]
    fn block_mean_matches_per_pixel_reference() {
        let mut rng = crate::rng::SplitMix64::new(0xB10C);
        let (w, h) = (23, 17);
        let img = GrayImage::from_raw(w, h, (0..w * h).map(|_| rng.next_u64() as u8).collect());
        // Interior blocks, blocks clipped at the right and bottom edges,
        // and origins past the image (mean 0).
        for y in [0, 5, 14, 16, 17, 30] {
            for x in [0, 3, 20, 22, 23, 40] {
                for block in [1, 2, 3, 5, 8] {
                    let (x1, y1) = ((x + block).min(w), (y + block).min(h));
                    let want = if x >= x1 || y >= y1 {
                        0.0
                    } else {
                        let sum: u64 = (y..y1)
                            .flat_map(|yy| (x..x1).map(move |xx| (xx, yy)))
                            .map(|(xx, yy)| img.get(xx, yy) as u64)
                            .sum();
                        sum as f64 / ((x1 - x) * (y1 - y)) as f64
                    };
                    assert_eq!(
                        block_mean(&img, x, y, block),
                        want,
                        "({x},{y}) block {block}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_mean_of_uniform_block() {
        let img = GrayImage::new(8, 8, 42);
        assert!((block_mean(&img, 2, 2, 4) - 42.0).abs() < 1e-9);
    }
}
