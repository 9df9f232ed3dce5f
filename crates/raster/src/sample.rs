//! Sub-pixel sampling and resizing.

use crate::image::GrayImage;

/// Bilinear sample at fractional coordinates (edge-clamped).
#[inline]
pub fn bilinear(img: &GrayImage, x: f64, y: f64) -> f64 {
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let x0i = x0 as isize;
    let y0i = y0 as isize;
    let p00 = img.get_clamped(x0i, y0i) as f64;
    let p10 = img.get_clamped(x0i + 1, y0i) as f64;
    let p01 = img.get_clamped(x0i, y0i + 1) as f64;
    let p11 = img.get_clamped(x0i + 1, y0i + 1) as f64;
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
            out.set(
                x,
                y,
                bilinear(img, src_x, src_y).round().clamp(0.0, 255.0) as u8,
            );
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
