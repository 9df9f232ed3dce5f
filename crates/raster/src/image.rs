//! 8-bit grayscale raster.

/// An 8-bit grayscale image. Pixel (0,0) is the top-left corner; rows are
/// stored contiguously. Bitonal artifacts (print masters, microfilm frames)
/// use only the values 0 (black) and 255 (white).
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl std::fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GrayImage({}x{})", self.width, self.height)
    }
}

impl GrayImage {
    /// A `width` × `height` image filled with `fill`.
    pub fn new(width: usize, height: usize, fill: u8) -> Self {
        Self {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Wrap an existing buffer (len must equal `width * height`).
    pub fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "buffer size mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixel buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Pixel value with out-of-bounds reads clamped to the nearest edge.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// One image row.
    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// True when every pixel is 0 or 255.
    pub fn is_bitonal(&self) -> bool {
        self.data.iter().all(|&p| p == 0 || p == 255)
    }

    /// Global threshold: pixels `< t` become 0, others 255.
    pub fn threshold(&self, t: u8) -> GrayImage {
        let data = self
            .data
            .iter()
            .map(|&p| if p < t { 0 } else { 255 })
            .collect();
        GrayImage {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Otsu's method: the threshold that minimises intra-class variance.
    /// Robust against the global brightness shifts film fading causes.
    pub fn otsu_threshold(&self) -> u8 {
        let hist = self.histogram();
        let total = self.data.len() as u64;
        if total == 0 {
            return 128;
        }
        let sum_all: u64 = hist.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        let mut sum_b = 0u64;
        let mut w_b = 0u64;
        let mut best_t = 128u8;
        let mut best_var = -1.0f64;
        for (t, &count) in hist.iter().enumerate() {
            w_b += count;
            if w_b == 0 {
                continue;
            }
            let w_f = total - w_b;
            if w_f == 0 {
                break;
            }
            sum_b += t as u64 * count;
            let m_b = sum_b as f64 / w_b as f64;
            let m_f = (sum_all - sum_b) as f64 / w_f as f64;
            let var = w_b as f64 * w_f as f64 * (m_b - m_f) * (m_b - m_f);
            if var > best_var {
                best_var = var;
                best_t = t as u8;
            }
        }
        best_t.saturating_add(1)
    }

    /// Pixel count per value. Four interleaved sub-histograms break the
    /// store-to-load chain a single histogram forms on runs of equal
    /// pixels; their sum is the same histogram.
    fn histogram(&self) -> [u64; 256] {
        let mut sub = [[0u64; 256]; 4];
        let mut quads = self.data.chunks_exact(4);
        for q in &mut quads {
            sub[0][q[0] as usize] += 1;
            sub[1][q[1] as usize] += 1;
            sub[2][q[2] as usize] += 1;
            sub[3][q[3] as usize] += 1;
        }
        for &p in quads.remainder() {
            sub[0][p as usize] += 1;
        }
        std::array::from_fn(|v| sub.iter().map(|s| s[v]).sum())
    }

    /// Mean pixel value (0 for an empty image).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&p| p as u64).sum::<u64>() as f64 / self.data.len() as f64
    }

    /// Fraction of pixels differing from `other` (images must match in size).
    pub fn diff_fraction(&self, other: &GrayImage) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        if self.data.is_empty() {
            return 0.0;
        }
        let differing = self
            .data
            .iter()
            .zip(&other.data)
            .filter(|(a, b)| a != b)
            .count();
        differing as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(4, 3, 200);
        assert_eq!(img.get(3, 2), 200);
        img.set(1, 1, 9);
        assert_eq!(img.get(1, 1), 9);
        assert_eq!(img.row(1), &[200, 9, 200, 200]);
    }

    #[test]
    fn clamped_reads() {
        let img = GrayImage::from_raw(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(img.get_clamped(-5, -5), 1);
        assert_eq!(img.get_clamped(10, 10), 4);
        assert_eq!(img.get_clamped(10, -1), 2);
    }

    #[test]
    fn threshold_splits_values() {
        let img = GrayImage::from_raw(3, 1, vec![10, 128, 250]);
        let t = img.threshold(128);
        assert_eq!(t.as_bytes(), &[0, 255, 255]);
        assert!(t.is_bitonal());
        assert!(!img.is_bitonal());
    }

    #[test]
    fn otsu_separates_two_clusters() {
        let mut data = vec![30u8; 500];
        data.extend(vec![220u8; 500]);
        let img = GrayImage::from_raw(100, 10, data);
        let t = img.otsu_threshold();
        assert!(t > 30 && t <= 220, "t={t}");
        let b = img.threshold(t);
        assert_eq!(b.as_bytes().iter().filter(|&&p| p == 0).count(), 500);
    }

    #[test]
    fn histogram_matches_single_pass_reference() {
        let mut rng = crate::rng::SplitMix64::new(0x0775);
        // Pixel counts that are and are not multiples of 4, plus empty.
        for (w, h) in [(0, 0), (1, 1), (3, 1), (5, 3), (64, 64), (101, 37)] {
            let img = GrayImage::from_raw(w, h, (0..w * h).map(|_| rng.next_u64() as u8).collect());
            let mut want = [0u64; 256];
            for &p in img.as_bytes() {
                want[p as usize] += 1;
            }
            assert_eq!(img.histogram(), want, "{w}x{h}");
        }
        assert_eq!(GrayImage::new(0, 5, 0).otsu_threshold(), 128);
    }

    #[test]
    fn diff_fraction_counts() {
        let a = GrayImage::from_raw(2, 2, vec![0, 0, 0, 0]);
        let b = GrayImage::from_raw(2, 2, vec![0, 255, 0, 255]);
        assert!((a.diff_fraction(&b) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_raw_validates_len() {
        GrayImage::from_raw(3, 3, vec![0; 8]);
    }
}
