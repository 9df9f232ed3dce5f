//! Scanner / media degradation simulation.
//!
//! §3.1 of the paper enumerates the error sources emblems must survive:
//! film distortion and damage ("fading, hot spots, scratches"), scanner
//! lenses that "change straight lines into curves", "small perturbations or
//! unsteady movements" of linear-array transports, and dust. [`Scanner`]
//! models each effect with seeded, reproducible noise so robustness
//! experiments can sweep severity deterministically.

use crate::image::GrayImage;
use crate::rng::{SplitMix64, GAUSSIAN_DRAWS};
use crate::sample::{bilinear, quantize};

/// Degradation severities. All default to zero (an ideal scanner); media
/// profiles in `ule-media` supply calibrated presets.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradeParams {
    /// Additive Gaussian intensity noise, sigma in gray levels.
    pub noise_sigma: f64,
    /// Dust specks per megapixel (drawn as dark or light blobs).
    pub dust_per_mpx: f64,
    /// Maximum dust radius in pixels.
    pub dust_max_radius: f64,
    /// Number of straight scratches across the frame.
    pub scratches: usize,
    /// Scratch width in pixels.
    pub scratch_width: f64,
    /// Peak amplitude of low-frequency fading (gray levels, brightens).
    pub fade_amplitude: f64,
    /// Number of circular hot spots (localised over-exposure).
    pub hotspots: usize,
    /// Peak hot-spot brightening in gray levels.
    pub hotspot_amplitude: f64,
    /// Per-row horizontal jitter from transport wobble, in pixels (peak).
    pub row_jitter: f64,
    /// Radial lens distortion coefficient (positive = barrel). The
    /// displacement at the image corner is roughly `k * (diag/2)` pixels
    /// per unit of normalised radius cubed; keep |k| ≤ 0.02.
    pub lens_k: f64,
    /// Output resolution scale (1.0 = same as input; 2.0 models the 4K
    /// scan of a 2K film frame).
    pub scan_scale: f64,
}

impl Default for DegradeParams {
    fn default() -> Self {
        Self {
            noise_sigma: 0.0,
            dust_per_mpx: 0.0,
            dust_max_radius: 0.0,
            scratches: 0,
            scratch_width: 0.0,
            fade_amplitude: 0.0,
            hotspots: 0,
            hotspot_amplitude: 0.0,
            row_jitter: 0.0,
            lens_k: 0.0,
            scan_scale: 1.0,
        }
    }
}

impl DegradeParams {
    /// An ideal, noise-free scan.
    pub fn pristine() -> Self {
        Self::default()
    }

    /// Multiply every severity by `f` (used for robustness sweeps).
    pub fn scaled(&self, f: f64) -> Self {
        Self {
            noise_sigma: self.noise_sigma * f,
            dust_per_mpx: self.dust_per_mpx * f,
            dust_max_radius: self.dust_max_radius,
            scratches: (self.scratches as f64 * f).round() as usize,
            scratch_width: self.scratch_width,
            fade_amplitude: self.fade_amplitude * f,
            hotspots: (self.hotspots as f64 * f).round() as usize,
            hotspot_amplitude: self.hotspot_amplitude,
            row_jitter: self.row_jitter * f,
            lens_k: self.lens_k * f,
            scan_scale: self.scan_scale,
        }
    }
}

/// A deterministic scanner: `scan()` maps a print master to the grayscale
/// image a physical scanner would deliver.
///
/// A scan runs in three steps, each public so callers can fan the
/// expensive middle one out: [`Scanner::plan`] draws every random choice
/// that is not per-pixel noise, [`ScanPlan::render_rows`] renders any
/// band of rows (geometry, fading, sensor noise), and
/// [`ScanPlan::paint_defects`] paints the sparse defects over the whole
/// frame. [`Scanner::scan`] is the three steps in order, on one thread.
pub struct Scanner {
    params: DegradeParams,
    seed: u64,
}

struct Blob {
    x: f64,
    y: f64,
    r: f64,
    delta: f64,
}

struct Scratch {
    // Line through (x0, y0) with direction (dx, dy), normalised.
    x0: f64,
    y0: f64,
    dx: f64,
    dy: f64,
    width: f64,
    delta: f64,
}

/// Everything [`Scanner::scan`] decides before its pixel loop, for one
/// master: the output size, the defect geometry, the per-row jitter, the
/// fade field's column and row terms, the lens field's column terms, and
/// the RNG state the noise stream starts from.
///
/// The noise stream is counter-based: row `y` starts
/// `12 · y · width` draws past that state, so any band of rows renders on
/// its own ([`SplitMix64::advance`]) and the frame is byte-identical
/// however its rows are split.
pub struct ScanPlan {
    width: usize,
    height: usize,
    /// Size of the master the plan was drawn for.
    master_size: (usize, usize),
    params: DegradeParams,
    /// Pass 1 is a plain copy (no lens, jitter or resampling).
    identity_geometry: bool,
    cx: f64,
    cy: f64,
    half_diag: f64,
    inv_scale: f64,
    /// RNG state after the plan's draws: the start of the noise stream.
    noise: SplitMix64,
    dust: Vec<Blob>,
    hotspots: Vec<Blob>,
    scratches: Vec<Scratch>,
    jitter: Vec<f64>,
    /// Fade `sin` term per column and per row.
    fade_col: Vec<f64>,
    fade_row: Vec<f64>,
    /// Lens terms per column: `x - cx` and `rx²`.
    lens_col: Vec<(f64, f64)>,
    /// Render with the AVX2 compilation of the row kernel (the host has
    /// AVX2; detected once per plan).
    avx2: bool,
}

impl Scanner {
    pub fn new(params: DegradeParams, seed: u64) -> Self {
        Self { params, seed }
    }

    pub fn params(&self) -> &DegradeParams {
        &self.params
    }

    /// Produce the scanned image of `master`.
    pub fn scan(&self, master: &GrayImage) -> GrayImage {
        let plan = self.plan(master);
        let mut out = GrayImage::new(plan.width(), plan.height(), 0);
        plan.render_rows(master, 0, out.as_bytes_mut());
        plan.paint_defects(&mut out);
        out
    }

    /// Draw the scan of `master`'s random structure: dust, hot spots,
    /// scratches, row jitter and fade phases, in that order from the
    /// seed, then the per-row and per-column field terms.
    pub fn plan(&self, master: &GrayImage) -> ScanPlan {
        let p = &self.params;
        let out_w = ((master.width() as f64) * p.scan_scale).round().max(1.0) as usize;
        let out_h = ((master.height() as f64) * p.scan_scale).round().max(1.0) as usize;
        let mut rng = SplitMix64::new(self.seed);

        // Pre-draw the defect geometry in *output* coordinates.
        let mpx = (out_w * out_h) as f64 / 1.0e6;
        let n_dust = (p.dust_per_mpx * mpx).round() as usize;
        let mut dust = Vec::with_capacity(n_dust);
        for _ in 0..n_dust {
            dust.push(Blob {
                x: rng.next_f64() * out_w as f64,
                y: rng.next_f64() * out_h as f64,
                r: 0.5 + rng.next_f64() * p.dust_max_radius.max(0.5),
                // Dust is dark on a light background and light on film negatives;
                // flip a coin.
                delta: if rng.next_f64() < 0.5 { -255.0 } else { 255.0 },
            });
        }
        let mut hotspots = Vec::with_capacity(p.hotspots);
        for _ in 0..p.hotspots {
            hotspots.push(Blob {
                x: rng.next_f64() * out_w as f64,
                y: rng.next_f64() * out_h as f64,
                r: (out_w.min(out_h) as f64) * (0.05 + rng.next_f64() * 0.1),
                delta: p.hotspot_amplitude,
            });
        }
        let mut scratches = Vec::with_capacity(p.scratches);
        for _ in 0..p.scratches {
            let angle = rng.next_f64() * std::f64::consts::PI;
            scratches.push(Scratch {
                x0: rng.next_f64() * out_w as f64,
                y0: rng.next_f64() * out_h as f64,
                dx: angle.cos(),
                dy: angle.sin(),
                width: 0.5 + rng.next_f64() * p.scratch_width.max(0.5),
                delta: if rng.next_f64() < 0.5 { -200.0 } else { 200.0 },
            });
        }
        // Row jitter offsets (smooth random walk, clamped).
        let mut jitter = vec![0.0f64; out_h];
        let mut j = 0.0f64;
        for slot in jitter.iter_mut() {
            j += (rng.next_f64() - 0.5) * 0.4 * p.row_jitter.max(0.0);
            j = j.clamp(-p.row_jitter, p.row_jitter);
            *slot = j;
        }
        // Fading: low-frequency sinusoidal brightness field with random
        // phase, separable into a column term and a row term.
        let fade_px = rng.next_f64() * std::f64::consts::TAU;
        let fade_py = rng.next_f64() * std::f64::consts::TAU;
        let fade_col = (0..out_w)
            .map(|x| (x as f64 / out_w as f64 * 2.3 + fade_px).sin())
            .collect();
        let fade_row = (0..out_h)
            .map(|y| (y as f64 / out_h as f64 * 1.7 + fade_py).sin())
            .collect();

        let cx = out_w as f64 / 2.0;
        let cy = out_h as f64 / 2.0;
        let half_diag = (cx * cx + cy * cy).sqrt();
        let lens_col = (0..out_w)
            .map(|x| {
                let dx = x as f64 - cx;
                let rx = dx / half_diag;
                (dx, rx * rx)
            })
            .collect();
        ScanPlan {
            width: out_w,
            height: out_h,
            master_size: (master.width(), master.height()),
            params: p.clone(),
            identity_geometry: p.lens_k == 0.0 && p.row_jitter == 0.0 && p.scan_scale == 1.0,
            cx,
            cy,
            half_diag,
            inv_scale: 1.0 / p.scan_scale,
            noise: rng,
            dust,
            hotspots,
            scratches,
            jitter,
            fade_col,
            fade_row,
            lens_col,
            avx2: has_avx2(),
        }
    }
}

/// Whether this host runs the AVX2 compilation of the row kernel.
fn has_avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if is_x86_feature_detected!("avx2") {
        return true;
    }
    false
}

impl ScanPlan {
    /// Output width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Output height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pass 1 — geometry, fading and sensor noise — for the output rows
    /// starting at `y0`; `rows` holds whole rows and its length sets how
    /// many. Defects are painted sparsely afterwards: a page-sized frame
    /// has tens of millions of pixels.
    ///
    /// # Panics
    /// Panics if `master` is not the size of the master the plan was drawn
    /// for, or if `rows` is not a whole number of rows or runs past the
    /// last one.
    pub fn render_rows(&self, master: &GrayImage, y0: usize, rows: &mut [u8]) {
        let w = self.width;
        assert_eq!(
            (master.width(), master.height()),
            self.master_size,
            "master size"
        );
        assert!(
            rows.len() % w == 0 && y0 + rows.len() / w <= self.height,
            "{} bytes from row {y0} are not whole rows of a {w}x{} scan",
            rows.len(),
            self.height
        );
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if self.avx2 {
            // SAFETY: `avx2` is set only where `is_x86_feature_detected!`
            // found AVX2 on this host, which is all the wrapper requires.
            return unsafe { self.render_rows_avx2(master, y0, rows) };
        }
        self.render_rows_kernel(master, y0, rows);
    }

    /// [`ScanPlan::render_rows`]'s kernel compiled with AVX2 enabled. AVX2
    /// adds vector instructions, not FMA, and Rust never contracts float
    /// operations on its own, so both compilations of the kernel compute
    /// the same IEEE results.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    unsafe fn render_rows_avx2(&self, master: &GrayImage, y0: usize, rows: &mut [u8]) {
        self.render_rows_kernel(master, y0, rows);
    }

    /// The row kernel: four passes per row over one `f64` row buffer,
    /// each a loop over the row with no per-pixel branches on the plan.
    ///
    /// 1. geometry — the master row itself, or the lens/jitter position
    ///    sampled bilinearly;
    /// 2. fade — the separable brightness field;
    /// 3. noise — [`SplitMix64::add_gaussian`], continuing the row's
    ///    stream (row `y` starts `12 · y · width` draws into it);
    /// 4. quantise — [`quantize`] into the output row.
    ///
    /// Every pixel goes through the same operations in the same order as
    /// the per-pixel formula `quantize(geometry + fade + noise · σ)`.
    #[inline(always)]
    fn render_rows_kernel(&self, master: &GrayImage, y0: usize, rows: &mut [u8]) {
        let p = &self.params;
        let w = self.width;
        let mut rng = self.noise.clone();
        if p.noise_sigma > 0.0 {
            rng.advance(GAUSSIAN_DRAWS * (y0 * w) as u64);
        }
        let mut buf = vec![0.0f64; w];
        for (y, row) in (y0..).zip(rows.chunks_exact_mut(w)) {
            if self.identity_geometry {
                for (v, &px) in buf.iter_mut().zip(master.row(y)) {
                    *v = f64::from(px);
                }
            } else {
                let jit = self.jitter[y];
                let dy = y as f64 - self.cy;
                let ry = dy / self.half_diag;
                let ry2 = ry * ry;
                for (v, &(dx, rx2)) in buf.iter_mut().zip(&self.lens_col) {
                    let factor = 1.0 + p.lens_k * (rx2 + ry2);
                    let sx = self.cx + dx * factor + jit;
                    let sy = self.cy + dy * factor;
                    *v = bilinear(master, sx * self.inv_scale, sy * self.inv_scale);
                }
            }
            if p.fade_amplitude > 0.0 {
                let fade_row = self.fade_row[y];
                for (v, &fade_col) in buf.iter_mut().zip(&self.fade_col) {
                    *v += p.fade_amplitude * 0.5 * (fade_col + fade_row);
                }
            }
            if p.noise_sigma > 0.0 {
                rng.add_gaussian(&mut buf, p.noise_sigma);
            }
            for (px, &v) in row.iter_mut().zip(&buf) {
                *px = quantize(v);
            }
        }
    }

    /// Pass 2 — hot spots, scratches and dust, each painted only over its
    /// footprint — on the rendered frame `out`.
    pub fn paint_defects(&self, out: &mut GrayImage) {
        let (out_w, out_h) = (self.width, self.height);
        assert_eq!((out.width(), out.height()), (out_w, out_h), "scan size");
        let add_clamped = |out: &mut GrayImage, x: usize, y: usize, delta: f64| {
            out.set(x, y, quantize(out.get(x, y) as f64 + delta));
        };
        for h in &self.hotspots {
            let r = h.r.ceil() as isize;
            let hx = h.x.round() as isize;
            let hy = h.y.round() as isize;
            for y in (hy - r).max(0)..(hy + r + 1).min(out_h as isize) {
                for x in (hx - r).max(0)..(hx + r + 1).min(out_w as isize) {
                    let d2 = (x as f64 - h.x).powi(2) + (y as f64 - h.y).powi(2);
                    if d2 < h.r * h.r {
                        add_clamped(
                            out,
                            x as usize,
                            y as usize,
                            h.delta * (1.0 - d2 / (h.r * h.r)),
                        );
                    }
                }
            }
        }
        for scr in &self.scratches {
            // Walk the line across the frame, painting a disc per step.
            let diag = ((out_w * out_w + out_h * out_h) as f64).sqrt();
            let mut t = -diag;
            while t <= diag {
                let x = scr.x0 + t * scr.dx;
                let y = scr.y0 + t * scr.dy;
                t += 0.5;
                if x < -scr.width
                    || y < -scr.width
                    || x >= out_w as f64 + scr.width
                    || y >= out_h as f64 + scr.width
                {
                    continue;
                }
                let r = scr.width.ceil() as isize;
                let sx = x.round() as isize;
                let sy = y.round() as isize;
                for yy in (sy - r).max(0)..(sy + r + 1).min(out_h as isize) {
                    for xx in (sx - r).max(0)..(sx + r + 1).min(out_w as isize) {
                        let px = xx as f64 - scr.x0;
                        let py = yy as f64 - scr.y0;
                        let dist = (px * scr.dy - py * scr.dx).abs();
                        if dist < scr.width {
                            let target = if scr.delta < 0.0 { 0.0 } else { 255.0 };
                            let v = out.get(xx as usize, yy as usize) as f64;
                            out.set(xx as usize, yy as usize, (v * 0.2 + target * 0.8) as u8);
                        }
                    }
                }
            }
        }
        for d in &self.dust {
            let r = d.r.ceil() as isize;
            let dx0 = d.x.round() as isize;
            let dy0 = d.y.round() as isize;
            let fill = if d.delta < 0.0 { 0u8 } else { 255 };
            for y in (dy0 - r).max(0)..(dy0 + r + 1).min(out_h as isize) {
                for x in (dx0 - r).max(0)..(dx0 + r + 1).min(out_w as isize) {
                    let d2 = (x as f64 - d.x).powi(2) + (y as f64 - d.y).powi(2);
                    if d2 < d.r * d.r {
                        out.set(x as usize, y as usize, fill);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::fill_rect;

    fn master() -> GrayImage {
        let mut img = GrayImage::new(100, 100, 255);
        fill_rect(&mut img, 20, 20, 60, 60, 0);
        img
    }

    /// The per-pixel formula the row kernel replaced, with libm's `floor`
    /// and `round` and the integer-to-float uniform: the oracle for the
    /// kernel's bytes.
    fn render_rows_reference(plan: &ScanPlan, master: &GrayImage, y0: usize, rows: &mut [u8]) {
        let p = &plan.params;
        let w = plan.width;
        let bilinear = |x: f64, y: f64| {
            let x0 = x.floor();
            let y0 = y.floor();
            let fx = x - x0;
            let fy = y - y0;
            let x0i = x0 as isize;
            let y0i = y0 as isize;
            let p00 = master.get_clamped(x0i, y0i) as f64;
            let p10 = master.get_clamped(x0i + 1, y0i) as f64;
            let p01 = master.get_clamped(x0i, y0i + 1) as f64;
            let p11 = master.get_clamped(x0i + 1, y0i + 1) as f64;
            p00 * (1.0 - fx) * (1.0 - fy)
                + p10 * fx * (1.0 - fy)
                + p01 * (1.0 - fx) * fy
                + p11 * fx * fy
        };
        let mut rng = plan.noise.clone();
        if p.noise_sigma > 0.0 {
            rng.advance(GAUSSIAN_DRAWS * (y0 * w) as u64);
        }
        let mut gaussian = || {
            let mut s = 0.0;
            for _ in 0..GAUSSIAN_DRAWS {
                s += (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            }
            s - 6.0
        };
        for (y, row) in (y0..).zip(rows.chunks_exact_mut(w)) {
            let jit = plan.jitter[y];
            let dy = y as f64 - plan.cy;
            let ry = dy / plan.half_diag;
            let ry2 = ry * ry;
            for (x, px) in row.iter_mut().enumerate() {
                let mut v = if plan.identity_geometry {
                    master.get(x, y) as f64
                } else {
                    let (dx, rx2) = plan.lens_col[x];
                    let factor = 1.0 + p.lens_k * (rx2 + ry2);
                    let sx = plan.cx + dx * factor + jit;
                    let sy = plan.cy + dy * factor;
                    bilinear(sx * plan.inv_scale, sy * plan.inv_scale)
                };
                if p.fade_amplitude > 0.0 {
                    v += p.fade_amplitude * 0.5 * (plan.fade_col[x] + plan.fade_row[y]);
                }
                if p.noise_sigma > 0.0 {
                    v += gaussian() * p.noise_sigma;
                }
                *px = v.round().clamp(0.0, 255.0) as u8;
            }
        }
    }

    /// A master of seeded gray levels with bitonal runs, so bilinear taps
    /// mix arbitrary values and hard edges.
    fn gray_master(w: usize, h: usize, seed: u64) -> GrayImage {
        let mut rng = SplitMix64::new(seed);
        let data = (0..w * h)
            .map(|i| match (i / 7) % 3 {
                0 => 0,
                1 => 255,
                _ => rng.next_u64() as u8,
            })
            .collect();
        GrayImage::from_raw(w, h, data)
    }

    #[test]
    fn row_kernels_match_per_pixel_reference() {
        // The scanner parameters of every media preset (scan scales 1.0,
        // 1.28 and 2.0), plus the corners of the kernel: no noise,
        // identity geometry with and without fade and noise, and a lens
        // and jitter strong enough to sample off the master's edges.
        let mut cases: Vec<(String, DegradeParams)> = [
            ule_media::Medium::paper_a4_600dpi(),
            ule_media::Medium::microfilm_16mm(),
            ule_media::Medium::cinema_35mm(),
            ule_media::Medium::test_tiny(),
            ule_media::Medium::test_micro(),
        ]
        .into_iter()
        .map(|m| {
            let d = m.degrade;
            let params = DegradeParams {
                noise_sigma: d.noise_sigma,
                dust_per_mpx: d.dust_per_mpx,
                dust_max_radius: d.dust_max_radius,
                scratches: d.scratches,
                scratch_width: d.scratch_width,
                fade_amplitude: d.fade_amplitude,
                hotspots: d.hotspots,
                hotspot_amplitude: d.hotspot_amplitude,
                row_jitter: d.row_jitter,
                lens_k: d.lens_k,
                scan_scale: d.scan_scale,
            };
            (m.name.to_string(), params)
        })
        .collect();
        let a4 = cases[0].1.clone();
        cases.extend([
            (
                "A4 without noise".to_string(),
                DegradeParams {
                    noise_sigma: 0.0,
                    ..a4.clone()
                },
            ),
            ("pristine".to_string(), DegradeParams::pristine()),
            (
                "identity geometry, fade and noise".to_string(),
                DegradeParams {
                    noise_sigma: 9.0,
                    fade_amplitude: 12.0,
                    ..Default::default()
                },
            ),
            (
                "lens and jitter past the edges".to_string(),
                DegradeParams {
                    lens_k: 0.5,
                    row_jitter: 3.0,
                    scan_scale: 1.28,
                    ..a4
                },
            ),
        ]);
        let mut kernels = vec![false];
        if has_avx2() {
            kernels.push(true);
        }
        // Output widths below one 16-lane block, whole blocks, and whole
        // blocks plus a remainder.
        for (name, params) in &cases {
            for (mw, mh) in [(11, 9), (48, 21), (61, 40), (100, 33)] {
                let master = gray_master(mw, mh, (mw * mh) as u64);
                let mut plan = Scanner::new(params.clone(), 0x5CA7 ^ mw as u64).plan(&master);
                let (w, h) = (plan.width(), plan.height());
                let mut want = vec![0u8; w * h];
                render_rows_reference(&plan, &master, 0, &mut want);
                for &avx2 in &kernels {
                    plan.avx2 = avx2;
                    // The whole frame, then bands from non-zero rows.
                    for (y0, n) in [(0, h), (1, h - 1), (h / 2, 1), (h / 3, h / 2), (h - 1, 1)] {
                        let mut got = vec![0u8; w * n];
                        plan.render_rows(&master, y0, &mut got);
                        assert!(
                            got == want[y0 * w..(y0 + n) * w],
                            "{name}: {mw}x{mh} master, rows {y0}..{}, avx2 {avx2}",
                            y0 + n
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pristine_scan_is_identity() {
        let m = master();
        let s = Scanner::new(DegradeParams::pristine(), 1).scan(&m);
        assert_eq!(s, m);
    }

    #[test]
    fn scan_is_deterministic_per_seed() {
        let m = master();
        let p = DegradeParams {
            noise_sigma: 10.0,
            dust_per_mpx: 500.0,
            dust_max_radius: 2.0,
            ..Default::default()
        };
        let a = Scanner::new(p.clone(), 7).scan(&m);
        let b = Scanner::new(p.clone(), 7).scan(&m);
        let c = Scanner::new(p, 8).scan(&m);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_perturbs_but_preserves_structure() {
        let m = master();
        let p = DegradeParams {
            noise_sigma: 8.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 3).scan(&m);
        // Interior of the black square stays predominantly dark.
        assert!(s.get(50, 50) < 80);
        assert!(s.get(5, 5) > 175);
        // Roughly half the pixels move: clamping at 0/255 hides the half of
        // the Gaussian that pushes past the rails on a bitonal master.
        assert!(s.diff_fraction(&m) > 0.3);
    }

    #[test]
    fn scan_scale_resizes_output() {
        let m = master();
        let p = DegradeParams {
            scan_scale: 2.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 1).scan(&m);
        assert_eq!(s.width(), 200);
        assert_eq!(s.height(), 200);
        // Same structure at doubled coordinates.
        assert!(s.get(100, 100) < 30);
        assert!(s.get(10, 10) > 220);
    }

    #[test]
    fn dust_creates_saturated_specks() {
        let m = GrayImage::new(200, 200, 128);
        let p = DegradeParams {
            dust_per_mpx: 2000.0,
            dust_max_radius: 3.0,
            ..Default::default()
        };
        let s = Scanner::new(p, 11).scan(&m);
        let extremes = s.as_bytes().iter().filter(|&&v| v == 0 || v == 255).count();
        assert!(extremes > 50, "only {extremes} saturated pixels");
    }

    #[test]
    fn lens_distortion_moves_edges_not_centre() {
        let m = master();
        let p = DegradeParams {
            lens_k: 0.05,
            ..Default::default()
        };
        let s = Scanner::new(p, 1).scan(&m);
        // Centre pixel unchanged; some pixels near the square's border moved.
        assert_eq!(s.get(50, 50), m.get(50, 50));
        assert!(s.diff_fraction(&m) > 0.001);
    }

    #[test]
    fn scaled_zero_is_pristine() {
        let p = DegradeParams {
            noise_sigma: 5.0,
            dust_per_mpx: 100.0,
            scratches: 3,
            fade_amplitude: 20.0,
            hotspots: 2,
            row_jitter: 1.5,
            lens_k: 0.01,
            ..Default::default()
        };
        let z = p.scaled(0.0);
        assert_eq!(z.noise_sigma, 0.0);
        assert_eq!(z.scratches, 0);
        assert_eq!(z.lens_k, 0.0);
    }
}
