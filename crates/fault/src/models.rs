//! The fault-model zoo: realistic damage mechanisms for scanned media.
//!
//! Severity semantics are normalised so every model reads the same knob:
//! `severity` ∈ [0, 1], where `0.0` is **exactly** the identity and `1.0`
//! is total destruction of whatever the model attacks. Pixel models define
//! severity as the *damaged area fraction* of the frame wherever that is
//! meaningful (scratches, blotches, tears, spotting), so the §3.1
//! inner-code boundary ("up to 7.2% damaged data") maps directly onto the
//! severity axis; [`ContrastFade`] instead uses severity as the fraction
//! of the dynamic range already lost; frame-set models use the fraction of
//! frames lost or displaced.
//!
//! Every model draws all randomness from the [`SplitMix64`] handed in, so
//! a `(model, severity, seed)` triple always produces the same bytes —
//! campaigns are replayable and the golden suite can pin fault-injected
//! scans.

use ule_raster::rng::SplitMix64;
use ule_raster::sample::quantize;
use ule_raster::GrayImage;

/// One damage mechanism. Implementations override whichever of the two
/// hooks matches their scope; the other defaults to a no-op, so pixel
/// models compose with frame-set models in a single [`crate::FaultPlan`].
pub trait FaultModel: Send + Sync {
    /// Stable name used in campaign reports and golden fixtures.
    fn name(&self) -> &'static str;

    /// Damage one scanned frame in place. Severity `0.0` must leave the
    /// frame untouched.
    fn apply_frame(&self, _frame: &mut GrayImage, _severity: f64, _rng: &mut SplitMix64) {}

    /// Restructure the scan list (drop/reorder whole frames). Severity
    /// `0.0` must leave the list untouched.
    fn apply_set(&self, _frames: &mut Vec<GrayImage>, _severity: f64, _rng: &mut SplitMix64) {}
}

/// `min(k, n)` distinct seeded indices in `0..n`, in draw order (the
/// rejection-sampling loop every frame-set model shares; the draw
/// sequence is part of the frozen fault-injection surface — the golden
/// suite pins bytes produced through it).
fn pick_distinct(n: usize, k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let k = k.min(n);
    let mut seen = vec![false; n];
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let i = rng.next_below(n);
        if !seen[i] {
            seen[i] = true;
            out.push(i);
        }
    }
    out
}

/// Direction of a [`BurstScratch`] dropout band.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Bands run top-to-bottom (film transport scratches).
    Vertical,
    /// Bands run left-to-right (platen scratches, fold lines).
    Horizontal,
}

/// Burst scratches: full-length saturated line dropouts, the classic
/// film-transport failure. Severity is the fraction of the perpendicular
/// dimension covered by dropout bands; the bands split into
/// `1 + floor(severity * 6)` bursts at seeded positions, each saturating
/// to black or white (a coin flip per burst — emulsion scraped off reads
/// dark on prints, clear on negatives).
#[derive(Clone, Copy, Debug)]
pub struct BurstScratch {
    pub orientation: Orientation,
}

impl FaultModel for BurstScratch {
    fn name(&self) -> &'static str {
        match self.orientation {
            Orientation::Vertical => "scratch-v",
            Orientation::Horizontal => "scratch-h",
        }
    }

    fn apply_frame(&self, frame: &mut GrayImage, severity: f64, rng: &mut SplitMix64) {
        let dim = match self.orientation {
            Orientation::Vertical => frame.width(),
            Orientation::Horizontal => frame.height(),
        };
        let total = (severity.clamp(0.0, 1.0) * dim as f64) as usize;
        if total == 0 {
            return;
        }
        let bursts = 1 + (severity * 6.0) as usize;
        let per_burst = (total / bursts).max(1);
        for _ in 0..bursts {
            let start = rng.next_below(dim.saturating_sub(per_burst).max(1));
            let fill = if rng.next_f64() < 0.5 { 0u8 } else { 255 };
            match self.orientation {
                Orientation::Vertical => {
                    for x in start..(start + per_burst).min(frame.width()) {
                        for y in 0..frame.height() {
                            frame.set(x, y, fill);
                        }
                    }
                }
                Orientation::Horizontal => {
                    for y in start..(start + per_burst).min(frame.height()) {
                        for x in 0..frame.width() {
                            frame.set(x, y, fill);
                        }
                    }
                }
            }
        }
    }
}

/// Circular blotches: stains, mould spots, water damage. Severity is the
/// total blotch area as a fraction of the frame area, split across
/// `1 + floor(severity * 9)` discs with ±50% seeded size jitter; each disc
/// fills with a seeded stain tone (dark tea-stain or bright bleach spot).
#[derive(Clone, Copy, Debug, Default)]
pub struct Blotch;

impl FaultModel for Blotch {
    fn name(&self) -> &'static str {
        "blotch"
    }

    fn apply_frame(&self, frame: &mut GrayImage, severity: f64, rng: &mut SplitMix64) {
        let severity = severity.clamp(0.0, 1.0);
        let (w, h) = (frame.width(), frame.height());
        let total_area = severity * (w * h) as f64;
        if total_area < 1.0 {
            return;
        }
        let count = 1 + (severity * 9.0) as usize;
        for _ in 0..count {
            let jitter = 0.5 + rng.next_f64(); // 0.5 .. 1.5
            let area = total_area / count as f64 * jitter;
            let r = (area / std::f64::consts::PI).sqrt();
            let cx = rng.next_f64() * w as f64;
            let cy = rng.next_f64() * h as f64;
            let tone = if rng.next_f64() < 0.7 {
                (rng.next_f64() * 70.0) as u8 // dark stain
            } else {
                200 + (rng.next_f64() * 55.0) as u8 // bleach spot
            };
            let ri = r.ceil() as isize;
            let (cxi, cyi) = (cx.round() as isize, cy.round() as isize);
            for y in (cyi - ri).max(0)..(cyi + ri + 1).min(h as isize) {
                for x in (cxi - ri).max(0)..(cxi + ri + 1).min(w as isize) {
                    let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                    if d2 <= r * r {
                        frame.set(x as usize, y as usize, tone);
                    }
                }
            }
        }
    }
}

/// Contrast fade: ink fading / film density loss pulls every pixel toward
/// paper white. Severity is the fraction of the dynamic range already
/// gone (`v' = v + (255 - v) * local_severity`), with a seeded
/// low-frequency spatial modulation (±30%) because real fading is uneven.
/// Decoders that threshold adaptively (Otsu) survive deep fade; the
/// envelope measures exactly how deep.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContrastFade;

impl FaultModel for ContrastFade {
    fn name(&self) -> &'static str {
        "fade"
    }

    fn apply_frame(&self, frame: &mut GrayImage, severity: f64, rng: &mut SplitMix64) {
        let severity = severity.clamp(0.0, 1.0);
        if severity == 0.0 {
            return;
        }
        let (w, h) = (frame.width(), frame.height());
        let px = rng.next_f64() * std::f64::consts::TAU;
        let py = rng.next_f64() * std::f64::consts::TAU;
        // The column modulation depends only on x; a page-sized frame has
        // tens of millions of pixels, so hoist the w sin() calls out of
        // the pixel loop.
        let fxs: Vec<f64> = (0..w)
            .map(|x| (x as f64 / w as f64 * std::f64::consts::TAU + px).sin())
            .collect();
        for y in 0..h {
            let fy = (y as f64 / h as f64 * std::f64::consts::TAU + py).sin();
            for (x, fx) in fxs.iter().enumerate() {
                let local = (severity * (1.0 + 0.3 * 0.5 * (fx + fy))).clamp(0.0, 1.0);
                let v = frame.get(x, y) as f64;
                frame.set(x, y, quantize(v + (255.0 - v) * local));
            }
        }
    }
}

/// Edge tears: a seeded subset of frames each loses a triangular corner —
/// the torn page / cracked film edge. Severity is the fraction of frames
/// torn (`floor(severity * n)` seeded victims); each tear rips off a
/// seeded 8–16% corner area of its frame (the scanner sees backing white
/// where the medium is gone, aspect ratio seeded in [0.5, 2]).
///
/// A tear of that size destroys the emblem's locator border on the §4
/// production media (their margins are a few dozen pixels), so a torn
/// frame is a dead frame and tear tolerance is the *outer* code's
/// business — the §3.1 "any three missing" budget sets the envelope on
/// this axis, exactly like [`FrameLossFault`]. That is why this is a
/// frame-set model: a uniform per-frame tear would kill every frame at
/// once and measure nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeTear;

impl FaultModel for EdgeTear {
    fn name(&self) -> &'static str {
        "edge-tear"
    }

    fn apply_set(&self, frames: &mut Vec<GrayImage>, severity: f64, rng: &mut SplitMix64) {
        let n = frames.len();
        let k = (severity.clamp(0.0, 1.0) * n as f64) as usize;
        if k == 0 {
            return;
        }
        let mut torn = vec![false; n];
        for i in pick_distinct(n, k, rng) {
            torn[i] = true;
        }
        for (i, torn) in torn.into_iter().enumerate() {
            if torn {
                tear_corner(&mut frames[i], rng);
            }
        }
    }
}

/// Rip a seeded triangular corner (8–16% of the frame area) off `frame`.
fn tear_corner(frame: &mut GrayImage, rng: &mut SplitMix64) {
    let (w, h) = (frame.width(), frame.height());
    let area = (0.08 + rng.next_f64() * 0.08) * (w * h) as f64;
    // Legs a (along x) and b (along y) with a*b/2 = area.
    let aspect = 0.5 + rng.next_f64() * 1.5;
    let a = ((2.0 * area * aspect).sqrt()).min(w as f64);
    let b = (2.0 * area / a).min(h as f64);
    let corner = rng.next_below(4); // 0 TL, 1 TR, 2 BL, 3 BR
    let bi = b.ceil() as usize;
    for dy in 0..bi.min(h) {
        // Hypotenuse: span shrinks linearly away from the corner row.
        let span = (a * (1.0 - dy as f64 / b)).max(0.0).ceil() as usize;
        let y = match corner {
            0 | 1 => dy,
            _ => h - 1 - dy,
        };
        for dx in 0..span.min(w) {
            let x = match corner {
                0 | 2 => dx,
                _ => w - 1 - dx,
            };
            frame.set(x, y, 255);
        }
    }
}

/// Salt-and-pepper spotting: isolated saturated specks (foxing, silver
/// mirroring, dirt). Severity is the fraction of pixels flipped; each
/// speck lands at a seeded position and saturates to black or white with
/// equal probability.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaltPepper;

impl FaultModel for SaltPepper {
    fn name(&self) -> &'static str {
        "salt-pepper"
    }

    fn apply_frame(&self, frame: &mut GrayImage, severity: f64, rng: &mut SplitMix64) {
        let severity = severity.clamp(0.0, 1.0);
        let (w, h) = (frame.width(), frame.height());
        let n = (severity * (w * h) as f64) as usize;
        for _ in 0..n {
            let x = rng.next_below(w);
            let y = rng.next_below(h);
            let fill = if rng.next_f64() < 0.5 { 0u8 } else { 255 };
            frame.set(x, y, fill);
        }
    }
}

/// Whole-frame blanking: a frame left in place but unreadable end to end
/// — overexposure, a glued-shut page, emulsion stripped by mould. Unlike
/// [`FrameLossFault`] the scan *list keeps its shape* (the frame is
/// physically still on the reel), which is exactly the failure the
/// vault's positional reel maps (S16) must survive: a blanked frame must
/// cost an outer-code recovery or a documented fallback, never a
/// misaligned shelf. Severity is the probability that each frame is
/// blanked (seeded per frame), saturating every pixel to white.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameBlankFault;

impl FaultModel for FrameBlankFault {
    fn name(&self) -> &'static str {
        "frame-blank"
    }

    fn apply_frame(&self, frame: &mut GrayImage, severity: f64, rng: &mut SplitMix64) {
        if severity <= 0.0 || rng.next_f64() >= severity.clamp(0.0, 1.0) {
            return;
        }
        for y in 0..frame.height() {
            for x in 0..frame.width() {
                frame.set(x, y, 255);
            }
        }
    }
}

/// Whole-frame loss: pages dropped from a folder, a reel segment torn out.
/// Severity is the fraction of frames removed (`floor(severity * n)`
/// seeded distinct victims), so the outer code's any-3-of-20 budget puts
/// the §3.1 envelope at 3/group-size on this axis.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameLossFault;

impl FaultModel for FrameLossFault {
    fn name(&self) -> &'static str {
        "frame-loss"
    }

    fn apply_set(&self, frames: &mut Vec<GrayImage>, severity: f64, rng: &mut SplitMix64) {
        let n = frames.len();
        let k = (severity.clamp(0.0, 1.0) * n as f64) as usize;
        if k == 0 {
            return;
        }
        let mut doomed = vec![false; n];
        for i in pick_distinct(n, k, rng) {
            doomed[i] = true;
        }
        let mut keep = doomed.iter().map(|d| !d);
        frames.retain(|_| keep.next().unwrap());
    }
}

/// Whole-frame reordering: a spliced reel, re-filed pages. Severity is the
/// fraction of frames displaced — `floor(severity * n)` seeded distinct
/// positions are rotated one step among themselves, so every chosen frame
/// ends up somewhere else. Headers carry global indices, so a correct
/// restorer should have a full envelope (severity 1.0) on this axis.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameReorderFault;

impl FaultModel for FrameReorderFault {
    fn name(&self) -> &'static str {
        "frame-reorder"
    }

    fn apply_set(&self, frames: &mut Vec<GrayImage>, severity: f64, rng: &mut SplitMix64) {
        let n = frames.len();
        let m = (severity.clamp(0.0, 1.0) * n as f64) as usize;
        if m < 2 {
            return;
        }
        // m distinct seeded positions, in draw order.
        let chosen = pick_distinct(n, m, rng);
        let m = chosen.len();
        // Rotate the chosen slots by one: frame at chosen[j] moves to
        // chosen[j+1], guaranteeing every chosen frame is displaced.
        // Adjacent swaps realise the cycle without cloning frames (a
        // production scan is tens of MB and E9 re-applies this per trial).
        for j in (1..m).rev() {
            frames.swap(chosen[j], chosen[j - 1]);
        }
    }
}

/// The standard model zoo: every model at its default configuration, as
/// swept by the E9 recovery-envelope campaign.
pub fn standard_models() -> Vec<Box<dyn FaultModel>> {
    vec![
        Box::new(BurstScratch {
            orientation: Orientation::Vertical,
        }),
        Box::new(BurstScratch {
            orientation: Orientation::Horizontal,
        }),
        Box::new(Blotch),
        Box::new(ContrastFade),
        Box::new(EdgeTear),
        Box::new(SaltPepper),
        Box::new(FrameBlankFault),
        Box::new(FrameLossFault),
        Box::new(FrameReorderFault),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(v: u8) -> GrayImage {
        GrayImage::new(64, 48, v)
    }

    fn checker() -> GrayImage {
        let mut f = frame(255);
        for y in 0..48 {
            for x in 0..64 {
                if (x / 4 + y / 4) % 2 == 0 {
                    f.set(x, y, 0);
                }
            }
        }
        f
    }

    #[test]
    fn frame_blank_whitens_whole_frames_but_keeps_the_list_shape() {
        let m = FrameBlankFault;
        // Severity 1.0 blanks every frame.
        let mut f = checker();
        m.apply_frame(&mut f, 1.0, &mut SplitMix64::new(3));
        assert_eq!(f, frame(255));
        // At intermediate severity each frame is either untouched or
        // fully white — never half-damaged — and determinism holds.
        for seed in [1u64, 9, 77] {
            let mut a = checker();
            let mut b = checker();
            m.apply_frame(&mut a, 0.5, &mut SplitMix64::new(seed));
            m.apply_frame(&mut b, 0.5, &mut SplitMix64::new(seed));
            assert_eq!(a, b);
            assert!(a == checker() || a == frame(255));
        }
    }

    #[test]
    fn severity_zero_is_identity_for_every_model() {
        let set: Vec<GrayImage> = (0..6).map(|i| frame(i * 40)).collect();
        for model in standard_models() {
            let mut f = checker();
            model.apply_frame(&mut f, 0.0, &mut SplitMix64::new(7));
            assert_eq!(f, checker(), "{} frame identity", model.name());
            let mut s = set.clone();
            model.apply_set(&mut s, 0.0, &mut SplitMix64::new(7));
            assert_eq!(s, set, "{} set identity", model.name());
        }
    }

    #[test]
    fn same_seed_same_damage() {
        for model in standard_models() {
            let mut a = checker();
            let mut b = checker();
            model.apply_frame(&mut a, 0.3, &mut SplitMix64::new(99));
            model.apply_frame(&mut b, 0.3, &mut SplitMix64::new(99));
            assert_eq!(a, b, "{}", model.name());
        }
    }

    #[test]
    fn scratch_damages_expected_fraction() {
        let m = BurstScratch {
            orientation: Orientation::Vertical,
        };
        let mut f = GrayImage::new(200, 100, 128);
        m.apply_frame(&mut f, 0.2, &mut SplitMix64::new(3));
        let damaged = f.as_bytes().iter().filter(|&&v| v != 128).count();
        let frac = damaged as f64 / (200.0 * 100.0);
        // Bursts can overlap, so the observed fraction is at most the
        // severity and should be a decent share of it.
        assert!(frac > 0.05 && frac <= 0.21, "frac={frac}");
    }

    #[test]
    fn blotch_area_tracks_severity() {
        let m = Blotch;
        let mut f = GrayImage::new(300, 300, 128);
        m.apply_frame(&mut f, 0.1, &mut SplitMix64::new(5));
        let damaged = f.as_bytes().iter().filter(|&&v| v != 128).count();
        let frac = damaged as f64 / (300.0 * 300.0);
        // Discs may clip the frame edge or overlap, so observed ≤ nominal.
        assert!(frac > 0.02 && frac <= 0.12, "frac={frac}");
    }

    #[test]
    fn fade_brightens_monotonically() {
        let m = ContrastFade;
        let mut f = checker();
        m.apply_frame(&mut f, 0.5, &mut SplitMix64::new(11));
        let orig = checker();
        for (a, b) in f.as_bytes().iter().zip(orig.as_bytes()) {
            assert!(a >= b, "fade must never darken ({a} < {b})");
        }
        // Black cells are substantially lifted.
        let min = *f.as_bytes().iter().min().unwrap();
        assert!(min > 60, "min={min}");
    }

    #[test]
    fn tear_rips_corners_off_the_chosen_fraction_of_frames() {
        let m = EdgeTear;
        let set: Vec<GrayImage> = (0..10).map(|_| GrayImage::new(100, 100, 0)).collect();
        let mut s = set.clone();
        m.apply_set(&mut s, 0.4, &mut SplitMix64::new(2));
        assert_eq!(s.len(), 10, "tears never drop frames");
        let torn: Vec<f64> = s
            .iter()
            .map(|f| f.as_bytes().iter().filter(|&&v| v == 255).count() as f64 / 10_000.0)
            .collect();
        assert_eq!(torn.iter().filter(|&&t| t > 0.0).count(), 4);
        for &t in torn.iter().filter(|&&t| t > 0.0) {
            // 8–16% nominal corner area; the triangle clips at frame edges.
            assert!((0.04..=0.20).contains(&t), "torn fraction {t}");
        }
        // Frame centres survive every tear at this size.
        assert!(s.iter().all(|f| f.get(50, 50) == 0));
    }

    #[test]
    fn salt_pepper_flips_expected_fraction() {
        let m = SaltPepper;
        let mut f = GrayImage::new(200, 200, 128);
        m.apply_frame(&mut f, 0.05, &mut SplitMix64::new(8));
        let flipped = f.as_bytes().iter().filter(|&&v| v != 128).count();
        let frac = flipped as f64 / 40_000.0;
        // Specks can collide, so observed ≤ nominal.
        assert!(frac > 0.03 && frac <= 0.05, "frac={frac}");
    }

    #[test]
    fn frame_loss_drops_exact_count() {
        let m = FrameLossFault;
        let set: Vec<GrayImage> = (0..10).map(frame).collect();
        let mut s = set.clone();
        m.apply_set(&mut s, 0.3, &mut SplitMix64::new(4));
        assert_eq!(s.len(), 7);
        // Survivors keep their relative order.
        let survivors: Vec<u8> = s.iter().map(|f| f.get(0, 0)).collect();
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        assert_eq!(survivors, sorted);
    }

    #[test]
    fn frame_reorder_permutes_without_losing_any() {
        let m = FrameReorderFault;
        let set: Vec<GrayImage> = (0..10).map(frame).collect();
        let mut s = set.clone();
        m.apply_set(&mut s, 0.5, &mut SplitMix64::new(6));
        assert_eq!(s.len(), 10);
        assert_ne!(s, set, "severity 0.5 must displace frames");
        let mut ids: Vec<u8> = s.iter().map(|f| f.get(0, 0)).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<u8>>());
    }
}
