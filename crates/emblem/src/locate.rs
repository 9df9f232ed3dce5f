//! Emblem localisation: find the border square in a page/frame scan.
//!
//! The thick black border is the emblem's "large-scale" detection feature
//! (§3.1). We find it with black-mass profiles: border rows/columns are
//! almost entirely black, data rows hover near 50%, page margins near 0%.

use std::ops::RangeInclusive;
use ule_raster::GrayImage;

/// Outer bounding box of the emblem border, inclusive pixel coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BorderBox {
    pub x0: usize,
    pub y0: usize,
    pub x1: usize,
    pub y1: usize,
}

impl BorderBox {
    pub fn width(&self) -> usize {
        self.x1 - self.x0 + 1
    }
    pub fn height(&self) -> usize {
        self.y1 - self.y0 + 1
    }
}

/// Most pixels counted in one `u8` lane before the count widens: one byte
/// per lane lets the compiler compare and add 32 pixels per vector step.
/// The lane adds are `wrapping_add` only so that overflow-checked builds
/// vectorize too; at most 255 ones are added, so they never wrap.
const LANE_MAX: usize = u8::MAX as usize;

/// Number of pixels `< t` in `line`.
fn count_below(line: &[u8], t: u8) -> u32 {
    line.chunks(LANE_MAX)
        .map(|chunk| {
            u32::from(
                chunk
                    .iter()
                    .fold(0u8, |n, &p| n.wrapping_add(u8::from(p < t))),
            )
        })
        .sum()
}

/// Black fraction per row over a column span; pixels `< t` are black.
fn row_profile(scan: &GrayImage, t: u8, x0: usize, x1: usize) -> Vec<f64> {
    let span = (x1 - x0 + 1) as f64;
    (0..scan.height())
        .map(|y| count_below(&scan.row(y)[x0..=x1], t) as f64 / span)
        .collect()
}

/// Black fraction per column over a row span; pixels `< t` are black.
/// The per-column counts accumulate row by row, so the frame is walked in
/// memory order rather than with a row-length stride per column.
fn col_profile(scan: &GrayImage, t: u8, y0: usize, y1: usize) -> Vec<f64> {
    let span = (y1 - y0 + 1) as f64;
    let w = scan.width();
    let mut black = vec![0u32; w];
    let mut band_black = vec![0u8; w];
    for band in scan.as_bytes()[y0 * w..(y1 + 1) * w].chunks(LANE_MAX * w) {
        band_black.fill(0);
        for row in band.chunks_exact(w) {
            for (n, &p) in band_black.iter_mut().zip(row) {
                *n = n.wrapping_add(u8::from(p < t));
            }
        }
        for (count, &n) in black.iter_mut().zip(&band_black) {
            *count += u32::from(n);
        }
    }
    black.iter().map(|&count| count as f64 / span).collect()
}

/// Longest contiguous run of indices with `profile >= threshold`,
/// tolerating gaps up to `max_gap` (dust holes, gap ring overshoot).
fn longest_run(profile: &[f64], threshold: f64, max_gap: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    let mut start: Option<usize> = None;
    let mut last_hit = 0usize;
    for (i, &v) in profile.iter().enumerate() {
        if v >= threshold {
            if start.is_none() {
                start = Some(i);
            }
            last_hit = i;
        } else if let Some(s) = start {
            if i - last_hit > max_gap {
                let cand = (s, last_hit);
                if best.map_or(true, |(bs, be)| last_hit - s > be - bs) {
                    best = Some(cand);
                }
                start = None;
            }
        }
    }
    if let Some(s) = start {
        let cand = (s, last_hit);
        if best.map_or(true, |(bs, be)| last_hit - s > be - bs) {
            best = Some(cand);
        }
    }
    best
}

/// First and last indices within `[lo, hi]` whose profile clears `threshold`.
fn first_last(profile: &[f64], threshold: f64, lo: usize, hi: usize) -> Option<(usize, usize)> {
    let first = (lo..=hi).find(|&i| profile[i] >= threshold)?;
    let last = (lo..=hi).rev().find(|&i| profile[i] >= threshold)?;
    Some((first, last))
}

/// Locate the emblem border's outer box in a thresholded (0/255) scan.
/// Same as [`find_border_box_below`] with `t = 1`: a pixel is black when
/// it is 0.
pub fn find_border_box(bit: &GrayImage) -> Option<BorderBox> {
    find_border_box_below(bit, 1)
}

/// Locate the emblem border's outer box in a grayscale scan, classifying
/// pixels `< t` as black (the decoder passes the scan's Otsu threshold).
/// The result equals [`find_border_box`] on `scan.threshold(t)`.
///
/// Works when the emblem is surrounded by white margin (printed page,
/// film frame) and occupies a substantial share of the image.
pub fn find_border_box_below(scan: &GrayImage, t: u8) -> Option<BorderBox> {
    if scan.width() < 8 || scan.height() < 8 {
        return None;
    }
    let gap = scan.width().max(scan.height()) / 50 + 2;
    // Pass 1: rough vertical span from full-width row profile. Emblem rows
    // carry at least ~25% black even when the emblem fills only part of
    // the page width.
    let rp = row_profile(scan, t, 0, scan.width() - 1);
    let peak = rp.iter().cloned().fold(0.0f64, f64::max);
    let (ry0, ry1) = longest_run(&rp, (peak * 0.35).max(0.05), gap)?;
    // Pass 2: horizontal span within that vertical band.
    let cp = col_profile(scan, t, ry0, ry1);
    let cpeak = cp.iter().cloned().fold(0.0f64, f64::max);
    let (cx0, cx1) = longest_run(&cp, (cpeak * 0.35).max(0.05), gap)?;
    // Pass 3: exact outer border rows/cols — the first and last profile
    // entries above 30% black near the rough span (the border itself is
    // nearly solid, the data region sits around 50%).
    let margin = 2 * gap;
    let rp2 = row_profile(scan, t, cx0, cx1);
    let (y0, y1) = first_last(
        &rp2,
        0.30,
        ry0.saturating_sub(margin),
        (ry1 + margin).min(rp2.len() - 1),
    )?;
    let cp2 = col_profile(scan, t, y0, y1);
    let (x0, x1) = first_last(
        &cp2,
        0.30,
        cx0.saturating_sub(margin),
        (cx1 + margin).min(cp2.len() - 1),
    )?;
    if x1 <= x0 + 8 || y1 <= y0 + 8 {
        return None;
    }
    Some(BorderBox { x0, y0, x1, y1 })
}

/// Per-scanline border edge positions, used to resample the cell grid under
/// smooth geometric distortion. `left[y]`/`right[y]` give the border's outer
/// x at pixel row `y` (relative to the full image); `top[x]`/`bottom[x]`
/// give the outer y per column. Gaps are filled by interpolation and the
/// arrays are median-smoothed against dust.
#[derive(Debug, PartialEq)]
pub struct EdgeMap {
    pub bbox: BorderBox,
    pub left: Vec<f64>,
    pub right: Vec<f64>,
    pub top: Vec<f64>,
    pub bottom: Vec<f64>,
}

fn median_smooth(values: &mut [f64], window: usize) {
    if values.len() < window || window < 3 {
        return;
    }
    let orig = values.to_vec();
    let half = window / 2;
    let mut buf = vec![0.0; window];
    for i in half..values.len() - half {
        buf.clear();
        buf.extend_from_slice(&orig[i - half..=i + half]);
        buf.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values[i] = buf[half];
    }
}

/// Scan for the first black run of length ≥ `min_run` along a line of
/// black/white classifications.
fn first_black_run(mut black: impl Iterator<Item = bool>, min_run: usize) -> Option<usize> {
    let mut run = 0usize;
    let mut start = 0usize;
    let mut i = 0usize;
    loop {
        if black.next()? {
            if run == 0 {
                start = i;
            }
            run += 1;
            if run >= min_run {
                return Some(start);
            }
        } else {
            run = 0;
        }
        i += 1;
    }
}

/// [`first_black_run`] down every column in `columns` at once, walking
/// `rows` in order: the offset of each column's first run of ≥ `min_run`
/// black pixels. The frame is read row by row rather than with a
/// row-length stride per column, and the walk stops once every column has
/// its run.
fn first_black_runs(
    scan: &GrayImage,
    t: u8,
    columns: RangeInclusive<usize>,
    rows: impl Iterator<Item = usize>,
    min_run: usize,
) -> Vec<Option<usize>> {
    let mut run = vec![0usize; columns.end() + 1 - columns.start()];
    let mut found = vec![None; run.len()];
    let mut pending = run.len();
    for (i, y) in rows.enumerate() {
        if pending == 0 {
            break;
        }
        let line = &scan.row(y)[columns.clone()];
        for ((run, found), &p) in run.iter_mut().zip(&mut found).zip(line) {
            if found.is_none() {
                *run = if p < t { *run + 1 } else { 0 };
                if *run == min_run {
                    *found = Some(i + 1 - min_run);
                    pending -= 1;
                }
            }
        }
    }
    found
}

/// Build the edge map for a located emblem in a thresholded (0/255) scan.
/// Same as [`edge_map_below`] with `t = 1`.
pub fn edge_map(bit: &GrayImage, bbox: BorderBox, border_px: f64) -> EdgeMap {
    edge_map_below(bit, 1, bbox, border_px)
}

/// Build the edge map for a located emblem in a grayscale scan, classifying
/// pixels `< t` as black. `border_px` is the expected border thickness in
/// scan pixels (used to reject dust). The result equals [`edge_map`] on
/// `scan.threshold(t)`.
pub fn edge_map_below(scan: &GrayImage, t: u8, bbox: BorderBox, border_px: f64) -> EdgeMap {
    let min_run = (border_px * 0.5).max(2.0) as usize;
    let slack = (border_px * 2.0) as usize;
    let h = bbox.height();
    let mut left = vec![f64::NAN; h];
    let mut right = vec![f64::NAN; h];
    let xa = bbox.x0.saturating_sub(slack);
    let xb = (bbox.x1 + slack).min(scan.width() - 1);
    for (i, y) in (bbox.y0..=bbox.y1).enumerate() {
        let line = &scan.row(y)[xa..=xb];
        if let Some(off) = first_black_run(line.iter().map(|&p| p < t), min_run) {
            left[i] = (xa + off) as f64;
        }
        if let Some(off) = first_black_run(line.iter().rev().map(|&p| p < t), min_run) {
            right[i] = (xb - off) as f64;
        }
    }
    let ya = bbox.y0.saturating_sub(slack);
    let yb = (bbox.y1 + slack).min(scan.height() - 1);
    let columns = bbox.x0..=bbox.x1;
    let mut top: Vec<f64> = first_black_runs(scan, t, columns.clone(), ya..=yb, min_run)
        .into_iter()
        .map(|off| off.map_or(f64::NAN, |off| (ya + off) as f64))
        .collect();
    let mut bottom: Vec<f64> = first_black_runs(scan, t, columns, (ya..=yb).rev(), min_run)
        .into_iter()
        .map(|off| off.map_or(f64::NAN, |off| (yb - off) as f64))
        .collect();
    for arr in [&mut left, &mut right, &mut top, &mut bottom] {
        fill_nan(arr);
        median_smooth(arr, 7);
    }
    EdgeMap {
        bbox,
        left,
        right,
        top,
        bottom,
    }
}

/// Replace NaNs with the nearest valid neighbour (linear fill).
fn fill_nan(values: &mut [f64]) {
    let first_valid = values.iter().position(|v| !v.is_nan());
    let Some(fv) = first_valid else {
        for v in values.iter_mut() {
            *v = 0.0;
        }
        return;
    };
    let head = values[fv];
    for v in values[..fv].iter_mut() {
        *v = head;
    }
    let mut last = head;
    for v in values[fv..].iter_mut() {
        if v.is_nan() {
            *v = last;
        } else {
            last = *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_raster::draw::{draw_ring, fill_rect};

    fn page_with_emblem(px: usize, py: usize, size: usize) -> GrayImage {
        let mut img = GrayImage::new(400, 300, 255);
        draw_ring(&mut img, px, py, size, 8, 0);
        // Dense interior texture, like a real data region (~50% black):
        // vertical stripes, 2 px on / 2 px off.
        for x in (px + 14..px + size - 14).step_by(4) {
            fill_rect(&mut img, x, py + 14, 2, size - 28, 0);
        }
        img
    }

    #[test]
    fn finds_centered_emblem() {
        let img = page_with_emblem(100, 50, 180);
        let b = find_border_box(&img).unwrap();
        assert!((b.x0 as i64 - 100).unsigned_abs() <= 2, "{b:?}");
        assert!((b.y0 as i64 - 50).unsigned_abs() <= 2, "{b:?}");
        assert!((b.x1 as i64 - 279).unsigned_abs() <= 2, "{b:?}");
        assert!((b.y1 as i64 - 229).unsigned_abs() <= 2, "{b:?}");
    }

    #[test]
    fn ignores_scattered_dust() {
        let mut img = page_with_emblem(120, 60, 150);
        for (x, y) in [(5, 5), (390, 10), (20, 290), (395, 295), (10, 150)] {
            fill_rect(&mut img, x, y, 2, 2, 0);
        }
        let b = find_border_box(&img).unwrap();
        assert!((b.x0 as i64 - 120).unsigned_abs() <= 3, "{b:?}");
        assert!((b.y0 as i64 - 60).unsigned_abs() <= 3, "{b:?}");
    }

    #[test]
    fn blank_page_returns_none() {
        let img = GrayImage::new(200, 200, 255);
        assert!(find_border_box(&img).is_none());
    }

    #[test]
    fn edge_map_tracks_straight_border() {
        let img = page_with_emblem(100, 50, 180);
        let b = find_border_box(&img).unwrap();
        let em = edge_map(&img, b, 8.0);
        for &l in em.left.iter().skip(5).take(em.left.len() - 10) {
            assert!((l - 100.0).abs() <= 1.5, "left={l}");
        }
        for &r in em.right.iter().skip(5).take(em.right.len() - 10) {
            assert!((r - 279.0).abs() <= 1.5, "right={r}");
        }
    }

    fn noise_image(w: usize, h: usize, seed: u64) -> GrayImage {
        let mut rng = ule_raster::rng::SplitMix64::new(seed);
        GrayImage::from_raw(w, h, (0..w * h).map(|_| rng.next_u64() as u8).collect())
    }

    /// Per-pixel references for the profiles: one `get` per pixel.
    fn col_profile_reference(img: &GrayImage, t: u8, y0: usize, y1: usize) -> Vec<f64> {
        let span = (y1 - y0 + 1) as f64;
        (0..img.width())
            .map(|x| (y0..=y1).filter(|&y| img.get(x, y) < t).count() as f64 / span)
            .collect()
    }

    fn row_profile_reference(img: &GrayImage, t: u8, x0: usize, x1: usize) -> Vec<f64> {
        let span = (x1 - x0 + 1) as f64;
        (0..img.height())
            .map(|y| (x0..=x1).filter(|&x| img.get(x, y) < t).count() as f64 / span)
            .collect()
    }

    #[test]
    fn profiles_match_per_pixel_references() {
        // Spans shorter and longer than one 255-pixel lane, and crossing
        // lane boundaries at odd offsets.
        for (w, h, seed) in [(7, 3, 1u64), (300, 600, 2), (611, 263, 3)] {
            let img = noise_image(w, h, seed);
            for t in [0u8, 1, 64, 128, 200, 255] {
                for (lo, hi) in [(0, h - 1), (0, 0), (1, h - 2), (h / 3, h - 1)] {
                    assert_eq!(
                        col_profile(&img, t, lo, hi),
                        col_profile_reference(&img, t, lo, hi),
                        "{w}x{h} t={t} rows {lo}..={hi}"
                    );
                }
                for (lo, hi) in [(0, w - 1), (0, 0), (1, w - 2), (w / 3, w - 1)] {
                    assert_eq!(
                        row_profile(&img, t, lo, hi),
                        row_profile_reference(&img, t, lo, hi),
                        "{w}x{h} t={t} cols {lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn column_runs_match_per_column_walk() {
        for seed in 0..4u64 {
            // Mostly black, so runs of several pixels are common.
            let img = noise_image(37, 90, seed);
            let (t, cols) = (200u8, 3..=33);
            for min_run in [2, 3, 5, 40] {
                let down = first_black_runs(&img, t, cols.clone(), 10..=80, min_run);
                let up = first_black_runs(&img, t, cols.clone(), (10..=80).rev(), min_run);
                for (i, x) in cols.clone().enumerate() {
                    let column = |y: usize| img.get(x, y) < t;
                    assert_eq!(down[i], first_black_run((10..=80).map(column), min_run));
                    assert_eq!(up[i], first_black_run((10..=80).rev().map(column), min_run));
                }
            }
        }
    }

    #[test]
    fn profiles_count_full_lanes_of_black() {
        // Every pixel black: each u8 lane reaches exactly 255.
        let img = GrayImage::new(600, 700, 0);
        assert!(col_profile(&img, 255, 0, 699).iter().all(|&f| f == 1.0));
        assert!(row_profile(&img, 255, 0, 599).iter().all(|&f| f == 1.0));
        assert!(col_profile(&img, 0, 0, 699).iter().all(|&f| f == 0.0));
    }

    #[test]
    fn gray_locate_matches_thresholded_locate() {
        let img = page_with_emblem(100, 50, 180);
        // A gray version: black prints at 40..90, white paper at 150..250.
        let mut rng = ule_raster::rng::SplitMix64::new(7);
        let gray = GrayImage::from_raw(
            img.width(),
            img.height(),
            img.as_bytes()
                .iter()
                .map(|&p| {
                    let jitter = rng.next_below(51) as u8;
                    if p == 0 {
                        40 + jitter
                    } else {
                        150 + 2 * jitter
                    }
                })
                .collect(),
        );
        for t in [gray.otsu_threshold(), 1, 64, 128, 200] {
            let bit = gray.threshold(t);
            let bbox = find_border_box_below(&gray, t);
            assert_eq!(bbox, find_border_box(&bit), "t={t}");
            if let Some(b) = bbox {
                assert_eq!(edge_map_below(&gray, t, b, 8.0), edge_map(&bit, b, 8.0));
            }
        }
        assert!(find_border_box_below(&gray, 128).is_some());
    }

    #[test]
    fn median_smooth_removes_spikes() {
        let mut v = vec![10.0; 20];
        v[10] = 500.0;
        median_smooth(&mut v, 5);
        assert!((v[10] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fill_nan_interpolates() {
        let mut v = vec![f64::NAN, 2.0, f64::NAN, f64::NAN, 5.0];
        fill_nan(&mut v);
        assert_eq!(v[0], 2.0);
        assert_eq!(v[2], 2.0);
        assert_eq!(v[4], 5.0);
    }
}
