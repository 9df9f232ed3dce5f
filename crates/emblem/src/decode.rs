//! Emblem decoding: scanned image → header + payload.
//!
//! The decoder mirrors what the paper's MOCoder must do after scanning:
//!
//! 1. classify pixels against the scan's Otsu threshold `t` (robust to
//!    fading): a pixel is black when `p < t`. The test runs in place on
//!    the grayscale scan; no bitonal copy of the frame is made;
//! 2. locate the thick black border and build per-scanline edge maps;
//! 3. resample the cell grid *relative to the border*, which compensates
//!    lens curvature and transport jitter (the §3.1 distortion sources);
//! 4. verify the calibration dots (orientation/geometry check);
//! 5. read the redundant header copies;
//! 6. read the data region, reverse the self-clocking cell code,
//!    de-interleave, and run inner Reed–Solomon correction per block.

use crate::encode::calibration_level;
use crate::geometry::{EmblemGeometry, EDGE_CELLS, HEADER_COPIES, OVERHEAD_ROWS, RS_K, RS_N};
use crate::header::{EmblemHeader, HEADER_BYTES};
use crate::locate::{edge_map_below, find_border_box_below, EdgeMap};
use crate::manchester::{bits_to_bytes, decode_cells};
use ule_par::ThreadConfig;
use ule_raster::sample::block_mean;
use ule_raster::GrayImage;

/// Decoding diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Bytes corrected by the inner RS code across all blocks.
    pub rs_corrected: usize,
    /// Which header copy parsed cleanly (0-based; HEADER_COPIES = majority vote).
    pub header_copy_used: usize,
    /// Self-clocking violations observed in the data region.
    pub sync_errors: usize,
    /// Fraction (per mille) of calibration cells that matched.
    pub calibration_match_pm: u16,
}

/// Decode failures.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// No border square found in the scan.
    BorderNotFound,
    /// Border found but the calibration dots don't match this geometry.
    CalibrationMismatch { matched_pm: u16 },
    /// No header copy could be parsed (individually or by majority vote).
    HeaderUnreadable,
    /// An inner RS block had more errors than it can correct.
    RsFailure { block: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BorderNotFound => write!(f, "emblem border not found"),
            DecodeError::CalibrationMismatch { matched_pm } => {
                write!(
                    f,
                    "calibration dots mismatch ({}% matched)",
                    *matched_pm as f64 / 10.0
                )
            }
            DecodeError::HeaderUnreadable => write!(f, "no readable header copy"),
            DecodeError::RsFailure { block } => write!(f, "inner RS failure in block {block}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Grid resampler: maps content-cell coordinates to scan pixels by
/// interpolating between the border edges (per-scanline), then reads each
/// cell as white or black from its mean intensity.
struct GridSampler<'a> {
    scan: &'a GrayImage,
    /// A cell is white when its mean intensity is `>= white_from`.
    white_from: f64,
    edges: EdgeMap,
    cols: usize,
    rows: usize,
    /// Half extent of the sampled cell centre, in scan pixels.
    half_w: f64,
    half_h: f64,
    /// Side of the square pixel block averaged per cell.
    block: usize,
}

/// Cells whose positions are computed before their pixels are read.
const CELL_BATCH: usize = 64;

impl<'a> GridSampler<'a> {
    /// Locate the border in `scan`, classifying pixels `< t` as black.
    fn new(scan: &'a GrayImage, t: u8, geom: &EmblemGeometry) -> Option<Self> {
        let bbox = find_border_box_below(scan, t)?;
        let total_cols = (geom.cols + 2 * EDGE_CELLS) as f64;
        let total_rows = (geom.rows + 2 * EDGE_CELLS) as f64;
        let cell_w = bbox.width() as f64 / total_cols;
        let cell_h = bbox.height() as f64 / total_rows;
        let border_px = cell_w * 3.0;
        let edges = edge_map_below(scan, t, bbox, border_px);
        let half_w = (cell_w * 0.3).max(0.5);
        let half_h = (cell_h * 0.3).max(0.5);
        let block = ((half_w.min(half_h) * 2.0).round() as usize).max(1);
        Some(Self {
            scan,
            white_from: t as f64,
            edges,
            cols: geom.cols,
            rows: geom.rows,
            half_w,
            half_h,
            block,
        })
    }

    /// Read cells `0..n` of content row `cy` (white = `true`) onto `out`.
    ///
    /// The row's vertical fraction and its left/right border edges are
    /// computed once. The first approximation of the row's scanline comes
    /// from the box; each cell's centre is then refined along the
    /// top/bottom edge maps, which absorb smooth distortion.
    fn read_row(&self, cy: usize, n: usize, out: &mut Vec<bool>) {
        let edges = &self.edges;
        let v = (EDGE_CELLS as f64 + cy as f64 + 0.5) / (self.rows + 2 * EDGE_CELLS) as f64;
        let y_rough = edges.bbox.y0 as f64 + v * (edges.bbox.height() as f64 - 1.0);
        let yi = ((y_rough - edges.bbox.y0 as f64).round() as usize).min(edges.left.len() - 1);
        let xl = edges.left[yi];
        let xr = edges.right[yi];
        // Top-left pixel of the block averaged over cell `cx`'s centre.
        let block_origin = |cx: usize| {
            let u = (EDGE_CELLS as f64 + cx as f64 + 0.5) / (self.cols + 2 * EDGE_CELLS) as f64;
            let x = xl + u * (xr - xl + 1.0);
            let xi = ((x - edges.bbox.x0 as f64).round() as isize)
                .clamp(0, edges.top.len() as isize - 1) as usize;
            let yt = edges.top[xi];
            let yb = edges.bottom[xi];
            let y = yt + v * (yb - yt + 1.0);
            let x0 = (x - self.half_w).max(0.0) as usize;
            let y0 = (y - self.half_h).max(0.0) as usize;
            (x0, y0)
        };
        // Positions a batch at a time, then pixels: the position arithmetic
        // of neighbouring cells is independent, and keeping it apart from
        // the pixel loads lets the CPU overlap many cells.
        let mut origins = [(0usize, 0usize); CELL_BATCH];
        for first in (0..n).step_by(CELL_BATCH) {
            let batch = &mut origins[..CELL_BATCH.min(n - first)];
            for (i, origin) in batch.iter_mut().enumerate() {
                *origin = block_origin(first + i);
            }
            out.extend(
                batch
                    .iter()
                    .map(|&(x0, y0)| block_mean(self.scan, x0, y0, self.block) >= self.white_from),
            );
        }
    }
}

/// Decode a single emblem from a (possibly degraded) grayscale scan.
pub fn decode_emblem(
    geom: &EmblemGeometry,
    scan: &GrayImage,
) -> Result<(EmblemHeader, Vec<u8>, DecodeStats), DecodeError> {
    let threshold = scan.otsu_threshold();
    let sampler = GridSampler::new(scan, threshold, geom).ok_or(DecodeError::BorderNotFound)?;
    let mut stats = DecodeStats::default();

    // Calibration row: verify the large-scale dots.
    let mut calibration = Vec::with_capacity(geom.cols);
    sampler.read_row(0, geom.cols, &mut calibration);
    let matched = calibration
        .iter()
        .enumerate()
        .filter(|&(cx, &white)| white == calibration_level(cx))
        .count();
    stats.calibration_match_pm = (matched * 1000 / geom.cols) as u16;
    if stats.calibration_match_pm < 850 {
        return Err(DecodeError::CalibrationMismatch {
            matched_pm: stats.calibration_match_pm,
        });
    }

    // Header copies.
    let header_cells_len = HEADER_BYTES * 8 * 2;
    let mut header: Option<EmblemHeader> = None;
    let mut copies_bits: Vec<Vec<bool>> = Vec::with_capacity(HEADER_COPIES);
    for copy in 0..HEADER_COPIES {
        let mut cells = Vec::with_capacity(header_cells_len);
        sampler.read_row(1 + copy, header_cells_len, &mut cells);
        let dec = decode_cells(&cells, true);
        let bytes = bits_to_bytes(&dec.bits);
        if let Ok(h) = EmblemHeader::from_bytes(&bytes) {
            header = Some(h);
            stats.header_copy_used = copy;
            break;
        }
        copies_bits.push(dec.bits);
    }
    let header = match header {
        Some(h) => h,
        None => {
            // Majority vote across the copies we collected.
            let nbits = HEADER_BYTES * 8;
            let mut voted = vec![false; nbits];
            for (i, slot) in voted.iter_mut().enumerate() {
                let ones = copies_bits
                    .iter()
                    .filter(|c| c.get(i) == Some(&true))
                    .count();
                *slot = ones * 2 > copies_bits.len();
            }
            stats.header_copy_used = HEADER_COPIES;
            EmblemHeader::from_bytes(&bits_to_bytes(&voted))
                .map_err(|_| DecodeError::HeaderUnreadable)?
        }
    };

    // Data region: one continuous self-clocked run.
    let data_rows = geom.rows - OVERHEAD_ROWS;
    let mut cells = Vec::with_capacity(data_rows * geom.cols);
    for cy in 0..data_rows {
        sampler.read_row(cy + OVERHEAD_ROWS, geom.cols, &mut cells);
    }
    let dec = decode_cells(&cells, true);
    stats.sync_errors = dec.sync_errors.len();
    let coded_all = bits_to_bytes(&dec.bits);

    // De-interleave and correct each inner block.
    let (mut payload, fixed) = inner_decode_with(geom, &coded_all, ThreadConfig::Serial)?;
    stats.rs_corrected += fixed;
    payload.truncate(header.payload_len as usize);
    Ok((header, payload, stats))
}

/// De-interleave an inner-coded byte stream (the layout
/// [`crate::encode::inner_encode`] produces) and run errors-only
/// Reed–Solomon correction on every block,
/// fanning the independent blocks out across `threads` workers.
///
/// Returns the untruncated payload (`rs_blocks() * 223` bytes) plus the
/// total number of corrected byte positions. This is the byte-level half
/// of [`decode_emblem`], exposed so damage experiments can drive the §3.1
/// intra-emblem boundary without synthesising pixel scans.
///
/// Undamaged blocks take [`ule_gf256::RsCode::decode`]'s clean-frame fast
/// path — one slice-kernel syndromes pass each, no Berlekamp–Massey — so
/// scanning intact media is syndromes-bound (`DESIGN.md` §12, report
/// `[E11]`).
pub fn inner_decode_with(
    geom: &EmblemGeometry,
    coded: &[u8],
    threads: ThreadConfig,
) -> Result<(Vec<u8>, usize), DecodeError> {
    let nblocks = geom.rs_blocks();
    assert!(
        coded.len() >= nblocks * RS_N,
        "coded stream shorter than {} blocks",
        nblocks
    );
    // De-interleave inside each parallel job: the codeword is built,
    // corrected and returned by the same worker, so no intermediate
    // block table (or per-block clone) is ever materialised.
    let rs = geom.inner_code();
    let results = ule_par::map_indexed(threads, nblocks, |b| {
        let mut cw: Vec<u8> = (0..RS_N).map(|i| coded[i * nblocks + b]).collect();
        rs.decode(&mut cw, &[]).map(|fixed| (cw, fixed))
    });
    let mut payload = Vec::with_capacity(nblocks * RS_K);
    let mut corrected = 0;
    for (b, r) in results.into_iter().enumerate() {
        match r {
            Ok((cw, fixed)) => {
                corrected += fixed;
                payload.extend_from_slice(&cw[..RS_K]);
            }
            Err(_) => return Err(DecodeError::RsFailure { block: b }),
        }
    }
    Ok((payload, corrected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_emblem;
    use crate::header::EmblemKind;
    use ule_raster::{DegradeParams, Scanner};

    fn geom() -> EmblemGeometry {
        EmblemGeometry::test_small()
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    fn hdr(len: usize) -> EmblemHeader {
        EmblemHeader::new(EmblemKind::Data, 3, 1, len as u32, len as u32)
    }

    #[test]
    fn pristine_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let (h, p, stats) = decode_emblem(&g, &img).unwrap();
        assert_eq!(h.index, 3);
        assert_eq!(p, data);
        assert_eq!(stats.rs_corrected, 0);
        assert_eq!(stats.sync_errors, 0);
        assert_eq!(stats.calibration_match_pm, 1000);
    }

    #[test]
    fn partial_payload_roundtrip() {
        let g = geom();
        let data = payload(100);
        let img = encode_emblem(&g, &hdr(100), &data);
        let (_, p, _) = decode_emblem(&g, &img).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn noisy_scan_roundtrip() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let params = DegradeParams {
            noise_sigma: 30.0,
            row_jitter: 0.6,
            fade_amplitude: 15.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 42).scan(&img);
        let (_, p, _) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn rescaled_scan_roundtrip() {
        // A 1.5x scan resolution (like 2K film scanned at 4K, scaled down).
        let g = geom();
        let data = payload(200);
        let img = encode_emblem(&g, &hdr(200), &data);
        let params = DegradeParams {
            scan_scale: 1.5,
            noise_sigma: 10.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 5).scan(&img);
        let (_, p, _) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
    }

    #[test]
    fn dusty_scan_is_corrected_by_inner_rs() {
        let g = geom();
        let data = payload(g.payload_capacity());
        let img = encode_emblem(&g, &hdr(data.len()), &data);
        let params = DegradeParams {
            dust_per_mpx: 40.0,
            dust_max_radius: 2.0,
            noise_sigma: 10.0,
            ..Default::default()
        };
        let scan = Scanner::new(params, 9).scan(&img);
        let (_, p, stats) = decode_emblem(&g, &scan).unwrap();
        assert_eq!(p, data);
        assert!(stats.rs_corrected > 0, "dust should force RS corrections");
    }

    #[test]
    fn blank_image_reports_border_not_found() {
        let g = geom();
        let img = GrayImage::new(400, 300, 255);
        assert_eq!(
            decode_emblem(&g, &img).unwrap_err(),
            DecodeError::BorderNotFound
        );
    }

    #[test]
    fn wrong_geometry_rejected_by_calibration() {
        let g = geom();
        let data = payload(50);
        let img = encode_emblem(&g, &hdr(50), &data);
        // Try to decode with a much wider geometry: cell sampling lands on
        // wrong positions and the calibration row cannot match.
        let wrong = EmblemGeometry::new(512, 96, 3);
        let err = decode_emblem(&wrong, &img).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::CalibrationMismatch { .. } | DecodeError::HeaderUnreadable
            ),
            "{err:?}"
        );
    }
}
