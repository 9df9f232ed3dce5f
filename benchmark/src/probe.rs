//! Layer probes of the traced run: the public calls that a workload's
//! top-level operations make internally, timed one at a time on the
//! workload's own inputs.

use micr_olonys::MicrOlonys;
use std::time::Duration;
use ule_emblem::geometry::{EDGE_CELLS, RS_N};
use ule_emblem::{
    decode_emblem, inner_decode_with, inner_encode, locate, EmblemGeometry, EmblemKind,
};
use ule_raster::GrayImage;

use crate::report::{Metrics, Samples};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;

/// The archive-side codec chain on one dump, and its decompression.
pub struct Codec {
    pub compress: Duration,
    /// Archive bytes ÷ dump bytes.
    pub ratio: f64,
    pub encode_stream: Duration,
    pub print_per_frame: Duration,
    pub decompress: Duration,
}

/// `compress` → `encode_stream_with` → `print_all_with` → `decompress`
/// on `dump` with `system`'s scheme, medium and pool. The decompressed
/// bytes must equal `dump`.
pub fn codec_chain(tr: &mut Tracer, system: &MicrOlonys, dump: &[u8]) -> Result<Codec, String> {
    let geom = system.medium.geometry;
    let (archive, compress) = tr.time("compress.compress", || {
        ule_compress::compress(system.scheme, dump)
    });
    let (emblems, encode_stream) = tr.time("emblem.encode_stream", || {
        ule_emblem::encode_stream_with(
            &geom,
            EmblemKind::Data,
            &archive,
            system.with_parity,
            system.threads,
        )
    });
    let (frames, print) = tr.time("media.print", || {
        system.medium.print_all_with(&emblems, system.threads)
    });
    let (back, decompress) = tr.time("compress.decompress", || ule_compress::decompress(&archive));
    if back.map_err(|e| format!("decompress probe: {e}"))? != dump {
        return Err("decompress probe: bytes differ from the dump".into());
    }
    Ok(Codec {
        compress,
        ratio: archive.len() as f64 / dump.len() as f64,
        encode_stream,
        print_per_frame: print / frames.len().max(1) as u32,
        decompress,
    })
}

/// One frame's decode, and the same scan split into the decoder's
/// stages. Three stages are timed; [`DecodeSplit::sample_demod`] is what
/// is left of `decode` after them.
pub struct DecodeSplit {
    pub decode: Duration,
    pub threshold: Duration,
    pub locate: Duration,
    pub inner_rs: Duration,
}

impl DecodeSplit {
    /// `decode` minus the three timed stages (cell sampling, header
    /// reading and demodulation), floored at zero. A leftover figure, not
    /// a measured stage: each stage was timed on its own call.
    pub fn sample_demod(&self) -> Duration {
        self.decode
            .saturating_sub(self.threshold + self.locate + self.inner_rs)
    }
}

/// Decode `scan` with `decode_emblem`, then time its stages on the same
/// scan: Otsu threshold, grid location (`locate::find_border_box` and
/// `locate::edge_map`), and inner Reed–Solomon. The
/// inner-RS input is the frame's payload re-encoded with `inner_encode`,
/// with as many symbols corrupted (spread round-robin over the blocks,
/// positions drawn from `seed`) as the real decode corrected, so the
/// stage does the same correcting work.
pub fn decode_split(
    tr: &mut Tracer,
    geom: &EmblemGeometry,
    scan: &GrayImage,
    seed: u64,
) -> Result<DecodeSplit, String> {
    let (res, decode) = tr.time("emblem.decode_frame", || decode_emblem(geom, scan));
    let (_, payload, stats) = res.map_err(|e| format!("decode probe: {e}"))?;
    let ((bit, _), threshold) = tr.time("emblem.threshold", || {
        let t = scan.otsu_threshold();
        (scan.threshold(t), t)
    });
    // What `decode_emblem` does to place the grid: the border box, then
    // the edge map with a border three cells wide.
    let (found, locate) = tr.time("emblem.locate", || {
        let bbox = locate::find_border_box(&bit)?;
        let cell_w = bbox.width() as f64 / (geom.cols + 2 * EDGE_CELLS) as f64;
        Some(locate::edge_map(&bit, bbox, cell_w * 3.0))
    });
    if found.is_none() {
        return Err("locate probe: border not found".into());
    }
    let mut coded = inner_encode(geom, &payload);
    let nblocks = geom.rs_blocks();
    let per_block = (stats.rs_corrected.div_ceil(nblocks)).min(geom.inner_code().parity_len() / 2);
    let mut rng = Rng::new(seed);
    for b in 0..nblocks {
        let errors = per_block.min(stats.rs_corrected.saturating_sub(b * per_block));
        let positions: Vec<usize> = (0..RS_N).collect();
        for i in rng.choose(&positions, errors) {
            coded[i * nblocks + b] ^= 0x5A;
        }
    }
    let (fixed, inner_rs) = tr.time("emblem.inner_rs", || {
        inner_decode_with(geom, &coded, ule_par::ThreadConfig::Serial)
    });
    let (fixed_payload, _) = fixed.map_err(|e| format!("inner RS probe: {e}"))?;
    if fixed_payload[..payload.len()] != payload[..] {
        return Err("inner RS probe: corrected payload differs".into());
    }
    Ok(DecodeSplit {
        decode,
        threshold,
        locate,
        inner_rs,
    })
}

/// Record one frame's decode split.
pub fn push_split(s: &mut Samples, split: &DecodeSplit) {
    s.push_ms("emblem.decode_frame_ms", split.decode);
    s.push_ms("emblem.threshold_ms", split.threshold);
    s.push_ms("emblem.locate_ms", split.locate);
    s.push_ms("emblem.inner_rs_ms", split.inner_rs);
    s.push_ms("emblem.sample_demod_ms", split.sample_demod());
}

/// The codec-chain and decode-split probes as per-layer metrics.
pub fn codec_metrics(layers: &mut Metrics, s: &Samples) {
    for name in [
        "compress.compress_ms",
        "compress.decompress_ms",
        "emblem.encode_stream_ms",
        "media.print_ms_per_frame",
        "emblem.decode_frame_ms",
        "emblem.threshold_ms",
        "emblem.locate_ms",
        "emblem.inner_rs_ms",
        "emblem.sample_demod_ms",
        "tpch.dump_gen_ms",
    ] {
        layers.median(name, "ms", s.get(name));
    }
    if let Some((p, v)) = stats::tail(s.get("emblem.decode_frame_ms")) {
        layers.put(&format!("emblem.decode_frame_p{p}_ms"), "ms", v);
    }
    layers.median("compress.ratio", "ratio", s.get("compress.ratio"));
}
