//! `paper_roundtrip`: E1 at quick scale. Each operation archives a fresh
//! TPC-H dump on A4 paper at 600 dpi, scans the data frames, restores
//! natively, then restores through the emulated decoders from the
//! printed system and data frames. Frames are ~35 MB, far beyond the
//! CPU caches; the scanner model and per-frame decode do the work.

use micr_olonys::{EmulationTier, MicrOlonys};
use std::hint::black_box;
use std::time::Duration;
use ule_raster::GrayImage;

use crate::probe;
use crate::report::{mb, same, Metrics, Samples};
use crate::rng::mix;
use crate::trace::Tracer;
use crate::workload::{closed_loop, repeated_setup, Looper, Outcome, RunCfg, THREADS};

pub struct Paper {
    pub system: MicrOlonys,
    pub scale: f64,
}

/// One round trip's timings and counts.
pub struct RoundTrip {
    pub dump_gen: Duration,
    pub dump_bytes: usize,
    pub frames: usize,
    pub archive: Duration,
    pub scan: Duration,
    pub restore_native: Duration,
    pub restore_emulated: Duration,
    pub corrected_symbols: usize,
    pub erasure_frames: usize,
    pub guest_steps: u64,
    /// Inputs kept for the layer probes.
    pub dump: Vec<u8>,
    pub scans: Vec<GrayImage>,
}

impl Paper {
    pub fn paper_default() -> Self {
        Self {
            system: MicrOlonys::paper_default().with_threads(THREADS),
            scale: 0.0002,
        }
    }

    /// Seeds of operation `i`: its dump and its scans.
    fn seeds(seed: u64, i: u64) -> (u64, u64) {
        (mix(seed, 2 * i), mix(seed, 2 * i + 1))
    }

    /// Set-up: the Bootstrap document, the first operation's dump and
    /// one warm-up archive of it (first-touch of the frame buffers).
    fn setup(&self, seed: u64) -> Result<(), String> {
        let text = self.system.make_bootstrap().to_text();
        let dump = ule_tpch::dump_for_scale(self.scale, Self::seeds(seed, 0).0);
        let out = self.system.archive(&dump);
        black_box((text, out.data_frames.len()));
        Ok(())
    }

    /// Operation `i`: archive → scan → native restore → emulated restore,
    /// each output checked against the dump. Returns the operation's wall
    /// time (the dump's generation is not part of it).
    pub fn op(&self, tr: &mut Tracer, seed: u64, i: u64) -> Result<(RoundTrip, Duration), String> {
        let (dump_seed, scan_seed) = Self::seeds(seed, i);
        let (dump, dump_gen) = tr.time("tpch.dump_gen", || {
            ule_tpch::dump_for_scale(self.scale, dump_seed)
        });
        let op = tr.begin("op");
        let (out, archive) = tr.time("core.archive", || self.system.archive(&dump));
        let (scans, scan) = tr.time("media.scan", || {
            self.system
                .medium
                .scan_all_with(&out.data_frames, scan_seed, THREADS)
        });
        let (native, restore_native) =
            tr.time("core.restore_native", || self.system.restore_native(&scans));
        let text = out.bootstrap.to_text();
        let frames = out.system_frames.len() + out.data_frames.len();
        let mut printed = out.system_frames;
        printed.extend(out.data_frames);
        let (emulated, restore_emulated) = tr.time("core.restore_emulated", || {
            MicrOlonys::restore_emulated(&text, &printed, EmulationTier::Threaded, THREADS)
        });
        let wall = tr.end(op);
        drop(printed);
        let (native, nstats) = native.map_err(|e| format!("restore_native: {e}"))?;
        same("restore_native", &native, &dump)?;
        let (emulated, estats) = emulated.map_err(|e| format!("restore_emulated: {e}"))?;
        same("restore_emulated", &emulated, &dump)?;
        let rt = RoundTrip {
            dump_gen,
            dump_bytes: dump.len(),
            frames,
            archive,
            scan,
            restore_native,
            restore_emulated,
            corrected_symbols: nstats.corrected_symbols,
            erasure_frames: nstats.erasure_frames,
            guest_steps: estats.guest_steps,
            dump,
            scans,
        };
        Ok((rt, wall))
    }

    pub fn run(&self, cfg: &RunCfg) -> Result<Outcome, String> {
        let ((), setup_s) = repeated_setup(cfg.setups, || self.setup(cfg.seed))?;
        let mut lp = Looper::new(cfg.trace);
        let mut s = Samples::default();
        let geom = self.system.medium.geometry;
        closed_loop(cfg.seconds, |i| {
            let Some(rt) = lp.op(i, "paper_roundtrip", |tr| self.op(tr, cfg.seed, i)) else {
                return;
            };
            let dump_mb = mb(rt.dump_bytes);
            s.push_rate("archive", dump_mb, rt.archive);
            s.push(
                "roundtrip_s",
                (rt.archive + rt.scan + rt.restore_native).as_secs_f64(),
            );
            s.push("scan_s", rt.scan.as_secs_f64());
            s.push_rate("restore", dump_mb, rt.restore_native);
            s.push_rate("restore_emulated", dump_mb, rt.restore_emulated);
            let op = rt.archive + rt.scan + rt.restore_native + rt.restore_emulated;
            s.push_ms("op_ms", op);
            s.push_rate("op", 1.0, op);
            s.push("frames_per_mb", rt.frames as f64 / dump_mb);
            s.push_ms("tpch.dump_gen_ms", rt.dump_gen);
            s.push_ms("core.archive_ms", rt.archive);
            s.push_ms("core.restore_native_ms", rt.restore_native);
            s.push_ms("core.restore_emulated_ms", rt.restore_emulated);
            s.push_ms("media.scan_ms_per_frame", rt.scan / rt.scans.len() as u32);
            s.push("rs.corrected_symbols", rt.corrected_symbols as f64);
            s.push("rs.erasure_frames", rt.erasure_frames as f64);
            s.push("dynarisc.guest_steps", rt.guest_steps as f64);
            s.push(
                "dynarisc.steps_per_s",
                rt.guest_steps as f64 / rt.restore_emulated.as_secs_f64(),
            );
            lp.probe(i, |tr| {
                let codec = probe::codec_chain(tr, &self.system, &rt.dump)?;
                s.push_ms("compress.compress_ms", codec.compress);
                s.push("compress.ratio", codec.ratio);
                s.push_ms("emblem.encode_stream_ms", codec.encode_stream);
                s.push_ms("media.print_ms_per_frame", codec.print_per_frame);
                s.push_ms("compress.decompress_ms", codec.decompress);
                for (f, scan) in rt.scans.iter().enumerate() {
                    let split = probe::decode_split(tr, &geom, scan, mix(i, f as u64))?;
                    probe::push_split(&mut s, &split);
                }
                Ok(())
            });
        });
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", setup_s);
        e2e.rate("archive_mb_s", "MB/s", &s, "archive");
        e2e.median("roundtrip_s", "s", s.get("roundtrip_s"));
        e2e.rate("restore_mb_s", "MB/s", &s, "restore");
        e2e.rate("restore_emulated_mb_s", "MB/s", &s, "restore_emulated");
        e2e.rate("ops_per_s", "1/s", &s, "op");
        e2e.latency("op", s.get("op_ms"));
        e2e.median("frames_per_mb", "frames/MB", s.get("frames_per_mb"));
        let mut layers = Metrics::default();
        for (name, unit) in [
            ("core.archive_ms", "ms"),
            ("core.restore_native_ms", "ms"),
            ("core.restore_emulated_ms", "ms"),
            ("media.scan_ms_per_frame", "ms"),
            ("dynarisc.steps_per_s", "1/s"),
        ] {
            layers.median(name, unit, s.get(name));
        }
        for name in [
            "rs.corrected_symbols",
            "rs.erasure_frames",
            "dynarisc.guest_steps",
        ] {
            if let Some(v) = s.mean(name) {
                layers.put(name, "count", v);
            }
        }
        probe::codec_metrics(&mut layers, &s);
        // The scanner's share of the round trip (ROADMAP: ~85%).
        let scan: f64 = s.get("scan_s").iter().sum();
        let roundtrip: f64 = s.get("roundtrip_s").iter().sum();
        if roundtrip > 0.0 {
            layers.put("media.scan_share_of_roundtrip", "ratio", scan / roundtrip);
        }
        Ok(lp.finish(e2e, layers))
    }
}
