//! `shelf_query`: the E13 shelf. A date-clustered dump archived as a
//! zone-mapped single-parity vault on the tiny test medium; scans are
//! made once, at set-up. Operations repeat E13's cycle: `restore_all`,
//! `Vault::restore_table` over the catalog's tables, then Q1, Q6 and Q3
//! through `ShelfQuery` with seeded parameters. Frames are small and
//! reads selective: zone pruning, selective decode, decompression and
//! aggregation do the work, the scanner none.

use ule_tpch::archival::ShelfQuery;
use ule_tpch::queries::{self, ForecastRevenueAcc, PricingSummaryRow};
use ule_tpch::Database;
use ule_vault::zones::{ColumnRange, ZonePredicate};
use ule_vault::{ReelScans, Vault, VaultArchive, VaultRestoreStats};

use crate::probe::{self, codec_metrics, push_split};
use crate::report::{mb, same, Metrics, Samples};
use crate::rng::{mix, Rng};
use crate::trace::Tracer;
use crate::workload::{closed_loop, repeated_setup, Looper, Outcome, RunCfg, THREADS};

/// Operation id of the set-up spans.
pub const SETUP_OP: u64 = u64::MAX;

/// Which shelf to build.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ShelfKind {
    /// E13: date-clustered dump, single-parity reel groups.
    Query,
    /// E15: plain dump, RS(5, 3) reel groups (two parity reels each).
    Damaged,
}

/// A scanned vault shelf and what it was made from.
pub struct Shelf {
    pub kind: ShelfKind,
    pub scale: f64,
    pub seed: u64,
    pub vault: Vault,
    /// The generating database (the query oracle); `None` on E15 shelves.
    pub db: Option<Database>,
    pub dump: Vec<u8>,
    pub archive: VaultArchive,
    pub scans: ReelScans,
    pub tables: Vec<String>,
}

impl Shelf {
    /// The shelf `report` builds for E13 or E15, with the benchmark's pool.
    pub fn build(scale: f64, seed: u64, kind: ShelfKind) -> Shelf {
        let (vault, db, dump, archive, scans) = match kind {
            ShelfKind::Query => {
                let w = ule_bench::E13Workload::new(scale, seed, THREADS);
                (w.vault, Some(w.db), w.dump, w.archive, w.scans)
            }
            ShelfKind::Damaged => {
                let w = ule_bench::E15Workload::new(scale, seed, THREADS);
                (w.vault, None, w.dump, w.archive, w.scans)
            }
        };
        let tables = archive
            .index
            .tables()
            .iter()
            .map(|t| t.to_string())
            .collect();
        Shelf {
            kind,
            scale,
            seed,
            vault,
            db,
            dump,
            archive,
            scans,
            tables,
        }
    }

    pub fn frames(&self) -> usize {
        self.archive.reels.iter().map(|r| r.frames.len()).sum()
    }

    /// The catalog's slice of the dump for `table`.
    pub fn expected_table(&self, table: &str) -> Result<&[u8], String> {
        let e = self
            .archive
            .index
            .find(table)
            .ok_or_else(|| format!("{table} not catalogued"))?;
        Ok(&self.dump[e.dump_start as usize..(e.dump_start + e.dump_len) as usize])
    }

    /// Traced runs: the set-up's steps timed once each (dump generation,
    /// `Vault::archive`, `Vault::scan_reels`), the codec chain on the
    /// shelf's dump, and the decode split on every scanned frame.
    pub fn probe(&self, tr: &mut Tracer, s: &mut Samples) -> Result<(), String> {
        let (dump, dump_gen) = tr.time("tpch.dump_gen", || match self.kind {
            ShelfKind::Query => {
                let mut db = Database::generate(self.scale, self.seed);
                ule_bench::cluster_on_dates(&mut db);
                ule_tpch::sql_dump(&db)
            }
            ShelfKind::Damaged => ule_tpch::dump_for_scale(self.scale, self.seed),
        });
        if dump != self.dump {
            return Err("dump generation probe: bytes differ from the shelf's dump".into());
        }
        s.push_ms("tpch.dump_gen_ms", dump_gen);
        let (archive, t_archive) = tr.time("vault.archive", || self.vault.archive(&dump));
        s.push_ms("vault.archive_ms", t_archive);
        let (scans, t_scan) = tr.time("vault.scan_reels", || {
            self.vault.scan_reels(&archive, mix(self.seed, 0x5ca))
        });
        let frames: usize = scans.iter().flatten().map(|r| r.len()).sum();
        if frames != self.frames() {
            return Err(format!(
                "archive probe: {frames} frames scanned, the shelf has {}",
                self.frames()
            ));
        }
        s.push_ms("vault.scan_reels_ms", t_scan);
        s.push_ms("media.scan_ms_per_frame", t_scan / frames.max(1) as u32);
        drop(scans);
        let codec = probe::codec_chain(tr, &self.vault.system, &self.dump)?;
        s.push_ms("compress.compress_ms", codec.compress);
        s.push("compress.ratio", codec.ratio);
        s.push_ms("emblem.encode_stream_ms", codec.encode_stream);
        s.push_ms("media.print_ms_per_frame", codec.print_per_frame);
        s.push_ms("compress.decompress_ms", codec.decompress);
        let geom = self.vault.system.medium.geometry;
        for (r, reel) in self.scans.iter().enumerate() {
            for (f, scan) in reel.iter().flatten().enumerate() {
                let split = probe::decode_split(tr, &geom, scan, mix(r as u64, f as u64))?;
                push_split(s, &split);
            }
        }
        Ok(())
    }
}

/// Restore-side counters of one operation, summed over its calls.
#[derive(Default)]
pub struct OpCounts {
    pub frames_decoded: usize,
    pub recovery_frames_decoded: usize,
    pub frames_reconstructed: usize,
    pub index_fallbacks: usize,
    pub corrected_symbols: usize,
    pub erasure_frames: usize,
}

impl OpCounts {
    pub fn add(&mut self, st: &VaultRestoreStats) {
        self.frames_decoded += st.frames_decoded;
        self.recovery_frames_decoded += st.recovery_frames_decoded;
        self.frames_reconstructed += st.frames_reconstructed;
        self.index_fallbacks += st.index_fallback as usize;
        self.corrected_symbols += st.corrected_symbols;
        self.erasure_frames += st.erasure_frames;
    }

    pub fn push(&self, s: &mut Samples) {
        s.push("vault.frames_decoded", self.frames_decoded as f64);
        s.push(
            "vault.recovery_frames_decoded",
            self.recovery_frames_decoded as f64,
        );
        s.push(
            "vault.frames_reconstructed",
            self.frames_reconstructed as f64,
        );
        s.push("vault.index_fallbacks", self.index_fallbacks as f64);
        s.push("rs.corrected_symbols", self.corrected_symbols as f64);
        s.push("rs.erasure_frames", self.erasure_frames as f64);
    }
}

/// Count metrics reported as their mean per operation.
pub const PER_OP_COUNTS: [&str; 8] = [
    "vault.frames_decoded",
    "vault.recovery_frames_decoded",
    "vault.frames_reconstructed",
    "vault.index_fallbacks",
    "rs.corrected_symbols",
    "rs.erasure_frames",
    "vault.scrub_damaged_frames",
    "vault.repair_frames_reencoded",
];

#[derive(Clone, Debug, PartialEq)]
pub enum ShelfOp {
    Q1 { cutoff: String },
    Q6 { year: String, max_qty: i64 },
    Q3 { n: usize },
    Table(String),
    RestoreAll,
}

/// Output of one shelf operation.
#[derive(Debug, PartialEq)]
pub enum ShelfOut {
    Q1(Vec<PricingSummaryRow>),
    Q6(i64),
    Q3(Vec<(String, i64)>),
    Bytes(Vec<u8>),
}

pub struct QueryWorkload {
    pub scale: f64,
}

/// Operations per E13 cycle: `report`'s E13 section runs one full
/// restore, one selective table restore, Q1, Q6 and Q3 on its shelf.
pub const CYCLE: u64 = 5;

impl QueryWorkload {
    pub fn e13() -> Self {
        Self { scale: 0.0002 }
    }

    /// Operation `i` of the run with `seed`. The run repeats E13's cycle
    /// in E13's order: `restore_all`, `restore_table`, Q1, Q6, Q3. Query
    /// parameters are drawn from the seed; the table restores visit the
    /// catalog's tables in a seeded order, each equally often.
    pub fn plan(seed: u64, i: u64, tables: &[String]) -> ShelfOp {
        let mut rng = Rng::new(mix(seed ^ 0x0b5, i));
        match i % CYCLE {
            0 => ShelfOp::RestoreAll,
            1 => ShelfOp::Table(Rng::cycled(seed, i / CYCLE, tables)),
            2 => ShelfOp::Q1 {
                cutoff: format!(
                    "{}-{:02}-{:02}",
                    rng.between(1992, 1998),
                    rng.between(1, 12),
                    rng.between(1, 28)
                ),
            },
            3 => ShelfOp::Q6 {
                year: rng.between(1993, 1997).to_string(),
                max_qty: rng.between(20, 30) as i64,
            },
            _ => ShelfOp::Q3 { n: 10 },
        }
    }

    /// Run `op` on the shelf: its output, its restore-side counts and
    /// the bytes it returned.
    pub fn execute(
        shelf: &Shelf,
        tr: &mut Tracer,
        op: &ShelfOp,
    ) -> Result<
        (
            ShelfOut,
            OpCounts,
            usize,
            Option<ule_tpch::archival::QueryStats>,
        ),
        String,
    > {
        let q = ShelfQuery::new(&shelf.vault, &shelf.archive.bootstrap, &shelf.scans);
        let err = |e: ule_tpch::archival::ArchivalError| format!("{op:?}: {e}");
        let verr = |e: ule_vault::VaultError| format!("{op:?}: {e:?}");
        let mut counts = OpCounts::default();
        let (out, qstats) = match op {
            ShelfOp::Q1 { cutoff } => {
                let (rows, st) = tr
                    .time("tpch.shelf_query", || q.pricing_summary(cutoff))
                    .0
                    .map_err(err)?;
                (ShelfOut::Q1(rows), Some(st))
            }
            ShelfOp::Q6 { year, max_qty } => {
                let (rev, st) = tr
                    .time("tpch.shelf_query", || q.forecast_revenue(year, *max_qty))
                    .0
                    .map_err(err)?;
                (ShelfOut::Q6(rev), Some(st))
            }
            ShelfOp::Q3 { n } => {
                let (top, st) = tr
                    .time("tpch.shelf_query", || q.top_customers(*n))
                    .0
                    .map_err(err)?;
                (ShelfOut::Q3(top), Some(st))
            }
            ShelfOp::Table(t) => {
                let (bytes, st) = tr
                    .time("vault.restore_table", || {
                        shelf
                            .vault
                            .restore_table(&shelf.archive.bootstrap, &shelf.scans, t)
                    })
                    .0
                    .map_err(verr)?;
                counts.add(&st);
                (ShelfOut::Bytes(bytes), None)
            }
            ShelfOp::RestoreAll => {
                let (bytes, st) = tr
                    .time("vault.restore_all", || {
                        shelf
                            .vault
                            .restore_all(&shelf.archive.bootstrap, &shelf.scans)
                    })
                    .0
                    .map_err(verr)?;
                counts.add(&st);
                (ShelfOut::Bytes(bytes), None)
            }
        };
        let returned = match (&out, &qstats) {
            (ShelfOut::Bytes(b), _) => b.len(),
            (_, Some(st)) => st.bytes_touched,
            _ => 0,
        };
        if let Some(st) = &qstats {
            counts.frames_decoded += st.frames_decoded;
        }
        Ok((out, counts, returned, qstats))
    }

    /// The oracle: queries answer as `ule_tpch::queries` on the
    /// generating database, table restores return the catalog's slice of
    /// the dump, full restores the dump.
    pub fn verify(shelf: &Shelf, op: &ShelfOp, out: &ShelfOut) -> Result<(), String> {
        let db = shelf
            .db
            .as_ref()
            .ok_or("shelf has no generating database")?;
        let want = match op {
            ShelfOp::Q1 { cutoff } => ShelfOut::Q1(
                queries::pricing_summary(db, cutoff).map_err(|e| format!("oracle: {e}"))?,
            ),
            ShelfOp::Q6 { year, max_qty } => ShelfOut::Q6(
                queries::forecast_revenue(db, year, *max_qty)
                    .map_err(|e| format!("oracle: {e}"))?,
            ),
            ShelfOp::Q3 { n } => ShelfOut::Q3(queries::top_customers(db, *n)),
            ShelfOp::Table(t) => ShelfOut::Bytes(shelf.expected_table(t)?.to_vec()),
            ShelfOp::RestoreAll => ShelfOut::Bytes(shelf.dump.clone()),
        };
        same(&format!("{op:?}"), out, &want)
    }

    /// The zone predicate `ShelfQuery` builds for `op`, for timing the
    /// vault fetch alone.
    fn predicate(op: &ShelfOp) -> Option<(&'static str, ZonePredicate)> {
        match op {
            ShelfOp::Q1 { cutoff } => Some((
                "lineitem",
                ZonePredicate::all().with(ColumnRange::at_most("l_shipdate", cutoff)),
            )),
            ShelfOp::Q6 { year, max_qty } => {
                let acc = ForecastRevenueAcc::new(year, *max_qty).ok()?;
                let (lo, hi) = acc.date_window();
                Some((
                    "lineitem",
                    ZonePredicate::all()
                        .with(ColumnRange::between("l_shipdate", lo, hi))
                        .with(ColumnRange::at_most(
                            "l_quantity",
                            &max_qty.saturating_sub(1).to_string(),
                        )),
                ))
            }
            ShelfOp::Q3 { .. } => Some(("orders", ZonePredicate::all())),
            _ => None,
        }
    }

    pub fn run(&self, cfg: &RunCfg) -> Result<Outcome, String> {
        let mut lp = Looper::new(cfg.trace);
        let mut s = Samples::default();
        let (shelf, setup_s) = repeated_setup(cfg.setups, || {
            Ok(Shelf::build(self.scale, cfg.seed, ShelfKind::Query))
        })?;
        lp.probe(SETUP_OP, |tr| shelf.probe(tr, &mut s));
        let payload = shelf.vault.system.medium.geometry.payload_capacity() as f64;
        closed_loop(cfg.seconds, |i| {
            let op = Self::plan(cfg.seed, i, &shelf.tables);
            let res = lp.op(i, "shelf_query", |tr| {
                let o = tr.begin("op");
                let res = Self::execute(&shelf, tr, &op);
                let wall = tr.end(o);
                let (out, counts, returned, qstats) = res?;
                Self::verify(&shelf, &op, &out)?;
                Ok(((counts, returned, qstats, wall), wall))
            });
            let Some((counts, returned, qstats, wall)) = res else {
                return;
            };
            let kind = match op {
                ShelfOp::Table(_) => "table_restore_ms",
                ShelfOp::RestoreAll => {
                    s.push_rate("restore", mb(shelf.dump.len()), wall);
                    "restore_all_ms"
                }
                _ => "query_ms",
            };
            s.push_ms(kind, wall);
            s.push_ms("op_ms", wall);
            s.push_rate("op", 1.0, wall);
            counts.push(&mut s);
            if counts.frames_decoded > 0 {
                s.push(
                    "vault.frame_yield",
                    returned as f64 / (counts.frames_decoded as f64 * payload),
                );
            }
            let Some(qs) = qstats else { return };
            s.push(
                "vault.zone_select_ratio",
                qs.zones_selected as f64 / qs.zones_total.max(1) as f64,
            );
            lp.probe(i, |tr| {
                let (table, pred) = Self::predicate(&op).ok_or("no predicate")?;
                let (res, fetch) = tr.time("vault.query_table", || {
                    shelf
                        .vault
                        .query_table(&shelf.archive.bootstrap, &shelf.scans, table, &pred)
                });
                let (_, vst) = res.map_err(|e| format!("query_table probe: {e:?}"))?;
                if vst.zones_scanned != qs.zones_selected {
                    return Err("query_table probe scanned other zones than the query".into());
                }
                s.push_ms("vault.query_table_ms", fetch);
                s.push_ms("tpch.aggregate_ms", wall.saturating_sub(fetch));
                Ok(())
            });
        });
        let mut e2e = Metrics::default();
        e2e.put("setup_s", "s", setup_s);
        e2e.rate("restore_mb_s", "MB/s", &s, "restore");
        e2e.rate("ops_per_s", "1/s", &s, "op");
        e2e.latency("restore_all", s.get("restore_all_ms"));
        e2e.latency("query", s.get("query_ms"));
        e2e.latency("table_restore", s.get("table_restore_ms"));
        e2e.latency("op", s.get("op_ms"));
        e2e.put(
            "frames_per_mb",
            "frames/MB",
            shelf.frames() as f64 / mb(shelf.dump.len()),
        );
        let mut layers = Metrics::default();
        shelf_layer_metrics(&mut layers, &s);
        layers.median(
            "vault.zone_select_ratio",
            "ratio",
            s.get("vault.zone_select_ratio"),
        );
        layers.median("vault.query_table_ms", "ms", s.get("vault.query_table_ms"));
        layers.median("tpch.aggregate_ms", "ms", s.get("tpch.aggregate_ms"));
        Ok(lp.finish(e2e, layers))
    }
}

/// Per-layer metrics both shelf workloads report.
pub fn shelf_layer_metrics(layers: &mut Metrics, s: &Samples) {
    for name in PER_OP_COUNTS {
        if let Some(v) = s.mean(name) {
            layers.put(name, "count", v);
        }
    }
    if let Some(v) = s.mean("vault.frame_yield") {
        layers.put("vault.frame_yield", "ratio", v);
    }
    for name in [
        "vault.archive_ms",
        "vault.scan_reels_ms",
        "media.scan_ms_per_frame",
    ] {
        layers.median(name, "ms", s.get(name));
    }
    codec_metrics(layers, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Tally;

    fn shelf(seed: u64) -> Shelf {
        Shelf::build(0.0001, seed, ShelfKind::Query)
    }

    #[test]
    fn same_seed_same_operations_and_outputs() {
        let (a, b) = (shelf(7), shelf(7));
        assert_eq!(a.dump, b.dump);
        let plan = |seed| -> Vec<ShelfOp> {
            (0..30)
                .map(|i| QueryWorkload::plan(seed, i, &a.tables))
                .collect()
        };
        assert_eq!(plan(7), plan(7));
        assert_ne!(plan(7), plan(8));
        assert!(plan(7).contains(&ShelfOp::RestoreAll));
        for op in plan(7).iter().take(13) {
            let (out_a, ..) = QueryWorkload::execute(&a, &mut Tracer::off(), op).unwrap();
            let (out_b, ..) = QueryWorkload::execute(&b, &mut Tracer::off(), op).unwrap();
            assert_eq!(out_a, out_b, "{op:?}");
            QueryWorkload::verify(&a, op, &out_a).unwrap();
        }
    }

    #[test]
    fn flipped_output_byte_counts_as_failed() {
        let s = shelf(3);
        let op = ShelfOp::Table("orders".into());
        let mut tally = Tally::default();
        let run = |flip: bool, tally: &mut Tally| {
            tally.attempt("table", || {
                let (mut out, ..) = QueryWorkload::execute(&s, &mut Tracer::off(), &op)?;
                if let (true, ShelfOut::Bytes(b)) = (flip, &mut out) {
                    let mid = b.len() / 2;
                    b[mid] ^= 1;
                }
                QueryWorkload::verify(&s, &op, &out)
            })
        };
        assert!(run(false, &mut tally).is_some());
        assert!(run(true, &mut tally).is_none());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.failures[0].contains("differs from the oracle"));
    }
}
