//! Pruning-identity property suite for the archival query engine (E13).
//!
//! The zone-map planner is a *performance hint*: for any table and any
//! range predicate, the pruned streaming scan, the unpruned streaming
//! scan and the full-restore + `Database`-load path must produce the
//! same answer — pruning may only skip rows the exact per-row predicate
//! would drop anyway. This suite drives that equivalence over every
//! catalogued table and a generated grid of predicates, under the pinned
//! `PROPTEST_SEED` the CI legs export.

use std::sync::OnceLock;

use proptest::prelude::*;
use ule::tpch::{archival::ShelfQuery, queries, Database};
use ule::vault::zones::{ColumnRange, ZonePredicate};
use ule::vault::{ReelScans, Vault, VaultArchive};
use ule_bench::E13Workload;

struct Shelf {
    vault: Vault,
    archive: VaultArchive,
    scans: ReelScans,
    db: Database,
}

/// One shelf shared by every property case: archiving and scanning the
/// reels dominates the cost, the per-case scans are cheap. The worker
/// pool comes from `ULE_TEST_THREADS` (CI runs serial and 4-threaded;
/// the answers must not notice).
fn shelf() -> &'static Shelf {
    static SHELF: OnceLock<Shelf> = OnceLock::new();
    SHELF.get_or_init(|| {
        let threads = ule::par::ThreadConfig::from_env_or(ule::par::ThreadConfig::Serial);
        let w = E13Workload::new(0.0001, 20260728, threads);
        // The oracle database must be the restored one: answers are
        // compared against "full restore + load", not the generator.
        let (dump, _) = w
            .vault
            .restore_all(&w.archive.bootstrap, &w.scans)
            .expect("full restore");
        let db = ule::tpch::parse_dump(&dump).expect("load restored dump");
        Shelf {
            vault: w.vault,
            archive: w.archive,
            scans: w.scans,
            db,
        }
    })
}

/// Rows of a streamed `COPY` scan: every data line between the header
/// and the `\.` terminator, in arrival order.
fn scan_rows(scan: &ule::vault::TableScan) -> Vec<String> {
    let mut rows = Vec::new();
    let mut seen_header = false;
    for (_, piece) in &scan.pieces {
        let text = std::str::from_utf8(piece).expect("COPY text");
        for line in text.split('\n') {
            if line.is_empty() {
                continue;
            }
            if !seen_header {
                assert!(line.starts_with("COPY "), "first line is the header");
                seen_header = true;
                continue;
            }
            if line == "\\." {
                return rows;
            }
            rows.push(line.to_string());
        }
    }
    panic!("COPY scan never terminated");
}

/// The exact row-level predicate the zone planner is a hint for.
fn row_matches(pred: &ZonePredicate, columns: &[&str], row: &str) -> bool {
    let fields: Vec<&str> = row.split('\t').collect();
    pred.ranges.iter().all(|r| {
        let Some(ci) = columns.iter().position(|c| *c == r.column) else {
            return true;
        };
        let Some(v) = fields.get(ci) else {
            return false;
        };
        let lo_ok = r.lo.as_deref().map_or(true, |lo| {
            ule::vault::zones::zone_value_cmp(v, lo) != std::cmp::Ordering::Less
        });
        let hi_ok = r.hi.as_deref().map_or(true, |hi| {
            ule::vault::zones::zone_value_cmp(v, hi) != std::cmp::Ordering::Greater
        });
        lo_ok && hi_ok
    })
}

/// The three-way identity for one `(table, predicate)` point: rows
/// surviving the exact predicate must agree across the pruned scan, the
/// unpruned scan and the loaded database.
fn assert_pruning_identity(table: &str, pred: &ZonePredicate) {
    let s = shelf();
    let (pruned, _) = s
        .vault
        .query_table(&s.archive.bootstrap, &s.scans, table, pred)
        .expect("pruned scan");
    let (unpruned, _) = s
        .vault
        .query_table(&s.archive.bootstrap, &s.scans, table, &ZonePredicate::all())
        .expect("unpruned scan");
    let t = s.db.table(table).expect("table in restored db");
    let columns: Vec<&str> = t.columns.clone();

    let filter = |rows: Vec<String>| -> Vec<String> {
        let mut v: Vec<String> = rows
            .into_iter()
            .filter(|r| row_matches(pred, &columns, r))
            .collect();
        v.sort();
        v
    };
    let from_pruned = filter(scan_rows(&pruned));
    let from_unpruned = filter(scan_rows(&unpruned));
    let from_db = filter(t.rows.iter().map(|r| r.join("\t")).collect());

    assert_eq!(from_pruned, from_unpruned, "{table}: pruned vs unpruned");
    assert_eq!(
        from_unpruned, from_db,
        "{table}: streamed vs restored+loaded"
    );
}

/// All catalogued tables (not just the zone-mapped ones — zone-less
/// entries must take the single-piece path and still agree).
const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
];

/// Date bounds spanning before, inside and after the TPC-H 1992–1998
/// window, so the grid hits prune-nothing, prune-some and prune-all.
const DATES: [&str; 5] = [
    "1000-01-01",
    "1993-06-30",
    "1995-01-01",
    "1997-03-15",
    "2999-12-31",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every table × a generated range on one of its own columns. The
    /// bounds come from real rows, so ranges are never vacuous by type.
    #[test]
    fn any_table_any_column_range_is_prune_safe(
        ti in 0usize..TABLES.len(),
        col_pick in any::<usize>(),
        lo_pick in any::<usize>(),
        hi_pick in any::<usize>(),
    ) {
        let table = TABLES[ti];
        let t = shelf().db.table(table).expect("table");
        prop_assert!(!t.rows.is_empty());
        let ci = col_pick % t.columns.len();
        let a = &t.rows[lo_pick % t.rows.len()][ci];
        let b = &t.rows[hi_pick % t.rows.len()][ci];
        let (lo, hi) = if ule::vault::zones::zone_value_cmp(a, b) == std::cmp::Ordering::Greater {
            (b, a)
        } else {
            (a, b)
        };
        let pred = ZonePredicate::all().with(ColumnRange::between(t.columns[ci], lo, hi));
        assert_pruning_identity(table, &pred);
    }

    /// The query-shaped predicates proper: shipdate/orderdate windows and
    /// quantity bounds on the zone-mapped fact tables.
    #[test]
    fn fact_table_date_windows_are_prune_safe(
        li in 0usize..DATES.len(),
        hi in 0usize..DATES.len(),
        qty in 1i64..51,
    ) {
        let (lo, hi) = if li <= hi { (DATES[li], DATES[hi]) } else { (DATES[hi], DATES[li]) };
        let pred = ZonePredicate::all()
            .with(ColumnRange::between("l_shipdate", lo, hi))
            .with(ColumnRange::at_most("l_quantity", &qty.to_string()));
        assert_pruning_identity("lineitem", &pred);
        let pred = ZonePredicate::all().with(ColumnRange::between("o_orderdate", lo, hi));
        assert_pruning_identity("orders", &pred);
    }
}

/// The end-to-end aggregation triangle on the shared shelf: streamed
/// answers equal restore-and-load answers for each query shape.
#[test]
fn streamed_aggregations_match_loaded_database() {
    let s = shelf();
    let q = ShelfQuery::new(&s.vault, &s.archive.bootstrap, &s.scans);
    for cutoff in ["1000-01-01", "1994-06-30", "2999-12-31"] {
        let (got, _) = q.pricing_summary(cutoff).expect("q1");
        assert_eq!(
            got,
            queries::pricing_summary(&s.db, cutoff).expect("oracle"),
            "{cutoff}"
        );
    }
    for (year, qty) in [("1992", 10), ("1995", 24), ("1998", 50)] {
        let (got, _) = q.forecast_revenue(year, qty).expect("q6");
        assert_eq!(
            got,
            queries::forecast_revenue(&s.db, year, qty).expect("oracle"),
            "{year}/{qty}"
        );
    }
    let (got, _) = q.top_customers(7).expect("q3");
    assert_eq!(got, queries::top_customers(&s.db, 7));
}
