//! End-to-end and per-layer benchmark of the Micr'Olonys archive
//! pipeline. See README.md for the workloads, metrics and how to run it.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload shelf_query --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod damaged;
mod paper;
mod probe;
mod report;
mod rng;
mod shelf;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use report::Metrics;
use workload::{Outcome, RunCfg, THREADS};

pub const WORKLOADS: [&str; 3] = ["paper_roundtrip", "shelf_query", "damaged_shelf"];

/// The end-to-end metrics of the result line, measured on every workload.
pub const E2E_JSON: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("restore_mb_s", "MB/s"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics of the traced result line. Times are measured
/// on every workload; counts a workload's layers do not produce read 0.
pub const LAYER_JSON: [(&str, &str); 24] = [
    ("tpch.dump_gen_ms", "ms"),
    ("compress.compress_ms", "ms"),
    ("compress.decompress_ms", "ms"),
    ("compress.ratio", "ratio"),
    ("emblem.encode_stream_ms", "ms"),
    ("media.print_ms_per_frame", "ms"),
    ("media.scan_ms_per_frame", "ms"),
    ("emblem.decode_frame_ms", "ms"),
    ("emblem.threshold_ms", "ms"),
    ("emblem.locate_ms", "ms"),
    ("emblem.inner_rs_ms", "ms"),
    ("emblem.sample_demod_ms", "ms"),
    ("rs.corrected_symbols", "count"),
    ("rs.erasure_frames", "count"),
    ("dynarisc.guest_steps", "count"),
    ("vault.frames_decoded", "count"),
    ("vault.frame_yield", "ratio"),
    ("vault.zone_select_ratio", "ratio"),
    ("vault.recovery_frames_decoded", "count"),
    ("vault.frames_reconstructed", "count"),
    ("vault.index_fallbacks", "count"),
    ("vault.scrub_damaged_frames", "count"),
    ("vault.repair_frames_reencoded", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match kv.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "paper_roundtrip" => paper::Paper::paper_default().run(cfg),
        "shelf_query" => shelf::QueryWorkload::e13().run(cfg),
        "damaged_shelf" => damaged::DamagedWorkload::e15().run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn better(name: &str, unit: &str) -> &'static str {
    if name.ends_with("_mb_s") || name.ends_with("_per_s") {
        "higher"
    } else if matches!(unit, "ms" | "s" | "MB" | "frames/MB") || name == "op_failure_ratio" {
        "lower"
    } else {
        "-"
    }
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("  {title}:");
    for (name, unit, v) in &m.0 {
        println!(
            "    {name:<34} {v:>16.4} {unit:<10} better: {}",
            better(name, unit)
        );
    }
}

/// Span table of a traced run: calls, self-time p50 and tail per name.
fn print_spans(spans: &[trace::Span]) {
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(*self_ns as f64 / 1e6);
        e.1 += s.duration_ns() as f64 / 1e6;
    }
    println!("  spans (self time, ms):");
    println!(
        "    {:<28} {:>6} {:>10} {:>16} {:>12}",
        "name", "calls", "self p50", "self tail", "total"
    );
    for (name, (xs, total)) in by_name {
        let tail = stats::tail(&xs).map_or("-".to_string(), |(p, v)| format!("p{p} {v:.3}"));
        println!(
            "    {name:<28} {:>6} {:>10.3} {tail:>16} {total:>12.1}",
            xs.len(),
            stats::median(&xs).unwrap_or(0.0),
        );
    }
}

/// Largest share of an operation's wall time that the self times of its
/// descendants add up to (at most 1 when spans nest properly), and the
/// scanner's share of the operations' time.
fn span_shares(spans: &[trace::Span]) -> (f64, Option<f64>) {
    let selfs = trace::self_times(spans);
    let mut worst: f64 = 0.0;
    let (mut op_ns, mut scan_ns) = (0u64, 0u64);
    for op in spans.iter().filter(|s| s.name == "op") {
        let mut sum = 0u64;
        let mut frontier = vec![op.id];
        while let Some(p) = frontier.pop() {
            for c in spans.iter().filter(|c| c.parent == Some(p)) {
                sum += selfs[c.id];
                if c.name == "media.scan" {
                    scan_ns += c.duration_ns();
                }
                frontier.push(c.id);
            }
        }
        op_ns += op.duration_ns();
        worst = worst.max(sum as f64 / op.duration_ns().max(1) as f64);
    }
    let scan_share = (scan_ns > 0).then(|| scan_ns as f64 / op_ns as f64);
    (worst, scan_share)
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let mut metrics = Vec::new();
    let list: &[(&str, &str)] = if trace { &LAYER_JSON } else { &E2E_JSON };
    for (name, unit) in list {
        let v = if trace {
            out.layers.get(name).unwrap_or(0.0)
        } else {
            out.e2e.get(name).unwrap_or(f64::NAN)
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0 && out.probes.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        setups: 5,
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  pool {THREADS:?}  host cores {}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut out = run_workload(name, &cfg)?;
    out.e2e.put(
        "peak_rss_mb",
        "MB",
        report::peak_rss_mb().unwrap_or(f64::NAN),
    );
    out.e2e
        .put("op_failure_ratio", "ratio", out.tally.failure_ratio());
    print_metrics("end to end", &out.e2e);
    if cfg.trace {
        if let Some(r) = out.trace_overhead {
            out.layers.put("bench.trace_overhead_ratio", "ratio", r);
        }
        let (children, scan_share) = span_shares(&out.spans);
        out.layers
            .put("bench.children_self_share", "ratio", children);
        if let Some(share) = scan_share {
            out.layers.put("media.scan_share_of_op", "ratio", share);
        }
        print_metrics("per layer", &out.layers);
        print_spans(&out.spans);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}-{}.json", cfg.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(name, cfg.seed, &out.spans)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  trace: {} ({} spans)", path.display(), out.spans.len());
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.tally.attempted, out.tally.failed
    );
    for f in &out.tally.failures {
        println!("    failed: {f}");
    }
    if cfg.trace {
        println!(
            "  layer probes: {} run, {} failed",
            out.probes.attempted, out.probes.failed
        );
        for f in &out.probes.failures {
            println!("    failed: {f}");
        }
    }
    println!("{}", json_line(&out, cfg.trace));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        if let Err(e) = run_one(name, &args) {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result line and `BENCHMARK.json` name the same metrics.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = json.split_whitespace().collect();
        for (name, unit) in E2E_JSON.iter().chain(LAYER_JSON.iter()) {
            assert!(
                flat.contains(&format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            flat.matches("\"better\"").count(),
            E2E_JSON.len() + LAYER_JSON.len()
        );
        for w in WORKLOADS {
            assert!(flat.contains(&format!("\"name\":\"{w}\"")), "{w} missing");
        }
    }
}
