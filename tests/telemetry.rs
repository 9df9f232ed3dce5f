//! E14 telemetry contract: the recorder only *observes*. Restored bytes,
//! restore stats, and decode-health counters must be identical whether
//! telemetry is off, on, serial, or running over the `ule_par` pool — and
//! the counters must agree exactly with the faults we inject.

use ule::fault::{Blotch, FaultPlan};
use ule::obs::Telemetry;
use ule::olonys::MicrOlonys;
use ule::par::ThreadConfig;
use ule::vault::layout::StreamId;
use ule::vault::{ShardPlan, Vault};

fn tiny(threads: ThreadConfig) -> MicrOlonys {
    MicrOlonys::test_tiny().with_threads(threads)
}

fn sample_dump() -> Vec<u8> {
    ule::tpch::dump_for_scale(0.0001, 2026)
}

/// Degraded channel scans (one frame dropped, per-frame scan noise) so the
/// identity claim covers inner-RS corrections *and* outer-code recovery.
fn degraded_scans(
    sys: &MicrOlonys,
    out: &ule::olonys::ArchiveOutput,
) -> Vec<ule::raster::GrayImage> {
    out.data_frames
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(i, f)| sys.medium.scan(f, 90 + i as u64))
        .collect()
}

#[test]
fn telemetry_on_restore_is_byte_identical_to_off() {
    let dump = sample_dump();
    for threads in [ThreadConfig::Serial, ThreadConfig::Fixed(4)] {
        let sys = tiny(threads);
        let out = sys.archive(&dump);
        let scans = degraded_scans(&sys, &out);

        let (bytes_off, stats_off) = sys.restore_native(&scans).expect("telemetry-off restore");
        assert_eq!(bytes_off, dump);

        let tel = Telemetry::enabled();
        let (bytes_on, stats_on) = sys
            .clone()
            .with_telemetry(tel.clone())
            .restore_native(&scans)
            .expect("telemetry-on restore");

        assert_eq!(
            bytes_on, bytes_off,
            "enabled telemetry changed restored bytes at {threads:?}"
        );
        assert_eq!(stats_on.scans, stats_off.scans);
        assert_eq!(stats_on.rs_corrected, stats_off.rs_corrected);
        assert_eq!(stats_on.corrected_symbols, stats_off.corrected_symbols);
        assert_eq!(stats_on.erasure_frames, stats_off.erasure_frames);
        assert_eq!(stats_on.emblems_recovered, stats_off.emblems_recovered);

        // The recorder saw the same work the stats report.
        assert_eq!(
            tel.counter("decode.corrected_symbols"),
            stats_on.rs_corrected as u64
        );
        assert_eq!(
            tel.counter("decode.erasure_frames"),
            stats_on.erasure_frames as u64
        );
    }
}

#[test]
fn counters_are_identical_serial_and_threaded() {
    // The sharded recorder (one shard per worker, absorbed in input order)
    // must make the *trace* thread-count-invariant too: same counters,
    // same gauges, same span call counts. Wall-clock is the only field
    // allowed to differ.
    let dump = sample_dump();
    let sys_serial = tiny(ThreadConfig::Serial);
    let out = sys_serial.archive(&dump);
    let scans = degraded_scans(&sys_serial, &out);

    let tel_serial = Telemetry::enabled();
    let (bytes_serial, _) = sys_serial
        .with_telemetry(tel_serial.clone())
        .restore_native(&scans)
        .expect("serial restore");

    let tel_par = Telemetry::enabled();
    let (bytes_par, _) = tiny(ThreadConfig::Fixed(4))
        .with_telemetry(tel_par.clone())
        .restore_native(&scans)
        .expect("4-thread restore");

    assert_eq!(bytes_par, bytes_serial);
    let (a, b) = (tel_serial.snapshot(), tel_par.snapshot());
    assert_eq!(a.counters, b.counters, "counters differ serial vs 4-thread");
    assert_eq!(a.gauges, b.gauges, "gauges differ serial vs 4-thread");
    let calls = |t: &ule::obs::Trace| -> Vec<(String, u64)> {
        t.spans.iter().map(|(n, s)| (n.clone(), s.calls)).collect()
    };
    assert_eq!(calls(&a), calls(&b), "span call counts differ");
}

#[test]
fn corrected_frame_counter_matches_injected_fault_count() {
    // Counter accuracy: blotch exactly K frames of an otherwise pristine
    // master set; the decode-health counters must report exactly K
    // corrected frames, with every other frame clean.
    let dump = sample_dump();
    let sys = tiny(ThreadConfig::Serial);
    let out = sys.archive(&dump);
    let mut frames = out.data_frames.clone();
    let total = frames.len();
    let damaged_idx = [1usize, 4, 7];
    assert!(total > 8, "want enough frames to damage 3, got {total}");

    let plan = FaultPlan::single(Blotch);
    for (k, &i) in damaged_idx.iter().enumerate() {
        let hit = plan.apply(&frames[i..i + 1], 0.002, 0xE14 + k as u64);
        frames[i] = hit.into_iter().next().unwrap();
    }

    let tel = Telemetry::enabled();
    let (bytes, stats) = sys
        .with_telemetry(tel.clone())
        .restore_native(&frames)
        .expect("damaged restore");
    assert_eq!(bytes, dump, "blotched frames must still decode bit-exact");

    let k = damaged_idx.len() as u64;
    assert_eq!(tel.counter("decode.frames_total"), total as u64);
    assert_eq!(
        tel.counter("decode.frames_corrected"),
        k,
        "exactly {k} frames were damaged"
    );
    assert_eq!(tel.counter("decode.clean_frames"), total as u64 - k);
    assert_eq!(tel.counter("decode.frames_failed"), 0);
    assert_eq!(
        tel.counter("decode.corrected_symbols"),
        stats.rs_corrected as u64
    );
    assert!(stats.rs_corrected >= damaged_idx.len());
    assert_eq!(stats.corrected_symbols, stats.rs_corrected);
}

#[test]
fn disabled_telemetry_records_nothing_on_a_full_pipeline() {
    // `Telemetry::off()` is the default everywhere; a full
    // archive→scan→restore run through it must leave the trace empty.
    let dump = sample_dump();
    let sys = tiny(ThreadConfig::Serial);
    let tel = sys.telemetry.clone();
    let out = sys.archive(&dump);
    let scans = degraded_scans(&sys, &out);
    let (bytes, _) = sys.restore_native(&scans).expect("restore");
    assert_eq!(bytes, dump);
    let trace = tel.snapshot();
    assert!(trace.spans.is_empty());
    assert!(trace.counters.is_empty());
    assert!(trace.gauges.is_empty());
}

#[test]
fn vault_and_system_share_one_recorder() {
    // A vault's recorder is its system's recorder: the shelf spans and the
    // frame decodes under them land in one trace, which is as
    // thread-count-invariant as the classic pipeline's.
    let dump = ule::tpch::dump_for_scale(0.0001, 77);
    let run = |threads: ThreadConfig| {
        let tel = Telemetry::enabled();
        let v = Vault::sharded(
            tiny(threads).with_telemetry(tel.clone()),
            ShardPlan::single_parity(12, 2),
        );
        let arc = v.archive(&dump);
        let mut scans = v.scan_reels(&arc, 44);
        // Lose the data reel holding lineitem's first frame, so both
        // reads rebuild it from cross-reel parity.
        let entry = arc.index.find("lineitem").unwrap();
        let first = arc.index.chunk_range(entry).next().unwrap();
        let (lost, _) = arc
            .layout
            .reel_of(arc.layout.chunk_position(StreamId::Data, first));
        scans[lost] = None;

        let (table, sel) = v.restore_table(&arc.bootstrap, &scans, "lineitem").unwrap();
        let start = entry.dump_start as usize;
        assert_eq!(table, &dump[start..start + entry.dump_len as usize]);
        let (all, full) = v.restore_all(&arc.bootstrap, &scans).unwrap();
        assert_eq!(all, dump);

        let trace = tel.snapshot();
        for span in ["vault.restore_table", "restore.selective"] {
            assert!(
                trace.spans.contains_key(span),
                "{span} missing at {threads:?}"
            );
        }
        let rebuilt = sel.reels_reconstructed + full.reels_reconstructed;
        assert!(rebuilt > 0, "the lost reel must be rebuilt");
        assert_eq!(tel.counter("vault.reels_reconstructed"), rebuilt as u64);
        trace
    };
    let (a, b) = (run(ThreadConfig::Serial), run(ThreadConfig::Fixed(4)));
    assert_eq!(a.counters, b.counters, "counters differ serial vs 4-thread");
    let calls = |t: &ule::obs::Trace| -> Vec<(String, u64)> {
        t.spans.iter().map(|(n, s)| (n.clone(), s.calls)).collect()
    };
    assert_eq!(calls(&a), calls(&b), "span call counts differ");
}
