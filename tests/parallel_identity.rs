//! Differential determinism: the parallel archive/restore engine must be a
//! pure wall-clock optimisation. The archival format is frozen (the
//! paper's thesis), so the frames written to the medium — and the bytes
//! restored from it — may never depend on how many worker threads ran.
//!
//! `tests/golden_format.rs` pins the absolute bytes; this suite pins the
//! serial/parallel and native/emulated equivalences.

use ule::compress::Scheme;
use ule::media::Medium;
use ule::olonys::{EmulationTier, MicrOlonys};
use ule::par::ThreadConfig;
use ule::raster::{DegradeParams, GrayImage, Scanner};
use ule::verisc::vm::EngineKind;

/// Thread counts the ISSUE's conformance sweep demands.
const SWEEP: [usize; 3] = [2, 4, 8];

fn tiny(threads: ThreadConfig) -> MicrOlonys {
    MicrOlonys::test_tiny().with_threads(threads)
}

fn sample_dump() -> Vec<u8> {
    // Several emblems worth of mixed text so both full and tail groups,
    // data and parity emblems, all get exercised.
    ule::tpch::dump_for_scale(0.0001, 2026)
}

#[test]
fn archive_frames_are_byte_identical_at_any_thread_count() {
    let dump = sample_dump();
    let serial = tiny(ThreadConfig::Serial).archive(&dump);
    assert!(
        serial.data_frames.len() >= 5,
        "want several frames, got {}",
        serial.data_frames.len()
    );
    for threads in SWEEP {
        let par = tiny(ThreadConfig::Fixed(threads)).archive(&dump);
        assert_eq!(
            par.data_frames, serial.data_frames,
            "data frames differ at {threads} threads"
        );
        assert_eq!(
            par.system_frames, serial.system_frames,
            "system frames differ at {threads} threads"
        );
        assert_eq!(par.stats, serial.stats, "stats differ at {threads} threads");
        assert_eq!(
            par.bootstrap, serial.bootstrap,
            "bootstrap differs at {threads} threads"
        );
    }
}

#[test]
fn restored_dump_is_byte_identical_at_any_thread_count() {
    let dump = sample_dump();
    let sys_serial = tiny(ThreadConfig::Serial);
    let out = sys_serial.archive(&dump);
    // Degraded scans (not pristine masters): the parallel decode path must
    // agree with serial even when inner RS corrections and failed scans are
    // in play. Drop one frame so outer-code erasure recovery runs too.
    let scans: Vec<_> = out
        .data_frames
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 2)
        .map(|(i, f)| sys_serial.medium.scan(f, 90 + i as u64))
        .collect();
    let (serial_dump, serial_stats) = sys_serial.restore_native(&scans).expect("serial restore");
    assert_eq!(serial_dump, dump);
    for threads in SWEEP {
        let sys_par = tiny(ThreadConfig::Fixed(threads));
        let (par_dump, par_stats) = sys_par.restore_native(&scans).expect("parallel restore");
        assert_eq!(
            par_dump, serial_dump,
            "restore differs at {threads} threads"
        );
        assert_eq!(par_stats.scans, serial_stats.scans);
        assert_eq!(par_stats.emblems_recovered, serial_stats.emblems_recovered);
        assert_eq!(par_stats.rs_corrected, serial_stats.rs_corrected);
    }
}

#[test]
fn auto_and_env_configs_are_also_identical() {
    let dump = sample_dump();
    let serial = tiny(ThreadConfig::Serial).archive(&dump);
    let auto = tiny(ThreadConfig::Auto).archive(&dump);
    assert_eq!(auto.data_frames, serial.data_frames);
    let env = tiny(ThreadConfig::from_env_or(ThreadConfig::Fixed(3))).archive(&dump);
    assert_eq!(env.data_frames, serial.data_frames);
}

#[test]
fn emulated_restore_matches_native_restore() {
    // The ULE proof meets the parallel engine: the fully emulated path
    // (here on the nested-VeRisc portability tier) and the threaded
    // native path must restore the same bytes from the same frames.
    // (Micro medium: nested decode costs ~10^4 VeRisc instructions per
    // cell.)
    let sys = MicrOlonys {
        medium: Medium::test_micro(),
        scheme: Scheme::Lzss,
        with_parity: false,
        threads: ThreadConfig::Fixed(4),
        telemetry: ule::obs::Telemetry::off(),
    };
    let dump = b"COPY t (k, v) FROM stdin;\n1\tserial\n2\tparallel\n\\.\n".to_vec();
    let out = sys.archive(&dump);

    // Native path at 4 threads, from pristine masters.
    let (native, _) = sys.restore_native(&out.data_frames).expect("native");
    assert_eq!(native, dump);

    // Emulated path from the Bootstrap text plus all frames.
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());
    let (emulated, stats) = MicrOlonys::restore_emulated(
        &text,
        &scans,
        EmulationTier::Nested(EngineKind::MatchBased),
        ThreadConfig::Serial,
    )
    .expect("emulated");
    assert_eq!(
        emulated, native,
        "emulated and native restores must agree bit for bit"
    );
    assert!(stats.verisc_steps > 0);
}

#[test]
fn emulated_restore_is_byte_identical_at_any_thread_count() {
    // The emulated-restore matrix (DESIGN.md §9): per-frame MODecode VM
    // instances fan out over the pool, so the same serial ≡ N-thread
    // identity that protects the native path must hold here — restored
    // bytes, per-frame CRC, and even the guest instruction count.
    let sys = MicrOlonys {
        medium: Medium::test_tiny(),
        scheme: Scheme::Lzss,
        with_parity: false,
        threads: ThreadConfig::Serial,
        telemetry: ule::obs::Telemetry::off(),
    };
    let dump = sample_dump();
    let out = sys.archive(&dump);
    assert!(
        out.data_frames.len() >= 3,
        "want several frames for a meaningful fan-out, got {}",
        out.data_frames.len()
    );
    let text = out.bootstrap.to_text();
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    let (serial_dump, serial_stats) =
        MicrOlonys::restore_emulated(&text, &scans, EmulationTier::Threaded, ThreadConfig::Serial)
            .expect("serial emulated restore");
    assert_eq!(serial_dump, dump);

    for threads in SWEEP {
        let (par_dump, par_stats) = MicrOlonys::restore_emulated(
            &text,
            &scans,
            EmulationTier::Threaded,
            ThreadConfig::Fixed(threads),
        )
        .expect("parallel emulated restore");
        assert_eq!(
            par_dump, serial_dump,
            "emulated restore differs at {threads} threads"
        );
        assert_eq!(
            par_stats.frame_crc32, serial_stats.frame_crc32,
            "frame CRC differs at {threads} threads"
        );
        assert_eq!(
            par_stats.guest_steps, serial_stats.guest_steps,
            "guest step count differs at {threads} threads"
        );
    }

    // Parallel-emulated ≡ native on the same frames closes the loop.
    let (native, _) = sys
        .with_threads(ThreadConfig::Fixed(4))
        .restore_native(&out.data_frames)
        .expect("native restore");
    assert_eq!(native, serial_dump, "parallel emulated vs native");
}

#[test]
fn banded_scan_all_matches_per_frame_scanner_at_any_thread_count() {
    // `Medium::scan_all_with` renders frames × 64-row bands in parallel,
    // each band jumping the noise stream ahead to its first row. Every
    // degradation term is on, and the output heights cover a frame
    // shorter than one band, exactly one band, and a height that is not
    // a multiple of the band, at each resampling scale.
    let cases: [(f64, [usize; 3], [usize; 3]); 3] = [
        (1.0, [23, 64, 165], [23, 64, 165]),
        (1.28, [23, 50, 129], [29, 64, 165]),
        (2.0, [23, 32, 83], [46, 64, 166]),
    ];
    for (scale, heights, out_heights) in cases {
        let medium = Medium {
            degrade: DegradeParams {
                noise_sigma: 9.0,
                dust_per_mpx: 2000.0,
                dust_max_radius: 2.0,
                scratches: 2,
                scratch_width: 1.5,
                fade_amplitude: 12.0,
                hotspots: 2,
                hotspot_amplitude: 30.0,
                row_jitter: 0.8,
                lens_k: 0.01,
                scan_scale: scale,
            },
            ..Medium::test_tiny()
        };
        let frames: Vec<GrayImage> = heights
            .iter()
            .map(|&h| {
                let mut f = GrayImage::new(57, h, 255);
                for y in 0..h {
                    for x in (y % 7..57).step_by(5) {
                        f.set(x, y, 0);
                    }
                }
                f
            })
            .collect();
        let seed = 0x5CA7;
        let expected: Vec<GrayImage> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| Scanner::new(medium.degrade.clone(), seed ^ (i as u64 + 1)).scan(f))
            .collect();
        let got: Vec<usize> = expected.iter().map(GrayImage::height).collect();
        assert_eq!(got, out_heights, "scale {scale}");
        for threads in [
            ThreadConfig::Serial,
            ThreadConfig::Fixed(2),
            ThreadConfig::Fixed(3),
            ThreadConfig::Fixed(4),
        ] {
            assert_eq!(
                medium.scan_all_with(&frames, seed, threads),
                expected,
                "scale {scale}, {threads}"
            );
        }
    }
}
