//! Decode front-end identity: the decoder locates the emblem border in
//! place on the gray scan, classifying pixels `< t` as black. On every
//! medium and damage model, and at any threshold, it must find the same
//! box and edge map as the bitonal locate on `scan.threshold(t)`.

use ule::emblem::geometry::EDGE_CELLS;
use ule::emblem::{encode_emblem, encode_stream, locate, EmblemGeometry, EmblemHeader, EmblemKind};
use ule::media::Medium;
use ule::par::ThreadConfig;
use ule::raster::rng::SplitMix64;
use ule::raster::{DegradeParams, GrayImage, Scanner};

/// Compare the gray and bitonal locates at the scan's Otsu threshold and
/// at fixed thresholds across the range. Returns whether the Otsu-threshold
/// locate found a border.
fn assert_locate_identity(what: &str, geom: &EmblemGeometry, scan: &GrayImage) -> bool {
    let otsu = scan.otsu_threshold();
    for t in [otsu, 1, 64, 128, 200] {
        let bit = scan.threshold(t);
        let bbox = locate::find_border_box_below(scan, t);
        assert_eq!(bbox, locate::find_border_box(&bit), "{what}: box at t={t}");
        if let Some(b) = bbox {
            let border_px = 3.0 * b.width() as f64 / (geom.cols + 2 * EDGE_CELLS) as f64;
            assert_eq!(
                locate::edge_map_below(scan, t, b, border_px),
                locate::edge_map(&bit, b, border_px),
                "{what}: edge map at t={t}"
            );
        }
    }
    locate::find_border_box_below(scan, otsu).is_some()
}

/// `scan` after every per-frame model of the medium's canonical fault plan
/// at `severity` (frame-set models, which drop or reorder whole frames, are
/// left out so the damaged frame is always there to locate).
fn damaged(medium: &Medium, scan: &GrayImage, severity: f64, seed: u64) -> GrayImage {
    let mut rng = SplitMix64::new(seed);
    let mut out = scan.clone();
    for model in medium.canonical_fault_plan().steps() {
        model.apply_frame(&mut out, severity, &mut rng);
    }
    out
}

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
        .collect()
}

#[test]
fn production_media_scans_locate_identically() {
    let threads = ThreadConfig::Fixed(2);
    for medium in [
        Medium::paper_a4_600dpi(),
        Medium::microfilm_16mm(),
        Medium::cinema_35mm(),
    ] {
        let geom = medium.geometry;
        let emblems = encode_stream(
            &geom,
            EmblemKind::Data,
            &payload(geom.payload_capacity()),
            false,
        );
        let frames = medium.print_all_with(&emblems, threads);
        let scans = medium.scan_all_with(&frames, 11, threads);
        for (i, scan) in scans.iter().enumerate() {
            let what = format!("{} scan {i}", medium.name);
            assert!(
                assert_locate_identity(&what, &geom, scan),
                "{what}: no border"
            );
        }
        for (i, scan) in scans.iter().enumerate() {
            let what = format!("{} faulted {i}", medium.name);
            assert_locate_identity(&what, &geom, &damaged(&medium, scan, 0.5, 7));
        }
    }
}

#[test]
fn degraded_small_scans_locate_identically() {
    let geom = EmblemGeometry::test_small();
    let data = payload(geom.payload_capacity());
    let header = EmblemHeader::new(EmblemKind::Data, 0, 1, data.len() as u32, data.len() as u32);
    let master = encode_emblem(&geom, &header, &data);
    let cases = [
        ("clean", DegradeParams::pristine()),
        (
            "noisy",
            DegradeParams {
                noise_sigma: 30.0,
                row_jitter: 0.6,
                fade_amplitude: 15.0,
                ..Default::default()
            },
        ),
        (
            "dusty",
            DegradeParams {
                dust_per_mpx: 40.0,
                dust_max_radius: 2.0,
                noise_sigma: 10.0,
                ..Default::default()
            },
        ),
        (
            "rescaled",
            DegradeParams {
                scan_scale: 1.5,
                noise_sigma: 10.0,
                ..Default::default()
            },
        ),
    ];
    for (name, params) in cases {
        for seed in 0..4 {
            let scan = Scanner::new(params.clone(), seed).scan(&master);
            let what = format!("test_small {name} seed {seed}");
            assert!(
                assert_locate_identity(&what, &geom, &scan),
                "{what}: no border"
            );
        }
    }
    // Fault-model damage on the small geometry's own test medium.
    let medium = Medium::test_tiny();
    let scan = medium.scan(&medium.print(&master), 5);
    for (severity, seed) in [(0.3, 1), (0.6, 2), (1.0, 3)] {
        let what = format!("test_tiny faulted x{severity}");
        assert_locate_identity(&what, &geom, &damaged(&medium, &scan, severity, seed));
    }
}
