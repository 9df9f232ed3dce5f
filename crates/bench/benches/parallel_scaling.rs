//! E8 — parallel archive/restore scaling: throughput of the Figure 2a/2b
//! hot paths at 1/2/4/8 worker threads. The absolute E1-workload numbers
//! (and the byte-identity guarantee the speedup rides on) are reported by
//! `cargo run -p ule_bench --bin report` and recorded in `EXPERIMENTS.md`;
//! `tests/parallel_identity.rs` holds the conformance proof.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use ule_emblem::{decode_stream_with, encode_stream_with, EmblemGeometry, EmblemKind};
use ule_media::Medium;
use ule_par::ThreadConfig;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn cfg(threads: usize) -> ThreadConfig {
    if threads <= 1 {
        ThreadConfig::Serial
    } else {
        ThreadConfig::Fixed(threads)
    }
}

fn parallel_scaling(c: &mut Criterion) {
    // A multi-emblem stream on the fast test geometry: enough independent
    // work items (24 data + 6 parity emblems) for the pool to matter,
    // small enough for the one-shot `cargo test` smoke run.
    let geom = EmblemGeometry::test_small();
    let payload = ule_bench::random_payload(geom.payload_capacity() * 24, 88);

    let mut g = c.benchmark_group("e8_encode_stream");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(payload.len() as u64));
    for threads in THREAD_SWEEP {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(encode_stream_with(
                        &geom,
                        EmblemKind::Data,
                        black_box(&payload),
                        true,
                        cfg(threads),
                    ))
                })
            },
        );
    }
    g.finish();

    let images = encode_stream_with(&geom, EmblemKind::Data, &payload, true, ThreadConfig::Auto);
    let mut g = c.benchmark_group("e8_decode_stream");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(payload.len() as u64));
    for threads in THREAD_SWEEP {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(decode_stream_with(&geom, black_box(&images), cfg(threads)).unwrap())
                })
            },
        );
    }
    g.finish();

    // End-to-end archive (compress → RS → emblems → frames) through the
    // public MicrOlonys API, serial vs 4 threads.
    let dump = ule_tpch::dump_for_scale(0.0001, 42);
    let mut g = c.benchmark_group("e8_archive_end_to_end");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(dump.len() as u64));
    for threads in [1usize, 4] {
        let sys = micr_olonys::MicrOlonys {
            medium: Medium::test_tiny(),
            scheme: ule_compress::Scheme::Lzss,
            with_parity: true,
            threads: cfg(threads),
            telemetry: ule_obs::Telemetry::off(),
        };
        g.bench_with_input(BenchmarkId::from_parameter(threads), &sys, |b, sys| {
            b.iter(|| black_box(sys.archive(black_box(&dump))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = parallel_scaling
}
criterion_main!(benches);
