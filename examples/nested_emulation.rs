//! The ULE centerpiece: restore an archive with **no native decoders** —
//! only a four-instruction VeRisc interpreter, exactly what a user fifty
//! years from now would write from the Bootstrap document (Figure 2b).
//!
//! ```sh
//! cargo run --release --example nested_emulation
//! ```

use std::time::Instant;
use ule::media::Medium;
use ule::olonys::{EmulationTier, MicrOlonys};
use ule::verisc::vm::EngineKind;

fn main() {
    let system = MicrOlonys {
        medium: Medium::test_micro(),
        scheme: ule::compress::Scheme::Lzss,
        with_parity: false,
        threads: ule::par::ThreadConfig::Serial,
        telemetry: ule::obs::Telemetry::off(),
    };
    let dump = b"CREATE TABLE r (k integer, v text);\n\
COPY r (k, v) FROM stdin;\n\
1\talpha\n2\tbeta\n3\tgamma\n\\.\n"
        .to_vec();

    println!("archiving {} bytes...", dump.len());
    let out = system.archive(&dump);
    let bootstrap_text = out.bootstrap.to_text();
    let (prose_pages, letter_pages) = out.bootstrap.page_count();
    println!(
        "bootstrap document: {} pages of prose, {} pages of letters (paper: 4 + 3)",
        prose_pages, letter_pages
    );
    println!(
        "archived decoders: MODecode+emulator = {} VeRisc words as letters; DBDecode = {} system frame(s)",
        out.bootstrap.image_prefix.len(),
        out.system_frames.len()
    );

    // Gather everything a future restorer would have: text + scans.
    let mut scans = out.system_frames.clone();
    scans.extend(out.data_frames.iter().cloned());

    // Restore three times — once per independent VeRisc implementation
    // (the paper had students implement it in JS/Python/C++/C#; agreement
    // across independent implementations is the portability claim).
    for engine in EngineKind::ALL {
        let t = Instant::now();
        let (restored, stats) = MicrOlonys::restore_emulated(
            &bootstrap_text,
            &scans,
            EmulationTier::Nested(engine),
            ule::par::ThreadConfig::Serial,
        )
        .expect("restore");
        assert_eq!(restored, dump);
        println!(
            "{:<12} engine: bit-exact restore, {:>12} VeRisc instructions, {:.2?}",
            engine.name(),
            stats.verisc_steps,
            t.elapsed()
        );
    }
    println!("all three independent interpreters agree — ULE works.");
}
