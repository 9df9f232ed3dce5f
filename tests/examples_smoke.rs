//! Guard the README's quickstart commands: the six examples must exist
//! under the names the docs use, and `cargo build --examples` must succeed.
//!
//! CI runs `cargo build --examples` directly as well; this test keeps the
//! guarantee for anyone running only `cargo test`.

use std::path::Path;
use std::process::Command;

const DOCUMENTED_EXAMPLES: [&str; 6] = [
    "figure1_emblem",
    "microfilm_restore",
    "nested_emulation",
    "paper_archive",
    "quickstart",
    "selective_restore",
];

#[test]
fn documented_examples_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in DOCUMENTED_EXAMPLES {
        let path = root.join("examples").join(format!("{name}.rs"));
        assert!(
            path.is_file(),
            "README documents `cargo run --example {name}` but {} is missing",
            path.display()
        );
    }
}

#[test]
fn examples_compile() {
    // Invoke the same cargo that is running this test; the build is
    // incremental, so with a warm target dir this is nearly free.
    let status = Command::new(env!("CARGO"))
        .args(["build", "--examples"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("failed to spawn cargo build --examples");
    assert!(status.success(), "cargo build --examples failed: {status}");
}
