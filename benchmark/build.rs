//! Records the compiler the benchmark was built with, for the
//! provenance line of every run.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=STACKBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
