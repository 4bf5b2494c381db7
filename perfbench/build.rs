//! Records the compiler version and build profile for the run metadata.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim());
    for var in ["PROFILE", "OPT_LEVEL"] {
        let v = std::env::var(var).unwrap_or_default();
        println!("cargo:rustc-env=PERFBENCH_{var}={v}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
