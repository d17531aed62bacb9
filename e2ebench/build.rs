//! Bakes the compiler version and, when built from a git checkout, the
//! commit into the benchmark's provenance record.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=CFED_BENCH_RUSTC={version}");

    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = read_commit(&git).unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=CFED_BENCH_COMMIT={commit}");
    // Only watch files that exist: a missing path would rerun this script
    // (and rebuild the benchmark) on every build.
    println!("cargo:rerun-if-changed=build.rs");
    let head = git.join("HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(reference) = head_ref(&git) {
            let path = git.join(&reference);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}

/// The ref `HEAD` points at, if it is symbolic.
fn head_ref(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    head.trim().strip_prefix("ref: ").map(str::to_string)
}

/// The commit `HEAD` resolves to, read from the repository's files.
fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
