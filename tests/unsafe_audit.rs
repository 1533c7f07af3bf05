//! A source-level `unsafe` audit.
//!
//! No crate in the workspace contains `unsafe` code, and every crate root
//! says so with `#![forbid(unsafe_code)]`, which no inner `allow` can
//! lift. The audit holds both halves from cargo:
//!
//! 1. no swept source file contains an `unsafe` item or block outside the
//!    audited islands — and there are none;
//! 2. every `crates/*/src/lib.rs` carries `#![forbid(unsafe_code)]`.
//!
//! CI runs a grep equivalent of both rules so the boundary holds even when
//! the test suite is skipped.

use std::path::{Path, PathBuf};

/// The only files in the workspace allowed to contain `unsafe` code. A
/// future island must be listed here, and its crate root can then no
/// longer forbid `unsafe` — both are meant to show up in review.
const UNSAFE_ISLANDS: &[&str] = &[];

/// Crate source roots swept by the audit (every crate in the workspace).
const SWEPT: &[&str] = &[
    "crates/bench/src",
    "crates/core/src",
    "crates/estimators/src",
    "crates/log/src",
    "crates/obs/src",
    "crates/serve/src",
    "crates/sim-cache/src",
    "crates/sim-loadbalance/src",
    "crates/sim-machine-health/src",
    "crates/sim-net/src",
    "crates/wire/src",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does this line start an `unsafe` item or block (as opposed to merely
/// mentioning the word in a comment or string)?
fn is_unsafe_code(line: &str) -> bool {
    let t = line.trim_start();
    if t.starts_with("//") || t.starts_with("#!") {
        return false;
    }
    t.starts_with("unsafe ")
        || t.contains("unsafe {")
        || t.contains("unsafe impl")
        || t.contains("= unsafe")
        || t.contains("{ unsafe")
}

#[test]
fn unsafe_code_is_confined_to_the_audited_islands() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let islands: Vec<PathBuf> = UNSAFE_ISLANDS.iter().map(|p| root.join(p)).collect();
    let mut leaks = Vec::new();
    for dir in SWEPT {
        let dir = root.join(dir);
        assert!(dir.is_dir(), "swept directory {} missing", dir.display());
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        for file in files {
            if islands.contains(&file) {
                continue;
            }
            let source = std::fs::read_to_string(&file).unwrap();
            for (lineno, line) in source.lines().enumerate() {
                if is_unsafe_code(line) {
                    leaks.push(format!(
                        "{}:{}: {}",
                        file.display(),
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        leaks.is_empty(),
        "`unsafe` code in a swept crate (find a safe formulation):\n{}",
        leaks.join("\n")
    );
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path().join("src/lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    crates.sort();
    assert_eq!(
        crates.len(),
        SWEPT.len(),
        "every crate root is swept: {crates:?}"
    );
    let lax: Vec<String> = crates
        .iter()
        .filter(|lib| {
            !std::fs::read_to_string(lib)
                .unwrap()
                .lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]")
        })
        .map(|lib| lib.display().to_string())
        .collect();
    assert!(
        lax.is_empty(),
        "crate roots without `#![forbid(unsafe_code)]`:\n{}",
        lax.join("\n")
    );
}
