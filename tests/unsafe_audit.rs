//! A source-level `unsafe` audit.
//!
//! The serve crate holds `#![deny(unsafe_code)]` rather than `#![forbid]`
//! for one module: the per-shard SPSC log rings need interior mutability
//! that safe Rust cannot express without a mutex — the very thing they
//! exist to remove. The bargain is audited, not waived:
//!
//! 1. `unsafe` may appear **only** in the island module (`ring.rs`);
//!    everywhere else in the workspace it is still forbidden or denied
//!    with no allow in sight.
//! 2. Every `unsafe` block, impl, or trait-impl in the island must be
//!    immediately preceded by a `// SAFETY:` comment explaining the
//!    invariant that makes it sound.
//!
//! CI runs a grep equivalent of rule 1 so the boundary holds even when the
//! test suite is skipped.

use std::path::{Path, PathBuf};

/// The only files in the workspace allowed to contain `unsafe` code.
const UNSAFE_ISLANDS: &[&str] = &["crates/serve/src/ring.rs"];

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
    for island in &islands {
        assert!(island.is_file(), "island {} missing", island.display());
    }
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
        "`unsafe` outside the audited islands (move it into ring \
         or find a safe formulation):\n{}",
        leaks.join("\n")
    );
}

#[test]
fn every_unsafe_in_the_islands_carries_a_safety_comment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unjustified = Vec::new();
    let mut audited = 0usize;
    for island in UNSAFE_ISLANDS {
        let path = root.join(island);
        let source = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = source.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !is_unsafe_code(line) {
                continue;
            }
            audited += 1;
            // Walk upward through the contiguous comment block (if any)
            // directly above and require a `SAFETY:` marker in it.
            let mut justified = false;
            let mut j = i;
            while j > 0 {
                j -= 1;
                let above = lines[j].trim_start();
                if above.starts_with("//") {
                    if above.contains("SAFETY:") {
                        justified = true;
                        break;
                    }
                } else {
                    break;
                }
            }
            if !justified {
                unjustified.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        audited > 0,
        "audit found no unsafe code in the islands — update UNSAFE_ISLANDS \
         if the lock-free ring moved"
    );
    assert!(
        unjustified.is_empty(),
        "`unsafe` without a `// SAFETY:` comment directly above:\n{}",
        unjustified.join("\n")
    );
}
