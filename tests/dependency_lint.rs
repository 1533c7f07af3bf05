//! A manifest-level dependency lint.
//!
//! A dependency that no code names still gets resolved, built, and
//! locked, and it tells a reader of the manifest that the package needs
//! it. This test reads the root `Cargo.toml` and every `crates/*/Cargo.toml`
//! and requires each declared dependency to be named in the package's
//! sources:
//!
//! - a `[dependencies]` entry must appear in `src/`;
//! - a `[dev-dependencies]` entry must appear in `src/`, `tests/`,
//!   `benches/` or `examples/`.
//!
//! "Appear" means `name::` or `use name`, with `-` in the package name
//! mapped to `_`, outside a plain `//` comment. In doc comments, only an
//! intra-doc link (`[name::...]`) counts for `[dependencies]`, because
//! rustdoc resolves it against them; a doctest builds with the
//! dev-dependencies too, so a use there counts for `[dev-dependencies]`.
//!
//! The same holds one level up: every root `[workspace.dependencies]`
//! entry must be declared by some member manifest, and every vendored
//! crate under `third_party/` must be such an entry or a dependency of a
//! vendored crate that is kept. So a vendored stub goes with its last user.

use std::path::{Path, PathBuf};

const LIB_DIRS: &[&str] = &["src"];
const DEV_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// The `(section, name)` pairs of a manifest's `[dependencies]`,
/// `[dev-dependencies]` and `[workspace.dependencies]` tables, in file
/// order.
fn declared(manifest: &str) -> Vec<(&'static str, String)> {
    let mut section = None;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = match line {
                "[dependencies]" => Some("dependencies"),
                "[dev-dependencies]" => Some("dev-dependencies"),
                "[workspace.dependencies]" => Some("workspace.dependencies"),
                _ => None,
            };
        } else if let Some(section) = section {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name = line.split(['=', '.']).next().unwrap().trim();
            out.push((section, name.to_string()));
        }
    }
    out
}

/// Whether `ident` is used on `line`: as a path root (`ident::`) or an
/// import (`use ident`), starting at an identifier boundary. On a doc
/// comment line, only an intra-doc link counts unless `doctests` is set.
fn names(line: &str, ident: &str, doctests: bool) -> bool {
    let code = line.trim_start();
    let doc = code.starts_with("///") || code.starts_with("//!");
    if code.starts_with("//") && !doc {
        return false;
    }
    code.match_indices(ident).any(|(at, _)| {
        let before = code[..at].chars().next_back();
        let after = &code[at + ident.len()..];
        let bounded = !before.is_some_and(|c| c.is_alphanumeric() || c == '_');
        let link = code[..at].ends_with('[') || code[..at].ends_with("[`");
        bounded
            && (!doc || doctests || link)
            && (after.starts_with("::")
                || (code[..at].ends_with("use ")
                    && !after.starts_with(|c: char| c.is_alphanumeric() || c == '_')))
    })
}

fn used_in(dir: &Path, ident: &str, doctests: bool) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.map(|e| e.unwrap().path()).any(|path| {
        if path.is_dir() {
            used_in(&path, ident, doctests)
        } else {
            path.extension().is_some_and(|e| e == "rs")
                && std::fs::read_to_string(&path)
                    .unwrap()
                    .lines()
                    .any(|line| names(line, ident, doctests))
        }
    })
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn manifest(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("Cargo.toml")).unwrap()
}

/// The directories under `parent` that hold a `Cargo.toml`, sorted.
fn packages_in(parent: &Path) -> Vec<PathBuf> {
    let mut packages: Vec<PathBuf> = std::fs::read_dir(parent)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    packages.sort();
    packages
}

/// The root package and every `crates/*` member.
fn members() -> Vec<PathBuf> {
    let mut packages = vec![root().to_path_buf()];
    packages.extend(packages_in(&root().join("crates")));
    packages
}

/// The names in the root manifest's `[workspace.dependencies]`.
fn workspace_dependencies() -> Vec<String> {
    declared(&manifest(root()))
        .into_iter()
        .filter(|(section, _)| *section == "workspace.dependencies")
        .map(|(_, name)| name)
        .collect()
}

#[test]
fn every_declared_dependency_is_named_in_its_package() {
    let packages = members();
    let mut unused = Vec::new();
    for package in &packages {
        for (section, name) in declared(&manifest(package)) {
            if section == "workspace.dependencies" {
                continue;
            }
            let ident = name.replace('-', "_");
            let dev = section == "dev-dependencies";
            let dirs = if dev { DEV_DIRS } else { LIB_DIRS };
            if !dirs.iter().any(|d| used_in(&package.join(d), &ident, dev)) {
                unused.push(format!(
                    "{}: [{section}] {name} is not named in {}",
                    package.join("Cargo.toml").display(),
                    dirs.join("/, ") + "/"
                ));
            }
        }
    }
    assert!(packages.len() > 1, "no crates found under crates/");
    assert!(
        unused.is_empty(),
        "dependencies that no code uses (delete them from the manifest):\n{}",
        unused.join("\n")
    );
}

#[test]
fn every_workspace_dependency_is_declared_by_a_member() {
    let used: Vec<String> = members()
        .iter()
        .flat_map(|package| declared(&manifest(package)))
        .filter(|(section, _)| *section != "workspace.dependencies")
        .map(|(_, name)| name)
        .collect();
    let entries = workspace_dependencies();
    assert!(entries.iter().any(|name| name == "rand"), "{entries:?}");
    let orphans: Vec<&String> = entries.iter().filter(|name| !used.contains(name)).collect();
    assert!(
        orphans.is_empty(),
        "[workspace.dependencies] entries no member declares (delete them): {orphans:?}"
    );
}

#[test]
fn every_vendored_crate_has_a_user() {
    // Kept: the workspace's entries, then whatever a kept vendored crate
    // depends on (serde_json → serde → serde_derive).
    let third_party = root().join("third_party");
    let mut kept = workspace_dependencies();
    let mut next = 0;
    while next < kept.len() {
        let dir = third_party.join(&kept[next]);
        if dir.join("Cargo.toml").is_file() {
            for (section, name) in declared(&manifest(&dir)) {
                if section == "dependencies" && !kept.contains(&name) {
                    kept.push(name);
                }
            }
        }
        next += 1;
    }
    let vendored = packages_in(&third_party);
    assert!(!vendored.is_empty(), "no crates found under third_party/");
    let unused: Vec<String> = vendored
        .iter()
        .map(|dir| dir.file_name().unwrap().to_string_lossy().into_owned())
        .filter(|name| !kept.contains(name))
        .collect();
    assert!(
        unused.is_empty(),
        "vendored crates nothing depends on (delete them from third_party/): {unused:?}"
    );
}

#[test]
fn the_lint_recognizes_paths_and_imports_only() {
    // Made-up crate names, so this file never counts as a use of a real one.
    for doctests in [false, true] {
        assert!(names("use alpha::{Beta, Gamma};", "alpha", doctests));
        assert!(names(
            "    let v = alpha_beta::to_string(&x);",
            "alpha_beta",
            doctests
        ));
        assert!(names("pub use alpha_beta as ab;", "alpha_beta", doctests));
        assert!(names("/// See [`alpha::Rng`].", "alpha", doctests));
        assert!(!names("use alpha_beta::Value;", "alpha", doctests));
        assert!(!names("let r = xalpha::f();", "alpha", doctests));
        assert!(!names(
            "// alpha::Rng is not needed here",
            "alpha",
            doctests
        ));
        assert!(!names("use alpha_beta;", "alpha", doctests));
    }
    // A doctest's use counts only for the dev-dependencies it builds with.
    assert!(names(
        "//! let mut rng = alpha::Rng::new(7);",
        "alpha",
        true
    ));
    assert!(!names(
        "//! let mut rng = alpha::Rng::new(7);",
        "alpha",
        false
    ));
    assert!(!names("/// use alpha::Rng;", "alpha", false));
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nalpha-beta.workspace = true\n\
                    alpha = { path = \"a\" }\n\n[dev-dependencies]\ngamma.workspace = true\n\
                    \n[[bench]]\nname = \"b\"\n\n[workspace.dependencies]\n\
                    # A comment.\ndelta = { path = \"third_party/delta\" }\n";
    assert_eq!(
        declared(manifest),
        vec![
            ("dependencies", "alpha-beta".to_string()),
            ("dependencies", "alpha".to_string()),
            ("dev-dependencies", "gamma".to_string()),
            ("workspace.dependencies", "delta".to_string()),
        ]
    );
}
