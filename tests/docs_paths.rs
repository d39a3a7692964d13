//! Repository hygiene: every repository path referenced from the top-level
//! docs must exist (so README/ARCHITECTURE/PAPER cannot rot silently when
//! files move), every workspace member must have a row in the architecture
//! crate map, no stray top-level directories may appear (a
//! `examples_dbg/` once lingered untracked for several releases), and the
//! architecture document stays within its line cap. CI runs this as its
//! hygiene step.

use std::path::Path;

/// The documents whose path references are checked.
const DOCS: &[&str] = &["README.md", "PAPER.md", "docs/ARCHITECTURE.md"];

/// A token is treated as a repository path when it starts with one of these
/// anchors. Prose like `bytes/sec` or `bins/examples/benches` never does.
const ANCHORS: &[&str] = &[
    "crates/",
    "tests/",
    "examples/",
    "benches/",
    "docs/",
    "src/",
    ".github/",
];

/// Extracts the anchored path references from a markdown document: maximal
/// runs of path characters, trimmed of trailing punctuation, globs skipped.
fn extract_paths(text: &str) -> Vec<String> {
    let is_path_char =
        |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '/' | '*');
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(is_path_char) {
        let tail = &rest[start..];
        let end = tail.find(|c| !is_path_char(c)).unwrap_or(tail.len());
        let token = tail[..end].trim_end_matches(['.', '/', '-']);
        if ANCHORS.iter().any(|a| token.starts_with(a)) && !token.contains('*') {
            out.push(token.to_string());
        }
        rest = &tail[end..];
    }
    out
}

#[test]
fn every_documented_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for path in extract_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(
        checked > 40,
        "the path extractor found only {checked} references; it has probably regressed"
    );
    assert!(
        missing.is_empty(),
        "documented paths that do not exist:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn extractor_recognizes_paths_and_ignores_prose() {
    let text = "See `crates/core/src/store.rs` and [CI](.github/workflows/ci.yml); \
                shims live under crates/shims/. Prose like 4 bytes/sec, \
                bins/examples/benches and globs crates/**/src stay out.";
    let paths = extract_paths(text);
    assert_eq!(
        paths,
        vec![
            "crates/core/src/store.rs",
            ".github/workflows/ci.yml",
            "crates/shims",
        ]
    );
}

/// Every top-level directory must be one the repository knows about. A new
/// directory is a deliberate act: add it here (and to the docs) or delete
/// it, but don't let scratch dirs like the late `examples_dbg/` accumulate.
#[test]
fn no_stray_toplevel_directories() {
    /// Tracked directories plus the build artifact. Hidden directories
    /// (`.git`, local tool state) are exempt — they never ship.
    const ALLOWED: &[&str] = &["crates", "docs", "examples", "src", "tests", "target"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut strays: Vec<String> = std::fs::read_dir(root)
        .expect("repository root is readable")
        .flatten()
        .filter(|e| e.file_type().map(|t| t.is_dir()).unwrap_or(false))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| !name.starts_with('.') && !ALLOWED.contains(&name.as_str()))
        .collect();
    strays.sort();
    assert!(
        strays.is_empty(),
        "unexpected top-level directories (delete them or add them to the \
         allowlist in tests/docs_paths.rs): {strays:?}"
    );
}

/// Every workspace member has a row in the crate map of
/// `docs/ARCHITECTURE.md` (its `Directory` column), so a crate cannot be
/// added or retired without the map following. One `crates/shims` row covers
/// every shim.
#[test]
fn crate_map_lists_every_workspace_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let members: Vec<&str> = manifest
        .lines()
        .skip_while(|line| line.trim() != "members = [")
        .skip(1)
        .take_while(|line| line.trim() != "]")
        .map(|line| line.trim().trim_end_matches(',').trim_matches('"'))
        .collect();
    assert!(
        members.len() > 10,
        "parsed only {members:?} from the root Cargo.toml `members`"
    );

    let architecture = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let map = architecture
        .split("## Crate map")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("docs/ARCHITECTURE.md has a crate map section");
    let directories: Vec<&str> = map
        .lines()
        .filter_map(|row| row.split('|').nth(2))
        .map(|cell| cell.trim().trim_matches('`'))
        .collect();

    let unmapped: Vec<&str> = members
        .iter()
        .copied()
        .filter(|member| {
            let row = if member.starts_with("crates/shims/") {
                "crates/shims"
            } else {
                member
            };
            !directories.contains(&row)
        })
        .collect();
    assert!(
        unmapped.is_empty(),
        "workspace members with no crate-map row in docs/ARCHITECTURE.md: {unmapped:?}"
    );
}

#[test]
fn architecture_doc_is_linked_from_readme() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("docs/ARCHITECTURE.md"),
        "README must link the architecture document"
    );
}

/// `docs/ARCHITECTURE.md` stays within its line cap, so the document
/// shrinks with the code: a change that adds a paragraph replaces one.
#[test]
fn architecture_doc_stays_within_its_line_cap() {
    const MAX_LINES: usize = 650;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let architecture = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let lines = architecture.lines().count();
    assert!(
        lines <= MAX_LINES,
        "docs/ARCHITECTURE.md has {lines} lines; the cap is {MAX_LINES}"
    );
}
