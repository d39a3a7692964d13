//! Lock-discipline static analysis for the workspace.
//!
//! `cargo run -p xtask -- lint` walks every `.rs` file in the tree and
//! enforces the concurrency conventions that `ecpipe-sync` exists to
//! provide (and that the compiler cannot check on its own):
//!
//! * **raw-sync** — no raw `std::sync::{Mutex, RwLock, Condvar}` or
//!   `parking_lot` primitives outside `crates/sync`, the dependency shims
//!   and this crate. Runtime code must go through `ecpipe-sync`, where every
//!   lock carries a [`lock class`](../ecpipe_sync/struct.LockClass.html)
//!   and checked builds enforce the acquisition order.
//! * **lock-unwrap** — no `.unwrap()` / `.expect(...)` on lock or channel
//!   operations in non-test library code. `ecpipe-sync` locks are
//!   infallible, so an unwrap on a lock result means a raw primitive
//!   sneaked back in; channel-op unwraps turn a disconnected peer into a
//!   panic instead of an error the caller can act on.
//! * **rank-collisions** — `lock_class!` declarations must not reuse a rank
//!   or a label anywhere in the tree: ranks form one global total order and
//!   a collision silently weakens the checked-build ordering guarantee.
//! * **lock-field-docs** — every struct field holding a `Mutex`/`RwLock`
//!   must carry a `/// Lock class:` doc line naming its class, so the
//!   hierarchy in `docs/ARCHITECTURE.md` stays discoverable from the code.
//! * **unsafe-code** — no `unsafe` outside the designated gf256 SIMD
//!   kernel modules (`crates/gf256/src/simd`) and the raw socket syscall
//!   shim (`crates/reactor/src/sys`), and inside them every `unsafe` item
//!   or block must carry a `// SAFETY:` comment justifying the invariant it
//!   relies on. The rest of the workspace stays safe Rust; vectorized field
//!   arithmetic and the socket syscall layer are the sanctioned
//!   exceptions.
//!
//! A finding can be suppressed on its line (or the line above) with an
//! inline marker carrying a reason:
//!
//! ```text
//! let raw = std::sync::Mutex::new(0); // xtask:allow(raw-sync): FFI fixture
//! ```
//!
//! The lint is deliberately line-based and dependency-free: it does not
//! parse Rust, it enforces house style over a tree whose idioms it owns.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) whose files are exempt from every rule:
/// the sync crate itself, the offline dependency shims, and this crate
/// (whose sources and fixtures mention the forbidden patterns by name).
const EXEMPT_DIRS: &[&str] = &["crates/sync", "crates/shims", "crates/xtask"];

/// Directories (workspace-relative) where `unsafe` is sanctioned: the
/// runtime-dispatched SIMD kernels and the raw epoll/eventfd and socket
/// syscall shim, neither of which has safe wrappers available offline.
/// Files here still owe a `// SAFETY:` comment per `unsafe` occurrence.
const UNSAFE_ALLOWED_DIRS: &[&str] = &["crates/gf256/src/simd", "crates/reactor/src/sys"];

/// Directory names never walked.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`raw-sync`, `lock-unwrap`, `rank-collisions`,
    /// `lock-field-docs`, `unsafe-code`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A `lock_class!` declaration found in the tree.
#[derive(Debug, Clone)]
struct ClassDecl {
    path: PathBuf,
    line: usize,
    name: String,
    label: String,
    rank: u64,
}

/// Lints every `.rs` file under each root. Returns all findings, sorted by
/// path and line.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut classes: Vec<ClassDecl> = Vec::new();
    for root in roots {
        let mut files = Vec::new();
        collect_rs_files(root, root, &mut files)?;
        files.sort();
        for (path, rel) in files {
            let text = std::fs::read_to_string(&path)?;
            let exempt = EXEMPT_DIRS.iter().any(|d| rel.starts_with(Path::new(d)));
            if exempt {
                continue;
            }
            lint_file(&path, &rel, &text, &mut findings);
            collect_classes(&path, &text, &mut classes);
        }
    }
    findings.extend(rank_collision_findings(&classes));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Convenience wrapper: lints the workspace the binary was built from.
pub fn lint_workspace() -> std::io::Result<Vec<Finding>> {
    lint_paths(&[workspace_root()])
}

/// The workspace root, derived from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(PathBuf, PathBuf)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push((path, rel));
        }
    }
    Ok(())
}

/// True if `line` (or the previous line) carries an
/// `xtask:allow(<rule>): <reason>` marker for the rule.
fn allowed(lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("xtask:allow({rule}):");
    lines[idx].contains(&marker) || (idx > 0 && lines[idx - 1].contains(&marker))
}

/// True if the file is test/bench/example code, where unwraps and ad-hoc
/// primitives are accepted style.
fn is_test_path(rel: &Path) -> bool {
    rel.components().any(|c| {
        matches!(
            c.as_os_str().to_string_lossy().as_ref(),
            "tests" | "benches" | "examples"
        )
    })
}

fn lint_file(path: &Path, rel: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let test_file = is_test_path(rel);
    let in_test_mod = test_module_lines(&lines);
    let unsafe_allowed = UNSAFE_ALLOWED_DIRS
        .iter()
        .any(|d| rel.starts_with(Path::new(d)));

    for (idx, raw_line) in lines.iter().enumerate() {
        let line = strip_line_comment(raw_line);
        let lineno = idx + 1;

        // raw-sync: applies everywhere, including tests — test code
        // deadlocks too, and the detector only sees ecpipe-sync locks.
        if let Some(what) = raw_sync_use(line) {
            if !allowed(&lines, idx, "raw-sync") {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: lineno,
                    rule: "raw-sync",
                    message: format!(
                        "{what} used directly; go through `ecpipe_sync` so the lock \
                         carries a class and checked builds can order it"
                    ),
                });
            }
        }

        // lock-unwrap: non-test library code only.
        if !test_file && !in_test_mod[idx] {
            if let Some(what) = lock_unwrap_use(line) {
                if !allowed(&lines, idx, "lock-unwrap") {
                    findings.push(Finding {
                        path: path.to_path_buf(),
                        line: lineno,
                        rule: "lock-unwrap",
                        message: format!(
                            "{what} in library code; propagate an `EcPipeError` (or add \
                             `xtask:allow(lock-unwrap): <reason>` if panicking is the contract)"
                        ),
                    });
                }
            }
        }

        // unsafe-code: applies everywhere, tests included — the keyword is
        // either confined to the sanctioned SIMD modules (where each use
        // owes a `// SAFETY:` justification) or absent.
        if unsafe_token(line) {
            if unsafe_allowed {
                if !has_safety_comment(&lines, idx) && !allowed(&lines, idx, "unsafe-code") {
                    findings.push(Finding {
                        path: path.to_path_buf(),
                        line: lineno,
                        rule: "unsafe-code",
                        message: "`unsafe` without a `// SAFETY:` comment; state the \
                                  invariant it relies on directly above the unsafe item"
                            .to_string(),
                    });
                }
            } else if !allowed(&lines, idx, "unsafe-code") {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: lineno,
                    rule: "unsafe-code",
                    message: "`unsafe` outside the sanctioned modules \
                              (crates/gf256/src/simd, crates/reactor/src/sys); keep \
                              the workspace safe Rust or move the code there"
                        .to_string(),
                });
            }
        }

        // lock-field-docs: a struct field of lock type must carry a
        // `/// Lock class:` doc line.
        if lock_field(line) && !test_file && !in_test_mod[idx] {
            let documented = lines[..idx]
                .iter()
                .rev()
                .take_while(|l| {
                    let t = l.trim_start();
                    t.starts_with("///") || t.starts_with("#[")
                })
                .any(|l| l.contains("Lock class:"));
            if !documented && !allowed(&lines, idx, "lock-field-docs") {
                findings.push(Finding {
                    path: path.to_path_buf(),
                    line: lineno,
                    rule: "lock-field-docs",
                    message: "lock-holding field lacks a `/// Lock class:` doc line naming \
                              its `lock_order` class"
                        .to_string(),
                });
            }
        }
    }
}

/// Drops a trailing `// ...` comment (but keeps `xtask:allow` markers
/// visible to [`allowed`], which inspects the raw line).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) if !line[..pos].contains('"') => &line[..pos],
        _ => line,
    }
}

/// Which lines sit inside a `#[cfg(test)] mod ... { ... }` block.
fn test_module_lines(lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the module opener, then track brace depth to its close.
            let mut j = i;
            while j < lines.len() && !lines[j].contains('{') {
                j += 1;
            }
            let mut depth = 0i32;
            while j < lines.len() {
                for ch in lines[j].chars() {
                    match ch {
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                flags[j] = true;
                if depth <= 0 {
                    break;
                }
                j += 1;
            }
            for flag in flags.iter_mut().take(j + 1).skip(i) {
                *flag = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Returns a description of the raw primitive a line reaches for, if any.
fn raw_sync_use(line: &str) -> Option<&'static str> {
    if line.contains("use parking_lot")
        || line.contains("parking_lot::Mutex")
        || line.contains("parking_lot::RwLock")
        || line.contains("parking_lot::Condvar")
    {
        return Some("`parking_lot` primitive");
    }
    for prim in ["Mutex", "RwLock", "Condvar"] {
        if line.contains(&format!("std::sync::{prim}")) {
            return Some("raw `std::sync` lock");
        }
    }
    // Braced imports: `use std::sync::{Arc, Condvar, Mutex};`
    if let Some(rest) = line.trim_start().strip_prefix("use std::sync::{") {
        if ["Mutex", "RwLock", "Condvar"]
            .iter()
            .any(|p| rest.split(['}', ',']).any(|item| item.trim() == *p))
        {
            return Some("raw `std::sync` lock");
        }
    }
    None
}

/// Returns a description of an unwrapped lock/channel result, if any.
fn lock_unwrap_use(line: &str) -> Option<&'static str> {
    const LOCK_OPS: &[(&str, &str)] = &[
        (".lock()", "`.unwrap()`/`.expect()` on a lock result"),
        (".read()", "`.unwrap()`/`.expect()` on a lock result"),
        (".write()", "`.unwrap()`/`.expect()` on a lock result"),
        (".recv()", "`.unwrap()`/`.expect()` on a channel receive"),
        (
            ".recv_timeout(",
            "`.unwrap()`/`.expect()` on a channel receive",
        ),
    ];
    for (op, what) in LOCK_OPS {
        for sink in [".unwrap()", ".expect("] {
            let needle = format!("{op}{sink}");
            // `.recv_timeout(` spans the call's open paren; match loosely.
            if op.ends_with('(') {
                if line.contains(op) && line.contains(sink) {
                    return Some(what);
                }
            } else if line.contains(&needle) {
                return Some(what);
            }
        }
    }
    if line.contains(".send(") && (line.contains(").unwrap()") || line.contains(").expect(")) {
        return Some("`.unwrap()`/`.expect()` on a channel send");
    }
    None
}

/// True if the (comment-stripped) line contains the `unsafe` keyword as a
/// standalone token. Word-boundary matching keeps attribute text like
/// `deny(unsafe_code)` and lint names like `unsafe_op_in_unsafe_fn` from
/// counting.
fn unsafe_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let boundary = |b: u8| !(b as char).is_alphanumeric() && b != b'_';
        if (start == 0 || boundary(bytes[start - 1]))
            && (end == bytes.len() || boundary(bytes[end]))
        {
            return true;
        }
        from = end;
    }
    false
}

/// True if the line carries (or is preceded by) a `// SAFETY:` comment. The
/// scan walks up through contiguous comment and attribute lines, so the
/// justification may sit above a `#[target_feature]`-decorated `unsafe fn`
/// or span several comment lines.
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if !(t.starts_with("//") || t.starts_with("#[")) {
            return false;
        }
        if t.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// True for a struct-field line of lock type (4-space indent, `name: Type`).
fn lock_field(line: &str) -> bool {
    let Some(field) = line.strip_prefix("    ") else {
        return false;
    };
    if field.starts_with(' ') || field.trim_start().starts_with("//") {
        return false; // deeper indent: local, match arm or nested literal
    }
    let field = field.strip_prefix("pub ").unwrap_or(field);
    let Some((name, ty)) = field.split_once(':') else {
        return false;
    };
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return false;
    }
    let ty = ty.trim_start();
    [
        "Mutex<",
        "RwLock<",
        "ecpipe_sync::Mutex<",
        "ecpipe_sync::RwLock<",
    ]
    .iter()
    .any(|p| ty.starts_with(p))
}

/// Extracts `lock_class!` declarations (`NAME = ("label", rank = N)`).
fn collect_classes(path: &Path, text: &str, out: &mut Vec<ClassDecl>) {
    let mut search = text;
    let mut offset = 0usize;
    while let Some(pos) = search.find("lock_class!") {
        let body_start = offset + pos;
        let body = &text[body_start..];
        // The declaration always fits well within the next 2 KiB.
        let window = &body[..body.len().min(2048)];
        if let Some((name, label, rank)) = parse_class_decl(window) {
            let line = text[..body_start].lines().count();
            out.push(ClassDecl {
                path: path.to_path_buf(),
                line: line.max(1),
                name,
                label,
                rank,
            });
        }
        offset = body_start + "lock_class!".len();
        search = &text[offset..];
    }
}

/// Parses `NAME = ("label", rank = N)` out of a `lock_class!` invocation.
fn parse_class_decl(window: &str) -> Option<(String, String, u64)> {
    let eq = window.find("= (")?;
    let name = window[..eq]
        .split_whitespace()
        .last()?
        .trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
        .to_string();
    let rest = &window[eq + 3..];
    let label_start = rest.find('"')? + 1;
    let label_end = label_start + rest[label_start..].find('"')?;
    let label = rest[label_start..label_end].to_string();
    let rank_kw = rest[label_end..].find("rank")? + label_end;
    let after = rest[rank_kw..].find('=')? + rank_kw + 1;
    let digits: String = rest[after..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    let rank: u64 = digits.replace('_', "").parse().ok()?;
    Some((name, label, rank))
}

fn rank_collision_findings(classes: &[ClassDecl]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut by_rank: HashMap<u64, &ClassDecl> = HashMap::new();
    let mut by_label: HashMap<&str, &ClassDecl> = HashMap::new();
    for decl in classes {
        if let Some(prev) = by_rank.get(&decl.rank) {
            findings.push(Finding {
                path: decl.path.clone(),
                line: decl.line,
                rule: "rank-collisions",
                message: format!(
                    "lock class `{}` reuses rank {} already taken by `{}` ({}:{})",
                    decl.name,
                    decl.rank,
                    prev.name,
                    prev.path.display(),
                    prev.line
                ),
            });
        } else {
            by_rank.insert(decl.rank, decl);
        }
        if let Some(prev) = by_label.get(decl.label.as_str()) {
            findings.push(Finding {
                path: decl.path.clone(),
                line: decl.line,
                rule: "rank-collisions",
                message: format!(
                    "lock class label `{}` already declared by `{}` ({}:{})",
                    decl.label,
                    prev.name,
                    prev.path.display(),
                    prev.line
                ),
            });
        } else {
            by_label.insert(decl.label.as_str(), decl);
        }
    }
    findings
}
