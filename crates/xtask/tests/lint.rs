//! The lint must pass the real workspace and fail planted violations.
//!
//! Fixtures are written to a per-test temp directory; each plants exactly
//! one violation so the assertions can name the rule they expect.

use std::path::PathBuf;

use xtask::{lint_paths, lint_workspace};

/// A throwaway directory under the target dir (kept out of the lint's own
/// walk because `target/` is always skipped), removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("lint-fixtures")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, contents).unwrap();
    }

    fn findings(&self) -> Vec<xtask::Finding> {
        lint_paths(std::slice::from_ref(&self.root)).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn the_workspace_is_clean() {
    let findings = lint_workspace().unwrap();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn planted_std_mutex_is_flagged() {
    let fx = Fixture::new("raw-std");
    fx.write(
        "src/lib.rs",
        "use std::sync::Mutex;\npub struct S { m: Mutex<u32> }\n",
    );
    let findings = fx.findings();
    assert!(
        findings.iter().any(|f| f.rule == "raw-sync"),
        "expected a raw-sync finding, got: {findings:?}"
    );
}

#[test]
fn planted_braced_std_import_is_flagged() {
    let fx = Fixture::new("raw-braced");
    fx.write(
        "src/lib.rs",
        "use std::sync::{Arc, Condvar, Mutex};\npub fn f() {}\n",
    );
    assert!(fx.findings().iter().any(|f| f.rule == "raw-sync"));
}

#[test]
fn planted_parking_lot_is_flagged() {
    let fx = Fixture::new("raw-pl");
    fx.write(
        "src/lib.rs",
        "pub fn f() { let _m = parking_lot::Mutex::new(0); }\n",
    );
    assert!(fx.findings().iter().any(|f| f.rule == "raw-sync"));
}

#[test]
fn planted_raw_sync_under_crates_meta_is_flagged() {
    // The metadata plane is NOT on the exempt list: its router lock must
    // come from crates/sync like everyone else's, so a raw primitive
    // planted under a crates/meta path must fail the lint.
    let fx = Fixture::new("raw-meta");
    fx.write(
        "crates/meta/src/router.rs",
        "use std::sync::Mutex;\npub struct MetaRouter { state: Mutex<u32> }\n",
    );
    let findings = fx.findings();
    assert!(
        findings.iter().any(|f| f.rule == "raw-sync"),
        "crates/meta must be covered by the raw-sync rule, got: {findings:?}"
    );
}

#[test]
fn arc_and_atomics_are_not_raw_sync() {
    let fx = Fixture::new("raw-ok");
    fx.write(
        "src/lib.rs",
        "use std::sync::atomic::{AtomicBool, Ordering};\nuse std::sync::Arc;\npub fn f() {}\n",
    );
    assert!(fx.findings().is_empty());
}

#[test]
fn lock_unwrap_in_lib_code_is_flagged() {
    let fx = Fixture::new("unwrap-lib");
    fx.write(
        "src/lib.rs",
        "pub fn f(m: &M) { let _g = m.lock().unwrap(); }\n",
    );
    let findings = fx.findings();
    assert!(findings.iter().any(|f| f.rule == "lock-unwrap"));
}

#[test]
fn channel_unwraps_are_flagged() {
    let fx = Fixture::new("unwrap-chan");
    fx.write(
        "src/lib.rs",
        "pub fn f(tx: &T, rx: &R) {\n    tx.send(1).unwrap();\n    let _v = rx.recv().unwrap();\n}\n",
    );
    let findings = fx.findings();
    assert_eq!(
        findings.iter().filter(|f| f.rule == "lock-unwrap").count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn unwraps_in_test_modules_and_test_dirs_are_exempt() {
    let fx = Fixture::new("unwrap-test");
    fx.write(
        "src/lib.rs",
        "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g(m: &M) { let _x = m.lock().unwrap(); }\n}\n",
    );
    fx.write(
        "tests/it.rs",
        "fn g(m: &M) { let _x = m.lock().unwrap(); }\n",
    );
    fx.write("benches/b.rs", "fn g(r: &R) { r.recv().unwrap(); }\n");
    assert!(fx.findings().is_empty(), "{:?}", fx.findings());
}

#[test]
fn allow_marker_suppresses_a_finding() {
    let fx = Fixture::new("allow");
    fx.write(
        "src/lib.rs",
        "pub fn f(m: &M) {\n    // xtask:allow(lock-unwrap): poisoning is fatal here by design\n    let _g = m.lock().unwrap();\n}\n",
    );
    assert!(fx.findings().is_empty());
}

#[test]
fn rank_collisions_are_flagged() {
    let fx = Fixture::new("ranks");
    fx.write(
        "src/a.rs",
        "lock_class!(\n    /// A.\n    pub A = (\"mod.a\", rank = 10)\n);\n",
    );
    fx.write(
        "src/b.rs",
        "lock_class!(\n    /// B.\n    pub B = (\"mod.b\", rank = 10)\n);\nlock_class!(\n    /// C.\n    pub C = (\"mod.b\", rank = 11)\n);\n",
    );
    let findings = fx.findings();
    // One rank collision (10 vs 10) and one label collision ("mod.b").
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "rank-collisions")
            .count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn undocumented_lock_field_is_flagged() {
    let fx = Fixture::new("docs");
    fx.write("src/lib.rs", "pub struct S {\n    inner: Mutex<u32>,\n}\n");
    let findings = fx.findings();
    assert!(findings.iter().any(|f| f.rule == "lock-field-docs"));
}

#[test]
fn documented_lock_field_is_clean() {
    let fx = Fixture::new("docs-ok");
    fx.write(
        "src/lib.rs",
        "pub struct S {\n    /// Lock class: `mod.inner` ([`lock_order::INNER`]).\n    inner: Mutex<u32>,\n}\n",
    );
    assert!(fx.findings().is_empty(), "{:?}", fx.findings());
}

#[test]
fn unsafe_outside_the_simd_modules_is_flagged() {
    let fx = Fixture::new("unsafe-out");
    fx.write(
        "crates/core/src/lib.rs",
        "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    // Tests are not exempt: the keyword is banned tree-wide.
    fx.write(
        "crates/core/tests/it.rs",
        "fn g(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let findings = fx.findings();
    assert_eq!(
        findings.iter().filter(|f| f.rule == "unsafe-code").count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn unsafe_in_the_simd_modules_needs_a_safety_comment() {
    let fx = Fixture::new("unsafe-simd");
    fx.write(
        "crates/gf256/src/simd/x86.rs",
        "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    let findings = fx.findings();
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "unsafe-code" && f.message.contains("SAFETY")),
        "{findings:?}"
    );
}

#[test]
fn safety_commented_unsafe_in_the_simd_modules_is_clean() {
    let fx = Fixture::new("unsafe-ok");
    // Both shapes the kernels use: a comment directly above an `unsafe`
    // block, and a comment above a `#[target_feature]`-decorated fn.
    fx.write(
        "crates/gf256/src/simd/x86.rs",
        concat!(
            "fn f(p: *const u8) -> u8 {\n",
            "    // SAFETY: caller guarantees `p` is valid for reads.\n",
            "    unsafe { *p }\n",
            "}\n",
            "\n",
            "// SAFETY: only called after runtime feature detection.\n",
            "#[target_feature(enable = \"avx2\")]\n",
            "unsafe fn g() {}\n",
        ),
    );
    assert!(fx.findings().is_empty(), "{:?}", fx.findings());
}

#[test]
fn unsafe_mentions_in_comments_and_attributes_do_not_count() {
    let fx = Fixture::new("unsafe-words");
    fx.write(
        "crates/core/src/lib.rs",
        concat!(
            "//! No `unsafe` lives here.\n",
            "#![deny(unsafe_code)]\n",
            "#![warn(unsafe_op_in_unsafe_fn)]\n",
            "pub fn f() {} // not unsafe at all\n",
        ),
    );
    assert!(fx.findings().is_empty(), "{:?}", fx.findings());
}

#[test]
fn allow_marker_suppresses_an_unsafe_finding() {
    let fx = Fixture::new("unsafe-allow");
    fx.write(
        "crates/core/src/lib.rs",
        concat!(
            "pub fn f(p: *const u8) -> u8 {\n",
            "    // xtask:allow(unsafe-code): FFI boundary audited in review\n",
            "    unsafe { *p }\n",
            "}\n",
        ),
    );
    assert!(fx.findings().is_empty(), "{:?}", fx.findings());
}

#[test]
fn the_lint_binary_exits_nonzero_on_a_dirty_tree() {
    let fx = Fixture::new("binary");
    fx.write("src/lib.rs", "use std::sync::Mutex;\n");
    let exe = env!("CARGO_BIN_EXE_xtask");
    let dirty = std::process::Command::new(exe)
        .args(["lint", fx.root.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
    let stderr = String::from_utf8_lossy(&dirty.stderr);
    assert!(stderr.contains("raw-sync"), "{stderr}");

    let clean = std::process::Command::new(exe)
        .args(["lint"])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
}
