//! Integration tests for `xed-analyze` (ISSUE 6).
//!
//! A checked-in fixture mini-workspace
//! (`tests/fixtures/mini_ws/`) defines every hot entry point and
//! boundary fn the analyzer names, with exactly one seeded violation
//! per XA rule arm. The golden JSON (`tests/fixtures/golden.json`) is
//! asserted byte-for-byte modulo the elapsed-time field, so any change
//! to finding wording, ordering, grouping, or closure sizes is a
//! deliberate golden update. A final test runs the analyzer over the
//! real workspace and requires it to be clean with an empty unresolved
//! bucket.

use std::process::{Command, Output};

const GOLDEN: &str = include_str!("fixtures/golden.json");

fn fixture_root() -> String {
    format!("{}/tests/fixtures/mini_ws", env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> String {
    format!("{}/../..", env!("CARGO_MANIFEST_DIR"))
}

fn run_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .args(args)
        .output()
        .expect("xtask binary runs")
}

/// Replaces the elapsed-time value with 0 so runs are comparable.
fn normalize(json: &str) -> String {
    let Some(at) = json.find("\"elapsed_ms\":") else {
        return json.to_string();
    };
    let digits_at = at + "\"elapsed_ms\":".len();
    let rest = &json[digits_at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    format!("{}0{}", &json[..digits_at], &rest[end..])
}

#[test]
fn fixture_findings_match_golden() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "seeded findings must gate");
    let json = normalize(String::from_utf8_lossy(&out.stdout).trim());
    assert_eq!(json, GOLDEN.trim(), "golden drift — inspect and regenerate");
}

#[test]
fn fixture_detects_every_seeded_rule() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "json"]);
    let json = String::from_utf8_lossy(&out.stdout).into_owned();

    let count = |rule: &str| json.matches(&format!("\"rule\":\"{rule}\"")).count();
    assert_eq!(
        count("XA100"),
        6,
        "panic, index, unwrap, expect, hole, cache index"
    );
    assert_eq!(count("XA101"), 3, "format!, vec!, untyped push");
    assert_eq!(
        count("XA102"),
        3,
        "hot Acquire, stray SeqCst, boundary Relaxed"
    );
    assert_eq!(count("XA103"), 1, "dead metric");

    // The unwrap is two hops from the entry point: transitivity works.
    assert!(json.contains("xed_ecc::first_symbol"));
    // The unresolved bucket is reported, not silently dropped.
    assert!(json.contains("\"unresolved\":{\"mystery_mix\":1}"));
    // Live metrics are not flagged; only the dead one is.
    assert!(!json.contains("metrics::TRIALS"));
    assert!(!json.contains("metrics::LATENCY"));
}

#[test]
fn fixture_text_format_reports_proofs_and_unresolved() {
    let out = run_analyze(&["--root", &fixture_root(), "--format", "text"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("proof [ecc-decode]: 2 entry fn(s), closure of 3 fn(s)"));
    assert!(text.contains("proof [ecc-infer]: 2 entry fn(s), closure of 2 fn(s)"));
    assert!(text.contains("proof [mc-trial]: 5 entry fn(s), closure of 7 fn(s)"));
    assert!(text.contains("proof [telemetry-write]: 16 entry fn(s), closure of 16 fn(s)"));
    assert!(text.contains("proof [memsim-tick]: 1 entry fn(s), closure of 2 fn(s)"));
    assert!(text.contains("proof [xedd-request]: 2 entry fn(s), closure of 4 fn(s)"));
    assert!(text.contains("unresolved bucket: 1 distinct callee(s), 1 site(s)"));
    assert!(text.contains("mystery_mix (1 site(s), e.g. crates/faultsim/src/lib.rs:38)"));
}

#[test]
fn baseline_cannot_suppress_hot_findings() {
    let baseline = format!(
        "{}/tests/fixtures/hot_suppress.baseline",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = run_analyze(&[
        "--root",
        &fixture_root(),
        "--format",
        "text",
        "--baseline",
        &baseline,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("tries to suppress a hot-path finding"),
        "{text}"
    );
    // The hot finding itself is still present alongside the rejection.
    assert!(text.contains("`panic!` is reachable"));
}

#[test]
fn baseline_suppresses_non_hot_and_reports_stale() {
    let baseline = format!(
        "{}/tests/fixtures/boundary.baseline",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = run_analyze(&[
        "--root",
        &fixture_root(),
        "--format",
        "json",
        "--baseline",
        &baseline,
    ]);
    // Still findings left, so still gating.
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(json.contains("\"suppressed\":1"), "{json}");
    assert!(json.contains("\"stale\":1"), "{json}");
    assert!(
        !json.contains("xed_telemetry::Counter::value"),
        "boundary finding should be suppressed: {json}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let out = run_analyze(&["--root", &repo_root(), "--format", "json"]);
    let json = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "the real workspace must stay clean: {json}"
    );
    assert!(json.contains("\"findings\":[]"), "{json}");
    assert!(
        json.contains("\"unresolved\":{}"),
        "the real workspace resolves every call: {json}"
    );
}
