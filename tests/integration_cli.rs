//! CLI-level tests for the `gothic_sim` binary: malformed flags must
//! produce a clear error on stderr and a nonzero exit, never a panic.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gothic_sim"))
        .args(args)
        .output()
        .expect("spawn gothic_sim")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The binary rejected the input itself: exit code 2 (usage error), a
/// `gothic_sim:` prefixed message, and no panic backtrace.
fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = run(args);
    let err = stderr(&out);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?}\nstderr: {err}",
        out.status.code()
    );
    assert!(
        err.contains("gothic_sim:"),
        "args {args:?}: stderr must identify the program: {err}"
    );
    assert!(
        err.contains(expect_in_stderr),
        "args {args:?}: stderr must mention {expect_in_stderr:?}: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "args {args:?}: must not panic: {err}"
    );
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--dacc"));
}

#[test]
fn unparseable_numeric_value_is_a_usage_error() {
    assert_usage_error(&["--n", "abc"], "--n");
    assert_usage_error(&["--steps", "1.5"], "--steps");
    assert_usage_error(&["--dacc", "nope"], "--dacc");
    assert_usage_error(&["--seed", "-1"], "--seed");
}

#[test]
fn zero_counts_are_rejected_not_panicked_on() {
    // --n 0 would trip an assert in Gothic::new; --log-every 0 would be a
    // divide-by-zero modulus in the report loop. Both must be caught at
    // the CLI boundary.
    assert_usage_error(&["--n", "0"], "--n must be at least 1");
    assert_usage_error(&["--steps", "0"], "--steps must be at least 1");
    assert_usage_error(&["--log-every", "0"], "--log-every must be at least 1");
}

#[test]
fn non_positive_accuracy_parameters_are_rejected() {
    assert_usage_error(&["--dacc", "-3"], "--dacc must be a finite positive");
    assert_usage_error(&["--eta", "0"], "--eta must be a finite positive");
    assert_usage_error(&["--eps", "NaN"], "--eps must be a finite positive");
    assert_usage_error(&["--eps", "inf"], "--eps must be a finite positive");
}

#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    assert_usage_error(&["--frobnicate"], "unknown flag --frobnicate");
    assert_usage_error(&["--n"], "--n needs a value");
    assert_usage_error(&["--model", "andromeda-typo"], "unknown model");
    assert_usage_error(&["--mode", "turing"], "unknown mode");
    assert_usage_error(&["--arch", "h100"], "unknown arch");
}

#[test]
fn restart_from_missing_file_fails_cleanly() {
    let out = run(&["--restart", "/nonexistent/checkpoint.bin"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot restart"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn trace_format_flag_is_validated_at_the_cli_boundary() {
    assert_usage_error(
        &["--trace-format", "perfetto"],
        "--trace-format must be 'jsonl' or 'chrome'",
    );
    // Chrome is a file format for the trace sink; without a sink there is
    // nothing to format.
    assert_usage_error(
        &["--trace-format", "chrome"],
        "--trace-format requires --trace",
    );
}

#[test]
fn profile_flag_prints_the_measured_vs_modeled_tables() {
    let out = run(&["--n", "256", "--steps", "1", "--profile"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simt profiler"), "stdout: {text}");
    // Every Table 2 function must appear in the measured table.
    for f in ["walkTree", "calcNode", "makeTree", "predict", "correct"] {
        assert!(text.contains(f), "profile table must cover {f}: {text}");
    }
    assert!(text.contains("rel err"), "stdout: {text}");
    assert!(text.contains("INT/FP32 overlap analysis"), "stdout: {text}");
}

#[test]
fn chrome_trace_is_a_json_array_of_complete_events() {
    let dir = std::env::temp_dir().join(format!("gothic_chrome_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = run(&[
        "--n",
        "256",
        "--steps",
        "2",
        "--trace",
        path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
    let text = std::fs::read_to_string(&path).unwrap();
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('['),
        "chrome trace must be a JSON array"
    );
    assert!(trimmed.ends_with(']'), "chrome trace must be terminated");
    // Complete events carry the duration fields chrome://tracing needs.
    assert!(text.contains("\"ph\":\"X\""), "trace: {text}");
    assert!(text.contains("\"ts\":"), "trace: {text}");
    assert!(text.contains("\"dur\":"), "trace: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_valid_run_succeeds() {
    // Every initial-condition path: the analytic Plummer draw, a lone
    // Eddington component and the four-component M31 model.
    for model in ["plummer", "hernquist", "m31"] {
        let out = run(&[
            "--model",
            model,
            "--n",
            "256",
            "--steps",
            "2",
            "--log-every",
            "1",
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(0), "{model}: stderr: {err}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("relative energy drift"),
            "{model}: stdout: {text}"
        );
    }
}

#[test]
fn restart_continues_the_run_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("gothic_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (a, m, b) = (path("a.snap"), path("m.snap"), path("b.snap"));
    let model = ["--model", "plummer", "--n", "2048"];
    for args in [
        [&model[..], &["--steps", "12", "--snapshot", &a]].concat(),
        [&model[..], &["--steps", "5", "--snapshot", &m]].concat(),
        vec!["--restart", &m, "--steps", "7", "--snapshot", &b],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    }
    let (whole, split) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        whole == split,
        "12 steps and 5 + restart + 7 steps must write identical snapshots"
    );
}

#[test]
fn restart_from_a_header_declaring_a_huge_count_fails_cleanly() {
    let path = std::env::temp_dir().join(format!("gothic_huge_{}.snap", std::process::id()));
    let mut bytes = b"GOTHICSN".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&0.0f64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
    std::fs::write(&path, bytes).unwrap();
    let out = run(&["--restart", path.to_str().unwrap(), "--steps", "1"]);
    std::fs::remove_file(&path).ok();
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cannot restart"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}
