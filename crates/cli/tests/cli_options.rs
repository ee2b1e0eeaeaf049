//! End-to-end tests of option handling and plan tracing, driving the real
//! binary (one process per run, so each `--trace` file holds one run).

use kpm::obs::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;

fn kpm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kpm"))
}

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kpm_cli_options_{tag}_{}.json", std::process::id()))
}

/// Runs `kpm dos <words> --trace FILE` and returns the parsed trace.
fn traced_dos(tag: &str, words: &[&str]) -> Value {
    let path = trace_path(tag);
    let out = kpm().arg("dos").args(words).arg("--trace").arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    json::parse(&text).expect("trace file must be valid JSON")
}

fn counter(trace: &Value, name: &str) -> Option<u64> {
    let counters = trace.get("counters").and_then(Value::as_object).expect("counters");
    counters.iter().find(|(k, _)| k == name).and_then(|(_, v)| v.as_u64())
}

fn exec_label(trace: &Value) -> String {
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    let span = spans
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("kpm.exec"))
        .expect("kpm.exec span");
    span.get("detail").and_then(Value::as_str).expect("kpm.exec label").to_string()
}

#[test]
fn unknown_options_exit_2_without_running() {
    for extra in [["--bogus-flag", "3"], ["--recursion", "doubling"], ["--exce", "rows"]] {
        let out = kpm()
            .args(["dos", "--lattice", "cubic:4,4,4", "--moments", "16"])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(out.stdout.is_empty(), "{extra:?} must not run the command");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option {}", extra[0])), "{stderr}");
    }
}

#[test]
fn realizations_below_the_cutoff_traces_its_downgrade_to_serial() {
    let trace = traced_dos(
        "realizations",
        &["--lattice", "cubic:10,10,10", "--exec", "realizations", "--moments", "32"],
    );
    assert_eq!(counter(&trace, "kpm.exec.downgrade.realizations.serial"), Some(1));
    assert_eq!(counter(&trace, "kpm.exec.plan.serial"), Some(1));
    let label = exec_label(&trace);
    assert!(
        label.starts_with("serial (realizations downgraded: dim 1000 < par_min_dim"),
        "{label}"
    );
}

#[test]
fn hybrid_with_one_chunk_traces_its_downgrade_to_rows() {
    let trace = traced_dos(
        "hybrid",
        &["--lattice", "cubic:10,10,10", "--exec", "hybrid", "--moments", "32", "--sets", "1"],
    );
    assert_eq!(counter(&trace, "kpm.exec.downgrade.hybrid.rows"), Some(1));
    assert_eq!(exec_label(&trace), "rows (hybrid downgraded: one chunk)");

    // Auto never counts as a downgrade.
    let auto = traced_dos("auto", &["--lattice", "cubic:10,10,10", "--moments", "32"]);
    assert!(exec_label(&auto) == "rows" || exec_label(&auto) == "hybrid");
    let counters = auto.get("counters").and_then(Value::as_object).unwrap();
    assert!(counters.iter().all(|(k, _)| !k.starts_with("kpm.exec.downgrade")), "{counters:?}");
}
