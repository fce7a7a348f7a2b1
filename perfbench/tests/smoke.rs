//! Tiny-size runs of every workload: each must pass its own output checks
//! and print every metric `BENCHMARK.json` names, with its unit, in both
//! the human-readable lines and the JSON result line.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn run(workload: &str, trace: bool) -> String {
    let scratch =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(scratch.join("work"))
        .arg("--spans-out")
        .arg(scratch.join("spans.jsonl"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!scratch.join("work").exists(), "the run removes its scratch stores");
    stdout
}

fn check(workload: &str, trace: bool) {
    let stdout = run(workload, trace);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    assert!(result.contains(", \"failed\": 0, \"metrics\": {"), "{result}");
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(result.matches("\"value\": ").count(), expected.len(), "{result}");
    for (name, unit) in &expected {
        let json = format!("\"{name}\": {{\"value\": ");
        let at =
            result.find(&json).unwrap_or_else(|| panic!("{workload}: {name} missing: {result}"));
        let rest = &result[at + json.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{name} unit: {rest}"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = "))
                    && l.ends_with(&format!(" {unit}"))),
            "{name} has no human-readable line"
        );
    }
    assert!(
        stdout.lines().next().is_some_and(|l| l.starts_with("stamp {\"commit\"")),
        "stamp first"
    );
}

#[test]
fn lineup9_gen_prints_every_end_to_end_metric() {
    check("lineup9_gen", false);
}

#[test]
fn lineup9_gen_traced_prints_every_layer_metric() {
    check("lineup9_gen", true);
}

#[test]
fn penalty_sweep_archive_prints_every_end_to_end_metric() {
    check("penalty_sweep_archive", false);
}

#[test]
fn penalty_sweep_archive_traced_prints_every_layer_metric() {
    check("penalty_sweep_archive", true);
}

#[test]
fn serve_mixed_prints_every_end_to_end_metric() {
    check("serve_mixed", false);
}

#[test]
fn serve_mixed_traced_prints_every_layer_metric() {
    check("serve_mixed", true);
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run perfbench");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
