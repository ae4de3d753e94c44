//! End-to-end checks of the benchmark binary in `--smoke` mode
//! (5 circuits, 1 pass).

use std::path::PathBuf;
use std::process::Command;
use symbi_benchmark::json::Json;
use symbi_benchmark::Definition;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one smoke workload and returns its last stdout line, parsed.
fn smoke(workload: &str, trace: &str, out: &PathBuf) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_symbi-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn defined_names(trace: bool) -> Vec<String> {
    Definition::load()
        .metrics(trace)
        .iter()
        .map(|m| m.name.clone())
        .collect()
}

#[test]
fn untraced_result_has_every_end_to_end_metric() {
    let result = smoke("t31-tight", "0", &out_dir("untraced"));
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("attempted").and_then(Json::as_f64), Some(5.0));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert_eq!(metric_names(&result), defined_names(false));
    for name in defined_names(false) {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(&name))
            .and_then(|m| m.get("value"));
        let value = value.and_then(Json::as_f64).expect("numeric value");
        assert!(value > 0.0, "{name} must never read 0, got {value}");
    }
}

#[test]
fn traced_run_writes_spans_nested_under_their_circuit() {
    let out = out_dir("traced");
    let result = smoke("t31-states", "1", &out);
    assert_eq!(metric_names(&result), defined_names(true));

    let text = std::fs::read_to_string(out.join("trace-t31-states.json")).expect("trace file");
    let doc = Json::parse(&text).expect("trace parses");
    let spans = doc.get("spans").expect("spans").as_array();
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect(k);
    let roots: Vec<&Json> = spans
        .iter()
        .filter(|s| s.get("parent") == Some(&Json::Null))
        .collect();
    assert_eq!(roots.len(), 5, "one root span per circuit");
    for root in &roots {
        assert_eq!(root.get("name").and_then(Json::as_str), Some("circuit"));
    }
    let calls = [
        "aiger.parse_bytes",
        "clean.clean",
        "sweep.try_sweep",
        "reach.analyze_governed",
        "flow.optimize",
        "map.map",
        "sec.bounded_check_sat",
        "sim.random_co_simulation",
    ];
    for span in spans
        .iter()
        .filter(|s| s.get("parent") != Some(&Json::Null))
    {
        let parent = &spans[field(span, "parent") as usize];
        assert_eq!(parent.get("name").and_then(Json::as_str), Some("circuit"));
        assert_eq!(field(span, "circuit"), field(parent, "circuit"));
        assert!(field(parent, "start_ns") <= field(span, "start_ns"));
        assert!(field(span, "start_ns") <= field(span, "end_ns"));
        assert!(field(span, "end_ns") <= field(parent, "end_ns"));
    }
    for root in &roots {
        let id = field(root, "id");
        for call in calls {
            let n = spans
                .iter()
                .filter(|s| s.get("parent").and_then(Json::as_f64) == Some(id))
                .filter(|s| s.get("name").and_then(Json::as_str) == Some(call))
                .count();
            assert_eq!(n, 1, "circuit {id}: one `{call}` span");
        }
    }
}

#[test]
fn compare_reports_a_run_against_itself_as_unchanged() {
    let out = out_dir("compare");
    smoke("t31-tight", "0", &out);
    let record = std::fs::read_to_string(out.join("record-t31-tight-seed3.json")).unwrap();
    let run = out.join("run.json");
    std::fs::write(&run, format!("{{\"records\":[{record}]}}")).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_symbi-benchmark"))
        .arg("--compare")
        .args([&run, &run])
        .output()
        .expect("compare runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{stdout}");
    assert_eq!(
        stdout.matches(" same").count(),
        defined_names(false).len(),
        "{stdout}"
    );
}
