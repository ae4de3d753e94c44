//! Command line of the symbi benchmark.
//!
//! ```text
//! symbi-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! symbi-benchmark [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! symbi-benchmark --compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics
//! untraced, per-layer metrics traced. Without it, every workload runs
//! in a child process of its own, one after the other, and their
//! records are gathered into `DIR/run-seed<N>.json`.

use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use symbi_benchmark::compare::{compare, Verdict};
use symbi_benchmark::json::Json;
use symbi_benchmark::run::{run, Config};
use symbi_benchmark::workload::{Workload, DEFAULT_SEED};
use symbi_benchmark::Definition;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage(msg: &str) -> ! {
    eprintln!("symbi-benchmark: {msg}");
    eprintln!(
        "usage: symbi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out DIR] [--smoke]\n       symbi-benchmark --compare A.json B.json"
    );
    exit(2)
}

fn parse_args(def: &Definition) -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: def.run_seconds,
        trace: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a name");
                args.workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
                );
            }
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                // `--trace` alone means `--trace 1`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--out" => args.out = PathBuf::from(value("a directory")),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = PathBuf::from(value("two files"));
                let b = PathBuf::from(value("two files"));
                args.compare = Some((a, b));
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", dir.display())));
    }
    std::fs::write(path, text)
        .unwrap_or_else(|e| usage(&format!("cannot write {}: {e}", path.display())));
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", path.display())));
    Json::parse(&text).unwrap_or_else(|e| usage(&format!("{}: {e}", path.display())))
}

fn record_path(out: &Path, workload: Workload, seed: u64, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out.join(format!(
        "record-{}-seed{seed}{suffix}.json",
        workload.name()
    ))
}

fn run_one(def: &Definition, args: &Args, workload: Workload) -> i32 {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("symbi-benchmark: {e}");
            return 1;
        }
    };
    let w = workload.name();
    println!(
        "{w} seed {} circuits {} passes {}",
        args.seed, outcome.circuits, outcome.passes
    );
    println!("{w} input_fingerprint {:#018x}", outcome.input_fingerprint);
    for (i, reason) in &outcome.failures {
        println!("{w} FAILED circuit {i}: {reason}");
    }
    let metrics = def.metrics(args.trace);
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        let value = outcome
            .metrics()
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json names `{}`, which this run lacks", m.name));
        println!("{w} {} {value} {}", m.name, m.unit);
        fields.push((
            m.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
        ));
    }
    let record = outcome.record(&cfg);
    write_file(
        &record_path(&args.out, workload, args.seed, args.trace),
        &record.to_string(),
    );
    if let Some((trace, _)) = &outcome.traced {
        let doc = Json::obj([
            ("workload", Json::str(w)),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", trace.to_json()),
        ]);
        let path = args.out.join(format!("trace-{w}.json"));
        write_file(&path, &doc.to_string());
        println!("{w} trace {}", path.display());
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.circuits as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", Json::Obj(fields)),
    ]);
    println!("{result}");
    i32::from(!outcome.correct())
}

/// Every workload, each in a child process so that its peak memory and
/// allocator state are its own.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut records = Vec::new();
    let mut status = 0;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let ok = cmd.status().map(|s| s.success()).unwrap_or(false);
        if !ok {
            eprintln!("symbi-benchmark: workload {} failed", w.name());
            status = 1;
        }
        let path = record_path(&args.out, w, args.seed, args.trace);
        if let Ok(text) = std::fs::read_to_string(&path) {
            records.push(
                Json::parse(&text).unwrap_or_else(|e| usage(&format!("{}: {e}", path.display()))),
            );
        }
    }
    let suffix = if args.trace { "-trace" } else { "" };
    let path = args.out.join(format!("run-seed{}{suffix}.json", args.seed));
    let doc = Json::obj([
        ("schema", Json::str("symbi-benchmark/v1")),
        ("records", Json::Arr(records)),
    ]);
    write_file(&path, &doc.to_string());
    println!("run {}", path.display());
    status
}

fn run_compare(def: &Definition, a: &Path, b: &Path) -> i32 {
    let (rows, fail_rises) = compare(def, &read_json(a), &read_json(b));
    println!(
        "{:<13} {:<16} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "spread%", "bound%"
    );
    let mut worse = 0;
    for r in &rows {
        let verdict = match r.verdict {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        worse += usize::from(r.verdict == Verdict::Worse);
        println!(
            "{:<13} {:<16} {:>12.6} {:>12.6} {:>8.2} {:>7.2} {:>6.1}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            100.0 * r.spread,
            100.0 * r.bound
        );
    }
    for msg in &fail_rises {
        println!("{msg}");
    }
    if rows.is_empty() {
        eprintln!("symbi-benchmark: no workload appears untraced in both files");
        return 2;
    }
    i32::from(worse > 0 || !fail_rises.is_empty())
}

fn main() {
    let def = Definition::load();
    let args = parse_args(&def);
    let code = match (&args.compare, args.workload) {
        (Some((a, b)), _) => run_compare(&def, a, b),
        (None, Some(w)) => run_one(&def, &args, w),
        (None, None) => run_all(&args),
    };
    exit(code)
}
