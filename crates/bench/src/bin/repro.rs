//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all | mux-table | adder-table | table31 | table32 | figure31 | figure32
//!        | sat-stats | parallel | bdd-bench | reach-bench | chaos | corpus
//!        | sweep-bench]
//!       [--quick] [--per-kind] [--jobs <N>] [--seed <N>] [--out <path>]
//!       [--corpus-dir <dir>]
//! ```
//!
//! `--quick` trims the expensive rows (mux width 6, adder s16, the two
//! largest Table 3.1 circuits, the largest Table 3.2 blocks) so the whole
//! run finishes in a few minutes. `--per-kind` adds the OR/AND/XOR win
//! split to Table 3.1 (ablation A3). `--jobs N` runs the reachability and
//! synthesis flows on `N` worker threads (`0` = all cores); results are
//! byte-identical to `--jobs 1`. `sat-stats` profiles the CDCL engine
//! on the paper-style SAT workloads and writes machine-readable
//! `BENCH_sat.json`; `parallel` times the flow at `--jobs 1` vs `--jobs N`
//! over the industrial set, checks byte-identity, and writes
//! `BENCH_parallel.json`; `bdd-bench` races the production BDD kernel
//! against a frozen pre-overhaul re-implementation (plus an auto-GC
//! on/off reachability memory comparison) and writes `BENCH_bdd.json`;
//! `reach-bench` races the legacy per-bit image schedule against the
//! clustered image engine on the seq4–seq9 circuits — asserting both
//! reach identical sets — and writes `BENCH_reach.json`; `chaos` sweeps
//! the deterministic fault-injection sites over a fixed circuit suite,
//! audits the degradation ladder's soundness contract (no escaped
//! panics, no hangs, SEC-equivalent degradation, ⊤-monotone
//! reachability), writes `BENCH_chaos.json`, and **exits nonzero** on
//! any violation — `--seed N` replays a specific sweep (`--out`
//! overrides any of the paths); `corpus` runs the corpus-scale
//! differential harness (generated pool + any AIGER files under
//! `--corpus-dir`, defaulting to `tests/corpus` when present) through
//! symbi-vs-greedy across the `{bdd,sat}` backends × budget
//! tiers with per-row SEC cross-checks and reproducibility double-runs,
//! writes `BENCH_corpus.json`, and **exits nonzero** on any red row;
//! `sweep-bench` runs the symbolic flow with the FRAIG-style
//! SAT-sweeping pre-pass off and on over a duplicate-heavy suite
//! (twinned two-block families plus a twinned generated pool),
//! records area/wall-clock deltas, double-runs the swept arm for
//! reproducibility, cross-checks swept-vs-unswept equivalence, writes
//! `BENCH_sweep.json`, and **exits nonzero** on any red row.

use std::time::Duration;
use symbi_bench::{
    adder_row, figure31, figure32, mux_row, table31_row, table32_row, write_bdd_json,
    write_parallel_json, write_reach_json, write_sat_json, Table31Options,
};
use symbi_circuits::{industrial, iscas_like};
use symbi_synth::flow::SynthesisOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let per_kind = args.iter().any(|a| a == "--per-kind");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let corpus_dir = args
        .iter()
        .position(|a| a == "--corpus-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--seed expects a number, got `{v}`");
                std::process::exit(2);
            }
        });
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| match v.parse::<usize>() {
            Ok(0) => symbi_bdd::par::available_jobs(),
            Ok(n) => n,
            Err(_) => {
                eprintln!("--jobs expects a number, got `{v}`");
                std::process::exit(2);
            }
        })
        .unwrap_or(1);
    let what = args
        .iter()
        .enumerate()
        .find(|&(i, a)| {
            let is_flag_value = i > 0
                && (args[i - 1] == "--out"
                    || args[i - 1] == "--jobs"
                    || args[i - 1] == "--seed"
                    || args[i - 1] == "--corpus-dir");
            !a.starts_with("--") && !is_flag_value
        })
        .map(|(_, a)| a.as_str())
        .unwrap_or("all");
    let out_or = |default: &str| out_path.clone().unwrap_or_else(|| default.to_string());

    match what {
        "mux-table" => mux_table(quick),
        "adder-table" => adder_table(quick),
        "table31" => table31(quick, per_kind, jobs),
        "table32" => table32(quick, jobs),
        "figure31" => print_figure31(),
        "figure32" => print_figure32(),
        "sat-stats" => sat_stats(quick, &out_or("BENCH_sat.json")),
        "parallel" => parallel(quick, jobs, &out_or("BENCH_parallel.json")),
        "bdd-bench" => bdd_bench(quick, &out_or("BENCH_bdd.json")),
        "reach-bench" => reach_bench(quick, &out_or("BENCH_reach.json")),
        "chaos" => chaos(quick, seed, &out_or("BENCH_chaos.json")),
        "corpus" => {
            corpus(quick, jobs, seed, corpus_dir.clone(), &out_or("BENCH_corpus.json"))
        }
        "sweep-bench" => sweep_bench(quick, seed, &out_or("BENCH_sweep.json")),
        "all" => {
            print_figure31();
            print_figure32();
            mux_table(quick);
            adder_table(quick);
            table31(quick, per_kind, jobs);
            table32(quick, jobs);
            sat_stats(quick, &out_or("BENCH_sat.json"));
            bdd_bench(quick, &out_or("BENCH_bdd.json"));
            reach_bench(quick, &out_or("BENCH_reach.json"));
            chaos(quick, seed, &out_or("BENCH_chaos.json"));
            corpus(quick, jobs, seed, corpus_dir.clone(), &out_or("BENCH_corpus.json"));
            sweep_bench(quick, seed, &out_or("BENCH_sweep.json"));
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: repro [all|mux-table|adder-table|table31|table32|figure31|figure32|sat-stats|parallel|bdd-bench|reach-bench|chaos|corpus|sweep-bench] [--quick] [--per-kind] [--jobs <N>] [--seed <N>] [--out <path>] [--corpus-dir <dir>]"
            );
            std::process::exit(2);
        }
    }
}

fn corpus(quick: bool, jobs: usize, seed: Option<u64>, corpus_dir: Option<String>, out_path: &str) {
    use symbi_bench::corpus::{write_corpus_json, CorpusOptions};
    let mut options = CorpusOptions { quick, jobs, ..Default::default() };
    if let Some(s) = seed {
        options.seed = s;
    }
    // Default to the checked-in seed corpus when running from the repo
    // root; an explicit --corpus-dir always wins.
    options.corpus_dir = match corpus_dir {
        Some(d) => Some(d.into()),
        None => {
            let default = std::path::PathBuf::from("tests/corpus");
            default.is_dir().then_some(default)
        }
    };
    println!(
        "\n=== Corpus differential sweep: symbi vs greedy × backends × budgets, seed {} (written to {out_path}) ===",
        options.seed
    );
    println!(
        "{:>14} {:>6} {:>10} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>6} {:>6}",
        "Circuit", "Src", "Backend", "Budget", "Orig", "Base", "Opt", "Swept", "A-rat", "D-rat",
        "Merge", "Skip", "Resc", "SEC", "Repro"
    );
    let report = match write_corpus_json(std::path::Path::new(out_path), &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("corpus sweep failed: {e}");
            std::process::exit(1);
        }
    };
    for r in &report.rows {
        println!(
            "{:>14} {:>6} {:>10} {:>9} {:>6} {:>6} {:>6} {:>6} {:>6.3} {:>6.3} {:>5} {:>5} {:>5} {:>6} {:>6}",
            r.circuit,
            if r.source == "generated" { "gen" } else { "aiger" },
            r.backend,
            r.budget,
            r.orig_ands,
            r.base_ands,
            r.opt_ands,
            r.swept_ands,
            r.area_ratio(),
            r.depth_ratio(),
            r.sweep_merges,
            r.skipped,
            r.rescued,
            if r.sec_ok && r.base_sec_ok && r.swept_sec_ok { "ok" } else { "FAIL" },
            if r.reproducible && r.backend_agrees { "ok" } else { "FAIL" },
        );
    }
    println!(
        "Summary: {} rows over {} circuits ({} from AIGER files) — {} SEC mismatches, {} backend disagreements, {} non-reproducible ({:.1}s)",
        report.rows.len(),
        report.circuits,
        report.aiger_circuits,
        report.sec_mismatches(),
        report.backend_disagreements(),
        report.non_reproducible(),
        report.seconds,
    );
    if report.red_rows() > 0 {
        eprintln!("corpus sweep has {} red rows — failing the run", report.red_rows());
        std::process::exit(1);
    }
}

fn sweep_bench(quick: bool, seed: Option<u64>, out_path: &str) {
    use symbi_bench::sweep_bench::write_sweep_bench_json;
    let seed = seed.unwrap_or(0xC0DE_C0DE);
    println!(
        "\n=== SAT sweeping: unswept vs swept flow on the duplicate-heavy suite, seed {seed} (written to {out_path}) ==="
    );
    println!(
        "{:>12} {:>10} {:>6} {:>8} {:>6} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>7} {:>6} {:>6}",
        "Circuit", "Src", "Orig", "Unswept", "Swept", "A-rat", "Merge", "SAT", "Cex",
        "Unsw(s)", "Swp(s)", "Spdup", "SEC", "Repro"
    );
    let rows = write_sweep_bench_json(std::path::Path::new(out_path), quick, seed)
        .expect("failed to write BENCH_sweep.json");
    let (mut unswept_total, mut swept_total) = (0.0f64, 0.0f64);
    for r in &rows {
        println!(
            "{:>12} {:>10} {:>6} {:>8} {:>6} {:>6.3} {:>6} {:>5} {:>5} {:>9.3} {:>9.3} {:>7.2} {:>6} {:>6}",
            r.name,
            if r.source == "two_block" { "2blk" } else { "gen" },
            r.orig_ands,
            r.unswept_ands,
            r.swept_ands,
            r.area_ratio(),
            r.merges,
            r.sat_calls,
            r.cex_patterns,
            r.unswept_seconds,
            r.swept_seconds,
            r.speedup(),
            if r.sec_ok { "ok" } else { "FAIL" },
            if r.reproducible && r.jobs_identical { "ok" } else { "FAIL" },
        );
        unswept_total += r.unswept_seconds;
        swept_total += r.swept_seconds;
    }
    let merged: usize = rows.iter().map(|r| r.merges).sum();
    println!(
        "Total: {merged} merges; {unswept_total:.3}s unswept vs {swept_total:.3}s swept ({:.2}x)",
        unswept_total / swept_total.max(1e-9)
    );
    let red = rows.iter().filter(|r| r.red()).count();
    if red > 0 {
        eprintln!("sweep benchmark has {red} red rows — failing the run");
        std::process::exit(1);
    }
}

fn chaos(quick: bool, seed: Option<u64>, out_path: &str) {
    use symbi_bench::chaos::{write_chaos_json, ChaosOptions};
    let mut options = ChaosOptions { quick, ..Default::default() };
    if let Some(s) = seed {
        options.seed = s;
    }
    println!(
        "\n=== Chaos sweep: fault-injection soundness audit, seed {} (written to {out_path}) ===",
        options.seed
    );
    println!(
        "{:>12} {:>16} {:>4} {:>8} {:>6} {:>7} {:>8} {:>7} {:>8} {:>10}",
        "Circuit", "Site", "Occ", "Kind", "Fired", "Panics", "Skipped", "Bailed", "Retries",
        "Violations"
    );
    let report =
        write_chaos_json(std::path::Path::new(out_path), &options).expect("failed to write BENCH_chaos.json");
    for c in &report.cells {
        println!(
            "{:>12} {:>16} {:>4} {:>8} {:>6} {:>7} {:>8} {:>7} {:>8} {:>10}",
            c.circuit,
            c.site,
            c.occurrence,
            c.kind,
            c.fired,
            c.worker_panics,
            c.candidates_skipped,
            c.bailed_out,
            c.retries,
            c.violations.len(),
        );
        for v in &c.violations {
            println!("{:>12}   VIOLATION: {v}", "");
        }
    }
    println!(
        "Summary: {} cells, {} fired, {} violations, {} hangs, {} escaped panics ({:.1}s)",
        report.cells.len(),
        report.fired(),
        report.violations(),
        report.hangs(),
        report.escaped_panics(),
        report.seconds,
    );
    if report.violations() > 0 {
        eprintln!("chaos sweep found soundness violations — failing the run");
        std::process::exit(1);
    }
}

fn reach_bench(quick: bool, out_path: &str) {
    println!("\n=== Image computation: per-bit schedule vs clustered engine (written to {out_path}) ===");
    println!(
        "{:>8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "Name", "PerBit(s)", "Clust(s)", "Speedup", "PeakPB", "PeakCl", "PeakRat", "#ClPB",
        "#ClCl", "MaxClNode"
    );
    let rows = write_reach_json(std::path::Path::new(out_path), quick)
        .expect("failed to write BENCH_reach.json");
    for r in &rows {
        println!(
            "{:>8} {:>10.3} {:>10.3} {:>8.2} {:>10} {:>10} {:>8.2} {:>8} {:>8} {:>10}",
            r.name,
            r.per_bit_seconds,
            r.clustered_seconds,
            r.speedup(),
            r.per_bit_peak_live,
            r.clustered_peak_live,
            r.peak_ratio(),
            r.per_bit_clusters,
            r.clustered_clusters,
            r.clustered_max_cluster_nodes,
        );
    }
    println!("(reached sets asserted identical per row)");
}

fn bdd_bench(quick: bool, out_path: &str) {
    println!("\n=== BDD kernel: pre-overhaul vs production (written to {out_path}) ===");
    println!(
        "{:>14} {:>10} {:>12} {:>12} {:>8} {:>10} {:>10} {:>6} {:>8}",
        "Workload", "Ops", "Before op/s", "After op/s", "Speedup", "PeakBefore", "PeakAfter",
        "GCs", "Hit%"
    );
    let rows = write_bdd_json(std::path::Path::new(out_path), quick)
        .expect("failed to write BENCH_bdd.json");
    for r in &rows {
        let lookups = r.cache_hits + r.cache_misses;
        let hit_pct = if lookups == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", 100.0 * r.cache_hits as f64 / lookups as f64)
        };
        println!(
            "{:>14} {:>10} {:>12.0} {:>12.0} {:>8.2} {:>10} {:>10} {:>6} {:>8}",
            r.name,
            r.ops,
            r.before_ops_per_sec(),
            r.after_ops_per_sec(),
            r.speedup(),
            r.before_peak_live,
            r.after_peak_live,
            r.gc_runs,
            hit_pct,
        );
    }
}

fn parallel(quick: bool, jobs: usize, out_path: &str) {
    let jobs = if jobs <= 1 { symbi_bdd::par::available_jobs() } else { jobs };
    println!("\n=== Parallel flow: jobs=1 vs jobs={jobs} (written to {out_path}) ===");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>8} {:>10}",
        "Name", "Jobs", "Seq(s)", "Par(s)", "Speedup", "Identical"
    );
    let rows = write_parallel_json(std::path::Path::new(out_path), jobs, quick)
        .expect("failed to write BENCH_parallel.json");
    let mut all_identical = true;
    for r in &rows {
        println!(
            "{:>8} {:>6} {:>10.3} {:>10.3} {:>8.2} {:>10}",
            r.name,
            r.jobs,
            r.seq_seconds,
            r.par_seconds,
            r.speedup(),
            r.identical,
        );
        all_identical &= r.identical;
    }
    let (seq, par): (f64, f64) =
        rows.iter().fold((0.0, 0.0), |(s, p), r| (s + r.seq_seconds, p + r.par_seconds));
    println!("Total: {seq:.3}s sequential, {par:.3}s parallel ({:.2}x)", seq / par);
    if !all_identical {
        eprintln!("parallel flow diverged from sequential output — failing the run");
        std::process::exit(1);
    }
}

fn sat_stats(quick: bool, out_path: &str) {
    println!("\n=== SAT engine statistics (written to {out_path}) ===");
    println!(
        "{:>24} {:>8} {:>9} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "Workload", "Verdict", "Time(s)", "Conflicts", "Decisions", "Propagations", "Restarts",
        "MaxLBD"
    );
    let rows = write_sat_json(std::path::Path::new(out_path), quick)
        .expect("failed to write BENCH_sat.json");
    for r in &rows {
        println!(
            "{:>24} {:>8} {:>9.4} {:>10} {:>10} {:>12} {:>8} {:>8}",
            r.name,
            r.verdict,
            r.seconds,
            r.stats.conflicts,
            r.stats.decisions,
            r.stats.propagations,
            r.stats.restarts,
            r.stats.max_lbd,
        );
    }
}

fn mux_table(quick: bool) {
    println!("\n=== §3.4.1: OR decomposition of multiplexers ===");
    println!(
        "{:>8} {:>6} {:>9} {:>9} {:>14} {:>12}",
        "Control", "Data", "BDD size", "Time(s)", "Best part.", "Choices"
    );
    let max_k = if quick { 4 } else { 6 };
    for k in 2..=max_k {
        let row = mux_row(k);
        println!(
            "{:>8} {:>6} {:>9} {:>9.2} {:>14} {:>12.3e}",
            row.control,
            row.data,
            row.bdd_size,
            row.seconds,
            format!("({}, {})", row.best.0, row.best.1),
            row.choices
        );
    }
    println!("(paper: best partitions (4,4)…(38,38), choices 6…1.8e18)");
}

fn adder_table(quick: bool) {
    println!("\n=== §3.4.2: XOR decomposition of 16-bit adder sum bits ===");
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "Sum bit", "Inputs", "Best part.", "Implicit(s)", "Greedy(s)", "Checks"
    );
    // Paper row labels are s2..s16 with 7..33 inputs; with our 0-based
    // sum-bit indexing the 33-input cone is bit 15.
    let bits: &[usize] = if quick { &[2, 4, 6] } else { &[2, 4, 6, 8, 15] };
    let budget = if quick { Duration::from_secs(5) } else { Duration::from_secs(60) };
    for &bit in bits {
        let row = adder_row(bit, budget);
        println!(
            "{:>8} {:>8} {:>12} {:>12.3} {:>12} {:>8}",
            format!("s{bit}"),
            row.inputs,
            format!("({}, {})", row.best.0, row.best.1),
            row.implicit_seconds,
            match row.greedy_seconds {
                Some(s) => format!("{s:.3}"),
                None => "timeout".to_string(),
            },
            row.greedy_checks
        );
    }
    println!("(paper: best partitions (2,5)…(2,31); greedy times out on s16)");
}

fn table31(quick: bool, per_kind: bool, jobs: usize) {
    println!("\n=== Table 3.1: bi-decomposition without / with state analysis ===");
    println!(
        "{:>8} {:>9} {:>8} | {:>6} {:>11} | {:>11} {:>6} {:>11}",
        "Name", "In/Out", "Latches", "#dec", "avg.reduct", "log2 states", "#dec", "avg.reduct"
    );
    let specs: Vec<_> = if quick {
        iscas_like::SPECS.iter().take(6).collect()
    } else {
        iscas_like::SPECS.iter().collect()
    };
    let mut opts = Table31Options::default();
    opts.reach.jobs = jobs;
    let mut sums = (0f64, 0f64, 0usize);
    for spec in specs {
        let netlist = iscas_like::generate(spec);
        let no_states = table31_row(&netlist, false, &opts);
        let with_states = table31_row(&netlist, true, &opts);
        println!(
            "{:>8} {:>9} {:>8} | {:>6} {:>11.3} | {:>11.1} {:>6} {:>11.3}",
            no_states.name,
            format!("{}/{}", no_states.io.0, no_states.io.1),
            no_states.latches,
            no_states.ndec,
            no_states.avg_reduct,
            with_states.log2_states.unwrap_or(f64::NAN),
            with_states.ndec,
            with_states.avg_reduct,
        );
        if per_kind {
            println!(
                "{:>8}   per-kind wins (OR/AND/XOR): no-states {:?}, with-states {:?}",
                "", no_states.kind_wins, with_states.kind_wins
            );
        }
        sums.0 += no_states.avg_reduct;
        sums.1 += with_states.avg_reduct;
        sums.2 += 1;
    }
    println!(
        "Average reduction: {:.3} (no states) vs {:.3} (with states); paper: 0.673 vs 0.540",
        sums.0 / sums.2 as f64,
        sums.1 / sums.2 as f64
    );
}

fn table32(quick: bool, jobs: usize) {
    println!("\n=== Table 3.2: Algorithm 1 on industrial-like blocks ===");
    println!(
        "{:>6} {:>9} {:>8} {:>6} | {:>9} {:>7} | {:>9} {:>7} | {:>6} {:>6}",
        "Name", "In/Out", "Latches", "AND", "Pre area", "delay", "Opt area", "delay", "A-rat",
        "D-rat"
    );
    let specs: Vec<_> = if quick {
        industrial::SPECS.iter().filter(|s| s.and_nodes < 1500).collect()
    } else {
        industrial::SPECS.iter().collect()
    };
    let opts = SynthesisOptions { jobs, ..Default::default() };
    let mut ratios = (0f64, 0f64, 0usize);
    for spec in specs {
        let netlist = industrial::generate(spec);
        let row = table32_row(&netlist, &opts);
        println!(
            "{:>6} {:>9} {:>8} {:>6} | {:>9.0} {:>7.1} | {:>9.0} {:>7.1} | {:>6.3} {:>6.3}",
            row.name,
            format!("{}/{}", row.io.0, row.io.1),
            row.latches,
            row.ands,
            row.pre_area,
            row.pre_delay,
            row.opt_area,
            row.opt_delay,
            row.area_ratio(),
            row.delay_ratio(),
        );
        ratios.0 += row.area_ratio();
        ratios.1 += row.delay_ratio();
        ratios.2 += 1;
    }
    println!(
        "Average reduction: area {:.3}, delay {:.3}; paper: 0.88 and 0.94",
        ratios.0 / ratios.2 as f64,
        ratios.1 / ratios.2 as f64
    );
}

fn print_figure31() {
    let fig = figure31();
    println!("\n=== Figure 3.1: maj(a,b,c) with unreachable state a·b̄·c ===");
    println!("exact best balanced partition: {:?} (none exists)", fig.exact_best);
    println!("with don't care:              {:?}", fig.dc_best);
    println!("decomposition: {} ({} gates)", fig.tree, fig.gates);
}

fn print_figure32() {
    let fig = figure32();
    println!("\n=== Figure 3.2: decomposition re-using existing logic ===");
    println!(
        "sharing hits {} — gates {} → {}",
        fig.sharing_hits, fig.gates_before, fig.gates_after
    );
}
