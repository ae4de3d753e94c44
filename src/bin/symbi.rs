//! `symbi` — command-line front end to the synthesis suite.
//!
//! ```text
//! symbi stats     <file>
//! symbi convert   <in> <out>
//! symbi optimize  <in> [-o <out>] [--no-states] [--max-support N] [--no-xor]
//!                 [--sweep] [--sweep-rounds N] [--sweep-conflicts N]
//!                 [--dec-backend bdd|sat] [--sat-conflicts N]
//!                 [--budget-steps N] [--budget-nodes N] [--timeout-ms N]
//!                 [--jobs N] [--cache-bits N]
//!                 [--no-auto-gc] [--auto-reorder] [--cluster-limit N]
//!                 [--fault-plan site:occurrence:kind ...] [--fault-seed N]
//! symbi check     <a> <b> [--frames N] [--exact]
//! symbi decompose <file> --signal <name> [--kind or|and|xor] [--dc]
//! ```
//!
//! The `--budget-*` and `--timeout-ms` knobs bound the optimizer: a
//! candidate whose budget runs out keeps its original logic, so the run
//! always finishes with a correct netlist.
//!
//! `--jobs N` runs reachability partitions and candidate decompositions
//! on `N` worker threads (`0` = all cores); the output netlist is
//! byte-identical to a single-threaded run.
//!
//! `--sweep` turns on the FRAIG-style SAT-sweeping pre-pass: seeded
//! word-parallel simulation groups gates into candidate equivalence
//! classes (up to negation) and one persistent incremental CDCL solver
//! refines them pairwise, merging every proven-equal pair before the
//! symbolic flow starts. `--sweep-rounds N` caps the
//! simulate-refine-resimulate loop and `--sweep-conflicts N` budgets
//! each pairwise query; an undecided pair is soundly left unmerged, and
//! a swept run is still byte-identical across `--jobs` counts.
//!
//! `--dec-backend` arms the decomposability *rescue rung*: when the
//! symbolic partition search exhausts its budget, `sat` proves a fixed
//! midpoint split with the CDCL solver before the ladder degrades to
//! greedy growth; `bdd` (the default) skips the rung. `--sat-conflicts N`
//! caps solver effort per check.
//!
//! The BDD kernel knobs tune the reachability managers: `--cache-bits N`
//! caps the computed table at `2^N` entries, `--no-auto-gc` disables the
//! automatic mark-and-sweep collector (`--auto-gc` re-enables it), and
//! `--auto-reorder` turns on threshold-triggered in-place sifting.
//! `--cluster-limit N` caps each transition-relation cluster of the
//! image engine at `N` BDD nodes (`0` = per-bit schedule, no
//! clustering).
//!
//! `--fault-plan site:occurrence:kind` (repeatable) arms a deterministic
//! injected fault — e.g. `--fault-plan bdd.apply:100:budget` trips the
//! 100th apply-level checkpoint as a step-budget exhaustion — to
//! exercise the flow's degradation ladder from the command line;
//! `--fault-seed N` tags the plan for replayable sweeps. The run still
//! finishes with a correct netlist (degraded cones keep their original
//! logic) and reports how many faults actually fired.
//!
//! `optimize` rejects any flag it does not know (exit 1), so a typo
//! never runs silently with the default.
//!
//! `decompose --dc` widens the signal's specification with
//! unreachable-state don't cares before computing the choices — the
//! paper's Figure 3.1 flow on your own netlist.
//!
//! Netlist formats are chosen by extension: `.bench` (ISCAS-89),
//! `.blif`, `.aag` (ASCII AIGER), or `.aig` (binary AIGER). `convert`
//! translates between any pair, so `symbi convert design.aig
//! design.bench` imports an HWMCC-style benchmark into the ISCAS world
//! and vice versa.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use symbi::bdd::Manager;
use symbi::core::{and_dec, or_dec, xor_dec, Interval};
use symbi::netlist::cone::ConeExtractor;
use symbi::netlist::{aiger, bench, blif, clean, sec, stats, Netlist};
use symbi::reach::Reachability;
use symbi::synth::flow::{optimize, SynthesisOptions};
use symbi::synth::genlib::Library;
use symbi::synth::map::{map, MapMode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("symbi: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  symbi stats     <file>
  symbi convert   <in> <out>
  symbi optimize  <in> [-o <out>] [--no-states] [--max-support N] [--no-xor]
                  [--sweep] [--sweep-rounds N] [--sweep-conflicts N]
                  [--dec-backend bdd|sat] [--sat-conflicts N]
                  [--budget-steps N] [--budget-nodes N] [--timeout-ms N]
                  [--jobs N] [--cache-bits N]
                  [--no-auto-gc] [--auto-reorder] [--cluster-limit N]
                  [--fault-plan site:occurrence:kind ...] [--fault-seed N]
  symbi check     <a> <b> [--frames N] [--exact]
  symbi decompose <file> --signal <name> [--kind or|and|xor] [--dc]";

fn load(path: &str) -> Result<Netlist, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let ext = Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("");
    // Binary AIGER is the one format that is not UTF-8 text.
    if ext == "aig" || ext == "aag" || bytes.starts_with(b"aig ") {
        return aiger::parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| format!("{path}: not valid UTF-8 text: {e}"))?;
    match ext {
        "blif" => blif::parse(&text).map_err(|e| format!("{path}: {e}")),
        _ => bench::parse(&text).map_err(|e| format!("{path}: {e}")),
    }
}

fn save(n: &Netlist, path: &str) -> Result<(), String> {
    let ext = Path::new(path).extension().and_then(|e| e.to_str()).unwrap_or("");
    let bytes = match ext {
        "blif" => blif::write(n).into_bytes(),
        "aag" => aiger::write_ascii(n).into_bytes(),
        "aig" => aiger::write_binary(n),
        _ => bench::write(n).into_bytes(),
    };
    std::fs::write(path, bytes).map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.as_str())),
            None => Err(format!("{name} requires a value")),
        },
    }
}

/// `optimize` flags that take no value.
const OPTIMIZE_SWITCHES: &[&str] = &[
    "--no-states",
    "--no-xor",
    "--sweep",
    "--no-auto-gc",
    "--auto-gc",
    "--auto-reorder",
];

/// `optimize` flags followed by exactly one value.
const OPTIMIZE_VALUED: &[&str] = &[
    "-o",
    "--max-support",
    "--sweep-rounds",
    "--sweep-conflicts",
    "--dec-backend",
    "--sat-conflicts",
    "--budget-steps",
    "--budget-nodes",
    "--timeout-ms",
    "--jobs",
    "--cache-bits",
    "--cluster-limit",
    "--fault-plan",
    "--fault-seed",
];

/// Rejects every `optimize` argument after the input file that is not a
/// known flag (with its value), so a typo fails instead of being ignored.
fn check_optimize_flags(args: &[String]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        if OPTIMIZE_VALUED.contains(&a.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{a} requires a value"));
            }
        } else if !OPTIMIZE_SWITCHES.contains(&a.as_str()) {
            return Err(format!("unknown option `{a}`\n{USAGE}"));
        }
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats: missing file")?;
    let n = load(path)?;
    let s = stats::stats(&n);
    println!("{}: {}", n.name(), s);
    let (cleaned, report) = clean::clean(&n);
    let cs = stats::stats(&cleaned);
    println!("after cleanup: {cs}");
    println!(
        "  removed: {} dead, {} constant, {} cloned latches; {} gates",
        report.dead_latches, report.constant_latches, report.cloned_latches,
        report.gates_removed
    );
    let reach = Reachability::analyze(&cleaned, Default::default());
    let rs = reach.stats();
    println!(
        "reachable states: 2^{:.1} of 2^{} ({} partitions, {} image iterations{})",
        rs.log2_states,
        cs.latches,
        rs.partitions,
        rs.iterations,
        if rs.bailed_out > 0 { ", some approximated" } else { "" }
    );
    let mapped = map(&cleaned, &Library::mcnc_like(), MapMode::Area);
    println!("mapped (mcnc-like): area {:.1}, delay {:.1}, {} cells", mapped.area, mapped.delay, mapped.cells);
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("convert: expected <in> <out>".into());
    };
    let n = load(input)?;
    save(&n, output)?;
    println!("wrote {output}");
    Ok(())
}

fn cmd_optimize(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("optimize: missing file")?;
    check_optimize_flags(args)?;
    let n = load(path)?;
    let mut options = SynthesisOptions::default();
    if args.iter().any(|a| a == "--no-states") {
        options.reach = None;
    }
    if args.iter().any(|a| a == "--no-xor") {
        options.decompose.use_xor = false;
    }
    if let Some(v) = flag_value(args, "--max-support")? {
        options.max_cone_support =
            v.parse().map_err(|e| format!("--max-support: {e}"))?;
    }
    if args.iter().any(|a| a == "--sweep") {
        options.sweep = true;
    }
    if let Some(v) = flag_value(args, "--sweep-rounds")? {
        options.sweep_rounds = v.parse().map_err(|e| format!("--sweep-rounds: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--sweep-conflicts")? {
        options.sweep_conflicts =
            v.parse().map_err(|e| format!("--sweep-conflicts: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--dec-backend")? {
        options.decompose.backend = v.parse().map_err(|e| format!("--dec-backend: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--sat-conflicts")? {
        options.decompose.sat_conflicts =
            v.parse().map_err(|e| format!("--sat-conflicts: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--budget-steps")? {
        options.budget.candidate_steps =
            v.parse().map_err(|e| format!("--budget-steps: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--budget-nodes")? {
        options.budget.node_limit =
            v.parse().map_err(|e| format!("--budget-nodes: {e}"))?;
    }
    if let Some(v) = flag_value(args, "--timeout-ms")? {
        let ms: u64 = v.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
        options.budget.timeout = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(v) = flag_value(args, "--jobs")? {
        options.jobs = match v.parse().map_err(|e| format!("--jobs: {e}"))? {
            0 => symbi::bdd::par::available_jobs(),
            j => j,
        };
    }
    if let Some(reach) = options.reach.as_mut() {
        if let Some(v) = flag_value(args, "--cache-bits")? {
            reach.kernel.cache_bits = v.parse().map_err(|e| format!("--cache-bits: {e}"))?;
        }
        if args.iter().any(|a| a == "--no-auto-gc") {
            reach.kernel.auto_gc = false;
        }
        if args.iter().any(|a| a == "--auto-gc") {
            reach.kernel.auto_gc = true;
        }
        if args.iter().any(|a| a == "--auto-reorder") {
            reach.kernel.auto_reorder = true;
        }
        if let Some(v) = flag_value(args, "--cluster-limit")? {
            reach.cluster_limit = v.parse().map_err(|e| format!("--cluster-limit: {e}"))?;
        }
    }
    // Repeatable `--fault-plan site:occurrence:kind` rules arm a
    // deterministic fault-injection plan on the run's governor.
    let mut fault_rules: Vec<symbi::bdd::FaultRule> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--fault-plan" {
            let v = args.get(i + 1).ok_or("--fault-plan requires a value")?;
            fault_rules.push(v.parse().map_err(|e| format!("--fault-plan: {e}"))?);
        }
    }
    let fault_seed: u64 = match flag_value(args, "--fault-seed")? {
        Some(v) => v.parse().map_err(|e| format!("--fault-seed: {e}"))?,
        None => 0,
    };
    let before = stats::stats(&n);
    let library = Library::mcnc_like();
    let (pre, _) = clean::clean(&n);
    let pre_mapped = map(&pre, &library, MapMode::Area);
    let (optimized, report) = if fault_rules.is_empty() {
        optimize(&n, &options)
    } else {
        let mut plan = symbi::bdd::FaultPlan::new(fault_seed);
        for rule in fault_rules {
            plan = plan.with_parsed_rule(rule);
        }
        let plan = std::sync::Arc::new(plan);
        let gov = options.budget.governor().with_fault_plan(std::sync::Arc::clone(&plan));
        let out = symbi::synth::flow::optimize_governed(&n, &options, &gov);
        println!(
            "fault injection: {} fault(s) fired, {} worker panic(s) absorbed",
            plan.faults_fired(),
            out.1.worker_panics
        );
        out
    };
    let after = stats::stats(&optimized);
    let post_mapped = map(&optimized, &library, MapMode::Area);
    println!("before: {before}");
    println!("after:  {after}");
    println!(
        "candidates {} — decomposed {}, rejected {}, skipped {}, sharing hits {}",
        report.candidates, report.decomposed, report.rejected, report.skipped_wide,
        report.sharing_hits
    );
    println!("log2(reachable states) = {:.1}", report.log2_states);
    if options.sweep {
        let s = &report.sweep;
        if s.degraded {
            println!("sweep: degraded (resources ran out), flow continued unswept");
        } else {
            println!(
                "sweep: {} class(es), {} merge(s), {} SAT call(s), \
                 {} counterexample pattern(s), {} undecided",
                s.classes, s.merges, s.sat_calls, s.cex_patterns, s.undecided
            );
        }
    }
    if report.budget_exhausted_ops > 0 || report.candidates_skipped > 0 {
        println!(
            "budget: {} candidates kept original logic, {} exhausted ops, {} fallbacks",
            report.candidates_skipped, report.budget_exhausted_ops, report.fallbacks_taken
        );
    }
    if report.steps.rescued_checks > 0 {
        println!(
            "rescue rung: {} partition(s) saved",
            report.steps.rescued_checks
        );
    }
    println!(
        "mapped area {:.1} → {:.1} ({:.3}), delay {:.1} → {:.1} ({:.3})",
        pre_mapped.area,
        post_mapped.area,
        post_mapped.area / pre_mapped.area,
        pre_mapped.delay,
        post_mapped.delay,
        post_mapped.delay / pre_mapped.delay
    );
    if let Some(out) = flag_value(args, "-o")? {
        save(&optimized, out)?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let (Some(pa), Some(pb)) = (args.first(), args.get(1)) else {
        return Err("check: expected <a> <b>".into());
    };
    let a = load(pa)?;
    let b = load(pb)?;
    if args.iter().any(|x| x == "--exact") {
        match sec::product_machine_check(&a, &b, 100_000) {
            Some(true) => println!("EQUIVALENT (product-machine reachability)"),
            Some(false) => {
                println!("NOT EQUIVALENT");
                return Err("designs differ".into());
            }
            None => return Err("inconclusive: iteration cap reached".into()),
        }
        return Ok(());
    }
    let frames = match flag_value(args, "--frames")? {
        Some(v) => v.parse().map_err(|e| format!("--frames: {e}"))?,
        None => 16,
    };
    match sec::bounded_check(&a, &b, frames) {
        sec::SecResult::Equivalent => {
            println!("EQUIVALENT for {frames} frames (bounded check)");
            Ok(())
        }
        sec::SecResult::Counterexample { trace, output } => {
            println!("NOT EQUIVALENT: output #{output} differs after {} frames", trace.len());
            for (t, frame) in trace.iter().enumerate() {
                let bits: String =
                    frame.iter().map(|&b| if b { '1' } else { '0' }).collect();
                println!("  frame {t}: inputs {bits}");
            }
            Err("designs differ".into())
        }
    }
}

fn cmd_decompose(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("decompose: missing file")?;
    let signal_name = flag_value(args, "--signal")?.ok_or("decompose: missing --signal")?;
    let kind = flag_value(args, "--kind")?.unwrap_or("or");
    let n = load(path)?;
    let sig = n
        .signal(signal_name)
        .ok_or_else(|| format!("no signal named `{signal_name}`"))?;
    let mut m = Manager::new();
    let mut ext = ConeExtractor::with_default_layout(&n, &mut m);
    let f = ext.bdd(&mut m, sig);
    let support = m.support(f);
    println!("{signal_name}: {} support variables, {} BDD nodes", support.len(), m.size(f));
    // Map variables back to leaf names for readable output.
    let names: HashMap<_, _> = ext
        .var_map()
        .iter()
        .map(|(&s, &v)| (v, n.signal_name(s).to_string()))
        .collect();
    let spec = if args.iter().any(|a| a == "--dc") {
        let mut reach = Reachability::analyze(&n, Default::default());
        let ps = n.support_ps(sig);
        let var_of: HashMap<_, _> = ps
            .iter()
            .map(|&l| (l, ext.var_of(l).expect("latch leaves are mapped")))
            .collect();
        let care = reach.care_set(&ps, &mut m, &var_of);
        let unreachable = m.not(care);
        let dc_states = m.sat_fraction(unreachable);
        println!("unreachable don't cares cover {:.1}% of the space", dc_states * 100.0);
        Interval::with_dontcare(&mut m, f, unreachable)
    } else {
        Interval::exact(f)
    };
    let mut choices = match kind {
        "or" => or_dec::Choices::compute(&mut m, &spec, &support),
        "and" => and_dec::Choices::compute(&mut m, &spec, &support),
        "xor" => xor_dec::Choices::compute(&mut m, &spec, &support),
        other => return Err(format!("--kind: expected or|and|xor, got `{other}`")),
    };
    println!("Bi BDD size: {}", choices.bi_size());
    let pairs = choices.feasible_pairs(true);
    println!("non-dominated feasible size pairs: {pairs:?}");
    match choices.pick_balanced_partition() {
        Some(p) => {
            let pretty = |vars: &[symbi::bdd::VarId]| -> Vec<&str> {
                vars.iter().map(|v| names[v].as_str()).collect()
            };
            println!("best balanced partition {:?}:", p.sizes());
            println!("  supp(g1) = {:?}", pretty(&p.g1_vars));
            println!("  supp(g2) = {:?}", pretty(&p.g2_vars));
            println!("  shared   = {:?}", pretty(&p.shared()));
        }
        None => println!("no non-trivial {kind} decomposition exists"),
    }
    Ok(())
}
