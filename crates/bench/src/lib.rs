//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each function here computes one row (or one figure's data) exactly as
//! the corresponding evaluation in the paper describes; the `repro` binary
//! prints them in the paper's layout and the Criterion benches time them.
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | §3.4.1 multiplexer profile | [`mux_row`] |
//! | §3.4.2 adder XOR profile   | [`adder_row`] |
//! | Table 3.1                  | [`table31_row`] |
//! | Table 3.2                  | [`table32_row`] |
//! | Figure 3.1                 | [`figure31`] |
//! | Figure 3.2                 | [`figure32`] |
//!
//! [`sat_stats_rows`] additionally profiles the CDCL engine on the
//! paper-style workloads (decomposability checks, core-guided partition
//! growth, SAT-based bounded SEC) and [`write_sat_json`] dumps the
//! result as machine-readable `BENCH_sat.json` for trend tracking.

pub mod baseline;
pub mod chaos;
pub mod corpus;
pub mod sweep_bench;

use std::collections::HashMap;
use std::time::{Duration, Instant};
use symbi_bdd::{KernelConfig, Manager, NodeId, VarId};
use symbi_circuits::{adder, mux};
use symbi_core::{and_dec, greedy, or_dec, recursive, xor_dec, DecKind, Interval};
use symbi_netlist::clean::clean;
use symbi_netlist::cone::ConeExtractor;
use symbi_netlist::{Netlist, NodeKind, SignalId};
use symbi_reach::{Reachability, ReachabilityOptions};
use symbi_synth::flow::{optimize, SynthesisOptions};
use symbi_synth::genlib::Library;
use symbi_synth::map::{map, MapMode};

// ---------------------------------------------------------------------
// §3.4.1: multiplexer OR-decomposition profile
// ---------------------------------------------------------------------

/// One row of the §3.4.1 multiplexer table.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxRow {
    /// Control width `k`.
    pub control: usize,
    /// Data width `2^k`.
    pub data: usize,
    /// Nodes of the computed `Bi` BDD.
    pub bdd_size: usize,
    /// Wall-clock seconds for the `Bi` computation.
    pub seconds: f64,
    /// Best balanced partition `(|x1|, |x2|)`.
    pub best: (usize, usize),
    /// Number of feasible decompositions at the best sizes.
    pub choices: f64,
}

/// Computes the multiplexer profile row for control width `k`.
pub fn mux_row(k: usize) -> MuxRow {
    let netlist = mux::mux(k);
    let mut m = Manager::new();
    let mut ext = ConeExtractor::with_default_layout(&netlist, &mut m);
    let f_sig = netlist.outputs()[0].1;
    let f = ext.bdd(&mut m, f_sig);
    let vars: Vec<VarId> = (0..m.num_vars() as u32).map(VarId).collect();
    let interval = Interval::exact(f);
    let start = Instant::now();
    let mut choices = or_dec::Choices::compute(&mut m, &interval, &vars);
    let bdd_size = choices.bi_size();
    let best = choices.best_balanced().expect("multiplexers OR-decompose");
    let seconds = start.elapsed().as_secs_f64();
    let count = choices.count_choices(best.0, best.1);
    MuxRow { control: k, data: 1 << k, bdd_size, seconds, best, choices: count }
}

// ---------------------------------------------------------------------
// §3.4.2: adder sum-bit XOR profile
// ---------------------------------------------------------------------

/// One row of the §3.4.2 adder table.
#[derive(Debug, Clone, PartialEq)]
pub struct AdderRow {
    /// Sum-bit index (`s2`, `s4`, …).
    pub sum_bit: usize,
    /// Inputs of the bit's cone (`2i + 3`).
    pub inputs: usize,
    /// Best partition from the implicit computation.
    pub best: (usize, usize),
    /// Implicit (symbolic `Bi`) runtime, seconds.
    pub implicit_seconds: f64,
    /// Greedy check runtime, seconds; `None` when it timed out.
    pub greedy_seconds: Option<f64>,
    /// Decomposability checks the greedy search performed.
    pub greedy_checks: usize,
}

/// Computes the adder profile row for sum bit `i`, giving the greedy
/// comparator the supplied time budget.
pub fn adder_row(bit: usize, greedy_budget: Duration) -> AdderRow {
    let netlist = adder::ripple_carry(bit + 1);
    let mut m = Manager::new();
    let mut ext = ConeExtractor::with_default_layout(&netlist, &mut m);
    let sig = netlist.signal(&format!("s{bit}")).expect("sum bit exists");
    let f = ext.bdd(&mut m, sig);
    let support = m.support(f);
    let interval = Interval::exact(f);

    let start = Instant::now();
    let mut choices = xor_dec::Choices::compute(&mut m, &interval, &support);
    let best = choices.best_balanced().expect("sum bits XOR-decompose");
    let implicit_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    // The baseline uses the explicit cofactor-enumeration check of the
    // DAC'01 implementation the paper profiles, which is what blows up on
    // the wide sum bits.
    let greedy_result = greedy::grow_styled(
        &mut m,
        DecKind::Xor,
        &interval,
        &support,
        greedy_budget,
        greedy::CheckStyle::ExplicitCofactor,
    );
    let (greedy_seconds, greedy_checks) = match greedy_result {
        greedy::GreedyResult::Found(o) => (Some(start.elapsed().as_secs_f64()), o.checks),
        greedy::GreedyResult::Infeasible => (Some(start.elapsed().as_secs_f64()), 0),
        greedy::GreedyResult::TimedOut { checks } => (None, checks),
    };
    AdderRow {
        sum_bit: bit,
        inputs: support.len(),
        best,
        implicit_seconds,
        greedy_seconds,
        greedy_checks,
    }
}

// ---------------------------------------------------------------------
// Table 3.1: bi-decomposition with and without state analysis
// ---------------------------------------------------------------------

/// Options for the Table 3.1 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table31Options {
    /// Functions with more support variables than this are skipped (the
    /// paper caps per-circuit decomposition time instead).
    pub max_support: usize,
    /// Reachability configuration for the "with states" arm.
    pub reach: ReachabilityOptions,
    /// Try XOR in addition to OR/AND (XOR `Bi` is the widest computation).
    pub use_xor: bool,
}

impl Default for Table31Options {
    fn default() -> Self {
        Table31Options {
            max_support: 12,
            reach: ReachabilityOptions {
                partition: symbi_reach::PartitionOptions { max_latches: 40 },
                ..Default::default()
            },
            use_xor: true,
        }
    }
}

/// One arm (with or without states) of a Table 3.1 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table31Row {
    /// Circuit name.
    pub name: String,
    /// Inputs / outputs.
    pub io: (usize, usize),
    /// Latches after structural cleanup.
    pub latches: usize,
    /// Candidate functions examined.
    pub functions: usize,
    /// Functions with a non-trivial decomposition (`#dec.`).
    pub ndec: usize,
    /// Average `max(|x1|,|x2|)/|supp f|` over decomposed functions.
    pub avg_reduct: f64,
    /// `log2` of the reachable-state estimate; `None` in the no-states arm.
    pub log2_states: Option<f64>,
    /// Per-kind counts of which primitive won each decomposed function.
    pub kind_wins: [usize; 3],
}

/// Runs one Table 3.1 arm on a circuit.
pub fn table31_row(netlist: &Netlist, with_states: bool, options: &Table31Options) -> Table31Row {
    let (cleaned, _) = clean(netlist);
    let mut reach = if with_states {
        Reachability::analyze(&cleaned, options.reach)
    } else {
        Reachability::trivial(&cleaned)
    };
    let log2_states = with_states.then(|| reach.log2_states());

    let mut m = Manager::new();
    let mut ext = ConeExtractor::with_dfs_layout(&cleaned, &mut m);
    let var_of_latch: HashMap<SignalId, VarId> = cleaned
        .latches()
        .iter()
        .map(|&l| (l, ext.var_of(l).expect("layout covers latches")))
        .collect();

    let mut candidates: Vec<SignalId> = cleaned
        .latches()
        .iter()
        .map(|&l| cleaned.latch_next(l).expect("validated"))
        .collect();
    candidates.extend(cleaned.outputs().iter().map(|&(_, s)| s));
    candidates.sort_unstable();
    candidates.dedup();

    let mut functions = 0usize;
    let mut ndec = 0usize;
    let mut ratio_sum = 0f64;
    let mut kind_wins = [0usize; 3];
    for &sig in &candidates {
        let supp = cleaned.support(sig);
        let n = supp.len();
        if n < 2 || n > options.max_support {
            continue;
        }
        functions += 1;
        let f = ext.bdd(&mut m, sig);
        let ps: Vec<SignalId> = supp
            .iter()
            .copied()
            .filter(|s| matches!(cleaned.kind(*s), NodeKind::Latch { .. }))
            .collect();
        let care = reach.care_set(&ps, &mut m, &var_of_latch);
        let unreachable = m.not(care);
        let interval = Interval::with_dontcare(&mut m, f, unreachable);
        if let Some((kind, maxk)) = best_decomposition(&mut m, &interval, options.use_xor) {
            ndec += 1;
            ratio_sum += maxk as f64 / n as f64;
            kind_wins[match kind {
                DecKind::Or => 0,
                DecKind::And => 1,
                DecKind::Xor => 2,
            }] += 1;
        }
    }
    Table31Row {
        name: cleaned.name().to_string(),
        io: (cleaned.num_inputs(), cleaned.num_outputs()),
        latches: cleaned.num_latches(),
        functions,
        ndec,
        avg_reduct: if ndec == 0 { 1.0 } else { ratio_sum / ndec as f64 },
        log2_states,
        kind_wins,
    }
}

/// Best non-trivial decomposition of an interval across the primitive
/// kinds: returns the winning kind and `max(|x1|, |x2|)` measured against
/// the *reduced* interval, after vacuous-variable abstraction.
fn best_decomposition(
    m: &mut Manager,
    interval: &Interval,
    use_xor: bool,
) -> Option<(DecKind, usize)> {
    let (reduced, removed) = interval.reduce_support(m);
    let support = reduced.support(m);
    if support.is_empty() {
        // Constant under don't cares: count as a total reduction.
        return Some((DecKind::Or, 0));
    }
    let mut best: Option<(DecKind, usize)> = None;
    let mut consider = |kind: DecKind, pair: Option<(usize, usize)>| {
        if let Some((k1, k2)) = pair {
            let maxk = k1.max(k2);
            if best.is_none_or(|(_, b)| maxk < b) {
                best = Some((kind, maxk));
            }
        }
    };
    let p_or = or_dec::Choices::compute(m, &reduced, &support).best_balanced();
    consider(DecKind::Or, p_or);
    let p_and = and_dec::Choices::compute(m, &reduced, &support).best_balanced();
    consider(DecKind::And, p_and);
    if use_xor {
        let p_xor = xor_dec::Choices::compute(m, &reduced, &support).best_balanced();
        consider(DecKind::Xor, p_xor);
    }
    match best {
        Some(b) => Some(b),
        // Abstraction alone is a reduction: both halves of the trivial
        // split shrank to the reduced support.
        None if !removed.is_empty() => Some((DecKind::Or, support.len())),
        None => None,
    }
}

// ---------------------------------------------------------------------
// Table 3.2: Algorithm 1 on industrial-like blocks
// ---------------------------------------------------------------------

/// One row of Table 3.2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table32Row {
    /// Circuit name.
    pub name: String,
    /// Inputs / outputs.
    pub io: (usize, usize),
    /// Latches.
    pub latches: usize,
    /// and/inv expansion size of the original circuit.
    pub ands: usize,
    /// Area after pre-processing (cleanup + mapping) only.
    pub pre_area: f64,
    /// Delay after pre-processing only.
    pub pre_delay: f64,
    /// Area after Algorithm 1 + mapping.
    pub opt_area: f64,
    /// Delay after Algorithm 1 + mapping.
    pub opt_delay: f64,
}

impl Table32Row {
    /// Area ratio `Algor.1 / pre-processed`.
    pub fn area_ratio(&self) -> f64 {
        self.opt_area / self.pre_area
    }

    /// Delay ratio `Algor.1 / pre-processed`.
    pub fn delay_ratio(&self) -> f64 {
        self.opt_delay / self.pre_delay
    }
}

/// Runs the Table 3.2 flow on one circuit: pre-process (cleanup + map)
/// vs. Algorithm 1 (+ map), both against the embedded mcnc-like library.
pub fn table32_row(netlist: &Netlist, options: &SynthesisOptions) -> Table32Row {
    let library = Library::mcnc_like();
    let stats = symbi_netlist::stats::stats(netlist);
    let (pre, _) = clean(netlist);
    let pre_mapped = map(&pre, &library, MapMode::Area);
    let (opt, _) = optimize(netlist, options);
    let opt_mapped = map(&opt, &library, MapMode::Area);
    Table32Row {
        name: netlist.name().to_string(),
        io: (stats.inputs, stats.outputs),
        latches: stats.latches,
        ands: stats.aig_ands,
        pre_area: pre_mapped.area,
        pre_delay: pre_mapped.delay,
        opt_area: opt_mapped.area,
        opt_delay: opt_mapped.delay,
    }
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

/// Data behind Figure 3.1: the majority function with the unreachable
/// state `a·b̄·c` OR-decomposes into two 2-variable halves.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure31 {
    /// Best partition sizes without the don't care.
    pub exact_best: Option<(usize, usize)>,
    /// Best partition sizes with the unreachable state as a don't care.
    pub dc_best: Option<(usize, usize)>,
    /// The decomposition tree found with don't cares.
    pub tree: String,
    /// Gates in the tree.
    pub gates: usize,
}

/// Reproduces Figure 3.1.
pub fn figure31() -> Figure31 {
    let mut m = Manager::new();
    let vs = m.new_vars(3);
    let ab = m.and(vs[0], vs[1]);
    let ac = m.and(vs[0], vs[2]);
    let bc = m.and(vs[1], vs[2]);
    let t = m.or(ab, ac);
    let f = m.or(t, bc);
    let nb = m.not(vs[1]);
    let anb = m.and(vs[0], nb);
    let dc = m.and(anb, vs[2]);
    let vars: Vec<VarId> = (0..3u32).map(VarId).collect();
    let exact = Interval::exact(f);
    let exact_best = or_dec::Choices::compute(&mut m, &exact, &vars).best_balanced();
    let widened = Interval::with_dontcare(&mut m, f, dc);
    let dc_best = or_dec::Choices::compute(&mut m, &widened, &vars).best_balanced();
    let (tree, _) = recursive::decompose(&mut m, &widened, &recursive::Options::default());
    Figure31 { exact_best, dc_best, tree: tree.to_string(), gates: tree.num_gates() }
}

/// Data behind Figure 3.2: structure sharing during re-emission.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure32 {
    /// Sharing hits reported by the synthesis flow.
    pub sharing_hits: usize,
    /// Gates before and after optimization.
    pub gates_before: usize,
    /// Gates after optimization.
    pub gates_after: usize,
}

/// Reproduces the Figure 3.2 effect: two output cones whose balanced
/// decompositions share a `g1` that was not in either fanin initially.
pub fn figure32() -> Figure32 {
    use symbi_netlist::GateKind;
    let mut n = Netlist::new("fig32");
    let ins: Vec<SignalId> = (0..4).map(|i| n.add_input(format!("i{i}"))).collect();
    // f1 = (i0·i1) + (i2·i3), and f2 = ¬(¬i0 + ¬i1) ⊕ i2 — semantically
    // f2 contains the same g1 = i0·i1, but through a different structure
    // that no structural hash can unify. Only re-decomposition exposes
    // the shared node, which is exactly Figure 3.2's point.
    let p1 = n.add_gate("p1", GateKind::And, vec![ins[0], ins[1]]);
    let p2 = n.add_gate("p2", GateKind::And, vec![ins[2], ins[3]]);
    let f1 = n.add_gate("f1", GateKind::Or, vec![p1, p2]);
    let n0 = n.add_gate("n0", GateKind::Not, vec![ins[0]]);
    let n1 = n.add_gate("n1", GateKind::Not, vec![ins[1]]);
    let p3 = n.add_gate("p3", GateKind::Nor, vec![n0, n1]);
    let f2 = n.add_gate("f2", GateKind::Xor, vec![p3, ins[2]]);
    n.add_output("f1", f1);
    n.add_output("f2", f2);
    let before = n.num_gates();
    let (opt, report) = optimize(&n, &SynthesisOptions::default());
    Figure32 {
        sharing_hits: report.sharing_hits,
        gates_before: before,
        gates_after: opt.num_gates(),
    }
}

// ---------------------------------------------------------------------
// SAT-engine statistics (BENCH_sat.json)
// ---------------------------------------------------------------------

/// One profiled SAT workload: name, verdict, wall-clock, solver counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SatBenchRow {
    /// Workload label (circuit + check kind).
    pub name: String,
    /// The check's boolean verdict (decomposable / equivalent / grown).
    pub verdict: bool,
    /// Wall-clock seconds of the SAT portion.
    pub seconds: f64,
    /// Solver counters accumulated over the workload's solves.
    pub stats: symbi_sat::SolverStats,
}

/// Profiles the CDCL engine on the paper-style SAT workloads:
/// adder sum-bit XOR checks (§3.4.2 cones), a multiplexer OR check
/// (§3.4.1), core-guided partition growth (\[14\]'s signature move), and
/// SAT-based bounded SEC validating an Algorithm 1 run on a Table
/// 3.2-style block. `quick` trims the widest cones.
pub fn sat_stats_rows(quick: bool) -> Vec<SatBenchRow> {
    use symbi_bdd::ResourceGovernor;
    use symbi_core::sat_dec;
    let gov = ResourceGovernor::unlimited();
    let mut rows = Vec::new();

    // Adder sum-bit XOR decomposability (Table 3.1-style cones).
    let bits: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8, 10] };
    for &bit in bits {
        let netlist = adder::ripple_carry(bit + 1);
        let mut m = Manager::new();
        let mut ext = ConeExtractor::with_default_layout(&netlist, &mut m);
        let sig = netlist.signal(&format!("s{bit}")).expect("sum bit exists");
        let f = ext.bdd(&mut m, sig);
        let support = m.support(f);
        // The paper's winning partition for sum bits: {a_bit, b_bit} vs the
        // carry chain — decomposable, so the solver proves UNSAT.
        let n = support.len();
        let (a_vac, b_vac) = (support[..n - 2].to_vec(), support[n - 2..].to_vec());
        let start = Instant::now();
        let (dec, stats) =
            sat_dec::try_xor_decomposable(&m, f, &support, &a_vac, &b_vac, u64::MAX, &gov)
                .expect("unlimited governor cannot trip");
        rows.push(SatBenchRow {
            name: format!("adder_s{bit}_xor_check"),
            verdict: dec,
            seconds: start.elapsed().as_secs_f64(),
            stats,
        });
    }

    // Multiplexer OR decomposability (§3.4.1-style): data words split
    // between the halves, controls shared.
    let k = 3usize;
    {
        let netlist = mux::mux(k);
        let mut m = Manager::new();
        let mut ext = ConeExtractor::with_default_layout(&netlist, &mut m);
        let f_sig = netlist.outputs()[0].1;
        let f = ext.bdd(&mut m, f_sig);
        let support = m.support(f);
        let data: Vec<VarId> = support.iter().copied().skip(k).collect();
        let half = data.len() / 2;
        let (a_vac, b_vac) = (data[..half].to_vec(), data[half..].to_vec());
        let start = Instant::now();
        let (dec, stats) =
            sat_dec::try_or_decomposable(&m, f, &support, &a_vac, &b_vac, u64::MAX, &gov)
                .expect("unlimited governor cannot trip");
        rows.push(SatBenchRow {
            name: format!("mux{k}_or_check"),
            verdict: dec,
            seconds: start.elapsed().as_secs_f64(),
            stats,
        });
    }

    // Core-guided OR-partition growth on the canonical ab + cd shape.
    {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let ef = m.and(vs[4], vs[5]);
        let t = m.or(ab, cd);
        let f = m.or(t, ef);
        let vars: Vec<VarId> = (0..6u32).map(VarId).collect();
        let start = Instant::now();
        let (grown, stats) = sat_dec::grow_or_partition(&m, f, &vars, VarId(0), VarId(2));
        rows.push(SatBenchRow {
            name: "or_partition_growth".to_string(),
            verdict: grown.is_some(),
            seconds: start.elapsed().as_secs_f64(),
            stats,
        });
    }

    // SAT-based bounded SEC validating an Algorithm 1 run (Table
    // 3.2-style): optimize the smallest industrial block and check the
    // result against the original.
    {
        let netlist = symbi_circuits::industrial::by_name("seq6").expect("known block");
        let frames = if quick { 4 } else { 8 };
        let opts = SynthesisOptions {
            validate_frames: Some(frames),
            ..Default::default()
        };
        let start = Instant::now();
        let (_, report) = optimize(&netlist, &opts);
        let v = report.sat_validation.expect("validation requested");
        rows.push(SatBenchRow {
            name: format!("seq6_flow_sec_{frames}f"),
            verdict: v.equivalent,
            seconds: start.elapsed().as_secs_f64(),
            stats: v.solver,
        });
    }

    rows
}

/// Serializes [`SatBenchRow`]s as JSON (written by hand — the workspace
/// carries no serde) in a stable schema for longitudinal comparison.
pub fn sat_stats_json(rows: &[SatBenchRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-sat-bench/v1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.stats;
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"verdict\": {}, \"seconds\": {:.6}, ",
                "\"conflicts\": {}, \"decisions\": {}, \"propagations\": {}, ",
                "\"restarts\": {}, \"learnt_clauses\": {}, \"deleted_clauses\": {}, ",
                "\"db_reductions\": {}, \"max_lbd\": {}, \"max_live_learnt\": {}, ",
                "\"minimized_literals\": {}}}{}\n"
            ),
            r.name,
            r.verdict,
            r.seconds,
            s.conflicts,
            s.decisions,
            s.propagations,
            s.restarts,
            s.learnt_clauses,
            s.deleted_clauses,
            s.db_reductions,
            s.max_lbd,
            s.max_live_learnt,
            s.minimized_literals,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs [`sat_stats_rows`] and writes [`sat_stats_json`] to `path`.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_sat_json(path: &std::path::Path, quick: bool) -> std::io::Result<Vec<SatBenchRow>> {
    let rows = sat_stats_rows(quick);
    std::fs::write(path, sat_stats_json(&rows))?;
    Ok(rows)
}

// ---------------------------------------------------------------------
// Parallel speedup benchmark (BENCH_parallel.json)
// ---------------------------------------------------------------------

/// One circuit's sequential-vs-parallel comparison: wall-clock for both
/// runs and whether the emitted netlists were byte-identical (the
/// determinism oracle the parallel engine must satisfy).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRow {
    /// Circuit name.
    pub name: String,
    /// Worker threads used for the parallel arm.
    pub jobs: usize,
    /// Wall-clock seconds of the `jobs = 1` run.
    pub seq_seconds: f64,
    /// Wall-clock seconds of the `jobs = N` run.
    pub par_seconds: f64,
    /// Whether `.bench` serializations of the two results matched byte
    /// for byte.
    pub identical: bool,
    /// Which execution path the parallel arm actually took: `"threads"`
    /// when the eligible-candidate count reached the small-workload
    /// cutoff, `"inline"` when the flow stayed on the caller's thread.
    pub path: String,
}

impl ParallelRow {
    /// Sequential time over parallel time.
    pub fn speedup(&self) -> f64 {
        self.seq_seconds / self.par_seconds
    }
}

/// Times [`optimize`] at `jobs = 1` vs `jobs = N` over the industrial
/// circuit set (`quick` keeps only the sub-1500-AND blocks) and checks
/// byte-identity of the results.
pub fn parallel_rows(jobs: usize, quick: bool) -> Vec<ParallelRow> {
    let specs: Vec<_> = if quick {
        symbi_circuits::industrial::SPECS.iter().filter(|s| s.and_nodes < 1500).collect()
    } else {
        symbi_circuits::industrial::SPECS.iter().collect()
    };
    let mut rows = Vec::new();
    for spec in specs {
        let netlist = symbi_circuits::industrial::generate(spec);
        let start = Instant::now();
        let (seq_net, _) =
            optimize(&netlist, &SynthesisOptions { jobs: 1, ..Default::default() });
        let seq_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (par_net, par_rep) =
            optimize(&netlist, &SynthesisOptions { jobs, ..Default::default() });
        let par_seconds = start.elapsed().as_secs_f64();
        let identical =
            symbi_netlist::bench::write(&seq_net) == symbi_netlist::bench::write(&par_net);
        let path = if symbi_bdd::par::effective_jobs(jobs, par_rep.eligible) > 1 {
            "threads"
        } else {
            "inline"
        };
        rows.push(ParallelRow {
            name: netlist.name().to_string(),
            jobs,
            seq_seconds,
            par_seconds,
            identical,
            path: path.to_string(),
        });
    }
    rows
}

/// Serializes [`ParallelRow`]s as JSON (hand-written — no serde in the
/// workspace) in a stable schema for longitudinal comparison.
pub fn parallel_json(rows: &[ParallelRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-parallel-bench/v1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"jobs\": {}, \"seq_seconds\": {:.6}, ",
                "\"par_seconds\": {:.6}, \"speedup\": {:.3}, \"identical\": {}, ",
                "\"path\": \"{}\"}}{}\n"
            ),
            r.name,
            r.jobs,
            r.seq_seconds,
            r.par_seconds,
            r.speedup(),
            r.identical,
            r.path,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs [`parallel_rows`] and writes [`parallel_json`] to `path`.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_parallel_json(
    path: &std::path::Path,
    jobs: usize,
    quick: bool,
) -> std::io::Result<Vec<ParallelRow>> {
    let rows = parallel_rows(jobs, quick);
    std::fs::write(path, parallel_json(&rows))?;
    Ok(rows)
}

// ---------------------------------------------------------------------
// BDD kernel microbenchmark (BENCH_bdd.json)
// ---------------------------------------------------------------------

/// One before/after comparison between the pre-overhaul kernel
/// ([`baseline::BaselineManager`]) and the production
/// [`symbi_bdd::Manager`] on an identical operation script.
///
/// Microbench rows fill every field; the partitioned-reachability rows
/// compare `auto_gc` off (the pre-overhaul never-free behaviour) against
/// the collector and leave the per-manager cache/GC counters at zero,
/// since partition managers are consumed inside the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BddBenchRow {
    /// Workload name.
    pub name: String,
    /// Top-level BDD operations executed by each arm.
    pub ops: u64,
    /// Wall-clock seconds of the pre-overhaul arm.
    pub before_seconds: f64,
    /// Wall-clock seconds of the production-kernel arm.
    pub after_seconds: f64,
    /// Peak allocated nodes of the pre-overhaul arm (it never frees, so
    /// peak = total).
    pub before_peak_live: usize,
    /// Peak simultaneously-live nodes of the production arm.
    pub after_peak_live: usize,
    /// Mark-and-sweep collections the production arm ran.
    pub gc_runs: u64,
    /// Computed-table hits of the production arm.
    pub cache_hits: u64,
    /// Computed-table misses of the production arm.
    pub cache_misses: u64,
}

impl BddBenchRow {
    /// Operations per second of the pre-overhaul arm.
    pub fn before_ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.before_seconds
    }

    /// Operations per second of the production arm.
    pub fn after_ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.after_seconds
    }

    /// `after_ops_per_sec / before_ops_per_sec`.
    pub fn speedup(&self) -> f64 {
        self.before_seconds / self.after_seconds
    }
}

/// Deterministic splitmix64 so both arms replay the same op script
/// (the workspace vendors `rand` only as a dev-dependency elsewhere).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

const CHURN_SEED: u64 = 0x5eed_0bdd_0bdd_5eed;

/// The operations the churn workload needs from a kernel, so one script
/// drives both the frozen baseline and the production manager.
pub trait ChurnKernel {
    /// Node handle.
    type H: Copy;
    /// The node for variable `v`.
    fn var(&mut self, v: u32) -> Self::H;
    /// Negation.
    fn not(&mut self, f: Self::H) -> Self::H;
    /// Conjunction.
    fn and(&mut self, f: Self::H, g: Self::H) -> Self::H;
    /// Disjunction.
    fn or(&mut self, f: Self::H, g: Self::H) -> Self::H;
    /// Called at every round boundary — the script's GC safe point.
    fn round_done(&mut self) {}
}

impl ChurnKernel for baseline::BaselineManager {
    type H = u32;
    fn var(&mut self, v: u32) -> u32 {
        baseline::BaselineManager::var(self, v)
    }
    fn not(&mut self, f: u32) -> u32 {
        baseline::BaselineManager::not(self, f)
    }
    fn and(&mut self, f: u32, g: u32) -> u32 {
        self.apply(baseline::BinOp::And, f, g)
    }
    fn or(&mut self, f: u32, g: u32) -> u32 {
        self.apply(baseline::BinOp::Or, f, g)
    }
}

impl ChurnKernel for Manager {
    type H = NodeId;
    fn var(&mut self, v: u32) -> NodeId {
        Manager::var(self, VarId(v))
    }
    fn not(&mut self, f: NodeId) -> NodeId {
        Manager::not(self, f)
    }
    fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        Manager::and(self, f, g)
    }
    fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        Manager::or(self, f, g)
    }
    fn round_done(&mut self) {
        self.maybe_gc(&[]);
    }
}

/// The microbench workload: `rounds` rounds, each conjoining `clauses`
/// random `width`-literal disjunctions into a product that dies at the
/// end of its round — exactly the allocate-use-drop churn of an image
/// computation. Returns the number of top-level operations, which is
/// identical for both kernels by construction.
pub fn churn_script<K: ChurnKernel>(
    kernel: &mut K,
    rounds: usize,
    clauses: usize,
    width: usize,
    n_vars: u32,
) -> u64 {
    let mut rng = SplitMix(CHURN_SEED);
    let mut ops = 0u64;
    for _ in 0..rounds {
        let mut acc: Option<K::H> = None;
        for _ in 0..clauses {
            let mut clause: Option<K::H> = None;
            for _ in 0..width {
                let v = kernel.var((rng.next() % u64::from(n_vars)) as u32);
                let lit = if rng.next() & 1 == 0 {
                    ops += 1;
                    kernel.not(v)
                } else {
                    v
                };
                clause = Some(match clause {
                    None => lit,
                    Some(c) => {
                        ops += 1;
                        kernel.or(c, lit)
                    }
                });
            }
            let clause = clause.expect("width > 0");
            acc = Some(match acc {
                None => clause,
                Some(a) => {
                    ops += 1;
                    kernel.and(a, clause)
                }
            });
        }
        let _ = acc;
        kernel.round_done();
    }
    ops
}

/// Runs the churn workload on both kernels and returns the comparison
/// row. The production arm offers the collector a safe point at every
/// round boundary (as the reachability fixpoint does); the baseline has
/// nothing to offer it to.
pub fn bdd_churn_row(name: &str, rounds: usize, clauses: usize, width: usize) -> BddBenchRow {
    let n_vars = 20u32;

    let mut base = baseline::BaselineManager::with_vars(n_vars);
    let start = Instant::now();
    let ops = churn_script(&mut base, rounds, clauses, width, n_vars);
    let before_seconds = start.elapsed().as_secs_f64();
    let before_peak_live = base.node_count();

    let mut m = Manager::with_vars(n_vars as usize);
    let start = Instant::now();
    let after_ops = churn_script(&mut m, rounds, clauses, width, n_vars);
    let after_seconds = start.elapsed().as_secs_f64();
    assert_eq!(ops, after_ops, "both arms must replay the same script");
    let stats = m.stats();

    BddBenchRow {
        name: name.to_string(),
        ops,
        before_seconds,
        after_seconds,
        before_peak_live,
        after_peak_live: stats.peak_live,
        gc_runs: stats.gc_runs,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    }
}

/// Partitioned-reachability peak-memory comparison on one industrial
/// circuit: `auto_gc` off reproduces the pre-overhaul kernel's
/// never-free behaviour inside the same analysis code, `auto_gc` on
/// lets the collector sweep image intermediates at every fixpoint safe
/// point.
///
/// Both arms pin `max_latches` to 24 and share a generous node budget
/// so they analyze the *same* static partition tree: under the default
/// caps the never-free arm trips the governor on the hardest seq5
/// partition and adaptively splits it while the collected arm finishes
/// it whole, which would compare peaks of different fixpoints.
pub fn bdd_reach_row(spec: &symbi_circuits::industrial::IndustrialSpec) -> BddBenchRow {
    let netlist = symbi_circuits::industrial::generate(spec);
    let partition = symbi_reach::PartitionOptions { max_latches: 24 };
    let off = ReachabilityOptions {
        partition,
        node_limit: 4_000_000,
        kernel: KernelConfig { auto_gc: false, ..KernelConfig::default() },
        ..Default::default()
    };
    let on = ReachabilityOptions { partition, node_limit: 4_000_000, ..Default::default() };
    let start = Instant::now();
    let before = Reachability::analyze(&netlist, off).stats();
    let before_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let after = Reachability::analyze(&netlist, on).stats();
    let after_seconds = start.elapsed().as_secs_f64();
    BddBenchRow {
        name: format!("reach_{}", netlist.name()),
        ops: after.iterations as u64,
        before_seconds,
        after_seconds,
        before_peak_live: before.peak_live_nodes,
        after_peak_live: after.peak_live_nodes,
        // Real kernel counters of the collected arm, summed across its
        // partition managers (each partition's operation sequence is
        // deterministic, so these are too).
        gc_runs: after.gc_runs,
        cache_hits: after.cache_hits,
        cache_misses: after.cache_misses,
    }
}

/// The full `BENCH_bdd.json` row set: churn microbenchmarks plus the
/// partitioned-reachability comparison (`quick` trims the round counts
/// and keeps only the sub-1500-AND circuits).
pub fn bdd_rows(quick: bool) -> Vec<BddBenchRow> {
    let rounds = if quick { 250 } else { 600 };
    let mut rows = vec![
        bdd_churn_row("churn_3cnf", rounds, 30, 3),
        bdd_churn_row("churn_5cnf", rounds / 2, 20, 5),
    ];
    let specs: Vec<_> = if quick {
        symbi_circuits::industrial::SPECS.iter().filter(|s| s.and_nodes < 1500).collect()
    } else {
        symbi_circuits::industrial::SPECS.iter().collect()
    };
    for spec in specs {
        rows.push(bdd_reach_row(spec));
    }
    rows
}

/// Serializes [`BddBenchRow`]s as JSON (hand-written — no serde in the
/// workspace) in a stable schema for longitudinal comparison.
pub fn bdd_json(rows: &[BddBenchRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-bdd-bench/v1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"ops\": {}, ",
                "\"before_seconds\": {:.6}, \"after_seconds\": {:.6}, ",
                "\"before_ops_per_sec\": {:.1}, \"after_ops_per_sec\": {:.1}, ",
                "\"speedup\": {:.3}, ",
                "\"before_peak_live\": {}, \"after_peak_live\": {}, ",
                "\"gc_runs\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n"
            ),
            r.name,
            r.ops,
            r.before_seconds,
            r.after_seconds,
            r.before_ops_per_sec(),
            r.after_ops_per_sec(),
            r.speedup(),
            r.before_peak_live,
            r.after_peak_live,
            r.gc_runs,
            r.cache_hits,
            r.cache_misses,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs [`bdd_rows`] and writes [`bdd_json`] to `path`.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_bdd_json(path: &std::path::Path, quick: bool) -> std::io::Result<Vec<BddBenchRow>> {
    let rows = bdd_rows(quick);
    std::fs::write(path, bdd_json(&rows))?;
    Ok(rows)
}

// ---------------------------------------------------------------------
// Image-engine benchmark (BENCH_reach.json)
// ---------------------------------------------------------------------

/// One `BENCH_reach.json` row: partitioned reachability on an
/// industrial circuit, legacy per-bit image schedule vs. the clustered
/// engine, with the reached sets asserted identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachBenchRow {
    /// Circuit name (`seq4` … `seq9`).
    pub name: String,
    /// Wall-clock seconds of the per-bit arm.
    pub per_bit_seconds: f64,
    /// Wall-clock seconds of the clustered arm.
    pub clustered_seconds: f64,
    /// Fixpoint iterations summed over partitions, per arm.
    pub per_bit_iterations: usize,
    pub clustered_iterations: usize,
    /// Peak live nodes of the hardest partition, per arm.
    pub per_bit_peak_live: usize,
    pub clustered_peak_live: usize,
    /// Transition-relation clusters summed over partitions, per arm
    /// (the per-bit arm's equals its conjunct count).
    pub per_bit_clusters: usize,
    pub clustered_clusters: usize,
    /// Largest single cluster of the clustered arm, in nodes.
    pub clustered_max_cluster_nodes: usize,
    /// Partitions that bailed to ⊤ in the clustered arm (identical in
    /// the per-bit arm — asserted, since the reached sets must match).
    pub bailed_out: usize,
}

impl ReachBenchRow {
    /// Wall-clock speedup of the clustered engine over per-bit.
    pub fn speedup(&self) -> f64 {
        self.per_bit_seconds / self.clustered_seconds.max(1e-12)
    }

    /// Peak-live-node ratio (per-bit / clustered; >1 means the
    /// clustered engine kept smaller intermediates).
    pub fn peak_ratio(&self) -> f64 {
        self.per_bit_peak_live as f64 / (self.clustered_peak_live as f64).max(1.0)
    }
}

/// Runs both image schedules on one industrial circuit and asserts they
/// reach exactly the same sets (via [`Reachability::same_reached_sets`],
/// which compares the per-partition functions in a common manager).
/// Both arms share the partition tree and a generous node budget, so
/// the comparison is schedule-against-schedule on identical fixpoints.
pub fn reach_row(spec: &symbi_circuits::industrial::IndustrialSpec) -> ReachBenchRow {
    let netlist = symbi_circuits::industrial::generate(spec);
    let partition = symbi_reach::PartitionOptions { max_latches: 24 };
    let per_bit_opts = ReachabilityOptions {
        partition,
        node_limit: 4_000_000,
        cluster_limit: 0,
        ..Default::default()
    };
    let clustered_opts =
        ReachabilityOptions { partition, node_limit: 4_000_000, ..Default::default() };
    let start = Instant::now();
    let per_bit = Reachability::analyze(&netlist, per_bit_opts);
    let per_bit_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let clustered = Reachability::analyze(&netlist, clustered_opts);
    let clustered_seconds = start.elapsed().as_secs_f64();
    assert!(
        clustered.same_reached_sets(&per_bit),
        "{}: clustered and per-bit schedules reached different sets",
        netlist.name()
    );
    let pb = per_bit.stats();
    let cl = clustered.stats();
    assert_eq!(pb.bailed_out, cl.bailed_out, "same_reached_sets implies equal bail sets");
    ReachBenchRow {
        name: netlist.name().to_string(),
        per_bit_seconds,
        clustered_seconds,
        per_bit_iterations: pb.iterations,
        clustered_iterations: cl.iterations,
        per_bit_peak_live: pb.peak_live_nodes,
        clustered_peak_live: cl.peak_live_nodes,
        per_bit_clusters: pb.clusters,
        clustered_clusters: cl.clusters,
        clustered_max_cluster_nodes: cl.max_cluster_nodes,
        bailed_out: cl.bailed_out,
    }
}

/// The full `BENCH_reach.json` row set over the seq4–seq9 circuits
/// (`quick` keeps only the sub-1500-AND ones, matching [`bdd_rows`]).
pub fn reach_rows(quick: bool) -> Vec<ReachBenchRow> {
    let specs: Vec<_> = if quick {
        symbi_circuits::industrial::SPECS.iter().filter(|s| s.and_nodes < 1500).collect()
    } else {
        symbi_circuits::industrial::SPECS.iter().collect()
    };
    specs.into_iter().map(reach_row).collect()
}

/// Serializes [`ReachBenchRow`]s as JSON (hand-written — no serde in
/// the workspace) in a stable schema for longitudinal comparison.
pub fn reach_json(rows: &[ReachBenchRow]) -> String {
    let mut out = String::from("{\n  \"schema\": \"symbi-reach-bench/v1\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", ",
                "\"per_bit_seconds\": {:.6}, \"clustered_seconds\": {:.6}, ",
                "\"speedup\": {:.3}, ",
                "\"per_bit_iterations\": {}, \"clustered_iterations\": {}, ",
                "\"per_bit_peak_live\": {}, \"clustered_peak_live\": {}, ",
                "\"peak_ratio\": {:.3}, ",
                "\"per_bit_clusters\": {}, \"clustered_clusters\": {}, ",
                "\"clustered_max_cluster_nodes\": {}, \"bailed_out\": {}}}{}\n"
            ),
            r.name,
            r.per_bit_seconds,
            r.clustered_seconds,
            r.speedup(),
            r.per_bit_iterations,
            r.clustered_iterations,
            r.per_bit_peak_live,
            r.clustered_peak_live,
            r.peak_ratio(),
            r.per_bit_clusters,
            r.clustered_clusters,
            r.clustered_max_cluster_nodes,
            r.bailed_out,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs [`reach_rows`] and writes [`reach_json`] to `path`.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_reach_json(
    path: &std::path::Path,
    quick: bool,
) -> std::io::Result<Vec<ReachBenchRow>> {
    let rows = reach_rows(quick);
    std::fs::write(path, reach_json(&rows))?;
    Ok(rows)
}

// ---------------------------------------------------------------------
// Rescue-rung circuit family
// ---------------------------------------------------------------------

/// `blocks` disjoint two-block cones `(a·b) + (c·d)` over fresh inputs —
/// the canonical rescue-rung family. Each cone function is trivially
/// OR-decomposable at the midpoint of its sorted support, but the
/// *symbolic* partition search pays for a 3n-variable choices manager,
/// so a band of per-candidate step budgets exists where `Choices` trips
/// while the SAT midpoint check still completes and saves the partition
/// the pure-BDD ladder abandons to greedy growth.
pub fn two_block_cones(blocks: usize) -> Netlist {
    use symbi_netlist::GateKind;
    let mut n = Netlist::new("two_block");
    for i in 0..blocks {
        let a = n.add_input(format!("a{i}"));
        let b = n.add_input(format!("b{i}"));
        let c = n.add_input(format!("c{i}"));
        let d = n.add_input(format!("d{i}"));
        let ab = n.add_gate(format!("ab{i}"), GateKind::And, vec![a, b]);
        let cd = n.add_gate(format!("cd{i}"), GateKind::And, vec![c, d]);
        let o = n.add_gate(format!("o{i}"), GateKind::Or, vec![ab, cd]);
        n.add_output(format!("f{i}"), o);
    }
    n
}

// ---------------------------------------------------------------------
// Ablation helpers
// ---------------------------------------------------------------------

/// Implicit-vs-greedy comparison on one function (A1 ablation): returns
/// `(implicit_max_k, implicit_secs, greedy_max_k, greedy_secs)`.
pub fn ablation_greedy_vs_implicit(
    m: &mut Manager,
    f: NodeId,
    kind: DecKind,
) -> (usize, f64, Option<usize>, f64) {
    let support = m.support(f);
    let interval = Interval::exact(f);
    let start = Instant::now();
    let mut ch = match kind {
        DecKind::Or => or_dec::Choices::compute(m, &interval, &support),
        DecKind::And => and_dec::Choices::compute(m, &interval, &support),
        DecKind::Xor => xor_dec::Choices::compute(m, &interval, &support),
    };
    let implicit = ch.best_balanced().map(|(a, b)| a.max(b)).unwrap_or(support.len());
    let implicit_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let greedy = greedy::grow(m, kind, &interval, &support)
        .map(|o| {
            let (a, b) = o.sizes(support.len());
            a.max(b)
        });
    let greedy_secs = start.elapsed().as_secs_f64();
    (implicit, implicit_secs, greedy, greedy_secs)
}

/// Dominance-purge ablation (A2): feasible pair counts with and without
/// the purge, plus timings.
pub fn ablation_dominance(m: &mut Manager, f: NodeId) -> (usize, f64, usize, f64) {
    let support = m.support(f);
    let interval = Interval::exact(f);
    let mut ch = or_dec::Choices::compute(m, &interval, &support);
    let start = Instant::now();
    let raw = ch.feasible_pairs(false).len();
    let raw_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let purged = ch.feasible_pairs(true).len();
    let purged_secs = start.elapsed().as_secs_f64();
    (raw, raw_secs, purged, purged_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbi_circuits::{industrial, iscas_like};

    #[test]
    fn mux_rows_match_paper_small() {
        let r2 = mux_row(2);
        assert_eq!(r2.best, (4, 4));
        assert!((r2.choices - 6.0).abs() < 1e-6);
        let r3 = mux_row(3);
        assert_eq!(r3.best, (7, 7));
        assert!((r3.choices - 70.0).abs() < 1e-3);
    }

    #[test]
    fn adder_row_s2() {
        let r = adder_row(2, Duration::from_secs(30));
        assert_eq!(r.inputs, 7);
        assert_eq!(r.best, (2, 5));
        assert!(r.greedy_seconds.is_some(), "s2 greedy finishes quickly");
    }

    #[test]
    fn table31_states_help() {
        let n = iscas_like::by_name("s344").expect("known circuit");
        let opts = Table31Options::default();
        let no_states = table31_row(&n, false, &opts);
        let with_states = table31_row(&n, true, &opts);
        assert!(with_states.log2_states.is_some());
        assert!(no_states.log2_states.is_none());
        assert!(
            with_states.avg_reduct <= no_states.avg_reduct + 1e-9,
            "don't cares cannot hurt: {} vs {}",
            with_states.avg_reduct,
            no_states.avg_reduct
        );
        assert!(with_states.ndec >= no_states.ndec);
    }

    #[test]
    fn figure31_matches_paper() {
        let fig = figure31();
        assert_eq!(fig.exact_best, None, "exact majority has no non-trivial OR split");
        assert_eq!(fig.dc_best, Some((2, 2)));
        assert!(fig.gates <= 3);
    }

    #[test]
    fn figure32_shares_logic() {
        let fig = figure32();
        assert!(fig.sharing_hits > 0, "the AND(i0,i1) must be reused: {fig:?}");
    }

    #[test]
    fn table32_small_block_improves_or_holds() {
        // Use the smallest industrial block to keep test time sane.
        let n = industrial::by_name("seq6").expect("known block");
        let row = table32_row(&n, &SynthesisOptions::default());
        assert!(row.pre_area > 0.0);
        assert!(row.opt_area > 0.0);
        assert!(row.area_ratio() < 1.10, "area should not regress much: {}", row.area_ratio());
    }
}
