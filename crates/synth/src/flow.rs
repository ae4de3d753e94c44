//! The paper's Algorithm 1 (§3.5.3): the logic-optimization loop.
//!
//! ```text
//! create latch partitions of a design;
//! selectively collapse logic;
//! while (more logic to decompose) do
//!     select a signal and its function f(x);
//!     retrieve unreachable states u(x);
//!     abstract vars from interval [f·ū, f + u];
//!     apply bi-decomposition to interval;
//! end while
//! ```
//!
//! Signals are processed in topological order. Each candidate cone is
//! collapsed to a BDD over its leaves (primary inputs and latch outputs),
//! widened by the unreachable-state don't cares of its present-state
//! support, recursively bi-decomposed into 2-input primitives, and
//! re-emitted through a structure-hashing builder so decompositions share
//! logic across cones (Figure 3.2). Cones too wide to collapse are copied
//! unchanged.

use crate::share::TreeEmitter;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use symbi_bdd::{FaultSite, Manager, ResourceExhausted, ResourceGovernor, VarId};
use symbi_core::{recursive, Interval};
use symbi_netlist::clean::clean;
use symbi_netlist::cone::ConeExtractor;
use symbi_netlist::sweep::SweepOptions;
use symbi_netlist::{Netlist, NodeKind, SignalId};
use symbi_reach::{Reachability, ReachabilityOptions};
use symbi_sat::SolverStats;

/// Resource budget for one [`optimize`] run. The default is unlimited:
/// the flow behaves exactly as if no governor existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetOptions {
    /// Recursion-step budget granted to *each* candidate cone
    /// (`u64::MAX` = unlimited). A candidate that exhausts it keeps its
    /// original implementation.
    pub candidate_steps: u64,
    /// Live-node ceiling on the flow's BDD managers
    /// (`usize::MAX` = unlimited).
    pub node_limit: usize,
    /// Wall-clock deadline for the whole run. Candidates processed after
    /// it passes keep their original cones.
    pub timeout: Option<Duration>,
}

impl Default for BudgetOptions {
    fn default() -> Self {
        BudgetOptions { candidate_steps: u64::MAX, node_limit: usize::MAX, timeout: None }
    }
}

impl BudgetOptions {
    /// The governor implementing this budget.
    pub fn governor(&self) -> ResourceGovernor {
        let mut gov = ResourceGovernor::unlimited().with_node_limit(self.node_limit);
        if let Some(t) = self.timeout {
            gov = gov.with_timeout(t);
        }
        gov
    }
}

/// Options for [`optimize`].
#[derive(Debug, Clone, Copy)]
pub struct SynthesisOptions {
    /// Reachability configuration; `None` disables state analysis (the
    /// "no states" arm of the experiments).
    pub reach: Option<ReachabilityOptions>,
    /// Recursive bi-decomposition options.
    pub decompose: recursive::Options,
    /// Cones with more leaves than this are copied, not collapsed
    /// (the paper's "selectively collapse logic").
    pub max_cone_support: usize,
    /// Only replace a cone when the decomposition's estimated cost beats
    /// the existing structure (the paper's "assessed impact … over
    /// existing circuit structure"). Disable to force re-implementation.
    pub accept_only_improvements: bool,
    /// Resource budget; candidates that exhaust it degrade gracefully to
    /// their original cones instead of aborting the flow.
    pub budget: BudgetOptions,
    /// When set, the optimized netlist is validated against the input by
    /// SAT-based bounded sequential equivalence over this many frames
    /// (see [`symbi_netlist::sec::bounded_check_sat`]); the verdict and
    /// solver statistics land in [`SynthesisReport::sat_validation`].
    /// `None` (the default) skips validation.
    pub validate_frames: Option<usize>,
    /// Worker threads for candidate-cone bi-decomposition (and, via
    /// [`ReachabilityOptions::jobs`], the reachability partitions). Each
    /// worker owns a private [`Manager`]; results merge in the sequential
    /// candidate order, so under the default unlimited budget the output
    /// netlist and report are byte-identical for every `jobs` value. A
    /// *finite* budget races between workers (and hermetic workers
    /// re-derive cone prefixes the sequential cache amortizes), so
    /// budgeted parallel runs stay correct but may skip different
    /// candidates than sequential ones.
    pub jobs: usize,
    /// Run the fraig-style SAT-sweeping pre-pass
    /// ([`symbi_netlist::sweep`]) before decomposition: functionally
    /// identical nodes merge so the flow never budgets the same function
    /// twice. Off by default; when off, the output is byte-identical to
    /// flows predating the pass. The sweep runs *before* the parallel
    /// fan-out, so its result is identical for every `jobs` value; a
    /// governor trip or a panic inside the sweep degrades to the
    /// unswept netlist ([`SweepSummary::degraded`]).
    pub sweep: bool,
    /// Refinement rounds of the sweep pre-pass (counterexample replay
    /// cycles). Only read when [`SynthesisOptions::sweep`] is set.
    pub sweep_rounds: usize,
    /// Conflict budget per pairwise sweep SAT query; pairs exhausting it
    /// stay soundly unmerged. Only read when [`SynthesisOptions::sweep`]
    /// is set.
    pub sweep_conflicts: u64,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            reach: Some(ReachabilityOptions::default()),
            decompose: recursive::Options::default(),
            max_cone_support: 20,
            accept_only_improvements: true,
            budget: BudgetOptions::default(),
            validate_frames: None,
            jobs: 1,
            sweep: false,
            sweep_rounds: SweepOptions::default().rounds,
            sweep_conflicts: SweepOptions::default().conflict_budget,
        }
    }
}

/// What the optional SAT-sweeping pre-pass did (all zero when
/// [`SynthesisOptions::sweep`] is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Candidate equivalence classes seeded by simulation.
    pub classes: usize,
    /// Node pairs proven equivalent and merged.
    pub merges: usize,
    /// Pairwise SAT queries the persistent sweep solver answered.
    pub sat_calls: usize,
    /// SAT counterexamples replayed as new simulation patterns.
    pub cex_patterns: usize,
    /// Pairs left unmerged because their conflict budget ran out —
    /// the "undecided = unmerged" soundness contract in numbers.
    pub undecided: usize,
    /// The sweep was requested but aborted (resource exhaustion,
    /// cancellation, injected fault, or a panic); the flow continued
    /// on the unswept netlist.
    pub degraded: bool,
}

/// Outcome of the optional post-flow SAT validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatValidationReport {
    /// Frames of bounded unrolling checked.
    pub frames: usize,
    /// Whether the optimized netlist matched the input on every frame.
    /// Don't-care rewrites only change unreachable behaviour, and the
    /// bounded check starts from the initial states, so this must be
    /// `true` for a sound flow.
    pub equivalent: bool,
    /// SAT effort spent on the validation.
    pub solver: SolverStats,
}

/// What [`optimize`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SynthesisReport {
    /// Candidate signals examined (outputs + next-state functions).
    pub candidates: usize,
    /// Distinct candidates narrow enough to collapse (gates and latches
    /// within [`SynthesisOptions::max_cone_support`]). A pure function
    /// of the netlist and options — identical for every `jobs` value —
    /// and the amount of real work the parallel phase dispatches.
    pub eligible: usize,
    /// Cones actually collapsed and re-decomposed.
    pub decomposed: usize,
    /// Cones skipped for excessive support.
    pub skipped_wide: usize,
    /// Decomposed cones rejected because the original structure was
    /// cheaper.
    pub rejected: usize,
    /// Aggregated decomposition step counters.
    pub steps: recursive::Stats,
    /// Tree-emitter sharing hits (Figure 3.2 reuse events).
    pub sharing_hits: usize,
    /// `log2` of the reachable-state estimate (latch count when state
    /// analysis is off).
    pub log2_states: f64,
    /// Candidates whose resource budget ran out before a correct
    /// decomposition existed; their original cones were kept verbatim.
    pub candidates_skipped: usize,
    /// Governed operations that hit a resource limit anywhere in the
    /// flow (decomposer ladder rungs, care-set projections, whole
    /// candidates). Zero under the default unlimited budget.
    pub budget_exhausted_ops: usize,
    /// Degradation-ladder steps the decomposer took after an exhaustion
    /// (symbolic partition search → greedy growth → Shannon).
    pub fallbacks_taken: usize,
    /// Result of the SAT-based bounded equivalence validation, when
    /// [`SynthesisOptions::validate_frames`] was set.
    pub sat_validation: Option<SatValidationReport>,
    /// Candidates whose decomposition attempt *panicked* (a worker crash,
    /// real or injected). Each is isolated at the candidate boundary and
    /// degrades to its original cone, exactly like a budget exhaustion —
    /// one crashed cone never takes down the flow or its siblings.
    pub worker_panics: usize,
    /// Why the requested SAT validation could not finish, if it was
    /// interrupted (cancellation, deadline, or an injected fault in the
    /// validation solver). `sat_validation` is `None` in that case; a
    /// completed validation leaves this `None`.
    pub validation_interrupted: Option<ResourceExhausted>,
    /// Counters of the SAT-sweeping pre-pass
    /// ([`SynthesisOptions::sweep`]); all zero when the pass is off.
    pub sweep: SweepSummary,
}

/// Runs Algorithm 1 on `netlist`, returning the optimized netlist (same
/// interface) and a report.
///
/// # Panics
///
/// Panics if the netlist fails validation.
pub fn optimize(netlist: &Netlist, options: &SynthesisOptions) -> (Netlist, SynthesisReport) {
    optimize_governed(netlist, options, &options.budget.governor())
}

/// [`optimize`] under a caller-supplied governor — use this to share one
/// budget (or one cancellation flag) across several flow invocations.
/// Per-candidate step budgets from [`BudgetOptions::candidate_steps`] are
/// forked off `gov`, so its own step limit, node ceiling, deadline, and
/// cancel flag all still apply.
///
/// # Panics
///
/// Panics if the netlist fails validation.
pub fn optimize_governed(
    netlist: &Netlist,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
) -> (Netlist, SynthesisReport) {
    // The sweep pre-pass runs once, before the parallel fan-out, so the
    // rest of the flow — sequential or parallel — sees the same input
    // netlist for every `jobs` value. Validation still compares against
    // the caller's original netlist, keeping the sweep inside the
    // verified boundary.
    let (swept, summary) = sweep_prepass(netlist, options, gov);
    let input = swept.as_ref().unwrap_or(netlist);
    let (out, mut report) = if options.jobs > 1 {
        crate::parallel::optimize_parallel(netlist, input, options, gov)
    } else {
        optimize_sequential(netlist, input, options, gov)
    };
    report.sweep = summary;
    (out, report)
}

/// Runs the governed SAT-sweeping pre-pass when enabled. The sweep
/// attempt is a panic-isolation boundary: a crash inside it (including
/// injected `netlist.sweep` panic faults) degrades to the unswept
/// netlist exactly like a resource exhaustion — the flow never dies for
/// an optional pre-pass.
fn sweep_prepass(
    netlist: &Netlist,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
) -> (Option<Netlist>, SweepSummary) {
    let mut summary = SweepSummary::default();
    if !options.sweep {
        return (None, summary);
    }
    let sweep_opts = SweepOptions {
        rounds: options.sweep_rounds,
        conflict_budget: options.sweep_conflicts,
        ..SweepOptions::default()
    };
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        symbi_netlist::sweep::try_sweep(netlist, &sweep_opts, gov)
    }));
    match attempt {
        Ok(Ok((swept, r))) => {
            summary.classes = r.classes;
            summary.merges = r.merges;
            summary.sat_calls = r.sat_calls;
            summary.cex_patterns = r.cex_patterns;
            summary.undecided = r.undecided;
            (Some(swept), summary)
        }
        Ok(Err(_)) | Err(_) => {
            summary.degraded = true;
            (None, summary)
        }
    }
}

/// The sequential flow body: optimizes `input` (the possibly-swept
/// netlist) while validating against `original`.
fn optimize_sequential(
    original: &Netlist,
    input: &Netlist,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
) -> (Netlist, SynthesisReport) {
    let (cleaned, _) = clean(input);
    let mut report = SynthesisReport::default();

    // Partitioned reachability (or the trivial no-information analysis).
    let mut reach = match options.reach {
        Some(opts) => Reachability::analyze_governed(&cleaned, opts, gov),
        None => Reachability::trivial(&cleaned),
    };
    report.log2_states = reach.log2_states();

    // One manager for the whole pass: leaves (PIs + latches) get fixed
    // variables up front, ordered by the fanin-DFS heuristic so cone BDDs
    // stay small regardless of declaration order.
    let mut m = Manager::new();
    let mut extractor = ConeExtractor::with_dfs_layout(&cleaned, &mut m);
    let var_of_latch: HashMap<SignalId, VarId> = cleaned
        .latches()
        .iter()
        .map(|&l| (l, extractor.var_of(l).expect("layout covers latches")))
        .collect();
    let var_to_leaf: HashMap<VarId, SignalId> =
        extractor.var_map().iter().map(|(&s, &v)| (v, s)).collect();

    // Reference counts (fanout edges + output references) for the
    // fanout-free-cone cost estimate.
    let mut ref_counts: Vec<usize> = cleaned.fanouts().iter().map(Vec::len).collect();
    for &(_, s) in cleaned.outputs() {
        ref_counts[s.index()] += 1;
    }

    // Candidates: next-state functions, primary outputs, AND every
    // multi-fanout internal gate — the paper re-implements signals "in
    // terms of their cone inputs or in terms of other intermediate
    // signals". Topological order makes each candidate a cut point for
    // the ones after it.
    let mut is_root: Vec<bool> = vec![false; cleaned.num_signals()];
    for &l in cleaned.latches() {
        is_root[cleaned.latch_next(l).expect("validated").index()] = true;
    }
    for &(_, s) in cleaned.outputs() {
        is_root[s.index()] = true;
    }
    let topo = cleaned.topo_order().expect("validated");
    let mut candidates: Vec<SignalId> = topo
        .iter()
        .copied()
        .filter(|&g| is_root[g.index()] || ref_counts[g.index()] >= 2)
        .collect();
    // Roots that are not gates (outputs wired straight to latches,
    // inputs, or constants).
    for s in cleaned.signals() {
        if is_root[s.index()] && !matches!(cleaned.kind(s), NodeKind::Gate(_)) {
            candidates.push(s);
        }
    }

    // Rebuild target: same interface, shared-structure builder.
    let mut emitter = TreeEmitter::new(&cleaned);
    let mut rebuilt: HashMap<SignalId, SignalId> = HashMap::new();
    let mut var_to_leaf = var_to_leaf;

    for &signal in &candidates {
        report.candidates += 1;
        if rebuilt.contains_key(&signal) {
            continue;
        }
        let support = local_support(&cleaned, signal, extractor.var_map());
        let eligible = support.len() <= options.max_cone_support
            && matches!(cleaned.kind(signal), NodeKind::Gate(_) | NodeKind::Latch { .. });
        report.eligible += usize::from(eligible);
        let new_sig = if eligible {
            // Each candidate gets a fresh step budget forked off the flow
            // governor; node ceiling, deadline, and cancellation are
            // shared. An exhausted candidate keeps its original cone —
            // Algorithm 1 degrades, it never dies.
            let cand_gov = gov.fork_steps(options.budget.candidate_steps);
            // The candidate attempt is a panic-isolation boundary: a
            // crash inside collapse/widen/decompose (including injected
            // `synth.decompose` panic faults) is caught here and treated
            // like an exhausted budget — the original cone survives.
            let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<_, ResourceExhausted> {
                cand_gov.fault_site(FaultSite::SynthDecompose)?;
                let f = extractor.try_bdd(&mut m, signal, &cand_gov)?;
                // Retrieve unreachable states over the cone's
                // present-state support and widen the specification.
                let ps: Vec<SignalId> = support
                    .iter()
                    .copied()
                    .filter(|s| matches!(cleaned.kind(*s), NodeKind::Latch { .. }))
                    .collect();
                // Partitions the budget cannot project are dropped from
                // the care set — fewer don't cares, still sound.
                let (care, dropped) =
                    reach.try_care_set(&ps, &mut m, &var_of_latch, &cand_gov);
                let unreachable = m.try_not(care, &cand_gov)?;
                let interval = Interval::try_with_dontcare(&mut m, f, unreachable, &cand_gov)?;
                let (tree, stats) =
                    recursive::try_decompose(&mut m, &interval, &options.decompose, &cand_gov)?;
                Ok((tree, stats, dropped))
            }));
            match attempt {
                Ok(Ok((tree, stats, dropped))) => {
                    report.decomposed += 1;
                    report.steps.or_steps += stats.or_steps;
                    report.steps.and_steps += stats.and_steps;
                    report.steps.xor_steps += stats.xor_steps;
                    report.steps.shannon_steps += stats.shannon_steps;
                    report.steps.vars_abstracted += stats.vars_abstracted;
                    report.steps.budget_exhausted_ops += stats.budget_exhausted_ops;
                    report.steps.fallbacks_taken += stats.fallbacks_taken;
                    report.steps.rescued_checks += stats.rescued_checks;
                    report.budget_exhausted_ops += stats.budget_exhausted_ops + dropped;
                    report.fallbacks_taken += stats.fallbacks_taken;
                    if options.accept_only_improvements
                        && tree.aig_cost()
                            > mffc_cost(&cleaned, signal, &ref_counts, extractor.var_map())
                    {
                        report.rejected += 1;
                        emitter.copy_cone(&cleaned, signal)
                    } else {
                        emitter.emit(&tree, &var_to_leaf)
                    }
                }
                Ok(Err(_)) => {
                    report.candidates_skipped += 1;
                    report.budget_exhausted_ops += 1;
                    emitter.copy_cone(&cleaned, signal)
                }
                Err(_panic) => {
                    report.worker_panics += 1;
                    report.candidates_skipped += 1;
                    emitter.copy_cone(&cleaned, signal)
                }
            }
        } else {
            report.skipped_wide +=
                usize::from(matches!(cleaned.kind(signal), NodeKind::Gate(_)));
            emitter.copy_cone(&cleaned, signal)
        };
        rebuilt.insert(signal, new_sig);
        // The processed candidate becomes a cut point: later cones read it
        // as a fresh variable bound to its rebuilt implementation.
        if matches!(cleaned.kind(signal), NodeKind::Gate(_)) {
            let v = VarId(m.num_vars() as u32);
            m.new_var();
            extractor.add_leaf(&mut m, signal, v);
            var_to_leaf.insert(v, signal);
            emitter.set_redirect(signal, new_sig);
        }
    }
    report.sharing_hits = emitter.sharing_hits();

    // Wire latches and outputs in the rebuilt netlist.
    let mut out = emitter.into_netlist();
    for &l in cleaned.latches() {
        let next = cleaned.latch_next(l).expect("validated");
        let new_latch = out.signal(cleaned.signal_name(l)).expect("latch copied");
        out.set_latch_next(new_latch, rebuilt[&next]);
    }
    for (name, sig) in cleaned.outputs() {
        out.add_output(name.clone(), rebuilt[sig]);
    }
    let (final_netlist, _) = clean(&out);
    run_validation(original, &final_netlist, options, gov, &mut report);
    (final_netlist, report)
}

/// Runs the optional post-flow SAT validation through the *governed*
/// equivalence checker, so the flow governor's cancellation, deadline,
/// and fault plan reach the validation solver too. An interrupted
/// validation records its cause instead of a verdict.
pub(crate) fn run_validation(
    input: &Netlist,
    output: &Netlist,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
    report: &mut SynthesisReport,
) {
    let Some(frames) = options.validate_frames else { return };
    match symbi_netlist::sec::try_bounded_check_sat(input, output, frames, gov) {
        Ok((verdict, solver)) => {
            report.sat_validation = Some(SatValidationReport {
                frames,
                equivalent: verdict.is_equivalent(),
                solver,
            });
        }
        Err(cause) => report.validation_interrupted = Some(cause),
    }
}

/// Runs [`optimize`] repeatedly until a pass stops improving the and/inv
/// size (or `max_passes` is hit) — the "re-synthesis loop of
/// well-optimized designs" the paper names as future work. Returns the
/// final netlist, the per-pass reports, and the and/inv sizes after each
/// pass.
///
/// # Panics
///
/// Panics if the netlist fails validation.
pub fn optimize_iterated(
    netlist: &Netlist,
    options: &SynthesisOptions,
    max_passes: usize,
) -> (Netlist, Vec<SynthesisReport>, Vec<usize>) {
    let mut current = netlist.clone();
    let mut reports = Vec::new();
    let mut sizes = Vec::new();
    let mut last_size = symbi_netlist::stats::stats(&clean(netlist).0).aig_ands;
    for _ in 0..max_passes.max(1) {
        let (next, report) = optimize(&current, options);
        let size = symbi_netlist::stats::stats(&next).aig_ands;
        reports.push(report);
        sizes.push(size);
        current = next;
        if size >= last_size {
            break; // no further progress
        }
        last_size = size;
    }
    (current, reports, sizes)
}

/// and/inv cost of a signal's *maximum fanout-free cone*: the gates that
/// exist only to feed this signal and would vanish if it were rewritten.
/// Logic shared with other cones is excluded, so accepting a tree whose
/// cost does not exceed this bound can never grow the circuit.
pub(crate) fn mffc_cost(
    netlist: &Netlist,
    root: SignalId,
    ref_counts: &[usize],
    boundaries: &HashMap<SignalId, VarId>,
) -> usize {
    let mut refs: HashMap<SignalId, usize> = HashMap::new();
    let mut cost = 0usize;
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        let NodeKind::Gate(kind) = netlist.kind(s) else { continue };
        if s != root && boundaries.contains_key(&s) {
            continue; // cut point: owned by its own candidate
        }
        cost += kind.aig_and_count(netlist.fanins(s).len());
        for &f in netlist.fanins(s) {
            let slot = refs.entry(f).or_insert_with(|| ref_counts[f.index()]);
            *slot = slot.saturating_sub(1);
            if *slot == 0 {
                stack.push(f);
            }
        }
    }
    cost
}

/// Combinational support of `signal` with the extractor's registered
/// leaves (inputs, latches, and processed cut points) as boundaries.
pub(crate) fn local_support(
    netlist: &Netlist,
    signal: SignalId,
    leaves: &HashMap<SignalId, VarId>,
) -> Vec<SignalId> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut stack = vec![signal];
    while let Some(s) = stack.pop() {
        if !seen.insert(s) {
            continue;
        }
        if s != signal && leaves.contains_key(&s) {
            out.push(s);
            continue;
        }
        match netlist.kind(s) {
            NodeKind::Input | NodeKind::Latch { .. } => out.push(s),
            NodeKind::Const(_) => {}
            NodeKind::Gate(_) => stack.extend(netlist.fanins(s).iter().copied()),
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbi_netlist::sim::random_co_simulation;
    use symbi_netlist::GateKind;

    /// One-hot ring whose output logic can exploit unreachable states.
    fn ring_with_logic() -> Netlist {
        let mut n = Netlist::new("ring");
        let en = n.add_input("en");
        let q: Vec<SignalId> = (0..4).map(|i| n.add_latch(format!("q{i}"), i == 0)).collect();
        let nen = n.add_gate("nen", GateKind::Not, vec![en]);
        for i in 0..4 {
            let sh = n.add_gate(format!("sh{i}"), GateKind::And, vec![en, q[(i + 3) % 4]]);
            let ho = n.add_gate(format!("ho{i}"), GateKind::And, vec![nen, q[i]]);
            let nx = n.add_gate(format!("nx{i}"), GateKind::Or, vec![sh, ho]);
            n.set_latch_next(q[i], nx);
        }
        // Output: "exactly one of q0,q1 hot" — under the one-hot invariant
        // this is just q0 + q1.
        let x01 = n.add_gate("x01", GateKind::Xor, vec![q[0], q[1]]);
        let both = n.add_gate("both", GateKind::And, vec![q[0], q[1]]);
        let nboth = n.add_gate("nboth", GateKind::Not, vec![both]);
        let o = n.add_gate("o", GateKind::And, vec![x01, nboth]);
        n.add_output("one_hot01", o);
        n
    }

    #[test]
    fn optimize_preserves_reachable_behaviour() {
        let n = ring_with_logic();
        let (opt, report) = optimize(&n, &SynthesisOptions::default());
        assert!(report.decomposed > 0);
        // Behaviour from the initial state must be identical (don't cares
        // only ever differ on unreachable states).
        assert!(random_co_simulation(&n, &opt, 40, 77));
    }

    #[test]
    fn state_analysis_shrinks_logic() {
        let n = ring_with_logic();
        let with = optimize(&n, &SynthesisOptions::default()).0;
        let without =
            optimize(&n, &SynthesisOptions { reach: None, ..Default::default() }).0;
        let s_with = symbi_netlist::stats::stats(&with);
        let s_without = symbi_netlist::stats::stats(&without);
        assert!(
            s_with.aig_ands <= s_without.aig_ands,
            "don't cares can only help: {} vs {}",
            s_with.aig_ands,
            s_without.aig_ands
        );
    }

    #[test]
    fn no_state_arm_is_equivalent_everywhere() {
        // Without don't cares the optimized circuit must agree from any
        // state, not just reachable ones: check combinationally.
        let n = ring_with_logic();
        let (opt, _) = optimize(&n, &SynthesisOptions { reach: None, ..Default::default() });
        // Co-simulate from several forced states.
        let mut sim_a = symbi_netlist::sim::Simulator::new(&n);
        let mut sim_b = symbi_netlist::sim::Simulator::new(&opt);
        for state in [[1u64, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]] {
            sim_a.set_state(&state);
            sim_b.set_state(&state);
            assert_eq!(sim_a.eval_comb(&[u64::MAX]), sim_b.eval_comb(&[u64::MAX]));
        }
    }

    #[test]
    fn report_counts_candidates() {
        let n = ring_with_logic();
        let (_, report) = optimize(&n, &SynthesisOptions::default());
        // At least the 4 next-state functions + 1 output; multi-fanout
        // internal gates add more.
        assert!(report.candidates >= 5, "got {}", report.candidates);
        assert!(report.log2_states <= 2.0 + 1e-9, "4 reachable states of 16");
    }

    #[test]
    fn iterated_optimization_converges_and_stays_correct() {
        let n = ring_with_logic();
        let (opt, reports, sizes) = optimize_iterated(&n, &SynthesisOptions::default(), 4);
        assert!(!reports.is_empty());
        // Sizes are non-increasing up to the terminating pass.
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0] || w == &sizes[sizes.len() - 2..]);
        }
        assert!(random_co_simulation(&n, &opt, 40, 4242));
    }

    #[test]
    fn sat_validation_confirms_the_flow_and_reports_effort() {
        let n = ring_with_logic();
        let opts = SynthesisOptions { validate_frames: Some(8), ..Default::default() };
        let (_, report) = optimize(&n, &opts);
        let v = report.sat_validation.expect("validation requested");
        assert_eq!(v.frames, 8);
        assert!(v.equivalent, "don't-care rewrites must preserve reachable behaviour");
        assert!(v.solver.propagations > 0, "validation did no SAT work: {:?}", v.solver);
        // Validation off by default.
        let (_, silent) = optimize(&n, &SynthesisOptions::default());
        assert!(silent.sat_validation.is_none());
    }

    #[test]
    fn injected_panic_at_synth_decompose_is_isolated() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = ring_with_logic();
        let opts = SynthesisOptions::default();
        let plan = Arc::new(
            FaultPlan::new(21).with_rule(FaultSite::SynthDecompose, 1, FaultKind::Panic),
        );
        let gov = opts.budget.governor().with_fault_plan(Arc::clone(&plan));
        let (opt, report) = optimize_governed(&n, &opts, &gov);
        assert_eq!(plan.faults_fired(), 1, "the panic really fired");
        assert_eq!(report.worker_panics, 1);
        assert_eq!(report.candidates_skipped, 1);
        // The crashed candidate kept its original cone; behaviour from
        // the initial state is untouched.
        assert!(random_co_simulation(&n, &opt, 40, 123));
    }

    #[test]
    fn injected_cancel_mid_flow_degrades_the_tail_but_finishes() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = ring_with_logic();
        let opts = SynthesisOptions::default();
        // Cancel at the second candidate attempt: the first decomposition
        // lands, every later candidate observes the persistent flag and
        // keeps its cone — the flow drains, it never hangs or dies.
        let plan = Arc::new(
            FaultPlan::new(22).with_rule(FaultSite::SynthDecompose, 2, FaultKind::Cancel),
        );
        let gov = opts.budget.governor().with_fault_plan(plan);
        let (opt, report) = optimize_governed(&n, &opts, &gov);
        assert!(report.candidates_skipped >= 1);
        assert_eq!(report.worker_panics, 0);
        assert!(report.decomposed <= 1, "cancellation stops later rewrites");
        assert!(random_co_simulation(&n, &opt, 40, 321));
    }

    #[test]
    fn interrupted_validation_records_its_cause() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = ring_with_logic();
        let opts = SynthesisOptions { validate_frames: Some(8), ..Default::default() };
        // A budget fault in the validation solver's very first search
        // loop: synthesis itself is untouched, validation reports why it
        // could not finish instead of faking a verdict.
        let plan = Arc::new(
            FaultPlan::new(23).with_rule(FaultSite::SatPropagate, 1, FaultKind::Budget),
        );
        let gov = opts.budget.governor().with_fault_plan(plan);
        let (_, report) = optimize_governed(&n, &opts, &gov);
        assert!(report.sat_validation.is_none());
        assert_eq!(report.validation_interrupted, Some(ResourceExhausted::Steps));
        assert!(report.decomposed > 0, "synthesis itself completed");
    }

    /// Ring plus two structurally different copies of the same AND cone
    /// (direct and De Morgan), which structural hashing cannot merge but
    /// SAT sweeping must.
    fn ring_with_duplicates() -> Netlist {
        let mut n = ring_with_logic();
        let en = n.signal("en").unwrap();
        let q0 = n.signal("q0").unwrap();
        let d1 = n.add_gate("d1", GateKind::And, vec![en, q0]);
        let ne = n.add_gate("ne", GateKind::Not, vec![en]);
        let nq = n.add_gate("nq", GateKind::Not, vec![q0]);
        let d2 = n.add_gate("d2", GateKind::Nor, vec![ne, nq]); // = en·q0
        n.add_output("d1", d1);
        n.add_output("d2", d2);
        n
    }

    #[test]
    fn sweep_prepass_merges_duplicates_and_stays_equivalent() {
        let n = ring_with_duplicates();
        let opts = SynthesisOptions { sweep: true, validate_frames: Some(8), ..Default::default() };
        let (opt, report) = optimize(&n, &opts);
        assert!(report.sweep.merges >= 1, "duplicate cones must merge: {:?}", report.sweep);
        assert!(report.sweep.sat_calls >= report.sweep.merges);
        assert!(!report.sweep.degraded);
        assert!(report.sat_validation.expect("validation ran").equivalent);
        assert!(random_co_simulation(&n, &opt, 40, 91));
    }

    #[test]
    fn sweep_off_leaves_report_and_output_untouched() {
        let n = ring_with_duplicates();
        let (base_net, base_rep) = optimize(&n, &SynthesisOptions::default());
        assert_eq!(base_rep.sweep, SweepSummary::default());
        // Sweep tuning knobs are inert while the pass is off.
        let opts = SynthesisOptions {
            sweep: false,
            sweep_rounds: 99,
            sweep_conflicts: 1,
            ..Default::default()
        };
        let (tuned_net, tuned_rep) = optimize(&n, &opts);
        assert_eq!(
            symbi_netlist::bench::write(&base_net),
            symbi_netlist::bench::write(&tuned_net)
        );
        assert_eq!(base_rep, tuned_rep);
    }

    #[test]
    fn swept_flow_is_jobs_invariant() {
        let n = ring_with_duplicates();
        let seq = SynthesisOptions { sweep: true, jobs: 1, ..Default::default() };
        let par = SynthesisOptions { sweep: true, jobs: 4, ..Default::default() };
        let (seq_net, seq_rep) = optimize(&n, &seq);
        let (par_net, par_rep) = optimize(&n, &par);
        assert_eq!(
            symbi_netlist::bench::write(&seq_net),
            symbi_netlist::bench::write(&par_net),
            "the sweep runs before the fan-out, so jobs must not matter"
        );
        assert_eq!(seq_rep, par_rep);
    }

    #[test]
    fn faulted_sweep_degrades_to_the_unswept_flow() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = ring_with_duplicates();
        let opts = SynthesisOptions { sweep: true, ..Default::default() };
        let (unswept_net, _) = optimize(&n, &SynthesisOptions::default());
        for kind in [FaultKind::Budget, FaultKind::Cancel, FaultKind::Panic] {
            let plan = Arc::new(
                FaultPlan::new(41).with_rule(FaultSite::NetlistSweep, 1, kind),
            );
            let gov = opts.budget.governor().with_fault_plan(Arc::clone(&plan));
            let (net, report) = optimize_governed(&n, &opts, &gov);
            assert!(plan.faults_fired() >= 1, "{kind:?} must fire");
            assert!(report.sweep.degraded, "{kind:?} must degrade the sweep");
            assert_eq!(report.sweep.merges, 0);
            if kind != FaultKind::Cancel {
                // A killed sweep leaves the rest of the flow untouched:
                // byte-identical to never having asked for it. (A cancel
                // poisons the shared governor, degrading later
                // candidates too, so only equivalence is required.)
                assert_eq!(
                    symbi_netlist::bench::write(&net),
                    symbi_netlist::bench::write(&unswept_net),
                    "{kind:?}: degraded flow must equal the unswept flow"
                );
            }
            assert!(random_co_simulation(&n, &net, 40, 17));
        }
    }

    #[test]
    fn wide_cones_are_copied() {
        let mut n = Netlist::new("wide");
        let ins: Vec<SignalId> = (0..20).map(|i| n.add_input(format!("i{i}"))).collect();
        let g = n.add_gate("g", GateKind::And, ins);
        n.add_output("g", g);
        let opts = SynthesisOptions { max_cone_support: 8, ..Default::default() };
        let (opt, report) = optimize(&n, &opts);
        assert_eq!(report.skipped_wide, 1);
        assert_eq!(report.decomposed, 0);
        assert!(random_co_simulation(&n, &opt, 8, 3));
    }
}
