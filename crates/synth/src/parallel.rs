//! Parallel candidate-cone bi-decomposition for [`crate::flow::optimize`].
//!
//! Algorithm 1's loop body is data-parallel: each candidate cone is
//! collapsed, widened by don't cares, and bi-decomposed independently —
//! only the *bookkeeping* (cut points, acceptance, emission) is
//! sequential. This module splits the loop into three phases:
//!
//! 1. **Prepass** (sequential, cheap): replay the candidate walk without
//!    building any BDDs, recording for every candidate its support, its
//!    eligibility, and how many earlier gate candidates had already
//!    become cut points at its turn (`cuts_prefix`).
//! 2. **Decompose** (parallel): every eligible candidate runs
//!    hermetically on a worker with a *private* [`Manager`] that
//!    replays the exact variable layout of the sequential flow — the
//!    DFS leaf order followed by the first `cuts_prefix` cut variables.
//!    Decomposition is a pure function of the canonical cone function,
//!    the variable order, and the options, so the worker returns the
//!    same [`Tree`] the sequential pass would have produced. The shared
//!    reachability analysis is read concurrently through
//!    [`Reachability::try_care_set_shared`], and one flow [`ResourceGovernor`]
//!    budgets and cancels all workers.
//! 3. **Merge** (sequential, canonical order): walk the candidates in the
//!    original order, applying the precomputed results through the same
//!    accept/reject logic and [`TreeEmitter`] calls as the sequential
//!    loop.
//!
//! Because trees, acceptance decisions, and emitter calls all match the
//! sequential pass, the output netlist and report are **byte-identical**
//! for every `jobs` value under the default unlimited budget. A finite
//! budget races between workers (and hermetic cone rebuilds are charged
//! steps the sequential extractor cache amortizes away), so budgeted
//! parallel runs remain sound and correct but may degrade different
//! candidates than a sequential run would.

use crate::flow::{local_support, mffc_cost, run_validation, SynthesisOptions, SynthesisReport};
use crate::share::TreeEmitter;
use std::collections::{HashMap, HashSet};
use symbi_bdd::par::{effective_jobs, parallel_map_isolated, TaskPanic};
use symbi_bdd::{FaultSite, Manager, ResourceExhausted, ResourceGovernor, VarId};
use symbi_core::{recursive, Interval};
use symbi_core::recursive::Tree;
use symbi_netlist::clean::clean;
use symbi_netlist::cone::{dfs_leaf_order, ConeExtractor};
use symbi_netlist::{Netlist, NodeKind, SignalId};
use symbi_reach::{Reachability, ReachabilityOptions};

/// One candidate's bookkeeping from the prepass.
struct Task {
    signal: SignalId,
    /// Candidate already seen earlier in the walk (counted, then skipped).
    dup: bool,
    /// Narrow enough to collapse, and a gate or latch.
    eligible: bool,
    is_gate: bool,
    /// Combinational support at this candidate's turn (leaves = inputs,
    /// latches, and the cut points of all earlier candidates).
    support: Vec<SignalId>,
    /// Number of gate candidates processed before this one — i.e. how
    /// many cut variables its worker must replay on top of the DFS
    /// layout.
    cuts_prefix: usize,
}

/// The worker's verdict for one eligible candidate.
type Decomposition = Result<(Tree, recursive::Stats, usize), ResourceExhausted>;

/// Parallel [`crate::flow::optimize_governed`]. Called by the flow when
/// `options.jobs > 1`; see the module docs for the phase structure and
/// the determinism contract.
pub(crate) fn optimize_parallel(
    original: &Netlist,
    input: &Netlist,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
) -> (Netlist, SynthesisReport) {
    let (cleaned, _) = clean(input);
    let mut report = SynthesisReport::default();

    // Reachability first (itself parallel over partitions), shared
    // read-only by every decomposition worker.
    let reach = match options.reach {
        Some(opts) => Reachability::analyze_governed(
            &cleaned,
            ReachabilityOptions { jobs: opts.jobs.max(options.jobs), ..opts },
            gov,
        ),
        None => Reachability::trivial(&cleaned),
    };
    report.log2_states = reach.log2_states();

    // The sequential flow's variable layout, reconstructed without a
    // manager: DFS leaves get variables 0..n in order, and the k-th gate
    // candidate's cut point becomes variable n + k.
    let layout = dfs_leaf_order(&cleaned);
    let var_of_leaf: HashMap<SignalId, VarId> =
        layout.iter().enumerate().map(|(i, &s)| (s, VarId(i as u32))).collect();
    let var_of_latch: HashMap<SignalId, VarId> =
        cleaned.latches().iter().map(|&l| (l, var_of_leaf[&l])).collect();

    // Candidate selection — identical to the sequential pass.
    let mut ref_counts: Vec<usize> = cleaned.fanouts().iter().map(Vec::len).collect();
    for &(_, s) in cleaned.outputs() {
        ref_counts[s.index()] += 1;
    }
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
    for s in cleaned.signals() {
        if is_root[s.index()] && !matches!(cleaned.kind(s), NodeKind::Gate(_)) {
            candidates.push(s);
        }
    }

    // Phase 1: prepass. Replays the sequential walk's boundary evolution
    // (every processed gate candidate becomes a cut point, wide or not)
    // to pin down each candidate's support and variable universe.
    let mut boundaries: HashMap<SignalId, VarId> = var_of_leaf.clone();
    let mut cut_points: Vec<SignalId> = Vec::new();
    let mut seen: HashSet<SignalId> = HashSet::new();
    let mut tasks: Vec<Task> = Vec::with_capacity(candidates.len());
    for &signal in &candidates {
        if !seen.insert(signal) {
            tasks.push(Task {
                signal,
                dup: true,
                eligible: false,
                is_gate: false,
                support: Vec::new(),
                cuts_prefix: 0,
            });
            continue;
        }
        let support = local_support(&cleaned, signal, &boundaries);
        let is_gate = matches!(cleaned.kind(signal), NodeKind::Gate(_));
        let eligible = support.len() <= options.max_cone_support
            && matches!(cleaned.kind(signal), NodeKind::Gate(_) | NodeKind::Latch { .. });
        tasks.push(Task {
            signal,
            dup: false,
            eligible,
            is_gate,
            support,
            cuts_prefix: cut_points.len(),
        });
        if is_gate {
            boundaries.insert(signal, VarId((layout.len() + cut_points.len()) as u32));
            cut_points.push(signal);
        }
    }

    // Phase 2: hermetic decomposition of every eligible candidate. On
    // small workloads the thread pool costs more than it recovers, so
    // the cutoff drops to the inline path — results are identical
    // either way (the map is deterministic across worker counts). Each
    // task is a panic-isolation boundary: one crashed worker surfaces as
    // a `TaskPanic` for its own candidate while every sibling completes.
    let work: Vec<usize> =
        tasks.iter().enumerate().filter(|(_, t)| t.eligible).map(|(i, _)| i).collect();
    let jobs = effective_jobs(options.jobs, work.len());
    let decomposed: Vec<Result<Decomposition, TaskPanic>> =
        parallel_map_isolated(jobs, work.clone(), |wi, ti| {
            let t = &tasks[ti];
            // The `par.task` fault site is matched on the work-item
            // ordinal, not arrival order, so injection is deterministic
            // under any worker count.
            gov.fault_site_at(FaultSite::ParTask, wi as u64)?;
            decompose_candidate(&cleaned, t, &cut_points, &reach, &var_of_latch, options, gov)
        });
    let mut results: Vec<Option<Result<Decomposition, TaskPanic>>> =
        (0..tasks.len()).map(|_| None).collect();
    for (ti, r) in work.into_iter().zip(decomposed) {
        results[ti] = Some(r);
    }

    // Phase 3: merge in candidate order — the same bookkeeping, counter
    // updates, and emitter calls as the sequential loop.
    let mut emitter = TreeEmitter::new(&cleaned);
    let mut rebuilt: HashMap<SignalId, SignalId> = HashMap::new();
    let mut var_to_leaf: HashMap<VarId, SignalId> =
        var_of_leaf.iter().map(|(&s, &v)| (v, s)).collect();
    let mut boundaries: HashMap<SignalId, VarId> = var_of_leaf;
    let mut cuts_done = 0usize;
    for (ti, task) in tasks.iter().enumerate() {
        report.candidates += 1;
        if task.dup {
            continue;
        }
        report.eligible += usize::from(task.eligible);
        let signal = task.signal;
        let new_sig = if task.eligible {
            match results[ti].take().expect("eligible task was decomposed") {
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
                        && tree.aig_cost() > mffc_cost(&cleaned, signal, &ref_counts, &boundaries)
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
                Err(TaskPanic { .. }) => {
                    report.worker_panics += 1;
                    report.candidates_skipped += 1;
                    emitter.copy_cone(&cleaned, signal)
                }
            }
        } else {
            report.skipped_wide += usize::from(task.is_gate);
            emitter.copy_cone(&cleaned, signal)
        };
        rebuilt.insert(signal, new_sig);
        if task.is_gate {
            let v = VarId((layout.len() + cuts_done) as u32);
            cuts_done += 1;
            boundaries.insert(signal, v);
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

/// Runs one candidate hermetically: a fresh manager replays the
/// sequential variable layout (DFS leaves, then the candidate's cut
/// prefix), the cone is collapsed, widened by the shared reachability
/// don't cares, and bi-decomposed under a freshly forked candidate
/// budget. Everything here is a pure function of the inputs, so the
/// returned tree is the one the sequential pass produces.
fn decompose_candidate(
    cleaned: &Netlist,
    task: &Task,
    cut_points: &[SignalId],
    reach: &Reachability,
    var_of_latch: &HashMap<SignalId, VarId>,
    options: &SynthesisOptions,
    gov: &ResourceGovernor,
) -> Decomposition {
    let mut m = Manager::new();
    let mut extractor = ConeExtractor::with_dfs_layout(cleaned, &mut m);
    for &cut in &cut_points[..task.cuts_prefix] {
        let v = VarId(m.num_vars() as u32);
        m.new_var();
        extractor.add_leaf(&mut m, cut, v);
    }
    let cand_gov = gov.fork_steps(options.budget.candidate_steps);
    let f = extractor.try_bdd(&mut m, task.signal, &cand_gov)?;
    let ps: Vec<SignalId> = task
        .support
        .iter()
        .copied()
        .filter(|s| matches!(cleaned.kind(*s), NodeKind::Latch { .. }))
        .collect();
    let (care, dropped) = reach.try_care_set_shared(&ps, &mut m, var_of_latch, &cand_gov);
    let unreachable = m.try_not(care, &cand_gov)?;
    let interval = Interval::try_with_dontcare(&mut m, f, unreachable, &cand_gov)?;
    let (tree, stats) = recursive::try_decompose(&mut m, &interval, &options.decompose, &cand_gov)?;
    Ok((tree, stats, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::optimize;
    use symbi_netlist::sim::random_co_simulation;
    use symbi_netlist::GateKind;

    /// One-hot ring with output logic that exploits unreachable states —
    /// same circuit as the sequential flow tests, so both paths face
    /// identical candidates, don't cares, and sharing opportunities.
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
        let x01 = n.add_gate("x01", GateKind::Xor, vec![q[0], q[1]]);
        let both = n.add_gate("both", GateKind::And, vec![q[0], q[1]]);
        let nboth = n.add_gate("nboth", GateKind::Not, vec![both]);
        let o = n.add_gate("o", GateKind::And, vec![x01, nboth]);
        n.add_output("one_hot01", o);
        n
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let n = ring_with_logic();
        for reach in [Some(ReachabilityOptions::default()), None] {
            let seq_opts = SynthesisOptions { reach, jobs: 1, ..Default::default() };
            let par_opts = SynthesisOptions { reach, jobs: 4, ..Default::default() };
            let (seq_net, seq_rep) = optimize(&n, &seq_opts);
            let (par_net, par_rep) = optimize(&n, &par_opts);
            assert_eq!(
                symbi_netlist::bench::write(&seq_net),
                symbi_netlist::bench::write(&par_net),
                "jobs=4 netlist must be byte-identical to jobs=1 (reach={:?})",
                reach.is_some()
            );
            assert_eq!(seq_rep, par_rep, "reports must agree field-for-field");
        }
    }

    #[test]
    fn parallel_flow_preserves_reachable_behaviour() {
        let n = ring_with_logic();
        let opts = SynthesisOptions { jobs: 8, ..Default::default() };
        let (opt, report) = optimize(&n, &opts);
        assert!(report.decomposed > 0);
        assert!(random_co_simulation(&n, &opt, 40, 77));
    }

    #[test]
    fn worker_panic_degrades_exactly_one_cone() {
        use crate::flow::optimize_governed;
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};

        let n = ring_with_logic();
        let opts = SynthesisOptions { jobs: 2, ..Default::default() };

        let (clean_net, clean_rep) = optimize_governed(&n, &opts, &opts.budget.governor());

        // A worker panic at the first `par.task` crossing and a budget
        // fault at the same cell must degrade the *same single cone*:
        // byte-identical outputs prove the blast radius of a crash is
        // exactly one candidate, with every sibling unaffected.
        let panic_plan = Arc::new(
            FaultPlan::new(11).with_rule(FaultSite::ParTask, 1, FaultKind::Panic),
        );
        let panic_gov = opts.budget.governor().with_fault_plan(panic_plan);
        let (panic_net, panic_rep) = optimize_governed(&n, &opts, &panic_gov);

        let budget_plan = Arc::new(
            FaultPlan::new(11).with_rule(FaultSite::ParTask, 1, FaultKind::Budget),
        );
        let budget_gov = opts.budget.governor().with_fault_plan(budget_plan);
        let (budget_net, budget_rep) = optimize_governed(&n, &opts, &budget_gov);

        assert_eq!(
            symbi_netlist::bench::write(&panic_net),
            symbi_netlist::bench::write(&budget_net),
            "panic and budget faults at the same cell must degrade identically"
        );
        assert_eq!(panic_rep.worker_panics, 1);
        assert_eq!(panic_rep.candidates_skipped, 1);
        assert_eq!(budget_rep.worker_panics, 0);
        assert_eq!(budget_rep.candidates_skipped, 1);
        assert_eq!(
            panic_rep.decomposed,
            clean_rep.decomposed - 1,
            "exactly one cone lost its decomposition"
        );
        // The degraded output still behaves like the input. (The kept
        // cone may happen to match its rewrite structurally, so the
        // clean/panic netlists are not required to differ — the
        // panic/budget identity above is the blast-radius proof.)
        assert!(random_co_simulation(&n, &panic_net, 40, 99));
        let _ = clean_net;
    }

    #[test]
    fn later_par_task_panic_leaves_earlier_cones_byte_identical() {
        use crate::flow::optimize_governed;
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};

        let n = ring_with_logic();
        let opts = SynthesisOptions { jobs: 2, ..Default::default() };
        for occurrence in [2u64, 3] {
            let plan = Arc::new(
                FaultPlan::new(5).with_rule(FaultSite::ParTask, occurrence, FaultKind::Panic),
            );
            let gov = opts.budget.governor().with_fault_plan(plan);
            let (net, rep) = optimize_governed(&n, &opts, &gov);
            assert_eq!(rep.worker_panics, 1, "occurrence {occurrence}");
            assert!(random_co_simulation(&n, &net, 40, occurrence));
            // Replays are deterministic: same plan, same output.
            let replay_plan = Arc::new(
                FaultPlan::new(5).with_rule(FaultSite::ParTask, occurrence, FaultKind::Panic),
            );
            let replay_gov = opts.budget.governor().with_fault_plan(replay_plan);
            let (net2, rep2) = optimize_governed(&n, &opts, &replay_gov);
            assert_eq!(
                symbi_netlist::bench::write(&net),
                symbi_netlist::bench::write(&net2)
            );
            assert_eq!(rep, rep2);
        }
    }

    #[test]
    fn budgeted_parallel_flow_degrades_but_stays_correct() {
        let n = ring_with_logic();
        let opts = SynthesisOptions {
            budget: crate::flow::BudgetOptions {
                candidate_steps: 16,
                ..Default::default()
            },
            jobs: 4,
            validate_frames: Some(8),
            ..Default::default()
        };
        let (_, report) = optimize(&n, &opts);
        let v = report.sat_validation.expect("validation requested");
        assert!(v.equivalent, "budgeted parallel runs may skip candidates, never break them");
    }
}
