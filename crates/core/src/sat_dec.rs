//! SAT-based bi-decomposability checks — the approach of Lee, Jiang &
//! Hung (DAC 2008, the paper's reference \[14\]), reimplemented as a
//! baseline: decomposability is phrased as the *unsatisfiability* of a
//! small multi-copy formula over the function.
//!
//! For `f = g1 + g2` with `g1` vacuous in `A` and `g2` vacuous in `B`,
//! the decomposition fails exactly when some onset minterm `x` has an
//! offset twin `y` reachable by changing only `A`-variables *and* an
//! offset twin `z` reachable by changing only `B`-variables — then
//! neither `g1` (which cannot tell `x` from `y`) nor `g2` (ditto `z`)
//! may cover `x`. So:
//!
//! ```text
//! OR-decomposable(A, B)  ⟺  UNSAT[ f(x) ∧ ¬f(y) ∧ ¬f(z)
//!                                   ∧ x =_{∖A} y ∧ x =_{∖B} z ]
//! ```
//!
//! XOR similarly refutes Proposition 3.1 with four copies. The function
//! is handed over as a BDD and encoded into CNF by Tseitin translation
//! over its nodes (each BDD node is one `ITE` constraint), so the
//! baseline shares the exact same function representation as the
//! symbolic engine — the comparison isolates the *method*.
//!
//! Fixed-partition checks mirror [`crate::or_dec::decomposable`];
//! [`grow_or_partition`] additionally implements \[14\]'s unsat-core-guided
//! partition growing for OR.

use crate::Interval;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use symbi_bdd::{FaultSite, Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};
use symbi_sat::{BudgetedSolveResult, Lit, SatCheckPoint, Solver, SolverStats};

/// A pair of vacuity sets `(A, B)`: `g1` is vacuous in `A`, `g2` in `B`.
pub type Partition = (Vec<VarId>, Vec<VarId>);

/// Tseitin-encodes the BDD `f` over the literal assignment `inputs`
/// (function variable → SAT literal) and returns a literal equivalent to
/// `f`'s value. Fresh auxiliary variables are created per BDD node.
///
/// The traversal is an explicit worklist, not recursion: the BDD of a
/// wide carry chain is one node *per level*, so its depth equals its
/// size, and a per-node recursion overflowed the stack around 10⁴–10⁵
/// nodes — exactly the functions the SAT backend exists to rescue.
fn encode_bdd(
    solver: &mut Solver,
    m: &Manager,
    f: NodeId,
    inputs: &HashMap<VarId, Lit>,
    memo: &mut HashMap<NodeId, Lit>,
    constants: &mut Option<(Lit, Lit)>,
) -> Lit {
    let mut stack = vec![f];
    while let Some(&node) = stack.last() {
        if memo.contains_key(&node) {
            stack.pop();
            continue;
        }
        if node.is_terminal() {
            let (t, ff) = *constants.get_or_insert_with(|| {
                let t = Lit::pos(solver.new_var());
                solver.add_clause([t]);
                let ff = Lit::pos(solver.new_var());
                solver.add_clause([!ff]);
                (t, ff)
            });
            memo.insert(node, if node.is_true() { t } else { ff });
            stack.pop();
            continue;
        }
        let (lo, hi) = m.branches(node);
        let (lo_lit, hi_lit) = match (memo.get(&lo), memo.get(&hi)) {
            (Some(&l), Some(&h)) => (l, h),
            (lo_done, hi_done) => {
                // Children first; revisit this node once they resolve.
                if hi_done.is_none() {
                    stack.push(hi);
                }
                if lo_done.is_none() {
                    stack.push(lo);
                }
                continue;
            }
        };
        let v = m.top_var(node).expect("non-terminal");
        let sel = *inputs
            .get(&v)
            .unwrap_or_else(|| panic!("no SAT literal for function variable {v}"));
        let n = Lit::pos(solver.new_var());
        // n ↔ ITE(sel, hi, lo)
        solver.add_clause([!sel, !hi_lit, n]);
        solver.add_clause([!sel, hi_lit, !n]);
        solver.add_clause([sel, !lo_lit, n]);
        solver.add_clause([sel, lo_lit, !n]);
        memo.insert(node, n);
        stack.pop();
    }
    memo[&f]
}

/// One copy of the function's input space: fresh SAT variables per
/// function variable, shared with another copy outside the given set.
fn input_copy(
    solver: &mut Solver,
    vars: &[VarId],
    base: Option<(&HashMap<VarId, Lit>, &[VarId])>,
) -> HashMap<VarId, Lit> {
    let mut out = HashMap::new();
    for &v in vars {
        let lit = match base {
            Some((base_map, free)) if !free.contains(&v) => base_map[&v],
            _ => Lit::pos(solver.new_var()),
        };
        out.insert(v, lit);
    }
    out
}

/// Builds the interrupt hook wiring a solver to a [`ResourceGovernor`]:
/// the CDCL search loop crosses the governor's `sat.propagate` fault
/// site (and polls for cancellation/deadline) before every propagation
/// round, and `sat.reduce_db` before every learnt-database reduction.
/// Returns the hook (to be installed through the RAII scope of
/// [`Solver::with_interrupt`], so it can never leak into a later
/// unbudgeted solve) and the shared cell recording *why* it
/// interrupted, for mapping an `Unknown` verdict back to a
/// [`ResourceExhausted`] cause.
pub(crate) fn governor_hook(
    gov: &ResourceGovernor,
) -> (impl FnMut(SatCheckPoint) -> bool + Send + 'static, Arc<Mutex<Option<ResourceExhausted>>>) {
    let cause: Arc<Mutex<Option<ResourceExhausted>>> = Arc::new(Mutex::new(None));
    let hook_gov = gov.clone();
    let hook_cause = Arc::clone(&cause);
    let hook = move |point| {
        let verdict = match point {
            SatCheckPoint::Propagate => hook_gov
                .fault_site(FaultSite::SatPropagate)
                .and_then(|()| hook_gov.poll_interrupt()),
            SatCheckPoint::ReduceDb => hook_gov.fault_site(FaultSite::SatReduceDb),
        };
        match verdict {
            Ok(()) => false,
            Err(e) => {
                *hook_cause.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                true
            }
        }
    };
    (hook, cause)
}

/// Maps an `Unknown` budgeted verdict to its cause: whatever the
/// interrupt hook recorded, else the conflict budget ran out (`Steps`).
pub(crate) fn unknown_cause(cause: &Mutex<Option<ResourceExhausted>>) -> ResourceExhausted {
    cause
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .unwrap_or(ResourceExhausted::Steps)
}

/// SAT-based OR decomposability check for a completely specified
/// function: `g1` vacuous in `a_vacuous`, `g2` vacuous in `b_vacuous`.
/// Agrees exactly with [`crate::or_dec::decomposable`] on exact
/// intervals. Runs [`try_or_decomposable`] with no conflict budget.
pub fn or_decomposable(
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_or_decomposable(m, f, vars, a_vacuous, b_vacuous, u64::MAX, &gov)
        .expect("unlimited governor cannot trip")
        .0
}

/// Encodes the three-copy OR-decomposability refutation formula into
/// `solver`: SAT iff the partition fails.
fn encode_or_formula(
    solver: &mut Solver,
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) {
    let mut constants = None;
    let x = input_copy(solver, vars, None);
    let y = input_copy(solver, vars, Some((&x, a_vacuous)));
    let z = input_copy(solver, vars, Some((&x, b_vacuous)));
    let fx = encode_bdd(solver, m, f, &x, &mut HashMap::new(), &mut constants);
    let fy = encode_bdd(solver, m, f, &y, &mut HashMap::new(), &mut constants);
    let fz = encode_bdd(solver, m, f, &z, &mut HashMap::new(), &mut constants);
    solver.add_clause([fx]);
    solver.add_clause([!fy]);
    solver.add_clause([!fz]);
}

/// Governed, conflict-budgeted form of [`or_decomposable`], with the
/// solver statistics of the check: the solve runs under `max_conflicts` with one warm halved-budget retry on an
/// `Unknown` verdict (counted in [`SolverStats::retries`]), and the
/// search is interruptible through `gov` — injected faults, deadlines,
/// and cancellation abort with the precise [`ResourceExhausted`] cause.
/// A one-shot transient fault is absorbed by the retry, since the
/// site's crossing counter has already advanced past the rule.
pub fn try_or_decomposable(
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    max_conflicts: u64,
    gov: &ResourceGovernor,
) -> Result<(bool, SolverStats), ResourceExhausted> {
    // The multi-copy encoding is itself linear in BDD size — worth its
    // own injection site (and an interrupt check) before the solve.
    gov.fault_site(FaultSite::SatEncode)?;
    gov.poll_interrupt()?;
    let mut solver = Solver::new();
    let (hook, cause) = governor_hook(gov);
    let mut solver = solver.with_interrupt(hook);
    encode_or_formula(&mut solver, m, f, vars, a_vacuous, b_vacuous);
    match solver.solve_budgeted_with_retry(max_conflicts) {
        BudgetedSolveResult::Sat => Ok((false, solver.stats)),
        BudgetedSolveResult::Unsat { .. } => Ok((true, solver.stats)),
        BudgetedSolveResult::Unknown => Err(unknown_cause(&cause)),
    }
}

/// SAT-based AND decomposability: the OR question on the complement.
pub fn and_decomposable(
    m: &mut Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_and_decomposable(m, f, vars, a_vacuous, b_vacuous, u64::MAX, &gov)
        .expect("unlimited governor cannot trip")
        .0
}

/// Governed, conflict-budgeted form of [`and_decomposable`].
pub fn try_and_decomposable(
    m: &mut Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    max_conflicts: u64,
    gov: &ResourceGovernor,
) -> Result<(bool, SolverStats), ResourceExhausted> {
    let nf = m.not(f);
    try_or_decomposable(m, nf, vars, a_vacuous, b_vacuous, max_conflicts, gov)
}

/// SAT-based XOR decomposability check for a completely specified
/// function (Proposition 3.1 refuted by a 4-copy formula): SAT iff some
/// `A`-flip changes `f` for one `B`-part but not another.
pub fn xor_decomposable(
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_xor_decomposable(m, f, vars, a_vacuous, b_vacuous, u64::MAX, &gov)
        .expect("unlimited governor cannot trip")
        .0
}

/// Encodes the four-copy XOR-decomposability refutation formula into
/// `solver`: SAT iff the partition fails.
fn encode_xor_formula(
    solver: &mut Solver,
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) {
    let mut constants = None;
    // p = (a, b, c); q = (a', b, c); r = (a, b', c); s = (a', b', c).
    let p = input_copy(solver, vars, None);
    let q = input_copy(solver, vars, Some((&p, a_vacuous)));
    let r = input_copy(solver, vars, Some((&p, b_vacuous)));
    // s shares a' with q on A, b' with r on B, c with p elsewhere.
    let mut s_map = HashMap::new();
    for &v in vars {
        let lit = if a_vacuous.contains(&v) {
            q[&v]
        } else if b_vacuous.contains(&v) {
            r[&v]
        } else {
            p[&v]
        };
        s_map.insert(v, lit);
    }
    let fp = encode_bdd(solver, m, f, &p, &mut HashMap::new(), &mut constants);
    let fq = encode_bdd(solver, m, f, &q, &mut HashMap::new(), &mut constants);
    let fr = encode_bdd(solver, m, f, &r, &mut HashMap::new(), &mut constants);
    let fs = encode_bdd(solver, m, f, &s_map, &mut HashMap::new(), &mut constants);
    // f(p) ≠ f(q):
    let d1 = Lit::pos(solver.new_var());
    xor_constraint(solver, fp, fq, d1);
    solver.add_clause([d1]);
    // f(r) = f(s):
    let d2 = Lit::pos(solver.new_var());
    xor_constraint(solver, fr, fs, d2);
    solver.add_clause([!d2]);
}

/// Governed, conflict-budgeted form of [`xor_decomposable`].
pub fn try_xor_decomposable(
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    max_conflicts: u64,
    gov: &ResourceGovernor,
) -> Result<(bool, SolverStats), ResourceExhausted> {
    gov.fault_site(FaultSite::SatEncode)?;
    gov.poll_interrupt()?;
    let mut solver = Solver::new();
    let (hook, cause) = governor_hook(gov);
    let mut solver = solver.with_interrupt(hook);
    encode_xor_formula(&mut solver, m, f, vars, a_vacuous, b_vacuous);
    match solver.solve_budgeted_with_retry(max_conflicts) {
        BudgetedSolveResult::Sat => Ok((false, solver.stats)),
        BudgetedSolveResult::Unsat { .. } => Ok((true, solver.stats)),
        BudgetedSolveResult::Unknown => Err(unknown_cause(&cause)),
    }
}

/// Unsat-core-guided OR-partition growing — the signature move of \[14\]:
/// one refutation proves decomposability *and* its core reveals which
/// variable-equality constraints mattered, so every variable whose
/// constraint is absent from the core joins a vacuity set at once
/// (instead of one greedy re-check per variable).
///
/// Starting from the seed pair (`seed_a` exclusive to `g2`'s side,
/// `seed_b` to `g1`'s), returns grown vacuity sets `(A, B)` with the
/// decomposition `f = g1(x∖A) + g2(x∖B)` verified by a final solve, or
/// `None` when even the seed pair is infeasible, together with the
/// accumulated solver statistics of the whole growth loop (all
/// incremental solves on the shared solver).
pub fn grow_or_partition(
    m: &Manager,
    f: NodeId,
    vars: &[VarId],
    seed_a: VarId,
    seed_b: VarId,
) -> (Option<Partition>, SolverStats) {
    let mut solver = Solver::new();
    let mut constants = None;
    // Three fully independent copies; equalities are *conditional* on
    // assumption literals so the partition can move between solves.
    let x = input_copy(&mut solver, vars, None);
    let y = input_copy(&mut solver, vars, Some((&x, vars)));
    let z = input_copy(&mut solver, vars, Some((&x, vars)));
    let mut eq_y: HashMap<VarId, Lit> = HashMap::new();
    let mut eq_z: HashMap<VarId, Lit> = HashMap::new();
    for &v in vars {
        let ey = Lit::pos(solver.new_var());
        solver.add_clause([!ey, !x[&v], y[&v]]);
        solver.add_clause([!ey, x[&v], !y[&v]]);
        eq_y.insert(v, ey);
        let ez = Lit::pos(solver.new_var());
        solver.add_clause([!ez, !x[&v], z[&v]]);
        solver.add_clause([!ez, x[&v], !z[&v]]);
        eq_z.insert(v, ez);
    }
    let fx = encode_bdd(&mut solver, m, f, &x, &mut HashMap::new(), &mut constants);
    let fy = encode_bdd(&mut solver, m, f, &y, &mut HashMap::new(), &mut constants);
    let fz = encode_bdd(&mut solver, m, f, &z, &mut HashMap::new(), &mut constants);
    solver.add_clause([fx]);
    solver.add_clause([!fy]);
    solver.add_clause([!fz]);

    let mut a: Vec<VarId> = vec![seed_a];
    let mut b: Vec<VarId> = vec![seed_b];
    let mut verified: Option<(Vec<VarId>, Vec<VarId>)> = None;
    loop {
        // Enforce equality outside the current vacuity sets.
        let assumptions: Vec<Lit> = vars
            .iter()
            .flat_map(|&v| {
                let mut out = Vec::new();
                if !a.contains(&v) {
                    out.push(eq_y[&v]);
                }
                if !b.contains(&v) {
                    out.push(eq_z[&v]);
                }
                out
            })
            .collect();
        match solver.solve_with_assumptions(&assumptions) {
            symbi_sat::SolveResult::Sat => {
                // Over-relaxed (or the seed itself fails): fall back to
                // the last verified partition.
                return (verified, solver.stats);
            }
            symbi_sat::SolveResult::Unsat { core } => {
                let grown_a: Vec<VarId> = vars
                    .iter()
                    .copied()
                    .filter(|&v| a.contains(&v) || !core.contains(&eq_y[&v]))
                    .collect();
                let grown_b: Vec<VarId> = vars
                    .iter()
                    .copied()
                    .filter(|&v| b.contains(&v) || !core.contains(&eq_z[&v]))
                    .collect();
                let settled = grown_a.len() == a.len() && grown_b.len() == b.len();
                verified = Some((a.clone(), b.clone()));
                if settled {
                    return (verified, solver.stats);
                }
                a = grown_a;
                b = grown_b;
            }
        }
    }
}

/// Adds clauses for `out ↔ (a ⊕ b)`.
fn xor_constraint(solver: &mut Solver, a: Lit, b: Lit, out: Lit) {
    solver.add_clause([!a, !b, !out]);
    solver.add_clause([a, b, !out]);
    solver.add_clause([!a, b, out]);
    solver.add_clause([a, !b, out]);
}

/// Convenience: dispatches a SAT check for an exact interval and any
/// primitive kind, mirroring the BDD-based check APIs.
///
/// # Panics
///
/// Panics if the interval is not exact.
pub fn decomposable(
    m: &mut Manager,
    kind: crate::DecKind,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_decomposable(
        m,
        kind,
        interval,
        vars,
        a_vacuous,
        b_vacuous,
        u64::MAX,
        &gov,
    )
    .expect("unlimited governor cannot trip")
    .0
}

/// Governed, conflict-budgeted form of [`decomposable`]: dispatches the
/// matching `try_*` check under `max_conflicts` and `gov`.
///
/// # Panics
///
/// Panics if the interval is not exact.
#[allow(clippy::too_many_arguments)] // mirrors `decomposable` plus the budget pair
pub fn try_decomposable(
    m: &mut Manager,
    kind: crate::DecKind,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    max_conflicts: u64,
    gov: &ResourceGovernor,
) -> Result<(bool, SolverStats), ResourceExhausted> {
    assert!(
        interval.is_exact(),
        "the SAT baseline handles completely specified functions"
    );
    match kind {
        crate::DecKind::Or => {
            try_or_decomposable(m, interval.lower, vars, a_vacuous, b_vacuous, max_conflicts, gov)
        }
        crate::DecKind::And => {
            try_and_decomposable(m, interval.lower, vars, a_vacuous, b_vacuous, max_conflicts, gov)
        }
        crate::DecKind::Xor => {
            try_xor_decomposable(m, interval.lower, vars, a_vacuous, b_vacuous, max_conflicts, gov)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{or_dec, xor_dec};

    fn from_tt(m: &mut Manager, n: usize, tt: u64) -> NodeId {
        let mut f = NodeId::FALSE;
        for row in 0..1u64 << n {
            if tt >> row & 1 == 1 {
                let assignment: Vec<(VarId, bool)> =
                    (0..n).map(|i| (VarId(i as u32), row >> i & 1 == 1)).collect();
                let mt = m.minterm(&assignment);
                f = m.or(f, mt);
            }
        }
        f
    }

    #[test]
    fn or_check_agrees_with_bdd_on_known_cases() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        assert!(or_decomposable(&m, f, &vars, &[VarId(2), VarId(3)], &[VarId(0), VarId(1)]));
        // A = {a}, B = {b}: both halves lose part of the ab product — the
        // onset minterm ab·c̄d̄ has offset twins via either flip.
        assert!(!or_decomposable(&m, f, &vars, &[VarId(0)], &[VarId(1)]));
    }

    #[test]
    fn exhaustive_agreement_with_bdd_checks() {
        // Random 4-var functions, all 81 disjoint-ish vacuity splits.
        let mut seed = 0x5eed_cafe_f00du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..12 {
            let tt = next() & 0xffff;
            let mut m = Manager::with_vars(4);
            let f = from_tt(&mut m, 4, tt);
            let iv = Interval::exact(f);
            let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
            for mask_a in 0u32..16 {
                for mask_b in 0u32..16 {
                    if mask_a & mask_b != 0 {
                        continue; // keep vacuity sets disjoint, as in \[14\]
                    }
                    let a: Vec<VarId> =
                        (0..4).filter(|&i| mask_a >> i & 1 == 1).map(VarId).collect();
                    let b: Vec<VarId> =
                        (0..4).filter(|&i| mask_b >> i & 1 == 1).map(VarId).collect();
                    let bdd_or = or_dec::decomposable(&mut m, &iv, &a, &b);
                    let sat_or = or_decomposable(&m, f, &vars, &a, &b);
                    assert_eq!(bdd_or, sat_or, "OR tt={tt:04x} A={a:?} B={b:?}");
                    let bdd_xor = xor_dec::decomposable(&mut m, &iv, &vars, &a, &b);
                    let sat_xor = xor_decomposable(&m, f, &vars, &a, &b);
                    assert_eq!(bdd_xor, sat_xor, "XOR tt={tt:04x} A={a:?} B={b:?}");
                }
            }
        }
    }

    #[test]
    fn core_guided_growth_finds_the_full_split() {
        // f = ab + cd seeded with (c, a): A should grow to {c, d} and B
        // to {a, b} — the perfect disjoint split — in very few solves.
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let (grown, stats) = grow_or_partition(&m, f, &vars, VarId(2), VarId(0));
        let (a, b) = grown.expect("seed is feasible");
        // The refutations of the multi-copy formula do real propagation.
        assert!(stats.propagations > 0, "stats are empty: {stats:?}");
        // Whatever exactly was grown, it must be a feasible partition…
        let iv = Interval::exact(f);
        assert!(crate::or_dec::decomposable(&mut m, &iv, &a, &b), "A={a:?} B={b:?}");
        // …that strictly extends the seeds.
        assert!(a.len() + b.len() >= 3, "core growth made no progress: A={a:?} B={b:?}");
        assert!(a.contains(&VarId(2)));
        assert!(b.contains(&VarId(0)));
    }

    #[test]
    fn core_guided_growth_rejects_bad_seeds() {
        // Parity admits no OR split at all.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        assert!(grow_or_partition(
            &m,
            f,
            &(0..3u32).map(VarId).collect::<Vec<_>>(),
            VarId(0),
            VarId(1)
        )
        .0
        .is_none());
    }

    #[test]
    fn core_guided_growth_always_feasible_on_random_functions() {
        let mut seed = 0x00dd_f00d_1234u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..16 {
            let tt = next() & 0xffff_ffff;
            let mut m = Manager::with_vars(5);
            let f = from_tt(&mut m, 5, tt);
            if f.is_terminal() {
                continue;
            }
            let vars: Vec<VarId> = (0..5u32).map(VarId).collect();
            let sa = VarId((next() % 5) as u32);
            let sb = VarId(((sa.index() + 1 + (next() % 4) as usize) % 5) as u32);
            if let Some((a, b)) = grow_or_partition(&m, f, &vars, sa, sb).0 {
                let iv = Interval::exact(f);
                assert!(
                    crate::or_dec::decomposable(&mut m, &iv, &a, &b),
                    "tt={tt:08x} A={a:?} B={b:?}"
                );
            }
        }
    }

    #[test]
    fn transient_fault_absorbed_by_budgeted_retry() {
        use symbi_bdd::{FaultKind, FaultPlan, FaultSite};
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        // One-shot budget fault at the first search-loop crossing: the
        // first solve goes Unknown, the warm retry runs past the spent
        // rule and completes with the correct verdict.
        let plan = Arc::new(
            FaultPlan::new(3).with_rule(FaultSite::SatPropagate, 1, FaultKind::Budget),
        );
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let (dec, stats) = try_or_decomposable(
            &m,
            f,
            &vars,
            &[VarId(2), VarId(3)],
            &[VarId(0), VarId(1)],
            u64::MAX,
            &gov,
        )
        .expect("retry absorbs the one-shot fault");
        assert!(dec);
        assert_eq!(stats.retries, 1, "the absorbed fault must be counted");
        assert!(stats.propagations > 0, "stats are empty: {stats:?}");
        assert_eq!(plan.faults_fired(), 1);
    }

    #[test]
    fn persistent_cancellation_defeats_the_retry() {
        use symbi_bdd::{FaultKind, FaultPlan, FaultSite};
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        // A cancel fault raises the shared flag, so the retry's very
        // first poll re-trips: the cause must survive to the caller.
        let plan = Arc::new(
            FaultPlan::new(3).with_rule(FaultSite::SatPropagate, 1, FaultKind::Cancel),
        );
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        let err = try_or_decomposable(
            &m,
            f,
            &vars,
            &[VarId(2), VarId(3)],
            &[VarId(0), VarId(1)],
            u64::MAX,
            &gov,
        )
        .expect_err("cancellation is persistent");
        assert_eq!(err, ResourceExhausted::Cancelled);
    }

    #[test]
    fn deep_chain_bdd_encodes_without_stack_overflow() {
        // Regression: `encode_bdd` recursed once per BDD node. A chain
        // BDD — one node per level, like a wide AND or a carry chain —
        // has depth equal to its size, and ~50k frames blew the 2 MiB
        // test-thread stack long before any solver work started.
        const N: usize = 50_000;
        let mut m = Manager::with_vars(N);
        let vs: Vec<NodeId> = (0..N as u32).map(|i| m.var(VarId(i))).collect();
        let mut f = NodeId::TRUE;
        for &v in vs.iter().rev() {
            f = m.and(v, f);
        }
        let mut solver = Solver::new();
        let inputs: HashMap<VarId, Lit> = (0..N as u32)
            .map(|i| (VarId(i), Lit::pos(solver.new_var())))
            .collect();
        let mut memo = HashMap::new();
        let root = encode_bdd(&mut solver, &m, f, &inputs, &mut memo, &mut None);
        assert_eq!(memo.len(), N + 2, "one encoding per chain node plus both terminals");
        // The encoding is semantically right: asserting the root forces
        // every input true.
        solver.add_clause([root]);
        assert!(solver.solve().is_sat());
        assert_eq!(solver.value(inputs[&VarId(0)].var()), Some(true));
        assert_eq!(solver.value(inputs[&VarId(N as u32 - 1)].var()), Some(true));
    }

    #[test]
    fn injected_fault_at_sat_encode_aborts_before_the_solve() {
        use symbi_bdd::{FaultKind, FaultPlan, FaultSite};
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let plan =
            Arc::new(FaultPlan::new(9).with_rule(FaultSite::SatEncode, 1, FaultKind::Budget));
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let err = try_or_decomposable(
            &m,
            f,
            &vars,
            &[VarId(2), VarId(3)],
            &[VarId(0), VarId(1)],
            u64::MAX,
            &gov,
        )
        .expect_err("encode-site fault kills the check");
        assert_eq!(err, ResourceExhausted::Steps);
        assert_eq!(plan.faults_fired(), 1);
        // The site is crossed once per governed check: a second check on
        // the same plan runs past the spent rule and completes.
        let (dec, _) = try_or_decomposable(
            &m,
            f,
            &vars,
            &[VarId(2), VarId(3)],
            &[VarId(0), VarId(1)],
            u64::MAX,
            &gov,
        )
        .expect("rule already spent");
        assert!(dec);
    }

    #[test]
    fn and_duality() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let l = m.or(vs[0], vs[1]);
        let r = m.or(vs[2], vs[3]);
        let f = m.and(l, r);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        assert!(and_decomposable(
            &mut m,
            f,
            &vars,
            &[VarId(2), VarId(3)],
            &[VarId(0), VarId(1)]
        ));
        assert!(!or_decomposable(&m, f, &vars, &[VarId(2), VarId(3)], &[VarId(0), VarId(1)]));
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..3u32).map(VarId).collect();
        assert!(decomposable(
            &mut m,
            crate::DecKind::Xor,
            &iv,
            &vars,
            &[VarId(2)],
            &[VarId(0), VarId(1)]
        ));
        assert!(!decomposable(
            &mut m,
            crate::DecKind::Or,
            &iv,
            &vars,
            &[VarId(2)],
            &[VarId(0), VarId(1)]
        ));
        let (dec, stats) = try_decomposable(
            &mut m,
            crate::DecKind::Xor,
            &iv,
            &vars,
            &[VarId(2)],
            &[VarId(0), VarId(1)],
            u64::MAX,
            &ResourceGovernor::unlimited(),
        )
        .expect("no limits");
        assert!(dec);
        assert!(stats.propagations > 0, "stats are empty: {stats:?}");
    }

    #[test]
    #[should_panic(expected = "completely specified")]
    fn rejects_proper_intervals() {
        let mut m = Manager::new();
        let v = m.new_var();
        let iv = Interval::new(NodeId::FALSE, v);
        decomposable(&mut m, crate::DecKind::Or, &iv, &[VarId(0)], &[], &[]);
    }
}
