//! OR bi-decomposition of incompletely specified functions (§3.3.1, §3.4.1).
//!
//! For the interval `[l, u]` and disjoint *vacuity* sets `A` (variables
//! `g1` must not read) and `B` (for `g2`), the decomposition
//! `f = g1 + g2 ∈ [l, u]` exists iff
//!
//! ```text
//! l ≤ (∀A u) + (∀B u)                                   (3.2)
//! ```
//!
//! with canonical witnesses `g1 = ∀A u`, `g2 = ∀B u`. The symbolic form
//! parameterizes both universal abstractions with decision variables and
//! quantifies the function variables, producing the characteristic
//! function of **all** feasible supports at once:
//!
//! ```text
//! Bi(c1, c2) = ∀x [ l̄ + U1(x, c1) + U2(x, c2) ]          (3.8)
//! ```

use crate::choices::ChoiceSet;
use crate::param::try_parameterize_forall;
use crate::Interval;
use symbi_bdd::hash::FxHashMap;
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Existence check (3.2): is `[l, u]` OR-decomposable with `g1` vacuous in
/// `a_vacuous` and `g2` vacuous in `b_vacuous`?
pub fn decomposable(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_decomposable(m, interval, a_vacuous, b_vacuous, &gov)
        .expect("unlimited governor cannot trip")
}

/// Canonical witnesses `(g1, g2) = (∀A u, ∀B u)` for a feasible pair of
/// vacuity sets. The composition `g1 + g2` is guaranteed to be a member of
/// the interval when [`decomposable`] holds.
pub fn witnesses(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> (NodeId, NodeId) {
    let gov = ResourceGovernor::unlimited();
    try_witnesses(m, interval, a_vacuous, b_vacuous, &gov).expect("unlimited governor cannot trip")
}

/// Budgeted [`decomposable`].
pub fn try_decomposable(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    gov: &ResourceGovernor,
) -> Result<bool, ResourceExhausted> {
    let u1 = m.try_forall(interval.upper, a_vacuous, gov)?;
    let u2 = m.try_forall(interval.upper, b_vacuous, gov)?;
    let rhs = m.try_or(u1, u2, gov)?;
    m.try_leq(interval.lower, rhs, gov)
}

/// Budgeted [`witnesses`].
pub fn try_witnesses(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    gov: &ResourceGovernor,
) -> Result<(NodeId, NodeId), ResourceExhausted> {
    Ok((
        m.try_forall(interval.upper, a_vacuous, gov)?,
        m.try_forall(interval.upper, b_vacuous, gov)?,
    ))
}

/// *Weak* OR decomposition (Mishchenko–Steinbach–Perkowski's fallback
/// when no strong split exists): `f = g1(x∖A) + g2(x)` where only `g1`
/// drops variables and `g2` keeps full support but loses onset minterms
/// to `g1`. Returns `(g1, g2-interval)` — useful whenever the maximal
/// vacuous function `g1 = ∀A u` covers part of the lower bound, since
/// `g2` then only needs `[l·¬g1, u]`, which is a *simpler* residual
/// function to implement.
///
/// Returns `None` when `g1` would cover nothing (the weak step makes no
/// progress).
pub fn weak_witnesses(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
) -> Option<(NodeId, Interval)> {
    let g1 = m.forall(interval.upper, a_vacuous);
    let covered = m.and(interval.lower, g1);
    if covered.is_false() {
        return None; // g1 contributes nothing
    }
    let residual_lower = m.diff(interval.lower, g1);
    Some((g1, Interval::new(residual_lower, interval.upper)))
}

/// The symbolic set of all feasible OR-decomposition supports.
///
/// This is a thin constructor around [`ChoiceSet`], which carries the
/// query API (balanced selection, counting, dominance purging, …).
#[derive(Debug)]
pub struct Choices;

impl Choices {
    /// Computes `Bi(c1, c2)` (3.8) for `interval` over `vars`.
    ///
    /// The computation runs in a private manager with the interleaved
    /// variable layout `(c1_i, c2_i, x_i)` per function variable, which
    /// keeps the parameterized abstraction local; `vars` lists the
    /// caller's variables, and all results are reported in those ids.
    ///
    /// # Panics
    ///
    /// Panics if the interval depends on variables outside `vars`.
    pub fn compute(m: &mut Manager, interval: &Interval, vars: &[VarId]) -> ChoiceSet {
        Choices::try_compute(m, interval, vars, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Budgeted [`Choices::compute`]: the `Bi` construction — the most
    /// explosion-prone step of the whole flow — unwinds with
    /// [`ResourceExhausted`] instead of running away. The node ceiling and
    /// step budget meter the *private* manager the computation runs in.
    pub fn try_compute(
        m: &mut Manager,
        interval: &Interval,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<ChoiceSet, ResourceExhausted> {
        let n = vars.len();
        let mut mgr = Manager::with_vars(3 * n);
        let c1: Vec<VarId> = (0..n).map(|i| VarId(3 * i as u32)).collect();
        let c2: Vec<VarId> = (0..n).map(|i| VarId(3 * i as u32 + 1)).collect();
        let xs: Vec<VarId> = (0..n).map(|i| VarId(3 * i as u32 + 2)).collect();
        let var_map: FxHashMap<VarId, VarId> =
            vars.iter().copied().zip(xs.iter().copied()).collect();
        let lower = mgr.transfer_from(m, interval.lower, &var_map);
        let upper = mgr.transfer_from(m, interval.upper, &var_map);

        let pairs1: Vec<(VarId, VarId)> = xs.iter().copied().zip(c1.iter().copied()).collect();
        let pairs2: Vec<(VarId, VarId)> = xs.iter().copied().zip(c2.iter().copied()).collect();
        let u1 = try_parameterize_forall(&mut mgr, upper, &pairs1, gov)?;
        let u2 = try_parameterize_forall(&mut mgr, upper, &pairs2, gov)?;
        let nl = mgr.try_not(lower, gov)?;
        let t = mgr.try_or(nl, u1, gov)?;
        let body = mgr.try_or(t, u2, gov)?;
        let bi = mgr.try_forall(body, &xs, gov)?;
        Ok(ChoiceSet { mgr, bi, c1, c2, ext_vars: vars.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_matches_witnesses() {
        // f = ab + c: g1 over {a,b} (vacuous in c), g2 over {c}.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let f = m.or(ab, vs[2]);
        let iv = Interval::exact(f);
        let a_vac = [VarId(2)];
        let b_vac = [VarId(0), VarId(1)];
        assert!(decomposable(&mut m, &iv, &a_vac, &b_vac));
        let (g1, g2) = witnesses(&mut m, &iv, &a_vac, &b_vac);
        assert_eq!(g1, ab);
        assert_eq!(g2, vs[2]);
        let composed = m.or(g1, g2);
        assert!(iv.contains(&mut m, composed));
    }

    #[test]
    fn infeasible_partition_rejected() {
        // f = a ⊕ b cannot be OR-decomposed with disjoint single-var parts.
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.xor(vs[0], vs[1]);
        let iv = Interval::exact(f);
        assert!(!decomposable(&mut m, &iv, &[VarId(1)], &[VarId(0)]));
    }

    #[test]
    fn dont_cares_enable_decomposition() {
        // Figure 3.1: f = ab + ac + bc with minterm abc unreachable.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let ac = m.and(vs[0], vs[2]);
        let bc = m.and(vs[1], vs[2]);
        let t = m.or(ab, ac);
        let f = m.or(t, bc);
        let iv_exact = Interval::exact(f);
        // Without don't cares, dropping c from g1 and a from g2 fails…
        let a_vac = [VarId(2)];
        let b_vac = [VarId(0)];
        assert!(!decomposable(&mut m, &iv_exact, &a_vac, &b_vac));
        // …but with state a·b̄·c as a don't care it succeeds (Fig. 3.1's
        // unreachable state: the lower bound collapses to ab + bc).
        let nb = m.not(vs[1]);
        let anb = m.and(vs[0], nb);
        let dc = m.and(anb, vs[2]);
        let iv = Interval::with_dontcare(&mut m, f, dc);
        assert!(decomposable(&mut m, &iv, &a_vac, &b_vac));
        let (g1, g2) = witnesses(&mut m, &iv, &a_vac, &b_vac);
        let composed = m.or(g1, g2);
        assert!(iv.contains(&mut m, composed));
        // g1 reads only {a, b}, g2 only {b, c}.
        assert!(m.support(g1).iter().all(|v| *v != VarId(2)));
        assert!(m.support(g2).iter().all(|v| *v != VarId(0)));
    }

    #[test]
    fn symbolic_bi_agrees_with_explicit_checks() {
        // Exhaustively compare Bi against decomposable() on a 4-var
        // function for every (c1, c2) assignment.
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let ch = Choices::compute(&mut m, &iv, &vars);
        for bits in 0u32..(1 << 8) {
            let c1_bits: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let c2_bits: Vec<bool> = (0..4).map(|i| bits >> (4 + i) & 1 == 1).collect();
            // Vacuous sets are the 0-positions.
            let a_vac: Vec<VarId> =
                (0..4).filter(|&i| !c1_bits[i]).map(|i| VarId(i as u32)).collect();
            let b_vac: Vec<VarId> =
                (0..4).filter(|&i| !c2_bits[i]).map(|i| VarId(i as u32)).collect();
            let explicit = decomposable(&mut m, &iv, &a_vac, &b_vac);
            // Evaluate Bi at this assignment (internal layout: 3 vars per
            // position plus any appended query vars; assignment indexed by
            // variable id).
            let mut assignment = vec![false; ch.mgr.num_vars()];
            for i in 0..4 {
                assignment[3 * i] = c1_bits[i];
                assignment[3 * i + 1] = c2_bits[i];
            }
            let symbolic = ch.mgr.eval(ch.bi, &assignment);
            assert_eq!(symbolic, explicit, "c1={c1_bits:?} c2={c2_bits:?}");
        }
    }

    #[test]
    fn weak_decomposition_peels_covered_onset() {
        // f = ab + a⊕c has no strong OR split dropping {c} from both
        // halves, but weakly g1 = ∀c f = ab covers the ab part and leaves
        // g2 the simpler residual.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let ac = m.xor(vs[0], vs[2]);
        let f = m.or(ab, ac);
        let iv = Interval::exact(f);
        let (g1, residual) = weak_witnesses(&mut m, &iv, &[VarId(2)]).expect("g1 covers ab");
        assert_eq!(g1, ab);
        assert!(residual.is_consistent(&mut m));
        // Any member of the residual recombines with g1 into f's interval.
        let g2 = residual.pick_member(&mut m);
        let composed = m.or(g1, g2);
        assert!(iv.contains(&mut m, composed));
        // The residual's mandatory part shrank.
        let res_count = m.sat_count(residual.lower, 3);
        let full_count = m.sat_count(f, 3);
        assert!(res_count < full_count);
    }

    #[test]
    fn weak_decomposition_reports_no_progress() {
        // Parity has no vacuous cover at all: ∀a (a⊕b) = 0.
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.xor(vs[0], vs[1]);
        let iv = Interval::exact(f);
        assert!(weak_witnesses(&mut m, &iv, &[VarId(0)]).is_none());
    }

    #[test]
    fn trivial_split_always_feasible_for_consistent_interval() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..3u32).map(VarId).collect();
        assert!(decomposable(&mut m, &iv, &[], &[]));
        let ch = Choices::compute(&mut m, &iv, &vars);
        assert!(ch.is_feasible());
    }
}
