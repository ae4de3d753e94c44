//! XOR bi-decomposition (§3.3.2, §3.4.2).
//!
//! With `A` the variables `g1` is vacuous in, `B` those `g2` is vacuous
//! in, and `C` the shared rest, Proposition 3.1 states that
//! `f = g1(B,C) ⊕ g2(A,C)` exists iff every minterm pair distinguished by
//! flipping the `A`-part stays distinguished for **every** value of the
//! `B`-part:
//!
//! ```text
//! f(A,B,C) ≠ f(A',B,C)  ⇒  ∀B'. f(A,B',C) ≠ f(A',B',C)
//! ```
//!
//! For an interval `[l, u]` the premise tightens to the *must-distinguish*
//! relation (both bounds flip — the two points hold disjoint sub-intervals
//! `[1,1]` vs `[0,0]`) and the conclusion relaxes to *may-distinguish*.
//! The paper prints a two-disjunct conclusion; we implement the complete
//! three-disjunct form
//!
//! ```text
//! (l' ≠ u') ∨ (l'' ≠ u'') ∨ (u' ≠ u'')
//! ```
//!
//! (a point pair can also be told apart when either point is a don't
//! care). Since the interval XOR condition is the delicate part of the
//! paper, [`witnesses`] additionally *verifies* every constructed
//! decomposition against the interval, so downstream synthesis is sound
//! regardless.
//!
//! The symbolic formulation (3.9) parameterizes the variable substitutions
//! `x_i ← ITE(c_i, x_i, y_i)` and universally quantifies `x, y`, yielding
//! all feasible supports in one BDD.

use crate::choices::ChoiceSet;
use crate::Interval;
use symbi_bdd::hash::FxHashMap;
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Scratch space holding the interval bounds copied next to a parallel
/// `y`-variable rail.
struct Scratch {
    mgr: Manager,
    xs: Vec<VarId>,
    ys: Vec<VarId>,
    lower: NodeId,
    upper: NodeId,
}

impl Scratch {
    fn new(m: &Manager, interval: &Interval, vars: &[VarId]) -> Self {
        let n = vars.len();
        let mut mgr = Manager::with_vars(2 * n);
        let xs: Vec<VarId> = (0..n).map(|i| VarId(2 * i as u32)).collect();
        let ys: Vec<VarId> = (0..n).map(|i| VarId(2 * i as u32 + 1)).collect();
        let var_map: FxHashMap<VarId, VarId> =
            vars.iter().copied().zip(xs.iter().copied()).collect();
        let lower = mgr.transfer_from(m, interval.lower, &var_map);
        let upper = mgr.transfer_from(m, interval.upper, &var_map);
        Scratch { mgr, xs, ys, lower, upper }
    }

    /// Renames `x_i → y_i` for the positions in `set`.
    fn try_flip(
        &mut self,
        f: NodeId,
        set: &[usize],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let pairs: Vec<(VarId, VarId)> =
            set.iter().map(|&i| (self.xs[i], self.ys[i])).collect();
        self.mgr.try_rename(f, &pairs, gov)
    }
}

fn positions(vars: &[VarId], subset: &[VarId]) -> Vec<usize> {
    subset
        .iter()
        .map(|v| {
            vars.iter()
                .position(|w| w == v)
                .unwrap_or_else(|| panic!("variable {v} is not in the declared support"))
        })
        .collect()
}

/// Existence check for `f = g1 ⊕ g2 ∈ [l, u]` with `g1` vacuous in
/// `a_vacuous` and `g2` vacuous in `b_vacuous` (Proposition 3.1 extended
/// to intervals).
///
/// For exact intervals the condition is exact; for proper intervals it is
/// the paper's bound-tightened condition (see the module docs) — pair it
/// with [`witnesses`], which verifies the construction.
///
/// # Panics
///
/// Panics if a vacuity set mentions a variable outside `vars`.
pub fn decomposable(
    m: &mut Manager,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_decomposable(m, interval, vars, a_vacuous, b_vacuous, &gov)
        .expect("unlimited governor cannot trip")
}

/// Budgeted [`decomposable`].
pub fn try_decomposable(
    m: &mut Manager,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    gov: &ResourceGovernor,
) -> Result<bool, ResourceExhausted> {
    let mut s = Scratch::new(m, interval, vars);
    let a = positions(vars, a_vacuous);
    let b = positions(vars, b_vacuous);
    let ab: Vec<usize> = {
        let mut t = a.clone();
        t.extend(b.iter().copied());
        t.sort_unstable();
        t.dedup();
        t
    };
    let l_a = s.try_flip(s.lower, &a, gov)?;
    let u_a = s.try_flip(s.upper, &a, gov)?;
    let l_b = s.try_flip(s.lower, &b, gov)?;
    let u_b = s.try_flip(s.upper, &b, gov)?;
    let l_ab = s.try_flip(s.lower, &ab, gov)?;
    let u_ab = s.try_flip(s.upper, &ab, gov)?;
    let must1 = s.mgr.try_xor(s.lower, l_a, gov)?;
    let must2 = s.mgr.try_xor(s.upper, u_a, gov)?;
    let premise = s.mgr.try_and(must1, must2, gov)?;
    let dc_b = s.mgr.try_xor(l_b, u_b, gov)?;
    let dc_ab = s.mgr.try_xor(l_ab, u_ab, gov)?;
    let differ = s.mgr.try_xor(u_b, u_ab, gov)?;
    let t = s.mgr.try_or(dc_b, dc_ab, gov)?;
    let may = s.mgr.try_or(t, differ, gov)?;
    let holds = s.mgr.try_implies(premise, may, gov)?;
    Ok(holds.is_true())
}

/// Constructs `(g1, g2)` with `g1 ⊕ g2` a member of the interval, `g1`
/// vacuous in `a_vacuous` and `g2` vacuous in `b_vacuous`, or `None` if no
/// construction is found.
///
/// Strategy: for each candidate completion of the interval (the reduced
/// upper bound, the lower bound, the upper bound), apply the cofactor
/// construction `g1 = f|A←0`, `g2 = f|B←0 ⊕ f|A←0,B←0` and keep the first
/// pair whose composition verifies. For exact intervals this succeeds
/// whenever [`decomposable`] holds.
pub fn witnesses(
    m: &mut Manager,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
) -> Option<(NodeId, NodeId)> {
    let gov = ResourceGovernor::unlimited();
    try_witnesses(m, interval, vars, a_vacuous, b_vacuous, &gov)
        .expect("unlimited governor cannot trip")
}

/// Budgeted [`witnesses`].
pub fn try_witnesses(
    m: &mut Manager,
    interval: &Interval,
    vars: &[VarId],
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    gov: &ResourceGovernor,
) -> Result<Option<(NodeId, NodeId)>, ResourceExhausted> {
    let member = interval.try_pick_member(m, gov)?;
    let candidates = [member, interval.lower, interval.upper];
    for f in candidates {
        let g1 = try_cofactor_set(m, f, a_vacuous, false, gov)?;
        let f_b0 = try_cofactor_set(m, f, b_vacuous, false, gov)?;
        let f_ab0 = try_cofactor_set(m, f_b0, a_vacuous, false, gov)?;
        let g2 = m.try_xor(f_b0, f_ab0, gov)?;
        let composed = m.try_xor(g1, g2, gov)?;
        if interval.try_contains(m, composed, gov)? {
            let _ = vars; // supports are implied by the vacuity sets
            return Ok(Some((g1, g2)));
        }
    }
    Ok(None)
}

fn try_cofactor_set(
    m: &mut Manager,
    f: NodeId,
    vars: &[VarId],
    value: bool,
    gov: &ResourceGovernor,
) -> Result<NodeId, ResourceExhausted> {
    let mut acc = f;
    for &v in vars {
        acc = m.try_cofactor(acc, v, value, gov)?;
    }
    Ok(acc)
}

/// The symbolic set of all feasible XOR-decomposition supports (3.9).
#[derive(Debug)]
pub struct Choices;

impl Choices {
    /// Computes the XOR `Bi(c1, c2)` for `interval` over `vars`.
    ///
    /// Runs in a private manager with the interleaved layout
    /// `(c1_i, c2_i, x_i, y_i)` per function variable. `c1_i = 1` keeps
    /// `x_i` in `supp(g1)`, likewise `c2` for `g2`; results are reported
    /// in the caller's variable ids through the returned [`ChoiceSet`].
    pub fn compute(m: &mut Manager, interval: &Interval, vars: &[VarId]) -> ChoiceSet {
        Choices::try_compute(m, interval, vars, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Budgeted [`Choices::compute`]: the doubled variable rail makes the
    /// XOR `Bi` the largest symbolic object in the flow, so this is where
    /// a node ceiling earns its keep.
    pub fn try_compute(
        m: &mut Manager,
        interval: &Interval,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<ChoiceSet, ResourceExhausted> {
        let n = vars.len();
        let mut mgr = Manager::with_vars(4 * n);
        let c1: Vec<VarId> = (0..n).map(|i| VarId(4 * i as u32)).collect();
        let c2: Vec<VarId> = (0..n).map(|i| VarId(4 * i as u32 + 1)).collect();
        let xs: Vec<VarId> = (0..n).map(|i| VarId(4 * i as u32 + 2)).collect();
        let ys: Vec<VarId> = (0..n).map(|i| VarId(4 * i as u32 + 3)).collect();
        let var_map: FxHashMap<VarId, VarId> =
            vars.iter().copied().zip(xs.iter().copied()).collect();
        let lower = mgr.transfer_from(m, interval.lower, &var_map);
        let upper = mgr.transfer_from(m, interval.upper, &var_map);

        // Parameterized substitutions: x_i ← ITE(sel_i, x_i, y_i).
        let make_subst = |mgr: &mut Manager, sel: &dyn Fn(&mut Manager, usize) -> NodeId| {
            let pairs: Vec<(VarId, NodeId)> = (0..n)
                .map(|i| {
                    let s = sel(mgr, i);
                    let xv = mgr.var(xs[i]);
                    let yv = mgr.var(ys[i]);
                    let ite = mgr.ite(s, xv, yv);
                    (xs[i], ite)
                })
                .collect();
            mgr.register_substitution(&pairs)
        };
        let s1 = make_subst(&mut mgr, &|mgr, i| mgr.var(c1[i]));
        let s2 = make_subst(&mut mgr, &|mgr, i| mgr.var(c2[i]));
        let s12 = make_subst(&mut mgr, &|mgr, i| {
            let a = mgr.var(c1[i]);
            let b = mgr.var(c2[i]);
            mgr.and(a, b)
        });

        let l1 = mgr.try_vector_compose(lower, s1, gov)?;
        let u1 = mgr.try_vector_compose(upper, s1, gov)?;
        let l2 = mgr.try_vector_compose(lower, s2, gov)?;
        let u2 = mgr.try_vector_compose(upper, s2, gov)?;
        let l12 = mgr.try_vector_compose(lower, s12, gov)?;
        let u12 = mgr.try_vector_compose(upper, s12, gov)?;

        let must1 = mgr.try_xor(lower, l1, gov)?;
        let must2 = mgr.try_xor(upper, u1, gov)?;
        let premise = mgr.try_and(must1, must2, gov)?;
        let dc2 = mgr.try_xor(l2, u2, gov)?;
        let dc12 = mgr.try_xor(l12, u12, gov)?;
        let differ = mgr.try_xor(u2, u12, gov)?;
        let t = mgr.try_or(dc2, dc12, gov)?;
        let may = mgr.try_or(t, differ, gov)?;
        let body = mgr.try_implies(premise, may, gov)?;
        let mut quant: Vec<VarId> = xs.clone();
        quant.extend(ys.iter().copied());
        let bi = mgr.try_forall(body, &quant, gov)?;
        Ok(ChoiceSet { mgr, bi, c1, c2, ext_vars: vars.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    #[test]
    fn parity_decomposes_everywhere() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        let iv = Interval::exact(f);
        let vars = vars(3);
        // g1 vacuous in {c}, g2 vacuous in {a, b}: g1 = a⊕b, g2 = c.
        assert!(decomposable(&mut m, &iv, &vars, &[VarId(2)], &[VarId(0), VarId(1)]));
        let (g1, g2) =
            witnesses(&mut m, &iv, &vars, &[VarId(2)], &[VarId(0), VarId(1)]).expect("exists");
        let composed = m.xor(g1, g2);
        assert_eq!(composed, f);
        assert_eq!(g1, t);
        assert_eq!(g2, vs[2]);
    }

    #[test]
    fn and_function_rejects_disjoint_xor() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.and(vs[0], vs[1]);
        let iv = Interval::exact(f);
        let vars = vars(2);
        assert!(!decomposable(&mut m, &iv, &vars, &[VarId(1)], &[VarId(0)]));
    }

    #[test]
    fn xor_of_ands_best_partition() {
        // f = ab ⊕ cd: best balanced partition is (2, 2).
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.xor(ab, cd);
        let iv = Interval::exact(f);
        let vars = vars(4);
        let mut ch = Choices::compute(&mut m, &iv, &vars);
        assert!(ch.is_feasible());
        assert_eq!(ch.best_balanced(), Some((2, 2)));
        let p = ch.pick_balanced_partition().expect("feasible");
        // The split must separate {a,b} from {c,d}.
        let g1_ab = p.g1_vars == vec![VarId(0), VarId(1)];
        let g1_cd = p.g1_vars == vec![VarId(2), VarId(3)];
        assert!(g1_ab || g1_cd, "got {p:?}");
        // Extract and verify.
        let a_vac: Vec<VarId> =
            (0..4u32).map(VarId).filter(|v| !p.g1_vars.contains(v)).collect();
        let b_vac: Vec<VarId> =
            (0..4u32).map(VarId).filter(|v| !p.g2_vars.contains(v)).collect();
        let (g1, g2) = witnesses(&mut m, &iv, &vars, &a_vac, &b_vac).expect("constructs");
        let composed = m.xor(g1, g2);
        assert!(iv.contains(&mut m, composed));
    }

    #[test]
    fn symbolic_bi_agrees_with_explicit_checks_exact() {
        // 3-var exhaustive agreement between Bi and decomposable().
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let f = m.xor(ab, vs[2]);
        let iv = Interval::exact(f);
        let vars = vars(3);
        let ch = Choices::compute(&mut m, &iv, &vars);
        for bits in 0u32..(1 << 6) {
            let c1_bits: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let c2_bits: Vec<bool> = (0..3).map(|i| bits >> (3 + i) & 1 == 1).collect();
            let a_vac: Vec<VarId> =
                (0..3).filter(|&i| !c1_bits[i]).map(|i| VarId(i as u32)).collect();
            let b_vac: Vec<VarId> =
                (0..3).filter(|&i| !c2_bits[i]).map(|i| VarId(i as u32)).collect();
            let explicit = decomposable(&mut m, &iv, &vars, &a_vac, &b_vac);
            let mut assignment = vec![false; ch.mgr.num_vars()];
            for i in 0..3 {
                assignment[4 * i] = c1_bits[i];
                assignment[4 * i + 1] = c2_bits[i];
            }
            let symbolic = ch.mgr.eval(ch.bi, &assignment);
            assert_eq!(symbolic, explicit, "c1={c1_bits:?} c2={c2_bits:?}");
        }
    }

    #[test]
    fn dont_cares_enable_xor_decomposition() {
        // f = majority(a,b,c) is not XOR-decomposable exactly, but with
        // the two constant-rows as don't cares the interval contains
        // a ⊕ b ⊕ c... it does not; use a targeted dc instead: make the
        // minterms {abc, āb̄c̄} don't cares so that both maj and maj⊕abc-ish
        // members exist; then check some partition becomes feasible that
        // was infeasible exactly.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let ac = m.and(vs[0], vs[2]);
        let bc = m.and(vs[1], vs[2]);
        let t = m.or(ab, ac);
        let maj = m.or(t, bc);
        let iv_exact = Interval::exact(maj);
        let vars = vars(3);
        let a_vac = [VarId(2)];
        let b_vac = [VarId(0), VarId(1)];
        assert!(!decomposable(&mut m, &iv_exact, &vars, &a_vac, &b_vac));
        // Widen: don't care everywhere except where a = b (then maj = a).
        let axb = m.xor(vs[0], vs[1]);
        let iv = Interval::with_dontcare(&mut m, maj, axb);
        // Now f = a (vacuous in b, c) is a member: g1 = a, g2 = 0 works
        // with even the strictest vacuity sets.
        assert!(decomposable(&mut m, &iv, &vars, &[VarId(1), VarId(2)], &[VarId(0)]));
        let (g1, g2) = witnesses(&mut m, &iv, &vars, &[VarId(1), VarId(2)], &[VarId(0)])
            .expect("constructs");
        let composed = m.xor(g1, g2);
        assert!(iv.contains(&mut m, composed));
    }

    #[test]
    fn trivial_assignment_always_in_bi() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.and(vs[0], vs[1]);
        let f = m.or(t, vs[2]);
        let iv = Interval::exact(f);
        let vars = vars(3);
        let ch = Choices::compute(&mut m, &iv, &vars);
        let all_ones = vec![true; ch.mgr.num_vars()];
        assert!(ch.mgr.eval(ch.bi, &all_ones));
    }
}
