//! AND bi-decomposition through OR duality (§3.3.1).
//!
//! `f = g1 · g2 ∈ [l, u]` iff `f̄ = ḡ1 + ḡ2 ∈ [ū, l̄]`: every AND question
//! about an interval is an OR question about its complement, with the
//! witnesses complemented back.

use crate::choices::ChoiceSet;
use crate::{or_dec, Interval};
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Existence check: is `[l, u]` AND-decomposable with `g1` vacuous in
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

/// Witnesses `(g1, g2)` with `g1 · g2` a member of the interval, obtained
/// by complementing the OR witnesses of the complement interval.
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
    let comp = interval.try_complement(m, gov)?;
    or_dec::try_decomposable(m, &comp, a_vacuous, b_vacuous, gov)
}

/// Budgeted [`witnesses`].
pub fn try_witnesses(
    m: &mut Manager,
    interval: &Interval,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    gov: &ResourceGovernor,
) -> Result<(NodeId, NodeId), ResourceExhausted> {
    let comp = interval.try_complement(m, gov)?;
    let (h1, h2) = or_dec::try_witnesses(m, &comp, a_vacuous, b_vacuous, gov)?;
    Ok((m.try_not(h1, gov)?, m.try_not(h2, gov)?))
}

/// The symbolic set of all feasible AND-decomposition supports.
#[derive(Debug)]
pub struct Choices;

impl Choices {
    /// Computes the AND `Bi(c1, c2)` as the OR `Bi` of the complement
    /// interval. Support semantics are identical.
    pub fn compute(m: &mut Manager, interval: &Interval, vars: &[VarId]) -> ChoiceSet {
        Choices::try_compute(m, interval, vars, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Budgeted [`Choices::compute`].
    pub fn try_compute(
        m: &mut Manager,
        interval: &Interval,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<ChoiceSet, ResourceExhausted> {
        let comp = interval.try_complement(m, gov)?;
        or_dec::Choices::try_compute(m, &comp, vars, gov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_decomposition_of_product() {
        // f = (a + b)(c + d).
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let l = m.or(vs[0], vs[1]);
        let r = m.or(vs[2], vs[3]);
        let f = m.and(l, r);
        let iv = Interval::exact(f);
        let a_vac = [VarId(2), VarId(3)];
        let b_vac = [VarId(0), VarId(1)];
        assert!(decomposable(&mut m, &iv, &a_vac, &b_vac));
        let (g1, g2) = witnesses(&mut m, &iv, &a_vac, &b_vac);
        assert_eq!(g1, l);
        assert_eq!(g2, r);
        let composed = m.and(g1, g2);
        assert!(iv.contains(&mut m, composed));
    }

    #[test]
    fn or_function_is_not_and_decomposable_disjointly() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.or(vs[0], vs[1]);
        let iv = Interval::exact(f);
        assert!(!decomposable(&mut m, &iv, &[VarId(1)], &[VarId(0)]));
    }

    #[test]
    fn choices_find_the_balanced_split() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let l = m.or(vs[0], vs[1]);
        let r = m.or(vs[2], vs[3]);
        let f = m.and(l, r);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let mut ch = Choices::compute(&mut m, &iv, &vars);
        assert_eq!(ch.best_balanced(), Some((2, 2)));
        let p = ch.pick_balanced_partition().expect("feasible");
        assert!(p.shared().is_empty());
    }

    #[test]
    fn dont_cares_help_and_too() {
        // Dual of Figure 3.1: f = (a+b)(a+c)(b+c), don't care on the
        // all-zero state.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.or(vs[0], vs[1]);
        let ac = m.or(vs[0], vs[2]);
        let bc = m.or(vs[1], vs[2]);
        let t = m.and(ab, ac);
        let f = m.and(t, bc);
        let na = m.not(vs[0]);
        let nc = m.not(vs[2]);
        let t2 = m.and(na, vs[1]);
        let zero_state = m.and(t2, nc); // ā·b·c̄, dual of Fig. 3.1's state
        let iv_exact = Interval::exact(f);
        let a_vac = [VarId(2)];
        let b_vac = [VarId(0)];
        assert!(!decomposable(&mut m, &iv_exact, &a_vac, &b_vac));
        let iv = Interval::with_dontcare(&mut m, f, zero_state);
        assert!(decomposable(&mut m, &iv, &a_vac, &b_vac));
        let (g1, g2) = witnesses(&mut m, &iv, &a_vac, &b_vac);
        let composed = m.and(g1, g2);
        assert!(iv.contains(&mut m, composed));
    }
}
