//! Parameterized abstraction (§3.2.2, §3.4).
//!
//! An auxiliary decision variable `c_x` encodes whether variable `x` is
//! quantified out of a formula: the chain
//!
//! ```text
//! U ← u; for each x: U ← ITE(c_x, U, ∀x U)
//! ```
//!
//! yields `U(c, x)` whose cofactor at a `c`-assignment is `u` with exactly
//! the `c_x = 0` variables universally abstracted. The same construction
//! with `∃` parameterizes lower bounds. The characteristic function of all
//! *consistent* abstraction subsets of an interval (Example 3.5) is
//! `∀x [L(c,x) → U(c,x)]`.

use crate::Interval;
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Builds `U(c, x)`: for each `(x, c_x)` pair, `c_x = 1` keeps `x`,
/// `c_x = 0` universally abstracts it.
///
/// Pairs may come in any order; the decision variables must be distinct
/// from the function variables.
pub fn parameterize_forall(m: &mut Manager, f: NodeId, pairs: &[(VarId, VarId)]) -> NodeId {
    try_parameterize_forall(m, f, pairs, &ResourceGovernor::unlimited())
        .expect("unlimited governor cannot trip")
}

/// Builds `L(c, x)`: like [`parameterize_forall`] with existential
/// quantification, for lower bounds.
pub fn parameterize_exists(m: &mut Manager, f: NodeId, pairs: &[(VarId, VarId)]) -> NodeId {
    try_parameterize_exists(m, f, pairs, &ResourceGovernor::unlimited())
        .expect("unlimited governor cannot trip")
}

/// Budgeted [`parameterize_forall`]: identical chain, every `∀` and `ITE`
/// consults the governor.
pub fn try_parameterize_forall(
    m: &mut Manager,
    f: NodeId,
    pairs: &[(VarId, VarId)],
    gov: &ResourceGovernor,
) -> Result<NodeId, ResourceExhausted> {
    let mut acc = f;
    for &(x, c) in pairs {
        let abstracted = m.try_forall(acc, &[x], gov)?;
        let cnode = m.var(c);
        acc = m.try_ite(cnode, acc, abstracted, gov)?;
    }
    Ok(acc)
}

/// Budgeted [`parameterize_exists`].
pub fn try_parameterize_exists(
    m: &mut Manager,
    f: NodeId,
    pairs: &[(VarId, VarId)],
    gov: &ResourceGovernor,
) -> Result<NodeId, ResourceExhausted> {
    let mut acc = f;
    for &(x, c) in pairs {
        let abstracted = m.try_exists(acc, &[x], gov)?;
        let cnode = m.var(c);
        acc = m.try_ite(cnode, acc, abstracted, gov)?;
    }
    Ok(acc)
}

/// Characteristic function, over the decision variables, of all variable
/// subsets whose abstraction keeps `interval` consistent (Example 3.5):
/// `B(c) = ∀x [L(c,x) → U(c,x)]`. Assignment `c_x = 0` means "abstract
/// `x`"; `B` evaluates true iff the resulting interval is non-empty.
pub fn abstraction_choices(
    m: &mut Manager,
    interval: &Interval,
    pairs: &[(VarId, VarId)],
) -> NodeId {
    let lower = parameterize_exists(m, interval.lower, pairs);
    let upper = parameterize_forall(m, interval.upper, pairs);
    let implies = m.implies(lower, upper);
    let xvars: Vec<VarId> = pairs.iter().map(|&(x, _)| x).collect();
    m.forall(implies, &xvars)
}

/// Decodes a satisfying assignment of [`abstraction_choices`] into the set
/// of abstracted variables (those whose decision variable is 0 or
/// unconstrained-toward-0 in the cube).
pub fn abstracted_set(cube: &[(VarId, bool)], pairs: &[(VarId, VarId)]) -> Vec<VarId> {
    pairs
        .iter()
        .filter(|&&(_, c)| !cube.iter().any(|&(v, phase)| v == c && phase))
        .map(|&(x, _)| x)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout used by the paper's Examples 3.3–3.5: decision variables
    /// first (so they sit above the function variables), then x, y.
    struct Setup {
        m: Manager,
        cx: VarId,
        cy: VarId,
        interval: Interval,
    }

    fn paper_setup() -> Setup {
        let mut m = Manager::new();
        let _cx = m.new_var(); // v0
        let _cy = m.new_var(); // v1
        let x = m.new_var(); // v2
        let y = m.new_var(); // v3
        let nx = m.not(x);
        let lower = m.and(nx, y);
        let upper = m.or(x, y);
        Setup { m, cx: VarId(0), cy: VarId(1), interval: Interval::new(lower, upper) }
    }

    #[test]
    fn example_3_3_parameterized_bounds() {
        let mut s = paper_setup();
        let pairs = [(VarId(2), s.cx), (VarId(3), s.cy)];
        let lxy = parameterize_exists(&mut s.m, s.interval.lower, &pairs);
        // Cofactors of L_{xy} by (cx, cy) reproduce the tree of Example 3.3:
        // (1,1) → x̄y, (0,1) → ∃x(x̄y) = y, (1,0) → ∃y(x̄y) = x̄,
        // (0,0) → ∃xy(x̄y) = 1.
        let x = s.m.var(VarId(2));
        let y = s.m.var(VarId(3));
        let nx = s.m.not(x);
        let nxy = s.m.and(nx, y);
        let cases = [
            ([true, true], nxy),
            ([false, true], y),
            ([true, false], nx),
            ([false, false], NodeId::TRUE),
        ];
        for ([vcx, vcy], expect) in cases {
            let t = s.m.cofactor(lxy, s.cx, vcx);
            let t = s.m.cofactor(t, s.cy, vcy);
            assert_eq!(t, expect, "cofactor at cx={vcx}, cy={vcy}");
        }
    }

    #[test]
    fn example_3_5_consistent_abstractions() {
        // B(c) = c̄x·cy + cx·cy = cy: abstracting y always breaks the
        // interval, abstracting x (or nothing) is fine.
        let mut s = paper_setup();
        let pairs = [(VarId(2), s.cx), (VarId(3), s.cy)];
        let b = abstraction_choices(&mut s.m, &s.interval, &pairs);
        let cy = s.m.var(s.cy);
        assert_eq!(b, cy, "B(c) must equal c_y exactly, as computed in the paper");
    }

    #[test]
    fn decode_abstracted_set() {
        let s = paper_setup();
        let pairs = [(VarId(2), s.cx), (VarId(3), s.cy)];
        // Cube {cx=0, cy=1} abstracts x only.
        let cube = vec![(s.cx, false), (s.cy, true)];
        assert_eq!(abstracted_set(&cube, &pairs), vec![VarId(2)]);
        // Cube {cy=1} with cx unconstrained reads cx as "abstract".
        let cube2 = vec![(s.cy, true)];
        assert_eq!(abstracted_set(&cube2, &pairs), vec![VarId(2)]);
    }

    #[test]
    fn parameterization_agrees_with_direct_quantification() {
        // Random-ish 3-variable function; all 8 c-assignments must match
        // explicitly quantified results.
        let mut m = Manager::new();
        let cvars: Vec<VarId> = (0..3).map(VarId).collect();
        m.new_vars(3);
        let xvars: Vec<VarId> = (3..6).map(VarId).collect();
        let xs = m.new_vars(3);
        let t0 = m.and(xs[0], xs[1]);
        let t1 = m.xor(xs[1], xs[2]);
        let f = m.or(t0, t1);
        let pairs: Vec<(VarId, VarId)> = xvars.iter().copied().zip(cvars.iter().copied()).collect();
        let pf = parameterize_forall(&mut m, f, &pairs);
        for bits in 0u32..8 {
            let mut direct = f;
            let mut restricted = pf;
            for (i, &(x, c)) in pairs.iter().enumerate() {
                let keep = bits >> i & 1 == 1;
                if !keep {
                    direct = m.forall_var(direct, x);
                }
                restricted = m.cofactor(restricted, c, keep);
            }
            assert_eq!(restricted, direct, "assignment {bits:03b}");
        }
    }
}
