//! Greedy bi-decomposition baseline (the explicit algorithm of
//! Mishchenko–Steinbach–Perkowski, DAC'01, which the paper profiles its
//! implicit computation against in §3.4.2).
//!
//! Starting from a seed pair of variables assigned exclusively to each
//! side, the algorithm grows the two vacuity sets one variable at a time,
//! re-running the decomposability check in the inner loop. Efficient when
//! it converges quickly, but the repeated checks dominate on wide
//! functions — exactly the behaviour the paper's 16-bit-adder table
//! demonstrates.

use crate::{and_dec, or_dec, xor_dec, DecKind, Interval};
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Result of a greedy partition search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyOutcome {
    /// Variables `g1` ends up vacuous in.
    pub a_vacuous: Vec<VarId>,
    /// Variables `g2` ends up vacuous in.
    pub b_vacuous: Vec<VarId>,
    /// Number of decomposability checks performed (the profiled cost).
    pub checks: usize,
}

impl GreedyOutcome {
    /// `(|x1|, |x2|)` support sizes implied by the vacuity sets.
    pub fn sizes(&self, num_vars: usize) -> (usize, usize) {
        (num_vars - self.a_vacuous.len(), num_vars - self.b_vacuous.len())
    }
}

fn check(
    m: &mut Manager,
    kind: DecKind,
    interval: &Interval,
    vars: &[VarId],
    a: &[VarId],
    b: &[VarId],
) -> bool {
    let gov = ResourceGovernor::unlimited();
    try_check(m, kind, interval, vars, a, b, &gov).expect("unlimited governor cannot trip")
}

/// Result of [`grow_styled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GreedyResult {
    /// A partition was grown.
    Found(GreedyOutcome),
    /// No seed pair admits a decomposition.
    Infeasible,
    /// The time budget expired mid-search (the fate of the paper's greedy
    /// check on the 16-bit adder's s16).
    TimedOut {
        /// Checks completed before the deadline.
        checks: usize,
    },
}

/// Greedily grows a non-trivial partition for the given primitive.
///
/// Seeds every ordered variable pair `(a, b)` until one admits a
/// decomposition with `a ∉ supp(g1)`, `b ∉ supp(g2)`, then extends both
/// vacuity sets over the remaining variables (preferring the smaller set,
/// which balances the supports). Returns `None` when no seed pair is
/// feasible — for OR/AND/XOR this means no non-trivial *disjoint-seeded*
/// decomposition exists.
pub fn grow(
    m: &mut Manager,
    kind: DecKind,
    interval: &Interval,
    vars: &[VarId],
) -> Option<GreedyOutcome> {
    grow_governed(m, kind, interval, vars, &ResourceGovernor::unlimited())
        .expect("unlimited governor cannot trip")
}

fn try_check(
    m: &mut Manager,
    kind: DecKind,
    interval: &Interval,
    vars: &[VarId],
    a: &[VarId],
    b: &[VarId],
    gov: &ResourceGovernor,
) -> Result<bool, ResourceExhausted> {
    match kind {
        DecKind::Or => or_dec::try_decomposable(m, interval, a, b, gov),
        DecKind::And => and_dec::try_decomposable(m, interval, a, b, gov),
        DecKind::Xor => xor_dec::try_decomposable(m, interval, vars, a, b, gov),
    }
}

/// Governed [`grow`]: the seed-and-extend search with every inner
/// decomposability check budgeted. Unlike [`grow_styled`]'s
/// wall-clock-only deadline, the governor also fires *inside* a check the
/// moment a step or node limit trips, so a single pathological check
/// cannot blow past the budget. Returns `Ok(None)` when no seed pair is
/// feasible, `Err` when the budget ran out mid-search.
pub fn grow_governed(
    m: &mut Manager,
    kind: DecKind,
    interval: &Interval,
    vars: &[VarId],
    gov: &ResourceGovernor,
) -> Result<Option<GreedyOutcome>, ResourceExhausted> {
    let mut checks = 0usize;
    for (i, &seed_a) in vars.iter().enumerate() {
        for &seed_b in &vars[i + 1..] {
            checks += 1;
            if !try_check(m, kind, interval, vars, &[seed_a], &[seed_b], gov)? {
                continue;
            }
            let mut a = vec![seed_a];
            let mut b = vec![seed_b];
            for &x in vars {
                if x == seed_a || x == seed_b {
                    continue;
                }
                let a_first = a.len() <= b.len();
                if a_first {
                    a.push(x);
                } else {
                    b.push(x);
                }
                checks += 1;
                if !try_check(m, kind, interval, vars, &a, &b, gov)? {
                    if a_first {
                        a.pop();
                        b.push(x);
                    } else {
                        b.pop();
                        a.push(x);
                    }
                    checks += 1;
                    if !try_check(m, kind, interval, vars, &a, &b, gov)? {
                        if a_first {
                            b.pop();
                        } else {
                            a.pop();
                        }
                    }
                }
            }
            return Ok(Some(GreedyOutcome { a_vacuous: a, b_vacuous: b, checks }));
        }
    }
    Ok(None)
}

/// How the inner decomposability check is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStyle {
    /// Fully symbolic checks (this library's formulation).
    Symbolic,
    /// Explicit cofactor enumeration in the style of the DAC'01 greedy
    /// implementation the paper profiles (§3.4.2): XOR checks enumerate
    /// all `2^|A|` cofactors of the vacuity set, so cost explodes as the
    /// partition grows — the behaviour behind the paper's s16 timeout.
    /// Only the XOR check differs; OR/AND fall back to symbolic.
    ExplicitCofactor,
}

/// Explicit XOR decomposability check by cofactor enumeration: picks the
/// reference assignment `A = 0` and verifies that every cofactor
/// difference `f|_{A=a} ⊕ f|_{A=0}` is vacuous in `B`. Exponential in
/// `|a_vacuous|`; aborts (returning `None`) when the deadline passes.
fn explicit_xor_check(
    m: &mut Manager,
    f: NodeId,
    a_vacuous: &[VarId],
    b_vacuous: &[VarId],
    deadline: std::time::Instant,
) -> Option<bool> {
    let k = a_vacuous.len();
    if k >= usize::BITS as usize - 1 {
        return None; // cannot even enumerate
    }
    let mut reference = f;
    for &v in a_vacuous {
        reference = m.cofactor(reference, v, false);
    }
    for bits in 1u64..1 << k {
        if std::time::Instant::now() > deadline {
            return None;
        }
        let mut cof = f;
        for (i, &v) in a_vacuous.iter().enumerate() {
            cof = m.cofactor(cof, v, bits >> i & 1 == 1);
        }
        let diff = m.xor(cof, reference);
        let supp = m.support(diff);
        if supp.iter().any(|v| b_vacuous.contains(v)) {
            return Some(false);
        }
    }
    Some(true)
}

/// [`grow`] with a wall-clock budget, checked between decomposability
/// checks, and an explicit choice of check style.
pub fn grow_styled(
    m: &mut Manager,
    kind: DecKind,
    interval: &Interval,
    vars: &[VarId],
    budget: std::time::Duration,
    style: CheckStyle,
) -> GreedyResult {
    let start = std::time::Instant::now();
    let deadline = start.checked_add(budget).unwrap_or_else(|| {
        start + std::time::Duration::from_secs(86_400)
    });
    let styled_check = |m: &mut Manager,
                        checks: &mut usize,
                        a: &[VarId],
                        b: &[VarId]|
     -> Option<bool> {
        *checks += 1;
        match (style, kind) {
            (CheckStyle::ExplicitCofactor, DecKind::Xor) => {
                explicit_xor_check(m, interval.upper, a, b, deadline)
            }
            _ => Some(check(m, kind, interval, vars, a, b)),
        }
    };
    let mut checks = 0usize;
    for (i, &seed_a) in vars.iter().enumerate() {
        for &seed_b in &vars[i + 1..] {
            if std::time::Instant::now() > deadline {
                return GreedyResult::TimedOut { checks };
            }
            let Some(ok) = styled_check(m, &mut checks, &[seed_a], &[seed_b]) else {
                return GreedyResult::TimedOut { checks };
            };
            if !ok {
                continue;
            }
            let mut a = vec![seed_a];
            let mut b = vec![seed_b];
            for &x in vars {
                if x == seed_a || x == seed_b {
                    continue;
                }
                if std::time::Instant::now() > deadline {
                    return GreedyResult::TimedOut { checks };
                }
                // Try the smaller vacuity set first to keep supports
                // balanced (growing a vacuity set shrinks that side's
                // support).
                let a_first = a.len() <= b.len();
                if a_first {
                    a.push(x);
                } else {
                    b.push(x);
                }
                let Some(first_ok) = styled_check(m, &mut checks, &a, &b) else {
                    return GreedyResult::TimedOut { checks };
                };
                if !first_ok {
                    if a_first {
                        a.pop();
                        b.push(x);
                    } else {
                        b.pop();
                        a.push(x);
                    }
                    let Some(second_ok) = styled_check(m, &mut checks, &a, &b) else {
                        return GreedyResult::TimedOut { checks };
                    };
                    if !second_ok {
                        if a_first {
                            b.pop();
                        } else {
                            a.pop();
                        }
                    }
                }
            }
            return GreedyResult::Found(GreedyOutcome { a_vacuous: a, b_vacuous: b, checks });
        }
    }
    GreedyResult::Infeasible
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_or_finds_the_obvious_split() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let outcome = grow(&mut m, DecKind::Or, &iv, &vars).expect("decomposable");
        let (k1, k2) = outcome.sizes(4);
        assert_eq!((k1.min(k2), k1.max(k2)), (2, 2), "outcome {outcome:?}");
        assert!(outcome.checks >= 3);
        // The grown partition must actually be feasible.
        assert!(or_dec::decomposable(&mut m, &iv, &outcome.a_vacuous, &outcome.b_vacuous));
    }

    #[test]
    fn greedy_xor_on_parity() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let t1 = m.xor(vs[0], vs[1]);
        let t2 = m.xor(vs[2], vs[3]);
        let f = m.xor(t1, t2);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..4u32).map(VarId).collect();
        let outcome = grow(&mut m, DecKind::Xor, &iv, &vars).expect("decomposable");
        // Parity splits fully: both vacuity sets non-empty, disjoint, and
        // jointly covering all variables.
        assert!(!outcome.a_vacuous.is_empty());
        assert!(!outcome.b_vacuous.is_empty());
        assert_eq!(outcome.a_vacuous.len() + outcome.b_vacuous.len(), 4);
        assert!(xor_dec::decomposable(
            &mut m,
            &iv,
            &vars,
            &outcome.a_vacuous,
            &outcome.b_vacuous
        ));
    }

    #[test]
    fn greedy_rejects_undecomposable() {
        // 2-var AND has no non-trivial OR decomposition with disjoint
        // exclusive seeds.
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.and(vs[0], vs[1]);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..2u32).map(VarId).collect();
        assert!(grow(&mut m, DecKind::Or, &iv, &vars).is_none());
        // But AND-decomposition of the same function succeeds.
        assert!(grow(&mut m, DecKind::And, &iv, &vars).is_some());
    }

    #[test]
    fn greedy_matches_symbolic_feasibility() {
        // Wherever greedy finds a partition, the symbolic Bi must contain
        // it; and greedy sizes can never beat the symbolic optimum.
        let mut m = Manager::new();
        let vs = m.new_vars(5);
        let ab = m.and(vs[0], vs[1]);
        let cde = m.and(vs[2], vs[3]);
        let cde = m.and(cde, vs[4]);
        let f = m.or(ab, cde);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..5u32).map(VarId).collect();
        let outcome = grow(&mut m, DecKind::Or, &iv, &vars).expect("decomposable");
        let (g1_size, g2_size) = outcome.sizes(5);
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        let (b1, b2) = ch.best_balanced().expect("symbolic agrees it decomposes");
        assert!(
            b1.max(b2) <= g1_size.max(g2_size),
            "symbolic optimum ({b1},{b2}) cannot be worse than greedy ({g1_size},{g2_size})"
        );
    }
}
