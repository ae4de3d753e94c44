//! Symbolic bi-decomposition of incompletely specified Boolean functions —
//! the core contribution of Kravets & Mishchenko, *"Sequential Logic
//! Synthesis Using Symbolic Bi-decomposition"* (DATE 2009).
//!
//! An incompletely specified function is an [`Interval`] `[l, u]` of
//! completely specified functions (§3.2.1). A *bi-decomposition* picks a
//! two-input primitive `h` and writes a member of the interval as
//! `h(g1(x1), g2(x2))` for (possibly overlapping) variable subsets.
//!
//! The modules mirror the paper's sections:
//!
//! - [`Interval`] and [`param`]: intervals, the "less-than-or-equal"
//!   relation, and parameterized abstraction with `ITE(c, F, ∀x F)` chains
//!   (§3.2),
//! - [`or_dec`] / [`and_dec`] / [`xor_dec`]: existence conditions and
//!   witness construction for the three primitives (§3.3), plus the
//!   *symbolic* computation of the characteristic function `Bi(c1, c2)` of
//!   **all** feasible variable partitions at once (§3.4),
//! - [`choices`]: decomposition-choice exploration — weight-constrained
//!   subsetting, feasible support-size pairs, dominance purging, balanced
//!   selection (§3.5.2),
//! - [`greedy`]: the explicit greedy partition-growing baseline the paper
//!   compares against (the approach of Mishchenko–Steinbach–Perkowski,
//!   DAC'01),
//! - [`sat_dec`]: the SAT-based decomposability checks of Lee–Jiang–Hung
//!   (DAC'08), the other baseline the paper discusses, backed by the
//!   `symbi-sat` CDCL solver,
//! - [`recursive`]: recursive decomposition of an interval into a tree of
//!   2-input primitives with Shannon fallback, used by the synthesis flow.
//!
//! # Example: Figure 3.1 of the paper
//!
//! `f = ab + ac + bc` with the state `a=b=c=1` unreachable OR-decomposes
//! into two 2-variable functions:
//!
//! ```
//! use symbi_bdd::{Manager, VarId};
//! use symbi_core::{or_dec, Interval};
//!
//! let mut m = Manager::new();
//! let (a, b, c) = (m.new_var(), m.new_var(), m.new_var());
//! let ab = m.and(a, b);
//! let ac = m.and(a, c);
//! let bc = m.and(b, c);
//! let t = m.or(ab, ac);
//! let f = m.or(t, bc);
//! let nb = m.not(b);
//! let anb = m.and(a, nb);
//! let dc = m.and(anb, c); // the unreachable state a·b̄·c of Fig. 3.1
//! let spec = Interval::with_dontcare(&mut m, f, dc);
//! let vars = [VarId(0), VarId(1), VarId(2)];
//! let mut choices = or_dec::Choices::compute(&mut m, &spec, &vars);
//! let (k1, k2) = choices.best_balanced().expect("decomposable");
//! assert_eq!(k1.max(k2), 2, "both halves shrink to 2 of 3 variables");
//! ```

pub mod and_dec;
pub mod choices;
pub mod greedy;
mod interval;
pub mod or_dec;
pub mod param;
pub mod recursive;
pub mod sat_dec;
pub mod xor_dec;

pub use interval::Interval;

/// The two-input primitive used at the root of a bi-decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecKind {
    /// `f = g1 + g2`
    Or,
    /// `f = g1 · g2`
    And,
    /// `f = g1 ⊕ g2`
    Xor,
}

impl std::fmt::Display for DecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecKind::Or => f.write_str("OR"),
            DecKind::And => f.write_str("AND"),
            DecKind::Xor => f.write_str("XOR"),
        }
    }
}

#[cfg(test)]
mod tests_paper_examples;
