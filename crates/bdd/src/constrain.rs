//! The Coudert–Madre `constrain` operator (generalized cofactor).
//!
//! `constrain(f, c)` — written `f ↓ c` — maps every point outside the
//! care set `c` to the *nearest* care point under the variable-order
//! metric and evaluates `f` there. Like [`Manager::restrict`] it
//! guarantees `constrain(f, c) · c = f · c`, but it is a true cofactor
//! generalization: `constrain(f, x) = f|ₓ`, it distributes over
//! conjunction (`(f·g) ↓ c = (f ↓ c) · (g ↓ c)`), and it commutes with
//! existential quantification of variables outside `supp(c)`. Those
//! algebraic properties are what let an image computation replace each
//! transition-relation cluster `Tᵢ` by `Tᵢ ↓ F` while still conjoining
//! the frontier `F`: the products agree wherever `F` holds and both
//! vanish elsewhere.
//!
//! The price over `restrict`: when `c` tests a variable above `f`'s
//! top, `constrain` *branches* on it instead of or-merging the care
//! branches, so the result can gain support variables from `c`. Use
//! `restrict` to pick one small representative of an interval; use
//! `constrain` when the algebraic identities matter (image
//! computation, frontier-simplified fixpoints).

use crate::budgeted::UNMETERED;
use crate::{Manager, NodeId};

impl Manager {
    /// Coudert–Madre generalized cofactor of `f` by the care set `care`.
    ///
    /// Guarantees `constrain(f, c) · c = f · c`; outside the care set
    /// the result takes `f`'s value at the nearest care point (nearest
    /// in the variable-order metric — the classic definition).
    /// `constrain(f, 0)` is defined as `f`, mirroring
    /// [`Manager::restrict`].
    pub fn constrain(&mut self, f: NodeId, care: NodeId) -> NodeId {
        self.try_constrain(f, care, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    /// A structured family of 3-var functions for exhaustive contracts.
    fn family(m: &mut Manager, vs: &[NodeId]) -> Vec<NodeId> {
        let mut funcs = vec![NodeId::FALSE, NodeId::TRUE];
        for &v in vs {
            funcs.push(v);
            let nv = m.not(v);
            funcs.push(nv);
        }
        let x = m.xor(vs[0], vs[1]);
        let a = m.and(vs[1], vs[2]);
        let o = m.or(vs[0], vs[2]);
        let xa = m.and(x, vs[2]);
        let oo = m.or(x, a);
        funcs.extend([x, a, o, xa, oo]);
        funcs
    }

    #[test]
    fn agrees_on_care_set_exhaustive() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let funcs = family(&mut m, &vs);
        for &f in &funcs {
            for &care in &funcs {
                if care.is_false() {
                    continue;
                }
                let r = m.constrain(f, care);
                let lhs = m.and(r, care);
                let rhs = m.and(f, care);
                assert_eq!(lhs, rhs, "f={f}, care={care}");
            }
        }
        let _ = VarId(0);
    }

    #[test]
    fn full_and_empty_care_are_identity() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let f = m.xor(vs[0], vs[2]);
        assert_eq!(m.constrain(f, NodeId::TRUE), f);
        assert_eq!(m.constrain(f, NodeId::FALSE), f);
    }

    #[test]
    fn literal_care_is_cofactor() {
        // constrain by a literal is exactly the Shannon cofactor.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let x = m.xor(vs[1], vs[2]);
        let f = m.and(vs[0], x);
        let pos = m.constrain(f, vs[0]);
        assert_eq!(pos, m.cofactor(f, VarId(0), true));
        let n0 = m.not(vs[0]);
        let neg = m.constrain(f, n0);
        assert_eq!(neg, m.cofactor(f, VarId(0), false));
    }

    #[test]
    fn constrain_by_itself_is_true() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let f = m.or(ab, vs[2]);
        assert_eq!(m.constrain(f, f), NodeId::TRUE);
    }

    #[test]
    fn distributes_over_conjunction() {
        // (f·g) ↓ c = (f ↓ c) · (g ↓ c) — the identity image clustering
        // relies on; restrict does NOT satisfy it in general.
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let funcs = family(&mut m, &vs[..3]);
        let cares = [m.or(vs[0], vs[3]), m.xor(vs[1], vs[3]), vs[2]];
        for &f in &funcs {
            for &g in &funcs {
                for &c in &cares {
                    let fg = m.and(f, g);
                    let lhs = m.constrain(fg, c);
                    let rf = m.constrain(f, c);
                    let rg = m.constrain(g, c);
                    let rhs = m.and(rf, rg);
                    assert_eq!(lhs, rhs, "f={f} g={g} c={c}");
                }
            }
        }
    }

    #[test]
    fn can_gain_support_from_care() {
        // f ignores v0; care links v0 to v1, so f ↓ c tests v0 — the
        // documented difference from restrict.
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = vs[1];
        let care = m.xor(vs[0], vs[1]);
        let r = m.constrain(f, care);
        // On the care set v1 = ¬v0, so the nearest-point map yields ¬v0.
        assert_eq!(r, m.not(vs[0]));
        assert!(m.support(r).contains(&VarId(0)));
    }
}
