//! The Coudert–Madre `restrict` operator: don't-care-driven minimization.
//!
//! `restrict(f, c)` returns a function that agrees with `f` everywhere the
//! care set `c` holds, chosen to (heuristically) have a smaller BDD by
//! letting the result float freely outside `c`. This is the classic way
//! to exploit an unreachable-state don't-care set when a single concrete
//! function is needed — e.g. picking a small member of an interval.

use crate::budgeted::UNMETERED;
use crate::{Manager, NodeId};

impl Manager {
    /// Coudert–Madre restriction of `f` to the care set `care`.
    ///
    /// Guarantees `restrict(f, c) · c = f · c`; outside the care set the
    /// result is unspecified (that freedom is what shrinks the BDD).
    /// `restrict(f, 0)` is defined as `f`.
    pub fn restrict(&mut self, f: NodeId, care: NodeId) -> NodeId {
        self.try_restrict(f, care, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    #[test]
    fn agrees_on_care_set() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let t = m.xor(vs[0], vs[1]);
        let f = m.and(t, vs[2]);
        let care = m.or(vs[1], vs[3]);
        let r = m.restrict(f, care);
        let lhs = m.and(r, care);
        let rhs = m.and(f, care);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn full_care_is_identity() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let f = m.xor(vs[0], vs[2]);
        assert_eq!(m.restrict(f, NodeId::TRUE), f);
        assert_eq!(m.restrict(f, NodeId::FALSE), f);
    }

    #[test]
    fn cube_care_cofactors() {
        // Restricting to the cube a=1 turns f into its cofactor there.
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let f = m.and(vs[0], vs[1]);
        let r = m.restrict(f, vs[0]);
        assert_eq!(r, vs[1], "restrict to a=1 drops the a test");
    }

    #[test]
    fn shrinks_with_sparse_care() {
        // f = majority over 3 vars; care = "not all equal": on the care
        // set maj equals "at least two ones" which restrict can simplify.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let ac = m.and(vs[0], vs[2]);
        let bc = m.and(vs[1], vs[2]);
        let t = m.or(ab, ac);
        let f = m.or(t, bc);
        // care: a ≠ b (then maj = c... no: maj(a,b,c) with a≠b equals c).
        let care = m.xor(vs[0], vs[1]);
        let r = m.restrict(f, care);
        let lhs = m.and(r, care);
        let rhs = m.and(f, care);
        assert_eq!(lhs, rhs);
        assert!(m.size(r) <= m.size(f));
    }

    #[test]
    fn exhaustive_contract_small() {
        // For all 3-var (f, care≠0) pairs drawn from a structured family,
        // restrict agrees on care.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let mut funcs = vec![NodeId::FALSE, NodeId::TRUE];
        for &v in &vs {
            funcs.push(v);
            let nv = m.not(v);
            funcs.push(nv);
        }
        let x = m.xor(vs[0], vs[1]);
        let a = m.and(vs[1], vs[2]);
        let o = m.or(vs[0], vs[2]);
        funcs.extend([x, a, o]);
        for &f in &funcs {
            for &care in &funcs {
                if care.is_false() {
                    continue;
                }
                let r = m.restrict(f, care);
                let lhs = m.and(r, care);
                let rhs = m.and(f, care);
                assert_eq!(lhs, rhs, "f={f}, care={care}");
            }
        }
        let _ = VarId(0);
    }
}
