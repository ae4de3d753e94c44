//! Variable substitution: single-variable composition and simultaneous
//! vector composition.

use crate::budgeted::UNMETERED;
use crate::hash::FxHashMap;
use crate::{Manager, NodeId, VarId};

/// Handle to a substitution table registered with
/// [`Manager::register_substitution`]; used by [`Manager::vector_compose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubstitutionId(pub(crate) u32);

impl Manager {
    /// Substitutes function `g` for variable `v` in `f`:
    /// `f[v ← g] = g·f|v=1 + ¬g·f|v=0`.
    pub fn compose(&mut self, f: NodeId, v: VarId, g: NodeId) -> NodeId {
        self.try_compose(f, v, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Registers a simultaneous substitution `{vᵢ ← gᵢ}` for use with
    /// [`Manager::vector_compose`]. Registering once and reusing the id
    /// lets repeated compositions share computed-table entries.
    pub fn register_substitution(&mut self, pairs: &[(VarId, NodeId)]) -> SubstitutionId {
        let mut map = FxHashMap::default();
        for &(v, g) in pairs {
            let prev = map.insert(v.0, g);
            debug_assert!(prev.is_none(), "duplicate substitution for {v}");
        }
        let id = SubstitutionId(self.substitutions.len() as u32);
        self.substitutions.push(map);
        id
    }

    /// Simultaneously substitutes all registered pairs into `f`.
    ///
    /// Unlike chains of [`Manager::compose`], the substitution is
    /// *simultaneous*: replacement functions are never themselves rewritten,
    /// which is what the parameterized forms of the paper require
    /// (e.g. `xᵢ ← ITE(cᵢ, xᵢ, yᵢ)` mentions `xᵢ` on the right-hand side).
    pub fn vector_compose(&mut self, f: NodeId, subst: SubstitutionId) -> NodeId {
        self.try_vector_compose(f, subst, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Renames variables according to `pairs` (a special case of vector
    /// composition where every target is a variable). Convenience for
    /// present-state/next-state swaps in reachability analysis.
    pub fn rename(&mut self, f: NodeId, pairs: &[(VarId, VarId)]) -> NodeId {
        self.try_rename(f, pairs, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compose_with_constant_is_cofactor() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let f = m.xor(a, b);
        let f1 = m.compose(f, VarId(0), NodeId::TRUE);
        let nb = m.not(b);
        assert_eq!(f1, nb);
    }

    #[test]
    fn compose_substitutes_function() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let f = m.or(vs[0], vs[2]);
        let g = m.and(vs[1], vs[2]);
        // (a + c)[a ← bc] = bc + c = c
        let r = m.compose(f, VarId(0), g);
        assert_eq!(r, vs[2]);
    }

    #[test]
    fn vector_compose_is_simultaneous() {
        let mut m = Manager::new();
        let vs = m.new_vars(2);
        let (a, b) = (vs[0], vs[1]);
        // Swap a and b in a·¬b via simultaneous substitution.
        let nb = m.not(b);
        let f = m.and(a, nb);
        let id = m.register_substitution(&[(VarId(0), b), (VarId(1), a)]);
        let swapped = m.vector_compose(f, id);
        let na = m.not(a);
        let expect = m.and(b, na);
        assert_eq!(swapped, expect);
    }

    #[test]
    fn vector_compose_self_referencing_substitution() {
        // x ← ITE(c, x, y): with c=1 identity, with c=0 substitutes y.
        let mut m = Manager::new();
        let c = m.new_var();
        let x = m.new_var();
        let y = m.new_var();
        let rep = m.ite(c, x, y);
        let id = m.register_substitution(&[(VarId(1), rep)]);
        let f = x; // the function "x"
        let g = m.vector_compose(f, id);
        assert_eq!(g, rep);
        let g_c1 = m.cofactor(g, VarId(0), true);
        let g_c0 = m.cofactor(g, VarId(0), false);
        assert_eq!(g_c1, x);
        assert_eq!(g_c0, y);
    }

    #[test]
    fn rename_swaps_variables() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let f = m.and(vs[0], vs[1]);
        let r = m.rename(f, &[(VarId(0), VarId(2)), (VarId(1), VarId(3))]);
        let expect = m.and(vs[2], vs[3]);
        assert_eq!(r, expect);
    }
}
