//! Existential and universal quantification over variable cubes.

use crate::budgeted::UNMETERED;
use crate::{Manager, NodeId, VarId};

impl Manager {
    /// Existential quantification `∃vars f`.
    pub fn exists(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        self.try_exists(f, vars, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Universal quantification `∀vars f`.
    pub fn forall(&mut self, f: NodeId, vars: &[VarId]) -> NodeId {
        self.try_forall(f, vars, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Existential quantification of a single variable.
    pub fn exists_var(&mut self, f: NodeId, v: VarId) -> NodeId {
        self.exists(f, &[v])
    }

    /// Universal quantification of a single variable.
    pub fn forall_var(&mut self, f: NodeId, v: VarId) -> NodeId {
        self.forall(f, &[v])
    }

    /// `∃cube f` where `cube` is a positive cube built with
    /// [`Manager::cube`].
    pub fn exists_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        self.try_exists_cube(f, cube, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// `∀cube f` where `cube` is a positive cube.
    pub fn forall_cube(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        self.try_forall_cube(f, cube, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Relational product `∃cube (f · g)` computed without materializing
    /// the full conjunction — the workhorse of image computation.
    pub fn and_exists(&mut self, f: NodeId, g: NodeId, cube: NodeId) -> NodeId {
        self.try_and_exists(f, g, cube, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_or_of_cofactors() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let f = m.and(a, b);
        // ∃a (a·b) = b
        assert_eq!(m.exists_var(f, VarId(0)), b);
        // ∀a (a·b) = 0
        assert!(m.forall_var(f, VarId(0)).is_false());
    }

    #[test]
    fn quantifier_duality() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let x = m.xor(vars[0], vars[2]);
        let y = m.and(vars[1], vars[3]);
        let f = m.or(x, y);
        let q = [VarId(1), VarId(2)];
        let fa = m.forall(f, &q);
        let nf = m.not(f);
        let ex = m.exists(nf, &q);
        let dual = m.not(ex);
        assert_eq!(fa, dual);
    }

    #[test]
    fn quantifying_absent_variable_is_identity() {
        let mut m = Manager::new();
        let a = m.new_var();
        let b = m.new_var();
        let _c = m.new_var();
        let f = m.or(a, b);
        assert_eq!(m.exists_var(f, VarId(2)), f);
        assert_eq!(m.forall_var(f, VarId(2)), f);
    }

    #[test]
    fn multi_var_equals_iterated() {
        let mut m = Manager::new();
        let vs = m.new_vars(5);
        let t1 = m.and(vs[0], vs[3]);
        let t2 = m.xor(vs[1], vs[4]);
        let t3 = m.and(vs[2], t2);
        let f = m.or(t1, t3);
        let together = m.exists(f, &[VarId(0), VarId(2), VarId(4)]);
        let step1 = m.exists_var(f, VarId(4));
        let step2 = m.exists_var(step1, VarId(2));
        let step3 = m.exists_var(step2, VarId(0));
        assert_eq!(together, step3);
    }

    #[test]
    fn and_exists_matches_naive() {
        let mut m = Manager::new();
        let vs = m.new_vars(6);
        let f = {
            let t = m.xor(vs[0], vs[1]);
            m.and(t, vs[2])
        };
        let g = {
            let t = m.or(vs[3], vs[4]);
            m.xor(t, vs[5])
        };
        let cube = m.cube(&[VarId(1), VarId(3), VarId(5)]);
        let fast = m.and_exists(f, g, cube);
        let conj = m.and(f, g);
        let slow = m.exists_cube(conj, cube);
        assert_eq!(fast, slow);
    }

    #[test]
    fn example_3_2_abstraction_of_interval() {
        // Paper Example 3.2: abstracting x from [x̄y, x+y] yields [y, y];
        // abstracting y yields the empty interval [x, x̄]... i.e. ∃y(x̄y)=x̄
        // and ∀y(x+y)=x, and x̄ ≤ x fails.
        let mut m = Manager::new();
        let x = m.new_var();
        let y = m.new_var();
        let nx = m.not(x);
        let lower = m.and(nx, y);
        let upper = m.or(x, y);
        let l_abs = m.exists_var(lower, VarId(0));
        let u_abs = m.forall_var(upper, VarId(0));
        assert_eq!(l_abs, y);
        assert_eq!(u_abs, y);
        // Abstraction of y.
        let l_abs_y = m.exists_var(lower, VarId(1));
        let u_abs_y = m.forall_var(upper, VarId(1));
        assert_eq!(l_abs_y, nx);
        assert_eq!(u_abs_y, x);
        assert!(!m.leq(l_abs_y, u_abs_y));
    }
}
