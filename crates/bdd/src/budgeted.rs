//! The governed bodies of the recursive `Manager` operations.
//!
//! Each operation has one implementation, the `try_*` form here. It
//! consults a [`ResourceGovernor`] at every *cache-miss* recursion step
//! — the points where new work (and new nodes) can be created — and
//! unwinds with [`ResourceExhausted`] the moment a limit trips. Cache
//! hits and terminal shortcuts are free: an operation whose result
//! still sits in the computed table succeeds even under a zero budget,
//! which is exactly the CUDD `*Limit` contract. The computed table is
//! lossy (direct-mapped, bounded), so "still sits" means "not yet
//! overwritten by a colliding entry" — the most recent top-level result
//! for a key always survives, older ones may have to be recomputed
//! under budget.
//!
//! The plain API (`Manager::and`, `exists`, `restrict`, …) is the same
//! body run under [`UNMETERED`], a governor with no limit to trip, so:
//!
//! - a successful `try_*` returns the [`NodeId`] the plain operation
//!   returns, because it is the same code over the same computed table,
//!   and
//! - work done before an exhaustion is kept — a retry, a fallback or a
//!   later plain call starts from the warm cache rather than from
//!   scratch.
//!
//! Partial results of an exhausted operation are ordinary nodes and
//! cache entries; they are sound (every cached entry is a fully
//! computed sub-result) and simply become reusable warm-up.

use std::sync::LazyLock;

use crate::compose::SubstitutionId;
use crate::governor::{ResourceExhausted, ResourceGovernor};
use crate::manager::Op;
use crate::{Manager, NodeId, VarId};

/// The governor of the plain `Manager` API: no step, node or time
/// limit, no fault plan, and a cancel flag no caller can reach, so an
/// operation run under it cannot fail. One shared static, so a plain
/// call allocates no governor.
pub(crate) static UNMETERED: LazyLock<ResourceGovernor> =
    LazyLock::new(ResourceGovernor::unlimited);

impl Manager {
    /// Budgeted [`Manager::not`].
    pub fn try_not(
        &mut self,
        f: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        match f {
            NodeId::FALSE => return Ok(NodeId::TRUE),
            NodeId::TRUE => return Ok(NodeId::FALSE),
            _ => {}
        }
        let key = (Op::Not, f.0, 0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let n = self.node(f);
        let lo = self.try_not(n.lo, gov)?;
        let hi = self.try_not(n.hi, gov)?;
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::and`].
    pub fn try_and(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f == g {
            return Ok(f);
        }
        if f.is_false() || g.is_false() {
            return Ok(NodeId::FALSE);
        }
        if f.is_true() {
            return Ok(g);
        }
        if g.is_true() {
            return Ok(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::And, a.0, b.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let r = self.try_binary_step(Op::And, a, b, gov)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::or`].
    pub fn try_or(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f == g {
            return Ok(f);
        }
        if f.is_true() || g.is_true() {
            return Ok(NodeId::TRUE);
        }
        if f.is_false() {
            return Ok(g);
        }
        if g.is_false() {
            return Ok(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Or, a.0, b.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let r = self.try_binary_step(Op::Or, a, b, gov)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::xor`].
    pub fn try_xor(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f == g {
            return Ok(NodeId::FALSE);
        }
        if f.is_false() {
            return Ok(g);
        }
        if g.is_false() {
            return Ok(f);
        }
        if f.is_true() {
            return self.try_not(g, gov);
        }
        if g.is_true() {
            return self.try_not(f, gov);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Xor, a.0, b.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let r = self.try_binary_step(Op::Xor, a, b, gov)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    fn try_binary_step(
        &mut self,
        op: Op,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let (lf, lg) = (self.level(f), self.level(g));
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { self.branches(f) } else { (f, f) };
        let (g0, g1) = if lg == top { self.branches(g) } else { (g, g) };
        let (lo, hi) = match op {
            Op::And => (self.try_and(f0, g0, gov)?, self.try_and(f1, g1, gov)?),
            Op::Or => (self.try_or(f0, g0, gov)?, self.try_or(f1, g1, gov)?),
            Op::Xor => (self.try_xor(f0, g0, gov)?, self.try_xor(f1, g1, gov)?),
            _ => unreachable!("try_binary_step only handles AND/OR/XOR"),
        };
        let var = self.var_at_level(top);
        Ok(self.mk(var, lo, hi))
    }

    /// Budgeted [`Manager::ite`].
    pub fn try_ite(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        // Terminal cases.
        if f.is_true() {
            return Ok(g);
        }
        if f.is_false() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_true() && h.is_false() {
            return Ok(f);
        }
        if g.is_false() && h.is_true() {
            return self.try_not(f, gov);
        }
        let key = (Op::Ite, f.0, g.0, h.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = if self.level(f) == top { self.branches(f) } else { (f, f) };
        let (g0, g1) = if self.level(g) == top { self.branches(g) } else { (g, g) };
        let (h0, h1) = if self.level(h) == top { self.branches(h) } else { (h, h) };
        let lo = self.try_ite(f0, g0, h0, gov)?;
        let hi = self.try_ite(f1, g1, h1, gov)?;
        let var = self.var_at_level(top);
        let r = self.mk(var, lo, hi);
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::xnor`].
    pub fn try_xnor(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let x = self.try_xor(f, g, gov)?;
        self.try_not(x, gov)
    }

    /// Budgeted [`Manager::implies`].
    pub fn try_implies(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let nf = self.try_not(f, gov)?;
        self.try_or(nf, g, gov)
    }

    /// Budgeted [`Manager::diff`].
    pub fn try_diff(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let ng = self.try_not(g, gov)?;
        self.try_and(f, ng, gov)
    }

    /// Budgeted [`Manager::leq`].
    pub fn try_leq(
        &mut self,
        f: NodeId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<bool, ResourceExhausted> {
        Ok(self.try_diff(f, g, gov)?.is_false())
    }

    /// Budgeted [`Manager::and_many`].
    pub fn try_and_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.try_reduce_many(fs.into_iter().collect(), NodeId::TRUE, gov, Self::try_and)
    }

    /// Budgeted [`Manager::or_many`].
    pub fn try_or_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.try_reduce_many(fs.into_iter().collect(), NodeId::FALSE, gov, Self::try_or)
    }

    /// Budgeted [`Manager::xor_many`].
    pub fn try_xor_many<I: IntoIterator<Item = NodeId>>(
        &mut self,
        fs: I,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.try_reduce_many(fs.into_iter().collect(), NodeId::FALSE, gov, Self::try_xor)
    }

    /// Balanced pairwise reduction of `ops` under `op`; `empty` for no
    /// operands.
    fn try_reduce_many(
        &mut self,
        mut ops: Vec<NodeId>,
        empty: NodeId,
        gov: &ResourceGovernor,
        mut op: impl FnMut(
            &mut Self,
            NodeId,
            NodeId,
            &ResourceGovernor,
        ) -> Result<NodeId, ResourceExhausted>,
    ) -> Result<NodeId, ResourceExhausted> {
        if ops.is_empty() {
            return Ok(empty);
        }
        while ops.len() > 1 {
            let mut next = Vec::with_capacity(ops.len().div_ceil(2));
            for pair in ops.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1], gov)?
                } else {
                    pair[0]
                });
            }
            ops = next;
        }
        Ok(ops[0])
    }

    /// Budgeted [`Manager::exists`].
    pub fn try_exists(
        &mut self,
        f: NodeId,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let cube = self.cube(vars);
        self.try_exists_cube(f, cube, gov)
    }

    /// Budgeted [`Manager::forall`].
    pub fn try_forall(
        &mut self,
        f: NodeId,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let cube = self.cube(vars);
        self.try_forall_cube(f, cube, gov)
    }

    /// Budgeted [`Manager::exists_cube`].
    pub fn try_exists_cube(
        &mut self,
        f: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.try_quant_rec(f, cube, Op::Exists, gov)
    }

    /// Budgeted [`Manager::forall_cube`].
    pub fn try_forall_cube(
        &mut self,
        f: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        self.try_quant_rec(f, cube, Op::Forall, gov)
    }

    fn try_quant_rec(
        &mut self,
        f: NodeId,
        cube: NodeId,
        op: Op,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_terminal() || cube.is_true() {
            return Ok(f);
        }
        debug_assert!(!cube.is_false(), "quantification cube must be a positive cube");
        // Skip cube variables above f's top variable: they do not occur in f.
        let mut cube = cube;
        let f_level = self.level(f);
        while !cube.is_true() && self.level(cube) < f_level {
            cube = self.branches(cube).1;
        }
        if cube.is_true() {
            return Ok(f);
        }
        let key = (op, f.0, cube.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let (f0, f1) = self.branches(f);
        let fvar = self.node(f).var;
        let r = if self.level(cube) == f_level {
            let rest = self.branches(cube).1;
            let lo = self.try_quant_rec(f0, rest, op, gov)?;
            let hi = self.try_quant_rec(f1, rest, op, gov)?;
            match op {
                Op::Exists => self.try_or(lo, hi, gov)?,
                Op::Forall => self.try_and(lo, hi, gov)?,
                _ => unreachable!(),
            }
        } else {
            let lo = self.try_quant_rec(f0, cube, op, gov)?;
            let hi = self.try_quant_rec(f1, cube, op, gov)?;
            self.mk(fvar, lo, hi)
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::and_exists`] — the relational product at the
    /// heart of image computation, where mid-operation blow-up is most
    /// dangerous.
    pub fn try_and_exists(
        &mut self,
        f: NodeId,
        g: NodeId,
        cube: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_false() || g.is_false() {
            return Ok(NodeId::FALSE);
        }
        if f.is_true() && g.is_true() {
            return Ok(NodeId::TRUE);
        }
        if cube.is_true() {
            return self.try_and(f, g, gov);
        }
        if f.is_true() {
            return self.try_exists_cube(g, cube, gov);
        }
        if g.is_true() {
            return self.try_exists_cube(f, cube, gov);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Exists, a.0, b.0, cube.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let top = self.level(a).min(self.level(b));
        // Skip cube variables above the top of both operands.
        let mut cube_here = cube;
        while !cube_here.is_true() && self.level(cube_here) < top {
            cube_here = self.branches(cube_here).1;
        }
        let (a0, a1) = if self.level(a) == top { self.branches(a) } else { (a, a) };
        let (b0, b1) = if self.level(b) == top { self.branches(b) } else { (b, b) };
        let r = if !cube_here.is_true() && self.level(cube_here) == top {
            let rest = self.branches(cube_here).1;
            let lo = self.try_and_exists(a0, b0, rest, gov)?;
            if lo.is_true() {
                NodeId::TRUE
            } else {
                let hi = self.try_and_exists(a1, b1, rest, gov)?;
                self.try_or(lo, hi, gov)?
            }
        } else {
            let lo = self.try_and_exists(a0, b0, cube_here, gov)?;
            let hi = self.try_and_exists(a1, b1, cube_here, gov)?;
            let var = self.var_at_level(top);
            self.mk(var, lo, hi)
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::compose`].
    pub fn try_compose(
        &mut self,
        f: NodeId,
        v: VarId,
        g: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_terminal() || self.level(f) > self.level_of(v) as u32 {
            // Ordered: v cannot occur below a deeper top variable.
            return Ok(f);
        }
        let key = (Op::Compose, f.0, v.0, g.0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let node = self.node(f);
        let r = if node.var == v.0 {
            self.try_ite(g, node.hi, node.lo, gov)?
        } else {
            let lo = self.try_compose(node.lo, v, g, gov)?;
            let hi = self.try_compose(node.hi, v, g, gov)?;
            let top = self.var(VarId(node.var));
            self.try_ite(top, hi, lo, gov)?
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::cofactor`].
    pub fn try_cofactor(
        &mut self,
        f: NodeId,
        v: VarId,
        value: bool,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let constant = if value { NodeId::TRUE } else { NodeId::FALSE };
        self.try_compose(f, v, constant, gov)
    }

    /// Budgeted [`Manager::vector_compose`].
    pub fn try_vector_compose(
        &mut self,
        f: NodeId,
        subst: SubstitutionId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_terminal() {
            return Ok(f);
        }
        let key = (Op::VCompose, f.0, subst.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let node = self.node(f);
        let lo = self.try_vector_compose(node.lo, subst, gov)?;
        let hi = self.try_vector_compose(node.hi, subst, gov)?;
        let replacement = match self.substitutions[subst.0 as usize].get(&node.var) {
            Some(&g) => g,
            None => self.var(VarId(node.var)),
        };
        let r = self.try_ite(replacement, hi, lo, gov)?;
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::restrict`].
    pub fn try_restrict(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if care.is_false() {
            return Ok(f);
        }
        self.try_restrict_rec(f, care, gov)
    }

    fn try_restrict_rec(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_terminal() || care.is_true() {
            return Ok(f);
        }
        debug_assert!(!care.is_false(), "inner care set cannot be empty");
        let key = (Op::Restrict, f.0, care.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let lf = self.level(f);
        let lc = self.level(care);
        let r = if lc < lf {
            // The care set branches on a variable f ignores: merge the
            // branches (f must agree wherever *either* side cares).
            let (c0, c1) = self.branches(care);
            let merged = self.try_or(c0, c1, gov)?;
            self.try_restrict_rec(f, merged, gov)?
        } else {
            let (f0, f1) = self.branches(f);
            let fvar = self.node(f).var;
            let (c0, c1) = if lc == lf { self.branches(care) } else { (care, care) };
            if c0.is_false() {
                self.try_restrict_rec(f1, c1, gov)?
            } else if c1.is_false() {
                self.try_restrict_rec(f0, c0, gov)?
            } else {
                let lo = self.try_restrict_rec(f0, c0, gov)?;
                let hi = self.try_restrict_rec(f1, c1, gov)?;
                self.mk(fvar, lo, hi)
            }
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::constrain`].
    pub fn try_constrain(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if care.is_false() {
            return Ok(f);
        }
        self.try_constrain_rec(f, care, gov)
    }

    fn try_constrain_rec(
        &mut self,
        f: NodeId,
        care: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if f.is_terminal() || care.is_true() {
            return Ok(f);
        }
        debug_assert!(!care.is_false(), "inner care set cannot be empty");
        if f == care {
            return Ok(NodeId::TRUE);
        }
        let key = (Op::Constrain, f.0, care.0, 0);
        if let Some(r) = self.cache.get(key) {
            return Ok(r);
        }
        gov.checkpoint(self.live_node_count())?;
        let lf = self.level(f);
        let lc = self.level(care);
        let top = lf.min(lc);
        let (c0, c1) = if lc == top { self.branches(care) } else { (care, care) };
        let (f0, f1) = if lf == top { self.branches(f) } else { (f, f) };
        let r = if c0.is_false() {
            // Every care point sets the top variable: points with it
            // clear are mapped across, so the variable test disappears.
            self.try_constrain_rec(f1, c1, gov)?
        } else if c1.is_false() {
            self.try_constrain_rec(f0, c0, gov)?
        } else {
            // Both care branches are non-empty: branch on the top
            // variable even when f ignores it (this is where the result
            // may gain support from `care` — the cost of keeping the
            // conjunction/quantification identities exact).
            let lo = self.try_constrain_rec(f0, c0, gov)?;
            let hi = self.try_constrain_rec(f1, c1, gov)?;
            let var = self.var_at_level(top);
            self.mk(var, lo, hi)
        };
        self.cache.insert(key, r);
        Ok(r)
    }

    /// Budgeted [`Manager::rename`].
    pub fn try_rename(
        &mut self,
        f: NodeId,
        pairs: &[(VarId, VarId)],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let subst: Vec<(VarId, NodeId)> =
            pairs.iter().map(|&(v, w)| (v, self.var(w))).collect();
        let id = self.register_substitution(&subst);
        self.try_vector_compose(f, id, gov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::ResourceGovernor;

    fn ripple_xor_and(m: &mut Manager, vars: &[NodeId]) -> NodeId {
        let mut f = vars[0];
        for w in vars.windows(2) {
            let t = m.and(w[0], w[1]);
            f = m.xor(f, t);
        }
        f
    }

    #[test]
    fn zero_budget_fails_on_cache_miss_but_not_on_hit() {
        let starved = ResourceGovernor::unlimited().with_step_limit(0);
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..4]);
        let g = ripple_xor_and(&mut m, &vars[4..]);
        assert_eq!(m.try_and(f, g, &starved), Err(ResourceExhausted::Steps));
        // Compute unbudgeted, then the warm cache answers for free.
        let expect = m.and(f, g);
        assert_eq!(m.try_and(f, g, &starved), Ok(expect));
    }

    #[test]
    fn partial_work_is_kept_and_retry_completes() {
        let mut m = Manager::new();
        let vars = m.new_vars(12);
        let f = ripple_xor_and(&mut m, &vars[..6]);
        let g = ripple_xor_and(&mut m, &vars[6..]);
        let expect = {
            let mut fresh = Manager::new();
            let vars2 = fresh.new_vars(12);
            let f2 = ripple_xor_and(&mut fresh, &vars2[..6]);
            let g2 = ripple_xor_and(&mut fresh, &vars2[6..]);
            let r = fresh.xor(f2, g2);
            fresh.size(r)
        };
        // Grow the budget until the op completes; every failure leaves
        // only sound cache entries behind.
        let mut budget = 1u64;
        let r = loop {
            let gov = ResourceGovernor::unlimited().with_step_limit(budget);
            match m.try_xor(f, g, &gov) {
                Ok(r) => break r,
                Err(ResourceExhausted::Steps) => budget += 1,
                Err(other) => panic!("unexpected exhaustion: {other}"),
            }
        };
        assert_eq!(m.xor(f, g), r);
        assert_eq!(m.size(r), expect);
    }

    #[test]
    fn node_ceiling_trips_mid_operation() {
        let mut m = Manager::new();
        let vars = m.new_vars(20);
        let f = ripple_xor_and(&mut m, &vars[..10]);
        let g = ripple_xor_and(&mut m, &vars[10..]);
        let ceiling = m.stats().nodes; // already at the ceiling: any growth trips
        let gov = ResourceGovernor::unlimited().with_node_limit(ceiling);
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Nodes));
    }

    #[test]
    fn starved_constrain_fails_then_warm_cache_answers() {
        let starved = ResourceGovernor::unlimited().with_step_limit(0);
        let mut m = Manager::new();
        let vars = m.new_vars(8);
        let f = ripple_xor_and(&mut m, &vars[..5]);
        let care = ripple_xor_and(&mut m, &vars[3..]);
        assert_eq!(m.try_constrain(f, care, &starved), Err(ResourceExhausted::Steps));
        let expect = m.constrain(f, care);
        assert_eq!(m.try_constrain(f, care, &starved), Ok(expect));
    }

    #[test]
    fn expired_deadline_observed_within_bounded_expansions() {
        use crate::governor::MAX_DEADLINE_OVERSHOOT_STEPS;
        use std::time::Duration;
        // A deep recursive apply whose deadline has already passed must
        // unwind within the amortization window: the deadline is re-read
        // every DEADLINE_CHECK_PERIOD steps, so no more than
        // MAX_DEADLINE_OVERSHOOT_STEPS cache-miss expansions may happen
        // after expiry. This pins the degradation ladder's worst-case
        // reaction latency for warm-cache-free workloads.
        let mut m = Manager::new();
        let vars = m.new_vars(24);
        let f = ripple_xor_and(&mut m, &vars[..12]);
        let g = ripple_xor_and(&mut m, &vars[12..]);
        let gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Deadline));
        assert!(
            gov.steps_used() <= MAX_DEADLINE_OVERSHOOT_STEPS,
            "deadline observed after {} steps, bound is {}",
            gov.steps_used(),
            MAX_DEADLINE_OVERSHOOT_STEPS
        );
        // Same workload, same governor shape, deep ITE recursion.
        let ite_gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(m.try_ite(f, g, vars[0], &ite_gov), Err(ResourceExhausted::Deadline));
        assert!(ite_gov.steps_used() <= MAX_DEADLINE_OVERSHOOT_STEPS);
    }

    #[test]
    fn pre_raised_cancel_trips_on_the_first_checkpoint() {
        let mut m = Manager::new();
        let vars = m.new_vars(24);
        let f = ripple_xor_and(&mut m, &vars[..12]);
        let g = ripple_xor_and(&mut m, &vars[12..]);
        let gov = ResourceGovernor::unlimited();
        gov.cancel_handle().cancel();
        let before = m.live_node_count();
        assert_eq!(m.try_xor(f, g, &gov), Err(ResourceExhausted::Cancelled));
        // Cancellation is checked before any charge or expansion: the
        // very first cache-miss checkpoint unwinds with zero new work.
        assert_eq!(gov.steps_used(), 0, "cancel must precede step charging");
        assert_eq!(m.live_node_count(), before, "no nodes created after cancel");
    }
}
