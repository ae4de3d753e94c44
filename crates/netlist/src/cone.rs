//! Extraction of combinational cones as BDDs.
//!
//! A *cone* of a signal is its combinational transitive fanin, cut at
//! primary inputs and latch outputs. [`ConeExtractor`] maps those leaves
//! to BDD variables (caller-controlled layout) and builds the signal's
//! function — the "functional representation for selected signals in terms
//! of their cone inputs" of §3.5.3.

use crate::{Netlist, NodeKind, SignalId};
use std::collections::HashMap;
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// Computes a leaf ordering by depth-first traversal of the combinational
/// fanin from the outputs and next-state functions — the classic
/// fanin-DFS heuristic: leaves that feed the same cone get adjacent BDD
/// variables, which keeps cone BDDs small regardless of how the netlist
/// happens to declare its inputs. Leaves unreachable from any root are
/// appended in declaration order.
pub fn dfs_leaf_order(netlist: &Netlist) -> Vec<SignalId> {
    let mut order = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut roots: Vec<SignalId> = netlist.outputs().iter().map(|&(_, s)| s).collect();
    roots.extend(
        netlist.latches().iter().filter_map(|&l| netlist.latch_next(l)),
    );
    for root in roots {
        // Post-order DFS collecting leaves first-encountered.
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            match netlist.kind(s) {
                NodeKind::Input | NodeKind::Latch { .. } => order.push(s),
                NodeKind::Const(_) => {}
                NodeKind::Gate(_) => {
                    // Push in reverse so the first fanin is visited first.
                    for &f in netlist.fanins(s).iter().rev() {
                        stack.push(f);
                    }
                }
            }
        }
    }
    for &leaf in netlist.inputs().iter().chain(netlist.latches()) {
        if seen.insert(leaf) {
            order.push(leaf);
        }
    }
    order
}

/// Builds BDDs for signals of one netlist inside a caller-provided
/// [`Manager`], caching per-signal results.
#[derive(Debug)]
pub struct ConeExtractor<'a> {
    netlist: &'a Netlist,
    /// Leaf signal → BDD variable.
    var_map: HashMap<SignalId, VarId>,
    cache: HashMap<SignalId, NodeId>,
}

impl<'a> ConeExtractor<'a> {
    /// Creates an extractor with an explicit leaf-to-variable mapping.
    /// Signals absent from `var_map` must not appear as cone leaves of the
    /// signals later queried.
    pub fn new(netlist: &'a Netlist, var_map: HashMap<SignalId, VarId>) -> Self {
        ConeExtractor { netlist, var_map, cache: HashMap::new() }
    }

    /// Convenience constructor: allocates one fresh manager variable per
    /// primary input and latch, in declaration order (inputs first).
    pub fn with_default_layout(netlist: &'a Netlist, m: &mut Manager) -> Self {
        let mut var_map = HashMap::new();
        for &i in netlist.inputs() {
            var_map.insert(i, VarId(m.num_vars() as u32));
            m.new_var();
        }
        for &l in netlist.latches() {
            var_map.insert(l, VarId(m.num_vars() as u32));
            m.new_var();
        }
        ConeExtractor::new(netlist, var_map)
    }

    /// Constructor using the [`dfs_leaf_order`] heuristic for the variable
    /// layout — usually smaller cone BDDs than declaration order.
    pub fn with_dfs_layout(netlist: &'a Netlist, m: &mut Manager) -> Self {
        let mut var_map = HashMap::new();
        for leaf in dfs_leaf_order(netlist) {
            var_map.insert(leaf, VarId(m.num_vars() as u32));
            m.new_var();
        }
        ConeExtractor::new(netlist, var_map)
    }

    /// The leaf-to-variable mapping.
    pub fn var_map(&self) -> &HashMap<SignalId, VarId> {
        &self.var_map
    }

    /// Registers an additional leaf: from now on, cones stop at `s` and
    /// read it as variable `v`. Cones built *before* this call keep their
    /// expanded view of `s` — the intended semantics for cut-point-based
    /// rewriting, where a signal becomes a boundary only after it has been
    /// processed itself.
    pub fn add_leaf(&mut self, m: &mut Manager, s: SignalId, v: VarId) {
        self.var_map.insert(s, v);
        self.cache.insert(s, m.var(v));
    }

    /// BDD variable assigned to a leaf signal, if any.
    pub fn var_of(&self, s: SignalId) -> Option<VarId> {
        self.var_map.get(&s).copied()
    }

    /// Builds (or retrieves) the BDD of `signal`'s combinational cone.
    ///
    /// # Panics
    ///
    /// Panics if the cone reaches a leaf with no assigned variable.
    pub fn bdd(&mut self, m: &mut Manager, signal: SignalId) -> NodeId {
        self.try_bdd(m, signal, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Budgeted [`ConeExtractor::bdd`]: every gate combination runs
    /// under `gov`. On exhaustion the partial per-signal cache is kept,
    /// so a retry with a larger budget resumes where this attempt
    /// stopped.
    ///
    /// # Panics
    ///
    /// Panics if the cone reaches a leaf with no assigned variable.
    pub fn try_bdd(
        &mut self,
        m: &mut Manager,
        signal: SignalId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if let Some(&f) = self.cache.get(&signal) {
            return Ok(f);
        }
        // Iterative post-order to survive deep netlists.
        let mut stack: Vec<(SignalId, bool)> = vec![(signal, false)];
        while let Some((s, expanded)) = stack.pop() {
            if self.cache.contains_key(&s) {
                continue;
            }
            match self.netlist.kind(s) {
                NodeKind::Input | NodeKind::Latch { .. } => {
                    let v = *self.var_map.get(&s).unwrap_or_else(|| {
                        panic!(
                            "cone leaf `{}` has no BDD variable assigned",
                            self.netlist.signal_name(s)
                        )
                    });
                    let node = m.var(v);
                    self.cache.insert(s, node);
                }
                NodeKind::Const(b) => {
                    self.cache.insert(s, if b { NodeId::TRUE } else { NodeId::FALSE });
                }
                NodeKind::Gate(kind) => {
                    if expanded {
                        let fanins: Vec<NodeId> =
                            self.netlist.fanins(s).iter().map(|f| self.cache[f]).collect();
                        let node = match kind {
                            crate::GateKind::And => m.try_and_many(fanins, gov)?,
                            crate::GateKind::Or => m.try_or_many(fanins, gov)?,
                            crate::GateKind::Xor => m.try_xor_many(fanins, gov)?,
                            crate::GateKind::Nand => {
                                let x = m.try_and_many(fanins, gov)?;
                                m.try_not(x, gov)?
                            }
                            crate::GateKind::Nor => {
                                let x = m.try_or_many(fanins, gov)?;
                                m.try_not(x, gov)?
                            }
                            crate::GateKind::Xnor => {
                                let x = m.try_xor_many(fanins, gov)?;
                                m.try_not(x, gov)?
                            }
                            crate::GateKind::Not => m.try_not(fanins[0], gov)?,
                            crate::GateKind::Buf => fanins[0],
                        };
                        self.cache.insert(s, node);
                    } else {
                        stack.push((s, true));
                        for &f in self.netlist.fanins(s) {
                            if !self.cache.contains_key(&f) {
                                stack.push((f, false));
                            }
                        }
                    }
                }
            }
        }
        Ok(self.cache[&signal])
    }

    /// BDDs of all next-state functions, in latch declaration order.
    pub fn next_state_bdds(&mut self, m: &mut Manager) -> Vec<NodeId> {
        let nexts: Vec<SignalId> = self
            .netlist
            .latches()
            .iter()
            .map(|&l| self.netlist.latch_next(l).expect("validated netlist"))
            .collect();
        nexts.into_iter().map(|s| self.bdd(m, s)).collect()
    }

    /// BDDs of all primary-output functions, in output order.
    pub fn output_bdds(&mut self, m: &mut Manager) -> Vec<NodeId> {
        let outs: Vec<SignalId> = self.netlist.outputs().iter().map(|&(_, s)| s).collect();
        outs.into_iter().map(|s| self.bdd(m, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn cone_matches_simulation() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.add_latch("q", false);
        let x = n.add_gate("x", GateKind::Xor, vec![a, q]);
        let f = n.add_gate("f", GateKind::Nand, vec![x, b]);
        n.set_latch_next(q, f);
        n.add_output("f", f);

        let mut m = Manager::new();
        let mut ext = ConeExtractor::with_default_layout(&n, &mut m);
        let fb = ext.bdd(&mut m, f);
        // Truth table check: vars are [a, b, q].
        for bits in 0u32..8 {
            let assignment: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = !((assignment[0] ^ assignment[2]) && assignment[1]);
            assert_eq!(m.eval(fb, &assignment), expect);
        }
    }

    #[test]
    fn cache_shares_subcones() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let shared = n.add_gate("shared", GateKind::And, vec![a, b]);
        let f = n.add_gate("f", GateKind::Not, vec![shared]);
        let g = n.add_gate("g", GateKind::Buf, vec![shared]);
        n.add_output("f", f);
        n.add_output("g", g);
        let mut m = Manager::new();
        let mut ext = ConeExtractor::with_default_layout(&n, &mut m);
        let fb = ext.bdd(&mut m, f);
        let gb = ext.bdd(&mut m, g);
        let nfb = m.not(fb);
        assert_eq!(nfb, gb);
    }

    #[test]
    fn next_state_and_output_bdds() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_latch("q", false);
        let d = n.add_gate("d", GateKind::Xor, vec![a, q]);
        n.set_latch_next(q, d);
        n.add_output("o", q);
        let mut m = Manager::new();
        let mut ext = ConeExtractor::with_default_layout(&n, &mut m);
        let ns = ext.next_state_bdds(&mut m);
        let os = ext.output_bdds(&mut m);
        assert_eq!(ns.len(), 1);
        assert_eq!(os.len(), 1);
        let va = m.var(VarId(0));
        let vq = m.var(VarId(1));
        let expect = m.xor(va, vq);
        assert_eq!(ns[0], expect);
        assert_eq!(os[0], vq);
    }

    /// Ripple-carry-style function with deliberately scrambled input
    /// declaration order: `a0..a3` declared first, then `b0..b3` —
    /// declaration order gives the worst-case non-interleaved BDD, the
    /// DFS order recovers the interleaved one.
    fn scrambled_adder_carry() -> Netlist {
        let mut n = Netlist::new("carry4");
        let a: Vec<SignalId> = (0..4).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<SignalId> = (0..4).map(|i| n.add_input(format!("b{i}"))).collect();
        let mut carry = n.add_const("zero", false);
        for i in 0..4 {
            let ab = n.add_gate(format!("ab{i}"), GateKind::And, vec![a[i], b[i]]);
            let x = n.add_gate(format!("x{i}"), GateKind::Xor, vec![a[i], b[i]]);
            let xc = n.add_gate(format!("xc{i}"), GateKind::And, vec![x, carry]);
            carry = n.add_gate(format!("c{i}"), GateKind::Or, vec![ab, xc]);
        }
        n.add_output("cout", carry);
        n
    }

    #[test]
    fn dfs_order_interleaves_operands() {
        let n = scrambled_adder_carry();
        let order = dfs_leaf_order(&n);
        let names: Vec<&str> = order.iter().map(|&s| n.signal_name(s)).collect();
        // DFS from the carry chain visits a_i and b_i together (the root
        // is the MSB stage, so the high bits come first).
        assert_eq!(names[0], "a3");
        assert_eq!(names[1], "b3");
        let pos = |x: &str| names.iter().position(|&n| n == x).unwrap();
        for i in 0..4 {
            assert_eq!(
                pos(&format!("b{i}")).abs_diff(pos(&format!("a{i}"))),
                1,
                "operand bits {i} must be adjacent"
            );
        }
    }

    #[test]
    fn dfs_layout_shrinks_cone_bdds() {
        let n = scrambled_adder_carry();
        let cout = n.outputs()[0].1;
        let mut m1 = Manager::new();
        let mut default_ext = ConeExtractor::with_default_layout(&n, &mut m1);
        let f_default = default_ext.bdd(&mut m1, cout);
        let mut m2 = Manager::new();
        let mut dfs_ext = ConeExtractor::with_dfs_layout(&n, &mut m2);
        let f_dfs = dfs_ext.bdd(&mut m2, cout);
        assert!(
            m2.size(f_dfs) < m1.size(f_default),
            "DFS order {} must beat declaration order {}",
            m2.size(f_dfs),
            m1.size(f_default)
        );
    }

    #[test]
    fn dfs_order_covers_unreached_leaves() {
        let mut n = Netlist::new("t");
        let _unused = n.add_input("unused");
        let a = n.add_input("a");
        let g = n.add_gate("g", GateKind::Buf, vec![a]);
        n.add_output("o", g);
        let order = dfs_leaf_order(&n);
        assert_eq!(order.len(), 2, "every leaf appears exactly once");
    }

    #[test]
    #[should_panic(expected = "no BDD variable")]
    fn missing_leaf_variable_panics() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let f = n.add_gate("f", GateKind::Buf, vec![a]);
        n.add_output("f", f);
        let mut m = Manager::new();
        let mut ext = ConeExtractor::new(&n, HashMap::new());
        ext.bdd(&mut m, f);
    }
}
