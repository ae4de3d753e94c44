//! Exploration of decomposition choices (§3.5.2).
//!
//! The characteristic function `Bi(c1, c2)` computed by
//! [`crate::or_dec::Choices`] / [`crate::xor_dec::Choices`] encodes *every*
//! feasible pair of supports for `g1` and `g2`: decision variable
//! `c1_i = 1` means variable `i` is in `supp(g1)`, and likewise `c2` for
//! `g2`. This module restricts that (potentially astronomically large) set
//! symbolically:
//!
//! - weight functions `w_k(c)` select supports of an exact size,
//! - the relation `K(c, e)` ties assignments to integer-encoded sizes, so
//!   `Bi_k(e1, e2) = ∃c1 c2 [Bi · K(c1,e1) · K(c2,e2)]` lists all feasible
//!   size pairs,
//! - a symbolic dominance purge drops pairs improved upon component-wise,
//! - balanced selection minimizes `max(k1, k2)` (then the total, then the
//!   imbalance), "favoring their disjoint selection".

use symbi_bdd::combin;
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// A chosen variable partition, in the caller's variable ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportPair {
    /// Support of `g1`.
    pub g1_vars: Vec<VarId>,
    /// Support of `g2`.
    pub g2_vars: Vec<VarId>,
}

impl SupportPair {
    /// Variables shared by both supports.
    pub fn shared(&self) -> Vec<VarId> {
        self.g1_vars.iter().copied().filter(|v| self.g2_vars.contains(v)).collect()
    }

    /// `(|x1|, |x2|)`.
    pub fn sizes(&self) -> (usize, usize) {
        (self.g1_vars.len(), self.g2_vars.len())
    }
}

/// The symbolic set of feasible decompositions, owned together with the
/// internal manager the `Bi` BDD lives in.
///
/// Constructed by [`crate::or_dec::Choices::compute`] and
/// [`crate::xor_dec::Choices::compute`]; this type provides the common
/// queries.
#[derive(Debug)]
pub struct ChoiceSet {
    pub(crate) mgr: Manager,
    pub(crate) bi: NodeId,
    pub(crate) c1: Vec<VarId>,
    pub(crate) c2: Vec<VarId>,
    /// Caller variable ids; position `i` corresponds to `c1[i]`/`c2[i]`.
    pub(crate) ext_vars: Vec<VarId>,
}

impl ChoiceSet {
    /// Number of function variables.
    pub fn num_vars(&self) -> usize {
        self.ext_vars.len()
    }

    /// Is any decomposition (including the trivial full-support ones)
    /// feasible?
    pub fn is_feasible(&self) -> bool {
        !self.bi.is_false()
    }

    /// Size (internal nodes) of the `Bi` BDD — the "BDD size" column of
    /// the paper's multiplexer profile.
    pub fn bi_size(&self) -> usize {
        self.mgr.size(self.bi)
    }

    /// Is some *non-trivial* decomposition feasible, i.e. one where both
    /// supports are strictly smaller than the full support?
    pub fn has_nontrivial(&mut self) -> bool {
        let n = self.num_vars();
        if n == 0 {
            return false;
        }
        let w1 = combin::weight_at_most(&mut self.mgr, &self.c1, n - 1);
        let w2 = combin::weight_at_most(&mut self.mgr, &self.c2, n - 1);
        let t = self.mgr.and(self.bi, w1);
        let t = self.mgr.and(t, w2);
        !t.is_false()
    }

    /// All feasible support-size pairs `(k1, k2)`, computed through the
    /// symbolic `Bi_k` construction, with dominated pairs purged when
    /// `purge_dominated` is set. Sorted ascending.
    pub fn feasible_pairs(&mut self, purge_dominated: bool) -> Vec<(usize, usize)> {
        self.try_feasible_pairs(purge_dominated, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Best balanced non-trivial size pair: minimal `max(k1,k2)`, then
    /// minimal `k1+k2`, then minimal imbalance. `None` when only trivial
    /// (full-support) decompositions exist.
    pub fn best_balanced(&mut self) -> Option<(usize, usize)> {
        self.try_best_balanced(&ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Number of feasible decompositions with exactly the given support
    /// sizes — the "No. of Choices" column of the multiplexer profile.
    /// Computed as a satisfying-assignment count over the `2n` decision
    /// variables (in `f64`, since the count reaches `1.8·10^18` for the
    /// paper's widest multiplexer).
    pub fn count_choices(&mut self, k1: usize, k2: usize) -> f64 {
        let w1 = combin::weight_exactly(&mut self.mgr, &self.c1, k1);
        let w2 = combin::weight_exactly(&mut self.mgr, &self.c2, k2);
        let t = self.mgr.and(self.bi, w1);
        let t = self.mgr.and(t, w2);
        // `Bi` and the weights depend only on the 2n decision variables.
        self.mgr.sat_fraction(t) * 2f64.powi(2 * self.num_vars() as i32)
    }

    /// Picks one feasible partition with the given support sizes, returned
    /// in the caller's variable ids. `None` if the sizes are infeasible.
    pub fn pick_partition(&mut self, k1: usize, k2: usize) -> Option<SupportPair> {
        self.try_pick_partition(k1, k2, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Convenience: best balanced sizes, then one partition of that shape.
    pub fn pick_balanced_partition(&mut self) -> Option<SupportPair> {
        self.try_pick_balanced_partition(&ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Timing-driven selection (§3.5.3: "partition that best improves
    /// timing … is selected"): among up to `sample` partitions of the best
    /// balanced shape, picks the one minimizing the estimated output
    /// arrival under `arrival` times per (caller) variable — each half is
    /// charged its latest input plus a `log2`-balanced-tree depth, and
    /// late-arriving inputs are pushed toward the smaller half.
    ///
    /// Variables absent from `arrival` count as time 0.
    pub fn pick_timing_partition(
        &mut self,
        arrival: &std::collections::HashMap<VarId, f64>,
        sample: usize,
    ) -> Option<SupportPair> {
        let (k1, k2) = self.best_balanced()?;
        let candidates = self.all_partitions(k1, k2, sample.max(1));
        let side_delay = |vars: &[VarId]| -> f64 {
            let latest = vars
                .iter()
                .map(|v| arrival.get(v).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            let depth = if vars.is_empty() { 0.0 } else { (vars.len() as f64).log2().ceil() };
            latest + depth
        };
        candidates.into_iter().min_by(|a, b| {
            let da = side_delay(&a.g1_vars).max(side_delay(&a.g2_vars));
            let db = side_delay(&b.g1_vars).max(side_delay(&b.g2_vars));
            da.total_cmp(&db)
        })
    }

    /// All partitions with the given sizes (use only when the count is
    /// known small).
    pub fn all_partitions(&mut self, k1: usize, k2: usize, limit: usize) -> Vec<SupportPair> {
        let w1 = combin::weight_exactly(&mut self.mgr, &self.c1, k1);
        let w2 = combin::weight_exactly(&mut self.mgr, &self.c2, k2);
        let t = self.mgr.and(self.bi, w1);
        let mut constrained = self.mgr.and(t, w2);
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(cube) = self.mgr.one_sat(constrained) else { break };
            let on = |vars: &[VarId]| -> Vec<VarId> {
                vars.iter()
                    .enumerate()
                    .filter(|&(_, &c)| cube.iter().any(|&(v, phase)| v == c && phase))
                    .map(|(i, _)| self.ext_vars[i])
                    .collect()
            };
            out.push(SupportPair { g1_vars: on(&self.c1), g2_vars: on(&self.c2) });
            let minterm = self.mgr.minterm(&cube);
            constrained = self.mgr.diff(constrained, minterm);
        }
        out
    }

    // --- Governed forms -------------------------------------------------
    //
    // The query pipeline of the methods above, with the heavy conjunction
    // / quantification steps routed through the governor; each plain
    // method runs its form here under an unlimited governor. The `combin`
    // weight builders are polynomial-size and stay unmetered, but a
    // checkpoint after each keeps deadline and cancellation live between
    // probes.

    /// Budgeted [`ChoiceSet::feasible_pairs`].
    pub fn try_feasible_pairs(
        &mut self,
        purge_dominated: bool,
        gov: &ResourceGovernor,
    ) -> Result<Vec<(usize, usize)>, ResourceExhausted> {
        let n = self.num_vars();
        if !self.is_feasible() {
            return Ok(Vec::new());
        }
        if n == 0 {
            return Ok(vec![(0, 0)]);
        }
        let width = combin::bits_for(n);
        let e1 = self.fresh_vars(width);
        let e2 = self.fresh_vars(width);
        // Bi_k(e1, e2) = ∃c1 c2 [Bi · K(c1,e1) · K(c2,e2)].
        let k1 = combin::weight_relation(&mut self.mgr, &self.c1, &e1);
        gov.checkpoint(self.mgr.stats().nodes)?;
        let k2 = combin::weight_relation(&mut self.mgr, &self.c2, &e2);
        gov.checkpoint(self.mgr.stats().nodes)?;
        let mut cs: Vec<VarId> = self.c1.clone();
        cs.extend(self.c2.iter().copied());
        let cube = self.mgr.cube(&cs);
        let t = self.mgr.try_and(self.bi, k1, gov)?;
        let t2 = self.mgr.try_and(t, k2, gov)?;
        let mut bik = self.mgr.try_exists_cube(t2, cube, gov)?;

        if purge_dominated {
            bik = self.try_purge_dominated(bik, &e1, &e2, gov)?;
        }

        // Enumerate by membership test per (k1, k2): n² cheap cofactor
        // probes, robust against don't-care bits in cube enumeration.
        let mut out = Vec::new();
        for s1 in 0..=n {
            let enc1 = combin::encode_int(&mut self.mgr, &e1, s1);
            let with1 = self.mgr.try_and(bik, enc1, gov)?;
            if with1.is_false() {
                continue;
            }
            for s2 in 0..=n {
                let enc2 = combin::encode_int(&mut self.mgr, &e2, s2);
                let both = self.mgr.try_and(with1, enc2, gov)?;
                if !both.is_false() {
                    out.push((s1, s2));
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Subtracts pairs dominated by a component-wise smaller feasible pair
    /// (the `dom(ε, ε′)` purge of §3.5.2).
    fn try_purge_dominated(
        &mut self,
        bik: NodeId,
        e1: &[VarId],
        e2: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let width = e1.len();
        let p1 = self.fresh_vars(width);
        let p2 = self.fresh_vars(width);
        // Bi_k over the primed variables.
        let rename: Vec<(VarId, VarId)> = e1
            .iter()
            .copied()
            .zip(p1.iter().copied())
            .chain(e2.iter().copied().zip(p2.iter().copied()))
            .collect();
        let bik_primed = self.mgr.try_rename(bik, &rename, gov)?;
        // dom(ε, ε′): ε′ dominates ε.
        let ge1 = combin::gte(&mut self.mgr, e1, &p1);
        let ge2 = combin::gte(&mut self.mgr, e2, &p2);
        let eq1 = combin::equ(&mut self.mgr, e1, &p1);
        let eq2 = combin::equ(&mut self.mgr, e2, &p2);
        gov.checkpoint(self.mgr.stats().nodes)?;
        let both_eq = self.mgr.try_and(eq1, eq2, gov)?;
        let strict = self.mgr.try_not(both_eq, gov)?;
        let ge = self.mgr.try_and(ge1, ge2, gov)?;
        let dom = self.mgr.try_and(ge, strict, gov)?;
        // dominated(ε) = ∃ε′ [Bi_k(ε′) · dom(ε, ε′)].
        let witness = self.mgr.try_and(bik_primed, dom, gov)?;
        let mut primed: Vec<VarId> = p1;
        primed.extend(p2);
        let primed_cube = self.mgr.cube(&primed);
        let dominated = self.mgr.try_exists_cube(witness, primed_cube, gov)?;
        self.mgr.try_diff(bik, dominated, gov)
    }

    /// Budgeted [`ChoiceSet::best_balanced`].
    pub fn try_best_balanced(
        &mut self,
        gov: &ResourceGovernor,
    ) -> Result<Option<(usize, usize)>, ResourceExhausted> {
        let n = self.num_vars();
        Ok(self
            .try_feasible_pairs(true, gov)?
            .into_iter()
            .filter(|&(a, b)| a.max(b) < n)
            .min_by_key(|&(a, b)| (a.max(b), a + b, a.abs_diff(b))))
    }

    /// Budgeted [`ChoiceSet::pick_partition`].
    pub fn try_pick_partition(
        &mut self,
        k1: usize,
        k2: usize,
        gov: &ResourceGovernor,
    ) -> Result<Option<SupportPair>, ResourceExhausted> {
        let w1 = combin::weight_exactly(&mut self.mgr, &self.c1, k1);
        let w2 = combin::weight_exactly(&mut self.mgr, &self.c2, k2);
        gov.checkpoint(self.mgr.stats().nodes)?;
        let t = self.mgr.try_and(self.bi, w1, gov)?;
        let constrained = self.mgr.try_and(t, w2, gov)?;
        let Some(cube) = self.mgr.one_sat(constrained) else { return Ok(None) };
        let on = |vars: &[VarId]| -> Vec<VarId> {
            // Weight functions pin every decision variable, so the cube
            // mentions each c-variable explicitly.
            vars.iter()
                .enumerate()
                .filter(|&(_, &c)| cube.iter().any(|&(v, phase)| v == c && phase))
                .map(|(i, _)| self.ext_vars[i])
                .collect()
        };
        Ok(Some(SupportPair { g1_vars: on(&self.c1), g2_vars: on(&self.c2) }))
    }

    /// Budgeted [`ChoiceSet::pick_balanced_partition`].
    pub fn try_pick_balanced_partition(
        &mut self,
        gov: &ResourceGovernor,
    ) -> Result<Option<SupportPair>, ResourceExhausted> {
        let Some((k1, k2)) = self.try_best_balanced(gov)? else { return Ok(None) };
        self.try_pick_partition(k1, k2, gov)
    }

    fn fresh_vars(&mut self, n: usize) -> Vec<VarId> {
        (0..n)
            .map(|_| {
                let v = VarId(self.mgr.num_vars() as u32);
                self.mgr.new_var();
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{or_dec, Interval};

    /// f = ab + cd: the textbook OR-decomposable function.
    fn ab_plus_cd() -> (Manager, Interval, Vec<VarId>) {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        (m, Interval::exact(f), (0..4u32).map(VarId).collect())
    }

    #[test]
    fn feasible_pairs_and_balance() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        assert!(ch.is_feasible());
        assert!(ch.has_nontrivial());
        let best = ch.best_balanced().expect("ab+cd splits (2,2)");
        assert_eq!(best, (2, 2));
        let pairs = ch.feasible_pairs(true);
        assert!(pairs.contains(&(2, 2)));
        // Dominance: (2,3) cannot survive next to (2,2).
        assert!(!pairs.contains(&(2, 3)));
        assert!(!pairs.contains(&(3, 2)));
    }

    #[test]
    fn purge_keeps_incomparable_pairs() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        let purged = ch.feasible_pairs(true);
        let raw = ch.feasible_pairs(false);
        assert!(purged.len() <= raw.len());
        for p in &purged {
            assert!(raw.contains(p));
            // Nothing in the purged set dominates anything else in it.
            for q in &purged {
                if p != q {
                    assert!(
                        !(p.0 >= q.0 && p.1 >= q.1),
                        "{p:?} is dominated by {q:?} but survived"
                    );
                }
            }
        }
    }

    #[test]
    fn count_choices_ab_cd() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        // At (2,2) the splits are {ab|cd} and {cd|ab}: exactly 2 choices.
        let count = ch.count_choices(2, 2);
        assert!((count - 2.0).abs() < 1e-6, "got {count}");
    }

    #[test]
    fn pick_partition_returns_disjoint_split() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        let p = ch.pick_balanced_partition().expect("feasible");
        assert_eq!(p.sizes(), (2, 2));
        assert!(p.shared().is_empty());
        let mut union: Vec<VarId> = p.g1_vars.clone();
        union.extend(p.g2_vars.iter().copied());
        union.sort_unstable();
        assert_eq!(union, vars);
        // The split must be {a,b} vs {c,d} in one of the two orders.
        let g1_is_ab = p.g1_vars == vec![VarId(0), VarId(1)];
        let g1_is_cd = p.g1_vars == vec![VarId(2), VarId(3)];
        assert!(g1_is_ab || g1_is_cd);
    }

    #[test]
    fn all_partitions_enumerates_both_orders() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        let all = ch.all_partitions(2, 2, 10);
        assert_eq!(all.len(), 2);
        assert_ne!(all[0], all[1]);
    }

    #[test]
    fn timing_partition_isolates_late_input() {
        // f = abc + de... use ab+cd where c is very late: the partition
        // putting the late input in the half with the other late-free
        // inputs is chosen so the critical path stays short. Here both
        // (2,2) splits are {ab|cd} and {cd|ab}; timing cannot change the
        // sets, so instead check a 5-var case with distinct options:
        // f = ab + cd + ae has several balanced partitions.
        let mut m = Manager::new();
        let vs = m.new_vars(5);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let ae = m.and(vs[0], vs[4]);
        let t = m.or(ab, cd);
        let f = m.or(t, ae);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..5u32).map(VarId).collect();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        // Make variable 3 (d) very late: the chosen partition must place
        // d in the side with the smaller estimated tree depth — and in
        // any case the result must be a feasible balanced partition.
        let arrival: std::collections::HashMap<VarId, f64> =
            [(VarId(3), 10.0)].into_iter().collect();
        let p = ch.pick_timing_partition(&arrival, 16).expect("decomposable");
        let best = ch.best_balanced().expect("feasible");
        assert_eq!((p.g1_vars.len(), p.g2_vars.len()), best);
        // d's side drives the critical path: the estimate of that side
        // must be 10 + log2(side size); the chooser must have preferred
        // a minimal side for d among the sampled options.
        let d_side = if p.g1_vars.contains(&VarId(3)) { &p.g1_vars } else { &p.g2_vars };
        assert!(d_side.contains(&VarId(3)));
        for q in ch.all_partitions(best.0, best.1, 16) {
            let q_side =
                if q.g1_vars.contains(&VarId(3)) { &q.g1_vars } else { &q.g2_vars };
            assert!(
                d_side.len() <= q_side.len(),
                "chosen side {d_side:?} not minimal vs {q_side:?}"
            );
        }
    }

    #[test]
    fn infeasible_sizes_yield_none() {
        let (mut m, iv, vars) = ab_plus_cd();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        assert!(ch.pick_partition(1, 1).is_none());
        assert!((ch.count_choices(1, 1) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn xor_function_is_not_or_decomposable_nontrivially() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        let iv = Interval::exact(f);
        let vars: Vec<VarId> = (0..3u32).map(VarId).collect();
        let mut ch = or_dec::Choices::compute(&mut m, &iv, &vars);
        assert!(ch.is_feasible(), "trivial full-support split always exists");
        assert!(ch.best_balanced().is_none(), "parity has no non-trivial OR split");
    }
}
