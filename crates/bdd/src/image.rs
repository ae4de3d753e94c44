//! Clustered image computation over partitioned transition relations.
//!
//! The classic symbolic image `Img(F) = ∃V. F(V) ∧ ∏ᵢ Tᵢ(V, V')`
//! dominates forward reachability, and the order in which the per-bit
//! relations `Tᵢ = v'ᵢ ⊙ δᵢ` are conjoined — and the point at which
//! each variable of `V` is quantified — decides whether the
//! intermediate products stay small or blow up. This module packages
//! the three standard levers (Ranjan/Brayton-style machinery):
//!
//! 1. **Clustering** — neighbouring conjuncts are greedily conjoined
//!    into clusters of at most `cluster_limit` nodes, so one
//!    `and_exists` pass handles a whole cluster instead of one bit.
//!    Each merge runs under a forked step sub-budget: on governor
//!    pressure the merge is abandoned and the pieces stay separate, so
//!    the engine degrades smoothly toward the per-bit granularity.
//! 2. **Ordering + scheduling** — clusters are ordered by an
//!    IWLS95-style benefit score (variables quantifiable immediately
//!    minus variables newly introduced, normalized by support width),
//!    and every variable is quantified right after its last-use
//!    cluster (early quantification).
//! 3. **Frontier simplification** — each cluster is replaced by its
//!    generalized cofactor [`Manager::constrain`]`(Tᵢ, F)` when that
//!    shrinks it (sound because `F · ∏Tᵢ↓F = F · ∏Tᵢ` pointwise), and
//!    between iterations the frontier itself can be minimized against
//!    the previously reached set with [`Manager::restrict`].
//!
//! Every decision is a pure function of canonical per-partition data
//! (BDD sizes and sorted supports in a private manager), so an engine
//! built from the same inputs behaves identically regardless of how
//! many worker threads surround it — the determinism contract of the
//! parallel flows. All heavy lifting goes through the governed `try_*`
//! operations, so a tripped governor unwinds mid-image.

use crate::governor::{FaultSite, ResourceExhausted, ResourceGovernor};
use crate::{Manager, NodeId, VarId};
use std::collections::{HashMap, HashSet};

/// Default node-count ceiling for one transition-relation cluster.
/// Conjuncts stop being merged into a cluster once it would exceed
/// this many BDD nodes — small enough that a single `and_exists` pass
/// stays cheap, large enough to amortize quantification across bits.
pub const DEFAULT_CLUSTER_LIMIT: usize = 128;

/// Recursion-step sub-budget for one speculative cluster merge. A
/// merge that cannot finish inside this many steps is abandoned (the
/// conjuncts stay in separate clusters); the steps spent still charge
/// the surrounding governor, so a global budget keeps counting.
const MERGE_STEP_BUDGET: u64 = 1 << 16;

/// Consecutive win-less constrain passes before the engine stops
/// attempting cluster constraining for the rest of the fixpoint. The
/// attempt itself costs a traversal of every cluster per image, so a
/// frontier shape that never shrinks anything must not keep paying it.
const CONSTRAIN_STRIKE_LIMIT: u8 = 2;

/// Default for [`ImageEngine::with_constrain_min_cluster`]: clusters
/// below this node count are never worth constraining. One
/// `constrain(c, F)` traversal costs on the order of `|c| · |F|`
/// cache-missed recursions, while the `and_exists` it would speed up
/// is already cheap for small `c` — empirically, at the default
/// 128-node cluster cap the traversals alone cost more than the whole
/// per-bit image. The pass therefore stays dormant until clusters are
/// large enough (raised `cluster_limit`, or monolithic relations as in
/// SEC) for conjunction cost to dominate the attempt.
const CONSTRAIN_MIN_CLUSTER: usize = 512;

/// A constrained cluster is kept only when it is at most half the
/// original's node count; marginal shrinks do not repay the per-image
/// constrain traversals.
const CONSTRAIN_KEEP_DIVISOR: usize = 2;

/// Counters and shape statistics of one [`ImageEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Number of transition-relation clusters.
    pub clusters: usize,
    /// Nodes of the largest cluster BDD at build time.
    pub max_cluster_nodes: usize,
    /// Total nodes across all cluster BDDs at build time.
    pub total_cluster_nodes: usize,
    /// Clusters replaced by a substantially smaller (≤ 1/2 node
    /// count) `constrain(cluster, frontier)` across all
    /// [`ImageEngine::try_image`] calls.
    pub constrain_wins: u64,
    /// Frontiers replaced by a strictly smaller `restrict(frontier,
    /// ¬reached)` across all
    /// [`ImageEngine::try_simplified_frontier`] calls.
    pub restrict_wins: u64,
    /// Cluster merges whose first sub-budget tripped and were retried
    /// once at half budget (the retry rung: the computed table is warm,
    /// so a transient trip often completes on the second, cheaper try).
    pub merge_retries: u64,
}

/// A reusable image-computation engine for one transition relation.
///
/// Build it once per fixpoint with [`ImageEngine::try_clustered`] (or
/// [`ImageEngine::per_bit`] for the legacy one-conjunct-at-a-time
/// schedule), then call [`ImageEngine::try_image`] every iteration.
/// The returned image ranges over the *next-state* variables; renaming
/// them back to present-state is the caller's business (the
/// substitution is caller-specific).
#[derive(Debug)]
pub struct ImageEngine {
    /// Ordered transition-relation clusters.
    clusters: Vec<NodeId>,
    /// `base_schedule[0]`: vars in no cluster, quantified straight out
    /// of the frontier; `base_schedule[i + 1]`: vars whose last use is
    /// cluster `i`, quantified inside that cluster's `and_exists`.
    base_schedule: Vec<Vec<VarId>>,
    /// Whether constrain/restrict frontier simplification is active
    /// (clustered mode) or off (the legacy per-bit schedule).
    simplify: bool,
    /// Consecutive image calls whose constrain pass shrank nothing;
    /// saturates at [`CONSTRAIN_STRIKE_LIMIT`], which retires the pass.
    /// Pure per-partition history, so determinism across `jobs` holds.
    constrain_strikes: u8,
    /// Node-count floor below which a cluster is never constrained
    /// (see [`CONSTRAIN_MIN_CLUSTER`]).
    constrain_min_cluster: usize,
    stats: ImageStats,
}

impl ImageEngine {
    /// The legacy engine: conjuncts stay unmerged and in their given
    /// order, with plain last-use quantification — exactly the per-bit
    /// schedule the clustered engine replaces. No frontier
    /// simplification. Useful as the degraded rung of the ladder and
    /// as the baseline arm of benchmarks.
    pub fn per_bit(m: &Manager, conjuncts: &[NodeId], quantify: &[VarId]) -> Self {
        ImageEngine::from_clusters(m, conjuncts.to_vec(), quantify, false)
    }

    /// Builds a clustered engine: greedy merging up to `cluster_limit`
    /// nodes per cluster, IWLS95-style ordering, early-quantification
    /// schedule, and frontier simplification enabled.
    ///
    /// Cluster merges run under forked step sub-budgets, so step or
    /// node pressure degrades the clustering (down to per-bit
    /// granularity) instead of failing the build; only a deadline or
    /// cancellation — where continuing is pointless — propagates as an
    /// error.
    pub fn try_clustered(
        m: &mut Manager,
        conjuncts: &[NodeId],
        quantify: &[VarId],
        cluster_limit: usize,
        gov: &ResourceGovernor,
    ) -> Result<Self, ResourceExhausted> {
        let limit = cluster_limit.max(1);
        let mut clusters: Vec<NodeId> = Vec::new();
        let mut current: Option<NodeId> = None;
        let mut merge_retries: u64 = 0;
        for &c in conjuncts {
            let Some(acc) = current else {
                current = Some(c);
                continue;
            };
            if m.size(acc) >= limit {
                clusters.push(acc);
                current = Some(c);
                continue;
            }
            let merge_gov = gov.fork_steps(MERGE_STEP_BUDGET);
            let attempt = gov
                .fault_site(FaultSite::ImageCluster)
                .and_then(|()| m.try_and(acc, c, &merge_gov));
            // Retry rung: a step trip on the merge sub-budget is
            // transient — the computed table is warm from the first
            // attempt — so retry once at half budget before keeping
            // the pieces apart.
            let attempt = match attempt {
                Err(ResourceExhausted::Steps) => {
                    merge_retries += 1;
                    let retry_gov = gov.fork_steps(MERGE_STEP_BUDGET / 2);
                    m.try_and(acc, c, &retry_gov)
                }
                other => other,
            };
            match attempt {
                Ok(merged) if m.size(merged) <= limit => current = Some(merged),
                // Too big, or the merge sub-budget (or a surrounding
                // step/node cap) tripped: keep the pieces separate.
                Ok(_) | Err(ResourceExhausted::Steps) | Err(ResourceExhausted::Nodes) => {
                    clusters.push(acc);
                    current = Some(c);
                }
                Err(e @ (ResourceExhausted::Deadline | ResourceExhausted::Cancelled)) => {
                    return Err(e)
                }
            }
        }
        clusters.extend(current);
        let ordered = order_clusters(m, &clusters, quantify);
        let mut engine = ImageEngine::from_clusters(m, ordered, quantify, true);
        engine.stats.merge_retries = merge_retries;
        Ok(engine)
    }

    fn from_clusters(
        m: &Manager,
        clusters: Vec<NodeId>,
        quantify: &[VarId],
        simplify: bool,
    ) -> Self {
        let sizes: Vec<usize> = clusters.iter().map(|&c| m.size(c)).collect();
        let stats = ImageStats {
            clusters: clusters.len(),
            max_cluster_nodes: sizes.iter().copied().max().unwrap_or(0),
            total_cluster_nodes: sizes.iter().sum(),
            ..ImageStats::default()
        };
        let base_schedule = last_use_schedule(m, &clusters, quantify);
        ImageEngine {
            clusters,
            base_schedule,
            simplify,
            constrain_strikes: 0,
            constrain_min_cluster: CONSTRAIN_MIN_CLUSTER,
            stats,
        }
    }

    /// Overrides the node-count floor below which clusters are never
    /// constrained by the frontier (default: dormant until clusters
    /// reach several hundred nodes, where conjunction cost starts to
    /// dominate the constrain traversal). Mainly for large-cluster
    /// flows and for tests that want the pass exercised on small BDDs.
    pub fn with_constrain_min_cluster(mut self, nodes: usize) -> Self {
        self.constrain_min_cluster = nodes.max(1);
        self
    }

    /// One image step: `∃ quantify. frontier ∧ ∏ clusters`, over the
    /// engine's schedule. The result ranges over the non-quantified
    /// (next-state) variables.
    ///
    /// In clustered mode each cluster is first constrained by the
    /// frontier and the generalized cofactor kept when it is both
    /// substantially smaller and **support-monotone** (no new
    /// variables): [`Manager::constrain`] can pull frontier variables
    /// into a cluster, and a support gain would invalidate the cached
    /// last-use schedule. Losing variables is harmless — quantifying a
    /// variable a cluster no longer depends on is the identity — so
    /// support-monotone wins reuse the schedule as-is.
    pub fn try_image(
        &mut self,
        m: &mut Manager,
        frontier: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let mut clusters = self.clusters.clone();
        if self.simplify
            && self.constrain_strikes < CONSTRAIN_STRIKE_LIMIT
            && !frontier.is_true()
            && !frontier.is_false()
        {
            let mut attempts: u64 = 0;
            let mut wins: u64 = 0;
            for c in clusters.iter_mut() {
                if m.size(*c) < self.constrain_min_cluster {
                    continue;
                }
                attempts += 1;
                gov.fault_site(FaultSite::ImageConstrain)?;
                let cand = m.try_constrain(*c, frontier, gov)?;
                if cand != *c
                    && m.size(cand) * CONSTRAIN_KEEP_DIVISOR <= m.size(*c)
                    && sorted_subset(&m.support(cand), &m.support(*c))
                {
                    *c = cand;
                    wins += 1;
                    self.stats.constrain_wins += 1;
                }
            }
            // A pass pays for itself only when wins are broad, not one
            // lucky cluster out of hundreds: require ≥ 1/8 of attempts.
            if wins * 8 >= attempts && wins > 0 {
                self.constrain_strikes = 0;
            } else {
                self.constrain_strikes += 1;
            }
        }
        let schedule = &self.base_schedule;
        let mut product = m.try_exists(frontier, &schedule[0], gov)?;
        for (idx, &c) in clusters.iter().enumerate() {
            let cube = m.cube(&schedule[idx + 1]);
            product = m.try_and_exists(product, c, cube, gov)?;
        }
        Ok(product)
    }

    /// The next frontier to feed [`ImageEngine::try_image`]: any set
    /// `F` with `fresh ⊆ F ⊆ fresh ∪ prev_reach` yields the same
    /// fixpoint (states of `prev_reach` re-imaged early are reachable
    /// anyway), so in clustered mode this returns
    /// `restrict(fresh, ¬prev_reach)` when that BDD is strictly
    /// smaller — the restrict contract pins `F` to `fresh` outside
    /// `prev_reach` and lets it float only inside it. The per-bit
    /// engine returns `fresh` unchanged.
    ///
    /// Requires `fresh ∩ prev_reach = ∅` (pass the reached set from
    /// *before* the states of `fresh` were added): if `prev_reach`
    /// overlapped `fresh`, the float region would cover part of `fresh`
    /// and the returned set could silently drop frontier states.
    pub fn try_simplified_frontier(
        &mut self,
        m: &mut Manager,
        fresh: NodeId,
        prev_reach: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        if !self.simplify || prev_reach.is_false() || fresh.is_terminal() {
            return Ok(fresh);
        }
        debug_assert!(
            m.and(fresh, prev_reach).is_false(),
            "frontier simplification requires fresh ∩ prev_reach = ∅"
        );
        let care = m.try_not(prev_reach, gov)?;
        let cand = m.try_restrict(fresh, care, gov)?;
        if m.size(cand) < m.size(fresh) {
            self.stats.restrict_wins += 1;
            Ok(cand)
        } else {
            Ok(fresh)
        }
    }

    /// The cluster BDDs, for rooting across GC safe points.
    pub fn clusters(&self) -> &[NodeId] {
        &self.clusters
    }

    /// Node counts of the clusters (canonical build-time order).
    pub fn cluster_sizes(&self, m: &Manager) -> Vec<usize> {
        self.clusters.iter().map(|&c| m.size(c)).collect()
    }

    /// Shape statistics and simplification counters so far.
    pub fn stats(&self) -> ImageStats {
        self.stats
    }
}

/// IWLS95-style greedy ordering. At each step the remaining cluster
/// with the best benefit is appended, where benefit is
/// `(quantifiable now − introduced) / support width` compared as exact
/// integer cross-products; ties break toward the smaller original
/// index. "Quantifiable now" counts quantify-variables whose only
/// remaining occurrence is this cluster; "introduced" counts variables
/// the product has not seen yet (next-state variables, chiefly).
fn order_clusters(m: &Manager, clusters: &[NodeId], quantify: &[VarId]) -> Vec<NodeId> {
    if clusters.len() <= 1 {
        return clusters.to_vec();
    }
    let qset: HashSet<VarId> = quantify.iter().copied().collect();
    let supports: Vec<Vec<VarId>> = clusters.iter().map(|&c| m.support(c)).collect();
    let mut occ: HashMap<VarId, usize> = HashMap::new();
    for support in &supports {
        for &v in support {
            if qset.contains(&v) {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
    }
    // The product is assumed to start over the quantifiable variables
    // (the frontier); everything else a cluster mentions is introduced
    // the first time some chosen cluster pulls it in.
    let mut in_product: HashSet<VarId> = qset.clone();
    let mut remaining: Vec<usize> = (0..clusters.len()).collect();
    let mut ordered = Vec::with_capacity(clusters.len());
    while !remaining.is_empty() {
        let mut best_at = 0usize;
        let mut best_score: Option<(i64, i64)> = None; // (numerator, width)
        for (at, &idx) in remaining.iter().enumerate() {
            let support = &supports[idx];
            let quantifiable =
                support.iter().filter(|v| occ.get(v).copied() == Some(1)).count() as i64;
            let introduced =
                support.iter().filter(|v| !in_product.contains(v)).count() as i64;
            let width = (support.len() as i64).max(1);
            let score = (quantifiable - introduced, width);
            // score > best  ⇔  score.0 / score.1 > best.0 / best.1
            let better = match best_score {
                None => true,
                Some(best) => score.0 * best.1 > best.0 * score.1,
            };
            if better {
                best_score = Some(score);
                best_at = at;
            }
        }
        let idx = remaining.remove(best_at);
        for &v in &supports[idx] {
            in_product.insert(v);
            if let Some(n) = occ.get_mut(&v) {
                *n -= 1;
                if *n == 0 {
                    in_product.remove(&v);
                }
            }
        }
        ordered.push(clusters[idx]);
    }
    ordered
}

/// Early-quantification schedule: slot `0` holds the quantify-vars no
/// cluster mentions (eliminated straight from the frontier), slot
/// `i + 1` the vars whose last-use cluster is `i`.
fn last_use_schedule(
    m: &Manager,
    clusters: &[NodeId],
    quantify: &[VarId],
) -> Vec<Vec<VarId>> {
    let mut last_use: HashMap<VarId, usize> =
        quantify.iter().map(|&v| (v, 0)).collect();
    for (idx, &c) in clusters.iter().enumerate() {
        for v in m.support(c) {
            if let Some(slot) = last_use.get_mut(&v) {
                *slot = (*slot).max(idx + 1);
            }
        }
    }
    (0..=clusters.len())
        .map(|idx| quantify.iter().copied().filter(|v| last_use[v] == idx).collect())
        .collect()
}

/// Is sorted slice `a` a subset of sorted slice `b`? (Both come from
/// [`Manager::support`], which returns variables in order.)
fn sorted_subset(a: &[VarId], b: &[VarId]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.by_ref().any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic transition system: `k` state bits with
    /// structured next-state functions over present bits and `inputs`
    /// free inputs. Layout: present 0..k, next k..2k, inputs 2k.. —
    /// returns (conjuncts, quantify, next_vars).
    fn fixture(m: &mut Manager, k: usize, inputs: usize) -> (Vec<NodeId>, Vec<VarId>, Vec<VarId>) {
        let vars = m.new_vars(2 * k + inputs);
        let ps: Vec<NodeId> = vars[..k].to_vec();
        let ns: Vec<VarId> = (k..2 * k).map(|i| VarId(i as u32)).collect();
        let ins: Vec<NodeId> = vars[2 * k..].to_vec();
        let mut conjuncts = Vec::with_capacity(k);
        for i in 0..k {
            // Mix of neighbours and an input keeps supports overlapping.
            let a = ps[i];
            let b = ps[(i + 1) % k];
            let mut delta = match i % 3 {
                0 => m.xor(a, b),
                1 => m.and(a, b),
                _ => m.or(a, b),
            };
            if !ins.is_empty() {
                let x = ins[i % ins.len()];
                delta = m.xor(delta, x);
            }
            let nv = m.var(ns[i]);
            conjuncts.push(m.xnor(nv, delta));
        }
        let mut quantify: Vec<VarId> = (0..k).map(|i| VarId(i as u32)).collect();
        quantify.extend((2 * k..2 * k + inputs).map(|i| VarId(i as u32)));
        (conjuncts, quantify, ns)
    }

    /// The specification image: one monolithic relation, one
    /// `and_exists` with the full quantification cube.
    fn naive_image(
        m: &mut Manager,
        conjuncts: &[NodeId],
        quantify: &[VarId],
        frontier: NodeId,
    ) -> NodeId {
        let relation = m.and_many(conjuncts.iter().copied());
        let cube = m.cube(quantify);
        m.and_exists(frontier, relation, cube)
    }

    /// A grab-bag of frontiers: everything, single states, sub-cubes.
    fn frontiers(m: &mut Manager, k: usize) -> Vec<NodeId> {
        let mut out = vec![NodeId::TRUE];
        let all_zero: Vec<(VarId, bool)> =
            (0..k).map(|i| (VarId(i as u32), false)).collect();
        out.push(m.minterm(&all_zero));
        let alt: Vec<(VarId, bool)> =
            (0..k).map(|i| (VarId(i as u32), i % 2 == 0)).collect();
        out.push(m.minterm(&alt));
        let v0 = m.var(VarId(0));
        let v1 = m.var(VarId(1));
        out.push(m.or(v0, v1));
        out.push(m.xor(v0, v1));
        out
    }

    #[test]
    fn clustered_image_matches_naive_image() {
        let gov = ResourceGovernor::unlimited();
        for (k, inputs, limit) in [(4, 0, 8), (5, 2, 64), (6, 3, 1), (6, 3, 10_000)] {
            let mut m = Manager::new();
            let (conjuncts, quantify, _) = fixture(&mut m, k, inputs);
            let mut engine =
                ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, limit, &gov)
                    .expect("unlimited build");
            for f in frontiers(&mut m, k) {
                let img = engine.try_image(&mut m, f, &gov).expect("unlimited image");
                let spec = naive_image(&mut m, &conjuncts, &quantify, f);
                assert_eq!(img, spec, "k={k} inputs={inputs} limit={limit} frontier={f}");
            }
        }
    }

    #[test]
    fn per_bit_image_matches_naive_image() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 5, 2);
        let mut engine = ImageEngine::per_bit(&m, &conjuncts, &quantify);
        for f in frontiers(&mut m, 5) {
            let img = engine.try_image(&mut m, f, &gov).expect("unlimited image");
            let spec = naive_image(&mut m, &conjuncts, &quantify, f);
            assert_eq!(img, spec);
        }
        assert_eq!(engine.stats().clusters, 5, "per-bit engine must not merge");
        assert_eq!(engine.stats().constrain_wins, 0);
    }

    #[test]
    fn constrain_pass_wins_and_stays_exact_when_enabled() {
        // The default floor keeps the pass dormant on BDDs this small,
        // so lower it to 1 to force the generalized-cofactor path and
        // check it never changes the computed image.
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 6, 3);
        let mut engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
            .expect("unlimited build")
            .with_constrain_min_cluster(1);
        for f in frontiers(&mut m, 6) {
            let img = engine.try_image(&mut m, f, &gov).expect("unlimited image");
            let spec = naive_image(&mut m, &conjuncts, &quantify, f);
            assert_eq!(img, spec, "frontier={f}");
        }
        assert!(
            engine.stats().constrain_wins > 0,
            "cube frontiers must shrink some cluster via constrain"
        );
    }

    #[test]
    fn constrain_pass_retires_after_win_less_strikes() {
        // With the default floor every cluster is below the threshold:
        // zero attempts count as a win-less pass, so after
        // CONSTRAIN_STRIKE_LIMIT images the pass is retired for good.
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 5, 2);
        let mut engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
            .expect("unlimited build");
        let f = {
            let bits: Vec<(VarId, bool)> = (0..5).map(|i| (VarId(i as u32), false)).collect();
            m.minterm(&bits)
        };
        for _ in 0..4 {
            engine.try_image(&mut m, f, &gov).expect("unlimited image");
        }
        assert_eq!(engine.stats().constrain_wins, 0);
        assert!(engine.constrain_strikes >= CONSTRAIN_STRIKE_LIMIT, "pass must retire");
    }

    #[test]
    fn tiny_limit_degrades_to_per_bit_granularity() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 6, 2);
        let engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 1, &gov)
            .expect("unlimited build");
        assert_eq!(engine.stats().clusters, conjuncts.len());
        let generous = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 1 << 20, &gov)
            .expect("unlimited build");
        assert!(generous.stats().clusters < conjuncts.len(), "generous limit must merge");
    }

    #[test]
    fn merge_budget_pressure_keeps_finer_clusters_sound() {
        // A 1-step budget cannot pay for any merge: the build must
        // still succeed (finer clusters) and compute correct images
        // once the budget is lifted.
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 5, 1);
        let starved = ResourceGovernor::unlimited().with_step_limit(1);
        let mut engine =
            ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 1 << 20, &starved)
                .expect("merge pressure must degrade, not fail");
        assert_eq!(engine.stats().clusters, conjuncts.len());
        let gov = ResourceGovernor::unlimited();
        for f in frontiers(&mut m, 5) {
            let img = engine.try_image(&mut m, f, &gov).expect("unlimited image");
            let spec = naive_image(&mut m, &conjuncts, &quantify, f);
            assert_eq!(img, spec);
        }
    }

    #[test]
    fn cancellation_unwinds_build_and_image() {
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 5, 2);
        let gov = ResourceGovernor::unlimited();
        let mut engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
            .expect("unlimited build");
        let cancelled = ResourceGovernor::unlimited();
        cancelled.cancel();
        // Build in a cold manager: cache hits are free in the try_*
        // operations, so only a cold build is forced through checkpoints.
        let mut cold = Manager::new();
        let (cold_conjuncts, cold_quantify, _) = fixture(&mut cold, 5, 2);
        assert_eq!(
            ImageEngine::try_clustered(&mut cold, &cold_conjuncts, &cold_quantify, 64, &cancelled)
                .map(|e| e.stats().clusters),
            Err(ResourceExhausted::Cancelled)
        );
        let v0 = m.var(VarId(0));
        let v2 = m.var(VarId(2));
        let f = m.and(v0, v2); // fresh product: no warm cache to answer for free
        assert_eq!(engine.try_image(&mut m, f, &cancelled), Err(ResourceExhausted::Cancelled));
    }

    #[test]
    fn injected_cancel_in_constrain_pass_unwinds_then_rebuilds_exactly() {
        use crate::governor::{FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 6, 3);
        let mut engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
            .expect("unlimited build")
            .with_constrain_min_cluster(1);
        let f = {
            let bits: Vec<(VarId, bool)> = (0..6).map(|i| (VarId(i as u32), false)).collect();
            m.minterm(&bits)
        };
        // Cancel at the first per-cluster constrain attempt: the image
        // must unwind mid-pass with the precise cause …
        let plan = Arc::new(
            FaultPlan::new(13).with_rule(FaultSite::ImageConstrain, 1, FaultKind::Cancel),
        );
        let faulted = ResourceGovernor::unlimited().with_fault_plan(plan);
        assert_eq!(engine.try_image(&mut m, f, &faulted), Err(ResourceExhausted::Cancelled));
        // … and a clean retry on the *same* engine and manager computes
        // the exact image: the aborted pass left only sound cache
        // entries and untouched clusters behind.
        let img = engine.try_image(&mut m, f, &gov).expect("clean retry");
        let spec = naive_image(&mut m, &conjuncts, &quantify, f);
        assert_eq!(img, spec, "post-cancel rebuild must be canonical");
    }

    #[test]
    fn injected_merge_fault_is_absorbed_by_the_halved_budget_retry() {
        use crate::governor::{FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 5, 1);
        // A one-shot budget fault on the first cluster-merge attempt:
        // the merge loop retries once at half budget, the crossing
        // counter has moved past the rule, and the build completes.
        let plan = Arc::new(
            FaultPlan::new(17).with_rule(FaultSite::ImageCluster, 1, FaultKind::Budget),
        );
        let faulted = ResourceGovernor::unlimited().with_fault_plan(plan);
        let mut engine =
            ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 1 << 20, &faulted)
                .expect("transient fault must be absorbed");
        assert!(engine.stats().merge_retries >= 1, "the retry must be counted");
        let gov = ResourceGovernor::unlimited();
        for f in frontiers(&mut m, 5) {
            let img = engine.try_image(&mut m, f, &gov).expect("unlimited image");
            let spec = naive_image(&mut m, &conjuncts, &quantify, f);
            assert_eq!(img, spec);
        }
    }

    #[test]
    fn simplified_frontier_is_sound_and_off_per_bit() {
        let gov = ResourceGovernor::unlimited();
        let mut m = Manager::new();
        let (conjuncts, quantify, _) = fixture(&mut m, 4, 0);
        let mut clustered = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
            .expect("unlimited build");
        let mut per_bit = ImageEngine::per_bit(&m, &conjuncts, &quantify);
        let v0 = m.var(VarId(0));
        let v1 = m.var(VarId(1));
        let fresh = m.and(v0, v1);
        let nv0 = m.not(v0);
        let prev = m.and(nv0, v1);
        assert_eq!(per_bit.try_simplified_frontier(&mut m, fresh, prev, &gov), Ok(fresh));
        let simplified =
            clustered.try_simplified_frontier(&mut m, fresh, prev, &gov).expect("unlimited");
        // fresh ⊆ F ⊆ fresh ∪ prev — the fixpoint-preserving envelope.
        let nf = m.not(simplified);
        let missing = m.and(fresh, nf);
        assert!(missing.is_false(), "simplified frontier must cover fresh");
        let envelope = m.or(fresh, prev);
        let ne = m.not(envelope);
        let outside = m.and(simplified, ne);
        assert!(outside.is_false(), "simplified frontier escaped the envelope");
    }

    #[test]
    fn engine_build_is_deterministic() {
        let gov = ResourceGovernor::unlimited();
        let build = || {
            let mut m = Manager::new();
            let (conjuncts, quantify, _) = fixture(&mut m, 6, 2);
            let engine = ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, 64, &gov)
                .expect("unlimited build");
            (engine.stats(), engine.cluster_sizes(&m), engine.clusters.clone())
        };
        assert_eq!(build(), build());
    }
}
