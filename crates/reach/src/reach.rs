//! BDD forward reachability per latch partition, and don't-care retrieval.

use crate::partition::{partition_latches, Partition, PartitionOptions};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use symbi_bdd::hash::FxHashMap;
use symbi_bdd::image::{ImageEngine, ImageStats, DEFAULT_CLUSTER_LIMIT};
use symbi_bdd::par::parallel_map;
use symbi_bdd::{
    FaultSite, KernelConfig, Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId,
};
use symbi_netlist::cone::ConeExtractor;
use symbi_netlist::{Netlist, SignalId};

/// Tuning knobs for [`Reachability::analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityOptions {
    /// Partitioning configuration.
    pub partition: PartitionOptions,
    /// Cap on fixed-point iterations per partition; on hitting it the
    /// partition conservatively reports every state reachable.
    pub max_iterations: usize,
    /// Cap on BDD nodes per partition manager, enforced *inside* every
    /// image operation through the resource governor; same conservative
    /// fallback.
    pub node_limit: usize,
    /// Recursion-step budget per partition (`u64::MAX` = unlimited). A
    /// partition that exhausts it falls back to "everything reachable",
    /// or is split if large enough.
    pub step_budget: u64,
    /// Worker threads for the per-partition fixpoint loops; each worker
    /// owns a private [`Manager`] and results are merged in the same
    /// canonical order as the sequential analysis, so any `jobs` value
    /// produces identical partitions (under an unlimited governor; a
    /// finite *shared* step budget races between workers and can change
    /// which partition trips it first).
    pub jobs: usize,
    /// BDD kernel knobs (computed-table size, automatic garbage
    /// collection, automatic reordering) applied to every per-partition
    /// manager.
    pub kernel: KernelConfig,
    /// Node ceiling per transition-relation cluster for the clustered
    /// image engine ([`symbi_bdd::image`]); `0` disables clustering and
    /// runs the legacy per-bit latch-order schedule. A clustered
    /// partition that trips a resource cap is retried per-bit before
    /// splitting or bailing.
    pub cluster_limit: usize,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            partition: PartitionOptions::default(),
            max_iterations: 10_000,
            node_limit: 1_000_000,
            step_budget: u64::MAX,
            jobs: 1,
            kernel: KernelConfig::default(),
            cluster_limit: DEFAULT_CLUSTER_LIMIT,
        }
    }
}

/// Outcome statistics of an analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachStats {
    /// Number of latch partitions analyzed.
    pub partitions: usize,
    /// Total image iterations across partitions.
    pub iterations: usize,
    /// Number of partitions that hit a resource cap and fell back to
    /// "everything reachable".
    pub bailed_out: usize,
    /// `log2` of the (conjunctively approximated) reachable state count —
    /// the `log2 states` column of Table 3.1.
    pub log2_states: f64,
    /// Largest number of simultaneously live BDD nodes in any single
    /// partition's analysis manager (deterministic across `jobs` values:
    /// each partition's operation sequence is independent of scheduling).
    pub peak_live_nodes: usize,
    /// Total transition-relation clusters across partitions (equals the
    /// conjunct count when clustering is disabled or never merges).
    pub clusters: usize,
    /// Largest single cluster BDD, in nodes, across partitions.
    pub max_cluster_nodes: usize,
    /// Garbage-collection runs summed across partition managers, up to
    /// the end of each fixpoint (final compaction excluded). Like
    /// `peak_live_nodes`, deterministic across `jobs` values.
    pub gc_runs: u64,
    /// Computed-table hits summed across partition managers.
    pub cache_hits: u64,
    /// Computed-table misses summed across partition managers.
    pub cache_misses: u64,
    /// Clusters replaced by a substantially smaller
    /// `constrain(cluster, frontier)`, summed across partitions.
    pub constrain_wins: u64,
    /// Frontiers replaced by a strictly smaller
    /// `restrict(frontier, ¬reached)`, summed across partitions.
    pub restrict_wins: u64,
    /// Halved-budget retries taken by the ladder's transient-fault rung
    /// (a clustered attempt that tripped a step/node cap is retried once
    /// at half the sub-budget before degrading further).
    pub retries: u64,
    /// Cluster merges retried at half sub-budget inside the image
    /// engines, summed across partitions.
    pub merge_retries: u64,
    /// Partition analyses that panicked and were absorbed at the
    /// isolation boundary (the partition degrades to bail-to-⊤ exactly
    /// like a budget trip instead of tearing down the pool).
    pub worker_panics: u64,
}

#[derive(Debug)]
struct PartitionReach {
    latches: Vec<SignalId>,
    /// The analysis manager, garbage-collected and compacted in place
    /// after the fixpoint so only the reachable set (plus variable
    /// nodes) survives; present-state variables keep their interleaved
    /// analysis-time indices. For a bailed partition the analysis
    /// manager is **dropped** and this is left empty — the partition
    /// carries no information, so consumers must skip it rather than
    /// touch its (nonexistent) variables.
    manager: Manager,
    /// Reachable set over the partition's present-state variables;
    /// `NodeId::TRUE` when the partition bailed.
    reach: NodeId,
    /// Latch output signal → present-state variable in `manager`
    /// (empty when bailed).
    ps_var: HashMap<SignalId, VarId>,
    iterations: usize,
    bailed: bool,
    /// Peak live node count of the analysis manager (captured before a
    /// bailed partition's manager is dropped).
    peak_live: usize,
    /// Image-engine shape/counter snapshot (zero if the engine build
    /// itself tripped a cap).
    image: ImageStats,
    /// Kernel counters of the analysis manager up to the end of the
    /// fixpoint (captured before compaction or drop).
    gc_runs: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Why the analysis bailed (`None` on success), driving the
    /// ladder's retry decision: step/node trips are transient and worth
    /// one halved-budget retry, deadline/cancellation are not.
    bail_cause: Option<ResourceExhausted>,
    /// Halved-budget retries charged to this partition by the ladder.
    retries: u64,
    /// Whether the analysis panicked and was absorbed at the isolation
    /// boundary (implies `bailed`).
    worker_panic: bool,
}

/// Result of partitioned forward reachability on one netlist.
///
/// Each partition's reachable set lives in its own manager; use
/// [`Reachability::care_set`] to project and conjoin the relevant
/// partitions into your own manager.
#[derive(Debug)]
pub struct Reachability {
    parts: Vec<PartitionReach>,
    num_latches: usize,
}

impl Reachability {
    /// Runs forward reachability on every partition of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation.
    pub fn analyze(netlist: &Netlist, options: ReachabilityOptions) -> Self {
        Reachability::analyze_governed(netlist, options, &ResourceGovernor::unlimited())
    }

    /// [`Reachability::analyze`] under an external resource governor:
    /// each partition runs in a child governor (fresh step budget of
    /// `options.step_budget`, charged back to `gov`), so a flow-level
    /// deadline, node ceiling, or cancellation interrupts the analysis
    /// *mid-image* rather than between fixed-point iterations. An
    /// exhausted partition degrades to "everything reachable" — always
    /// sound — or is split in half first if it is large enough.
    ///
    /// With `options.jobs > 1` the top-level partitions are analyzed on
    /// a pool of worker threads, each with a private [`Manager`]; the
    /// adaptive splitting recursion stays *inside* a partition's task
    /// and results are concatenated in the sequential order, so the
    /// analysis is deterministic across `jobs` values.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation.
    pub fn analyze_governed(
        netlist: &Netlist,
        options: ReachabilityOptions,
        gov: &ResourceGovernor,
    ) -> Self {
        netlist.validate().expect("reachability requires a valid netlist");
        let partitions = partition_latches(netlist, options.partition);
        // The historical sequential analysis popped a LIFO worklist, so
        // partitions were processed (and their splits expanded,
        // depth-first) in reverse order; preserve exactly that order so
        // parallel and sequential runs stay interchangeable.
        let roots: Vec<Partition> = partitions.into_iter().rev().collect();
        let analyzed: Vec<Vec<PartitionReach>> =
            parallel_map(options.jobs.max(1), roots, |_, p| {
                analyze_adaptive(netlist, p, &options, gov)
            });
        let parts: Vec<PartitionReach> = analyzed.into_iter().flatten().collect();
        Reachability { parts, num_latches: netlist.num_latches() }
    }

    /// A no-information analysis: every state considered reachable. Used
    /// as the "No states" arm of the paper's Table 3.1 experiment.
    pub fn trivial(netlist: &Netlist) -> Self {
        Reachability { parts: Vec::new(), num_latches: netlist.num_latches() }
    }

    /// Number of analyzed partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Builds the care set (projection of the reachable over-approximation)
    /// over the given latch support, inside `dst`. `var_of` maps each latch
    /// signal in `support` to its variable in `dst`. States outside the
    /// returned set are **unreachable** and may be used as don't cares.
    ///
    /// Latches not covered by any partition contribute no constraint.
    ///
    /// # Panics
    ///
    /// Panics if a latch in `support` is missing from `var_of`.
    pub fn care_set(
        &mut self,
        support: &[SignalId],
        dst: &mut Manager,
        var_of: &HashMap<SignalId, VarId>,
    ) -> NodeId {
        self.try_care_set(support, dst, var_of, &ResourceGovernor::unlimited()).0
    }

    /// Governed [`Reachability::care_set`]. A partition whose projection
    /// or conjunction exhausts `gov` is *skipped* — it contributes no
    /// constraint, exactly as if it had never been analyzed, so the
    /// returned set is still an over-approximation of the reachable
    /// states. Returns the care set and the number of skipped partitions.
    pub fn try_care_set(
        &mut self,
        support: &[SignalId],
        dst: &mut Manager,
        var_of: &HashMap<SignalId, VarId>,
        gov: &ResourceGovernor,
    ) -> (NodeId, usize) {
        let mut acc = NodeId::TRUE;
        let mut skipped = 0usize;
        for part in &mut self.parts {
            if part.bailed {
                // The analysis manager was dropped on the bail-to-⊤ path;
                // the partition constrains nothing.
                continue;
            }
            let in_support: Vec<SignalId> = part
                .latches
                .iter()
                .copied()
                .filter(|l| support.contains(l))
                .collect();
            if in_support.is_empty() {
                continue;
            }
            // Quantify away partition latches outside the support...
            let away: Vec<VarId> = part
                .latches
                .iter()
                .filter(|l| !support.contains(l))
                .map(|l| part.ps_var[l])
                .collect();
            // ...and transfer the projection into the caller's space.
            let var_map: FxHashMap<VarId, VarId> = in_support
                .iter()
                .map(|l| {
                    let dst_var = *var_of
                        .get(l)
                        .unwrap_or_else(|| panic!("no destination variable for latch {l}"));
                    (part.ps_var[l], dst_var)
                })
                .collect();
            let part_manager = &mut part.manager;
            let reach = part.reach;
            let conjoined = (|| -> Result<NodeId, ResourceExhausted> {
                let projected = part_manager.try_exists(reach, &away, gov)?;
                // Transfer is linear in the projection — unbudgeted.
                let transferred = dst.transfer_from(part_manager, projected, &var_map);
                dst.try_and(acc, transferred, gov)
            })();
            match conjoined {
                Ok(n) => acc = n,
                Err(_) => skipped += 1,
            }
        }
        (acc, skipped)
    }

    /// Read-only [`Reachability::try_care_set`] for concurrent callers:
    /// instead of projecting inside the partition's own manager (which
    /// needs `&mut self` for the cache), each relevant partition's full
    /// reachable set is first copied into a private scratch manager and
    /// projected there. Projection-then-transfer yields the same
    /// canonical function in `dst` as the in-place path, so the two
    /// methods return identical care sets; this one simply trades a
    /// little copying for shareability across worker threads.
    pub fn try_care_set_shared(
        &self,
        support: &[SignalId],
        dst: &mut Manager,
        var_of: &HashMap<SignalId, VarId>,
        gov: &ResourceGovernor,
    ) -> (NodeId, usize) {
        let mut acc = NodeId::TRUE;
        let mut skipped = 0usize;
        for part in &self.parts {
            if part.bailed {
                continue;
            }
            let in_support: Vec<SignalId> = part
                .latches
                .iter()
                .copied()
                .filter(|l| support.contains(l))
                .collect();
            if in_support.is_empty() {
                continue;
            }
            let away: Vec<VarId> = part
                .latches
                .iter()
                .filter(|l| !support.contains(l))
                .map(|l| part.ps_var[l])
                .collect();
            let var_map: FxHashMap<VarId, VarId> = in_support
                .iter()
                .map(|l| {
                    let dst_var = *var_of
                        .get(l)
                        .unwrap_or_else(|| panic!("no destination variable for latch {l}"));
                    (part.ps_var[l], dst_var)
                })
                .collect();
            let conjoined = (|| -> Result<NodeId, ResourceExhausted> {
                // Identity copy into a scratch manager with the same
                // variable universe, then project there.
                let mut scratch = Manager::with_vars(part.manager.num_vars());
                let identity: FxHashMap<VarId, VarId> = (0..part.manager.num_vars() as u32)
                    .map(|v| (VarId(v), VarId(v)))
                    .collect();
                let local = scratch.transfer_from(&part.manager, part.reach, &identity);
                let projected = scratch.try_exists(local, &away, gov)?;
                let transferred = dst.transfer_from(&scratch, projected, &var_map);
                dst.try_and(acc, transferred, gov)
            })();
            match conjoined {
                Ok(n) => acc = n,
                Err(_) => skipped += 1,
            }
        }
        (acc, skipped)
    }

    /// `log2` of the reachable-state count under the conjunction of all
    /// partition over-approximations (the `log2 states` of Table 3.1).
    /// With no partitions this is simply the latch count.
    ///
    /// A bailed partition's BDD was dropped on the bail-to-⊤ path, so it
    /// contributes no constraint: its latches count as full-space (a
    /// free factor of 2 each) unless some *other*, successful partition
    /// also covers them.
    pub fn log2_states(&self) -> f64 {
        if self.parts.is_empty() {
            return self.num_latches as f64;
        }
        // Global space: one variable per latch that appears in any
        // successfully analyzed partition; uncovered latches (including
        // those only in bailed partitions) contribute a free factor of 2
        // each.
        let mut global = Manager::new();
        let mut var_of: HashMap<SignalId, VarId> = HashMap::new();
        let mut covered = 0usize;
        for part in self.parts.iter().filter(|p| !p.bailed) {
            for &l in &part.latches {
                var_of.entry(l).or_insert_with(|| {
                    covered += 1;
                    let v = VarId(global.num_vars() as u32);
                    global.new_var();
                    v
                });
            }
        }
        let mut acc = NodeId::TRUE;
        for part in self.parts.iter().filter(|p| !p.bailed) {
            let var_map: FxHashMap<VarId, VarId> =
                part.latches.iter().map(|l| (part.ps_var[l], var_of[l])).collect();
            let t = global.transfer_from(&part.manager, part.reach, &var_map);
            acc = global.and(acc, t);
        }
        let frac = global.sat_fraction(acc);
        let uncovered = self.num_latches.saturating_sub(covered);
        // frac == 0 cannot happen: the initial state is always reachable.
        frac.log2() + covered as f64 + uncovered as f64
    }

    /// Aggregate statistics of the analysis.
    pub fn stats(&self) -> ReachStats {
        ReachStats {
            partitions: self.parts.len(),
            iterations: self.parts.iter().map(|p| p.iterations).sum(),
            bailed_out: self.parts.iter().filter(|p| p.bailed).count(),
            log2_states: self.log2_states(),
            peak_live_nodes: self.parts.iter().map(|p| p.peak_live).max().unwrap_or(0),
            clusters: self.parts.iter().map(|p| p.image.clusters).sum(),
            max_cluster_nodes: self
                .parts
                .iter()
                .map(|p| p.image.max_cluster_nodes)
                .max()
                .unwrap_or(0),
            gc_runs: self.parts.iter().map(|p| p.gc_runs).sum(),
            cache_hits: self.parts.iter().map(|p| p.cache_hits).sum(),
            cache_misses: self.parts.iter().map(|p| p.cache_misses).sum(),
            constrain_wins: self.parts.iter().map(|p| p.image.constrain_wins).sum(),
            restrict_wins: self.parts.iter().map(|p| p.image.restrict_wins).sum(),
            retries: self.parts.iter().map(|p| p.retries).sum(),
            merge_retries: self.parts.iter().map(|p| p.image.merge_retries).sum(),
            worker_panics: self.parts.iter().filter(|p| p.worker_panic).count() as u64,
        }
    }

    /// Whether two analyses reached exactly the same sets: same
    /// partitions (latches, bail status) and, per surviving partition,
    /// the same reachable *function*. Node ids are compared after an
    /// identity transfer into a common scratch manager, so differing
    /// post-compaction layouts (e.g. per-bit vs. clustered schedules)
    /// cannot mask or fake agreement. This is the oracle behind the
    /// reach benchmark's "identical reached sets" assertion.
    pub fn same_reached_sets(&self, other: &Reachability) -> bool {
        if self.parts.len() != other.parts.len() {
            return false;
        }
        self.parts.iter().zip(&other.parts).all(|(a, b)| {
            if a.latches != b.latches || a.bailed != b.bailed {
                return false;
            }
            if a.bailed {
                return true;
            }
            let n = a.manager.num_vars().max(b.manager.num_vars());
            let identity: FxHashMap<VarId, VarId> =
                (0..n as u32).map(|v| (VarId(v), VarId(v))).collect();
            let mut scratch = Manager::with_vars(n);
            let ra = scratch.transfer_from(&a.manager, a.reach, &identity);
            let rb = scratch.transfer_from(&b.manager, b.reach, &identity);
            ra == rb
        })
    }
}

/// Folds a failed analysis attempt's work counters into the result
/// that supersedes it, so `ReachStats` accounts for every iteration and
/// kernel operation actually spent on the partition. Shape fields
/// (clusters, reach, bail status) stay `kept`'s.
fn fold_failed_attempt(mut kept: PartitionReach, failed: &PartitionReach) -> PartitionReach {
    kept.iterations += failed.iterations;
    kept.peak_live = kept.peak_live.max(failed.peak_live);
    kept.gc_runs += failed.gc_runs;
    kept.cache_hits += failed.cache_hits;
    kept.cache_misses += failed.cache_misses;
    kept.retries += failed.retries;
    kept.worker_panic |= failed.worker_panic;
    kept
}

/// Whether a bail cause is worth the ladder's one halved-budget retry:
/// step and node trips are often transient (a GC-adjacent spike, a
/// cluster-merge pressure burst, an injected fault), while a passed
/// deadline or a raised cancel flag will trip again immediately.
fn is_transient(cause: Option<ResourceExhausted>) -> bool {
    matches!(cause, Some(ResourceExhausted::Steps) | Some(ResourceExhausted::Nodes))
}

/// The bail-to-⊤ placeholder for a partition whose analysis panicked:
/// indistinguishable from a budget bail downstream (no constraint, no
/// variables), but flagged so `ReachStats::worker_panics` reports it.
fn panicked_partition(partition: &Partition) -> PartitionReach {
    PartitionReach {
        latches: partition.latches.clone(),
        manager: Manager::new(),
        reach: NodeId::TRUE,
        ps_var: HashMap::new(),
        iterations: 0,
        bailed: true,
        peak_live: 0,
        image: ImageStats::default(),
        gc_runs: 0,
        cache_hits: 0,
        cache_misses: 0,
        bail_cause: None,
        retries: 0,
        worker_panic: true,
    }
}

/// [`analyze_partition`] behind a panic-isolation boundary: a panicking
/// analysis (an injected `panic` fault, or a genuine bug in one cone)
/// degrades that partition to bail-to-⊤ — still a sound
/// over-approximation — instead of unwinding through the worker pool.
/// The partition's private manager is dropped by the unwind, so no
/// shared state is left inconsistent.
fn analyze_partition_isolated(
    netlist: &Netlist,
    partition: &Partition,
    options: &ReachabilityOptions,
    gov: &ResourceGovernor,
) -> PartitionReach {
    catch_unwind(AssertUnwindSafe(|| analyze_partition(netlist, partition, options, gov)))
        .unwrap_or_else(|_| panicked_partition(partition))
}

/// Analyzes one top-level partition down the degradation ladder:
/// clustered image engine first; on a tripped cap one per-bit retry
/// under a fresh step fork (the legacy schedule trades speed for a
/// flatter intermediate-product profile, so it may fit where clusters
/// did not — and when the *surrounding* governor is already cancelled
/// or out of budget the retry's first checkpoint unwinds it almost for
/// free); then adaptive splitting: a partition that still exhausts its
/// caps is split in half and each half re-analyzed — every subset's
/// reachable set is still an over-approximation of the truth, so
/// splitting trades precision for tractability, never soundness. The
/// returned order reproduces the historical sequential worklist
/// exactly: the worklist pushed `[..mid]` then `[mid..]` and popped
/// LIFO, i.e. it expanded the upper half first, depth-first.
fn analyze_adaptive(
    netlist: &Netlist,
    partition: Partition,
    options: &ReachabilityOptions,
    gov: &ResourceGovernor,
) -> Vec<PartitionReach> {
    let part_gov = gov
        .fork_steps(options.step_budget)
        .with_node_limit(gov.node_limit().min(options.node_limit));
    let mut analyzed = analyze_partition_isolated(netlist, &partition, options, &part_gov);
    // Retry rung: a transient trip (a GC-adjacent step spike, node
    // pressure from cluster merges, an injected fault) may not recur,
    // so the same configuration gets one more try at *half* the
    // sub-budget — cheap insurance before degrading precision — while
    // deadline/cancel bails skip straight down the ladder.
    if analyzed.bailed && !analyzed.worker_panic && is_transient(analyzed.bail_cause) {
        let retry_gov = gov
            .fork_steps(options.step_budget / 2)
            .with_node_limit(gov.node_limit().min(options.node_limit));
        let mut retry = analyze_partition_isolated(netlist, &partition, options, &retry_gov);
        retry.retries += 1;
        analyzed = if retry.bailed {
            fold_failed_attempt(analyzed, &retry)
        } else {
            fold_failed_attempt(retry, &analyzed)
        };
    }
    if analyzed.bailed && options.cluster_limit != 0 {
        let per_bit = ReachabilityOptions { cluster_limit: 0, ..*options };
        let retry_gov = gov
            .fork_steps(options.step_budget)
            .with_node_limit(gov.node_limit().min(options.node_limit));
        let retry = analyze_partition_isolated(netlist, &partition, &per_bit, &retry_gov);
        analyzed = if retry.bailed {
            fold_failed_attempt(analyzed, &retry)
        } else {
            fold_failed_attempt(retry, &analyzed)
        };
    }
    if analyzed.bailed && partition.latches.len() > 8 {
        let mid = partition.latches.len() / 2;
        let hi = Partition { latches: partition.latches[mid..].to_vec() };
        let lo = Partition { latches: partition.latches[..mid].to_vec() };
        let mut out = analyze_adaptive(netlist, hi, options, gov);
        out.extend(analyze_adaptive(netlist, lo, options, gov));
        out
    } else {
        vec![analyzed]
    }
}

fn analyze_partition(
    netlist: &Netlist,
    partition: &Partition,
    options: &ReachabilityOptions,
    gov: &ResourceGovernor,
) -> PartitionReach {
    let k = partition.latches.len();
    let mut m = Manager::with_kernel_config(options.kernel);
    // Layout: (present_i, next_i) interleaved per latch, then free inputs.
    let mut ps_var: HashMap<SignalId, VarId> = HashMap::new();
    let mut ns_var: Vec<VarId> = Vec::with_capacity(k);
    for (i, &l) in partition.latches.iter().enumerate() {
        ps_var.insert(l, VarId(2 * i as u32));
        ns_var.push(VarId(2 * i as u32 + 1));
        m.new_var();
        m.new_var();
    }
    // Free leaves: union of supports of the partition's next-state cones,
    // minus partition latches.
    let mut cone_map: HashMap<SignalId, VarId> = ps_var.clone();
    let mut free_vars: Vec<VarId> = Vec::new();
    for &l in &partition.latches {
        let next = netlist.latch_next(l).expect("validated netlist");
        for s in netlist.support(next) {
            cone_map.entry(s).or_insert_with(|| {
                let v = VarId(m.num_vars() as u32);
                m.new_var();
                free_vars.push(v);
                v
            });
        }
    }
    // Every BDD operation from here on runs under `gov`, so a tripped
    // limit surfaces *inside* a cone build or image step, not at the next
    // iteration boundary. The iteration cap reuses the `Steps` verdict.
    let mut iterations = 0usize;
    let mut image_stats = ImageStats::default();
    let governed = (|| -> Result<NodeId, ResourceExhausted> {
        // Next-state functions and transition conjuncts.
        let mut extractor = ConeExtractor::new(netlist, cone_map);
        let mut conjuncts: Vec<NodeId> = Vec::with_capacity(k);
        for (i, &l) in partition.latches.iter().enumerate() {
            let next = netlist.latch_next(l).expect("validated netlist");
            let delta = extractor.try_bdd(&mut m, next, gov)?;
            let nv = m.var(ns_var[i]);
            conjuncts.push(m.try_xnor(nv, delta, gov)?);
        }
        // Variables to eliminate per image: present state, then free
        // inputs — the canonical order the engine schedules from.
        let present_vars: Vec<VarId> =
            partition.latches.iter().map(|l| ps_var[l]).collect();
        let mut quantify: Vec<VarId> = present_vars.clone();
        quantify.extend(free_vars.iter().copied());
        // The image engine owns clustering, ordering, and the
        // early-quantification schedule; every decision is a function of
        // canonical per-partition data, so the analysis stays
        // deterministic across `jobs` values.
        let mut engine = if options.cluster_limit == 0 {
            ImageEngine::per_bit(&m, &conjuncts, &quantify)
        } else {
            ImageEngine::try_clustered(&mut m, &conjuncts, &quantify, options.cluster_limit, gov)?
        };
        image_stats = engine.stats();

        // Initial state.
        let init_assign: Vec<(VarId, bool)> = partition
            .latches
            .iter()
            .map(|&l| (ps_var[&l], netlist.latch_init(l)))
            .collect();
        let init = m.minterm(&init_assign);

        // Fixed point. The next-state → present-state renaming is
        // registered once, outside the loop: its replacement variables
        // are implicit GC roots, and a single substitution id lets the
        // `VCompose` computed-table entries survive across iterations.
        let rename_subst = {
            let pairs: Vec<(VarId, NodeId)> = partition
                .latches
                .iter()
                .enumerate()
                .map(|(i, &l)| (ns_var[i], m.var(ps_var[&l])))
                .collect();
            m.register_substitution(&pairs)
        };
        let mut reach = init;
        let mut frontier = init;
        let mut gc_roots: Vec<NodeId> = Vec::with_capacity(engine.clusters().len() + 2);
        loop {
            // Iteration-boundary safe point: the fault-injection site,
            // plus an unamortized deadline/cancel poll — an iteration
            // served entirely from warm caches charges no steps, so
            // without this the deadline check interval would be
            // unbounded.
            gov.fault_site(FaultSite::ReachFixpoint)?;
            gov.poll_interrupt()?;
            if iterations >= options.max_iterations {
                return Err(ResourceExhausted::Steps);
            }
            iterations += 1;
            // Image of the frontier over the engine's schedule.
            let product = engine.try_image(&mut m, frontier, gov)?;
            let image = m.try_vector_compose(product, rename_subst, gov)?;
            let fresh = m.try_diff(image, reach, gov)?;
            if fresh.is_false() {
                break;
            }
            // Any frontier between `fresh` and `fresh ∪ reach` drives
            // the same fixpoint, so the engine may pick a smaller
            // representative (restrict against the reached set). This
            // must use the *pre-update* reached set: `fresh` is disjoint
            // from it, which pins the simplification to cover `fresh`
            // exactly — against the updated set (`fresh ⊆ reach`) the
            // care set would be empty over `fresh` and the frontier
            // could collapse.
            frontier = engine.try_simplified_frontier(&mut m, fresh, reach, gov)?;
            reach = m.try_or(reach, image, gov)?;
            // End-of-iteration safe point: everything still needed is
            // listed as a root, so the kernel may sweep the dead image
            // intermediates (and with them the stale cache entries)
            // whenever its dead-node policy says it is worth it.
            gc_roots.clear();
            gc_roots.extend_from_slice(engine.clusters());
            gc_roots.push(reach);
            gc_roots.push(frontier);
            m.try_maybe_gc(&gc_roots, gov)?;
        }
        image_stats = engine.stats();
        Ok(reach)
    })();
    // Counters are captured before compaction/drop so both the success
    // and the bail arm report the same well-defined window (the
    // fixpoint itself), identically for any `jobs` value.
    let kernel_stats = m.stats();
    let peak_live = kernel_stats.peak_live;
    match governed {
        Ok(r) => {
            // Final sweep + in-place compaction: everything except the
            // reachable set (and the variable nodes) is dead here, so
            // the node array slides down and shrinks while the manager
            // keeps serving the original interleaved variable layout —
            // no cross-manager transfer, and every later projection is
            // the same canonical function it would have been mid-run.
            let mapped = m.compact(&[r]);
            PartitionReach {
                latches: partition.latches.clone(),
                manager: m,
                reach: mapped[0],
                ps_var,
                iterations,
                bailed: false,
                peak_live,
                image: image_stats,
                gc_runs: kernel_stats.gc_runs,
                cache_hits: kernel_stats.cache_hits,
                cache_misses: kernel_stats.cache_misses,
                bail_cause: None,
                retries: 0,
                worker_panic: false,
            }
        }
        Err(cause) => PartitionReach {
            // Bail-to-⊤: the analysis manager is dropped wholesale; the
            // partition carries no constraint and no variables.
            latches: partition.latches.clone(),
            manager: Manager::new(),
            reach: NodeId::TRUE,
            ps_var: HashMap::new(),
            iterations,
            bailed: true,
            peak_live,
            image: image_stats,
            gc_runs: kernel_stats.gc_runs,
            cache_hits: kernel_stats.cache_hits,
            cache_misses: kernel_stats.cache_misses,
            bail_cause: Some(cause),
            retries: 0,
            worker_panic: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbi_netlist::GateKind;

    /// 3-bit binary counter that sticks at 7 (next = count unless at max).
    fn saturating_counter() -> Netlist {
        let mut n = Netlist::new("sat3");
        let q: Vec<SignalId> = (0..3).map(|i| n.add_latch(format!("q{i}"), false)).collect();
        // carry chain: inc0 = 1 (toggle q0), inc1 = q0, inc2 = q0&q1
        let at_max = n.add_gate("at_max", GateKind::And, vec![q[0], q[1], q[2]]);
        let not_max = n.add_gate("not_max", GateKind::Not, vec![at_max]);
        let t0 = n.add_gate("t0", GateKind::Xor, vec![q[0], not_max]);
        let c1 = n.add_gate("c1", GateKind::And, vec![q[0], not_max]);
        let t1 = n.add_gate("t1", GateKind::Xor, vec![q[1], c1]);
        let c2 = n.add_gate("c2", GateKind::And, vec![q[1], c1]);
        let t2 = n.add_gate("t2", GateKind::Xor, vec![q[2], c2]);
        n.set_latch_next(q[0], t0);
        n.set_latch_next(q[1], t1);
        n.set_latch_next(q[2], t2);
        n.add_output("msb", q[2]);
        n
    }

    /// One-hot ring of 4 latches starting 1000: only 4 reachable states.
    fn one_hot_ring() -> Netlist {
        let mut n = Netlist::new("ring4");
        let q: Vec<SignalId> = (0..4)
            .map(|i| n.add_latch(format!("q{i}"), i == 0))
            .collect();
        for i in 0..4 {
            n.set_latch_next(q[(i + 1) % 4], q[i]);
        }
        n.add_output("o", q[3]);
        n
    }

    #[test]
    fn counter_reaches_all_states() {
        let n = saturating_counter();
        let r = Reachability::analyze(&n, ReachabilityOptions::default());
        let stats = r.stats();
        assert_eq!(stats.partitions, 1);
        assert!(!r.parts[0].bailed);
        assert!((stats.log2_states - 3.0).abs() < 1e-9, "all 8 states reachable");
    }

    #[test]
    fn ring_reaches_only_one_hot_states() {
        let n = one_hot_ring();
        let r = Reachability::analyze(&n, ReachabilityOptions::default());
        let stats = r.stats();
        assert!((stats.log2_states - 2.0).abs() < 1e-9, "4 of 16 states reachable");
    }

    #[test]
    fn care_set_excludes_unreachable() {
        let n = one_hot_ring();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        let latches: Vec<SignalId> = n.latches().to_vec();
        let mut dst = Manager::with_vars(4);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let care = r.care_set(&latches, &mut dst, &var_of);
        // One-hot states are reachable (care), all-zero is not.
        assert!(dst.eval(care, &[true, false, false, false]));
        assert!(dst.eval(care, &[false, false, true, false]));
        assert!(!dst.eval(care, &[false, false, false, false]));
        assert!(!dst.eval(care, &[true, true, false, false]));
    }

    #[test]
    fn care_set_projection_is_sound() {
        let n = one_hot_ring();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        // Project onto two latches: states (q0,q1) ∈ {00,01,10} reachable.
        let latches: Vec<SignalId> = n.latches()[..2].to_vec();
        let mut dst = Manager::with_vars(2);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let care = r.care_set(&latches, &mut dst, &var_of);
        assert!(dst.eval(care, &[false, false]));
        assert!(dst.eval(care, &[true, false]));
        assert!(dst.eval(care, &[false, true]));
        assert!(!dst.eval(care, &[true, true]), "q0 and q1 never both hot");
    }

    #[test]
    fn trivial_analysis_constrains_nothing() {
        let n = one_hot_ring();
        let mut r = Reachability::trivial(&n);
        let latches: Vec<SignalId> = n.latches().to_vec();
        let mut dst = Manager::with_vars(4);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let care = r.care_set(&latches, &mut dst, &var_of);
        assert!(care.is_true());
        assert!((r.log2_states() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_cap_falls_back_conservatively() {
        let n = saturating_counter();
        let opts = ReachabilityOptions { max_iterations: 1, ..Default::default() };
        let r = Reachability::analyze(&n, opts);
        assert!(r.stats().bailed_out >= 1);
        assert!((r.log2_states() - 3.0).abs() < 1e-9, "fallback claims everything");
    }

    #[test]
    fn governed_unlimited_matches_ungoverned() {
        let n = saturating_counter();
        let a = Reachability::analyze(&n, ReachabilityOptions::default());
        let b = Reachability::analyze_governed(
            &n,
            ReachabilityOptions::default(),
            &ResourceGovernor::unlimited(),
        );
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn starved_step_budget_bails_soundly() {
        let n = one_hot_ring();
        let opts = ReachabilityOptions { step_budget: 4, ..Default::default() };
        let mut r = Reachability::analyze(&n, opts);
        let stats = r.stats();
        assert!(stats.bailed_out >= 1, "a 4-step budget cannot finish");
        // The fallback claims everything reachable — sound, just useless.
        assert!((stats.log2_states - 4.0).abs() < 1e-9);
        let latches: Vec<SignalId> = n.latches().to_vec();
        let mut dst = Manager::with_vars(4);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let care = r.care_set(&latches, &mut dst, &var_of);
        assert!(care.is_true(), "bailed partitions must not constrain anything");
    }

    #[test]
    fn tiny_node_ceiling_trips_mid_operation() {
        // A node limit this small trips inside the first cone build —
        // before the old per-iteration check would ever have run.
        let n = saturating_counter();
        let opts = ReachabilityOptions { node_limit: 8, ..Default::default() };
        let r = Reachability::analyze(&n, opts);
        assert!(r.stats().bailed_out >= 1);
        assert!((r.log2_states() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn starved_care_set_skips_partitions() {
        let n = one_hot_ring();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        // A strict sub-support forces a real projection, which a zero
        // step budget cannot pay for.
        let latches: Vec<SignalId> = n.latches()[..2].to_vec();
        let mut dst = Manager::with_vars(2);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let gov = ResourceGovernor::unlimited().with_step_limit(0);
        let (care, skipped) = r.try_care_set(&latches, &mut dst, &var_of, &gov);
        assert!(skipped >= 1);
        assert!(care.is_true(), "skipped partitions contribute no constraint");
    }

    #[test]
    fn shared_care_set_matches_in_place_care_set() {
        let n = one_hot_ring();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        // Strict sub-support so a genuine projection happens in both paths.
        let latches: Vec<SignalId> = n.latches()[..2].to_vec();
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let gov = ResourceGovernor::unlimited();
        let mut dst_shared = Manager::with_vars(2);
        let shared = r.try_care_set_shared(&latches, &mut dst_shared, &var_of, &gov).0;
        let mut dst_mut = Manager::with_vars(2);
        let in_place = r.try_care_set(&latches, &mut dst_mut, &var_of, &gov).0;
        // Same canonical function in identically laid-out managers ⇒
        // identical node ids and identical evaluations.
        assert_eq!(shared, in_place);
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(dst_shared.eval(shared, &[a, b]), dst_mut.eval(in_place, &[a, b]));
            }
        }
    }

    /// Regression: a bailed partition's manager is dropped (empty
    /// manager, no `ps_var` entries). `log2_states` used to index the
    /// dropped variables and return garbage; it must instead count the
    /// bailed partition's latches as full-space.
    #[test]
    fn bailed_partition_counts_as_full_space() {
        let n = one_hot_ring();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        assert!((r.log2_states() - 2.0).abs() < 1e-9);
        // Forcibly bail the only partition, exactly as the governor
        // bail-to-⊤ path leaves it: manager dropped, reach = ⊤, no vars.
        for part in &mut r.parts {
            part.manager = Manager::new();
            part.reach = NodeId::TRUE;
            part.ps_var = HashMap::new();
            part.bailed = true;
        }
        assert!(
            (r.log2_states() - 4.0).abs() < 1e-9,
            "bailed partitions must count as full-space, got {}",
            r.log2_states()
        );
        // And neither care-set path may touch the dropped variables.
        let latches: Vec<SignalId> = n.latches().to_vec();
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let gov = ResourceGovernor::unlimited();
        let mut dst = Manager::with_vars(4);
        let (care, skipped) = r.try_care_set(&latches, &mut dst, &var_of, &gov);
        assert!(care.is_true());
        assert_eq!(skipped, 0);
        let (care, skipped) = r.try_care_set_shared(&latches, &mut dst, &var_of, &gov);
        assert!(care.is_true());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn parallel_jobs_match_sequential_analysis() {
        for netlist in [saturating_counter(), one_hot_ring()] {
            // Tiny partitions force several independent fixpoint tasks.
            let base = ReachabilityOptions {
                partition: crate::partition::PartitionOptions { max_latches: 1 },
                ..Default::default()
            };
            let seq = Reachability::analyze(&netlist, ReachabilityOptions { jobs: 1, ..base });
            let par = Reachability::analyze(&netlist, ReachabilityOptions { jobs: 4, ..base });
            assert_eq!(seq.stats(), par.stats());
            assert_eq!(seq.num_partitions(), par.num_partitions());
            for (a, b) in seq.parts.iter().zip(&par.parts) {
                assert_eq!(a.latches, b.latches);
                assert_eq!(a.reach, b.reach, "canonical reach sets must agree");
                assert_eq!(a.bailed, b.bailed);
            }
        }
    }

    #[test]
    fn clustered_and_per_bit_reach_identical_sets() {
        for netlist in [saturating_counter(), one_hot_ring()] {
            let clustered = Reachability::analyze(&netlist, ReachabilityOptions::default());
            let per_bit = Reachability::analyze(
                &netlist,
                ReachabilityOptions { cluster_limit: 0, ..Default::default() },
            );
            assert!(clustered.same_reached_sets(&per_bit));
            assert!(per_bit.same_reached_sets(&clustered));
            assert!(
                (clustered.log2_states() - per_bit.log2_states()).abs() < 1e-12,
                "schedules must not change the fixpoint"
            );
            // The default engine actually clusters: fewer clusters than
            // the per-bit engine's one-per-latch.
            assert!(clustered.stats().clusters <= per_bit.stats().clusters);
            assert!(per_bit.stats().clusters >= netlist.num_latches());
        }
    }

    #[test]
    fn reach_stats_report_kernel_counters() {
        let n = saturating_counter();
        let stats = Reachability::analyze(&n, ReachabilityOptions::default()).stats();
        assert!(stats.cache_misses > 0, "a real fixpoint must miss the cold cache");
        assert!(stats.clusters > 0);
        assert!(stats.max_cluster_nodes > 0);
    }

    #[test]
    fn cancellation_mid_image_drains_cleanly() {
        let n = one_hot_ring();
        let gov = ResourceGovernor::unlimited();
        gov.cancel();
        let r = Reachability::analyze_governed(&n, ReachabilityOptions::default(), &gov);
        let stats = r.stats();
        // Every partition unwinds to the sound bail-to-⊤ fallback; the
        // per-bit retry rung is also cancelled at its first checkpoint.
        assert_eq!(stats.bailed_out, stats.partitions);
        assert!((stats.log2_states - 4.0).abs() < 1e-9);
    }

    #[test]
    fn injected_transient_fault_is_absorbed_by_the_retry_rung() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = saturating_counter();
        // A one-shot budget trip at the first fixpoint safe point: the
        // attempt bails with `Steps`, the ladder's transient rung retries
        // at half sub-budget, the plan's crossing counter has moved past
        // the rule, and the partition completes exactly.
        let plan =
            Arc::new(FaultPlan::new(21).with_rule(FaultSite::ReachFixpoint, 1, FaultKind::Budget));
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let r = Reachability::analyze_governed(&n, ReachabilityOptions::default(), &gov);
        let stats = r.stats();
        assert_eq!(plan.faults_fired(), 1);
        assert_eq!(stats.retries, 1, "the halved-budget retry must be charged");
        assert_eq!(stats.bailed_out, 0, "the retry must absorb the transient fault");
        assert!((stats.log2_states - 3.0).abs() < 1e-9, "and lose no precision");
    }

    #[test]
    fn injected_panic_degrades_one_partition_and_the_ladder_recovers() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = saturating_counter();
        let plan =
            Arc::new(FaultPlan::new(23).with_rule(FaultSite::ReachFixpoint, 1, FaultKind::Panic));
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let r = Reachability::analyze_governed(&n, ReachabilityOptions::default(), &gov);
        let stats = r.stats();
        // The panic is caught at the partition isolation boundary and
        // flagged; the per-bit rung then re-runs the analysis past the
        // spent one-shot rule, so no precision is lost either.
        assert_eq!(plan.faults_fired(), 1);
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.bailed_out, 0, "the per-bit rung must recover the partition");
        assert!((stats.log2_states - 3.0).abs() < 1e-9);
        // A panicked attempt is not retried by the transient rung.
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn injected_cancel_defeats_every_rung_of_the_ladder() {
        use std::sync::Arc;
        use symbi_bdd::{FaultKind, FaultPlan};
        let n = one_hot_ring();
        let plan =
            Arc::new(FaultPlan::new(29).with_rule(FaultSite::ReachFixpoint, 1, FaultKind::Cancel));
        let gov = ResourceGovernor::unlimited().with_fault_plan(Arc::clone(&plan));
        let r = Reachability::analyze_governed(&n, ReachabilityOptions::default(), &gov);
        let stats = r.stats();
        // The injected cancel raises the shared flag, which is
        // persistent: the transient rung is skipped (not a Steps/Nodes
        // bail) and the per-bit rung trips at its first checkpoint, so
        // the partition degrades to the sound bail-to-⊤ fallback.
        assert_eq!(stats.bailed_out, stats.partitions);
        assert_eq!(stats.retries, 0, "cancellation must not trigger the transient rung");
        assert!((stats.log2_states - 4.0).abs() < 1e-9, "fallback claims everything");
    }

    #[test]
    fn simulation_states_are_inside_care_set() {
        // Soundness cross-check: any state visited by simulation must be
        // in the care set.
        let n = saturating_counter();
        let mut r = Reachability::analyze(&n, ReachabilityOptions::default());
        let latches: Vec<SignalId> = n.latches().to_vec();
        let mut dst = Manager::with_vars(3);
        let var_of: HashMap<SignalId, VarId> =
            latches.iter().enumerate().map(|(i, &l)| (l, VarId(i as u32))).collect();
        let care = r.care_set(&latches, &mut dst, &var_of);
        let mut sim = symbi_netlist::sim::Simulator::new(&n);
        for _ in 0..10 {
            let state: Vec<bool> = sim.state().iter().map(|&w| w & 1 == 1).collect();
            assert!(dst.eval(care, &state), "simulated state {state:?} outside care set");
            sim.step(&[]);
        }
    }
}
