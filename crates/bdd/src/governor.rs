//! Resource governance for potentially exponential symbolic operations.
//!
//! BDD operations have no useful worst-case bound: a pathological cone
//! can make a single `ite` or image computation diverge. Production BDD
//! packages (CUDD's `*Limit` API family) and modern SAT solvers treat
//! resource-bounded execution as a first-class *result* rather than a
//! crash, and the QBF bi-decomposition line of work relies on per-check
//! timeouts with fallback between engines. [`ResourceGovernor`] is that
//! layer for this workspace: a shared bundle of
//!
//! - a **recursion-step budget** (checked at every cache-miss recursion
//!   step of the budgeted `Manager` ops),
//! - a **live-node ceiling** (total allocated nodes in the manager),
//! - a **wall-clock deadline**, and
//! - a **cooperative cancellation flag** (settable from another thread
//!   through a [`CancelHandle`]).
//!
//! Budgeted operations (`Manager::try_and`, `try_ite`, …) call
//! [`ResourceGovernor::checkpoint`] once per cache-miss step and unwind
//! with [`ResourceExhausted`] the moment any limit trips. The plain
//! operations (`Manager::and`, …) are the same code under an unmetered
//! governor, over the same computed table, so work done before
//! exhaustion is not wasted: a retry (or a fallback on a smaller
//! problem) starts from the warm cache.
//!
//! # Sub-budgets
//!
//! [`ResourceGovernor::fork_steps`] creates a child governor with its
//! own (smaller) step budget whose steps *also* charge every ancestor.
//! This is what degradation ladders need: try the expensive symbolic
//! route under a fraction of the remaining budget, and on exhaustion
//! fall back to a cheaper route that still has budget left — while a
//! global cap over everything continues to count.
//!
//! # Example
//!
//! ```
//! use symbi_bdd::{Manager, ResourceGovernor, ResourceExhausted};
//!
//! let mut m = Manager::new();
//! let vars = m.new_vars(8);
//! let gov = ResourceGovernor::unlimited().with_step_limit(2);
//! let result = (1..8).try_fold(vars[0], |acc, i| m.try_xor(acc, vars[i], &gov));
//! assert_eq!(result, Err(ResourceExhausted::Steps));
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted operation stopped early.
///
/// Returned by every `try_*` operation. The variants are ordered by how
/// the caller typically reacts: step/node/deadline exhaustion usually
/// triggers a fallback to a cheaper algorithm, while cancellation
/// aborts the whole computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceExhausted {
    /// The recursion-step budget ran out.
    Steps,
    /// The manager grew past the live-node ceiling.
    Nodes,
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancellation flag was raised.
    Cancelled,
}

impl fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceExhausted::Steps => write!(f, "recursion-step budget exhausted"),
            ResourceExhausted::Nodes => write!(f, "live-node ceiling exceeded"),
            ResourceExhausted::Deadline => write!(f, "wall-clock deadline passed"),
            ResourceExhausted::Cancelled => write!(f, "operation cancelled"),
        }
    }
}

impl std::error::Error for ResourceExhausted {}

/// How often (in steps) the deadline is re-read from the system clock.
/// `Instant::now()` costs tens of nanoseconds; amortizing it keeps the
/// per-step overhead of a deadline-only governor to one atomic add.
const DEADLINE_CHECK_PERIOD: u64 = 256;

/// Upper bound on how many recursion steps a budgeted operation may run
/// past its wall-clock deadline before `checkpoint` observes it. Tests
/// (and the chaos watchdog) key their slack off this constant.
pub const MAX_DEADLINE_OVERSHOOT_STEPS: u64 = DEADLINE_CHECK_PERIOD;

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// A named fault-injection site in the governed stack.
///
/// Every governed `try_*` operation and every GC/reorder safe point crosses
/// exactly one of these sites. A [`FaultPlan`] counts crossings per site
/// and can fire a fault at the Nth crossing, so a chaos sweep can
/// enumerate `(site, occurrence)` cells exhaustively and reproducibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Cache-miss recursion step of a budgeted `Manager` operation
    /// (crossed implicitly by [`ResourceGovernor::checkpoint`]).
    BddApply,
    /// Governed garbage-collection safe point (`Manager::try_maybe_gc`).
    BddGc,
    /// Per-variable excursion boundary of governed sifting
    /// (`Manager::try_sift_in_place`).
    BddSift,
    /// One pairwise cluster-merge attempt in `ImageEngine`.
    ImageCluster,
    /// One per-cluster constrain attempt of the image frontier pass.
    ImageConstrain,
    /// Top of one reachability fixpoint iteration.
    ReachFixpoint,
    /// Top of the CDCL search loop (before unit propagation).
    SatPropagate,
    /// Immediately before a learnt-clause database reduction.
    SatReduceDb,
    /// Start of one synthesis candidate's decomposition attempt.
    SynthDecompose,
    /// Start of one `parallel_map` worker task (ordinal = task index).
    ParTask,
    /// One governed BDD→CNF encoding pass (the Tseitin translation a
    /// governed SAT check or SEC frame performs before solving).
    SatEncode,
    /// One SAT-sweeping refinement event: crossed once per pairwise
    /// equivalence query the sweep's persistent solver attempts
    /// (before the budgeted solve), so chaos cells can kill the sweep
    /// mid-refinement and exercise the degrade-to-unswept ladder.
    NetlistSweep,
}

impl FaultSite {
    /// Number of registered sites.
    pub const COUNT: usize = 12;

    /// Every registered site, in registry order. Chaos sweeps iterate
    /// this to enumerate cells; keep it in sync with the enum. Indices
    /// are dense positions in this list, so removing a site shifts every
    /// later index — and with it the kind [`FaultPlan::derive_kind`]
    /// draws for those sites' chaos cells at a given seed.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::BddApply,
        FaultSite::BddGc,
        FaultSite::BddSift,
        FaultSite::ImageCluster,
        FaultSite::ImageConstrain,
        FaultSite::ReachFixpoint,
        FaultSite::SatPropagate,
        FaultSite::SatReduceDb,
        FaultSite::SynthDecompose,
        FaultSite::ParTask,
        FaultSite::SatEncode,
        FaultSite::NetlistSweep,
    ];

    /// Dense index into per-site counter arrays (the site's position in
    /// [`FaultSite::ALL`]).
    pub fn index(self) -> usize {
        match self {
            FaultSite::BddApply => 0,
            FaultSite::BddGc => 1,
            FaultSite::BddSift => 2,
            FaultSite::ImageCluster => 3,
            FaultSite::ImageConstrain => 4,
            FaultSite::ReachFixpoint => 5,
            FaultSite::SatPropagate => 6,
            FaultSite::SatReduceDb => 7,
            FaultSite::SynthDecompose => 8,
            FaultSite::ParTask => 9,
            FaultSite::SatEncode => 10,
            FaultSite::NetlistSweep => 11,
        }
    }

    /// The canonical dotted name used by `--fault-plan` and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::BddApply => "bdd.apply",
            FaultSite::BddGc => "bdd.gc",
            FaultSite::BddSift => "bdd.sift",
            FaultSite::ImageCluster => "image.cluster",
            FaultSite::ImageConstrain => "image.constrain",
            FaultSite::ReachFixpoint => "reach.fixpoint",
            FaultSite::SatPropagate => "sat.propagate",
            FaultSite::SatReduceDb => "sat.reduce_db",
            FaultSite::SynthDecompose => "synth.decompose",
            FaultSite::ParTask => "par.task",
            FaultSite::SatEncode => "sat.encode",
            FaultSite::NetlistSweep => "netlist.sweep",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultSite::ALL
            .iter()
            .copied()
            .find(|site| site.as_str() == s)
            .ok_or_else(|| format!("unknown fault site `{s}`"))
    }
}

/// What an injected fault simulates when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Budget exhaustion: the crossing fails with
    /// [`ResourceExhausted::Steps`].
    Budget,
    /// External cancellation: raises the shared cancel flag, then fails
    /// with [`ResourceExhausted::Cancelled`] — every sibling worker
    /// observes the flag at its next checkpoint.
    Cancel,
    /// A worker crash: the crossing panics. Must be absorbed by a
    /// `catch_unwind` isolation boundary (candidate attempt, partition
    /// analysis, or `parallel_map_isolated` task).
    Panic,
    /// Allocation pressure: a refused unique-table growth, surfaced as
    /// [`ResourceExhausted::Nodes`] exactly as a live-node ceiling trip.
    AllocPressure,
}

impl FaultKind {
    /// Every kind, in the order used by seed-derived sweeps.
    pub const ALL: [FaultKind; 4] =
        [FaultKind::Budget, FaultKind::Cancel, FaultKind::Panic, FaultKind::AllocPressure];

    /// The canonical name used by `--fault-plan` and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Budget => "budget",
            FaultKind::Cancel => "cancel",
            FaultKind::Panic => "panic",
            FaultKind::AllocPressure => "alloc",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "budget" => Ok(FaultKind::Budget),
            "cancel" => Ok(FaultKind::Cancel),
            "panic" => Ok(FaultKind::Panic),
            "alloc" | "alloc-pressure" => Ok(FaultKind::AllocPressure),
            _ => Err(format!("unknown fault kind `{s}` (budget|cancel|panic|alloc)")),
        }
    }
}

/// One injection rule: fire `kind` at the `occurrence`-th crossing
/// (1-based) of `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Site the rule watches.
    pub site: FaultSite,
    /// 1-based crossing count at which the rule fires.
    pub occurrence: u64,
    /// What firing simulates.
    pub kind: FaultKind,
}

impl FromStr for FaultRule {
    type Err = String;

    /// Parses the CLI syntax `site:occurrence:kind`, e.g.
    /// `image.cluster:2:budget`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, ':');
        let site = parts.next().ok_or("empty fault rule")?.parse::<FaultSite>()?;
        let occurrence = parts
            .next()
            .ok_or_else(|| format!("fault rule `{s}` missing `:occurrence:kind`"))?
            .parse::<u64>()
            .map_err(|e| format!("bad occurrence in `{s}`: {e}"))?;
        if occurrence == 0 {
            return Err(format!("fault rule `{s}`: occurrence is 1-based"));
        }
        let kind =
            parts.next().ok_or_else(|| format!("fault rule `{s}` missing `:kind`"))?.parse()?;
        Ok(FaultRule { site, occurrence, kind })
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic, seeded fault-injection plan shared by every clone
/// and fork of a [`ResourceGovernor`].
///
/// The plan keeps one atomic crossing counter per [`FaultSite`]; a
/// crossing whose (1-based) count matches a [`FaultRule`] fires that
/// rule's [`FaultKind`]. Firing is a pure function of the crossing
/// count, so a single-threaded run replays bit-identically, and the
/// `par.task` site — the one crossed concurrently — is matched on the
/// task's input ordinal instead of arrival order to stay deterministic
/// under any worker count.
///
/// A plan with no rules only counts crossings (useful for discovering
/// how many cells a sweep must cover).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    counters: [AtomicU64; FaultSite::COUNT],
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan: counts crossings, never fires.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: AtomicU64::new(0),
        }
    }

    /// Adds an injection rule (builder style, before sharing).
    pub fn with_rule(mut self, site: FaultSite, occurrence: u64, kind: FaultKind) -> Self {
        assert!(occurrence >= 1, "occurrences are 1-based");
        self.rules.push(FaultRule { site, occurrence, kind });
        self
    }

    /// Adds a parsed [`FaultRule`].
    pub fn with_parsed_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// The seed this plan (and any sweep built on it) derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Deterministically derives a [`FaultKind`] for a sweep cell from
    /// `(seed, site, occurrence)`. Chaos sweeps use this so one seed
    /// fixes the kind of every cell.
    pub fn derive_kind(seed: u64, site: FaultSite, occurrence: u64) -> FaultKind {
        let h = splitmix64(
            seed ^ (site.index() as u64).wrapping_mul(0x9e37_79b9) ^ occurrence.rotate_left(32),
        );
        FaultKind::ALL[(h % FaultKind::ALL.len() as u64) as usize]
    }

    /// Total crossings of `site` so far.
    pub fn crossings(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Records one crossing of `site`; returns the kind to fire (if any
    /// rule matches the new 1-based count) and the count itself.
    fn cross(&self, site: FaultSite) -> (u64, Option<FaultKind>) {
        let n = self.counters[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        (n, self.match_rule(site, n))
    }

    /// Records a crossing of `site` identified by a caller-supplied
    /// 1-based ordinal (used for sites crossed concurrently, where
    /// arrival order is scheduler-dependent but the ordinal is not).
    fn cross_at(&self, site: FaultSite, ordinal: u64) -> Option<FaultKind> {
        self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        self.match_rule(site, ordinal)
    }

    fn match_rule(&self, site: FaultSite, n: u64) -> Option<FaultKind> {
        let kind =
            self.rules.iter().find(|r| r.site == site && r.occurrence == n).map(|r| r.kind)?;
        self.fired.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }
}

#[derive(Debug)]
struct Inner {
    /// `u64::MAX` means unlimited.
    step_limit: u64,
    steps: AtomicU64,
    /// `usize::MAX` means unlimited.
    node_limit: usize,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    /// Ancestor whose budget this governor's steps also consume.
    parent: Option<Arc<Inner>>,
    /// Precomputed: false iff the only possible trip is cancellation,
    /// letting `checkpoint` skip all accounting on unlimited governors.
    metered: bool,
    /// Shared fault-injection plan; `None` in production (one untaken
    /// branch per checkpoint).
    faults: Option<Arc<FaultPlan>>,
}

impl Inner {
    fn charge(&self) -> Result<u64, ResourceExhausted> {
        let n = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.step_limit {
            return Err(ResourceExhausted::Steps);
        }
        Ok(n)
    }
}

/// Cancels the computation driven by a [`ResourceGovernor`] from
/// another thread (or a signal handler). Cheap to clone.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Raises the flag; every governor sharing it fails its next
    /// checkpoint with [`ResourceExhausted::Cancelled`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A shared, cloneable bundle of resource limits. See the
/// [module documentation](self) for semantics.
///
/// `Clone` shares state: all clones observe the same step counter,
/// deadline, and cancellation flag, so a governor can be handed to
/// several phases of a flow and enforce one global budget.
#[derive(Debug, Clone)]
pub struct ResourceGovernor {
    inner: Arc<Inner>,
}

impl Default for ResourceGovernor {
    fn default() -> Self {
        ResourceGovernor::unlimited()
    }
}

impl ResourceGovernor {
    fn from_parts(
        step_limit: u64,
        node_limit: usize,
        deadline: Option<Instant>,
        cancel: Arc<AtomicBool>,
        parent: Option<Arc<Inner>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let metered = step_limit != u64::MAX
            || node_limit != usize::MAX
            || deadline.is_some()
            || parent.is_some();
        ResourceGovernor {
            inner: Arc::new(Inner {
                step_limit,
                steps: AtomicU64::new(0),
                node_limit,
                deadline,
                cancel,
                parent,
                metered,
                faults,
            }),
        }
    }

    /// A governor that never trips (except through its cancel handle).
    /// `checkpoint` on an unlimited governor costs one atomic load.
    pub fn unlimited() -> Self {
        ResourceGovernor::from_parts(
            u64::MAX,
            usize::MAX,
            None,
            Arc::new(AtomicBool::new(false)),
            None,
            None,
        )
    }

    /// Replaces the recursion-step budget. Resets the step counter;
    /// intended for configuration before the governor is shared.
    pub fn with_step_limit(self, limit: u64) -> Self {
        let inner = &self.inner;
        ResourceGovernor::from_parts(
            limit,
            inner.node_limit,
            inner.deadline,
            inner.cancel.clone(),
            inner.parent.clone(),
            inner.faults.clone(),
        )
    }

    /// Replaces the live-node ceiling (total allocated nodes in the
    /// manager the budgeted operation runs in).
    pub fn with_node_limit(self, limit: usize) -> Self {
        let inner = &self.inner;
        ResourceGovernor::from_parts(
            inner.step_limit,
            limit,
            inner.deadline,
            inner.cancel.clone(),
            inner.parent.clone(),
            inner.faults.clone(),
        )
    }

    /// Sets the wall-clock deadline to `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let inner = &self.inner;
        ResourceGovernor::from_parts(
            inner.step_limit,
            inner.node_limit,
            Instant::now().checked_add(timeout),
            inner.cancel.clone(),
            inner.parent.clone(),
            inner.faults.clone(),
        )
    }

    /// Attaches a shared fault-injection plan. Every clone and fork of
    /// this governor crosses the plan's sites; a governor without a
    /// plan (the default) never fires injected faults.
    pub fn with_fault_plan(self, plan: Arc<FaultPlan>) -> Self {
        let inner = &self.inner;
        ResourceGovernor::from_parts(
            inner.step_limit,
            inner.node_limit,
            inner.deadline,
            inner.cancel.clone(),
            inner.parent.clone(),
            Some(plan),
        )
    }

    /// The attached fault plan, if any. Sub-engines that build private
    /// governors (worker forks, retry sub-budgets) inherit it through
    /// [`fork_steps`](Self::fork_steps) automatically.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.faults.as_ref()
    }

    /// Creates a child governor with a fresh step budget of `limit`.
    ///
    /// The child shares the cancellation flag, deadline, node ceiling,
    /// and fault plan, and every step it charges is *also* charged to
    /// this governor (and its ancestors). A degradation ladder gives
    /// its expensive first attempt `fork_steps(remaining / 2)`: if the
    /// attempt exhausts the fork, at least half the parent budget is
    /// still available for the cheaper fallback.
    pub fn fork_steps(&self, limit: u64) -> Self {
        let inner = &self.inner;
        ResourceGovernor::from_parts(
            limit,
            inner.node_limit,
            inner.deadline,
            inner.cancel.clone(),
            Some(self.inner.clone()),
            inner.faults.clone(),
        )
    }

    /// Steps consumed through this governor so far (including steps
    /// charged by forked children).
    pub fn steps_used(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// The live-node ceiling; `usize::MAX` if unlimited. Callers layering
    /// their own cap on an inherited governor should keep the tighter of
    /// the two.
    pub fn node_limit(&self) -> usize {
        self.inner.node_limit
    }

    /// Steps left before [`ResourceExhausted::Steps`]; `u64::MAX` if
    /// unlimited. Does not consult ancestors.
    pub fn remaining_steps(&self) -> u64 {
        if self.inner.step_limit == u64::MAX {
            return u64::MAX;
        }
        self.inner.step_limit.saturating_sub(self.steps_used())
    }

    /// A handle that cancels every computation using this governor (or
    /// any clone/fork of it), safe to move to another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle { flag: self.inner.cancel.clone() }
    }

    /// Raises the shared cancellation flag.
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the shared cancellation flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    /// Records one unit of work and checks every limit. Budgeted
    /// operations call this once per cache-miss recursion step with the
    /// manager's current total node count.
    ///
    /// Deadline checks are amortized: the clock is read once per
    /// [`DEADLINE_CHECK_PERIOD`] steps (and on the first step), so a
    /// deadline can overshoot by at most that many steps of work.
    #[inline]
    pub fn checkpoint(&self, live_nodes: usize) -> Result<(), ResourceExhausted> {
        let inner = &*self.inner;
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(ResourceExhausted::Cancelled);
        }
        if inner.faults.is_some() {
            // Every checkpoint is a cache-miss recursion step of a
            // budgeted operation: the `bdd.apply` injection site.
            self.fault_site(FaultSite::BddApply)?;
        }
        if !inner.metered {
            return Ok(());
        }
        let n = inner.charge()?;
        let mut ancestor = inner.parent.as_ref();
        while let Some(a) = ancestor {
            a.charge()?;
            ancestor = a.parent.as_ref();
        }
        if live_nodes > inner.node_limit {
            return Err(ResourceExhausted::Nodes);
        }
        if let Some(deadline) = inner.deadline {
            if (n == 1 || n % DEADLINE_CHECK_PERIOD == 0) && Instant::now() >= deadline {
                return Err(ResourceExhausted::Deadline);
            }
        }
        Ok(())
    }

    /// Checks cancellation and the wall-clock deadline *without*
    /// charging a recursion step.
    ///
    /// Loop-shaped safe points (a reachability fixpoint iteration, a
    /// sifting excursion, the CDCL search loop) call this so that a
    /// deadline or cancellation is observed at every boundary even when
    /// the body runs entirely out of warm caches and never reaches an
    /// amortized step check.
    #[inline]
    pub fn poll_interrupt(&self) -> Result<(), ResourceExhausted> {
        let inner = &*self.inner;
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(ResourceExhausted::Cancelled);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(ResourceExhausted::Deadline);
            }
        }
        Ok(())
    }

    /// Registers one crossing of a fault-injection `site`.
    ///
    /// Without an attached [`FaultPlan`] this is a no-op returning
    /// `Ok(())`. With one, the crossing is counted and — if a rule
    /// matches the new count — the fault fires: `Budget` and
    /// `AllocPressure` return the corresponding [`ResourceExhausted`],
    /// `Cancel` raises the shared flag first, and `Panic` panics (to be
    /// absorbed by the nearest isolation boundary).
    #[inline]
    pub fn fault_site(&self, site: FaultSite) -> Result<(), ResourceExhausted> {
        if let Some(plan) = &self.inner.faults {
            let (n, kind) = plan.cross(site);
            if let Some(kind) = kind {
                return Err(self.fire_fault(site, n, kind));
            }
        }
        Ok(())
    }

    /// Registers a crossing of `site` identified by a deterministic
    /// 0-based `ordinal` supplied by the caller (e.g. a parallel task's
    /// input index). Rules match `ordinal + 1` as the occurrence, so
    /// firing does not depend on scheduler arrival order.
    #[inline]
    pub fn fault_site_at(&self, site: FaultSite, ordinal: u64) -> Result<(), ResourceExhausted> {
        if let Some(plan) = &self.inner.faults {
            if let Some(kind) = plan.cross_at(site, ordinal + 1) {
                return Err(self.fire_fault(site, ordinal + 1, kind));
            }
        }
        Ok(())
    }

    #[cold]
    fn fire_fault(&self, site: FaultSite, n: u64, kind: FaultKind) -> ResourceExhausted {
        match kind {
            FaultKind::Budget => ResourceExhausted::Steps,
            FaultKind::AllocPressure => ResourceExhausted::Nodes,
            FaultKind::Cancel => {
                self.inner.cancel.store(true, Ordering::Relaxed);
                ResourceExhausted::Cancelled
            }
            FaultKind::Panic => {
                panic!("injected fault: simulated worker panic at {site} (crossing {n})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let gov = ResourceGovernor::unlimited();
        for _ in 0..10_000 {
            assert_eq!(gov.checkpoint(usize::MAX - 1), Ok(()));
        }
        assert_eq!(gov.steps_used(), 0, "unlimited governor skips accounting");
    }

    #[test]
    fn step_budget_trips_exactly() {
        let gov = ResourceGovernor::unlimited().with_step_limit(5);
        for _ in 0..5 {
            assert_eq!(gov.checkpoint(0), Ok(()));
        }
        assert_eq!(gov.checkpoint(0), Err(ResourceExhausted::Steps));
        assert_eq!(gov.remaining_steps(), 0);
    }

    #[test]
    fn node_ceiling_trips() {
        let gov = ResourceGovernor::unlimited().with_node_limit(100);
        assert_eq!(gov.checkpoint(100), Ok(()));
        assert_eq!(gov.checkpoint(101), Err(ResourceExhausted::Nodes));
    }

    #[test]
    fn deadline_in_the_past_trips_on_first_step() {
        let gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(gov.checkpoint(0), Err(ResourceExhausted::Deadline));
    }

    #[test]
    fn cancel_handle_works_across_clones() {
        let gov = ResourceGovernor::unlimited().with_step_limit(1000);
        let clone = gov.clone();
        let handle = gov.cancel_handle();
        assert_eq!(clone.checkpoint(0), Ok(()));
        handle.cancel();
        assert_eq!(clone.checkpoint(0), Err(ResourceExhausted::Cancelled));
        assert_eq!(gov.checkpoint(0), Err(ResourceExhausted::Cancelled));
        assert!(gov.is_cancelled());
    }

    #[test]
    fn fork_charges_parent() {
        let parent = ResourceGovernor::unlimited().with_step_limit(10);
        let child = parent.fork_steps(4);
        for _ in 0..4 {
            assert_eq!(child.checkpoint(0), Ok(()));
        }
        assert_eq!(child.checkpoint(0), Err(ResourceExhausted::Steps));
        // The failed checkpoint still charged the child counter but the
        // parent keeps the 4 successful steps plus the failed attempt.
        assert_eq!(parent.steps_used(), 4);
        assert_eq!(parent.remaining_steps(), 6);
        for _ in 0..6 {
            assert_eq!(parent.checkpoint(0), Ok(()));
        }
        assert_eq!(parent.checkpoint(0), Err(ResourceExhausted::Steps));
    }

    #[test]
    fn fork_shares_cancellation() {
        let parent = ResourceGovernor::unlimited();
        let child = parent.fork_steps(100);
        parent.cancel();
        assert_eq!(child.checkpoint(0), Err(ResourceExhausted::Cancelled));
    }

    #[test]
    fn fault_rule_parses_cli_syntax() {
        let rule: FaultRule = "image.cluster:2:budget".parse().unwrap();
        assert_eq!(
            rule,
            FaultRule { site: FaultSite::ImageCluster, occurrence: 2, kind: FaultKind::Budget }
        );
        assert!("image.cluster:0:budget".parse::<FaultRule>().is_err(), "1-based");
        assert!("nope:1:budget".parse::<FaultRule>().is_err());
        assert!("bdd.apply:1:explode".parse::<FaultRule>().is_err());
        assert!("bdd.apply:1".parse::<FaultRule>().is_err());
        for site in FaultSite::ALL {
            assert_eq!(site.as_str().parse::<FaultSite>().unwrap(), site);
        }
    }

    #[test]
    fn fault_fires_at_exact_crossing() {
        let plan = Arc::new(FaultPlan::new(7).with_rule(FaultSite::BddGc, 3, FaultKind::Budget));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan.clone());
        assert_eq!(gov.fault_site(FaultSite::BddGc), Ok(()));
        assert_eq!(gov.fault_site(FaultSite::BddGc), Ok(()));
        assert_eq!(gov.fault_site(FaultSite::BddGc), Err(ResourceExhausted::Steps));
        assert_eq!(gov.fault_site(FaultSite::BddGc), Ok(()), "fires once, at the 3rd crossing");
        assert_eq!(plan.crossings(FaultSite::BddGc), 4);
        assert_eq!(plan.faults_fired(), 1);
    }

    #[test]
    fn cancel_fault_raises_shared_flag() {
        let plan =
            Arc::new(FaultPlan::new(0).with_rule(FaultSite::ReachFixpoint, 1, FaultKind::Cancel));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        let sibling = gov.clone();
        assert_eq!(gov.fault_site(FaultSite::ReachFixpoint), Err(ResourceExhausted::Cancelled));
        assert_eq!(sibling.checkpoint(0), Err(ResourceExhausted::Cancelled));
    }

    #[test]
    fn alloc_pressure_fault_reads_as_node_ceiling() {
        let plan =
            Arc::new(FaultPlan::new(0).with_rule(FaultSite::BddApply, 2, FaultKind::AllocPressure));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        assert_eq!(gov.checkpoint(0), Ok(()));
        assert_eq!(gov.checkpoint(0), Err(ResourceExhausted::Nodes));
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_fault_panics() {
        let plan =
            Arc::new(FaultPlan::new(0).with_rule(FaultSite::SynthDecompose, 1, FaultKind::Panic));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        let _ = gov.fault_site(FaultSite::SynthDecompose);
    }

    #[test]
    fn fork_inherits_fault_plan() {
        let plan = Arc::new(FaultPlan::new(0).with_rule(FaultSite::BddApply, 2, FaultKind::Budget));
        let parent = ResourceGovernor::unlimited().with_fault_plan(plan.clone());
        let child = parent.fork_steps(1000).with_node_limit(10_000);
        assert_eq!(child.checkpoint(0), Ok(()));
        assert_eq!(child.checkpoint(0), Err(ResourceExhausted::Steps), "fault, not budget");
        assert_eq!(plan.crossings(FaultSite::BddApply), 2);
    }

    #[test]
    fn ordinal_crossings_ignore_arrival_order() {
        let plan = Arc::new(FaultPlan::new(0).with_rule(FaultSite::ParTask, 2, FaultKind::Budget));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        // Tasks arrive out of order; only ordinal 1 (occurrence 2) fires.
        assert_eq!(gov.fault_site_at(FaultSite::ParTask, 3), Ok(()));
        assert_eq!(gov.fault_site_at(FaultSite::ParTask, 0), Ok(()));
        assert_eq!(gov.fault_site_at(FaultSite::ParTask, 1), Err(ResourceExhausted::Steps));
        assert_eq!(gov.fault_site_at(FaultSite::ParTask, 2), Ok(()));
    }

    #[test]
    fn derived_kinds_are_deterministic_and_cover() {
        let mut seen = std::collections::HashSet::new();
        for site in FaultSite::ALL {
            for occ in 1..=8 {
                let a = FaultPlan::derive_kind(42, site, occ);
                let b = FaultPlan::derive_kind(42, site, occ);
                assert_eq!(a, b);
                seen.insert(a);
            }
        }
        assert_eq!(seen.len(), FaultKind::ALL.len(), "all kinds appear across the sweep");
    }

    #[test]
    fn sites_parse_and_index_densely() {
        assert_eq!("sat.encode".parse::<FaultSite>().unwrap(), FaultSite::SatEncode);
        assert_eq!("netlist.sweep".parse::<FaultSite>().unwrap(), FaultSite::NetlistSweep);
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }

    #[test]
    fn poll_interrupt_observes_cancel_and_deadline() {
        let gov = ResourceGovernor::unlimited();
        assert_eq!(gov.poll_interrupt(), Ok(()));
        gov.cancel();
        assert_eq!(gov.poll_interrupt(), Err(ResourceExhausted::Cancelled));

        let gov = ResourceGovernor::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(gov.poll_interrupt(), Err(ResourceExhausted::Deadline));
    }
}
