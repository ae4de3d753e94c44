//! The BDD manager: unique table, computed table, and Boolean connectives.
//!
//! The kernel underneath the public API is engineered like a classic
//! BDD package (CUDD lineage):
//!
//! * the unique table is an open-addressed, power-of-two hash table of
//!   node indices probed linearly — one cache line of candidate slots
//!   per `mk` instead of a `HashMap` bucket walk;
//! * the computed table is a bounded, lossy, direct-mapped cache that
//!   overwrites on collision and therefore never grows past
//!   [`KernelConfig::cache_bits`];
//! * nodes are reclaimed by mark-and-sweep garbage collection driven by
//!   an explicit root set ([`Manager::protect`] / [`Ref`] guards) plus
//!   the always-live variable nodes and registered substitutions, with
//!   a dead-ratio auto-trigger at caller-declared safe points
//!   ([`Manager::maybe_gc`]);
//! * variable reordering is true in-place Rudell sifting via
//!   adjacent-level swaps with a growth-abort bound
//!   ([`Manager::sift_in_place`]).

use crate::budgeted::UNMETERED;
use crate::governor::{FaultSite, ResourceExhausted, ResourceGovernor};
use crate::hash::FxHashMap;
use crate::node::{Node, TERMINAL_LEVEL};
use crate::{NodeId, VarId};

/// Operation tags for the computed-table cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Not,
    And,
    Or,
    Xor,
    Ite,
    Exists,
    Forall,
    Compose,
    VCompose,
    Restrict,
    Constrain,
}

pub(crate) type CacheKey = (Op, u32, u32, u32);

/// `var` tag of a node slot sitting on the free list. Distinct from
/// [`TERMINAL_LEVEL`] (`u32::MAX`), which tags the two terminals.
pub(crate) const FREE_LEVEL: u32 = u32::MAX - 1;

/// Tuning knobs of the BDD kernel, set per manager.
///
/// The defaults match the synthesis flow: a computed cache bounded at
/// `2^18` slots, garbage collection armed with an 8k-node floor, and
/// automatic reordering off (reordering changes node counts, which the
/// deterministic parallel flow relies on being schedule-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Upper bound on the computed cache: at most `2^cache_bits` slots.
    /// The cache starts small and doubles under miss pressure, so tiny
    /// scratch managers never pay for a big allocation.
    pub cache_bits: u32,
    /// Whether [`Manager::maybe_gc`] is allowed to collect at all.
    pub auto_gc: bool,
    /// Auto-GC never fires below this many live nodes.
    pub gc_min_nodes: usize,
    /// Whether [`Manager::maybe_gc`] may also trigger in-place sifting.
    pub auto_reorder: bool,
    /// Live-node count at which auto-reordering first triggers.
    pub reorder_threshold: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cache_bits: 18,
            auto_gc: true,
            gc_min_nodes: 8192,
            auto_reorder: false,
            reorder_threshold: 1 << 16,
        }
    }
}

// ---------------------------------------------------------------------
// Open-addressed unique table
// ---------------------------------------------------------------------

const SLOT_EMPTY: u32 = u32::MAX;
const SLOT_TOMB: u32 = u32::MAX - 1;
const UNIQUE_MIN_SLOTS: usize = 1 << 10;

/// Fx-style mix of a node key with a final avalanche so the low bits —
/// the only ones a power-of-two mask keeps — depend on every input bit.
#[inline]
fn key_hash(var: u32, lo: NodeId, hi: NodeId) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = (var as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ lo.0 as u64).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ hi.0 as u64).wrapping_mul(SEED);
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

/// Open-addressed, power-of-two table mapping `(var, lo, hi)` keys to
/// node indices. Keys live in the node array itself; a slot holds only
/// the index. Linear probing, tombstones on removal, wholesale rehash
/// (dropping tombstones) when load reaches 3/4.
#[derive(Debug, Clone)]
struct UniqueTable {
    slots: Vec<u32>,
    occupied: usize,
    tombstones: usize,
}

impl UniqueTable {
    fn new() -> Self {
        UniqueTable { slots: vec![SLOT_EMPTY; UNIQUE_MIN_SLOTS], occupied: 0, tombstones: 0 }
    }

    #[inline]
    fn find(&self, nodes: &[Node], var: u32, lo: NodeId, hi: NodeId) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = key_hash(var, lo, hi) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == SLOT_EMPTY {
                return None;
            }
            if s != SLOT_TOMB {
                let n = &nodes[s as usize];
                if n.var == var && n.lo == lo && n.hi == hi {
                    return Some(s);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent (callers `find` first), filling
    /// the first tombstone on the probe path if one exists.
    #[inline]
    fn insert(&mut self, var: u32, lo: NodeId, hi: NodeId, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = key_hash(var, lo, hi) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == SLOT_EMPTY {
                self.slots[i] = id;
                self.occupied += 1;
                return;
            }
            if s == SLOT_TOMB {
                self.slots[i] = id;
                self.occupied += 1;
                self.tombstones -= 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes the entry holding exactly `id` (probed via its key).
    fn remove(&mut self, var: u32, lo: NodeId, hi: NodeId, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = key_hash(var, lo, hi) as usize & mask;
        loop {
            let s = self.slots[i];
            if s == SLOT_EMPTY {
                return; // not present — nothing to do
            }
            if s == id {
                self.slots[i] = SLOT_TOMB;
                self.occupied -= 1;
                self.tombstones += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Grows (or just rehashes away tombstones) when the table is 3/4
    /// full counting tombstones. Call before `insert`.
    #[inline]
    fn maybe_grow(&mut self, nodes: &[Node]) {
        if (self.occupied + self.tombstones + 1) * 4 < self.slots.len() * 3 {
            return;
        }
        // Double only when genuinely full of live entries; a table
        // clogged by tombstones rehashes at the same size.
        let target = if (self.occupied + 1) * 2 >= self.slots.len() {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        self.rehash(nodes, target);
    }

    fn rehash(&mut self, nodes: &[Node], target: usize) {
        let old = std::mem::replace(&mut self.slots, vec![SLOT_EMPTY; target]);
        self.occupied = 0;
        self.tombstones = 0;
        let mask = target - 1;
        for s in old {
            if s == SLOT_EMPTY || s == SLOT_TOMB {
                continue;
            }
            let n = &nodes[s as usize];
            let mut i = key_hash(n.var, n.lo, n.hi) as usize & mask;
            while self.slots[i] != SLOT_EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
            self.occupied += 1;
        }
    }

    /// Rebuilds the table from scratch over the live (non-free,
    /// non-terminal) nodes — used after a sweep or compaction.
    fn rebuild(&mut self, nodes: &[Node]) {
        let live = nodes
            .iter()
            .filter(|n| n.var != TERMINAL_LEVEL && n.var != FREE_LEVEL)
            .count();
        let mut target = UNIQUE_MIN_SLOTS;
        while live * 2 >= target {
            target *= 2;
        }
        self.slots = vec![SLOT_EMPTY; target];
        self.occupied = 0;
        self.tombstones = 0;
        let mask = target - 1;
        for (idx, n) in nodes.iter().enumerate() {
            if n.var == TERMINAL_LEVEL || n.var == FREE_LEVEL {
                continue;
            }
            let mut i = key_hash(n.var, n.lo, n.hi) as usize & mask;
            while self.slots[i] != SLOT_EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = idx as u32;
            self.occupied += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Bounded lossy computed cache
// ---------------------------------------------------------------------

const CACHE_MIN_BITS: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    k0: u64,
    k1: u64,
    r: u32,
}

const CACHE_SLOT_EMPTY: CacheSlot = CacheSlot { k0: 0, k1: 0, r: u32::MAX };

/// Direct-mapped computed table: a fixed power-of-two slot array that
/// overwrites on collision. Bounded by construction, so the memory
/// ceiling is a config knob rather than a function of the workload.
/// Starts at `2^8` slots and doubles under miss pressure up to
/// `2^max_bits`, so small scratch managers stay cheap.
#[derive(Debug, Clone)]
pub(crate) struct ComputedCache {
    slots: Vec<CacheSlot>,
    entries: usize,
    hits: u64,
    misses: u64,
    misses_since_resize: u64,
    max_bits: u32,
}

#[inline]
fn cache_pack(key: CacheKey) -> (u64, u64) {
    let (op, a, b, c) = key;
    (((op as u64) << 32) | a as u64, ((b as u64) << 32) | c as u64)
}

#[inline]
fn cache_index(k0: u64, k1: u64, mask: usize) -> usize {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = k0.wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ k1).wrapping_mul(SEED);
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    (h ^ (h >> 32)) as usize & mask
}

impl ComputedCache {
    fn new(max_bits: u32) -> Self {
        let bits = CACHE_MIN_BITS.min(max_bits.max(1));
        ComputedCache {
            slots: vec![CACHE_SLOT_EMPTY; 1 << bits],
            entries: 0,
            hits: 0,
            misses: 0,
            misses_since_resize: 0,
            max_bits: max_bits.max(1),
        }
    }

    #[inline]
    pub(crate) fn get(&mut self, key: CacheKey) -> Option<NodeId> {
        let (k0, k1) = cache_pack(key);
        let slot = self.slots[cache_index(k0, k1, self.slots.len() - 1)];
        if slot.r != u32::MAX && slot.k0 == k0 && slot.k1 == k1 {
            self.hits += 1;
            Some(NodeId(slot.r))
        } else {
            self.misses += 1;
            self.misses_since_resize += 1;
            None
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, key: CacheKey, r: NodeId) {
        if self.misses_since_resize > (self.slots.len() as u64) * 2
            && self.slots.len() < (1usize << self.max_bits)
        {
            self.grow();
        }
        let (k0, k1) = cache_pack(key);
        let i = cache_index(k0, k1, self.slots.len() - 1);
        let slot = &mut self.slots[i];
        if slot.r == u32::MAX {
            self.entries += 1;
        }
        *slot = CacheSlot { k0, k1, r: r.0 };
    }

    /// Doubles the slot array, re-placing surviving entries.
    fn grow(&mut self) {
        let target = (self.slots.len() * 2).min(1 << self.max_bits);
        let old = std::mem::replace(&mut self.slots, vec![CACHE_SLOT_EMPTY; target]);
        self.entries = 0;
        self.misses_since_resize = 0;
        let mask = self.slots.len() - 1;
        for s in old {
            if s.r == u32::MAX {
                continue;
            }
            let slot = &mut self.slots[cache_index(s.k0, s.k1, mask)];
            if slot.r == u32::MAX {
                self.entries += 1;
            }
            *slot = s;
        }
    }

    /// Wipes every entry but keeps the current slot array — used after
    /// reordering and compaction, when cached results name moved or
    /// re-purposed ids.
    fn invalidate(&mut self) {
        self.slots.fill(CACHE_SLOT_EMPTY);
        self.entries = 0;
        self.misses_since_resize = 0;
    }

    /// Purges only the entries that mention a freed node, keeping the
    /// rest warm — the sweep does not move survivors, so their cached
    /// results stay valid. Must run right after the sweep, before any
    /// allocation can recycle a freed slot. Fields that encode
    /// variables or substitution ids rather than nodes are checked
    /// conservatively (a dead-looking alias purges a valid entry, which
    /// only costs a recomputation, never correctness).
    fn retain_live(&mut self, nodes: &[Node]) {
        let live = |x: u32| {
            let i = x as usize;
            i >= nodes.len() || nodes[i].var != FREE_LEVEL
        };
        for slot in &mut self.slots {
            if slot.r == u32::MAX {
                continue;
            }
            let a = slot.k0 as u32;
            let b = (slot.k1 >> 32) as u32;
            let c = slot.k1 as u32;
            if !(live(slot.r) && live(a) && live(b) && live(c)) {
                *slot = CACHE_SLOT_EMPTY;
                self.entries -= 1;
            }
        }
    }

    /// Drops the entries *and* the memory, shrinking back to the
    /// initial size.
    fn shrink(&mut self) {
        *self = ComputedCache::new(self.max_bits);
    }

    fn set_max_bits(&mut self, max_bits: u32) {
        self.max_bits = max_bits.max(1);
        if self.slots.len() > (1 << self.max_bits) {
            self.shrink();
        }
    }
}

// ---------------------------------------------------------------------
// Root handles
// ---------------------------------------------------------------------

/// A counted guard naming a node the garbage collector must keep.
///
/// Obtained from [`Manager::protect`]; hand it back to
/// [`Manager::release`] when the function may die. The guard is a plain
/// token (no `Drop` magic — the manager is not behind shared ownership),
/// so it is `#[must_use]`: losing one leaks a root until the manager is
/// dropped, which is safe but defeats collection.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a Ref pins its node until released — hold it or release it"]
pub struct Ref {
    id: NodeId,
}

impl Ref {
    /// The protected node.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.id
    }
}

/// The explicit root set: a multiset of node ids the collector treats
/// as live. Managed through [`Manager::protect`] / [`Manager::release`].
#[derive(Debug, Clone, Default)]
pub struct RootSet {
    counts: FxHashMap<u32, u32>,
}

impl RootSet {
    #[inline]
    fn add(&mut self, id: NodeId) {
        *self.counts.entry(id.0).or_insert(0) += 1;
    }

    #[inline]
    fn remove(&mut self, id: NodeId) {
        match self.counts.get_mut(&id.0) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.counts.remove(&id.0);
            }
            None => panic!("release of an unprotected node {id}"),
        }
    }

    fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.counts.keys().map(|&k| NodeId(k))
    }

    /// Number of distinct protected nodes.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no node is protected.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// A reduced ordered BDD manager.
///
/// All functions built through one manager share structure via hash
/// consing, so node equality ([`NodeId`] equality) is function equality.
/// Dead nodes are reclaimed by mark-and-sweep collection: callers pin
/// long-lived functions with [`Manager::protect`] (or pass them as
/// explicit roots to [`Manager::gc_with_roots`] / [`Manager::maybe_gc`])
/// and everything unreachable from the root set, the variable nodes and
/// the registered substitutions is swept. Collection only happens at
/// those explicit calls — never in the middle of an operation — so ids
/// held across a sequence of operations without an intervening GC call
/// remain valid.
///
/// # Example
///
/// ```
/// use symbi_bdd::Manager;
/// let mut m = Manager::new();
/// let (a, b, c) = (m.new_var(), m.new_var(), m.new_var());
/// // Majority of three variables.
/// let ab = m.and(a, b);
/// let ac = m.and(a, c);
/// let bc = m.and(b, c);
/// let maj = m.or_many([ab, ac, bc]);
/// assert_eq!(m.sat_count(maj, 3), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    unique: UniqueTable,
    pub(crate) cache: ComputedCache,
    num_vars: u32,
    var_nodes: Vec<NodeId>,
    /// Variable → level (its position in the order, 0 = top).
    var2level: Vec<u32>,
    /// Level → variable (inverse of `var2level`).
    level2var: Vec<u32>,
    pub(crate) substitutions: Vec<FxHashMap<u32, NodeId>>,
    root_set: RootSet,
    config: KernelConfig,
    /// Head of the intrusive free list threaded through dead slots
    /// (`lo` of a free slot is the next free index); `u32::MAX` = empty.
    free_head: u32,
    free_count: usize,
    peak_live: usize,
    /// Live-node count at which the next auto-GC fires.
    gc_threshold: usize,
    gc_runs: u64,
    gc_freed: u64,
    reorder_runs: u64,
    /// Live-node count at which the next auto-reorder fires.
    reorder_at: usize,
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new()
    }
}

/// Size statistics for a [`Manager`], as returned by [`Manager::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ManagerStats {
    /// Live nodes, including the two terminals.
    pub nodes: usize,
    /// Allocated node slots (live + free-listed), including terminals.
    pub allocated: usize,
    /// High-water mark of the live-node count.
    pub peak_live: usize,
    /// Number of declared variables.
    pub vars: usize,
    /// Entries currently held in the computed table.
    pub cache_entries: usize,
    /// Computed-table lookups that hit.
    pub cache_hits: u64,
    /// Computed-table lookups that missed.
    pub cache_misses: u64,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub gc_freed: u64,
    /// In-place reorderings performed.
    pub reorder_runs: u64,
}

impl Manager {
    /// Creates an empty manager with no variables and default
    /// [`KernelConfig`].
    pub fn new() -> Self {
        Manager::with_kernel_config(KernelConfig::default())
    }

    /// Creates an empty manager with the given kernel configuration.
    pub fn with_kernel_config(config: KernelConfig) -> Self {
        let mut m = Manager {
            nodes: Vec::with_capacity(1 << 12),
            unique: UniqueTable::new(),
            cache: ComputedCache::new(config.cache_bits),
            num_vars: 0,
            var_nodes: Vec::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            substitutions: Vec::new(),
            root_set: RootSet::default(),
            config,
            free_head: u32::MAX,
            free_count: 0,
            peak_live: 2,
            gc_threshold: config.gc_min_nodes.max(2),
            gc_runs: 0,
            gc_freed: 0,
            reorder_runs: 0,
            reorder_at: config.reorder_threshold.max(2),
        };
        // Index 0: FALSE, index 1: TRUE.
        m.nodes.push(Node { var: TERMINAL_LEVEL, lo: NodeId::FALSE, hi: NodeId::FALSE });
        m.nodes.push(Node { var: TERMINAL_LEVEL, lo: NodeId::TRUE, hi: NodeId::TRUE });
        m
    }

    /// Creates a manager with `n` variables already declared.
    pub fn with_vars(n: usize) -> Self {
        let mut m = Manager::new();
        for _ in 0..n {
            m.new_var();
        }
        m
    }

    /// The kernel configuration in effect.
    pub fn kernel_config(&self) -> KernelConfig {
        self.config
    }

    /// Replaces the kernel configuration. A smaller cache bound takes
    /// effect immediately; GC/reorder thresholds re-arm from the new
    /// floors.
    pub fn set_kernel_config(&mut self, config: KernelConfig) {
        self.config = config;
        self.cache.set_max_bits(config.cache_bits);
        self.gc_threshold = self.gc_threshold.max(config.gc_min_nodes.max(2));
        self.reorder_at = self.reorder_at.max(config.reorder_threshold.max(2));
    }

    /// Declares a fresh variable at the bottom of the order and returns its
    /// positive literal.
    pub fn new_var(&mut self) -> NodeId {
        let v = self.num_vars;
        self.num_vars += 1;
        self.var2level.push(v);
        self.level2var.push(v);
        let node = self.mk(v, NodeId::FALSE, NodeId::TRUE);
        self.var_nodes.push(node);
        node
    }

    /// Creates a manager whose variable *order* is the given permutation:
    /// `order[i]` is the variable sitting at level `i` (level 0 = top).
    /// All `order.len()` variables are declared; [`VarId`]s keep their
    /// identity independent of placement.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn with_var_order(order: &[VarId]) -> Self {
        let n = order.len();
        let mut m = Manager::with_vars(n);
        let mut var2level = vec![u32::MAX; n];
        for (lvl, v) in order.iter().enumerate() {
            assert!(v.index() < n, "order mentions undeclared variable {v}");
            assert_eq!(var2level[v.index()], u32::MAX, "duplicate variable {v} in order");
            var2level[v.index()] = lvl as u32;
        }
        m.var2level = var2level;
        m.level2var = order.iter().map(|v| v.0).collect();
        m
    }

    /// The level (order position, 0 = top) of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is undeclared.
    pub fn level_of(&self, v: VarId) -> usize {
        self.var2level[v.index()] as usize
    }

    /// The variables in order, top to bottom.
    pub fn variable_order(&self) -> Vec<VarId> {
        self.level2var.iter().map(|&v| VarId(v)).collect()
    }

    /// Rebuilds `roots` in a fresh manager whose variable order is the
    /// given permutation, returning the manager and the mapped roots.
    /// Variable identities are preserved (only levels change), so
    /// evaluation semantics are identical.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of this manager's variables.
    pub fn reordered(&self, roots: &[NodeId], order: &[VarId]) -> (Manager, Vec<NodeId>) {
        assert_eq!(order.len(), self.num_vars(), "order must cover every variable");
        let mut dst = Manager::with_var_order(order);
        let identity: crate::hash::FxHashMap<VarId, VarId> =
            (0..self.num_vars() as u32).map(|i| (VarId(i), VarId(i))).collect();
        let mapped = roots.iter().map(|&r| dst.transfer_from(self, r, &identity)).collect();
        (dst, mapped)
    }

    /// Declares `n` fresh variables, returning their positive literals.
    pub fn new_vars(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of declared variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The positive literal of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has not been declared.
    #[inline]
    pub fn var(&self, v: VarId) -> NodeId {
        self.var_nodes[v.index()]
    }

    /// The literal of variable `v` with the given phase.
    pub fn literal(&mut self, v: VarId, positive: bool) -> NodeId {
        let node = self.var(v);
        if positive {
            node
        } else {
            self.not(node)
        }
    }

    /// Top variable (level) of `f`; `None` for terminals.
    #[inline]
    pub fn top_var(&self, f: NodeId) -> Option<VarId> {
        let v = self.nodes[f.index()].var;
        (v != TERMINAL_LEVEL).then_some(VarId(v))
    }

    #[inline]
    pub(crate) fn level(&self, f: NodeId) -> u32 {
        let v = self.nodes[f.index()].var;
        if v == TERMINAL_LEVEL {
            TERMINAL_LEVEL
        } else {
            self.var2level[v as usize]
        }
    }

    #[inline]
    pub(crate) fn var_at_level(&self, level: u32) -> u32 {
        self.level2var[level as usize]
    }

    #[inline]
    pub(crate) fn node(&self, f: NodeId) -> Node {
        self.nodes[f.index()]
    }

    /// Cofactors of `f` with respect to its own top variable.
    /// For terminals returns `(f, f)`.
    #[inline]
    pub fn branches(&self, f: NodeId) -> (NodeId, NodeId) {
        let n = self.nodes[f.index()];
        (n.lo, n.hi)
    }

    /// Live nodes (allocated minus free-listed), including terminals.
    #[inline]
    pub fn live_node_count(&self) -> usize {
        self.nodes.len() - self.free_count
    }

    /// Allocates a node slot, preferring the free list.
    #[inline]
    fn alloc(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        let id = if self.free_head != u32::MAX {
            let i = self.free_head;
            self.free_head = self.nodes[i as usize].lo.0;
            self.free_count -= 1;
            self.nodes[i as usize] = Node { var, lo, hi };
            NodeId(i)
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(Node { var, lo, hi });
            NodeId(i)
        };
        let live = self.live_node_count();
        if live > self.peak_live {
            self.peak_live = live;
        }
        id
    }

    /// Hash-consed node constructor (the `MK` of the literature).
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            self.var2level[var as usize] < self.level(lo)
                && self.var2level[var as usize] < self.level(hi),
            "ordering violated: node variable must precede both children"
        );
        if let Some(id) = self.unique.find(&self.nodes, var, lo, hi) {
            return NodeId(id);
        }
        let id = self.alloc(var, lo, hi);
        self.unique.maybe_grow(&self.nodes);
        self.unique.insert(var, lo, hi, id.0);
        id
    }

    /// Pins `f` against garbage collection, returning the guard.
    pub fn protect(&mut self, f: NodeId) -> Ref {
        if !f.is_terminal() {
            self.root_set.add(f);
        }
        Ref { id: f }
    }

    /// Releases a guard obtained from [`Manager::protect`].
    ///
    /// # Panics
    ///
    /// Panics if the guard's node is not currently protected (double
    /// release, or a guard from another manager).
    pub fn release(&mut self, r: Ref) {
        if !r.id.is_terminal() {
            self.root_set.remove(r.id);
        }
    }

    /// The current explicit root set.
    pub fn root_set(&self) -> &RootSet {
        &self.root_set
    }

    /// Negation.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.try_not(f, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Conjunction.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_and(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Disjunction.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_or(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_xor(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Exclusive nor (equivalence).
    pub fn xnor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_xnor(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_implies(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Difference `f · ¬g`.
    pub fn diff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.try_diff(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// If-then-else: `f·g + ¬f·h`.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        self.try_ite(f, g, h, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// `true` iff `f ≤ g` in the "less-than-or-equal" partial order of the
    /// paper (§3.2.1), i.e. `f → g` is a tautology.
    pub fn leq(&mut self, f: NodeId, g: NodeId) -> bool {
        self.try_leq(f, g, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Balanced conjunction of many operands.
    pub fn and_many<I: IntoIterator<Item = NodeId>>(&mut self, fs: I) -> NodeId {
        self.try_and_many(fs, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Balanced disjunction of many operands.
    pub fn or_many<I: IntoIterator<Item = NodeId>>(&mut self, fs: I) -> NodeId {
        self.try_or_many(fs, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Balanced exclusive-or of many operands.
    pub fn xor_many<I: IntoIterator<Item = NodeId>>(&mut self, fs: I) -> NodeId {
        self.try_xor_many(fs, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Cofactor of `f` with variable `v` fixed to `value`.
    pub fn cofactor(&mut self, f: NodeId, v: VarId, value: bool) -> NodeId {
        self.try_cofactor(f, v, value, &UNMETERED)
            .expect("unlimited governor cannot trip")
    }

    /// Conjunction of the positive literals of `vars` (a positive cube).
    pub fn cube(&mut self, vars: &[VarId]) -> NodeId {
        let mut sorted: Vec<VarId> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.sort_by_key(|&v| self.level_of(v));
        let mut acc = NodeId::TRUE;
        for &v in sorted.iter().rev() {
            acc = self.mk(v.0, NodeId::FALSE, acc);
        }
        acc
    }

    /// The minterm (full cube) selecting exactly `assignment` over `vars`,
    /// pairing each variable with its phase.
    pub fn minterm(&mut self, assignment: &[(VarId, bool)]) -> NodeId {
        let mut sorted: Vec<(VarId, bool)> = assignment.to_vec();
        sorted.sort_unstable_by_key(|&(v, _)| self.level_of(v));
        let mut acc = NodeId::TRUE;
        for &(v, phase) in sorted.iter().rev() {
            acc = if phase {
                self.mk(v.0, NodeId::FALSE, acc)
            } else {
                self.mk(v.0, acc, NodeId::FALSE)
            };
        }
        acc
    }

    /// Drops the computed table, returning its memory (the slot array
    /// shrinks back to its initial size). Node storage is retained.
    pub fn clear_cache(&mut self) {
        self.cache.shrink();
    }

    /// Current size statistics.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            nodes: self.live_node_count(),
            allocated: self.nodes.len(),
            peak_live: self.peak_live,
            vars: self.num_vars as usize,
            cache_entries: self.cache.entries,
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            gc_runs: self.gc_runs,
            gc_freed: self.gc_freed,
            reorder_runs: self.reorder_runs,
        }
    }
}

// ---------------------------------------------------------------------
// Garbage collection, compaction, in-place sifting
// ---------------------------------------------------------------------

impl Manager {
    /// All implicit roots: the explicit root set, the variable nodes,
    /// and every registered substitution's values.
    fn push_implicit_roots(&self, out: &mut Vec<NodeId>) {
        out.extend(self.root_set.ids());
        out.extend(self.var_nodes.iter().copied());
        for subst in &self.substitutions {
            out.extend(subst.values().copied());
        }
    }

    /// Marks everything reachable from `roots` into `marked` (a bitset
    /// indexed by node slot).
    fn mark(&self, roots: &[NodeId], marked: &mut [bool]) {
        let mut stack: Vec<u32> = Vec::new();
        for &r in roots {
            if !r.is_terminal() && !marked[r.index()] {
                marked[r.index()] = true;
                stack.push(r.0);
            }
        }
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            debug_assert_ne!(n.var, FREE_LEVEL, "marked a free slot — stale root?");
            for c in [n.lo, n.hi] {
                if !c.is_terminal() && !marked[c.index()] {
                    marked[c.index()] = true;
                    stack.push(c.0);
                }
            }
        }
    }

    /// Mark-and-sweep collection keeping `extra_roots`, the explicit
    /// root set, the variable nodes and registered substitutions.
    /// Returns the number of nodes reclaimed. Every id not reachable
    /// from those roots is invalid afterwards (its slot goes on the
    /// free list); computed-table entries naming a freed node are
    /// purged, the rest stay warm since survivors do not move.
    pub fn gc_with_roots(&mut self, extra_roots: &[NodeId]) -> usize {
        let mut roots = extra_roots.to_vec();
        self.push_implicit_roots(&mut roots);
        let mut marked = vec![false; self.nodes.len()];
        self.mark(&roots, &mut marked);
        let mut freed = 0usize;
        // Sweep high-to-low so the free list hands out low indices
        // first — allocation order (hence node ids) stays deterministic.
        for i in (2..self.nodes.len()).rev() {
            if marked[i] || self.nodes[i].var == FREE_LEVEL {
                continue;
            }
            self.nodes[i] = Node { var: FREE_LEVEL, lo: NodeId(self.free_head), hi: NodeId::FALSE };
            self.free_head = i as u32;
            self.free_count += 1;
            freed += 1;
        }
        if freed > 0 {
            self.unique.rebuild(&self.nodes);
            // Survivors did not move, so only entries naming a freed
            // node go; the rest of the computed table stays warm.
            self.cache.retain_live(&self.nodes);
        }
        self.gc_runs += 1;
        self.gc_freed += freed as u64;
        freed
    }

    /// [`Manager::gc_with_roots`] with only the implicit roots (the
    /// explicit root set, variable nodes, substitutions).
    pub fn gc(&mut self) -> usize {
        self.gc_with_roots(&[])
    }

    /// The auto-GC safe point: collects (keeping `extra_roots` plus the
    /// implicit roots) when the kernel's dead-ratio policy says it is
    /// worth it, and — when [`KernelConfig::auto_reorder`] is on — may
    /// also run in-place sifting. Call this between operations, never
    /// while holding ids outside `extra_roots`/the root set.
    ///
    /// Returns the number of nodes reclaimed (0 when the policy held
    /// fire). The trigger is a pure function of the operation history,
    /// so identical op sequences collect at identical points.
    pub fn maybe_gc(&mut self, extra_roots: &[NodeId]) -> usize {
        if !self.config.auto_gc || self.live_node_count() < self.gc_threshold {
            return 0;
        }
        let freed = self.gc_with_roots(extra_roots);
        let live = self.live_node_count();
        let floor = self.config.gc_min_nodes.max(2);
        // Mostly-live managers back off harder so we don't thrash.
        self.gc_threshold = if freed * 4 < live { (live * 4).max(floor) } else { (live * 2).max(floor) };
        if self.config.auto_reorder && live >= self.reorder_at {
            self.sift_in_place(extra_roots);
            self.reorder_runs += 1;
            let live = self.live_node_count();
            self.reorder_at = (live * 2).max(self.config.reorder_threshold.max(2));
        }
        freed
    }

    /// The governed form of [`Manager::maybe_gc`]: the `bdd.gc`
    /// fault-injection site and an interrupt poll guard the safe point
    /// *before* any mutation, so on `Err` the manager is untouched
    /// (every previously valid id stays valid) and the caller can
    /// degrade or unwind with all roots intact.
    pub fn try_maybe_gc(
        &mut self,
        extra_roots: &[NodeId],
        gov: &ResourceGovernor,
    ) -> Result<usize, ResourceExhausted> {
        gov.fault_site(FaultSite::BddGc)?;
        gov.poll_interrupt()?;
        Ok(self.maybe_gc(extra_roots))
    }

    /// Collects and *compacts*: live nodes slide down to a contiguous
    /// prefix (preserving their relative order, so operand-normalized
    /// results stay deterministic), the node array is truncated and
    /// shrunk, and the remapped `roots` are returned. Keeps the same
    /// roots as [`Manager::gc_with_roots`]. All prior ids are invalid
    /// afterwards — including previously protected ones, whose root-set
    /// entries are remapped in place.
    pub fn compact(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut all = roots.to_vec();
        self.push_implicit_roots(&mut all);
        let mut marked = vec![false; self.nodes.len()];
        self.mark(&all, &mut marked);
        // Order-preserving remap: terminals stay put, live nodes pack
        // ascending.
        let mut remap = vec![u32::MAX; self.nodes.len()];
        remap[0] = 0;
        remap[1] = 1;
        let mut next = 2u32;
        for i in 2..self.nodes.len() {
            if marked[i] {
                remap[i] = next;
                next += 1;
            }
        }
        // Slide: for ascending i, the target t = remap[i] satisfies
        // t <= i, and slot t's old occupant (if any) was already moved,
        // so the write never clobbers an unread live node.
        for i in 2..self.nodes.len() {
            if !marked[i] {
                continue;
            }
            let n = self.nodes[i];
            self.nodes[remap[i] as usize] = Node {
                var: n.var,
                lo: NodeId(remap[n.lo.index()]),
                hi: NodeId(remap[n.hi.index()]),
            };
        }
        self.nodes.truncate(next as usize);
        self.nodes.shrink_to_fit();
        self.free_head = u32::MAX;
        self.free_count = 0;
        self.var_nodes = self.var_nodes.iter().map(|v| NodeId(remap[v.index()])).collect();
        for subst in &mut self.substitutions {
            for v in subst.values_mut() {
                *v = NodeId(remap[v.index()]);
            }
        }
        let old_roots = std::mem::take(&mut self.root_set);
        for (id, count) in old_roots.counts {
            let new = remap[id as usize];
            *self.root_set.counts.entry(new).or_insert(0) += count;
        }
        self.unique.rebuild(&self.nodes);
        self.cache.shrink();
        self.gc_runs += 1;
        self.gc_freed += (marked.len() - next as usize) as u64;
        roots.iter().map(|r| NodeId(remap[r.index()])).collect()
    }

    /// In-place Rudell sifting: moves each variable (most populous
    /// first) through the order by adjacent-level swaps, keeps the best
    /// level seen, and aborts a variable's excursion when the diagram
    /// grows past 120% of its best size. Ids reachable from `roots`,
    /// the root set, the variable nodes and registered substitutions
    /// remain valid (nodes are rewritten in place, never moved);
    /// everything else is collected first.
    pub fn sift_in_place(&mut self, roots: &[NodeId]) {
        self.try_sift_in_place(roots, &UNMETERED)
            .expect("unlimited governor cannot trip");
    }

    /// The governed form of [`Manager::sift_in_place`]: crosses the
    /// `bdd.sift` fault-injection site and polls for interruption
    /// before each variable's excursion. On `Err` the sift stops at a
    /// whole-variable boundary — the diagram is canonical there, all
    /// ids reachable from `roots` plus the implicit roots stay valid,
    /// and the (order-dependent) computed table has been invalidated —
    /// so a cancelled reorder degrades to "partially improved order",
    /// never to a corrupt manager.
    pub fn try_sift_in_place(
        &mut self,
        roots: &[NodeId],
        gov: &ResourceGovernor,
    ) -> Result<(), ResourceExhausted> {
        let n = self.num_vars as usize;
        if n < 2 {
            return Ok(());
        }
        self.gc_with_roots(roots);
        // External + structural reference counts; a node is freed the
        // moment its count returns to zero during a swap.
        let mut refs = vec![0u32; self.nodes.len()];
        for i in 2..self.nodes.len() {
            let nd = self.nodes[i];
            if nd.var == FREE_LEVEL {
                continue;
            }
            for c in [nd.lo, nd.hi] {
                if !c.is_terminal() {
                    refs[c.index()] += 1;
                }
            }
        }
        let mut ext = roots.to_vec();
        self.push_implicit_roots(&mut ext);
        for r in ext {
            if !r.is_terminal() {
                refs[r.index()] += 1;
            }
        }
        let mut by_var: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 2..self.nodes.len() {
            let v = self.nodes[i].var;
            if v != FREE_LEVEL {
                by_var[v as usize].push(i as u32);
            }
        }
        // Most-populous-first agenda, ties by variable index.
        let mut agenda: Vec<u32> = (0..n as u32).collect();
        agenda.sort_by_key(|&v| (std::cmp::Reverse(by_var[v as usize].len()), v));
        let mut verdict = Ok(());
        for v in agenda {
            if let Err(e) = gov.fault_site(FaultSite::BddSift).and_then(|_| gov.poll_interrupt()) {
                verdict = Err(e);
                break;
            }
            self.sift_one(v, &mut refs, &mut by_var);
        }
        // Levels may have changed even on the early-out path; the
        // order-dependent computed table must go either way.
        self.cache.invalidate();
        self.reorder_runs += 1;
        verdict
    }

    /// Sifts one variable: down to the bottom, back up to the top,
    /// then to the best level seen, aborting an excursion direction
    /// when size exceeds the growth bound.
    fn sift_one(&mut self, v: u32, refs: &mut Vec<u32>, by_var: &mut [Vec<u32>]) {
        let n = self.num_vars as usize;
        let start = self.var2level[v as usize] as usize;
        let mut best_size = self.live_node_count();
        let bound = best_size + best_size / 5;
        let mut best_level = start;
        let mut cur = start;
        while cur + 1 < n {
            self.swap_adjacent(cur, refs, by_var);
            cur += 1;
            let s = self.live_node_count();
            if s < best_size {
                best_size = s;
                best_level = cur;
            }
            if s > bound {
                break;
            }
        }
        while cur > 0 {
            self.swap_adjacent(cur - 1, refs, by_var);
            cur -= 1;
            let s = self.live_node_count();
            if s < best_size {
                best_size = s;
                best_level = cur;
            }
            if s > bound {
                break;
            }
        }
        while cur < best_level {
            self.swap_adjacent(cur, refs, by_var);
            cur += 1;
        }
        while cur > best_level {
            self.swap_adjacent(cur - 1, refs, by_var);
            cur -= 1;
        }
    }

    /// Hash-consed constructor used inside a swap, where the level
    /// invariant is transiently violated (so `mk`'s debug assertion
    /// cannot be used). Maintains `refs` and `by_var`.
    fn mk_sift(
        &mut self,
        var: u32,
        lo: NodeId,
        hi: NodeId,
        refs: &mut Vec<u32>,
        by_var: &mut [Vec<u32>],
    ) -> NodeId {
        if lo == hi {
            return lo;
        }
        if let Some(id) = self.unique.find(&self.nodes, var, lo, hi) {
            return NodeId(id);
        }
        let id = self.alloc(var, lo, hi);
        if id.index() >= refs.len() {
            refs.resize(id.index() + 1, 0);
        }
        for c in [lo, hi] {
            if !c.is_terminal() {
                refs[c.index()] += 1;
            }
        }
        self.unique.maybe_grow(&self.nodes);
        self.unique.insert(var, lo, hi, id.0);
        by_var[var as usize].push(id.0);
        id
    }

    /// Drops one structural reference to `f`, freeing it (and
    /// cascading) when the count reaches zero.
    fn dec_ref(&mut self, f: NodeId, refs: &mut [u32]) {
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if g.is_terminal() {
                continue;
            }
            refs[g.index()] -= 1;
            if refs[g.index()] == 0 {
                let nd = self.nodes[g.index()];
                self.unique.remove(nd.var, nd.lo, nd.hi, g.0);
                self.nodes[g.index()] =
                    Node { var: FREE_LEVEL, lo: NodeId(self.free_head), hi: NodeId::FALSE };
                self.free_head = g.0;
                self.free_count += 1;
                stack.push(nd.lo);
                stack.push(nd.hi);
            }
        }
    }

    /// Swaps levels `l` and `l + 1`. Only nodes of the upper variable
    /// that depend on the lower one are rewritten (in place, keeping
    /// their ids — external references survive); independent upper
    /// nodes just change level implicitly via the level maps.
    fn swap_adjacent(&mut self, l: usize, refs: &mut Vec<u32>, by_var: &mut [Vec<u32>]) {
        let x = self.level2var[l];
        let y = self.level2var[l + 1];
        // Snapshot the upper variable's nodes; the list may hold stale
        // or duplicate ids from earlier swaps (freed slots, reuse), so
        // filter to slots still tagged `x` and dedup.
        let snapshot = std::mem::take(&mut by_var[x as usize]);
        let mut list: Vec<u32> =
            snapshot.into_iter().filter(|&i| self.nodes[i as usize].var == x).collect();
        list.sort_unstable();
        list.dedup();
        let mut keep: Vec<u32> = Vec::new();
        for &i in &list {
            let nd = self.nodes[i as usize];
            let lo_y = !nd.lo.is_terminal() && self.nodes[nd.lo.index()].var == y;
            let hi_y = !nd.hi.is_terminal() && self.nodes[nd.hi.index()].var == y;
            if !lo_y && !hi_y {
                // Independent of y: stays an x-node, one level lower.
                keep.push(i);
                continue;
            }
            let (f00, f01) = if lo_y {
                let c = self.nodes[nd.lo.index()];
                (c.lo, c.hi)
            } else {
                (nd.lo, nd.lo)
            };
            let (f10, f11) = if hi_y {
                let c = self.nodes[nd.hi.index()];
                (c.lo, c.hi)
            } else {
                (nd.hi, nd.hi)
            };
            self.unique.remove(x, nd.lo, nd.hi, i);
            // The new cofactor keys (x, f00, f10) have both children
            // strictly below level l + 1, so they can only collide with
            // y-independent x-nodes — which is exactly the sharing we
            // want — never with an unprocessed entry of `list`.
            let new_lo = self.mk_sift(x, f00, f10, refs, by_var);
            let new_hi = self.mk_sift(x, f01, f11, refs, by_var);
            for c in [new_lo, new_hi] {
                if !c.is_terminal() {
                    refs[c.index()] += 1;
                }
            }
            self.nodes[i as usize] = Node { var: y, lo: new_lo, hi: new_hi };
            self.unique.maybe_grow(&self.nodes);
            self.unique.insert(y, new_lo, new_hi, i);
            by_var[y as usize].push(i);
            self.dec_ref(nd.lo, refs);
            self.dec_ref(nd.hi, refs);
        }
        // mk_sift has been pushing fresh x-nodes into by_var[x].
        by_var[x as usize].extend(keep);
        self.level2var.swap(l, l + 1);
        self.var2level[x as usize] = (l + 1) as u32;
        self.var2level[y as usize] = l as u32;
    }

    /// In-place sifting on a clone: returns the sifted manager and the
    /// mapped roots (ids are preserved by in-place sifting, so the
    /// mapping is the identity).
    ///
    /// Complexity is the classic Rudell bound — each variable makes one
    /// excursion through the order via adjacent swaps that touch only
    /// the two levels involved — rather than the `O(vars² · size)`
    /// rebuild-per-trial of the previous implementation.
    pub fn sifted(&self, roots: &[NodeId]) -> (Manager, Vec<NodeId>) {
        let mut m = self.clone();
        m.sift_in_place(roots);
        (m, roots.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three(m: &mut Manager) -> (NodeId, NodeId, NodeId) {
        (m.new_var(), m.new_var(), m.new_var())
    }

    #[test]
    fn constants_are_canonical() {
        let m = Manager::new();
        assert_eq!(m.stats().nodes, 2);
        assert!(NodeId::FALSE.is_false());
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let f1 = m.and(a, b);
        let f2 = m.and(b, a);
        assert_eq!(f1, f2);
        let before = m.stats().nodes;
        let _ = m.and(a, b);
        assert_eq!(m.stats().nodes, before);
    }

    #[test]
    fn involution_of_not() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let f = m.xor(a, b);
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn de_morgan() {
        let mut m = Manager::new();
        let (a, b, c) = three(&mut m);
        let ab = m.and(a, b);
        let abc = m.and(ab, c);
        let lhs = m.not(abc);
        let (na, nb, nc) = (m.not(a), m.not(b), m.not(c));
        let rhs = m.or_many([na, nb, nc]);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_is_mux() {
        let mut m = Manager::new();
        let (s, a, b) = three(&mut m);
        let f = m.ite(s, a, b);
        let sa = m.and(s, a);
        let ns = m.not(s);
        let nsb = m.and(ns, b);
        let g = m.or(sa, nsb);
        assert_eq!(f, g);
    }

    #[test]
    fn xor_via_ite() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let nb = m.not(b);
        let f = m.ite(a, nb, b);
        let g = m.xor(a, b);
        assert_eq!(f, g);
    }

    #[test]
    fn leq_partial_order() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let ab = m.and(a, b);
        let aorb = m.or(a, b);
        // ab ≤ a ≤ a+b, and the order is not total.
        assert!(m.leq(ab, a));
        assert!(m.leq(a, aorb));
        assert!(m.leq(ab, aorb));
        assert!(!m.leq(aorb, ab));
        assert!(!m.leq(a, b));
        assert!(!m.leq(b, a));
    }

    #[test]
    fn cube_and_minterm() {
        let mut m = Manager::new();
        let (a, b, c) = three(&mut m);
        let cube = m.cube(&[VarId(0), VarId(2)]);
        let ac = m.and(a, c);
        assert_eq!(cube, ac);
        let mt = m.minterm(&[(VarId(0), true), (VarId(1), false), (VarId(2), true)]);
        let nb = m.not(b);
        let expect = m.and_many([a, nb, c]);
        assert_eq!(mt, expect);
    }

    #[test]
    fn many_op_identities() {
        let mut m = Manager::new();
        assert_eq!(m.and_many([]), NodeId::TRUE);
        assert_eq!(m.or_many([]), NodeId::FALSE);
        assert_eq!(m.xor_many([]), NodeId::FALSE);
        let a = m.new_var();
        assert_eq!(m.and_many([a]), a);
        assert_eq!(m.xor_many([a, a]), NodeId::FALSE);
    }

    #[test]
    fn implies_and_diff() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let ab = m.and(a, b);
        let imp = m.implies(ab, a);
        assert!(imp.is_true());
        let d = m.diff(a, ab);
        let nb = m.not(b);
        let anb = m.and(a, nb);
        assert_eq!(d, anb);
    }

    #[test]
    fn cofactor_shannon() {
        let mut m = Manager::new();
        let (a, b, c) = three(&mut m);
        let bc = m.or(b, c);
        let f = m.and(a, bc); // a(b+c)
        let f1 = m.cofactor(f, VarId(0), true);
        let f0 = m.cofactor(f, VarId(0), false);
        assert_eq!(f1, bc);
        assert!(f0.is_false());
        // Shannon expansion rebuilds f.
        let re = m.ite(a, f1, f0);
        assert_eq!(re, f);
    }

    // --- kernel: GC, rooting, compaction, caching ---

    #[test]
    fn gc_reclaims_unrooted_nodes_and_keeps_rooted_ones() {
        let mut m = Manager::new();
        let (a, b, c) = three(&mut m);
        let ab = m.and(a, b);
        let keep = m.or(ab, c);
        let guard = m.protect(keep);
        // Dead weight: a function nothing roots.
        let x = m.xor(a, c);
        let _dead = m.and(x, b);
        let live_before = m.live_node_count();
        let freed = m.gc();
        assert!(freed > 0, "the xor cone is unrooted and must be swept");
        assert!(m.live_node_count() < live_before);
        // The kept function still evaluates correctly.
        assert!(m.eval(keep, &[true, true, false]));
        assert!(!m.eval(keep, &[false, true, false]));
        // Rebuilding the dead function re-derives nodes without issue.
        let x2 = m.xor(a, c);
        let _ = m.and(x2, b);
        m.release(guard);
    }

    #[test]
    fn gc_reuses_freed_slots() {
        let mut m = Manager::new();
        let (a, b, c) = three(&mut m);
        let t = m.and(a, b);
        let _dead = m.or(t, c);
        let allocated = m.stats().allocated;
        let freed = m.gc();
        assert!(freed > 0);
        // Rebuilding an equal-sized cone fits entirely in freed slots.
        let t2 = m.and(a, b);
        let _f2 = m.or(t2, c);
        assert_eq!(m.stats().allocated, allocated, "free slots must be reused");
    }

    #[test]
    fn compact_preserves_semantics_and_shrinks() {
        let mut m = Manager::with_vars(4);
        let vs: Vec<NodeId> = (0..4).map(|i| m.var(VarId(i))).collect();
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        // Garbage to make compaction non-trivial.
        let g = m.xor(vs[0], vs[3]);
        let _dead = m.and(g, vs[1]);
        let mapped = m.compact(&[f]);
        let f2 = mapped[0];
        assert!(m.free_count == 0 && m.stats().allocated == m.stats().nodes);
        for bits in 0..16u32 {
            let env: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let expect = (env[0] && env[1]) || (env[2] && env[3]);
            assert_eq!(m.eval(f2, &env), expect, "assignment {env:?}");
        }
        // The manager remains fully operational after compaction.
        let h = m.and(f2, vs[0].min(f2)); // arbitrary follow-up op
        let _ = m.or(h, f2);
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let mut m = Manager::new();
        let (a, b, _) = three(&mut m);
        let _ = m.and(a, b);
        let misses = m.stats().cache_misses;
        assert!(misses > 0);
        let _ = m.and(a, b);
        assert!(m.stats().cache_hits > 0, "repeat op must hit the computed table");
    }

    #[test]
    fn cache_is_bounded_by_config() {
        let cfg = KernelConfig { cache_bits: 9, ..KernelConfig::default() };
        let mut m = Manager::with_kernel_config(cfg);
        let vs = m.new_vars(14);
        // A workload far larger than 2^9 distinct subproblems.
        let mut acc = NodeId::FALSE;
        for w in vs.windows(2) {
            let t = m.and(w[0], w[1]);
            acc = m.xor(acc, t);
        }
        let parity = m.xor_many(vs.clone());
        let _ = m.and(acc, parity);
        assert!(m.stats().cache_entries <= 1 << 9, "cache must stay bounded");
    }

    #[test]
    fn clear_cache_returns_memory() {
        let mut m = Manager::new();
        let vs = m.new_vars(12);
        let _ = m.xor_many(vs);
        m.clear_cache();
        assert_eq!(m.stats().cache_entries, 0);
        assert_eq!(m.cache.slots.len(), 1 << CACHE_MIN_BITS, "slot array must shrink");
    }

    #[test]
    fn maybe_gc_respects_auto_gc_flag_and_floor() {
        let cfg = KernelConfig { auto_gc: false, ..KernelConfig::default() };
        let mut m = Manager::with_kernel_config(cfg);
        let vs = m.new_vars(8);
        let _ = m.xor_many(vs);
        assert_eq!(m.maybe_gc(&[]), 0, "auto-GC disabled");
        let cfg = KernelConfig { auto_gc: true, gc_min_nodes: 1 << 20, ..KernelConfig::default() };
        m.set_kernel_config(cfg);
        assert_eq!(m.maybe_gc(&[]), 0, "below the floor");
    }

    #[test]
    fn sift_in_place_preserves_external_ids() {
        // Blocked order a0 a1 a2 b0 b1 b2 for f = Σ ai·bi — sifting
        // interleaves it, shrinking the diagram, without moving `f`.
        let mut m = Manager::with_vars(6);
        let mut terms = Vec::new();
        for i in 0..3u32 {
            let ai = m.var(VarId(i));
            let bi = m.var(VarId(i + 3));
            terms.push(m.and(ai, bi));
        }
        let f = m.or_many(terms);
        let before = m.shared_size(&[f]);
        m.sift_in_place(&[f]);
        let after = m.shared_size(&[f]);
        assert!(after <= before, "sifting must not grow the kept roots: {before} -> {after}");
        for bits in 0..64u32 {
            let env: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            let expect = (0..3).any(|i| env[i] && env[i + 3]);
            assert_eq!(m.eval(f, &env), expect, "assignment {env:?}");
        }
        // The manager still hash-conses correctly post-sift.
        let t0 = m.var(VarId(0));
        let t3 = m.var(VarId(3));
        let x = m.and(t0, t3);
        let y = m.and(t3, t0);
        assert_eq!(x, y);
    }

    #[test]
    fn cancelled_sift_stops_at_a_variable_boundary_and_stays_canonical() {
        use crate::governor::{FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        let mut m = Manager::with_vars(6);
        let mut terms = Vec::new();
        for i in 0..3u32 {
            let ai = m.var(VarId(i));
            let bi = m.var(VarId(i + 3));
            terms.push(m.and(ai, bi));
        }
        let f = m.or_many(terms);
        let runs_before = m.stats().reorder_runs;
        // Cancellation observed at the *second* excursion boundary: one
        // variable has already moved when the sift unwinds.
        let plan =
            Arc::new(FaultPlan::new(9).with_rule(FaultSite::BddSift, 2, FaultKind::Cancel));
        let gov = ResourceGovernor::unlimited().with_fault_plan(plan);
        assert_eq!(m.try_sift_in_place(&[f], &gov), Err(ResourceExhausted::Cancelled));
        // The early-out still counts as a reorder and still invalidated
        // the order-dependent cache.
        assert_eq!(m.stats().reorder_runs, runs_before + 1);
        // The diagram is canonical at the boundary: `f` is untouched
        // semantically, …
        for bits in 0..64u32 {
            let env: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            let expect = (0..3).any(|i| env[i] && env[i + 3]);
            assert_eq!(m.eval(f, &env), expect, "assignment {env:?}");
        }
        // …a post-cancel rebuild of the same function lands on the same
        // node (hash-consing under the *current* order), …
        let mut terms2 = Vec::new();
        for i in 0..3u32 {
            let ai = m.var(VarId(i));
            let bi = m.var(VarId(i + 3));
            terms2.push(m.and(ai, bi));
        }
        assert_eq!(m.or_many(terms2), f);
        // …and a GC with `f` as root keeps it alive and consistent.
        m.gc_with_roots(&[f]);
        assert!(m.eval(f, &[true, false, false, true, false, false]));
    }

    #[test]
    fn interrupted_gc_safe_point_leaves_the_manager_untouched() {
        let mut m = Manager::with_vars(4);
        let a = m.var(VarId(0));
        let b = m.var(VarId(1));
        let f = m.and(a, b);
        // Create garbage so a GC would actually do something.
        let c = m.var(VarId(2));
        let _dead = m.xor(f, c);
        let before = m.stats();
        let gov = ResourceGovernor::unlimited();
        gov.cancel_handle().cancel();
        // The safe point checks *before* mutating: an interrupted GC
        // request must not half-collect.
        assert_eq!(m.try_maybe_gc(&[f], &gov), Err(ResourceExhausted::Cancelled));
        assert_eq!(m.stats(), before, "manager state must be untouched");
    }
}
