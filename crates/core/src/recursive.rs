//! Recursive decomposition of an interval into a tree of 2-input
//! primitives — the "applied recursively to decompose logic in terms of
//! simple primitives" step of the paper's synthesis loop (§3.5.3).
//!
//! Each step reduces vacuous variables, tries OR/AND/XOR bi-decomposition
//! (symbolically for small supports, greedily above a threshold), picks
//! the primitive with the most balanced partition, and recurses on the
//! derived sub-intervals. Don't-care freedom is propagated into the `g2`
//! sub-problem and the freshly re-derived `g1` interval, following the
//! standard interval-splitting rules:
//!
//! ```text
//! f = g1 + g2 ∈ [l, u], g1 vac. in A, g2 vac. in B
//!   g2 ∈ [∃B (l · ¬(∀A u)), ∀B u]       then
//!   g1 ∈ [∃A (l · ¬g2),      ∀A u]
//! ```
//!
//! (AND via complement duality, XOR via a verified member construction.)
//! When no non-trivial bi-decomposition exists the step falls back to a
//! Shannon expansion, which always removes one variable, so the recursion
//! terminates with leaves that are literals or constants.

use crate::{and_dec, choices::SupportPair, greedy, or_dec, sat_dec, xor_dec, DecKind, Interval};
use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// A tree of 2-input primitives over literal leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// Constant function.
    Const(bool),
    /// A literal: the variable, possibly complemented.
    Literal(VarId, bool),
    /// A 2-input gate.
    Op(DecKind, Box<Tree>, Box<Tree>),
}

impl Tree {
    /// Number of gates (internal nodes).
    pub fn num_gates(&self) -> usize {
        match self {
            Tree::Const(_) | Tree::Literal(..) => 0,
            Tree::Op(_, a, b) => 1 + a.num_gates() + b.num_gates(),
        }
    }

    /// Estimated and/inv-expansion cost: 1 AND2 per OR/AND node, 3 per
    /// XOR node (inverters are free, as in the netlist accounting).
    pub fn aig_cost(&self) -> usize {
        match self {
            Tree::Const(_) | Tree::Literal(..) => 0,
            Tree::Op(kind, a, b) => {
                let here = if *kind == DecKind::Xor { 3 } else { 1 };
                here + a.aig_cost() + b.aig_cost()
            }
        }
    }

    /// Depth in gate levels.
    pub fn depth(&self) -> usize {
        match self {
            Tree::Const(_) | Tree::Literal(..) => 0,
            Tree::Op(_, a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// The complemented tree, with negation pushed to the leaves through
    /// De Morgan's laws (XOR absorbs the complement into one operand).
    pub fn negate(self) -> Tree {
        match self {
            Tree::Const(b) => Tree::Const(!b),
            Tree::Literal(v, phase) => Tree::Literal(v, !phase),
            Tree::Op(DecKind::Or, a, b) => {
                Tree::Op(DecKind::And, Box::new(a.negate()), Box::new(b.negate()))
            }
            Tree::Op(DecKind::And, a, b) => {
                Tree::Op(DecKind::Or, Box::new(a.negate()), Box::new(b.negate()))
            }
            Tree::Op(DecKind::Xor, a, b) => Tree::Op(DecKind::Xor, Box::new(a.negate()), b),
        }
    }

    /// Evaluates the tree to a BDD (for verification).
    pub fn to_bdd(&self, m: &mut Manager) -> NodeId {
        match self {
            Tree::Const(b) => {
                if *b {
                    NodeId::TRUE
                } else {
                    NodeId::FALSE
                }
            }
            Tree::Literal(v, phase) => m.literal(*v, *phase),
            Tree::Op(kind, a, b) => {
                let fa = a.to_bdd(m);
                let fb = b.to_bdd(m);
                match kind {
                    DecKind::Or => m.or(fa, fb),
                    DecKind::And => m.and(fa, fb),
                    DecKind::Xor => m.xor(fa, fb),
                }
            }
        }
    }

    /// All leaf variables, sorted and deduplicated.
    pub fn support(&self) -> Vec<VarId> {
        fn walk(t: &Tree, out: &mut Vec<VarId>) {
            match t {
                Tree::Const(_) => {}
                Tree::Literal(v, _) => out.push(*v),
                Tree::Op(_, a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl std::fmt::Display for Tree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tree::Const(b) => write!(f, "{}", u8::from(*b)),
            Tree::Literal(v, true) => write!(f, "{v}"),
            Tree::Literal(v, false) => write!(f, "!{v}"),
            Tree::Op(kind, a, b) => write!(f, "{kind}({a}, {b})"),
        }
    }
}

/// How partitions are searched at each recursion step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Always the exhaustive symbolic `Bi` computation.
    Symbolic,
    /// Always the greedy explicit growth.
    Greedy,
    /// Symbolic up to the given support size, greedy above.
    Auto(usize),
}

/// Which engine backs the fixed-partition decomposability checks of the
/// degradation ladder's *rescue rung* (see [`try_decompose`]).
///
/// The SAT check is sound and complete for the fixed partitions the
/// rescue tries, so the backend only changes *which* budget-tripped
/// searches are saved. Under a budget that never trips, both backends
/// produce the same tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecBackend {
    /// BDD checks only: a budget trip degrades straight to greedy
    /// growth.
    Bdd,
    /// Retry a budget-tripped check on the Lee–Jiang–Hung CNF encoding
    /// ([`crate::sat_dec`]); exact intervals only.
    Sat,
}

impl std::fmt::Display for DecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecBackend::Bdd => "bdd",
            DecBackend::Sat => "sat",
        })
    }
}

impl std::str::FromStr for DecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bdd" => Ok(DecBackend::Bdd),
            "sat" => Ok(DecBackend::Sat),
            _ => Err(format!("unknown decomposability backend `{s}` (bdd|sat)")),
        }
    }
}

/// Options for [`decompose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Partition search strategy (default: symbolic below 14 variables).
    pub strategy: PartitionStrategy,
    /// Consider XOR decompositions (default: true).
    pub use_xor: bool,
    /// Backend for the rescue rung of the degradation ladder
    /// (default: [`DecBackend::Bdd`], i.e. no rescue).
    pub backend: DecBackend,
    /// Conflict budget per SAT solve in the rescue rung (default: 20k).
    pub sat_conflicts: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            strategy: PartitionStrategy::Auto(14),
            use_xor: true,
            backend: DecBackend::Bdd,
            sat_conflicts: 20_000,
        }
    }
}

/// Counters describing which steps a decomposition used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// OR bi-decomposition steps taken.
    pub or_steps: usize,
    /// AND bi-decomposition steps taken.
    pub and_steps: usize,
    /// XOR bi-decomposition steps taken.
    pub xor_steps: usize,
    /// Shannon (MUX) fallback expansions.
    pub shannon_steps: usize,
    /// Variables removed by interval abstraction.
    pub vars_abstracted: usize,
    /// Governed operations that hit a resource limit (only
    /// [`try_decompose`] increments this; unbudgeted runs report 0).
    pub budget_exhausted_ops: usize,
    /// Degradation-ladder steps taken after an exhaustion: symbolic
    /// partition search → greedy growth → Shannon expansion.
    pub fallbacks_taken: usize,
    /// Budget-tripped partition searches saved by the rescue rung (a
    /// feasible fixed split proved by the SAT backend).
    pub rescued_checks: usize,
}

/// Recursively decomposes a consistent interval into a [`Tree`] whose
/// function is a member of the interval.
///
/// # Panics
///
/// Panics if the interval is inconsistent.
pub fn decompose(m: &mut Manager, interval: &Interval, options: &Options) -> (Tree, Stats) {
    try_decompose(m, interval, options, &ResourceGovernor::unlimited())
        .expect("unlimited governor cannot trip")
}

/// Budgeted [`decompose`] with a graceful-degradation ladder.
///
/// The body of [`decompose`], with every BDD operation routed through
/// `gov`. When a *partition search* exhausts its budget the step degrades
/// instead of dying:
///
/// 1. the symbolic `Bi` computation runs under a child governor holding
///    half the remaining step budget (so a blow-up there cannot starve
///    the fallbacks),
/// 2. on exhaustion — with the [`DecBackend::Sat`] backend — the
///    *rescue rung* retries a deterministic fixed split on the SAT
///    backend instead of abandoning the partition,
/// 3. failing that, the step falls back to governed greedy growth,
/// 4. on exhaustion again, to the Shannon expansion.
///
/// Only the *structural* operations — deriving sub-intervals, Shannon
/// cofactors — propagate [`ResourceExhausted`], because without them no
/// correct tree can be produced at all. Callers (the synthesis flow) keep
/// the original cone in that case.
///
/// [`decompose`] is this function under an unlimited governor, where
/// the budget counters stay zero.
pub fn try_decompose(
    m: &mut Manager,
    interval: &Interval,
    options: &Options,
    gov: &ResourceGovernor,
) -> Result<(Tree, Stats), ResourceExhausted> {
    assert!(
        { interval.is_consistent(m) },
        "cannot decompose an empty interval"
    );
    let mut stats = Stats::default();
    let tree = try_decompose_rec(m, *interval, options, &mut stats, 0, gov)?;
    Ok((tree, stats))
}

fn try_decompose_rec(
    m: &mut Manager,
    interval: Interval,
    options: &Options,
    stats: &mut Stats,
    depth: usize,
    gov: &ResourceGovernor,
) -> Result<Tree, ResourceExhausted> {
    // 1. Abstract vacuous variables (§3.5.1 pre-processing).
    let (iv, removed) = interval.try_reduce_support(m, gov)?;
    stats.vars_abstracted += removed.len();

    // 2. Constants.
    if iv.lower.is_false() {
        return Ok(Tree::Const(false));
    }
    if iv.upper.is_true() {
        return Ok(Tree::Const(true));
    }
    let support = iv.support(m);
    debug_assert!(!support.is_empty(), "non-constant interval with empty support");

    // 3. Single literal.
    if support.len() == 1 {
        let v = support[0];
        let pos = m.var(v);
        if iv.try_contains(m, pos, gov)? {
            return Ok(Tree::Literal(v, true));
        }
        let neg = m.try_not(pos, gov)?;
        if iv.try_contains(m, neg, gov)? {
            return Ok(Tree::Literal(v, false));
        }
        unreachable!("a 1-variable non-constant interval contains a literal");
    }

    // 4. Bi-decomposition with the best balanced partition across kinds.
    // Stack depth is bounded by the support size, but guard anyway.
    if depth < 256 {
        if let Some((kind, pair)) = try_best_partition(m, &iv, &support, options, stats, gov)? {
            let a_vac: Vec<VarId> =
                support.iter().copied().filter(|v| !pair.g1_vars.contains(v)).collect();
            let b_vac: Vec<VarId> =
                support.iter().copied().filter(|v| !pair.g2_vars.contains(v)).collect();
            match kind {
                DecKind::Or => {
                    stats.or_steps += 1;
                    let (t1, t2) =
                        try_split_or(m, &iv, &a_vac, &b_vac, options, stats, depth, gov)?;
                    return Ok(Tree::Op(DecKind::Or, Box::new(t1), Box::new(t2)));
                }
                DecKind::And => {
                    stats.and_steps += 1;
                    let comp = iv.try_complement(m, gov)?;
                    let (t1, t2) =
                        try_split_or(m, &comp, &a_vac, &b_vac, options, stats, depth, gov)?;
                    return Ok(Tree::Op(
                        DecKind::And,
                        Box::new(t1.negate()),
                        Box::new(t2.negate()),
                    ));
                }
                DecKind::Xor => {
                    // An exhausted witness construction degrades to
                    // Shannon like a failed one — the ladder's last rung
                    // still produces a correct tree.
                    match xor_dec::try_witnesses(m, &iv, &support, &a_vac, &b_vac, gov) {
                        Ok(Some((g1, g2))) => {
                            stats.xor_steps += 1;
                            let t1 = try_decompose_rec(
                                m,
                                Interval::exact(g1),
                                options,
                                stats,
                                depth + 1,
                                gov,
                            )?;
                            let t2 = try_decompose_rec(
                                m,
                                Interval::exact(g2),
                                options,
                                stats,
                                depth + 1,
                                gov,
                            )?;
                            return Ok(Tree::Op(DecKind::Xor, Box::new(t1), Box::new(t2)));
                        }
                        Ok(None) => {}
                        Err(_) => {
                            stats.budget_exhausted_ops += 1;
                            stats.fallbacks_taken += 1;
                        }
                    }
                }
            }
        }
    }

    // 5. Shannon fallback: always removes one variable. The select
    // variable is chosen to balance (and ideally shrink) the cofactor
    // supports, which keeps the MUX tree shallow.
    stats.shannon_steps += 1;
    let mut best: Option<(usize, usize, VarId)> = None;
    for &v in &support {
        let hi_l = m.try_cofactor(iv.lower, v, true, gov)?;
        let hi_u = m.try_cofactor(iv.upper, v, true, gov)?;
        let lo_l = m.try_cofactor(iv.lower, v, false, gov)?;
        let lo_u = m.try_cofactor(iv.upper, v, false, gov)?;
        let hi_supp = Interval::new(hi_l, hi_u).support(m).len();
        let lo_supp = Interval::new(lo_l, lo_u).support(m).len();
        let key = (hi_supp.max(lo_supp), hi_supp + lo_supp);
        if best.is_none() || key < (best.unwrap().0, best.unwrap().1) {
            best = Some((key.0, key.1, v));
        }
    }
    let v = best.expect("non-empty support").2;
    let hi = Interval::new(
        m.try_cofactor(iv.lower, v, true, gov)?,
        m.try_cofactor(iv.upper, v, true, gov)?,
    );
    let lo = Interval::new(
        m.try_cofactor(iv.lower, v, false, gov)?,
        m.try_cofactor(iv.upper, v, false, gov)?,
    );
    let t_hi = try_decompose_rec(m, hi, options, stats, depth + 1, gov)?;
    let t_lo = try_decompose_rec(m, lo, options, stats, depth + 1, gov)?;
    // ITE(v, hi, lo) = v·hi + v̄·lo.
    let then_branch = Tree::Op(
        DecKind::And,
        Box::new(Tree::Literal(v, true)),
        Box::new(t_hi),
    );
    let else_branch = Tree::Op(
        DecKind::And,
        Box::new(Tree::Literal(v, false)),
        Box::new(t_lo),
    );
    Ok(Tree::Op(DecKind::Or, Box::new(then_branch), Box::new(else_branch)))
}

/// Derives the two OR sub-problems and recurses (shared by OR and, through
/// complementation, AND).
#[allow(clippy::too_many_arguments)]
fn try_split_or(
    m: &mut Manager,
    iv: &Interval,
    a_vac: &[VarId],
    b_vac: &[VarId],
    options: &Options,
    stats: &mut Stats,
    depth: usize,
    gov: &ResourceGovernor,
) -> Result<(Tree, Tree), ResourceExhausted> {
    let u1 = m.try_forall(iv.upper, a_vac, gov)?;
    let u2 = m.try_forall(iv.upper, b_vac, gov)?;
    // g2 covers what the maximal g1 cannot.
    let uncovered = m.try_diff(iv.lower, u1, gov)?;
    let l2 = m.try_exists(uncovered, b_vac, gov)?;
    let iv2 = Interval::new(l2, u2);
    let t2 = try_decompose_rec(m, iv2, options, stats, depth + 1, gov)?;
    let g2 = t2.to_bdd(m);
    // Re-derive g1's obligation against the concrete g2.
    let residual = m.try_diff(iv.lower, g2, gov)?;
    let l1 = m.try_exists(residual, a_vac, gov)?;
    let iv1 = Interval::new(l1, u1);
    let t1 = try_decompose_rec(m, iv1, options, stats, depth + 1, gov)?;
    Ok((t1, t2))
}

/// Best balanced non-trivial partition across the enabled kinds — the
/// degradation ladder lives here.
///
/// Per kind: the symbolic search runs under a child governor holding half
/// the remaining step budget; if it exhausts, the rescue rung (SAT
/// backend, when enabled) tries to prove a deterministic fixed split;
/// failing that, governed greedy growth takes over; if that
/// exhausts too, the kind simply reports "no partition", which steers
/// the caller into Shannon.
fn try_best_partition(
    m: &mut Manager,
    iv: &Interval,
    support: &[VarId],
    options: &Options,
    stats: &mut Stats,
    gov: &ResourceGovernor,
) -> Result<Option<(DecKind, SupportPair)>, ResourceExhausted> {
    let n = support.len();
    let symbolic = match options.strategy {
        PartitionStrategy::Symbolic => true,
        PartitionStrategy::Greedy => false,
        PartitionStrategy::Auto(limit) => n <= limit,
    };
    let mut kinds = vec![DecKind::Or, DecKind::And];
    if options.use_xor {
        kinds.push(DecKind::Xor);
    }
    let mut best: Option<(DecKind, SupportPair)> = None;
    let mut best_key = (usize::MAX, usize::MAX, usize::MAX);
    for kind in kinds {
        let pair = if symbolic {
            let sub = gov.fork_steps(gov.remaining_steps() / 2);
            let attempt = (|| {
                let mut ch = match kind {
                    DecKind::Or => or_dec::Choices::try_compute(m, iv, support, &sub)?,
                    DecKind::And => and_dec::Choices::try_compute(m, iv, support, &sub)?,
                    DecKind::Xor => xor_dec::Choices::try_compute(m, iv, support, &sub)?,
                };
                ch.try_pick_balanced_partition(&sub)
            })();
            match attempt {
                Ok(p) => p,
                Err(_) => {
                    stats.budget_exhausted_ops += 1;
                    stats.fallbacks_taken += 1;
                    // Rung 2 (sat backend): instead of
                    // abandoning the partition search, retry a
                    // deterministic fixed split on the alternate
                    // backend — SAT often dispatches exactly the cones
                    // whose BDDs blew the budget.
                    let rescued = try_rescue_pair(m, kind, iv, support, options, stats, gov);
                    if rescued.is_some() {
                        stats.rescued_checks += 1;
                        rescued
                    } else {
                        // Rung 3: greedy growth, again under half of
                        // what is left — Shannon (rung 4) must keep a
                        // share of the budget or the ladder would die
                        // on its last step.
                        let greedy_sub = gov.fork_steps(gov.remaining_steps() / 2);
                        match try_greedy_pair(m, kind, iv, support, &greedy_sub) {
                            Ok(p) => p,
                            Err(_) => {
                                // Rung 4: no partition — Shannon
                                // handles it.
                                stats.budget_exhausted_ops += 1;
                                stats.fallbacks_taken += 1;
                                None
                            }
                        }
                    }
                }
            }
        } else {
            let greedy_sub = gov.fork_steps(gov.remaining_steps() / 2);
            match try_greedy_pair(m, kind, iv, support, &greedy_sub) {
                Ok(p) => p,
                Err(_) => {
                    stats.budget_exhausted_ops += 1;
                    stats.fallbacks_taken += 1;
                    None
                }
            }
        };
        if let Some(p) = pair {
            let (k1, k2) = p.sizes();
            if k1.max(k2) >= n {
                continue; // trivial
            }
            let key = (k1.max(k2), k1 + k2, p.shared().len());
            if key < best_key {
                best_key = key;
                best = Some((kind, p));
            }
        }
    }
    Ok(best)
}

/// The rescue rung: after a budget-tripped symbolic search, prove (or
/// refute) one deterministic candidate split — the midpoint of the
/// sorted support, the split a block-structured cone actually has — on
/// the backend selected by [`Options::backend`].
///
/// Runs under a quarter-budget fork of `gov` and swallows its own
/// exhaustion: `None` simply steers the ladder to the greedy rung. The
/// candidate split and the SAT verdict are deterministic, so whether a
/// rescue succeeds is a pure function of the inputs and budgets.
fn try_rescue_pair(
    m: &mut Manager,
    kind: DecKind,
    iv: &Interval,
    support: &[VarId],
    options: &Options,
    stats: &mut Stats,
    gov: &ResourceGovernor,
) -> Option<SupportPair> {
    // The CNF encoding only handles completely specified functions.
    if options.backend == DecBackend::Bdd || support.len() < 2 || !iv.is_exact() {
        return None;
    }
    let mid = support.len() / 2;
    let g1: Vec<VarId> = support[..mid].to_vec();
    let g2: Vec<VarId> = support[mid..].to_vec();
    // Vacuous sets are the complements: g1 must not read the g2 block
    // and vice versa.
    //
    // Quarter-budget fork, not the ladder's usual half: a winning rescue
    // still has to fund the structural build of both halves afterwards,
    // and that build draws on the same parent budget the fork charges.
    let sub = gov.fork_steps(gov.remaining_steps() / 4);
    let feasible =
        sat_dec::try_decomposable(m, kind, iv, support, &g2, &g1, options.sat_conflicts, &sub)
            .map(|(dec, _)| dec);
    match feasible {
        Ok(true) => Some(SupportPair { g1_vars: g1, g2_vars: g2 }),
        Ok(false) => None,
        Err(_) => {
            stats.budget_exhausted_ops += 1;
            None
        }
    }
}

fn try_greedy_pair(
    m: &mut Manager,
    kind: DecKind,
    iv: &Interval,
    support: &[VarId],
    gov: &ResourceGovernor,
) -> Result<Option<SupportPair>, ResourceExhausted> {
    Ok(greedy::grow_governed(m, kind, iv, support, gov)?.map(|o| SupportPair {
        g1_vars: support
            .iter()
            .copied()
            .filter(|v| !o.a_vacuous.contains(v))
            .collect(),
        g2_vars: support
            .iter()
            .copied()
            .filter(|v| !o.b_vacuous.contains(v))
            .collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(m: &mut Manager, iv: &Interval, tree: &Tree) {
        let f = tree.to_bdd(m);
        assert!(iv.contains(m, f), "tree {tree} is not a member of the interval");
    }

    #[test]
    fn decomposes_simple_sop() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let f = m.or(ab, cd);
        let iv = Interval::exact(f);
        let (tree, stats) = decompose(&mut m, &iv, &Options::default());
        verify(&mut m, &iv, &tree);
        assert_eq!(tree.num_gates(), 3, "ab+cd needs exactly 3 two-input gates");
        assert_eq!(stats.shannon_steps, 0, "no fallback needed");
    }

    #[test]
    fn decomposes_parity_with_xor() {
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let t1 = m.xor(vs[0], vs[1]);
        let t2 = m.xor(vs[2], vs[3]);
        let f = m.xor(t1, t2);
        let iv = Interval::exact(f);
        let (tree, stats) = decompose(&mut m, &iv, &Options::default());
        verify(&mut m, &iv, &tree);
        assert!(stats.xor_steps >= 1, "parity must use XOR steps, got {stats:?}");
        assert_eq!(tree.num_gates(), 3);
    }

    #[test]
    fn xor_disabled_still_correct() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let t = m.xor(vs[0], vs[1]);
        let f = m.xor(t, vs[2]);
        let iv = Interval::exact(f);
        let opts = Options { use_xor: false, ..Default::default() };
        let (tree, stats) = decompose(&mut m, &iv, &opts);
        verify(&mut m, &iv, &tree);
        assert_eq!(stats.xor_steps, 0);
        assert!(stats.shannon_steps > 0, "parity without XOR forces Shannon");
    }

    #[test]
    fn majority_with_dontcare_shrinks() {
        // Figure 3.1: maj(a,b,c) with abc unreachable decomposes into
        // 2-variable halves.
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        let ab = m.and(vs[0], vs[1]);
        let ac = m.and(vs[0], vs[2]);
        let bc = m.and(vs[1], vs[2]);
        let t = m.or(ab, ac);
        let f = m.or(t, bc);
        let nb = m.not(vs[1]);
        let anb = m.and(vs[0], nb);
        let dc = m.and(anb, vs[2]); // Fig. 3.1's unreachable state a·b̄·c
        let iv = Interval::with_dontcare(&mut m, f, dc);
        let (tree, _) = decompose(&mut m, &iv, &Options::default());
        verify(&mut m, &iv, &tree);
        // Each child of the root reads at most 2 variables.
        if let Tree::Op(_, a, b) = &tree {
            assert!(a.support().len() <= 2);
            assert!(b.support().len() <= 2);
        } else {
            panic!("expected a root gate, got {tree}");
        }
    }

    #[test]
    fn constants_and_literals() {
        let mut m = Manager::new();
        let v = m.new_var();
        let (t, _) = decompose(&mut m, &Interval::exact(NodeId::TRUE), &Options::default());
        assert_eq!(t, Tree::Const(true));
        let (t, _) = decompose(&mut m, &Interval::exact(NodeId::FALSE), &Options::default());
        assert_eq!(t, Tree::Const(false));
        let (t, _) = decompose(&mut m, &Interval::exact(v), &Options::default());
        assert_eq!(t, Tree::Literal(VarId(0), true));
        let nv = m.not(v);
        let (t, _) = decompose(&mut m, &Interval::exact(nv), &Options::default());
        assert_eq!(t, Tree::Literal(VarId(0), false));
    }

    #[test]
    fn interval_preferring_constant() {
        // [0, x]: the constant 0 is a member; the decomposer should take it.
        let mut m = Manager::new();
        let v = m.new_var();
        let iv = Interval::new(NodeId::FALSE, v);
        let (t, _) = decompose(&mut m, &iv, &Options::default());
        assert_eq!(t, Tree::Const(false));
    }

    #[test]
    fn greedy_strategy_also_verifies() {
        let mut m = Manager::new();
        let vs = m.new_vars(5);
        let ab = m.and(vs[0], vs[1]);
        let cd = m.and(vs[2], vs[3]);
        let t = m.or(ab, cd);
        let f = m.or(t, vs[4]);
        let iv = Interval::exact(f);
        let opts = Options { strategy: PartitionStrategy::Greedy, ..Default::default() };
        let (tree, _) = decompose(&mut m, &iv, &opts);
        verify(&mut m, &iv, &tree);
    }

    #[test]
    fn starved_budgets_degrade_but_never_lie() {
        // Sweep step budgets from starvation upward: every Ok tree must be
        // a member of the interval; sufficiently large budgets succeed.
        let mut succeeded = false;
        let mut degraded = false;
        // Geometric sweep with ratio ≤ 1.05: the partial-degradation
        // window shifts with computed-table policy, but success-with-
        // fallback spans a >5% budget band, so this step cannot skip it.
        let mut budgets = vec![1u64];
        while *budgets.last().unwrap() < 1 << 24 {
            let b = *budgets.last().unwrap();
            budgets.push((b + b / 20).max(b + 1));
        }
        for budget in budgets {
            // Fresh manager per run: no warm cache, so small budgets bite.
            let mut fresh = Manager::new();
            let vs = fresh.new_vars(5);
            let ab = fresh.and(vs[0], vs[1]);
            let cd = fresh.and(vs[2], vs[3]);
            let t = fresh.or(ab, cd);
            let f2 = fresh.xor(t, vs[4]);
            let iv2 = Interval::exact(f2);
            let gov = ResourceGovernor::unlimited().with_step_limit(budget);
            // A starved Err is fine: no tree, but also no wrong answer.
            if let Ok((tree, stats)) = try_decompose(&mut fresh, &iv2, &Options::default(), &gov) {
                let g = tree.to_bdd(&mut fresh);
                assert!(
                    iv2.contains(&mut fresh, g),
                    "budget {budget}: tree {tree} not a member"
                );
                succeeded = true;
                if stats.budget_exhausted_ops > 0 {
                    degraded = true;
                }
            }
        }
        assert!(succeeded, "the largest budget must complete");
        assert!(degraded, "some mid-range budget must exercise the ladder");
    }

    /// Two disjoint 2-input AND blocks joined by an OR: the midpoint
    /// split of the sorted support is exactly the feasible partition,
    /// so the rescue rung's one candidate split is the right one. The
    /// function's BDD is tiny — only the symbolic `Bi` computation
    /// (a 12-variable private manager) is expensive, which is precisely
    /// the asymmetry the rescue rung exploits: the window where the
    /// symbolic search trips but the SAT check and the structural
    /// completion still fit spans a >3× budget band (measured ~1.6k to
    /// ~5.3k steps).
    fn two_block_function(m: &mut Manager) -> Interval {
        let vs = m.new_vars(4);
        let left = m.and(vs[0], vs[1]);
        let right = m.and(vs[2], vs[3]);
        let f = m.or(left, right);
        Interval::exact(f)
    }

    fn rescue_options(backend: DecBackend) -> Options {
        // XOR choices off: the XOR ladder halves the budget once more
        // per step, which narrows (but does not close) the rescue
        // window — keeping the sweep short matters more here.
        Options { backend, use_xor: false, ..Default::default() }
    }

    #[test]
    fn rescue_rung_saves_partitions_the_bdd_ladder_abandons() {
        // Sweep budgets: somewhere between starvation and plenty the
        // symbolic search trips while the SAT check still proves the
        // block split. Every Ok tree must verify on every rung.
        let mut rescued_somewhere = false;
        let mut budgets = vec![64u64];
        while *budgets.last().unwrap() < 1 << 16 {
            let b = *budgets.last().unwrap();
            budgets.push((b + b / 20).max(b + 1));
        }
        for &budget in &budgets {
            for backend in [DecBackend::Bdd, DecBackend::Sat] {
                let mut m = Manager::new();
                let iv = two_block_function(&mut m);
                let gov = ResourceGovernor::unlimited().with_step_limit(budget);
                if let Ok((tree, stats)) =
                    try_decompose(&mut m, &iv, &rescue_options(backend), &gov)
                {
                    let g = tree.to_bdd(&mut m);
                    assert!(iv.contains(&mut m, g), "budget {budget} {backend}: not a member");
                    if backend == DecBackend::Sat && stats.rescued_checks > 0 {
                        rescued_somewhere = true;
                    }
                    assert!(
                        backend != DecBackend::Bdd || stats.rescued_checks == 0,
                        "the bdd backend has no rescue rung"
                    );
                }
            }
        }
        assert!(rescued_somewhere, "some budget must exercise the SAT rescue");
    }

    #[test]
    fn unlimited_budgets_make_all_backends_identical() {
        let gov = ResourceGovernor::unlimited();
        let mut trees = Vec::new();
        for backend in [DecBackend::Bdd, DecBackend::Sat] {
            let mut m = Manager::new();
            let iv = two_block_function(&mut m);
            let opts = Options { backend, ..Default::default() };
            let (tree, stats) = try_decompose(&mut m, &iv, &opts, &gov).expect("unlimited");
            assert_eq!(stats.rescued_checks, 0, "{backend}: no budget trip, no rescue");
            assert_eq!(
                (stats.budget_exhausted_ops, stats.fallbacks_taken),
                (0, 0),
                "{backend}: an unlimited run never degrades"
            );
            trees.push(tree);
        }
        assert_eq!(trees[0], trees[1], "sat backend is inert without budget trips");
    }

    #[test]
    fn random_functions_always_verify() {
        // Deterministic pseudo-random truth tables over 5 vars; every
        // decomposition must compose back into the interval.
        let mut seed = 0xabcdef12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..10 {
            let mut m = Manager::new();
            m.new_vars(5);
            let bits: u32 = (next() & 0xffff_ffff) as u32;
            // Build f from its truth table.
            let mut f = NodeId::FALSE;
            for row in 0u32..32 {
                if bits >> (row % 32) & 1 == 1 {
                    let assignment: Vec<(VarId, bool)> =
                        (0..5).map(|i| (VarId(i), row >> i & 1 == 1)).collect();
                    let mt = m.minterm(&assignment);
                    f = m.or(f, mt);
                }
            }
            let dc_bits: u32 = (next() & 0xffff_ffff) as u32;
            let mut dc = NodeId::FALSE;
            for row in 0u32..32 {
                if dc_bits >> (row % 32) & 1 == 1 && row % 3 == 0 {
                    let assignment: Vec<(VarId, bool)> =
                        (0..5).map(|i| (VarId(i), row >> i & 1 == 1)).collect();
                    let mt = m.minterm(&assignment);
                    dc = m.or(dc, mt);
                }
            }
            let iv = Interval::with_dontcare(&mut m, f, dc);
            let (tree, _) = decompose(&mut m, &iv, &Options::default());
            let g = tree.to_bdd(&mut m);
            assert!(iv.contains(&mut m, g), "trial {trial} failed: {tree}");
        }
    }
}
