//! Intervals of Boolean functions (§3.2.1).
//!
//! `[l(x), u(x)] = { f : l(x) ≤ f(x) ≤ u(x) }` represents an incompletely
//! specified function by its lower and upper bounds. The interval is
//! *consistent* (non-empty) iff `l ≤ u`.

use symbi_bdd::{Manager, NodeId, ResourceExhausted, ResourceGovernor, VarId};

/// An incompletely specified Boolean function, as the interval `[l, u]`.
///
/// # Example
///
/// ```
/// use symbi_bdd::Manager;
/// use symbi_core::Interval;
///
/// // Example 3.1 of the paper: [x̄y, x + y] holds four functions.
/// let mut m = Manager::new();
/// let x = m.new_var();
/// let y = m.new_var();
/// let nx = m.not(x);
/// let lower = m.and(nx, y);
/// let upper = m.or(x, y);
/// let iv = Interval::new(lower, upper);
/// assert!(iv.is_consistent(&mut m));
/// let dc = iv.dontcare_set(&mut m);
/// assert_eq!(m.sat_count(dc, 2), 2); // dc = x
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Lower bound: every member covers it.
    pub lower: NodeId,
    /// Upper bound: every member is contained in it.
    pub upper: NodeId,
}

impl Interval {
    /// Creates an interval from explicit bounds (not checked for
    /// consistency; see [`Interval::is_consistent`]).
    pub fn new(lower: NodeId, upper: NodeId) -> Self {
        Interval { lower, upper }
    }

    /// The degenerate interval `[f, f]` of a completely specified function.
    pub fn exact(f: NodeId) -> Self {
        Interval { lower: f, upper: f }
    }

    /// The interval `[f·¬dc, f + dc]`: function `f` with don't-care set
    /// `dc` — how unreachable states widen a signal's specification
    /// (§3.5.1).
    pub fn with_dontcare(m: &mut Manager, f: NodeId, dc: NodeId) -> Self {
        Interval::try_with_dontcare(m, f, dc, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Consistency (non-emptiness): `lower ≤ upper`.
    pub fn is_consistent(&self, m: &mut Manager) -> bool {
        self.try_is_consistent(m, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Is the completely specified `f` a member of this interval?
    pub fn contains(&self, m: &mut Manager, f: NodeId) -> bool {
        self.try_contains(m, f, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// The don't-care set `¬l · u`.
    pub fn dontcare_set(&self, m: &mut Manager) -> NodeId {
        self.try_dontcare_set(m, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Is the interval a single completely specified function?
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// The complemented interval `[ū, l̄]` (used for AND decomposition via
    /// OR duality, §3.3.1).
    pub fn complement(&self, m: &mut Manager) -> Interval {
        self.try_complement(m, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Abstraction `∀vars [l, u] = [∃vars l, ∀vars u]` (§3.2.1): the
    /// sub-interval of members that are vacuous in (independent of)
    /// `vars`. May be inconsistent — Example 3.2 abstracts `y` from
    /// `[x̄y, x+y]` and obtains the empty `[x̄, x]`.
    pub fn abstract_vars(&self, m: &mut Manager, vars: &[VarId]) -> Interval {
        self.try_abstract_vars(m, vars, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Union of the bounds' supports.
    pub fn support(&self, m: &Manager) -> Vec<VarId> {
        let mut s = m.support(self.lower);
        s.extend(m.support(self.upper));
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Greedily abstracts every variable whose removal keeps the interval
    /// consistent, "selecting a dependence on the least number of
    /// variables" (§3.5.1). Returns the reduced interval and the variables
    /// removed.
    ///
    /// Greedy order is ascending variable id; the result is maximal (no
    /// further single abstraction applies) though not necessarily optimal
    /// across all subsets — use [`crate::param::abstraction_choices`] for
    /// the exhaustive symbolic version.
    pub fn reduce_support(&self, m: &mut Manager) -> (Interval, Vec<VarId>) {
        self.try_reduce_support(m, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    /// Picks one member function, heuristically small: vacuous variables
    /// are abstracted first, then the lower bound is Coudert–Madre
    /// [`Manager::restrict`]ed to the care set `l + ū` (don't-care points
    /// float to whatever shrinks the BDD). Any member would be correct.
    pub fn pick_member(&self, m: &mut Manager) -> NodeId {
        self.try_pick_member(m, &ResourceGovernor::unlimited())
            .expect("unlimited governor cannot trip")
    }

    // --- Governed forms -------------------------------------------------
    //
    // The bodies of the methods above, with every BDD operation routed
    // through the governor; each plain method runs its form here under an
    // unlimited governor.

    /// Budgeted [`Interval::with_dontcare`].
    pub fn try_with_dontcare(
        m: &mut Manager,
        f: NodeId,
        dc: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<Self, ResourceExhausted> {
        Ok(Interval { lower: m.try_diff(f, dc, gov)?, upper: m.try_or(f, dc, gov)? })
    }

    /// Budgeted [`Interval::is_consistent`].
    pub fn try_is_consistent(
        &self,
        m: &mut Manager,
        gov: &ResourceGovernor,
    ) -> Result<bool, ResourceExhausted> {
        m.try_leq(self.lower, self.upper, gov)
    }

    /// Budgeted [`Interval::contains`].
    pub fn try_contains(
        &self,
        m: &mut Manager,
        f: NodeId,
        gov: &ResourceGovernor,
    ) -> Result<bool, ResourceExhausted> {
        Ok(m.try_leq(self.lower, f, gov)? && m.try_leq(f, self.upper, gov)?)
    }

    /// Budgeted [`Interval::dontcare_set`].
    pub fn try_dontcare_set(
        &self,
        m: &mut Manager,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        m.try_diff(self.upper, self.lower, gov)
    }

    /// Budgeted [`Interval::complement`].
    pub fn try_complement(
        &self,
        m: &mut Manager,
        gov: &ResourceGovernor,
    ) -> Result<Interval, ResourceExhausted> {
        Ok(Interval { lower: m.try_not(self.upper, gov)?, upper: m.try_not(self.lower, gov)? })
    }

    /// Budgeted [`Interval::abstract_vars`].
    pub fn try_abstract_vars(
        &self,
        m: &mut Manager,
        vars: &[VarId],
        gov: &ResourceGovernor,
    ) -> Result<Interval, ResourceExhausted> {
        Ok(Interval {
            lower: m.try_exists(self.lower, vars, gov)?,
            upper: m.try_forall(self.upper, vars, gov)?,
        })
    }

    /// Budgeted [`Interval::reduce_support`].
    pub fn try_reduce_support(
        &self,
        m: &mut Manager,
        gov: &ResourceGovernor,
    ) -> Result<(Interval, Vec<VarId>), ResourceExhausted> {
        let mut current = *self;
        let mut removed = Vec::new();
        for v in self.support(m) {
            let candidate = current.try_abstract_vars(m, &[v], gov)?;
            if candidate.try_is_consistent(m, gov)? {
                current = candidate;
                removed.push(v);
            }
        }
        Ok((current, removed))
    }

    /// Budgeted [`Interval::pick_member`].
    pub fn try_pick_member(
        &self,
        m: &mut Manager,
        gov: &ResourceGovernor,
    ) -> Result<NodeId, ResourceExhausted> {
        let (reduced, _) = self.try_reduce_support(m, gov)?;
        if reduced.is_exact() {
            return Ok(reduced.lower);
        }
        let dc = reduced.try_dontcare_set(m, gov)?;
        let care = m.try_not(dc, gov)?;
        let candidate = m.try_restrict(reduced.lower, care, gov)?;
        if reduced.try_contains(m, candidate, gov)? {
            Ok(candidate)
        } else {
            // `restrict` may leave the interval on don't-care points of
            // inconsistent polarity; clamp back into the bounds.
            let t = m.try_or(candidate, reduced.lower, gov)?;
            m.try_and(t, reduced.upper, gov)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy(m: &mut Manager) -> (NodeId, NodeId) {
        (m.new_var(), m.new_var())
    }

    /// The paper's running interval `[x̄y, x+y]`.
    fn example_interval(m: &mut Manager) -> Interval {
        let (x, y) = xy(m);
        let nx = m.not(x);
        let lower = m.and(nx, y);
        let upper = m.or(x, y);
        Interval::new(lower, upper)
    }

    #[test]
    fn example_3_1_membership() {
        let mut m = Manager::new();
        let iv = example_interval(&mut m);
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        assert!(iv.is_consistent(&mut m));
        // The four members: x̄y, y, x ⊕ y, x + y.
        let nx = m.not(x);
        let nxy = m.and(nx, y);
        let xor = m.xor(x, y);
        let or = m.or(x, y);
        for f in [nxy, y, xor, or] {
            assert!(iv.contains(&mut m, f));
        }
        // Non-members.
        let and = m.and(x, y);
        assert!(!iv.contains(&mut m, and));
        assert!(!iv.contains(&mut m, x));
        assert!(!iv.contains(&mut m, NodeId::TRUE));
        // Don't-care set is x.
        assert_eq!(iv.dontcare_set(&mut m), x);
    }

    #[test]
    fn example_3_2_abstractions() {
        let mut m = Manager::new();
        let iv = example_interval(&mut m);
        let y = m.var(VarId(1));
        // ∀x[x̄y, x+y] = [y, y]: unique member vacuous in x.
        let abs_x = iv.abstract_vars(&mut m, &[VarId(0)]);
        assert!(abs_x.is_consistent(&mut m));
        assert!(abs_x.is_exact());
        assert_eq!(abs_x.lower, y);
        // Abstraction of y yields the empty interval [x̄, x].
        let abs_y = iv.abstract_vars(&mut m, &[VarId(1)]);
        assert!(!abs_y.is_consistent(&mut m));
    }

    #[test]
    fn with_dontcare_bounds() {
        let mut m = Manager::new();
        let (x, y) = xy(&mut m);
        let f = m.or(x, y);
        let dc = m.and(x, y);
        let iv = Interval::with_dontcare(&mut m, f, dc);
        assert!(iv.is_consistent(&mut m));
        let xor = m.xor(x, y);
        assert_eq!(iv.lower, xor);
        assert_eq!(iv.upper, f);
        assert!(iv.contains(&mut m, f));
        assert!(iv.contains(&mut m, xor));
    }

    #[test]
    fn complement_swaps_and_negates() {
        let mut m = Manager::new();
        let iv = example_interval(&mut m);
        let comp = iv.complement(&mut m);
        assert!(comp.is_consistent(&mut m));
        // Members of the complement are complements of members.
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let xor = m.xor(x, y);
        let xnor = m.not(xor);
        assert!(iv.contains(&mut m, xor));
        assert!(comp.contains(&mut m, xnor));
        // Double complement is the identity.
        let back = comp.complement(&mut m);
        assert_eq!(back, iv);
    }

    #[test]
    fn reduce_support_removes_vacuous_vars() {
        let mut m = Manager::new();
        let vs = m.new_vars(3);
        // f = v1, but specified with don't cares that make v0 and v2
        // abstractable: [v1·v0̄, v1 + v0] — v0 is abstractable, v2 unused.
        let nv0 = m.not(vs[0]);
        let lower = m.and(vs[1], nv0);
        let upper = m.or(vs[1], vs[0]);
        let iv = Interval::new(lower, upper);
        let (reduced, removed) = iv.reduce_support(&mut m);
        assert!(reduced.is_consistent(&mut m));
        assert_eq!(removed, vec![VarId(0)]);
        assert_eq!(reduced.lower, vs[1]);
        assert_eq!(reduced.upper, vs[1]);
    }

    #[test]
    fn exact_interval_has_no_freedom() {
        let mut m = Manager::new();
        let (x, y) = xy(&mut m);
        let f = m.xor(x, y);
        let iv = Interval::exact(f);
        assert!(iv.is_exact());
        assert!(iv.dontcare_set(&mut m).is_false());
        assert_eq!(iv.pick_member(&mut m), f);
        let (reduced, removed) = iv.reduce_support(&mut m);
        assert!(removed.is_empty());
        assert_eq!(reduced, iv);
    }

    #[test]
    fn pick_member_is_a_member() {
        let mut m = Manager::new();
        let iv = example_interval(&mut m);
        let f = iv.pick_member(&mut m);
        assert!(iv.contains(&mut m, f));
        // With x abstractable, the member should be y (support 1).
        assert_eq!(m.support(f), vec![VarId(1)]);
    }
}
