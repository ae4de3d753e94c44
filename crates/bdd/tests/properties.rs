//! Property-based tests: BDD algebraic laws checked against randomly
//! generated functions (via random truth tables, so the sample space is
//! uniform over functions rather than over expression syntax).

use proptest::prelude::*;
use symbi_bdd::{combin, Manager, NodeId, ResourceGovernor, VarId};

/// Builds the function of a truth table over `n` vars (row `r` = bit `r`).
fn from_tt(m: &mut Manager, n: usize, tt: u64) -> NodeId {
    let mut f = NodeId::FALSE;
    for row in 0..1u64 << n {
        if tt >> row & 1 == 1 {
            let assignment: Vec<(VarId, bool)> =
                (0..n).map(|i| (VarId(i as u32), row >> i & 1 == 1)).collect();
            let mt = m.minterm(&assignment);
            f = m.or(f, mt);
        }
    }
    f
}

fn eval_tt(n: usize, tt: u64, row: u64) -> bool {
    let _ = n;
    tt >> row & 1 == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn construction_matches_truth_table(tt in any::<u64>()) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt);
        for row in 0..1u64 << n {
            let assignment: Vec<bool> = (0..n).map(|i| row >> i & 1 == 1).collect();
            prop_assert_eq!(m.eval(f, &assignment), eval_tt(n, tt, row));
        }
    }

    #[test]
    fn boolean_algebra_laws(tt1 in any::<u64>(), tt2 in any::<u64>(), tt3 in any::<u64>()) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        let h = from_tt(&mut m, n, tt3);
        // Distributivity.
        let gh = m.or(g, h);
        let lhs = m.and(f, gh);
        let fg = m.and(f, g);
        let fh = m.and(f, h);
        let rhs = m.or(fg, fh);
        prop_assert_eq!(lhs, rhs);
        // De Morgan.
        let fa = m.and(f, g);
        let nfa = m.not(fa);
        let nf = m.not(f);
        let ng = m.not(g);
        let dm = m.or(nf, ng);
        prop_assert_eq!(nfa, dm);
        // XOR self-inverse and associativity.
        let x1 = m.xor(f, g);
        let x2 = m.xor(x1, g);
        prop_assert_eq!(x2, f);
        let a = m.xor(f, g);
        let ab = m.xor(a, h);
        let bc = m.xor(g, h);
        let abc = m.xor(f, bc);
        prop_assert_eq!(ab, abc);
    }

    #[test]
    fn ite_consistency(tt1 in any::<u64>(), tt2 in any::<u64>(), tt3 in any::<u64>()) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        let h = from_tt(&mut m, n, tt3);
        let ite = m.ite(f, g, h);
        let fg = m.and(f, g);
        let nf = m.not(f);
        let nfh = m.and(nf, h);
        let expect = m.or(fg, nfh);
        prop_assert_eq!(ite, expect);
    }

    #[test]
    fn quantification_laws(tt in any::<u64>(), var in 0u32..6) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt);
        let v = VarId(var);
        let ex = m.exists_var(f, v);
        let fa = m.forall_var(f, v);
        // ∀x f ≤ f ≤ ∃x f.
        prop_assert!(m.leq(fa, f));
        prop_assert!(m.leq(f, ex));
        // Both results are vacuous in v.
        prop_assert!(!m.support(ex).contains(&v));
        prop_assert!(!m.support(fa).contains(&v));
        // Idempotence.
        prop_assert_eq!(m.exists_var(ex, v), ex);
        prop_assert_eq!(m.forall_var(fa, v), fa);
    }

    #[test]
    fn sat_count_agrees_with_truth_table(tt in any::<u64>()) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt);
        prop_assert_eq!(m.sat_count(f, n), u128::from(tt.count_ones()));
        let frac = m.sat_fraction(f);
        prop_assert!((frac * 64.0 - tt.count_ones() as f64).abs() < 1e-9);
    }

    #[test]
    fn compose_is_substitution(tt1 in any::<u64>(), tt2 in any::<u64>(), var in 0u32..6) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        let composed = m.compose(f, VarId(var), g);
        for row in 0..1u64 << n {
            let mut assignment: Vec<bool> = (0..n).map(|i| row >> i & 1 == 1).collect();
            let gv = m.eval(g, &assignment);
            assignment[var as usize] = gv;
            let direct = m.eval(f, &assignment);
            let mut orig: Vec<bool> = (0..n).map(|i| row >> i & 1 == 1).collect();
            orig[var as usize] = row >> var & 1 == 1;
            let via = m.eval(composed, &orig);
            prop_assert_eq!(via, direct);
        }
    }

    #[test]
    fn transfer_preserves_semantics(tt in any::<u64>()) {
        let n = 6;
        let mut src = Manager::with_vars(n);
        let f = from_tt(&mut src, n, tt);
        // Map variable i to 2i in a wider destination.
        let mut dst = Manager::with_vars(2 * n);
        let map: symbi_bdd::hash::FxHashMap<VarId, VarId> =
            (0..n as u32).map(|i| (VarId(i), VarId(2 * i))).collect();
        let g = dst.transfer_from(&src, f, &map);
        for row in 0..1u64 << n {
            let src_assign: Vec<bool> = (0..n).map(|i| row >> i & 1 == 1).collect();
            let mut dst_assign = vec![false; 2 * n];
            for i in 0..n {
                dst_assign[2 * i] = src_assign[i];
            }
            prop_assert_eq!(dst.eval(g, &dst_assign), src.eval(f, &src_assign));
        }
    }

    #[test]
    fn one_sat_is_satisfying(tt in 1u64..) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt);
        if f.is_false() {
            return Ok(());
        }
        let cube = m.one_sat(f).expect("satisfiable");
        let mut assignment = vec![false; n];
        for (v, phase) in cube {
            assignment[v.index()] = phase;
        }
        prop_assert!(m.eval(f, &assignment));
    }

    #[test]
    fn weight_functions_partition_the_space(seed in any::<u16>()) {
        let n = 5 + (seed % 3) as usize;
        let mut m = Manager::with_vars(n);
        let vars: Vec<VarId> = (0..n as u32).map(VarId).collect();
        // The w_k are pairwise disjoint and together cover everything.
        let mut union = NodeId::FALSE;
        let mut total = 0u128;
        for k in 0..=n {
            let w = combin::weight_exactly(&mut m, &vars, k);
            let overlap = m.and(union, w);
            prop_assert!(overlap.is_false());
            union = m.or(union, w);
            total += m.sat_count(w, n);
        }
        prop_assert!(union.is_true());
        prop_assert_eq!(total, 1u128 << n);
    }
}

// Starved operations: each `try_*` operation either returns the right
// function or fails with `ResourceExhausted` — it never returns a wrong
// node and never panics, no matter how starved.
//
// The plain API is the same code over the same computed table, so the
// reference runs in a fresh manager: a wrong entry cached on an
// exhaustion path cannot fool both sides. The budgeted attempts clear
// the cache before each one, so earlier work cannot mask a starvation
// path either.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn starved_twins_match_or_fail_cleanly(
        tt1 in any::<u64>(),
        tt2 in any::<u64>(),
        budget in 0u64..600,
    ) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        let h = from_tt(&mut m, n, tt1.rotate_left(17) ^ tt2);
        let qvars = [VarId(0), VarId(2), VarId(5)];
        let cube = m.cube(&qvars);
        let gov = || ResourceGovernor::unlimited().with_step_limit(budget);

        m.clear_cache();
        let t_and = m.try_and(f, g, &gov());
        m.clear_cache();
        let t_or = m.try_or(f, g, &gov());
        m.clear_cache();
        let t_xor = m.try_xor(f, g, &gov());
        m.clear_cache();
        let t_not = m.try_not(f, &gov());
        m.clear_cache();
        let t_ite = m.try_ite(f, g, h, &gov());
        m.clear_cache();
        let t_exists = m.try_exists(f, &qvars, &gov());
        m.clear_cache();
        let t_forall = m.try_forall(f, &qvars, &gov());
        m.clear_cache();
        let t_and_exists = m.try_and_exists(f, g, cube, &gov());
        m.clear_cache();
        let t_compose = m.try_compose(f, VarId(1), g, &gov());
        m.clear_cache();
        let t_restrict = m.try_restrict(f, g, &gov());
        m.clear_cache();
        let t_constrain = m.try_constrain(f, g, &gov());

        let mut r = Manager::with_vars(n);
        let rf = from_tt(&mut r, n, tt1);
        let rg = from_tt(&mut r, n, tt2);
        let rh = from_tt(&mut r, n, tt1.rotate_left(17) ^ tt2);
        let rcube = r.cube(&qvars);
        let expected = [
            (t_and, r.and(rf, rg)),
            (t_or, r.or(rf, rg)),
            (t_xor, r.xor(rf, rg)),
            (t_not, r.not(rf)),
            (t_ite, r.ite(rf, rg, rh)),
            (t_exists, r.exists(rf, &qvars)),
            (t_forall, r.forall(rf, &qvars)),
            (t_and_exists, r.and_exists(rf, rg, rcube)),
            (t_compose, r.compose(rf, VarId(1), rg)),
            (t_restrict, r.restrict(rf, rg)),
            (t_constrain, r.constrain(rf, rg)),
        ];
        for (i, (attempt, reference)) in expected.into_iter().enumerate() {
            // A clean refusal is always acceptable; a wrong node never is.
            if let Ok(node) = attempt {
                for row in 0..1u64 << n {
                    let assignment: Vec<bool> = (0..n).map(|b| row >> b & 1 == 1).collect();
                    prop_assert_eq!(
                        m.eval(node, &assignment),
                        r.eval(reference, &assignment),
                        "operation {} differs on row {}",
                        i,
                        row
                    );
                }
            }
        }
    }

    #[test]
    fn constrain_and_restrict_agree_with_f_on_the_care_set(
        tt1 in any::<u64>(),
        tt2 in any::<u64>(),
    ) {
        // The generalized-cofactor contract `constrain(f, c) · c ≡ f · c`
        // (same for restrict) — exactly the property that makes both
        // safe as cluster/frontier simplifiers in the image engine.
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let c = from_tt(&mut m, n, tt2);
        let fc = m.and(f, c);
        let con = m.constrain(f, c);
        let con_c = m.and(con, c);
        prop_assert_eq!(con_c, fc, "constrain broke the care contract");
        let res = m.restrict(f, c);
        let res_c = m.and(res, c);
        prop_assert_eq!(res_c, fc, "restrict broke the care contract");
        // Restrict never gains support; constrain may, but only from c.
        let supp_f = m.support(f);
        let supp_res = m.support(res);
        prop_assert!(supp_res.iter().all(|v| supp_f.contains(v)));
    }

    #[test]
    fn gc_preserves_rooted_semantics(
        tt1 in any::<u64>(),
        tt2 in any::<u64>(),
        tt3 in any::<u64>(),
        tt4 in any::<u64>(),
        keep_mask in any::<u8>(),
        force_twice in any::<bool>(),
    ) {
        // Eight functions from four seeds: each seed and its negation.
        let tts = [tt1, !tt1, tt2, !tt2, tt3, !tt3, tt4, !tt4];
        // A collection with a random subset of the built functions as
        // roots must leave every kept root semantically intact, must
        // never increase the live count, and a second collection with
        // the same roots must find nothing more to free.
        let n = 6;
        let mut m = Manager::with_vars(n);
        let built: Vec<NodeId> = tts.iter().map(|&tt| from_tt(&mut m, n, tt)).collect();
        // Extra garbage on top: pairwise products that nobody roots.
        for w in built.windows(2) {
            m.and(w[0], w[1]);
        }
        let kept: Vec<(usize, NodeId)> = built
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| keep_mask >> i & 1 == 1)
            .collect();
        let roots: Vec<NodeId> = kept.iter().map(|&(_, f)| f).collect();
        let live_before = m.stats().nodes;
        m.gc_with_roots(&roots);
        let live_after = m.stats().nodes;
        prop_assert!(live_after <= live_before, "sweep grew the live count");
        for &(i, f) in &kept {
            for row in 0..1u64 << n {
                let assignment: Vec<bool> = (0..n).map(|b| row >> b & 1 == 1).collect();
                prop_assert_eq!(m.eval(f, &assignment), eval_tt(n, tts[i], row));
            }
        }
        if force_twice {
            let freed = m.gc_with_roots(&roots);
            prop_assert_eq!(freed, 0, "second sweep with identical roots freed nodes");
            prop_assert_eq!(m.stats().nodes, live_after);
        }
        // Hash consing must still be canonical over the survivors:
        // rebuilding a kept function lands on the very same node.
        for &(i, f) in &kept {
            let rebuilt = from_tt(&mut m, n, tts[i]);
            prop_assert_eq!(rebuilt, f);
        }
    }

    #[test]
    fn gc_with_no_roots_keeps_only_infrastructure(tt1 in any::<u64>(), tt2 in any::<u64>()) {
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        m.xor(f, g);
        m.gc_with_roots(&[]);
        // Terminals plus the n single-variable nodes (implicit roots)
        // are all that survive an empty root set.
        prop_assert_eq!(m.stats().nodes, 2 + n);
    }

    #[test]
    fn sift_in_place_preserves_semantics(
        tt1 in any::<u64>(),
        tt2 in any::<u64>(),
        tt3 in any::<u64>(),
        tt4 in any::<u64>(),
    ) {
        let tts = [tt1, tt2, tt3, tt4];
        let n = 6;
        let mut m = Manager::with_vars(n);
        let built: Vec<NodeId> = tts.iter().map(|&tt| from_tt(&mut m, n, tt)).collect();
        // Sifting collects first; measure live size against that floor.
        m.gc_with_roots(&built);
        let live_before = m.stats().nodes;
        m.sift_in_place(&built);
        prop_assert!(
            m.stats().nodes <= live_before,
            "sifting may only shrink the live diagram ({} -> {})",
            live_before,
            m.stats().nodes
        );
        prop_assert_eq!(m.stats().reorder_runs, 1);
        // eval follows var ids, not levels, so agreement with the truth
        // table checks the reordered diagram end to end.
        for (i, &f) in built.iter().enumerate() {
            for row in 0..1u64 << n {
                let assignment: Vec<bool> = (0..n).map(|b| row >> b & 1 == 1).collect();
                prop_assert_eq!(m.eval(f, &assignment), eval_tt(n, tts[i], row));
            }
        }
        // The manager still works after reordering: fresh ops agree.
        let fg = m.and(built[0], built[1]);
        for row in 0..1u64 << n {
            let assignment: Vec<bool> = (0..n).map(|b| row >> b & 1 == 1).collect();
            let expect = eval_tt(n, tts[0], row) && eval_tt(n, tts[1], row);
            prop_assert_eq!(m.eval(fg, &assignment), expect);
        }
    }

    #[test]
    fn manager_survives_exhaustion(tt1 in any::<u64>(), tt2 in any::<u64>()) {
        // A zero-step governor refuses all non-trivial work, but the
        // manager stays fully usable afterwards: a plain retry gives the
        // conjunction of the two truth tables.
        let n = 6;
        let mut m = Manager::with_vars(n);
        let f = from_tt(&mut m, n, tt1);
        let g = from_tt(&mut m, n, tt2);
        m.clear_cache();
        let starved = ResourceGovernor::unlimited().with_step_limit(0);
        let attempt = m.try_and(f, g, &starved);
        if let Ok(node) = attempt {
            // Only terminal shortcuts can succeed with zero steps.
            prop_assert!(
                f.is_terminal() || g.is_terminal() || f == g,
                "zero budget finished non-trivial work: {node:?}"
            );
        }
        let retry = m.and(f, g);
        let reference = from_tt(&mut m, n, tt1 & tt2);
        prop_assert_eq!(retry, reference);
    }
}
