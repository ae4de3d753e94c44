//! Determinism oracle for the parallel synthesis engine.
//!
//! The parallel flow's contract is *byte-identity*: under the default
//! unlimited budget, `optimize` with `jobs = N` must produce exactly the
//! `.bench` serialization (and the same report) as `jobs = 1`, for every
//! circuit. These tests pin that contract across all four circuit
//! generator families plus proptest-driven random netlists.
//!
//! The parallel worker count is taken from `SYMBI_JOBS` (default 4) so
//! CI can sweep `--jobs 1/2/8` over the same test binary.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use symbi::circuits::{adder, industrial, iscas_like, mux};
use symbi::netlist::{bench, GateKind, Netlist, SignalId};
use symbi::synth::flow::{optimize, SynthesisOptions};

/// Worker count for the parallel arm: `SYMBI_JOBS`, default 4.
fn par_jobs() -> usize {
    std::env::var("SYMBI_JOBS").ok().and_then(|v| v.parse().ok()).filter(|&j| j > 0).unwrap_or(4)
}

/// Asserts the oracle on one circuit: byte-identical `.bench` output and
/// field-for-field identical reports between `jobs = 1` and `jobs = N`.
fn assert_deterministic(netlist: &Netlist, options: &SynthesisOptions) {
    let jobs = par_jobs();
    let (seq_net, seq_rep) = optimize(netlist, &SynthesisOptions { jobs: 1, ..*options });
    let (par_net, par_rep) = optimize(netlist, &SynthesisOptions { jobs, ..*options });
    assert_eq!(
        bench::write(&seq_net),
        bench::write(&par_net),
        "jobs={jobs} diverged from jobs=1 on `{}`",
        netlist.name()
    );
    assert_eq!(seq_rep, par_rep, "report mismatch on `{}` at jobs={jobs}", netlist.name());
}

#[test]
fn adder_is_deterministic() {
    assert_deterministic(&adder::ripple_carry(4), &SynthesisOptions::default());
}

#[test]
fn mux_is_deterministic() {
    assert_deterministic(&mux::mux(3), &SynthesisOptions::default());
}

#[test]
fn iscas_like_circuits_are_deterministic() {
    for name in ["s344", "s526"] {
        let n = iscas_like::by_name(name).expect("known circuit");
        assert_deterministic(&n, &SynthesisOptions::default());
    }
}

#[test]
fn industrial_block_is_deterministic() {
    let n = industrial::by_name("seq6").expect("known block");
    assert_deterministic(&n, &SynthesisOptions::default());
}

#[test]
fn no_state_arm_is_deterministic() {
    let n = iscas_like::by_name("s344").expect("known circuit");
    assert_deterministic(&n, &SynthesisOptions { reach: None, ..Default::default() });
}

#[test]
fn tight_partitions_are_deterministic() {
    // One-latch partitions maximize the number of parallel reach tasks.
    let n = iscas_like::by_name("s526").expect("known circuit");
    let reach = symbi::reach::ReachabilityOptions {
        partition: symbi::reach::PartitionOptions { max_latches: 1 },
        ..Default::default()
    };
    assert_deterministic(&n, &SynthesisOptions { reach: Some(reach), ..Default::default() });
}

#[test]
fn clustered_reachability_is_deterministic_across_jobs() {
    // The clustered image engine makes its decisions (merge order,
    // quantification schedule, constrain/restrict acceptance) from
    // canonical per-partition data only, so reached sets *and* every
    // ReachStats counter must be identical however many workers run.
    use symbi::reach::{Reachability, ReachabilityOptions};
    let jobs = par_jobs();
    for name in ["seq4", "seq6"] {
        let n = industrial::by_name(name).expect("known block");
        let opts = ReachabilityOptions {
            partition: symbi::reach::PartitionOptions { max_latches: 8 },
            ..Default::default()
        };
        let seq = Reachability::analyze(&n, ReachabilityOptions { jobs: 1, ..opts });
        let par = Reachability::analyze(&n, ReachabilityOptions { jobs, ..opts });
        assert!(
            seq.same_reached_sets(&par),
            "jobs={jobs} reached different sets than jobs=1 on `{name}`"
        );
        assert_eq!(seq.stats(), par.stats(), "ReachStats mismatch on `{name}` at jobs={jobs}");
    }
}

#[test]
fn backend_sweep_is_identical_at_default_budgets() {
    // Under the default unlimited budget the rescue rung never engages,
    // so the decomposability backend must be invisible: every backend ×
    // jobs combination emits the same bytes as the plain BDD ladder.
    use symbi::core::recursive::DecBackend;
    let n = iscas_like::by_name("s344").expect("known circuit");
    let mut reference: Option<String> = None;
    for backend in [DecBackend::Bdd, DecBackend::Sat] {
        let mut options = SynthesisOptions::default();
        options.decompose.backend = backend;
        assert_deterministic(&n, &options);
        let (net, report) = optimize(&n, &options);
        assert_eq!(report.steps.rescued_checks, 0, "{backend}: no budget trip, no rescue");
        let text = bench::write(&net);
        match &reference {
            None => reference = Some(text),
            Some(r) => assert_eq!(r, &text, "backend {backend} diverged from bdd"),
        }
    }
}

/// Disjoint two-block cones `(a·b) + (c·d)` — the rescue-rung family
/// (see `symbi_bench::two_block_cones`, replicated here so the oracle
/// binary does not depend on the bench crate).
fn two_block_cones(blocks: usize) -> Netlist {
    let mut n = Netlist::new("two_block");
    for i in 0..blocks {
        let a = n.add_input(format!("a{i}"));
        let b = n.add_input(format!("b{i}"));
        let c = n.add_input(format!("c{i}"));
        let d = n.add_input(format!("d{i}"));
        let ab = n.add_gate(format!("ab{i}"), GateKind::And, vec![a, b]);
        let cd = n.add_gate(format!("cd{i}"), GateKind::And, vec![c, d]);
        let o = n.add_gate(format!("o{i}"), GateKind::Or, vec![ab, cd]);
        n.add_output(format!("f{i}"), o);
    }
    n
}

#[test]
fn sat_rescue_netlist_is_reproducible_across_budgets_and_jobs() {
    // Tight budgets engage the SAT rescue rung. The rescue's candidate
    // split, its verdict and its step accounting are all deterministic,
    // so the emitted netlist is a pure function of the limits: every
    // configuration, re-run, must reproduce its bytes exactly. The
    // budget list brackets the family's rescue window so at least one
    // configuration really rescues.
    use symbi::core::recursive::DecBackend;
    let n = two_block_cones(2);
    let jobs = par_jobs();
    let mut rescued = false;
    for budget in [1024u64, 1797, 2246, 2807, 3508, 4385, 8192] {
        for j in [1, jobs] {
            let mut options = SynthesisOptions { reach: None, jobs: j, ..Default::default() };
            options.decompose.use_xor = false;
            options.decompose.backend = DecBackend::Sat;
            options.budget.candidate_steps = budget;
            let (net_a, rep_a) = optimize(&n, &options);
            let (net_b, rep_b) = optimize(&n, &options);
            assert_eq!(
                bench::write(&net_a),
                bench::write(&net_b),
                "budget {budget} jobs {j}: the rerun changed the netlist"
            );
            assert_eq!(
                rep_a.steps.rescued_checks, rep_b.steps.rescued_checks,
                "budget {budget} jobs {j}: rescue count must be reproducible"
            );
            rescued |= rep_a.steps.rescued_checks > 0;
        }
    }
    assert!(rescued, "no budget engaged the rescue rung — the oracle exercised nothing");
}

/// Seeded random sequential netlist: gates only reference earlier
/// signals, so the result is acyclic by construction.
fn random_netlist(seed: u64, n_inputs: usize, n_latches: usize, n_gates: usize) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut n = Netlist::new("rnd");
    let mut pool: Vec<SignalId> =
        (0..n_inputs).map(|i| n.add_input(format!("i{i}"))).collect();
    let latches: Vec<SignalId> =
        (0..n_latches).map(|i| n.add_latch(format!("q{i}"), rng.gen_bool(0.5))).collect();
    pool.extend(&latches);
    for g in 0..n_gates {
        let kind = match rng.gen_range(0..5usize) {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Xor,
            3 => GateKind::Nand,
            _ => GateKind::Not,
        };
        let arity = if kind.is_unary() { 1 } else { 2 };
        let fanins: Vec<SignalId> =
            (0..arity).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        pool.push(n.add_gate(format!("g{g}"), kind, fanins));
    }
    for &q in &latches {
        n.set_latch_next(q, pool[rng.gen_range(0..pool.len())]);
    }
    // A couple of outputs deep in the pool keep most of the logic alive.
    n.add_output("o0", pool[pool.len() - 1]);
    n.add_output("o1", pool[pool.len() / 2]);
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_netlists_are_deterministic(
        seed in any::<u64>(),
        n_inputs in 1usize..4,
        n_latches in 1usize..6,
        n_gates in 4usize..24,
    ) {
        let n = random_netlist(seed, n_inputs, n_latches, n_gates);
        let jobs = par_jobs();
        let (seq_net, seq_rep) = optimize(&n, &SynthesisOptions { jobs: 1, ..Default::default() });
        let (par_net, par_rep) = optimize(&n, &SynthesisOptions { jobs, ..Default::default() });
        prop_assert_eq!(bench::write(&seq_net), bench::write(&par_net));
        prop_assert_eq!(seq_rep, par_rep);
    }
}
