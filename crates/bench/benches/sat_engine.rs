//! CDCL engine micro-benchmarks: raw solver throughput on a hard UNSAT
//! family (pigeonhole), the paper-style XOR decomposability check, and the
//! SAT-based bounded sequential equivalence check. These isolate the
//! order-heap / clause-database changes from the BDD layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symbi_bdd::{Manager, ResourceGovernor, VarId};
use symbi_circuits::adder;
use symbi_core::sat_dec;
use symbi_netlist::cone::ConeExtractor;
use symbi_netlist::sec;
use symbi_sat::{Lit, SolveResult, Solver};

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
fn pigeonhole(holes: usize) -> Solver {
    let pigeons = holes + 1;
    let mut solver = Solver::new();
    let vars: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::pos(solver.new_var())).collect())
        .collect();
    for row in &vars {
        solver.add_clause(row.clone());
    }
    for (p1, row1) in vars.iter().enumerate() {
        for row2 in vars.iter().skip(p1 + 1) {
            for (&l1, &l2) in row1.iter().zip(row2.iter()) {
                solver.add_clause(vec![!l1, !l2]);
            }
        }
    }
    solver
}

fn bench_pigeonhole(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_engine_pigeonhole");
    group.sample_size(10);
    for holes in [5usize, 6] {
        group.bench_with_input(BenchmarkId::new("unsat", holes), &holes, |b, &holes| {
            b.iter(|| {
                let mut solver = pigeonhole(holes);
                assert!(matches!(solver.solve(), SolveResult::Unsat { .. }));
            })
        });
    }
    group.finish();
}

fn bench_xor_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_engine_xor_check");
    group.sample_size(10);
    for bit in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("adder_sum", bit), &bit, |b, &bit| {
            let netlist = adder::ripple_carry(bit + 1);
            let mut m = Manager::new();
            let mut ext = ConeExtractor::with_default_layout(&netlist, &mut m);
            let sig = netlist.signal(&format!("s{bit}")).expect("sum bit");
            let f = ext.bdd(&mut m, sig);
            let support = m.support(f);
            let half = support.len() / 2;
            let a_vac: Vec<VarId> = support[..half].to_vec();
            let b_vac: Vec<VarId> = support[half..].to_vec();
            let gov = ResourceGovernor::unlimited();
            b.iter(|| {
                let (ok, stats) =
                    sat_dec::try_xor_decomposable(&m, f, &support, &a_vac, &b_vac, u64::MAX, &gov)
                        .expect("unlimited governor cannot trip");
                assert!(ok);
                assert!(stats.propagations > 0);
            })
        });
    }
    group.finish();
}

fn bench_bounded_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_engine_bounded_sec");
    group.sample_size(10);
    let a = adder::ripple_carry(6);
    for frames in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("adder_self", frames), &frames, |b, &frames| {
            b.iter(|| {
                let (verdict, _stats) = sec::bounded_check_sat(&a, &a, frames);
                assert!(verdict.is_equivalent());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pigeonhole, bench_xor_check, bench_bounded_sec);
criterion_main!(benches);
