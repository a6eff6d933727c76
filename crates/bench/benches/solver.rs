//! Criterion micro-benchmarks of the CDCL solver substrate: BCP throughput,
//! per-family solve cost under each deletion policy, and the scoring
//! overhead of the reduce step itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neuroselect::sat_gen::{
    equivalence_miter_cnf, phase_transition_3sat, pigeonhole, random_xorsat,
};
use neuroselect::sat_solver::{solve_with_policy, Budget, PolicyKind};
use std::hint::black_box;

/// Propagation-dominated workload: a long implication-chain formula that
/// solves with a single decision cascade, isolating watched-literal BCP.
fn bcp_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcp_throughput");
    for n in [1_000u32, 10_000] {
        let mut f = cnf::Cnf::new(n);
        f.add_dimacs(&[1]);
        for i in 1..n as i32 {
            f.add_dimacs(&[-i, i + 1]);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &f, |b, f| {
            b.iter(|| {
                let (r, s) =
                    solve_with_policy(black_box(f), PolicyKind::Default, Budget::unlimited());
                assert!(r.is_sat());
                black_box(s.propagations)
            });
        });
    }
    group.finish();
}

/// Full solves per instance family and deletion policy — the raw material
/// of Figure 4's comparison.
fn solve_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_family");
    group.sample_size(10);
    let instances: Vec<(&str, cnf::Cnf)> = vec![
        ("random3sat", phase_transition_3sat(90, 3)),
        ("pigeonhole", pigeonhole(7, 6)),
        ("xorsat", random_xorsat(50, 47, 5)),
        (
            "circuit_miter",
            equivalence_miter_cnf(
                logic_circuit::RandomCircuitSpec {
                    num_inputs: 8,
                    num_gates: 100,
                    num_outputs: 3,
                },
                9,
            ),
        ),
    ];
    for (name, f) in &instances {
        for policy in [PolicyKind::Default, PolicyKind::PropFreq] {
            group.bench_with_input(
                BenchmarkId::new(*name, policy),
                &(f, policy),
                |b, (f, policy)| {
                    b.iter(|| {
                        let (r, s) = solve_with_policy(black_box(f), *policy, Budget::unlimited());
                        assert!(!r.is_unknown());
                        black_box(s.conflicts)
                    });
                },
            );
        }
    }
    group.finish();
}

/// Isolates the per-reduction scoring overhead of the two policies by
/// running a conflict-heavy instance whose reductions dominate.
fn policy_scoring_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_scoring");
    group.sample_size(10);
    let f = pigeonhole(8, 7);
    for policy in [PolicyKind::Default, PolicyKind::PropFreq] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let (r, s) = solve_with_policy(black_box(&f), policy, Budget::unlimited());
                    assert!(r.is_unsat());
                    black_box(s.reductions)
                });
            },
        );
    }
    group.finish();
}

/// Root-level simplification (`Solver::simplify`, `rsat --preprocess`):
/// building the solver and running rounds until one changes nothing.
fn simplification(c: &mut Criterion) {
    use neuroselect::sat_solver::Solver;
    let mut group = c.benchmark_group("simplify");
    group.sample_size(10);
    let miter = equivalence_miter_cnf(
        logic_circuit::RandomCircuitSpec {
            num_inputs: 10,
            num_gates: 200,
            num_outputs: 3,
        },
        5,
    );
    let simplify = |f: &cnf::Cnf| {
        let mut s = Solver::from_cnf(f);
        black_box(s.simplify());
        black_box(s.db_stats().original_clauses)
    };
    group.bench_function("circuit_miter", |b| b.iter(|| simplify(&miter)));
    let threesat = phase_transition_3sat(150, 3);
    group.bench_function("random_3sat", |b| b.iter(|| simplify(&threesat)));
    group.finish();
}

/// BMC unrolling + solving at increasing bounds.
fn bmc(c: &mut Criterion) {
    use neuroselect::sat_gen::bmc_counter_cnf;
    let mut group = c.benchmark_group("bmc_counter");
    group.sample_size(10);
    for steps in [8usize, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(steps), &steps, |b, &steps| {
            b.iter(|| {
                let f = bmc_counter_cnf(3, steps);
                let (r, s) = solve_with_policy(&f, PolicyKind::Default, Budget::unlimited());
                assert_eq!(r.is_sat(), steps > 7);
                black_box(s.propagations)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bcp_throughput,
    solve_families,
    policy_scoring_overhead,
    simplification,
    bmc
);
criterion_main!(benches);
