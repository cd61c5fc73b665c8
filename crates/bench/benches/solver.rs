//! LP-solver scaling benchmarks: Bellman-Ford feasibility and min-cost-flow
//! optimization over growing difference-constraint systems, the Alg. 2 vs
//! exhaustive-fixpoint reformulation cost (§III-D's O(n^2) vs O(n^3) trade),
//! and the cold-vs-warm comparison: a from-scratch LP rebuild + cold solve
//! against the incremental engine's dirty re-emission + warm-started
//! re-solve, per ISDC iteration, on every Table I design.
//!
//! The solver's work on real runs is pinned exactly by the counter goldens
//! (`tests/work_golden.rs`) and the batched drain's by
//! `crates/sdc/tests/drain.rs`; these groups only time it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_benchsuite::{random_dag, Benchmark, RandomDagConfig};
use isdc_core::{
    schedule_with_matrix, DelayMatrix, DirtySet, IncrementalScheduler, ScheduleOptions,
};
use isdc_ir::NodeId;
use isdc_sdc::{minimize, DifferenceSystem, VarId};
use isdc_synth::OpDelayModel;
use isdc_techlib::TechLibrary;

/// Feedback rounds driven per design before the timed round.
const FEEDBACK_ROUNDS: usize = 6;

/// Builds a feasible chain-plus-random system of `n` variables.
fn build_system(n: usize) -> (DifferenceSystem, Vec<i64>) {
    let mut sys = DifferenceSystem::new(n);
    let mut state = 0x5eed_5eedu64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in 1..n {
        sys.add_constraint(VarId(i as u32 - 1), VarId(i as u32), 0);
    }
    for _ in 0..2 * n {
        let u = rng() % n;
        let v = rng() % n;
        if u < v {
            sys.add_constraint(VarId(u as u32), VarId(v as u32), -((rng() % 3) as i64));
        }
    }
    // Minimize the span end - start: balanced weights.
    let mut weights = vec![0i64; n];
    weights[0] = -1;
    weights[n - 1] = 1;
    (sys, weights)
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("bellman_ford_feasibility");
    for n in [50usize, 200, 800] {
        let (sys, _) = build_system(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |bencher, sys| {
            bencher.iter(|| sys.solve_feasible().expect("feasible"));
        });
    }
    group.finish();
}

fn bench_lp_optimization(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcf_minimize");
    for n in [50usize, 200, 800] {
        let (sys, weights) = build_system(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &sys, |bencher, sys| {
            bencher.iter(|| minimize(sys, &weights).expect("solvable"));
        });
    }
    group.finish();
}

fn bench_reformulation(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib);
    let mut group = c.benchmark_group("reformulation");
    group.sample_size(10);
    for num_ops in [50usize, 150, 400] {
        let g = random_dag(
            &RandomDagConfig { num_ops, num_params: 6, widths: vec![8, 16], with_muls: true },
            7,
        );
        let base = DelayMatrix::initialize(&g, &model.all_node_delays(&g));
        let members: Vec<_> = g.node_ids().take(num_ops / 2).collect();
        group.bench_with_input(BenchmarkId::new("alg2", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate(g)
            });
        });
        group.bench_with_input(BenchmarkId::new("alg2_worklist", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                let dirty = m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate_incremental(g, &dirty)
            });
        });
        group.bench_with_input(BenchmarkId::new("exact_fixpoint", num_ops), &g, |bencher, g| {
            bencher.iter(|| {
                let mut m = base.clone();
                m.apply_subgraph_feedback(&members, 500.0);
                m.reformulate_exact(g)
            });
        });
    }
    group.finish();
}

/// A synthetic-but-shaped ISDC feedback trace: per round, eight overlapping
/// windows report 80% of their current worst pair delay (always a pure
/// relaxation, like Alg. 1 guarantees), followed by an incremental Alg. 2
/// pass with the dirty carry the driver uses.
struct FeedbackTrace {
    /// Matrix state after round `r` (index 0 = initial).
    matrices: Vec<DelayMatrix>,
    /// Dirty set accompanying the transition into `matrices[r + 1]`.
    dirties: Vec<DirtySet>,
}

fn feedback_trace(bench: &Benchmark, model: &OpDelayModel, rounds: usize) -> FeedbackTrace {
    let g = &bench.graph;
    let n = g.len();
    let mut m = DelayMatrix::initialize(g, &model.all_node_delays(g));
    let mut matrices = vec![m.clone()];
    let mut dirties = Vec::new();
    let mut carry = DirtySet::new(n);
    for r in 0..rounds {
        let mut dirty = DirtySet::new(n);
        for k in 0..8usize {
            let start = (r * 31 + k * 7) % n;
            let members: Vec<NodeId> =
                (start..(start + 6).min(n)).map(|i| NodeId(i as u32)).collect();
            let worst = members
                .iter()
                .flat_map(|&u| members.iter().map(move |&v| (u, v)))
                .filter_map(|(u, v)| m.get(u, v))
                .fold(0.0f64, f64::max);
            dirty.union(&m.apply_subgraph_feedback(&members, worst * 0.8));
        }
        dirty.union(&carry);
        carry = m.reformulate_incremental(g, &dirty);
        dirty.union(&carry);
        matrices.push(m.clone());
        dirties.push(dirty);
    }
    FeedbackTrace { matrices, dirties }
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib);
    let mut group = c.benchmark_group("solver_cold_vs_warm");
    group.sample_size(10);
    for b in &isdc_benchsuite::suite() {
        let n = b.graph.len();
        let options = ScheduleOptions { clock_period_ps: b.clock_period_ps, max_stages: None };
        let trace = feedback_trace(b, &model, FEEDBACK_ROUNDS);
        let last = trace.matrices.len() - 1;
        let final_m = &trace.matrices[last];
        let final_dirty = &trace.dirties[last - 1];
        // Prime the engine up to the state *before* the final round, so each
        // timed warm solve applies one genuine iteration's worth of deltas.
        let mut engine =
            IncrementalScheduler::new(&b.graph, &trace.matrices[0], &options).expect("schedulable");
        engine.reschedule(&b.graph, &trace.matrices[0], &DirtySet::new(n)).unwrap();
        for r in 0..last - 1 {
            engine.reschedule(&b.graph, &trace.matrices[r + 1], &trace.dirties[r]).unwrap();
        }
        let primed = engine;
        // Sanity: the timed paths must agree before we compare their speed.
        let cold_reference = schedule_with_matrix(&b.graph, final_m, b.clock_period_ps).unwrap();
        {
            let mut e = primed.clone();
            let warm = e.reschedule(&b.graph, final_m, final_dirty).unwrap();
            assert!(e.last_solve_was_warm(), "{}: final round should warm-start", b.name);
            assert_eq!(warm, cold_reference, "{}: warm diverged from cold", b.name);
        }
        group.bench_with_input(BenchmarkId::new("cold", b.name), b, |bencher, b| {
            bencher.iter(|| schedule_with_matrix(&b.graph, final_m, b.clock_period_ps).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("warm", b.name), b, |bencher, b| {
            bencher.iter(|| {
                // The clone (pure memcpy) stands in for state the driver
                // keeps alive; it biases against the warm path if anything.
                let mut e = primed.clone();
                e.reschedule(&b.graph, final_m, final_dirty).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_feasibility,
    bench_lp_optimization,
    bench_reformulation,
    bench_cold_vs_warm
);
criterion_main!(benches);
