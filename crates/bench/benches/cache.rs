//! Cached-vs-uncached oracle benchmarks: the isdc-cache payoff.
//!
//! `cold` evaluates a batch of subgraphs through a fresh cache (all misses,
//! so it pays canonicalization on top of synthesis); `warm` reuses a
//! pre-populated cache (all hits — canonicalization + lookup only);
//! `uncached` is the raw oracle baseline. Warm must be far below the other
//! two.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isdc_cache::CachingOracle;
use isdc_ir::NodeId;
use isdc_synth::{evaluate_parallel, SynthesisOracle};
use isdc_techlib::TechLibrary;

/// 16 overlapping node windows of a mid-size benchmark, like an ISDC
/// iteration would extract.
fn subgraph_batch() -> (isdc_ir::Graph, Vec<Vec<NodeId>>) {
    let suite = isdc_benchsuite::suite();
    let bench = suite.into_iter().find(|b| b.name == "ml_core_datapath2").expect("present");
    let subgraphs: Vec<Vec<NodeId>> = (0..16)
        .map(|k| bench.graph.node_ids().skip(k * 3).take(6).collect::<Vec<_>>())
        .filter(|s| !s.is_empty())
        .collect();
    (bench.graph, subgraphs)
}

fn bench_oracle_caching(c: &mut Criterion) {
    let lib = TechLibrary::sky130();
    let oracle = SynthesisOracle::new(lib);
    let (graph, subgraphs) = subgraph_batch();
    let mut group = c.benchmark_group("oracle_cache");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("uncached"), &subgraphs, |b, subs| {
        b.iter(|| evaluate_parallel(&oracle, &graph, subs, 1));
    });
    group.bench_with_input(BenchmarkId::from_parameter("cold"), &subgraphs, |b, subs| {
        b.iter(|| {
            let caching = CachingOracle::new(&oracle);
            evaluate_parallel(&caching, &graph, subs, 1)
        });
    });
    let warm = CachingOracle::new(&oracle);
    evaluate_parallel(&warm, &graph, &subgraphs, 1).expect("no deadline is armed");
    group.bench_with_input(BenchmarkId::from_parameter("warm"), &subgraphs, |b, subs| {
        b.iter(|| evaluate_parallel(&warm, &graph, subs, 1));
    });
    group.finish();
}

fn bench_fingerprint(c: &mut Criterion) {
    let (graph, subgraphs) = subgraph_batch();
    let mut group = c.benchmark_group("fingerprint");
    group.bench_with_input(BenchmarkId::from_parameter("16_windows"), &subgraphs, |b, subs| {
        b.iter(|| {
            subs.iter().map(|s| isdc_cache::canonicalize(&graph, s).fingerprint).collect::<Vec<_>>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_oracle_caching, bench_fingerprint);
criterion_main!(benches);
