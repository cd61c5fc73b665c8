//! The layer-attributed run: the benchmark drives the staged pipeline
//! itself (`PipelineState::new` + `run_stage`), with a span around every
//! call into a layer, the way `run_isdc` and `IsdcSession::run` compose it.

use crate::oracles::{take_worker_cpu, CacheSpan, TracedOracle};
use crate::trace::{attribute, self_ns, unattributed_ns, Recorder, Span};
use crate::workloads::{
    add_frame, batch_jobs, batch_options, batch_points, failed_job_points, sweep_config,
    sweep_periods, table1_config, Counters, Fixture, Pass, Point, Workload,
};
use isdc_batch::run_batch;
use isdc_cache::{canonicalize, CachingOracle, DelayCache};
use isdc_core::metrics;
use isdc_core::pipeline::{run_stage, Dedupe, Evaluate, Extract, Feedback, Reformulate, Solve};
use isdc_core::{
    DelayMatrix, IncrementalScheduler, IsdcConfig, PipelineState, RunSeed, Schedule, ScheduleError,
};
use isdc_ir::{Graph, NodeId};
use isdc_synth::{DelayOracle, OpDelayModel};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Layers whose self time is reported, in pipeline order. `oracle` also
/// takes the self time of its `lower`, `synth` and `sta` steps.
pub const LAYERS: [&str; 11] = [
    "initial_solve",
    "extract",
    "dedupe",
    "evaluate",
    "cache",
    "oracle",
    "feedback",
    "reformulate",
    "solve",
    "oracle_metrics",
    "batch",
];

/// Span names that belong to no layer: time only they cover is
/// unattributed.
const ROOTS: [&str; 2] = ["pass", "point"];

/// A traced pass: its points and counters, its spans, and layer figures
/// taken where the spans cannot reach (batch worker CPU, per-run frames).
pub struct TracedPass {
    pub pass: Pass,
    pub spans: Vec<Span>,
    pub extra: BTreeMap<&'static str, f64>,
}

/// What one bench-driven pipeline run hands back.
struct RunOut {
    schedule: Schedule,
    iterations: usize,
    initial_engine: Option<IncrementalScheduler>,
    initial_potentials: Option<Vec<i64>>,
}

fn bump(counters: &mut Counters, name: &'static str, by: u64) {
    *counters.entry(name).or_default() += by;
}

/// The per-iteration estimation-error metrics `run_isdc` computes.
fn oracle_metrics<O: DelayOracle + ?Sized>(
    rec: &Recorder,
    graph: &Graph,
    schedule: &Schedule,
    delays: &DelayMatrix,
    naive: &DelayMatrix,
    oracle: &O,
    counters: &mut Counters,
) {
    let _span = rec.span("oracle_metrics");
    let sta = metrics::stage_sta_delays(graph, schedule, oracle);
    let est = metrics::estimated_stage_delays(graph, schedule, delays);
    let naive_est = metrics::estimated_stage_delays(graph, schedule, naive);
    std::hint::black_box((
        metrics::estimation_error_pct(&est, &sta),
        metrics::estimation_error_pct(&naive_est, &sta),
    ));
    bump(counters, "oracle_metrics.calls", 1);
}

/// One ISDC run through the public pipeline stages, mirroring the loop
/// `run_isdc` runs (initial solve, then stages until register bits
/// are stable for `convergence_patience` iterations).
fn run_point<O: DelayOracle + ?Sized>(
    rec: &Recorder,
    graph: &Graph,
    model: &OpDelayModel,
    oracle: &O,
    config: &IsdcConfig,
    seed: RunSeed<'_>,
    counters: &mut Counters,
) -> Result<RunOut, ScheduleError> {
    let _point = rec.span("point");
    let mut state = {
        let _s = rec.span("initial_solve");
        PipelineState::new(graph, model, oracle, config, seed)?
    };
    bump(counters, "initial_solve.calls", 1);
    bump(counters, "solve.calls", 1);
    bump(counters, "solve.warm", u64::from(state.solver_warm()));
    let naive = config.iteration_metrics.then(|| state.delays().clone());
    let initial_potentials = state.initial_potentials().map(<[i64]>::to_vec);
    let initial_engine = state.take_initial_engine();
    if let Some(naive) = &naive {
        oracle_metrics(rec, graph, state.schedule(), state.delays(), naive, oracle, counters);
    }
    let mut iterations = 0;
    let mut stable_for = 0;
    let mut prev_bits = state.schedule().register_bits(graph);
    for _ in 1..=config.max_iterations {
        let subgraphs = {
            let _s = rec.span("extract");
            run_stage(&mut Extract, &mut state, ())?.0
        };
        bump(counters, "extract.subgraphs", subgraphs.len() as u64);
        if subgraphs.is_empty() {
            break;
        }
        let extracted = subgraphs.len();
        let subgraphs = {
            let _s = rec.span("dedupe");
            run_stage(&mut Dedupe, &mut state, subgraphs)?.0
        };
        bump(counters, "dedupe.dropped", (extracted - subgraphs.len()) as u64);
        let evaluated = {
            let _s = rec.span("evaluate");
            run_stage(&mut Evaluate, &mut state, subgraphs)?.0
        };
        let dirty = {
            let _s = rec.span("feedback");
            run_stage(&mut Feedback, &mut state, evaluated)?.0
        };
        let fed = dirty.updated;
        bump(counters, "feedback.dirty_pairs", fed as u64);
        let dirty = {
            let _s = rec.span("reformulate");
            run_stage(&mut Reformulate, &mut state, dirty)?.0
        };
        bump(counters, "reformulate.swept_pairs", (dirty.updated - fed) as u64);
        let warm = {
            let _s = rec.span("solve");
            run_stage(&mut Solve, &mut state, dirty)?.0
        };
        bump(counters, "solve.calls", 1);
        bump(counters, "solve.warm", u64::from(warm));
        iterations += 1;
        let next_bits = state.schedule().register_bits(graph);
        if let Some(naive) = &naive {
            oracle_metrics(rec, graph, state.schedule(), state.delays(), naive, oracle, counters);
        }
        if next_bits == prev_bits {
            stable_for += 1;
            if stable_for >= config.convergence_patience {
                break;
            }
        } else {
            stable_for = 0;
        }
        prev_bits = next_bits;
    }
    // `run_isdc` counts iterations into the frame itself; here this loop
    // does the counting.
    add_frame(counters, &state.metrics_frame());
    bump(counters, "run.iterations", iterations as u64);
    Ok(RunOut {
        schedule: state.schedule().clone(),
        iterations,
        initial_engine,
        initial_potentials,
    })
}

/// Runs one traced pass over the designs in `order`.
pub fn run_traced_pass(workload: Workload, fx: &Fixture, order: &[usize]) -> TracedPass {
    let rec = Recorder::new();
    let oracle =
        TracedOracle::new(&rec, fx.lib.clone(), fx.oracle.name(), workload == Workload::Batch);
    let mut counters = Counters::new();
    let mut points = Vec::new();
    let mut extra = BTreeMap::new();
    let pass_span = rec.span("pass");
    let start = Instant::now();
    match workload {
        Workload::Table1 => {
            for (n, &i) in order.iter().enumerate() {
                let b = &fx.suite[i];
                let config = table1_config(b.clock_period_ps);
                rec.set_point(n as u64 + 1);
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_point(
                        &rec,
                        &b.graph,
                        &fx.model,
                        &oracle,
                        &config,
                        RunSeed::default(),
                        &mut counters,
                    )
                    .map(|out| (out.schedule, out.iterations))
                }));
                let elapsed = t.elapsed();
                points.push(Point::from_result(i, b.clock_period_ps, &b.graph, result, elapsed));
            }
        }
        Workload::Sweep => {
            let base = sweep_config();
            let periods = sweep_periods();
            let mut lookups = (0, 0);
            for &i in order {
                let b = &fx.suite[i];
                // What `IsdcSession` keeps across runs: the cache, the
                // design's fingerprint and the last initial-solve engine.
                let cache = Arc::new(DelayCache::new());
                let all: Vec<NodeId> = b.graph.node_ids().collect();
                let design_key = canonicalize(&b.graph, &all).fingerprint;
                let mut engine: Option<IncrementalScheduler> = None;
                for (k, &clock) in periods.iter().enumerate() {
                    let config = IsdcConfig {
                        clock_period_ps: clock,
                        iteration_metrics: base.iteration_metrics && k + 1 == periods.len(),
                        ..base.clone()
                    };
                    rec.set_point(points.len() as u64 + 1);
                    let t = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let caching = CacheSpan {
                            rec: &rec,
                            inner: CachingOracle::with_cache(&oracle, Arc::clone(&cache)),
                        };
                        let prior = if engine.is_none() {
                            cache.nearest_potentials(design_key, clock)
                        } else {
                            None
                        };
                        let seed = RunSeed {
                            engine: engine.clone(),
                            potentials: prior.as_ref().map(|(_, pi)| pi.as_slice()),
                            export_engine: true,
                        };
                        let out = run_point(
                            &rec,
                            &b.graph,
                            &fx.model,
                            &caching,
                            &config,
                            seed,
                            &mut counters,
                        )?;
                        if let Some(e) = out.initial_engine {
                            engine = Some(e);
                        }
                        if let Some(pi) = out.initial_potentials {
                            cache.store_potentials(design_key, clock, pi);
                        }
                        Ok((out.schedule, out.iterations))
                    }));
                    let elapsed = t.elapsed();
                    points.push(Point::from_result(i, clock, &b.graph, result, elapsed));
                }
                let stats = cache.stats();
                lookups.0 += stats.hits;
                lookups.1 += stats.misses;
            }
            counters.insert("cache.hits", lookups.0);
            counters.insert("cache.misses", lookups.1);
        }
        Workload::Batch => {
            let jobs = batch_jobs(fx, order);
            let cache = Arc::new(DelayCache::new());
            let options = batch_options();
            take_worker_cpu(0);
            let report = {
                let _s = rec.span("batch");
                run_batch(&fx.batch_designs, &jobs, &options, &fx.model, &oracle, &cache)
            };
            match report {
                Ok(report) => {
                    let mut stage_ns = BTreeMap::new();
                    for p in report.jobs.iter().flat_map(|j| &j.points) {
                        add_frame(&mut counters, &p.metrics);
                        bump(&mut counters, "solve.calls", (p.warm_solves + p.cold_solves) as u64);
                        bump(&mut counters, "solve.warm", p.warm_solves as u64);
                        for stage in
                            ["extract", "dedupe", "evaluate", "feedback", "reformulate", "solve"]
                        {
                            *stage_ns.entry(stage).or_insert(0u64) +=
                                p.metrics.counter_or_zero(&format!("stage/{stage}/ns"));
                        }
                    }
                    for (stage, ns) in stage_ns {
                        extra.insert(stage, ns as f64);
                    }
                    counters.insert("cache.hits", report.cache.hits);
                    counters.insert("cache.misses", report.cache.misses);
                    let wall = report.elapsed.as_nanos() as f64;
                    let cpu: u64 = take_worker_cpu(report.threads).iter().sum();
                    let jobs_ns: Vec<f64> =
                        report.jobs.iter().map(|j| j.elapsed.as_nanos() as f64).collect();
                    let max_job = jobs_ns.iter().copied().fold(0.0, f64::max);
                    let sum_jobs: f64 = jobs_ns.iter().sum();
                    extra.insert(
                        "batch.worker_busy_ratio",
                        cpu as f64 / (report.threads as f64 * wall),
                    );
                    extra.insert("batch.max_job_ms", max_job / 1e6);
                    extra.insert("batch.imbalance", max_job / (sum_jobs / report.threads as f64));
                    extra.insert("batch.shards", report.shards as f64);
                    points = batch_points(fx, &report);
                }
                Err(e) => {
                    let why = format!("batch error: {e:?}");
                    points = jobs.iter().flat_map(|job| failed_job_points(fx, job, &why)).collect();
                }
            }
        }
    }
    let wall = start.elapsed();
    drop(pass_span);
    counters.insert("oracle.calls", oracle.calls());
    counters.insert("oracle.aig_ands", oracle.aig_ands());
    TracedPass { pass: Pass { wall, points, counters }, spans: rec.drain(), extra }
}

/// The per-layer metrics of one traced pass (values by metric name).
pub fn layer_metrics(workload: Workload, traced: &TracedPass) -> BTreeMap<String, f64> {
    let spans = &traced.spans;
    let c = &traced.pass.counters;
    let count = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let has_ancestor = |s: &Span, name: &str| {
        let mut at = by_id.get(&s.parent);
        while let Some(p) = at {
            if p.name == name {
                return true;
            }
            at = by_id.get(&p.parent);
        }
        false
    };
    let total =
        |name: &str| spans.iter().filter(|s| s.name == name).map(Span::ns).sum::<u64>() as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    let stage_ns = |stage: &str| {
        if workload == Workload::Batch {
            // The batch engine drives its sessions itself: stage times come
            // from each run's metrics frame, summed over workers.
            traced.extra.get(stage).copied().unwrap_or(0.0)
        } else {
            total(stage)
        }
    };
    put("initial_solve.ns", total("initial_solve"));
    put("initial_solve.calls", count("initial_solve.calls"));
    put("extract.ns", stage_ns("extract"));
    put("extract.subgraphs", count("extract.subgraphs"));
    put("dedupe.ns", stage_ns("dedupe"));
    put("dedupe.dropped", count("dedupe.dropped"));
    let evaluate_ns = stage_ns("evaluate");
    put("evaluate.ns", evaluate_ns);
    put("evaluate.subgraphs", count("evaluate.subgraphs"));
    let oracle_in_evaluate: u64 = spans
        .iter()
        .filter(|s| s.name == "oracle" && has_ancestor(s, "evaluate"))
        .map(Span::ns)
        .sum();
    put(
        "evaluate.parallel_efficiency",
        if evaluate_ns > 0.0 {
            oracle_in_evaluate as f64 / (workload.threads() as f64 * evaluate_ns)
        } else {
            0.0
        },
    );
    put("oracle.calls", count("oracle.calls"));
    put("oracle.busy_ns", total("oracle"));
    put("oracle.lower_ns", total("lower"));
    put("oracle.synth_ns", total("synth"));
    put("oracle.sta_ns", total("sta"));
    put("oracle.aig_ands", count("oracle.aig_ands"));
    let (hits, misses) = (count("cache.hits"), count("cache.misses"));
    put("cache.lookups", hits + misses);
    put("cache.hits", hits);
    put("cache.misses", misses);
    put("cache.hit_ratio", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
    // Fingerprinting, lookup and insert: each cache span minus the inner
    // oracle call it made on a miss.
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let cache_self: u64 = spans
        .iter()
        .filter(|s| s.name == "cache")
        .map(|s| self_ns(s, children.get(&s.id).map_or(&[], Vec::as_slice)))
        .sum();
    put("cache.overhead_ns", cache_self as f64);
    put("feedback.ns", stage_ns("feedback"));
    put("feedback.dirty_pairs", count("feedback.dirty_pairs"));
    put("reformulate.ns", stage_ns("reformulate"));
    put("reformulate.swept_pairs", count("reformulate.swept_pairs"));
    put("solve.ns", stage_ns("solve"));
    let solves = count("solve.calls");
    put("solve.warm_ratio", if solves > 0.0 { count("solve.warm") / solves } else { 0.0 });
    for name in [
        "lp.pairs_scanned",
        "lp.constraints_emitted",
        "lp.bucket_deduped",
        "lp.dominance_pruned",
        "drain.nodes_settled",
        "drain.paths",
        "run.iterations",
    ] {
        put(name, count(name));
    }
    put("oracle_metrics.ns", total("oracle_metrics"));
    put("oracle_metrics.calls", count("oracle_metrics.calls"));
    for name in ["batch.worker_busy_ratio", "batch.max_job_ms", "batch.imbalance", "batch.shards"] {
        put(name, traced.extra.get(name).copied().unwrap_or(0.0));
    }

    let wall = total("pass") as u64;
    let mut selfs = attribute(spans);
    let oracle_steps: u64 = ["lower", "synth", "sta"].iter().filter_map(|n| selfs.remove(n)).sum();
    *selfs.entry("oracle").or_default() += oracle_steps;
    for layer in LAYERS {
        let key = format!("{layer}.self_ns");
        m.insert(key, selfs.get(layer).copied().unwrap_or(0) as f64);
    }
    m.insert("unattributed.ns".to_string(), unattributed_ns(wall, &selfs, &ROOTS) as f64);
    m.insert("wall.ns".to_string(), wall as f64);
    m
}
