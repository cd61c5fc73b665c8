//! The three workloads, driven through the library's public entry points
//! exactly as a user would call them (tracing off).

use crate::oracles::CountingOracle;
use isdc_batch::{
    run_batch, serial_reference, BatchDesign, BatchOptions, BatchReport, Job, JobKind,
};
use isdc_benchsuite::Benchmark;
use isdc_cache::DelayCache;
use isdc_core::{
    linear_grid, run_isdc, sweep_clock_period, IsdcConfig, IsdcSession, Schedule, ScheduleError,
    SweepPoint,
};
use isdc_synth::{OpDelayModel, SynthesisOracle};
use isdc_techlib::{Picos, TechLibrary};
use isdc_telemetry::MetricsFrame;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point slower than this counts as timed out.
pub const POINT_TIME_LIMIT: Duration = Duration::from_secs(30);

/// Deterministic work counters, summed over a pass.
pub type Counters = BTreeMap<&'static str, u64>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 17 Table I designs, one cold `run_isdc` each (2 threads).
    Table1,
    /// crc32 and sha256, a 10-point ascending clock sweep each through one
    /// `IsdcSession`.
    Sweep,
    /// `run_batch` over 17 designs x 6 clocks, 2 workers, one shared cache.
    Batch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "table1" => Some(Self::Table1),
            "sweep" => Some(Self::Sweep),
            "batch" => Some(Self::Batch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Table1 => "table1",
            Self::Sweep => "sweep",
            Self::Batch => "batch",
        }
    }

    /// Indices into the suite of the designs the workload runs, in suite
    /// order (the seed permutes them).
    pub fn designs(self, suite: &[Benchmark]) -> Vec<usize> {
        match self {
            Self::Sweep => ["crc32", "sha256"]
                .iter()
                .map(|n| suite.iter().position(|b| b.name == *n).expect("design in suite"))
                .collect(),
            Self::Table1 | Self::Batch => (0..suite.len()).collect(),
        }
    }

    /// Worker threads the workload runs on.
    pub fn threads(self) -> usize {
        match self {
            Self::Table1 | Self::Batch => 2,
            Self::Sweep => 1,
        }
    }
}

/// Everything built before the first pass.
pub struct Fixture {
    pub suite: Vec<Benchmark>,
    pub lib: TechLibrary,
    pub model: OpDelayModel,
    pub oracle: SynthesisOracle,
    pub batch_designs: Vec<BatchDesign>,
}

impl Fixture {
    /// Builds the suite, library, characterized delay model, oracle and the
    /// batch design table. Every op of the suite is characterized here, so
    /// no pass pays first-use characterization.
    pub fn build() -> Self {
        let suite = isdc_benchsuite::suite();
        let lib = TechLibrary::sky130();
        let model = OpDelayModel::new(lib.clone());
        for b in &suite {
            std::hint::black_box(model.all_node_delays(&b.graph));
        }
        let oracle = SynthesisOracle::new(lib.clone());
        let batch_designs = suite
            .iter()
            .map(|b| BatchDesign {
                name: b.name.to_string(),
                graph: b.graph.clone(),
                base: IsdcConfig { threads: 1, ..IsdcConfig::paper_defaults(b.clock_period_ps) },
            })
            .collect();
        Self { suite, lib, model, oracle, batch_designs }
    }

    /// Index into the suite of the design named `name`.
    pub fn design(&self, name: &str) -> usize {
        self.suite.iter().position(|b| b.name == name).expect("jobs name suite designs")
    }
}

/// The deterministic result of one (design, clock) point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub feasible: bool,
    pub register_bits: u64,
    pub stages: u32,
    pub iterations: usize,
}

impl Outcome {
    pub const INFEASIBLE: Outcome =
        Outcome { feasible: false, register_bits: 0, stages: 0, iterations: 0 };

    pub fn of(graph: &isdc_ir::Graph, schedule: &Schedule, iterations: usize) -> Self {
        Outcome {
            feasible: true,
            register_bits: schedule.register_bits(graph),
            stages: schedule.num_stages(),
            iterations,
        }
    }

    fn of_sweep_point(p: &SweepPoint) -> Self {
        if p.feasible {
            Outcome {
                feasible: true,
                register_bits: p.register_bits,
                stages: p.num_stages,
                iterations: p.iterations,
            }
        } else {
            Outcome::INFEASIBLE
        }
    }
}

/// One attempted (design, clock) point.
#[derive(Clone, Debug)]
pub struct Point {
    /// Index into the suite.
    pub design: usize,
    pub clock_ps: Picos,
    pub outcome: Outcome,
    pub schedule: Option<Schedule>,
    pub elapsed: Duration,
    /// Why the point failed (error, panic, time limit), if it did.
    pub failure: Option<String>,
}

impl Point {
    pub fn key(&self) -> (usize, u64) {
        (self.design, self.clock_ps.to_bits())
    }

    /// A point that produced no result.
    pub fn failed(design: usize, clock_ps: Picos, why: String) -> Self {
        Point {
            design,
            clock_ps,
            outcome: Outcome::INFEASIBLE,
            schedule: None,
            elapsed: Duration::ZERO,
            failure: Some(why),
        }
    }

    fn of_sweep_point(design: usize, p: &SweepPoint) -> Self {
        let failure =
            (p.elapsed > POINT_TIME_LIMIT).then(|| format!("timed out after {:.1?}", p.elapsed));
        Point {
            design,
            clock_ps: p.clock_period_ps,
            outcome: Outcome::of_sweep_point(p),
            schedule: p.schedule.clone(),
            elapsed: p.elapsed,
            failure,
        }
    }

    /// A point from a scheduling call's result; infeasible clocks are
    /// outcomes, every other error a failure.
    pub fn from_result(
        design: usize,
        clock_ps: Picos,
        graph: &isdc_ir::Graph,
        result: std::thread::Result<Result<(Schedule, usize), ScheduleError>>,
        elapsed: Duration,
    ) -> Self {
        let mut point = Point {
            design,
            clock_ps,
            outcome: Outcome::INFEASIBLE,
            schedule: None,
            elapsed,
            failure: None,
        };
        match result {
            Ok(Ok((schedule, iterations))) => {
                point.outcome = Outcome::of(graph, &schedule, iterations);
                point.schedule = Some(schedule);
            }
            Ok(Err(e)) if is_infeasibility(&e) => {}
            Ok(Err(e)) => point.failure = Some(format!("error: {e}")),
            Err(_) => point.failure = Some("panicked".to_string()),
        }
        if point.failure.is_none() && elapsed > POINT_TIME_LIMIT {
            point.failure = Some(format!("timed out after {elapsed:.1?}"));
        }
        point
    }
}

/// Whether an error only says the clock period is infeasible.
fn is_infeasibility(e: &ScheduleError) -> bool {
    matches!(
        e,
        ScheduleError::OperationExceedsClock { .. } | ScheduleError::LatencyUnachievable { .. }
    )
}

/// One pass over the workload.
pub struct Pass {
    pub wall: Duration,
    pub points: Vec<Point>,
    pub counters: Counters,
}

/// Adds a run's deterministic counters to `counters`.
pub fn add_frame(counters: &mut Counters, frame: &MetricsFrame) {
    for (name, key) in [
        ("lp.pairs_scanned", "lp/pairs_scanned"),
        ("lp.constraints_emitted", "lp/constraints_emitted"),
        ("lp.bucket_deduped", "lp/bucket_deduped"),
        ("lp.dominance_pruned", "lp/dominance_pruned"),
        ("drain.nodes_settled", "drain/nodes_settled"),
        ("drain.paths", "drain/paths"),
        ("run.iterations", "run/iterations"),
        ("evaluate.subgraphs", "run/subgraphs_evaluated"),
    ] {
        *counters.entry(name).or_default() += frame.counter_or_zero(key);
    }
}

/// The sweep workload's clock grid.
pub fn sweep_periods() -> Vec<Picos> {
    linear_grid(2500.0, 5000.0, 10)
}

/// The sweep workload's base configuration.
pub fn sweep_config() -> IsdcConfig {
    IsdcConfig { threads: 1, ..IsdcConfig::paper_defaults(2500.0) }
}

/// The table1 workload's configuration for one design.
pub fn table1_config(clock_ps: Picos) -> IsdcConfig {
    IsdcConfig { threads: 2, ..IsdcConfig::paper_defaults(clock_ps) }
}

/// Batch jobs over the designs in `order`: clk to 2 clk in 6 points.
pub fn batch_jobs(fx: &Fixture, order: &[usize]) -> Vec<Job> {
    order
        .iter()
        .map(|&i| {
            let b = &fx.suite[i];
            Job::sweep(b.name, linear_grid(b.clock_period_ps, 2.0 * b.clock_period_ps, 6))
        })
        .collect()
}

pub fn batch_options() -> BatchOptions {
    BatchOptions { threads: Workload::Batch.threads(), ..Default::default() }
}

/// Every planned point of `job`, failed for `why`.
pub fn failed_job_points(fx: &Fixture, job: &Job, why: &str) -> Vec<Point> {
    let JobKind::Sweep { periods } = &job.kind else {
        unreachable!("the benchmark submits sweeps only")
    };
    let design = fx.design(&job.design);
    periods.iter().map(|&clock_ps| Point::failed(design, clock_ps, why.to_string())).collect()
}

/// Points of a batch report, failed jobs' planned points included.
pub fn batch_points(fx: &Fixture, report: &BatchReport) -> Vec<Point> {
    let mut points = Vec::new();
    for job in &report.jobs {
        if job.status.is_ok() {
            let design = fx.design(&job.job.design);
            points.extend(job.points.iter().map(|p| Point::of_sweep_point(design, p)));
        } else {
            let why = format!("job failed: {:?}", job.status.error().map(|e| &e.message));
            points.extend(failed_job_points(fx, &job.job, &why));
        }
    }
    points
}

/// Runs one untraced pass over the designs in `order`.
pub fn run_pass(workload: Workload, fx: &Fixture, order: &[usize]) -> Pass {
    let oracle = CountingOracle::new(&fx.oracle);
    let mut counters = Counters::new();
    let mut points = Vec::new();
    let start = Instant::now();
    match workload {
        Workload::Table1 => {
            for &i in order {
                let b = &fx.suite[i];
                let config = table1_config(b.clock_period_ps);
                let t = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    run_isdc(&b.graph, &fx.model, &oracle, &config)
                }));
                let elapsed = t.elapsed();
                let result = result.map(|r| {
                    r.map(|r| {
                        add_frame(&mut counters, &r.metrics);
                        let iterations = r.iterations();
                        (r.schedule, iterations)
                    })
                });
                points.push(Point::from_result(i, b.clock_period_ps, &b.graph, result, elapsed));
            }
        }
        Workload::Sweep => {
            let base = sweep_config();
            let periods = sweep_periods();
            for &i in order {
                let b = &fx.suite[i];
                let mut session = IsdcSession::new(&b.graph, &fx.model, &oracle);
                for (k, &clock) in periods.iter().enumerate() {
                    // The configuration `sweep_clock_period` hands each point.
                    let config = IsdcConfig {
                        clock_period_ps: clock,
                        iteration_metrics: base.iteration_metrics && k + 1 == periods.len(),
                        ..base.clone()
                    };
                    let t = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| session.run(&config)));
                    let elapsed = t.elapsed();
                    let result = result.map(|r| {
                        r.map(|run| {
                            add_frame(&mut counters, &run.result.metrics);
                            *counters.entry("cache.misses").or_default() += run.cache_misses;
                            let iterations = run.result.iterations();
                            (run.result.schedule, iterations)
                        })
                    });
                    points.push(Point::from_result(i, clock, &b.graph, result, elapsed));
                }
            }
        }
        Workload::Batch => {
            let jobs = batch_jobs(fx, order);
            let cache = Arc::new(DelayCache::new());
            let options = batch_options();
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_batch(&fx.batch_designs, &jobs, &options, &fx.model, &oracle, &cache)
            }));
            match result {
                Ok(Ok(report)) => {
                    for job in &report.jobs {
                        for p in &job.points {
                            add_frame(&mut counters, &p.metrics);
                        }
                    }
                    *counters.entry("cache.misses").or_default() += report.cache.misses;
                    points = batch_points(fx, &report);
                }
                failed => {
                    let why = match failed {
                        Ok(Err(e)) => format!("batch error: {e:?}"),
                        _ => "batch panicked".to_string(),
                    };
                    points = jobs.iter().flat_map(|job| failed_job_points(fx, job, &why)).collect();
                }
            }
        }
    }
    let wall = start.elapsed();
    counters.insert("oracle.calls", oracle.calls());
    Pass { wall, points, counters }
}

/// The reference results the timed passes are checked against, produced
/// through a second public entry point in another design order:
/// `run_isdc` again for table1, `sweep_clock_period` for sweep, and the
/// single-threaded `serial_reference` for batch.
pub fn reference_points(workload: Workload, fx: &Fixture, order: &[usize]) -> Vec<Point> {
    match workload {
        Workload::Table1 => run_pass(workload, fx, order).points,
        Workload::Sweep => {
            let mut points = Vec::new();
            for &i in order {
                let b = &fx.suite[i];
                let mut session = IsdcSession::new(&b.graph, &fx.model, &fx.oracle);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    sweep_clock_period(&mut session, &sweep_config(), &sweep_periods())
                }));
                let why = match result {
                    Ok(Ok(sweep)) => {
                        points.extend(sweep.iter().map(|p| Point::of_sweep_point(i, p)));
                        continue;
                    }
                    Ok(Err(e)) => format!("sweep_clock_period failed: {e}"),
                    Err(_) => "sweep_clock_period panicked".to_string(),
                };
                points.push(Point::failed(i, 0.0, why));
            }
            points
        }
        Workload::Batch => {
            let jobs = batch_jobs(fx, order);
            match serial_reference(&fx.batch_designs, &jobs, &fx.model, &fx.oracle) {
                Ok(report) => batch_points(fx, &report),
                Err(e) => {
                    let why = format!("serial_reference failed: {e:?}");
                    jobs.iter().flat_map(|job| failed_job_points(fx, job, &why)).collect()
                }
            }
        }
    }
}

/// Points whose post-synthesis slack, timed by the synthesis oracle, is
/// negative.
pub fn timing_violations(fx: &Fixture, points: &[Point]) -> u64 {
    points
        .iter()
        .filter(|p| {
            p.schedule.as_ref().is_some_and(|s| {
                let graph = &fx.suite[p.design].graph;
                isdc_core::metrics::post_synthesis_slack(graph, s, &fx.oracle, p.clock_ps) < 0.0
            })
        })
        .count() as u64
}

/// Every failure in `points` against `reference` (matched by design and
/// clock): call failures, dependency violations, and outcome or schedule
/// mismatches.
pub fn check_points(
    fx: &Fixture,
    points: &[Point],
    reference: &[Point],
    what: &str,
) -> Vec<String> {
    let by_key: BTreeMap<(usize, u64), &Point> = reference.iter().map(|p| (p.key(), p)).collect();
    let mut failures = Vec::new();
    if points.len() != reference.len() {
        failures.push(format!(
            "{what}: {} points, reference has {}",
            points.len(),
            reference.len()
        ));
    }
    for p in points {
        let name = fx.suite[p.design].name;
        let at = format!("{what}: {name}@{}", p.clock_ps);
        if let Some(why) = &p.failure {
            failures.push(format!("{at}: {why}"));
            continue;
        }
        if let Some(s) = &p.schedule {
            if let Some((u, v)) = s.first_dependency_violation(&fx.suite[p.design].graph) {
                failures.push(format!("{at}: dependency {u:?} -> {v:?} violated"));
            }
        }
        match by_key.get(&p.key()) {
            None => failures.push(format!("{at}: no reference point")),
            Some(r) if r.outcome != p.outcome => {
                failures.push(format!("{at}: {:?} != reference {:?}", p.outcome, r.outcome))
            }
            Some(r) if r.schedule != p.schedule => {
                failures.push(format!("{at}: schedule differs from the reference"))
            }
            Some(_) => {}
        }
    }
    failures
}
