//! The batch engine's acceptance workload: the **full 17-design suite**,
//! one ascending clock-period sweep job per design, executed by
//! `isdc-batch` worker pools at increasing thread counts against the
//! serial session sweep baseline (one fresh private session per design —
//! the PR 3 workflow this subsystem replaces).
//!
//! The program
//!
//! 1. runs the serial baseline and each thread count's batch (every batch
//!    starts from its own cold shared cache, so thread counts compete
//!    fairly);
//! 2. verifies **bit-identity**: every batch schedule, at every thread
//!    count, equals the serial baseline's schedule at the same (design,
//!    period) point — the determinism guarantee the engine is built
//!    around;
//! 3. prints the scaling table: wall-clock per thread count against the
//!    serial and cold baselines (on a 1-core container the scaling is
//!    necessarily flat — the speedups mean what the hardware lets them
//!    mean).
//!
//! Run with: `cargo run --release --example batch_sweep`
//! (`ISDC_BATCH_QUICK=1` shrinks grids, iterations and thread counts for
//! CI.)

use isdc_batch::{run_batch, serial_reference, BatchDesign, BatchOptions, BatchReport, Job};
use isdc_cache::DelayCache;
use isdc_core::{linear_grid, IsdcConfig};
use isdc_synth::{OpDelayModel, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::sync::Arc;

/// Panics with a clear message if any batch point diverges from serial.
fn assert_bit_identical(batch: &BatchReport, serial: &BatchReport, threads: usize) {
    for (b, s) in batch.jobs.iter().zip(&serial.jobs) {
        assert_eq!(b.points.len(), s.points.len(), "{}: point count", b.job.design);
        for (bp, sp) in b.points.iter().zip(&s.points) {
            assert_eq!(
                bp.schedule, sp.schedule,
                "{} at {}ps: batch({threads} threads) diverged from the serial session sweep",
                b.job.design, bp.clock_period_ps
            );
        }
        assert_eq!(b.min_period_ps, s.min_period_ps, "{}: min period", b.job.design);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var_os("ISDC_BATCH_QUICK").is_some();
    let suite = isdc_benchsuite::suite();
    let points = if quick { 4 } else { 10 };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let designs: Vec<BatchDesign> = suite
        .iter()
        .map(|b| {
            let mut base = IsdcConfig::paper_defaults(b.clock_period_ps);
            base.max_iterations = if quick { 3 } else { 8 };
            // Outer (job-level) parallelism replaces inner evaluation
            // threads: one core per worker.
            base.threads = 1;
            BatchDesign { name: b.name.to_string(), graph: b.graph.clone(), base }
        })
        .collect();
    let jobs: Vec<Job> = suite
        .iter()
        .map(|b| {
            Job::sweep(b.name, linear_grid(b.clock_period_ps, b.clock_period_ps * 2.0, points))
        })
        .collect();
    let total_points: usize = jobs.iter().map(Job::planned_points).sum();
    println!(
        "{} designs x {points} periods = {total_points} runs ({}, {hardware} hardware threads)",
        designs.len(),
        if quick { "quick" } else { "full" },
    );

    // Serial session sweep: the baseline every speedup is measured against
    // and every schedule is compared against.
    let serial = serial_reference(&designs, &jobs, &model, &oracle)?;
    println!("serial session sweep: {:.2?}", serial.elapsed);

    // Independent cold runs (`incremental: false`, no cache, no session):
    // the paper-faithful reference semantics, for the long-lever speedup.
    let cold_start = std::time::Instant::now();
    for ((design, job), serial_job) in designs.iter().zip(&jobs).zip(&serial.jobs) {
        let isdc_batch::JobKind::Sweep { periods } = &job.kind else { unreachable!() };
        let cold_points = isdc_core::sweep_clock_period_cold(
            &design.graph,
            &model,
            &oracle,
            &design.base,
            periods,
        )?;
        for (c, s) in cold_points.iter().zip(&serial_job.points) {
            assert_eq!(
                c.schedule, s.schedule,
                "{} at {}ps: serial session diverged from the cold reference",
                design.name, c.clock_period_ps
            );
        }
    }
    let cold_total = cold_start.elapsed();
    println!("independent cold runs: {cold_total:.2?}");

    let mut last: Option<BatchReport> = None;
    for &threads in thread_counts {
        // Every thread count starts from its own cold shared cache, so the
        // thread counts compete fairly.
        let cache = Arc::new(DelayCache::new());
        let options = BatchOptions { threads, shard_points: 0, ..Default::default() };
        let report = run_batch(&designs, &jobs, &options, &model, &oracle, &cache)?;
        // Execution failures surface per job since the fault-tolerance
        // rework; an acceptance run tolerates none.
        assert!(report.all_ok(), "batch @ {threads} threads had failed jobs");
        assert_eq!(report.jobs_retried(), 0, "an acceptance run must not need retries");
        assert_eq!(report.jobs_timed_out(), 0, "no deadlines are armed, nothing may time out");
        assert_bit_identical(&report, &serial, threads);
        println!(
            "batch @ {threads} threads: {:.2?} ({:.2}x vs serial, {:.1}x vs cold, {} shards, \
             {:.1}% fleet cache hit rate)",
            report.elapsed,
            serial.elapsed.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9),
            cold_total.as_secs_f64() / report.elapsed.as_secs_f64().max(1e-9),
            report.shards,
            report.cache_hit_rate() * 100.0,
        );
        last = Some(report);
    }
    let report = last.expect("at least one thread count measured");
    println!("all {} schedules bit-identical to the serial baseline", total_points);

    println!("\ndesign                       | shards | points | hit rate | elapsed");
    for job in &report.jobs {
        println!(
            "{:<28} | {:>6} | {:>6} | {:>7.1}% | {:.1?}",
            job.job.design,
            job.shards,
            job.points.len(),
            job.cache_hit_rate() * 100.0,
            job.elapsed,
        );
    }

    Ok(())
}
