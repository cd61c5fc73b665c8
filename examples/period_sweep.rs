//! Clock-period sweep of the largest benchmark through a persistent
//! [`IsdcSession`], against two independent-runs baselines.
//!
//! This is the acceptance workload for the session engine: a 10-point
//! linear sweep (plus a binary search for the minimum feasible period),
//! where every point after the first reuses the previous points' oracle
//! evaluations (delay cache) and LP state (engine retarget / potentials).
//! Baselines:
//!
//! - **cold** — independent `run_isdc` calls with the cold solver
//!   (`incremental: false`): a fresh LP rebuild + Bellman-Ford cold solve
//!   every iteration, the paper-faithful reference semantics;
//! - **independent** — independent `run_isdc` calls with PR 2's
//!   within-run warm solver, but nothing shared across runs. The gap to
//!   this baseline is exactly what cross-run persistence buys.
//!
//! Both baselines run `run_isdc` with its defaults, per-iteration oracle
//! metrics included — that is what a user doing per-point runs gets —
//! while the session sweep skips those metrics on non-final points
//! (`IsdcConfig::iteration_metrics`). The printed speedups therefore
//! measure the *product* gap (session sweep vs naive per-point runs), not
//! the solver in isolation.
//!
//! The program verifies bit-identity against both baselines point by
//! point and prints per-run reuse statistics.
//!
//! Run with: `cargo run --example period_sweep --release`
//! (`ISDC_SWEEP_QUICK=1` shrinks the grid and iteration budget for CI.)

use isdc_core::{
    linear_grid, min_feasible_period, sweep_clock_period, sweep_clock_period_cold,
    sweep_clock_period_independent, IsdcConfig, IsdcSession,
};
use isdc_synth::{OpDelayModel, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var_os("ISDC_SWEEP_QUICK").is_some();
    let suite = isdc_benchsuite::suite();
    let bench = suite.iter().max_by_key(|b| b.graph.len()).expect("suite is nonempty");
    let g = &bench.graph;
    let points = if quick { 4 } else { 10 };
    let mut base = IsdcConfig::paper_defaults(bench.clock_period_ps);
    base.max_iterations = if quick { 3 } else { 8 };
    println!(
        "{}: {} nodes, {} sweep points from {}ps to {}ps ({})",
        bench.name,
        g.len(),
        points,
        bench.clock_period_ps,
        bench.clock_period_ps * 2.0,
        if quick { "quick" } else { "full" },
    );

    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let periods = linear_grid(bench.clock_period_ps, bench.clock_period_ps * 2.0, points);

    // Session sweep: one persistent engine across all points, ascending so
    // each point warm-starts from its tighter neighbour.
    let mut session = IsdcSession::new(g, &model, &oracle);
    let t = Instant::now();
    let warm = sweep_clock_period(&mut session, &base, &periods)?;
    let session_time = t.elapsed();

    // Baselines: independent runs, nothing shared across points.
    let t = Instant::now();
    let cold = sweep_clock_period_cold(g, &model, &oracle, &base, &periods)?;
    let cold_time = t.elapsed();
    let t = Instant::now();
    let independent = sweep_clock_period_independent(g, &model, &oracle, &base, &periods)?;
    let independent_time = t.elapsed();

    // The non-negotiable property before any speed talk: bit-identity
    // against both baselines at every point.
    for ((w, c), i) in warm.iter().zip(&cold).zip(&independent) {
        assert_eq!(
            w.schedule, c.schedule,
            "session diverged from the cold baseline at {}ps",
            w.clock_period_ps
        );
        assert_eq!(
            w.schedule, i.schedule,
            "session diverged from the independent baseline at {}ps",
            w.clock_period_ps
        );
    }

    println!("\nclock_ps | bits | stages | iters | warm | hit rate | session |  indep |   cold");
    for ((w, c), i) in warm.iter().zip(&cold).zip(&independent) {
        println!(
            "{:>8.0} | {:>4} | {:>6} | {:>5} | {:>4} | {:>7.1}% | {:>6.1?} | {:>6.1?} | {:>6.1?}",
            w.clock_period_ps,
            w.register_bits,
            w.num_stages,
            w.iterations,
            if w.warm_start { "yes" } else { "no" },
            w.cache_hit_rate() * 100.0,
            w.elapsed,
            i.elapsed,
            c.elapsed,
        );
    }
    let speedup_cold = cold_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9);
    let speedup_indep = independent_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9);
    println!(
        "\nsweep totals: session {session_time:.1?} | vs cold {cold_time:.1?} \
         ({speedup_cold:.1}x) | vs independent warm-solver runs {independent_time:.1?} \
         ({speedup_indep:.1}x); all {points} schedules bit-identical"
    );

    // Binary search for the minimum feasible period, reusing the same
    // session (its probes are cache-warm too).
    let search = min_feasible_period(&mut session, &base, 1.0, bench.clock_period_ps, 10.0)?;
    match search.min_period_ps {
        Some(p) => println!(
            "minimum feasible period: {p:.0}ps ({} probes, {} feasible)",
            search.probes.len(),
            search.probes.iter().filter(|p| p.feasible).count(),
        ),
        None => println!("design infeasible even at {}ps", bench.clock_period_ps),
    }

    Ok(())
}
