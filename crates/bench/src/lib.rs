//! # isdc-bench — harness that regenerates every table and figure
//!
//! Each binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I: SDC vs ISDC on the 17 benchmarks |
//! | `fig1` | Fig. 1: estimated vs post-synthesis delay scatter |
//! | `fig5` | Fig. 5: delay-driven vs fanout-driven ablation |
//! | `fig6` | Fig. 6: path vs cone vs window ablation |
//! | `fig7` | Fig. 7: estimation error across iterations |
//! | `fig8` | Fig. 8: STA delay vs AIG depth correlation |
//! | `alg2_accuracy` | §IV-B: Alg. 2 vs Floyd-Warshall reformulation |
//!
//! This library holds the shared row structures and statistics helpers.

#![warn(missing_docs)]

use isdc_core::metrics::post_synthesis_slack;
use isdc_core::{run_isdc, run_sdc, IsdcConfig, IsdcResult, ScheduleError};
use isdc_synth::{DelayOracle, OpDelayModel, SynthesisOracle};
use isdc_techlib::TechLibrary;
use std::time::Instant;

/// One Table I row: baseline and ISDC numbers for one benchmark.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Target clock period (ps).
    pub clock_ps: f64,
    /// Baseline post-synthesis slack (ps).
    pub sdc_slack_ps: f64,
    /// Baseline pipeline stages.
    pub sdc_stages: u32,
    /// Baseline register bits.
    pub sdc_registers: u64,
    /// Baseline scheduling time (seconds).
    pub sdc_time_s: f64,
    /// ISDC post-synthesis slack (ps).
    pub isdc_slack_ps: f64,
    /// ISDC pipeline stages.
    pub isdc_stages: u32,
    /// ISDC register bits.
    pub isdc_registers: u64,
    /// ISDC scheduling time (seconds).
    pub isdc_time_s: f64,
    /// Feedback iterations executed.
    pub isdc_iterations: usize,
}

/// Runs baseline SDC and full ISDC on one benchmark and assembles the row.
///
/// # Errors
///
/// Propagates scheduling failures (which indicate an invalid benchmark/clock
/// combination).
pub fn run_table_row(
    name: &str,
    graph: &isdc_ir::Graph,
    clock_ps: f64,
    config: &IsdcConfig,
) -> Result<TableRow, ScheduleError> {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);

    let t0 = Instant::now();
    let (baseline, _) = run_sdc(graph, &model, clock_ps)?;
    let sdc_time_s = t0.elapsed().as_secs_f64();

    let result: IsdcResult = run_isdc(graph, &model, &oracle, config)?;

    Ok(TableRow {
        name: name.to_string(),
        clock_ps,
        sdc_slack_ps: post_synthesis_slack(graph, &baseline, &oracle, clock_ps),
        sdc_stages: baseline.num_stages(),
        sdc_registers: baseline.register_bits(graph),
        sdc_time_s,
        isdc_slack_ps: post_synthesis_slack(graph, &result.schedule, &oracle, clock_ps),
        isdc_stages: result.schedule.num_stages(),
        isdc_registers: result.schedule.register_bits(graph),
        isdc_time_s: result.total_time.as_secs_f64(),
        isdc_iterations: result.iterations(),
    })
}

/// Geometric mean of positive values; zero entries are clamped to 1 so rows
/// with zero cost (single-stage pipelines) do not zero the mean — matching
/// how such tables are usually aggregated.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        log_sum += v.max(1.0).ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Timing violations among post-synthesis slacks: how many are negative,
/// and the worst (most negative) of them, `None` when every value meets
/// timing. Unlike [`geomean`], nothing is clamped, so a violating row
/// cannot hide behind clean ones.
pub fn timing_violations(slacks: impl IntoIterator<Item = f64>) -> (usize, Option<f64>) {
    slacks
        .into_iter()
        .filter(|&s| s < 0.0)
        .fold((0, None), |(count, worst), s| (count + 1, Some(worst.map_or(s, |w: f64| w.min(s)))))
}

/// Pearson correlation coefficient of two equal-length series.
///
/// # Panics
///
/// Panics if the series lengths differ or are empty.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert!(!x.is_empty());
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

/// Least-squares slope and intercept of `y = slope * x + intercept`.
///
/// # Panics
///
/// Panics if the series lengths differ or are empty.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    assert!(!x.is_empty());
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
    }
    let slope = if vx == 0.0 { 0.0 } else { cov / vx };
    (slope, my - slope * mx)
}

/// Runs the per-iteration register-usage series for an ablation
/// configuration (the Fig. 5 / Fig. 6 data): returns `history[i] =
/// register_bits after iteration i` padded to `iterations + 1` entries by
/// repeating the converged value.
pub fn ablation_series<O: DelayOracle + ?Sized>(
    graph: &isdc_ir::Graph,
    model: &OpDelayModel,
    oracle: &O,
    config: &IsdcConfig,
) -> Vec<u64> {
    let result = run_isdc(graph, model, oracle, config).expect("benchmark schedules");
    let mut series: Vec<u64> = result.history.iter().map(|r| r.register_bits).collect();
    let last = *series.last().expect("non-empty history");
    series.resize(config.max_iterations + 1, last);
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
        // Zeros clamp to 1.
        assert!((geomean([0.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn timing_violations_count_and_keep_the_worst() {
        assert_eq!(timing_violations([287.0, -606.0, 0.0, -1382.0, -910.0]), (3, Some(-1382.0)));
        assert_eq!(timing_violations([0.0, 12.5]), (0, None));
        assert_eq!(timing_violations(std::iter::empty()), (0, None));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [5.0, 7.0, 9.0, 11.0];
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table_row_on_tiny_benchmark() {
        let suite = isdc_benchsuite::suite();
        let b = &suite[0]; // ml_core_datapath1, small
        let mut config = IsdcConfig::paper_defaults(b.clock_period_ps);
        config.threads = 1;
        config.max_iterations = 3;
        let row = run_table_row(b.name, &b.graph, b.clock_period_ps, &config).unwrap();
        assert!(row.isdc_registers <= row.sdc_registers);
        assert!(row.sdc_slack_ps >= 0.0);
    }
}
