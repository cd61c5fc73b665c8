//! Table I: SDC vs ISDC benchmarking on the 17-design suite.
//!
//! Prints the same columns the paper reports — clock period, post-synthesis
//! slack, pipeline stages, register count and scheduling time for both the
//! baseline SDC scheduler and ISDC, plus the geometric-mean ratio row.
//! Slack is not averaged: the summary counts the rows that violate timing
//! and names the worst negative slack, for SDC and for ISDC.
//!
//! Usage: `cargo run -p isdc-bench --bin table1 --release [max_iterations]`

use isdc_bench::{geomean, run_table_row, timing_violations, TableRow};
use isdc_core::IsdcConfig;

fn main() {
    let max_iterations: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(15);

    println!("Table I: SDC vs ISDC on 17 benchmarks (fanout-driven, window, m=16, <= {max_iterations} iterations)");
    println!(
        "{:<28} {:>6} | {:>9} {:>6} {:>8} {:>9} | {:>9} {:>6} {:>8} {:>9} {:>5}",
        "benchmark",
        "clk",
        "slack",
        "stages",
        "regs",
        "time(s)",
        "slack",
        "stages",
        "regs",
        "time(s)",
        "iter"
    );
    println!(
        "{:<28} {:>6} | {:>35} | {:>41}",
        "", "(ps)", "XLS-style SDC scheduling", "Ours (iterative SDC scheduling)"
    );
    println!("{}", "-".repeat(126));

    let mut rows: Vec<TableRow> = Vec::new();
    for b in isdc_benchsuite::suite() {
        let mut config = IsdcConfig::paper_defaults(b.clock_period_ps);
        config.max_iterations = max_iterations;
        let row = run_table_row(b.name, &b.graph, b.clock_period_ps, &config)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        println!(
            "{:<28} {:>6.0} | {:>9.2} {:>6} {:>8} {:>9.3} | {:>9.2} {:>6} {:>8} {:>9.3} {:>5}",
            row.name,
            row.clock_ps,
            row.sdc_slack_ps,
            row.sdc_stages,
            row.sdc_registers,
            row.sdc_time_s,
            row.isdc_slack_ps,
            row.isdc_stages,
            row.isdc_registers,
            row.isdc_time_s,
            row.isdc_iterations,
        );
        rows.push(row);
    }

    println!("{}", "-".repeat(126));
    let gm = |f: &dyn Fn(&TableRow) -> f64| geomean(rows.iter().map(f));
    let sdc_stages = gm(&|r| r.sdc_stages as f64);
    let sdc_regs = gm(&|r| r.sdc_registers as f64);
    let sdc_time = gm(&|r| r.sdc_time_s * 1e3); // ms so tiny times don't clamp
    let isdc_stages = gm(&|r| r.isdc_stages as f64);
    let isdc_regs = gm(&|r| r.isdc_registers as f64);
    let isdc_time = gm(&|r| r.isdc_time_s * 1e3);
    println!(
        "{:<28} {:>6} | {:>9} {:>6.2} {:>8.1} {:>9.3} | {:>9} {:>6.2} {:>8.1} {:>9.3}",
        "Geo. Mean",
        "",
        "-",
        sdc_stages,
        sdc_regs,
        sdc_time / 1e3,
        "-",
        isdc_stages,
        isdc_regs,
        isdc_time / 1e3,
    );
    println!(
        "{:<28} {:>6} | {:>9} {:>6} {:>8} {:>9} | {:>9} {:>5.1}% {:>7.1}% {:>8.1}%",
        "Ratio",
        "",
        "-",
        "100.0%",
        "100.0%",
        "100.0%",
        "-",
        100.0 * isdc_stages / sdc_stages,
        100.0 * isdc_regs / sdc_regs,
        100.0 * isdc_time / sdc_time,
    );
    let violations = |slack: fn(&TableRow) -> f64| {
        let (count, worst) = timing_violations(rows.iter().map(slack));
        let worst = worst.map_or("none".to_string(), |w| format!("{w:.2} ps"));
        format!("{count} of {} rows, worst negative slack {worst}", rows.len())
    };
    println!();
    println!(
        "Timing violations: SDC {}; ISDC {}",
        violations(|r| r.sdc_slack_ps),
        violations(|r| r.isdc_slack_ps)
    );
    println!(
        "Register reduction: {:.1}% (paper reports 28.5%); runtime overhead: {:.1}x (paper reports 40.8x)",
        100.0 * (1.0 - isdc_regs / sdc_regs),
        isdc_time / sdc_time,
    );
}
