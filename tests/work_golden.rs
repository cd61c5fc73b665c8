//! Golden pin of paper QoR and the deterministic work counters.
//!
//! The identity suites compare two paths through the same extraction,
//! feedback and solver code, so a change that moves every schedule (or
//! doubles the solver's work) at once still passes them. These tests
//! compare against checked-in files instead:
//!
//! - `tests/golden/table1.json`: for each of the 17 suite designs,
//!   `run_sdc` and `run_isdc` at `paper_defaults(clock)` — pipeline stages,
//!   register bits, post-synthesis slack and ISDC iterations — plus the
//!   LP emission, SSP drain and iteration counters summed over the suite.
//! - `tests/golden/sweep.json`: crc32 and sha256, each swept over
//!   `linear_grid(2500, 5000, 10)` through one `IsdcSession` on one
//!   evaluation thread — per-point QoR plus the same counters and the
//!   session cache's hits and misses.
//!
//! The counters are work, not time: they are identical on every machine,
//! thread count and run, so an exact match catches an algorithmic
//! regression that wall-clock noise would hide. Numbers are compared by
//! their exact JSON text.
//!
//! Regenerate the files only when a change to QoR or to the solver's work
//! is intended, and explain the diff in the change log:
//!
//! ```sh
//! cargo test --test work_golden -- --ignored
//! ```

use isdc::core::metrics::post_synthesis_slack;
use isdc::core::{
    linear_grid, run_isdc, run_sdc, sweep_clock_period, IsdcConfig, IsdcSession, SweepPoint,
};
use isdc::synth::{OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use isdc::telemetry::json::{self, Value};
use isdc::telemetry::MetricsFrame;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const TABLE1: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/table1.json");
const SWEEP: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep.json");

/// The run-frame counters both goldens sum.
const COUNTERS: [&str; 7] = [
    "lp/pairs_scanned",
    "lp/constraints_emitted",
    "drain/nodes_settled",
    "drain/dijkstras",
    "drain/paths",
    "run/iterations",
    "run/subgraphs_evaluated",
];

fn add_frame(totals: &mut BTreeMap<&'static str, u64>, frame: &MetricsFrame) {
    for key in COUNTERS {
        *totals.entry(key).or_default() += frame.counter_or_zero(key);
    }
}

fn render_counters(out: &mut String, totals: &BTreeMap<&'static str, u64>) {
    out.push_str("  \"counters\": {");
    for (i, (key, v)) in totals.iter().enumerate() {
        let _ = write!(out, "{}\n    \"{key}\": {v}", if i == 0 { "" } else { "," });
    }
    out.push_str("\n  },\n");
}

/// Renders the Table I golden: per-design QoR, then the summed counters.
fn render_table1() -> String {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut totals = BTreeMap::new();
    let mut register_bits = 0u64;
    let mut rows = String::new();
    for (i, b) in isdc::benchsuite::suite().iter().enumerate() {
        let clock = b.clock_period_ps;
        let (sdc, _) =
            run_sdc(&b.graph, &model, clock).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let isdc = run_isdc(&b.graph, &model, &oracle, &IsdcConfig::paper_defaults(clock))
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        add_frame(&mut totals, &isdc.metrics);
        register_bits += isdc.schedule.register_bits(&b.graph);
        let _ = write!(
            rows,
            "{}\n    {{\"name\": \"{}\", \"clock_ps\": {clock}, \
             \"sdc\": {{\"stages\": {}, \"register_bits\": {}, \"slack_ps\": {}}}, \
             \"isdc\": {{\"stages\": {}, \"register_bits\": {}, \"slack_ps\": {}, \
             \"iterations\": {}}}}}",
            if i == 0 { "" } else { "," },
            json::escape(b.name),
            sdc.num_stages(),
            sdc.register_bits(&b.graph),
            post_synthesis_slack(&b.graph, &sdc, &oracle, clock),
            isdc.schedule.num_stages(),
            isdc.schedule.register_bits(&b.graph),
            post_synthesis_slack(&b.graph, &isdc.schedule, &oracle, clock),
            isdc.iterations(),
        );
    }
    let mut out = String::from("{\n  \"kind\": \"table1_golden\",\n");
    render_counters(&mut out, &totals);
    let _ = writeln!(out, "  \"register_bits\": {register_bits},");
    let _ = write!(out, "  \"designs\": [{rows}\n  ]\n}}\n");
    out
}

/// Renders the sweep golden: per-point QoR, then the summed counters and
/// the session caches' lookups.
fn render_sweep() -> String {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let base = IsdcConfig { threads: 1, ..IsdcConfig::paper_defaults(2500.0) };
    let periods = linear_grid(2500.0, 5000.0, 10);
    let suite = isdc::benchsuite::suite();
    let mut totals = BTreeMap::new();
    let mut register_bits = 0u64;
    let mut rows = String::new();
    for (i, name) in ["crc32", "sha256"].into_iter().enumerate() {
        let b = suite.iter().find(|b| b.name == name).expect("design in the suite");
        let mut session = IsdcSession::new(&b.graph, &model, &oracle);
        let points = sweep_clock_period(&mut session, &base, &periods)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = write!(
            rows,
            "{}\n    {{\"name\": \"{name}\", \"points\": [",
            if i == 0 { "" } else { "," }
        );
        for (k, p) in points.iter().enumerate() {
            add_frame(&mut totals, &p.metrics);
            *totals.entry("cache/hits").or_default() += p.cache_hits;
            *totals.entry("cache/misses").or_default() += p.cache_misses;
            register_bits += p.register_bits;
            render_point(&mut rows, k == 0, p);
        }
        rows.push_str("\n    ]}");
    }
    let mut out = String::from("{\n  \"kind\": \"sweep_golden\",\n");
    render_counters(&mut out, &totals);
    let _ = writeln!(out, "  \"register_bits\": {register_bits},");
    let _ = write!(out, "  \"designs\": [{rows}\n  ]\n}}\n");
    out
}

fn render_point(out: &mut String, first: bool, p: &SweepPoint) {
    let _ = write!(
        out,
        "{}\n      {{\"clock_ps\": {}, \"feasible\": {}, \"stages\": {}, \
         \"register_bits\": {}, \"iterations\": {}}}",
        if first { "" } else { "," },
        p.clock_period_ps,
        p.feasible,
        p.num_stages,
        p.register_bits,
        p.iterations,
    );
}

fn designs(doc: &Value) -> &[Value] {
    doc["designs"].as_array().expect("a \"designs\" array")
}

/// Compares a rendered document against its golden file field by field,
/// so a failure names the counter or design that moved.
fn assert_matches_golden(path: &str, rendered: &str) {
    let golden = std::fs::read_to_string(path).expect("golden file readable");
    let golden = json::parse(&golden).expect("golden file is valid JSON");
    let current = json::parse(rendered).expect("rendered document is valid JSON");
    assert_eq!(current["counters"], golden["counters"], "{path}: work counters changed");
    assert_eq!(current["register_bits"], golden["register_bits"], "{path}: register bits changed");
    let (current, golden) = (designs(&current), designs(&golden));
    assert_eq!(current.len(), golden.len(), "{path}: design count changed");
    for (c, g) in current.iter().zip(golden) {
        let name = g["name"].as_str().unwrap_or("?");
        assert_eq!(c, g, "{path}: {name} changed");
    }
}

#[test]
fn table1_matches_golden() {
    assert_matches_golden(TABLE1, &render_table1());
}

#[test]
fn sweep_matches_golden() {
    assert_matches_golden(SWEEP, &render_sweep());
}

/// Rewrites both golden files from the current code.
#[test]
#[ignore = "rewrites tests/golden/{table1,sweep}.json; run explicitly"]
fn regenerate_work_golden() {
    std::fs::write(TABLE1, render_table1()).expect("golden file writable");
    std::fs::write(SWEEP, render_sweep()).expect("golden file writable");
}
