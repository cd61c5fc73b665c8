//! Golden pin of the synthesis oracle's output.
//!
//! Every other identity suite compares two paths through the same
//! lowering, passes and STA, so a change to those layers that moves every
//! netlist at once would still pass them. This test compares against a
//! checked-in file instead: for each of the 17 suite designs, the
//! `SynthesisOracle` report of every non-empty stage of the initial SDC
//! schedule at the design's Table I clock. Numbers are compared by their
//! exact JSON text, so any change to a delay, depth, AND count or
//! per-output arrival fails.
//!
//! Regenerate the file only when a change to the oracle is intended, and
//! explain the diff in the change log:
//!
//! ```sh
//! cargo test --test oracle_golden -- --ignored
//! ```

use isdc::core::run_sdc;
use isdc::synth::{DelayOracle, OpDelayModel, SynthesisOracle};
use isdc::techlib::TechLibrary;
use isdc::telemetry::json::{self, Value};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/oracle_reports.json");

/// Renders the current oracle reports as the golden document: one design
/// per entry, one line per stage.
fn render() -> String {
    let lib = TechLibrary::sky130();
    let model = OpDelayModel::new(lib.clone());
    let oracle = SynthesisOracle::new(lib);
    let mut out = String::new();
    out.push_str("{\n  \"kind\": \"oracle_reports\",\n");
    let _ = writeln!(out, "  \"oracle\": \"{}\",", json::escape(oracle.name()));
    out.push_str("  \"designs\": [");
    for (i, b) in isdc::benchsuite::suite().iter().enumerate() {
        let (schedule, _) = run_sdc(&b.graph, &model, b.clock_period_ps)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{}\", \"clock_ps\": {}, \"stages\": [",
            if i == 0 { "" } else { "," },
            json::escape(b.name),
            b.clock_period_ps
        );
        let mut first = true;
        for (stage, members) in schedule.stages().iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let r = oracle.evaluate(&b.graph, members);
            let arrivals: Vec<String> =
                r.output_arrivals.iter().map(|(id, ps)| format!("[{}, {ps}]", id.0)).collect();
            let _ = write!(
                out,
                "{}\n      {{\"stage\": {stage}, \"delay_ps\": {}, \"aig_depth\": {}, \
                 \"and_count\": {}, \"output_arrivals\": [{}]}}",
                if first { "" } else { "," },
                r.delay_ps,
                r.aig_depth,
                r.and_count,
                arrivals.join(", ")
            );
            first = false;
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn designs(doc: &Value) -> &[Value] {
    doc["designs"].as_array().expect("a \"designs\" array")
}

#[test]
fn oracle_reports_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file readable");
    let golden = json::parse(&golden).expect("golden file is valid JSON");
    let current = json::parse(&render()).expect("rendered reports are valid JSON");
    assert_eq!(current["oracle"], golden["oracle"], "oracle identity changed");
    let (current, golden) = (designs(&current), designs(&golden));
    assert_eq!(current.len(), golden.len(), "design count changed");
    for (c, g) in current.iter().zip(golden) {
        let name = g["name"].as_str().unwrap_or("?");
        assert_eq!(c["name"], g["name"], "design order changed");
        assert_eq!(c["clock_ps"], g["clock_ps"], "{name}: clock changed");
        let (cs, gs) = (c["stages"].as_array().unwrap(), g["stages"].as_array().unwrap());
        assert_eq!(cs.len(), gs.len(), "{name}: non-empty stage count changed");
        for (cr, gr) in cs.iter().zip(gs) {
            assert_eq!(cr, gr, "{name}: stage report changed");
        }
    }
}

/// Rewrites the golden file from the current oracle.
#[test]
#[ignore = "rewrites tests/golden/oracle_reports.json; run explicitly"]
fn regenerate_oracle_golden() {
    std::fs::write(GOLDEN, render()).expect("golden file writable");
}
