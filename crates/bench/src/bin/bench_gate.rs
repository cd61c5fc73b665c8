//! `bench_gate` — the benchmark regression gate.
//!
//! Reads the freshly emitted `BENCH_solver.json`, `BENCH_cache.json`,
//! `BENCH_sweep.json` and `BENCH_batch.json` from the workspace root,
//! compares their speedups against the checked-in floors
//! (`crates/bench/floors.json`, keyed by the document's own `mode` field so
//! CI's quick smokes and full release runs each gate against appropriate
//! expectations), and exits nonzero on any regression. The batch document
//! additionally must attest `bit_identical: true`, and its serial-speedup
//! floor scales with the measuring machine's `hardware_threads` — flat
//! wall-clock scaling on a 1-core container is physics, not a regression,
//! while a multi-core runner is held to real scaling.
//!
//! ```text
//! bench_gate [--dir <workspace root>] [--floors <floors.json>]
//!            [--require solver,cache,sweep,batch]
//! ```
//!
//! Without `--require`, every `BENCH_*.json` that exists is gated and
//! missing ones are skipped with a note; `--require` turns absence into a
//! failure (CI passes the artifacts it just generated).

use isdc_telemetry::json::{flatten, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One floor violation (or pass) line.
struct Check {
    /// Which `BENCH_*.json` the check came from — on failure, that
    /// document is diffed against its `.baseline.json` for attribution.
    bench: &'static str,
    label: String,
    floor: f64,
    actual: f64,
}

impl Check {
    fn ok(&self) -> bool {
        self.actual >= self.floor
    }
}

/// The ranked regression attribution printed when a floor goes red:
/// which metrics moved between the baseline and current document, by
/// contribution to the wall-clock delta.
fn attribution_report(baseline: &Value, current: &Value) -> String {
    let (total, rows) = isdc_telemetry::attribute(&flatten(baseline), &flatten(current));
    isdc_telemetry::render_attribution(total, &rows, 15)
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Floors for one (bench, mode) pair, straight from floors.json.
fn floors_for<'a>(floors: &'a Value, bench: &str, mode: &str) -> Result<&'a Value, String> {
    match &floors[bench][mode] {
        Value::Null => Err(format!("floors.json has no entry for bench `{bench}` mode `{mode}`")),
        entry => Ok(entry),
    }
}

fn floor_number(entry: &Value, key: &str) -> Result<f64, String> {
    entry[key].as_f64().ok_or_else(|| format!("floors entry lacks `{key}`"))
}

fn gate_solver(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc["mode"].as_str().unwrap_or("full");
    let entry = floors_for(floors, "solver", mode)?;
    let designs = doc["designs"].as_array().ok_or("solver doc lacks `designs`")?;
    let speedups: Vec<f64> = designs.iter().filter_map(|d| d["speedup"].as_f64()).collect();
    if speedups.is_empty() {
        return Err("solver doc has no per-design speedups".into());
    }
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] min warm speedup"),
        floor: floor_number(entry, "warm_speedup_min")?,
        actual: speedups.iter().copied().fold(f64::INFINITY, f64::min),
    });
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] geomean warm speedup"),
        floor: floor_number(entry, "warm_speedup_geomean")?,
        actual: geomean(&speedups),
    });
    // Eq. 2 sparsification: the densest design (crc32 — always in the
    // quick subset) must keep pruning at least the floored fraction of the
    // dense emission, i.e. a ratio of 0.5 is a 2x constraint-count cut.
    let crc32 = designs
        .iter()
        .find(|d| d["name"].as_str() == Some("crc32"))
        .ok_or("solver doc lacks a crc32 design row")?;
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] crc32 LP pruning ratio"),
        floor: floor_number(entry, "pruning_ratio_min")?,
        actual: crc32["pruning_ratio"].as_f64().ok_or("crc32 row lacks `pruning_ratio`")?,
    });
    // The bulk-retarget drain rows: batched vs the retained serial
    // reference, plus the structural attestation that batching batches
    // (never more Dijkstra passes than augmenting paths).
    let drain = doc["drain"].as_array().ok_or("solver doc lacks `drain` (bulk-retarget rows)")?;
    let drain_speedups: Vec<f64> = drain.iter().filter_map(|d| d["speedup"].as_f64()).collect();
    if drain_speedups.is_empty() {
        return Err("solver doc has no drain speedups".into());
    }
    checks.push(Check {
        bench: "solver",
        label: format!("solver[{mode}] min drain speedup (batched vs serial)"),
        floor: floor_number(entry, "drain_speedup_min")?,
        actual: drain_speedups.iter().copied().fold(f64::INFINITY, f64::min),
    });
    for row in drain {
        let n = row["n"].as_f64().unwrap_or(0.0);
        let dijkstras = row["dijkstras_batched"].as_f64().ok_or("drain row lacks dijkstras")?;
        let paths = row["paths"].as_f64().ok_or("drain row lacks paths")?;
        if dijkstras > paths {
            return Err(format!("drain row n={n}: {dijkstras} Dijkstras exceed {paths} paths"));
        }
    }
    Ok(())
}

fn gate_cache(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc["mode"].as_str().unwrap_or("full");
    let entry = floors_for(floors, "cache", mode)?;
    for key in ["warm_speedup_vs_uncached", "warm_speedup_vs_cold"] {
        checks.push(Check {
            bench: "cache",
            label: format!("cache[{mode}] {key}"),
            floor: floor_number(entry, key)?,
            actual: doc[key].as_f64().ok_or_else(|| format!("cache doc lacks `{key}`"))?,
        });
    }
    Ok(())
}

fn gate_sweep(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc["mode"].as_str().unwrap_or("full");
    let entry = floors_for(floors, "sweep", mode)?;
    for key in ["speedup_vs_cold", "speedup_vs_independent"] {
        checks.push(Check {
            bench: "sweep",
            label: format!("sweep[{mode}] {key}"),
            floor: floor_number(entry, key)?,
            actual: doc[key].as_f64().ok_or_else(|| format!("sweep doc lacks `{key}`"))?,
        });
    }
    drain_sanity(doc["runs"].as_array().unwrap_or(&[]), "sweep run")?;
    Ok(())
}

/// Structural sanity over the registry-derived drain fields rows now
/// carry: SSP pushes at least one augmenting path per Dijkstra pass, so
/// `drain_dijkstras <= drain_paths` whenever any path was pushed. Rows
/// without the fields (older documents) pass vacuously — the gate
/// tolerates enrichment, it doesn't require it.
fn drain_sanity(rows: &[Value], what: &str) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let (Some(dijkstras), Some(paths)) =
            (row["drain_dijkstras"].as_f64(), row["drain_paths"].as_f64())
        else {
            continue;
        };
        if paths > 0.0 && dijkstras > paths {
            return Err(format!("{what} {i}: {dijkstras} drain Dijkstras exceed {paths} paths"));
        }
    }
    Ok(())
}

fn gate_batch(doc: &Value, floors: &Value, checks: &mut Vec<Check>) -> Result<(), String> {
    let mode = doc["mode"].as_str().unwrap_or("full");
    let entry = floors_for(floors, "batch", mode)?;
    if doc["bit_identical"] != Value::Bool(true) {
        return Err("batch doc does not attest bit_identical: true".into());
    }
    // Robustness attestation: a bench that dropped jobs, or only survived
    // via the retry machinery, is not a valid measurement. The fields are
    // required — their absence means the document predates them.
    for key in ["jobs_failed", "jobs_retried", "jobs_timed_out"] {
        match doc[key].as_f64() {
            None => return Err(format!("batch doc lacks `{key}`")),
            Some(n) if n != 0.0 => return Err(format!("batch doc attests {key} = {n}, want 0")),
            Some(_) => {}
        }
    }
    let hardware = doc["hardware_threads"].as_f64().unwrap_or(1.0);
    let max_threads = doc["max_threads_measured"].as_f64().ok_or("batch doc lacks scaling")?;
    let best = doc["scaling"]
        .as_array()
        .and_then(|rows| rows.iter().find(|r| r["threads"].as_f64() == Some(max_threads)).cloned())
        .ok_or("batch doc lacks the max-threads scaling row")?;
    checks.push(Check {
        bench: "batch",
        label: format!("batch[{mode}] speedup vs cold @ {max_threads} threads"),
        floor: floor_number(entry, "vs_cold_at_max_threads")?,
        actual: best["speedup_vs_cold"]
            .as_f64()
            .ok_or("batch scaling row lacks speedup_vs_cold")?,
    });
    // Wall-clock scaling against the serial session sweep is gated to what
    // the measuring hardware can express: a 1-core container cannot scale,
    // an 8-core runner must.
    let expected_threads = hardware.min(max_threads);
    let floor = floor_number(entry, "vs_serial_abs_floor")?
        .max(floor_number(entry, "vs_serial_per_expected_thread")? * expected_threads);
    checks.push(Check {
        bench: "batch",
        label: format!(
            "batch[{mode}] speedup vs serial @ {max_threads} threads ({hardware} hw threads)"
        ),
        floor,
        actual: doc["speedup_at_max_threads"]
            .as_f64()
            .ok_or("batch doc lacks speedup_at_max_threads")?,
    });
    drain_sanity(doc["runs"].as_array().unwrap_or(&[]), "batch run")?;
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = flag_value(&args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let floors_path = flag_value(&args, "--floors")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("floors.json"));
    let required: Vec<&str> =
        flag_value(&args, "--require").map(|v| v.split(',').collect()).unwrap_or_default();
    const KNOWN: [&str; 4] = ["solver", "cache", "sweep", "batch"];
    // A typo in --require must fail loudly, not silently un-require a bench.
    for name in &required {
        if !KNOWN.contains(name) {
            eprintln!("bench_gate: unknown bench `{name}` in --require (known: {KNOWN:?})");
            return ExitCode::FAILURE;
        }
    }

    let floors = match load(&floors_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    type GateFn = fn(&Value, &Value, &mut Vec<Check>) -> Result<(), String>;
    let benches: [(&str, GateFn); 4] = [
        ("solver", gate_solver),
        ("cache", gate_cache),
        ("sweep", gate_sweep),
        ("batch", gate_batch),
    ];
    let mut checks: Vec<Check> = Vec::new();
    let mut failures = 0usize;
    let mut loaded: Vec<(&'static str, Value)> = Vec::new();
    let mut red: Vec<&'static str> = Vec::new();
    for (name, gate) in benches {
        let path = dir.join(format!("BENCH_{name}.json"));
        if !path.exists() {
            if required.contains(&name) {
                eprintln!("FAIL  {name}: required artifact {} is missing", path.display());
                failures += 1;
            } else {
                println!("skip  {name}: no {} (not required)", path.display());
            }
            continue;
        }
        match load(&path) {
            Ok(doc) if doc["mode"].as_str() == Some("cli") => {
                // A one-off `isdc-cli batch --out` measurement has no
                // baselines and no bit-identity attestation; it is not a
                // regression-gateable document.
                println!("skip  {name}: {} is a cli measurement, not a bench", path.display());
            }
            Ok(doc) => {
                if let Err(e) = gate(&doc, &floors, &mut checks) {
                    eprintln!("FAIL  {name}: {e}");
                    failures += 1;
                    red.push(name);
                }
                loaded.push((name, doc));
            }
            Err(e) => {
                eprintln!("FAIL  {name}: {e}");
                failures += 1;
            }
        }
    }
    for check in &checks {
        if check.ok() {
            println!("pass  {} = {:.2} (floor {:.2})", check.label, check.actual, check.floor);
        } else {
            eprintln!("FAIL  {} = {:.2} below floor {:.2}", check.label, check.actual, check.floor);
            failures += 1;
            red.push(check.bench);
        }
    }
    // Regression attribution: every red bench whose baseline artifact is
    // checked in (`BENCH_<name>.baseline.json`, e.g. copied from the last
    // green run) gets its metric deltas ranked by wall-clock impact.
    red.sort_unstable();
    red.dedup();
    for bench in red {
        let Some((_, doc)) = loaded.iter().find(|(n, _)| *n == bench) else { continue };
        let baseline_path = dir.join(format!("BENCH_{bench}.baseline.json"));
        if !baseline_path.exists() {
            eprintln!("note  {bench}: no {} to attribute against", baseline_path.display());
            continue;
        }
        match load(&baseline_path) {
            Ok(baseline) => {
                eprintln!("{bench}: regression vs {}:", baseline_path.display());
                eprint!("{}", attribution_report(&baseline, doc));
            }
            Err(e) => eprintln!("note  {bench}: {e}"),
        }
    }
    if failures > 0 {
        eprintln!("bench_gate: {failures} regression(s)");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: all {} checks passed", checks.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal-but-valid solver document for `gate_solver`.
    fn doc(warm_ns: f64, speedup: f64) -> Value {
        Value::parse(&format!(
            r#"{{"mode": "quick",
                 "designs": [
                   {{"name": "crc32", "speedup": {speedup}, "pruning_ratio": 0.9,
                     "warm_ns": {warm_ns}}},
                   {{"name": "sha256", "speedup": 3.0, "warm_ns": 1000.0}}
                 ],
                 "drain": [{{"n": 64, "speedup": 2.0, "dijkstras_batched": 3, "paths": 9}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn deliberately_failed_floor_prints_ranked_attribution() {
        let floors = Value::parse(
            r#"{"solver": {"quick": {
                "warm_speedup_min": 1000.0,
                "warm_speedup_geomean": 1000.0,
                "pruning_ratio_min": 0.5,
                "drain_speedup_min": 1.0}}}"#,
        )
        .unwrap();
        let current = doc(50_000.0, 4.0);
        let mut checks = Vec::new();
        gate_solver(&current, &floors, &mut checks).expect("structurally valid doc");
        let red: Vec<&Check> = checks.iter().filter(|c| !c.ok()).collect();
        assert!(!red.is_empty(), "the 1000x floor must fail");
        assert!(red.iter().all(|c| c.bench == "solver"));

        // The attribution the gate prints for that red bench: crc32's
        // warm solve time grew 100x and must rank first, with its share
        // of the wall-clock delta.
        let baseline = doc(500.0, 40.0);
        let report = attribution_report(&baseline, &current);
        assert!(report.starts_with("attribution: total wall-clock delta"), "{report}");
        let first_row = report.lines().nth(1).expect("at least one ranked row");
        assert!(first_row.trim_start().starts_with("designs/crc32/warm_ns"), "{report}");
        assert!(first_row.contains("of delta"), "{report}");
    }
}
