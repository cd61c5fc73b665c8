//! The ISDC benchmark: one workload per run, end-to-end metrics with
//! tracing off (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). Prints a report, then one JSON line with the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|sweep|batch --seed N --seconds S --trace 0|1
//! ```
//!
//! Exits 1 when any output check fails, 2 on bad arguments.

mod oracles;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use stats::{highest_percentile, median, quantile, samples_needed};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{check_points, run_pass, Counters, Fixture, Pass, Workload};

/// Fixture builds before the first pass. One more is timed after every
/// timed pass, so that `setup_s`, their median, samples the whole run.
const SETUPS: usize = 5;
/// The tail percentile reported as `point_ms_p90`.
const TAIL: f64 = 90.0;
/// Traced and untraced passes each, at least, in a traced run.
const MIN_TRACED_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// splitmix64: a seed-only permutation source.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `items` shuffled by `seed` (Fisher-Yates).
fn permute(items: &[usize], seed: u64) -> Vec<usize> {
    let mut out = items.to_vec();
    let mut state = seed;
    for i in (1..out.len()).rev() {
        let j = (next_u64(&mut state) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// The design order of pass `k`: a fresh permutation per pass, drawn from
/// the run's seed, so a run's medians average over many job orders (batch
/// wall time depends on the order through load balance).
fn pass_order(designs: &[usize], seed: u64, k: u64) -> Vec<usize> {
    permute(designs, seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Builds a fixture, returning it with its build time in seconds.
fn timed_setup() -> (Fixture, f64) {
    let t = Instant::now();
    let fx = std::hint::black_box(Fixture::build());
    (fx, t.elapsed().as_secs_f64())
}

/// Counters that repeat exactly between passes. With two batch workers
/// racing on one cache, which worker misses first is timing-dependent, so
/// the oracle and cache counters are excluded there.
fn deterministic(workload: Workload, name: &str) -> bool {
    workload != Workload::Batch
        || !matches!(name, "oracle.calls" | "oracle.aig_ands" | "cache.hits" | "cache.misses")
}

fn check_counters(workload: Workload, got: &Counters, want: &Counters, what: &str) -> Vec<String> {
    want.iter()
        .filter(|(name, _)| deterministic(workload, name))
        .filter_map(|(name, w)| {
            let g = got.get(name).copied();
            (g != Some(*w)).then(|| format!("{what}: counter {name} = {g:?}, reference {w}"))
        })
        .collect()
}

/// Metric values with their units, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload table1|sweep|batch --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        let (fx, s) = timed_setup();
        setup_s.push(s);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one setup");
    let designs = workload.designs(&fx.suite);
    let order = pass_order(&designs, args.seed, 0);
    let mut alt = pass_order(&designs, args.seed, u64::MAX);
    if alt == order {
        alt.reverse();
    }
    let names: Vec<&str> = order.iter().map(|&i| fx.suite[i].name).collect();
    println!(
        "workload {} seed {} ({} threads, {} hardware threads), first pass order: {}",
        workload.name(),
        args.seed,
        workload.threads(),
        std::thread::available_parallelism().map_or(1, usize::from),
        names.join(" ")
    );

    // The untimed first pass warms up and is the reference every later
    // pass must reproduce.
    let reference = run_pass(workload, &fx, &order);
    let mut failures = check_points(&fx, &reference.points, &reference.points, "reference");
    let mut attempted = reference.points.len();
    let per_pass = reference.points.len();

    let (correct, failed, metrics) = if args.trace {
        traced_run(&args, &fx, &designs, &reference, &mut failures, &mut attempted)
    } else {
        untimed_checks_and_timed_run(
            &args,
            &fx,
            &designs,
            &alt,
            &reference,
            setup_s,
            &mut failures,
            &mut attempted,
            per_pass,
        )
    };
    for f in failures.iter().take(20) {
        println!("FAIL {f}");
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end run: timed passes, then the checks outside the timed
/// region.
#[allow(clippy::too_many_arguments)]
fn untimed_checks_and_timed_run(
    args: &Args,
    fx: &Fixture,
    designs: &[usize],
    alt: &[usize],
    reference: &Pass,
    mut setup_s: Vec<f64>,
    failures: &mut Vec<String>,
    attempted: &mut usize,
    per_pass: usize,
) -> (bool, usize, Metrics) {
    let workload = args.workload;
    let min_passes = samples_needed(TAIL).div_ceil(per_pass.max(1));
    let mut passes: Vec<Pass> = Vec::new();
    let mut cpu_ms_per_point = Vec::new();
    let mut timed_s = 0.0;
    while passes.len() < min_passes || timed_s < args.seconds {
        let order = pass_order(designs, args.seed, passes.len() as u64 + 1);
        let cpu = sys::process_cpu_ns();
        let pass = run_pass(workload, fx, &order);
        let cpu_ns = sys::process_cpu_ns() - cpu;
        cpu_ms_per_point.push(cpu_ns as f64 / 1e6 / pass.points.len() as f64);
        timed_s += pass.wall.as_secs_f64();
        passes.push(pass);
        setup_s.push(timed_setup().1);
    }

    for (n, pass) in passes.iter().enumerate() {
        let what = format!("pass {}", n + 1);
        *attempted += pass.points.len();
        failures.extend(check_points(fx, &pass.points, &reference.points, &what));
        failures.extend(check_counters(workload, &pass.counters, &reference.counters, &what));
    }
    // Another design order through another public entry point.
    let other = workloads::reference_points(workload, fx, alt);
    *attempted += other.len();
    failures.extend(check_points(fx, &other, &reference.points, "reordered reference"));
    let violations = workloads::timing_violations(fx, &reference.points);

    // Each point's median latency over the passes, so that a percentile
    // falling between two points' latency clusters (crc32 against sha256 on
    // sweep) does not hinge on one pass's extreme sample.
    let mut by_point: BTreeMap<(usize, u64), Vec<f64>> = BTreeMap::new();
    for p in passes.iter().flat_map(|p| &p.points) {
        by_point.entry(p.key()).or_default().push(ms(p.elapsed));
    }
    let point_medians: Vec<f64> = by_point.values().map(|v| median(v)).collect();
    let p50 = quantile(&point_medians, 50.0);
    let p90 = quantile(&point_medians, TAIL);
    let samples: Vec<f64> = by_point.into_values().flatten().collect();
    let beyond = samples.iter().filter(|&&ms| ms > p90).count();
    let rates: Vec<f64> =
        passes.iter().map(|p| p.points.len() as f64 / p.wall.as_secs_f64()).collect();
    let register_bits: u64 = reference
        .points
        .iter()
        .filter(|p| p.outcome.feasible)
        .map(|p| p.outcome.register_bits)
        .sum();
    let failed = failures.len();
    let fail_ratio = failed as f64 / *attempted as f64;

    let n = samples.len();
    println!(
        "{} timed passes in {:.1} s; {} points x {} passes = {n} latency samples, {beyond} beyond p90; \
         highest percentile with >= {} samples beyond: p{}",
        passes.len(),
        timed_s,
        point_medians.len(),
        passes.len(),
        stats::MIN_TAIL,
        highest_percentile(n).map_or("-".to_string(), |p| p.to_string()),
    );
    let walls: Vec<String> =
        passes.iter().map(|p| format!("{:.3}", p.wall.as_secs_f64())).collect();
    println!("pass walls (s): {}", walls.join(" "));
    println!("setup_s is the median of {} fixture builds", setup_s.len());
    println!("deterministic counters per pass:");
    for (name, value) in &reference.counters {
        let note = if deterministic(workload, name) { "" } else { "  (timing-dependent)" };
        println!("  {name:<22} {value}{note}");
    }
    let metrics: Metrics = vec![
        ("points_per_s".into(), median(&rates), "points/s"),
        ("point_ms_p50".into(), p50, "ms"),
        ("point_ms_p90".into(), p90, "ms"),
        ("cpu_ms_per_point".into(), median(&cpu_ms_per_point), "ms"),
        ("register_bits".into(), register_bits as f64, "bits"),
        ("timing_violations".into(), violations as f64, "count"),
        ("peak_rss_mb".into(), sys::peak_rss_kib() as f64 / 1024.0, "MiB"),
        ("setup_s".into(), median(&setup_s), "s"),
    ];
    println!("{:<20} {:>14}  unit", "metric", "value");
    for (name, value, unit) in &metrics {
        println!("{name:<20} {value:>14.4}  {unit}");
    }
    println!(
        "{:<20} {:>14.4}  ratio  ({failed} of {} points)",
        "fail_ratio", fail_ratio, *attempted
    );
    (failed == 0, failed, metrics)
}

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with(".ns") || name.ends_with("_ns") {
        "ns"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("ratio") || name.ends_with("efficiency") || name.ends_with("imbalance")
    {
        "ratio"
    } else {
        "count"
    }
}

/// The layer-attributed run: untraced and traced passes alternate; the
/// traced pass with the median wall clock supplies the layer figures.
fn traced_run(
    args: &Args,
    fx: &Fixture,
    designs: &[usize],
    reference: &Pass,
    failures: &mut Vec<String>,
    attempted: &mut usize,
) -> (bool, usize, Metrics) {
    let workload = args.workload;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_TRACED_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let order = pass_order(designs, args.seed, traced.len() as u64 + 1);
        untraced.push(run_pass(workload, fx, &order).wall.as_secs_f64());
        traced.push(traced::run_traced_pass(workload, fx, &order));
    }
    for (n, t) in traced.iter().enumerate() {
        let what = format!("traced pass {}", n + 1);
        *attempted += t.pass.points.len();
        failures.extend(check_points(fx, &t.pass.points, &reference.points, &what));
        let comparable: Counters = t
            .pass
            .counters
            .iter()
            .filter(|(name, _)| reference.counters.contains_key(*name))
            .map(|(k, v)| (*k, *v))
            .collect();
        failures.extend(check_counters(workload, &comparable, &reference.counters, &what));
        if let Some(first) = traced.first() {
            failures.extend(check_counters(
                workload,
                &t.pass.counters,
                &first.pass.counters,
                &what,
            ));
        }
    }
    let mut walls: Vec<(f64, usize)> =
        traced.iter().enumerate().map(|(i, t)| (t.pass.wall.as_secs_f64(), i)).collect();
    walls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let chosen = &traced[walls[walls.len() / 2].1];
    let traced_walls: Vec<f64> = walls.iter().map(|w| w.0).collect();
    let mut layers = traced::layer_metrics(workload, chosen);
    layers.insert("trace.overhead_ratio".into(), median(&traced_walls) / median(&untraced));

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out_file = out_dir.join(format!("spans-{}-{}.json", workload.name(), args.seed));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&out_file, trace::to_json(&chosen.spans)))
    {
        Ok(()) => println!("spans of the median traced pass: {}", out_file.display()),
        Err(e) => println!("could not write spans: {e}"),
    }

    let wall = layers["wall.ns"];
    println!(
        "{} traced / {} untraced passes; layer self time of the median traced pass ({:.1} ms wall):",
        traced.len(),
        untraced.len(),
        wall / 1e6
    );
    let mut sum = 0.0;
    for layer in
        traced::LAYERS.iter().map(|l| format!("{l}.self_ns")).chain(["unattributed.ns".into()])
    {
        let ns = layers[&layer];
        sum += ns;
        println!("  {layer:<26} {:>10.2} ms {:>6.1}%", ns / 1e6, 100.0 * ns / wall);
    }
    println!("  {:<26} {:>10.2} ms (wall {:.2} ms)", "sum", sum / 1e6, wall / 1e6);
    if (sum - wall).abs() > 1.0 {
        failures.push(format!("layer self times sum to {sum} ns, wall is {wall} ns"));
    }

    let metrics: Metrics = layers
        .into_iter()
        .map(|(name, value)| {
            let unit = layer_unit(&name);
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.3}  {unit}");
    }
    let failed = failures.len();
    (failed == 0, failed, metrics)
}
