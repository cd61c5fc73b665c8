//! The batch report document (`isdc-cli batch --out`): batch totals,
//! robustness attestation, fleet cache and solver totals, and per-job
//! records.

use crate::engine::{BatchReport, JobStatus};
use crate::spec::JobKind;
use isdc_core::StageKind;
use isdc_telemetry::json::escape;
use std::fmt::Write as _;

/// Serializes `report` (a batch over `designs` designs). Rates are always
/// finite (zero-lookup divisions render as 0.0), so the output is
/// parseable JSON end to end.
pub fn render_batch_json(report: &BatchReport, designs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"batch\",\n");
    let _ = writeln!(
        out,
        "  \"designs\": {designs}, \"jobs\": {}, \"shards\": {}, \"points\": {},",
        report.jobs.len(),
        report.shards,
        report.total_points()
    );
    let _ = writeln!(
        out,
        "  \"threads\": {}, \"elapsed_ns\": {},",
        report.threads,
        report.elapsed.as_nanos()
    );
    // Robustness attestation: all zero on a clean run.
    let _ = writeln!(
        out,
        "  \"jobs_failed\": {}, \"jobs_retried\": {}, \"jobs_timed_out\": {},",
        report.jobs_failed(),
        report.jobs_retried(),
        report.jobs_timed_out()
    );
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"entries_inserted\": {}, \"evictions\": {}}},",
        report.cache.hits,
        report.cache.misses,
        report.cache_hit_rate(),
        report.cache.inserts,
        report.cache.evictions
    );
    // Fleet totals, summed out of the batch's merged metrics frame. Only
    // leaves that are unique across the metric namespace are meaningful
    // here (per-stage `ns`/`calls` leaves would collide).
    let totals = report.metrics.totals();
    let fleet = |leaf: &str| totals.get(leaf).copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "  \"fleet\": {{\"drain_dijkstras\": {}, \"drain_paths\": {}, \
         \"drain_flow_pushed\": {}, \"iterations\": {}}},",
        fleet("dijkstras"),
        fleet("paths"),
        fleet("flow_pushed"),
        fleet("iterations")
    );
    out.push_str("  \"runs\": [\n");
    for (i, job) in report.jobs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let kind = match &job.job.kind {
            JobKind::Sweep { .. } => "sweep",
            JobKind::MinPeriod { .. } => "min_period",
        };
        let feasible = job.points.iter().filter(|p| p.feasible).count();
        let status = match &job.status {
            JobStatus::Ok => "ok",
            JobStatus::Failed(_) => "failed",
            JobStatus::TimedOut { .. } => "timed_out",
            JobStatus::Skipped => "skipped",
        };
        let _ = write!(
            out,
            "    {{\"design\": \"{}\", \"type\": \"{kind}\", \"status\": \"{status}\", \
             \"retries\": {}, \"shards\": {}, \
             \"points\": {}, \"feasible\": {feasible}, \"cache_hit_rate\": {:.4}, \
             \"elapsed_ns\": {}",
            escape(&job.job.design),
            job.retries,
            job.shards,
            job.points.len(),
            job.cache_hit_rate(),
            job.elapsed.as_nanos()
        );
        if let JobStatus::Failed(error) = &job.status {
            let _ = write!(out, ", \"error\": \"{}\"", escape(&error.to_string()));
        }
        if let JobStatus::TimedOut { elapsed_ms, points_completed, .. } = &job.status {
            let _ = write!(
                out,
                ", \"timed_out_after_ms\": {elapsed_ms}, \"points_completed\": {points_completed}"
            );
        }
        if let Some(min) = job.min_period_ps {
            let _ = write!(out, ", \"min_period_ps\": {min:?}");
        }
        let drain = |leaf: &str| job.points.iter().map(|p| p.drain_total(leaf)).sum::<u64>();
        let _ = write!(
            out,
            ", \"drain_dijkstras\": {}, \"drain_paths\": {}, \"drain_flow_pushed\": {}",
            drain("dijkstras"),
            drain("paths"),
            drain("flow_pushed")
        );
        out.push_str(", \"stage_us\": {");
        for (si, stage) in StageKind::ALL.iter().enumerate() {
            if si > 0 {
                out.push_str(", ");
            }
            let us: u64 = job.points.iter().map(|p| p.stage_micros(*stage)).sum();
            let _ = write!(out, "\"{}\": {us}", stage.name());
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JobError, JobErrorKind, JobResult};
    use crate::spec::Job;
    use isdc_cache::CacheStats;
    use std::time::Duration;

    #[test]
    fn json_shape_is_stable_and_nan_free() {
        // A job whose only point is infeasible: zero lookups. The rate must
        // render as 0.0000 — NaN would make the document unparseable.
        let infeasible = isdc_core::SweepPoint {
            clock_period_ps: 100.0,
            feasible: false,
            register_bits: 0,
            num_stages: 0,
            iterations: 0,
            warm_start: false,
            warm_solves: 0,
            cold_solves: 0,
            cache_hits: 0,
            cache_misses: 0,
            elapsed: Duration::ZERO,
            schedule: None,
            metrics: isdc_telemetry::MetricsFrame::new(),
        };
        let report = BatchReport {
            jobs: vec![JobResult {
                job: Job::sweep("tiny", vec![100.0]),
                points: vec![infeasible],
                min_period_ps: None,
                shards: 1,
                elapsed: Duration::from_nanos(5),
                status: JobStatus::Ok,
                retries: 0,
            }],
            threads: 8,
            shards: 1,
            elapsed: Duration::from_nanos(500),
            cache: CacheStats::default(),
            metrics: isdc_telemetry::MetricsFrame::new(),
        };
        let json = render_batch_json(&report, 1);
        for needle in [
            "\"bench\": \"batch\"",
            "\"designs\": 1, \"jobs\": 1, \"shards\": 1, \"points\": 1",
            "\"threads\": 8, \"elapsed_ns\": 500",
            "\"jobs_failed\": 0, \"jobs_retried\": 0, \"jobs_timed_out\": 0",
            "\"evictions\": 0",
            "\"status\": \"ok\", \"retries\": 0",
            "\"cache_hit_rate\": 0.0000",
            "\"hit_rate\": 0.0000",
            "\"feasible\": 0",
            "\"fleet\": {\"drain_dijkstras\": 0",
            "\"drain_paths\": 0",
            "\"stage_us\": {\"extract\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains("NaN"), "rates must be guarded: {json}");
    }

    #[test]
    fn multi_line_error_messages_keep_the_document_valid_json() {
        // A user oracle's failed `assert_eq!` panics with a multi-line
        // message; the report must still parse and carry it intact.
        let error = JobError {
            job: 0,
            shard: 0,
            design: "tiny".into(),
            kind: JobErrorKind::Panic,
            message: "assertion failed\n  left: 1\n right: 2".into(),
            retries: 0,
            flight: Vec::new(),
        };
        let report = BatchReport {
            jobs: vec![JobResult {
                job: Job::sweep("tiny", vec![100.0]),
                points: Vec::new(),
                min_period_ps: None,
                shards: 1,
                elapsed: Duration::from_nanos(5),
                status: JobStatus::Failed(error.clone()),
                retries: 0,
            }],
            threads: 1,
            shards: 1,
            elapsed: Duration::from_nanos(5),
            cache: CacheStats::default(),
            metrics: isdc_telemetry::MetricsFrame::new(),
        };
        let json = render_batch_json(&report, 1);
        // Escaped onto its row's line: strict readers reject raw newlines.
        assert!(json.contains(r"assertion failed\n  left: 1\n right: 2"), "{json}");
        let parsed = isdc_telemetry::json::parse(&json).expect("report must be valid JSON");
        let run = &parsed["runs"].as_array().expect("runs array")[0];
        assert_eq!(run["status"].as_str(), Some("failed"));
        assert_eq!(run["error"].as_str(), Some(error.to_string().as_str()));
    }
}
