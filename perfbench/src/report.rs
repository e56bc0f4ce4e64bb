//! Job records, the metric catalogue and the result line.

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{layer_times, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one job (a file sort or a server request) delivered.
#[derive(Clone, Debug, Default)]
pub struct JobRecord {
    /// Whether the job ran with spans recorded.
    pub traced: bool,
    /// Why the job failed or its output was wrong; `None` when verified.
    pub error: Option<String>,
    /// Sorted records delivered.
    pub records: u64,
    /// Job start to the output flushed (file) or fully received (server).
    pub delivered_s: f64,
    /// Job start to the first sorted record in the caller's hands.
    pub first_output_s: f64,
    /// Job start to the output verified.
    pub latency_s: f64,
    /// Split-phase shrink delays, in milliseconds.
    pub split_delays_ms: Vec<f64>,
    /// Merge-phase shrink delays, in milliseconds.
    pub merge_delays_ms: Vec<f64>,
    /// Per-layer values read from the engine's statistics and the probes'
    /// counters, keyed by per-layer metric name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl JobRecord {
    /// A successful job's record, to be filled in.
    pub fn new(traced: bool, records: u64) -> Self {
        JobRecord {
            traced,
            records,
            ..JobRecord::default()
        }
    }

    /// A failed job.
    pub fn failed(traced: bool, error: String) -> Self {
        JobRecord {
            traced,
            error: Some(error),
            ..JobRecord::default()
        }
    }

    fn rate(&self) -> f64 {
        self.records as f64 / self.delivered_s
    }
}

/// End-to-end metrics and their units, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("records_per_s", "1/s"),
    ("first_output_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("input.pages", "count"),
    ("input.busy_s", "s"),
    ("input.gbps", "GB/s"),
    ("run_formation.self_s", "s"),
    ("run_formation.runs", "count"),
    ("run_formation.avg_run_pages", "pages"),
    ("run_formation.natural_runs", "count"),
    ("run_formation.shrink_events", "count"),
    ("run_formation.records_per_s", "1/s"),
    ("store.write_pages", "count"),
    ("store.write_calls", "count"),
    ("store.write_wait_s", "s"),
    ("store.read_pages", "count"),
    ("store.read_calls", "count"),
    ("store.read_wait_s", "s"),
    ("store.prefetch_busy_s", "s"),
    ("store.pages_over_bound", "ratio"),
    ("store.spill_bytes_per_input_byte", "ratio"),
    ("io.stall_s", "s"),
    ("io.sync_block_loads", "count"),
    ("io.prefetch_joins", "count"),
    ("merge.self_s", "s"),
    ("merge.steps", "count"),
    ("merge.splits", "count"),
    ("merge.combines", "count"),
    ("merge.pages_read", "count"),
    ("merge.pages_written", "count"),
    ("merge.records_per_s", "1/s"),
    ("budget.shrink_requests", "count"),
    ("budget.delay_samples", "count"),
    ("budget.split_delay_p50_ms", "ms"),
    ("budget.merge_delay_p50_ms", "ms"),
    ("budget.shrink_delay_p50_ms", "ms"),
    ("budget.shrink_delay_p90_ms", "ms"),
    ("sort.self_s", "s"),
    ("stream.self_s", "s"),
    ("stream.pages", "count"),
    ("writer.busy_s", "s"),
    ("client.connect_s", "s"),
    ("client.ingest_s", "s"),
    ("client.egress_s", "s"),
    ("broker.queue_wait_s", "s"),
    ("broker.ran_for_s", "s"),
    ("broker.reallocations", "count"),
    ("bound.disk_write_gbps", "GB/s"),
    ("bound.disk_read_gbps", "GB/s"),
    ("bound.memcpy_gbps", "GB/s"),
    ("bound.sort_records_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_jobs", "count"),
];

/// How a workload turns delivered records into `records_per_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// One job at a time: the median of each job's own rate.
    PerJob,
    /// Concurrent jobs: all records delivered over the loop's wall time.
    Aggregate,
}

/// Jobs and timings of one run's measurement loop.
#[derive(Debug)]
pub struct Run {
    /// Every measured job (warm-up excluded).
    pub jobs: Vec<JobRecord>,
    /// Wall seconds of the measurement loop.
    pub wall_s: f64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident memory of the run, in MB.
    pub peak_rss_mb: f64,
    /// How `records_per_s` is formed.
    pub throughput: Throughput,
}

impl Run {
    fn good<'a>(&'a self, traced: bool) -> impl Iterator<Item = &'a JobRecord> + 'a {
        self.jobs
            .iter()
            .filter(move |j| j.error.is_none() && j.traced == traced)
    }

    /// Jobs attempted and failed (including wrong output).
    pub fn attempted_failed(&self) -> (usize, usize) {
        let failed = self.jobs.iter().filter(|j| j.error.is_some()).count();
        (self.jobs.len(), failed)
    }

    /// Median per-job delivery rate of the traced or untraced jobs.
    fn median_rate(&self, traced: bool) -> f64 {
        median(&self.good(traced).map(JobRecord::rate).collect::<Vec<_>>())
    }

    /// End-to-end metrics over the untraced jobs.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let jobs: Vec<&JobRecord> = self.good(false).collect();
        let ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
        let records_per_s = match self.throughput {
            Throughput::PerJob => self.median_rate(false),
            Throughput::Aggregate => {
                jobs.iter().map(|j| j.records).sum::<u64>() as f64 / self.wall_s
            }
        };
        vec![
            ("records_per_s", records_per_s),
            (
                "first_output_s",
                median(&jobs.iter().map(|j| j.first_output_s).collect::<Vec<_>>()),
            ),
            ("job_latency_p50_ms", median(&ms)),
            ("job_latency_p90_ms", percentile(&ms, 90.0)),
            ("jobs_per_s", jobs.len() as f64 / self.wall_s),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", self.setup_s),
        ]
    }

    /// Metrics named in the workload table that apply to only some
    /// workloads, over the untraced jobs; printed as information.
    pub fn workload_extras(&self) -> Vec<(String, f64, &'static str)> {
        let jobs: Vec<&JobRecord> = self.good(false).collect();
        let ms: Vec<f64> = jobs.iter().map(|j| j.latency_s * 1e3).collect();
        let delays: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.split_delays_ms.iter().chain(&j.merge_delays_ms))
            .copied()
            .collect();
        let (attempted, failed) = self.attempted_failed();
        let mut out = vec![
            (
                "failed_ratio".to_string(),
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("job_latency_samples".to_string(), ms.len() as f64, "count"),
            ("shrink_delay_p50_ms".to_string(), median(&delays), "ms"),
            (
                "shrink_delay_p90_ms".to_string(),
                percentile(&delays, 90.0),
                "ms",
            ),
            (
                "shrink_delay_samples".to_string(),
                delays.len() as f64,
                "count",
            ),
            (
                "spill_bytes_per_input_byte".to_string(),
                mean(&jobs, "store.spill_bytes_per_input_byte"),
                "ratio",
            ),
        ];
        for (what, samples) in [("job_latency", &ms), ("shrink_delay", &delays)] {
            if let Some(p) = tail_percentile(samples.len()) {
                out.push((format!("{what}_p{p}_ms"), percentile(samples, p), "ms"));
            }
        }
        out
    }

    /// Per-layer metrics over the traced jobs and their spans.
    pub fn per_layer(&self, spans: &[Span], bounds: &[(&str, f64)]) -> Vec<(&'static str, f64)> {
        let jobs: Vec<&JobRecord> = self.good(true).collect();
        let n = jobs.len().max(1) as f64;
        let lt = layer_times(spans);
        let total = |name: &str| lt.get(name).map_or(0.0, |t| t.total_s) / n;
        let self_s = |name: &str| lt.get(name).map_or(0.0, |t| t.self_s) / n;
        let split: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.split_delays_ms.clone())
            .collect();
        let merge: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.merge_delays_ms.clone())
            .collect();
        let all: Vec<f64> = split.iter().chain(&merge).copied().collect();
        let input_bytes = mean_records(&jobs) * masort_core::GENSORT_RECORD_BYTES as f64;
        let untraced = self.median_rate(false);
        let overhead = if untraced > 0.0 {
            (untraced - self.median_rate(true)) / untraced * 100.0
        } else {
            0.0
        };
        let mut derived: BTreeMap<&str, f64> = BTreeMap::from([
            ("input.busy_s", total("input")),
            ("run_formation.self_s", self_s("run_formation")),
            (
                "store.write_wait_s",
                total("store.write") + total("store.flush"),
            ),
            (
                "store.read_wait_s",
                total("store.read") + total("store.prefetch_submit"),
            ),
            ("store.prefetch_busy_s", total("store.prefetch")),
            ("merge.self_s", self_s("merge")),
            ("budget.split_delay_p50_ms", median(&split)),
            ("budget.merge_delay_p50_ms", median(&merge)),
            ("budget.shrink_delay_p50_ms", median(&all)),
            ("budget.shrink_delay_p90_ms", percentile(&all, 90.0)),
            ("sort.self_s", self_s("sort")),
            ("stream.self_s", self_s("stream")),
            ("writer.busy_s", total("writer")),
            ("client.connect_s", total("client.connect")),
            ("client.ingest_s", total("client.ingest")),
            ("client.egress_s", total("client.egress")),
            ("trace.overhead_pct", overhead),
            ("trace.traced_jobs", jobs.len() as f64),
        ]);
        let busy = total("input");
        if busy > 0.0 && mean(&jobs, "input.pages") > 0.0 {
            derived.insert("input.gbps", input_bytes / busy / 1e9);
        }
        derived.extend(bounds.iter().copied());
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let v = derived
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| mean(&jobs, name));
                (name, v)
            })
            .collect()
    }
}

/// Mean of a per-job layer value over `jobs` (0 when absent).
fn mean(jobs: &[&JobRecord], name: &str) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter()
        .map(|j| j.layer.get(name).copied().unwrap_or(0.0))
        .sum::<f64>()
        / jobs.len() as f64
}

fn mean_records(jobs: &[&JobRecord]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    jobs.iter().map(|j| j.records as f64).sum::<f64>() / jobs.len() as f64
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// A value that is not finite is printed as 0.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(names, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.5), ("records_per_s", f64::NAN)]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"records_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
    }
}
