//! End-to-end and per-layer benchmark of the memory-adaptive external sort.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload random_fixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Each run generates its inputs from the
//! seed, sets up several times (reporting the median set-up time), warms up
//! with one job, then runs jobs back to back for `--seconds`, verifying every
//! output. The last line of standard output is one JSON object: with
//! `--trace 0` the end-to-end metrics of untraced jobs, with `--trace 1` the
//! per-layer metrics of traced jobs (every other job is traced; the
//! untraced ones give the tracing overhead), the roofline probes and the
//! self time of each layer. Spans of a traced run are written to
//! `.perfbench_out/spans-<workload>.json`. See `perfbench/README.md`.

mod bounds;
mod filesort;
mod probe;
mod report;
mod schedule;
mod server;
mod stats;
mod trace;
mod verify;

use crate::filesort::FileWorkload;
use crate::report::{result_json, JobRecord, Run, Throughput};
use crate::stats::median;
use crate::trace::{layer_times, spans_json, Ctx, Span, Tracer};
use masort_core::GenOrder;
use masort_server::ServerHandle;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <random_fixed|presorted_fixed|\
random_fluctuating|server_small_jobs> --seed <n> --seconds <n> --trace <0|1>";

/// Set-up repetitions per file-workload run (each generates the 64 MB input).
const FILE_SETUPS: usize = 5;
/// Set-up repetitions per server-workload run.
const SERVER_SETUPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A scratch directory removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a workload's measurement produced.
struct Measured {
    run: Run,
    /// Warm-up and run-level failures (such as leaked server pages).
    extra_failures: Vec<String>,
    spans: Vec<Span>,
    bounds: Vec<(&'static str, f64)>,
}

fn run(args: &Args) -> Result<bool, String> {
    let work = WorkDir(PathBuf::from(".perfbench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("creating work dir: {e}"))?;
    let file = |order, fluctuate| Some(FileWorkload { order, fluctuate });
    let workload = match args.workload.as_str() {
        "random_fixed" => file(GenOrder::Random, false),
        "presorted_fixed" => file(GenOrder::PartiallySorted { presortedness: 0.9 }, false),
        "random_fluctuating" => file(GenOrder::Random, true),
        "server_small_jobs" => None,
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let measured = match workload {
        Some(w) => measure_file(args, &w, &work.0)?,
        None => measure_server(args, &work.0)?,
    };

    let Measured {
        run,
        extra_failures,
        spans,
        bounds,
    } = measured;
    // The warm-up job is attempted too; run-level failures count against it.
    let (jobs, failed) = run.attempted_failed();
    let attempted = jobs + 1;
    let failed = (failed + extra_failures.len()).min(attempted);
    for e in &extra_failures {
        println!("FAILED {e}");
    }
    for (i, j) in run.jobs.iter().enumerate() {
        match &j.error {
            Some(e) => println!("job {i} FAILED {e}"),
            None => println!(
                "job {i} traced={} records={} delivered_s={} first_output_s={} latency_s={}",
                j.traced, j.records, j.delivered_s, j.first_output_s, j.latency_s
            ),
        }
    }
    let metrics = if args.trace {
        let out = PathBuf::from(".perfbench_out");
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let path = out.join(format!("spans-{}.json", args.workload));
        std::fs::write(&path, spans_json(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans {} ({} spans)", path.display(), spans.len());
        let traced = run.jobs.iter().filter(|j| j.traced).count().max(1) as f64;
        for (name, t) in layer_times(&spans) {
            println!(
                "layer {name} calls_per_job={} total_s_per_job={} self_s_per_job={}",
                t.calls as f64 / traced,
                t.total_s / traced,
                t.self_s / traced
            );
        }
        run.per_layer(&spans, &bounds)
    } else {
        for (name, value, unit) in run.workload_extras() {
            println!("info {name} = {value} {unit}");
        }
        run.end_to_end()
    };
    for (name, value) in &metrics {
        println!("metric {name} = {value} {}", report::unit_of(name));
    }
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Run `job` back to back until `seconds` have passed (at least twice when
/// tracing, so both traced and untraced jobs exist). In traced runs every
/// other job records spans.
fn measure_loop(
    seconds: u64,
    trace: Option<&Tracer>,
    mut job: impl FnMut(u32, Arc<Ctx>) -> JobRecord,
) -> (Vec<JobRecord>, f64) {
    let deadline = Duration::from_secs(seconds);
    let min_jobs = if trace.is_some() { 2 } else { 1 };
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min_jobs || start.elapsed() < deadline {
        let id = jobs.len() as u32 + 1;
        let tracer = trace.filter(|_| id.is_multiple_of(2)).cloned();
        jobs.push(job(id, Ctx::new(tracer)));
    }
    (jobs, start.elapsed().as_secs_f64())
}

fn measure_file(args: &Args, w: &FileWorkload, work: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..FILE_SETUPS {
        let t = Instant::now();
        prepared = Some(filesort::setup(work, args.seed, w)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    println!(
        "config {}",
        filesort::config_json(&filesort::builder_config(), args.seed)
    );

    let tracer = args.trace.then(Tracer::new);
    let bounds = match &tracer {
        Some(_) => {
            let bytes = std::fs::read(work.join("input.gensort"))
                .map_err(|e| format!("reading input for the bound probes: {e}"))?;
            bounds::probe(work, &bytes, masort_core::GENSORT_RECORD_BYTES)
                .map_err(|e| format!("bound probes: {e}"))?
        }
        None => Vec::new(),
    };

    let warm = filesort::run_job(&p, w, args.seed, 0, Ctx::new(None));
    let (jobs, wall_s) = measure_loop(args.seconds, tracer.as_ref(), |id, ctx| {
        filesort::run_job(&p, w, args.seed, id, ctx)
    });
    Ok(Measured {
        run: Run {
            jobs,
            wall_s,
            setup_s: median(&setups),
            peak_rss_mb: peak_rss_mb(),
            throughput: Throughput::PerJob,
        },
        extra_failures: warm
            .error
            .into_iter()
            .map(|e| format!("warm-up: {e}"))
            .collect(),
        spans: tracer.map(|t| t.snapshot()).unwrap_or_default(),
        bounds,
    })
}

fn measure_server(args: &Args, work: &Path) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut started: Option<(ServerHandle, _)> = None;
    for _ in 0..SERVER_SETUPS {
        if let Some((handle, _)) = started.take() {
            handle.join();
        }
        let t = Instant::now();
        let inputs = server::inputs(args.seed);
        let handle = server::start().map_err(|e| format!("starting the server: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        started = Some((handle, inputs));
    }
    let (handle, inputs) = started.expect("at least one set-up");
    let addr = handle.addr();

    let tracer = args.trace.then(Tracer::new);
    let bounds = match &tracer {
        Some(_) => bounds::probe(work, &server::bound_records(&inputs[0]), server::TUPLE_SIZE)
            .map_err(|e| format!("bound probes: {e}"))?,
        None => Vec::new(),
    };

    let mut extra_failures = Vec::new();
    let warm = server::run_job(addr, &inputs[0][0], 0, Ctx::new(None));
    extra_failures.extend(warm.error.map(|e| format!("warm-up: {e}")));
    let start = Instant::now();
    let per_client: Vec<Vec<JobRecord>> = std::thread::scope(|s| {
        let threads: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(c, mine)| {
                let tracer = tracer.as_ref();
                s.spawn(move || {
                    let (jobs, _) = measure_loop(args.seconds, tracer, |id, ctx| {
                        let input = &mine[id as usize % mine.len()];
                        server::run_job(addr, input, (c as u32) << 24 | id, ctx)
                    });
                    jobs
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = handle.join();
    if stats.leaked_pages != 0 {
        extra_failures.push(format!("server leaked {} page(s)", stats.leaked_pages));
    }
    Ok(Measured {
        run: Run {
            jobs: per_client.into_iter().flatten().collect(),
            wall_s,
            setup_s: median(&setups),
            peak_rss_mb: peak_rss_mb(),
            throughput: Throughput::Aggregate,
        },
        extra_failures,
        spans: tracer.map(|t| t.snapshot()).unwrap_or_default(),
        bounds,
    })
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a = args("--workload random_fixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "random_fixed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert!(args("--workload x --seed 1 --seconds 1").is_err());
        assert!(args("--workload x --seed one --seconds 1 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn end_to_end_catalogue_is_printed_in_order() {
        let run = Run {
            jobs: vec![{
                let mut j = JobRecord::new(false, 100);
                j.delivered_s = 0.5;
                j.first_output_s = 0.25;
                j.latency_s = 0.6;
                j
            }],
            wall_s: 1.0,
            setup_s: 0.1,
            peak_rss_mb: 10.0,
            throughput: Throughput::PerJob,
        };
        let names: Vec<&str> = run.end_to_end().iter().map(|m| m.0).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        assert_eq!(run.end_to_end()[0].1, 200.0);
    }
}
