//! The server workload: an in-process `masort-server` on loopback, driven by
//! closed-loop clients that each run one sort per connection.

use crate::report::JobRecord;
use crate::trace::Ctx;
use crate::verify::mix64;
use masort_core::Tuple;
use masort_server::{Server, ServerHandle, SortClient, SubmitSpec};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Client threads, each a closed loop (next job after the previous one's
/// result is verified).
pub const CLIENTS: usize = 2;
/// Tuples each job ingests.
pub const TUPLES_PER_JOB: usize = 20_000;
/// Bytes per tuple (the server's default geometry).
pub const TUPLE_SIZE: usize = 64;
/// Pages each job asks for.
pub const JOB_PAGES: u64 = 16;
/// The broker's page pool: less than two jobs' demand, so admitting one job
/// shrinks the other.
pub const POOL_PAGES: usize = 24;
/// Distinct inputs each client cycles through.
pub const INPUTS_PER_CLIENT: usize = 4;
/// Tuples per ingest frame.
const INGEST_CHUNK: usize = 2048;

/// One job's input and its locally sorted expected output.
#[derive(Debug)]
pub struct JobInput {
    input: Vec<Tuple>,
    expected: Vec<Tuple>,
}

/// Every client's inputs, generated from `seed`. Keys are distinct (a
/// bijective mix of distinct values), so the expected order is unique.
pub fn inputs(seed: u64) -> Vec<Vec<JobInput>> {
    (0..CLIENTS)
        .map(|c| {
            (0..INPUTS_PER_CLIENT)
                .map(|i| {
                    let base = (seed << 24) ^ (((c * INPUTS_PER_CLIENT + i) as u64) << 40);
                    let input: Vec<Tuple> = (0..TUPLES_PER_JOB as u64)
                        .map(|j| Tuple::synthetic(mix64(base ^ j), TUPLE_SIZE))
                        .collect();
                    let mut expected = input.clone();
                    expected.sort_by_key(|t| t.key);
                    JobInput { input, expected }
                })
                .collect()
        })
        .collect()
}

/// The keys of one client's inputs as fixed-size records (8-byte big-endian
/// key, zero payload), for the in-memory sort bound.
pub fn bound_records(inputs: &[JobInput]) -> Vec<u8> {
    let mut out = Vec::with_capacity(inputs.len() * TUPLES_PER_JOB * TUPLE_SIZE);
    for t in inputs.iter().flat_map(|i| &i.input) {
        out.extend_from_slice(&t.key.to_be_bytes());
        out.resize(out.len() + TUPLE_SIZE - 8, 0);
    }
    out
}

/// Bind and start a server on a loopback port chosen by the OS.
pub fn start() -> std::io::Result<ServerHandle> {
    Ok(Server::builder()
        .pool_pages(POOL_PAGES)
        .workers(CLIENTS)
        .bind("127.0.0.1:0")?
        .spawn())
}

/// Run one job end to end: connect, submit and ingest, drain the sorted
/// result, verify it against the local sort.
pub fn run_job(addr: SocketAddr, job: &JobInput, id: u32, ctx: Arc<Ctx>) -> JobRecord {
    let traced = ctx.tracer.is_some();
    ctx.set_job(id);
    match client_job(addr, job, &ctx) {
        Ok(rec) => rec,
        Err(e) => JobRecord::failed(traced, e),
    }
}

fn client_job(addr: SocketAddr, job: &JobInput, ctx: &Ctx) -> Result<JobRecord, String> {
    let err = |what: &'static str| move |e: masort_server::ClientError| format!("{what}: {e}");
    let t0 = Instant::now();
    let root = ctx.open("client.job");
    ctx.set_parent(root);
    let mut client = ctx
        .time("client.connect", || SortClient::connect(addr, None))
        .map_err(err("connect"))?;
    ctx.time("client.ingest", || {
        client.submit(SubmitSpec {
            memory_pages: JOB_PAGES,
            expected_tuples: job.input.len() as u64,
            ..SubmitSpec::default()
        })?;
        for chunk in job.input.chunks(INGEST_CHUNK) {
            client.ingest(chunk.to_vec())?;
        }
        Ok(())
    })
    .map_err(err("ingest"))?;
    let egress = ctx.open("client.egress");
    let mut completed = client.finish().map_err(err("finish"))?;
    let mut sorted = Vec::with_capacity(job.input.len());
    let mut first_output_s = None;
    for tuple in &mut completed {
        sorted.push(tuple.map_err(err("egress"))?);
        first_output_s.get_or_insert_with(|| t0.elapsed().as_secs_f64());
    }
    let summary = completed
        .summary()
        .cloned()
        .ok_or("the server sent no STATS frame")?;
    ctx.close(egress);
    let delivered_s = t0.elapsed().as_secs_f64();
    if sorted != job.expected {
        return Err(format!(
            "job {}: the server's result differs from the local sort",
            summary.job
        ));
    }
    let latency_s = t0.elapsed().as_secs_f64();
    ctx.close(root);
    ctx.set_parent(None);

    let mut rec = JobRecord::new(ctx.tracer.is_some(), sorted.len() as u64);
    rec.delivered_s = delivered_s;
    rec.first_output_s = first_output_s.unwrap_or(delivered_s);
    rec.latency_s = latency_s;
    for (name, value) in [
        ("broker.queue_wait_s", summary.queued_for),
        ("broker.ran_for_s", summary.ran_for),
        ("broker.reallocations", summary.reallocations as f64),
        ("run_formation.runs", summary.runs_formed as f64),
        ("run_formation.natural_runs", summary.natural_runs as f64),
        ("merge.steps", summary.merge_steps as f64),
        ("budget.delay_samples", summary.delay_samples as f64),
    ] {
        rec.layer.insert(name, value);
    }
    Ok(rec)
}
