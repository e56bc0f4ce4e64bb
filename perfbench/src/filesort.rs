//! The file workloads: a gensort file sorted through `FileStore` into a
//! sorted gensort file, with the configuration a `SortJob::builder()` user
//! gets.

use crate::probe::{Counters, Fluctuation, ProbeInput, ProbeStore, ProbeWrite, Probes};
use crate::report::JobRecord;
use crate::schedule::FlipSchedule;
use crate::trace::Ctx;
use crate::verify::{verify_sorted_file, Digest};
use masort_core::tuple::KEY_BYTES;
use masort_core::{
    generate_gensort_file_ordered, gensort_order, FileStore, GenOrder, GensortFileSource,
    GensortWriter, IoPool, MemoryBudget, RealEnv, RunStore, SortConfig, SortJob, SortPhase,
    GENSORT_RECORD_BYTES,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Records in the input file: 64 MB of 100-byte records.
pub const RECORDS: usize = 640_000;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 32 * 1024;
/// Sort memory in pages (2 MB): the input is 32 times the sort memory.
pub const MEMORY_PAGES: usize = 64;
/// The fluctuating workload's low target, a quarter of the full grant.
pub const LOW_PAGES: usize = MEMORY_PAGES / 4;
/// The fluctuating workload flips its target after this many input pages
/// (split phase) or store block reads (merge phase).
pub const FLIP_EVERY: u64 = 32;
/// Worker threads of the I/O pool attached to the run store. One pool
/// serves every job of a run, as it would serve a process's sorts.
pub const IO_THREADS: usize = 2;

/// One file workload.
#[derive(Clone, Copy, Debug)]
pub struct FileWorkload {
    /// Key order of the generated input.
    pub order: GenOrder,
    /// Drive the budget by the progress-tied flip schedule.
    pub fluctuate: bool,
}

/// A generated input, its digest and the I/O pool the jobs share.
#[derive(Debug)]
pub struct Prepared {
    input: PathBuf,
    digest: Digest,
    work: PathBuf,
    pool: IoPool,
}

/// Generate the workload's input from `seed` under `work` and digest it.
pub fn setup(work: &Path, seed: u64, w: &FileWorkload) -> Result<Prepared, String> {
    let input = work.join("input.gensort");
    generate_gensort_file_ordered(&input, RECORDS, seed, w.order)
        .map_err(|e| format!("generating input: {e}"))?;
    let digest = Digest::of_file(&input).map_err(|e| format!("digesting input: {e}"))?;
    Ok(Prepared {
        input,
        digest,
        work: work.to_path_buf(),
        pool: IoPool::new(IO_THREADS),
    })
}

/// The configuration a `SortJob::builder()` user gets, with the gensort
/// record geometry and this benchmark's sort memory; every other setting
/// stays at the builder's default.
pub fn builder_config() -> SortConfig {
    let defaults = SortJob::builder()
        .build()
        .expect("the builder's default job is valid")
        .config()
        .clone();
    defaults
        .with_page_size(PAGE_SIZE)
        .with_tuple_size(GENSORT_RECORD_BYTES + KEY_BYTES)
        .with_memory_pages(MEMORY_PAGES)
}

/// The effective configuration and seed, as one JSON object.
pub fn config_json(cfg: &SortConfig, seed: u64) -> String {
    format!(
        "{{\"seed\": {seed}, \"records\": {RECORDS}, \"page_size\": {}, \"tuple_size\": {}, \
         \"memory_pages\": {}, \"algorithm\": \"{}\", \"layout\": \"{}\", \
         \"adaptive_runs\": {}, \"merge_batch\": {}, \"cpu_threads\": {}, \
         \"io_threads\": {}, \"io_pipeline_depth\": {}, \"store_io_pool_threads\": {IO_THREADS}}}",
        cfg.page_size,
        cfg.tuple_size,
        cfg.memory_pages,
        cfg.algorithm,
        cfg.layout,
        cfg.adaptive_runs,
        cfg.merge_batch,
        cfg.cpu_threads,
        cfg.io.io_threads,
        cfg.io.pipeline_depth,
    )
}

/// Sort the prepared input once, stream it to the output file and verify
/// the output. Errors are returned as the record's failure.
pub fn run_job(p: &Prepared, w: &FileWorkload, seed: u64, job: u32, ctx: Arc<Ctx>) -> JobRecord {
    let traced = ctx.tracer.is_some();
    match sort_once(p, w, seed, job, &ctx) {
        Ok(rec) => rec,
        Err(e) => JobRecord::failed(traced, e),
    }
}

/// Sort, stream and verify once; an error is the job's failure reason.
fn sort_once(
    p: &Prepared,
    w: &FileWorkload,
    seed: u64,
    job: u32,
    ctx: &Arc<Ctx>,
) -> Result<JobRecord, String> {
    let err = |what: &'static str| move |e: masort_core::SortError| format!("{what}: {e}");
    let run_dir = p.work.join("runs");
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("creating run dir: {e}"))?;
    let mut store = FileStore::new(&run_dir).map_err(|e| format!("opening store: {e}"))?;
    store.attach_io_pool(p.pool.clone());
    let cfg = builder_config();
    let counters = Arc::new(Counters::default());
    let out_path = p.work.join("output.gensort");

    ctx.set_job(job);
    let t_open = Instant::now();
    let job_span = ctx.open("job");
    ctx.set_parent(job_span);
    let source =
        GensortFileSource::open(&p.input, cfg.tuples_per_page()).map_err(err("opening input"))?;
    let clock = Instant::now();
    let budget = MemoryBudget::new(MEMORY_PAGES);
    let fluctuation = w.fluctuate.then(|| {
        let schedule = FlipSchedule::new(seed, MEMORY_PAGES, LOW_PAGES, FLIP_EVERY);
        Fluctuation::new(schedule, budget.clone(), clock)
    });
    let probes = Probes {
        ctx: Arc::clone(ctx),
        counters: Arc::clone(&counters),
        fluctuation: fluctuation.clone(),
    };
    let mut builder = SortJob::builder()
        .config(cfg)
        .order(gensort_order())
        .env(RealEnv::starting_at(clock))
        .input(ProbeInput::new(source, probes.clone()))
        .store(ProbeStore::new(store, probes));
    if w.fluctuate {
        builder = builder.budget(budget);
    }
    let sort_job = builder.build().map_err(err("building the job"))?;

    let sort_span = ctx.open("sort");
    ctx.set_parent(sort_span);
    let completion = sort_job.run();
    ctx.close(sort_span);
    ctx.set_parent(job_span);
    if let Some(f) = &fluctuation {
        f.stop();
    }
    let completion = completion.map_err(err("sorting"))?;
    let outcome = completion.outcome.clone();
    if let (Some(tracer), Some(sort_span)) = (&ctx.tracer, sort_span) {
        let origin = tracer.secs(clock);
        let (split, merge) = (&outcome.split, &outcome.merge);
        tracer.insert_phase(
            "run_formation",
            sort_span,
            origin + split.started_at,
            origin + split.finished_at,
            job,
        );
        tracer.insert_phase(
            "merge",
            sort_span,
            origin + merge.started_at,
            origin + merge.finished_at,
            job,
        );
    }
    let sort_read_pages = Counters::get(&counters.read_pages);

    let stream_span = ctx.open("stream");
    ctx.set_parent(stream_span);
    let file = File::create(&out_path).map_err(|e| format!("creating output: {e}"))?;
    let mut writer = GensortWriter::new(BufWriter::new(ProbeWrite::new(file, Arc::clone(ctx))));
    let mut first_output_s = None;
    for tuple in completion.into_stream() {
        let tuple = tuple.map_err(err("streaming"))?;
        first_output_s.get_or_insert_with(|| t_open.elapsed().as_secs_f64());
        writer.write_tuple(&tuple).map_err(err("writing output"))?;
    }
    let written = writer.finish().map_err(err("flushing output"))?;
    ctx.close(stream_span);
    ctx.close(job_span);
    ctx.set_parent(None);
    let delivered_s = t_open.elapsed().as_secs_f64();

    verify_sorted_file(&out_path, &p.digest)?;
    let latency_s = t_open.elapsed().as_secs_f64();

    let records = p.digest.records as f64;
    let get = |c: &std::sync::atomic::AtomicU64| Counters::get(c) as f64;
    let input_pages = get(&counters.input_pages);
    let moved_pages = get(&counters.write_pages) + get(&counters.read_pages);
    let moved_tuples = get(&counters.write_tuples) + get(&counters.read_tuples);
    let (split, merge) = (&outcome.split, &outcome.merge);
    let shrinks = fluctuation.map_or(0, |f| f.schedule().shrinks());
    let mut rec = JobRecord::new(ctx.tracer.is_some(), written as u64);
    rec.delivered_s = delivered_s;
    rec.first_output_s = first_output_s.unwrap_or(delivered_s);
    rec.latency_s = latency_s;
    for d in &outcome.delays {
        let ms = d.delay() * 1e3;
        match d.phase {
            SortPhase::Split => rec.split_delays_ms.push(ms),
            _ => rec.merge_delays_ms.push(ms),
        }
    }
    for (name, value) in [
        ("input.pages", input_pages),
        ("run_formation.runs", split.run_count() as f64),
        ("run_formation.avg_run_pages", split.avg_run_pages()),
        ("run_formation.natural_runs", split.natural_runs as f64),
        ("run_formation.shrink_events", split.shrink_events as f64),
        ("run_formation.records_per_s", records / split.duration()),
        ("store.write_pages", get(&counters.write_pages)),
        ("store.write_calls", get(&counters.write_calls)),
        ("store.read_pages", get(&counters.read_pages)),
        ("store.read_calls", get(&counters.read_calls)),
        (
            "store.pages_over_bound",
            moved_pages / io_bound_pages(input_pages, MEMORY_PAGES as f64),
        ),
        ("store.spill_bytes_per_input_byte", moved_tuples / records),
        ("io.stall_s", merge.io_stall),
        ("io.sync_block_loads", merge.sync_block_loads as f64),
        ("io.prefetch_joins", merge.prefetch_block_joins as f64),
        ("merge.steps", merge.steps_executed as f64),
        ("merge.splits", merge.splits as f64),
        ("merge.combines", merge.combines as f64),
        ("merge.pages_read", merge.pages_read as f64),
        ("merge.pages_written", merge.pages_written as f64),
        ("merge.records_per_s", records / merge.duration()),
        ("budget.shrink_requests", shrinks as f64),
        ("budget.delay_samples", outcome.delays.len() as f64),
        (
            "stream.pages",
            get(&counters.read_pages) - sort_read_pages as f64,
        ),
    ] {
        rec.layer.insert(name, value);
    }
    if rec.records != p.digest.records {
        return Err(format!(
            "wrote {} record(s), input holds {}",
            rec.records, p.digest.records
        ));
    }
    Ok(rec)
}

/// Pages an external sort must move at least: 2·(N/B)·⌈log_{M/B}(N/M)⌉ for
/// an input of `n_pages` pages and `m_pages` pages of memory (at least one
/// pass).
pub fn io_bound_pages(n_pages: f64, m_pages: f64) -> f64 {
    let passes = ((n_pages / m_pages).ln() / m_pages.ln()).ceil().max(1.0);
    2.0 * n_pages * passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Ctx;

    #[test]
    fn io_bound_counts_passes() {
        // 2112 input pages, 64 pages of memory: one pass over 33 memory loads.
        assert_eq!(io_bound_pages(2112.0, 64.0), 4224.0);
        // 10_000 pages, 10 pages of memory: log_10(1000) = 3 passes.
        assert!((io_bound_pages(10_000.0, 10.0) - 60_000.0).abs() < 1e-6);
        // Input smaller than memory still reads and writes once.
        assert_eq!(io_bound_pages(8.0, 64.0), 16.0);
    }

    #[test]
    fn builder_config_keeps_builder_defaults() {
        let cfg = builder_config();
        let defaults = SortJob::builder().build().unwrap().config().clone();
        assert_eq!(cfg.algorithm, defaults.algorithm);
        assert_eq!(cfg.adaptive_runs, defaults.adaptive_runs);
        assert_eq!(cfg.merge_batch, defaults.merge_batch);
        assert_eq!(cfg.layout, defaults.layout);
        assert_eq!(cfg.io, defaults.io);
        assert_eq!(cfg.memory_pages, MEMORY_PAGES);
    }

    /// The flip log of one small fluctuating sort.
    fn flip_log(dir: &Path, seed: u64) -> Vec<crate::schedule::Flip> {
        let w = FileWorkload {
            order: GenOrder::Random,
            fluctuate: true,
        };
        let input = dir.join("input.gensort");
        generate_gensort_file_ordered(&input, 40_000, seed, w.order).unwrap();
        let p = Prepared {
            digest: Digest::of_file(&input).unwrap(),
            input,
            work: dir.to_path_buf(),
            pool: IoPool::new(IO_THREADS),
        };
        let cfg = builder_config();
        let ctx = Ctx::new(None);
        let source = GensortFileSource::open(&p.input, cfg.tuples_per_page()).unwrap();
        let clock = Instant::now();
        let budget = MemoryBudget::new(MEMORY_PAGES);
        let schedule = FlipSchedule::new(seed, MEMORY_PAGES, LOW_PAGES, 8);
        let fluctuation = Fluctuation::new(schedule, budget.clone(), clock);
        let probes = Probes {
            ctx,
            counters: Arc::default(),
            fluctuation: Some(Arc::clone(&fluctuation)),
        };
        let run_dir = dir.join("runs");
        std::fs::create_dir_all(&run_dir).unwrap();
        let completion = SortJob::builder()
            .config(cfg)
            .order(gensort_order())
            .env(RealEnv::starting_at(clock))
            .budget(budget)
            .input(ProbeInput::new(source, probes.clone()))
            .store(ProbeStore::new(FileStore::new(&run_dir).unwrap(), probes))
            .build()
            .unwrap()
            .run()
            .unwrap();
        fluctuation.stop();
        assert!(completion.outcome.split.run_count() > 1);
        drop(completion);
        fluctuation.schedule().log().to_vec()
    }

    #[test]
    fn budget_schedule_repeats_across_runs_with_one_seed() {
        let dir = std::env::temp_dir().join(format!("perfbench-flips-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = flip_log(&dir, 5);
        let b = flip_log(&dir, 5);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(a, b);
        // Flips land in both phases.
        use crate::schedule::Progress;
        assert!(a.iter().any(|f| f.on == Progress::InputPage));
        assert!(a.iter().any(|f| f.on == Progress::BlockRead));
    }
}
