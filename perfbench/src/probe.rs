//! Thin forwarding wrappers around the engine's public boundaries.
//!
//! Each wrapper passes every call straight through. Around it, it counts the
//! pages and tuples that cross (always: counting is a few atomic adds per
//! page) and records a span (only when the job is traced). The input and
//! store wrappers also drive the progress-tied memory schedule of the
//! fluctuating workload.

use crate::schedule::{FlipSchedule, Progress};
use crate::trace::Ctx;
use masort_core::sync::Mutex;
use masort_core::{
    BlockReadJob, InputSource, IoPool, MemoryBudget, Page, PartitionableSource, RunId, RunMeta,
    RunStore, SortResult,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Work counted at the boundaries of one job.
#[derive(Debug, Default)]
pub struct Counters {
    /// Pages the input source produced.
    pub input_pages: AtomicU64,
    /// Append calls on the run store.
    pub write_calls: AtomicU64,
    /// Pages appended to the run store.
    pub write_pages: AtomicU64,
    /// Tuples appended to the run store.
    pub write_tuples: AtomicU64,
    /// Read calls (page, block or background block) on the run store.
    pub read_calls: AtomicU64,
    /// Pages read from the run store.
    pub read_pages: AtomicU64,
    /// Tuples read from the run store.
    pub read_tuples: AtomicU64,
}

impl Counters {
    /// Current value of a counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    fn add(c: &AtomicU64, n: usize) {
        c.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// The fluctuating workload's budget driver: applies the schedule's flips to
/// the sort's budget, timestamped on the sort environment's clock.
#[derive(Debug)]
pub struct Fluctuation {
    schedule: Mutex<FlipSchedule>,
    budget: MemoryBudget,
    clock: Instant,
    active: AtomicBool,
}

impl Fluctuation {
    /// Drive `budget` by `schedule`; `clock` is the origin of the sort
    /// environment's clock, so delay samples measure real waits.
    pub fn new(schedule: FlipSchedule, budget: MemoryBudget, clock: Instant) -> Arc<Self> {
        Arc::new(Fluctuation {
            schedule: Mutex::new(schedule),
            budget,
            clock,
            active: AtomicBool::new(true),
        })
    }

    /// Stop flipping (the sort has returned; streaming is not governed by
    /// the budget).
    pub fn stop(&self) {
        self.active.store(false, Ordering::Relaxed);
    }

    /// The schedule as it stands (its log holds every flip issued).
    pub fn schedule(&self) -> FlipSchedule {
        self.schedule.lock().clone()
    }

    fn tick(&self, on: Progress) {
        if !self.active.load(Ordering::Relaxed) {
            return;
        }
        let flip = self.schedule.lock().tick(on);
        if let Some(target) = flip {
            self.budget
                .set_target(target, self.clock.elapsed().as_secs_f64());
        }
    }
}

/// What every probe of one job shares.
#[derive(Clone, Debug)]
pub struct Probes {
    /// Span context of the job.
    pub ctx: Arc<Ctx>,
    /// The job's counters.
    pub counters: Arc<Counters>,
    /// Memory schedule, for the fluctuating workload.
    pub fluctuation: Option<Arc<Fluctuation>>,
}

impl Probes {
    fn tick(&self, on: Progress) {
        if let Some(f) = &self.fluctuation {
            f.tick(on);
        }
    }
}

/// An [`InputSource`] wrapper: spans `input` around `next_page`.
#[derive(Debug)]
pub struct ProbeInput<I> {
    inner: I,
    probes: Probes,
}

impl<I> ProbeInput<I> {
    /// Wrap `inner`.
    pub fn new(inner: I, probes: Probes) -> Self {
        ProbeInput { inner, probes }
    }
}

impl<I: InputSource> InputSource for ProbeInput<I> {
    fn next_page(&mut self) -> SortResult<Option<Page>> {
        let page = self.probes.ctx.time("input", || self.inner.next_page())?;
        if page.is_some() {
            Counters::add(&self.probes.counters.input_pages, 1);
            self.probes.tick(Progress::InputPage);
        }
        Ok(page)
    }

    fn total_pages(&self) -> Option<usize> {
        self.inner.total_pages()
    }

    fn total_tuples(&self) -> Option<usize> {
        self.inner.total_tuples()
    }
}

impl<I: PartitionableSource> PartitionableSource for ProbeInput<I>
where
    I::Part: 'static,
{
    type Part = ProbeInput<I::Part>;

    fn partition(self, parts: usize) -> Result<Vec<Self::Part>, Self> {
        let ProbeInput { inner, probes } = self;
        match inner.partition(parts) {
            Ok(split) => Ok(split
                .into_iter()
                .map(|p| ProbeInput::new(p, probes.clone()))
                .collect()),
            Err(inner) => Err(ProbeInput { inner, probes }),
        }
    }
}

/// A [`RunStore`] wrapper: spans `store.*` around every data-moving call,
/// and `store.prefetch` around background block reads on the I/O thread.
#[derive(Debug)]
pub struct ProbeStore<S> {
    inner: S,
    probes: Probes,
}

impl<S> ProbeStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, probes: Probes) -> Self {
        ProbeStore { inner, probes }
    }

    fn wrote(&self, pages: usize, tuples: usize) {
        let c = &self.probes.counters;
        Counters::add(&c.write_calls, 1);
        Counters::add(&c.write_pages, pages);
        Counters::add(&c.write_tuples, tuples);
    }

    fn read(&self, pages: &[Page]) {
        count_read(&self.probes.counters, pages);
    }
}

fn count_read(c: &Counters, pages: &[Page]) {
    Counters::add(&c.read_calls, 1);
    Counters::add(&c.read_pages, pages.len());
    Counters::add(&c.read_tuples, pages.iter().map(Page::len).sum());
}

impl<S: RunStore> RunStore for ProbeStore<S> {
    fn create_run(&mut self) -> SortResult<RunId> {
        self.probes
            .ctx
            .time("store.create", || self.inner.create_run())
    }

    fn append_page(&mut self, run: RunId, page: Page) -> SortResult<()> {
        let tuples = page.len();
        self.probes
            .ctx
            .time("store.write", || self.inner.append_page(run, page))?;
        self.wrote(1, tuples);
        Ok(())
    }

    fn append_block(&mut self, run: RunId, pages: Vec<Page>) -> SortResult<()> {
        let (n, tuples) = (pages.len(), pages.iter().map(Page::len).sum());
        self.probes
            .ctx
            .time("store.write", || self.inner.append_block(run, pages))?;
        self.wrote(n, tuples);
        Ok(())
    }

    fn read_page(&mut self, run: RunId, idx: usize) -> SortResult<Page> {
        let page = self
            .probes
            .ctx
            .time("store.read", || self.inner.read_page(run, idx))?;
        self.read(std::slice::from_ref(&page));
        self.probes.tick(Progress::BlockRead);
        Ok(page)
    }

    fn read_page_with_scratch(
        &mut self,
        run: RunId,
        idx: usize,
        scratch: &mut Vec<u8>,
    ) -> SortResult<Page> {
        let page = self.probes.ctx.time("store.read", || {
            self.inner.read_page_with_scratch(run, idx, scratch)
        })?;
        self.read(std::slice::from_ref(&page));
        self.probes.tick(Progress::BlockRead);
        Ok(page)
    }

    fn read_block(&mut self, run: RunId, start: usize, len: usize) -> SortResult<Vec<Page>> {
        let pages = self
            .probes
            .ctx
            .time("store.read", || self.inner.read_block(run, start, len))?;
        self.read(&pages);
        self.probes.tick(Progress::BlockRead);
        Ok(pages)
    }

    fn block_read_job(&mut self, run: RunId, start: usize, len: usize) -> Option<BlockReadJob> {
        let job = self.probes.ctx.time("store.prefetch_submit", || {
            self.inner.block_read_job(run, start, len)
        })?;
        self.probes.tick(Progress::BlockRead);
        let ctx = Arc::clone(&self.probes.ctx);
        let counters = Arc::clone(&self.probes.counters);
        let job_id = ctx.job();
        Some(Box::new(move || {
            let start = Instant::now();
            let pages = job();
            if let Some(t) = &ctx.tracer {
                // Runs on an I/O worker: no parent, it blocks nobody.
                t.leaf("store.prefetch", start, Instant::now(), None, job_id);
            }
            if let Ok(pages) = &pages {
                count_read(&counters, pages);
            }
            pages
        }))
    }

    fn attach_io_pool(&mut self, pool: IoPool) {
        self.inner.attach_io_pool(pool);
    }

    fn io_pool(&self) -> Option<IoPool> {
        self.inner.io_pool()
    }

    fn flush(&mut self) -> SortResult<()> {
        self.probes.ctx.time("store.flush", || self.inner.flush())
    }

    fn set_write_coalescing(&mut self, pages: usize) {
        self.inner.set_write_coalescing(pages);
    }

    fn attach_trace(&mut self, trace: masort_trace::Trace) {
        self.inner.attach_trace(trace);
    }

    fn run_pages(&self, run: RunId) -> usize {
        self.inner.run_pages(run)
    }

    fn run_tuples(&self, run: RunId) -> usize {
        self.inner.run_tuples(run)
    }

    fn delete_run(&mut self, run: RunId) -> SortResult<()> {
        self.probes
            .ctx
            .time("store.delete", || self.inner.delete_run(run))
    }

    fn meta(&self, run: RunId) -> RunMeta {
        self.inner.meta(run)
    }
}

/// A [`Write`] wrapper: spans `writer` around each write that reaches the
/// output file (below the writer's buffer, so one span per buffer flush).
#[derive(Debug)]
pub struct ProbeWrite<W> {
    inner: W,
    ctx: Arc<Ctx>,
}

impl<W> ProbeWrite<W> {
    /// Wrap `inner`.
    pub fn new(inner: W, ctx: Arc<Ctx>) -> Self {
        ProbeWrite { inner, ctx }
    }
}

impl<W: Write> Write for ProbeWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.ctx.time("writer", || self.inner.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.ctx.time("writer", || self.inner.flush())
    }
}
