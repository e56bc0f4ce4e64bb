//! Replacement-selection run formation (`repl1`, `replN`, `adapt`): one
//! selection engine, two run policies.
//!
//! Input tuples are inserted into an ordered heap. Once memory is full, tuples
//! with the smallest keys that are still ≥ the last key written to the current
//! run are removed and written out, making room for more input. Tuples smaller
//! than the last output key are tagged for the *next* run; when the heap
//! contains only next-run tuples the current run is closed (paper §2.1).
//!
//! Writing happens in blocks of `block_pages` pages (`replN`): larger blocks
//! reduce disk seeks at the cost of slightly shorter runs, and they leave a
//! few free buffers lying around most of the time, which is what makes `replN`
//! so responsive to memory shortages (paper §5.2). `adapt` sizes each block
//! from the current allocation instead (the paper's future work, §7).
//!
//! # Two run policies
//!
//! [`SortConfig::adaptive_runs`] chooses what a run is. Both policies share the
//! heap, the arena, the block policy, the shedding loop and the driver loop.
//!
//! * **Classic (knob off)** — the paper's algorithm, and the one the
//!   simulator runs. Every run ascends. Absorbing a page charges one
//!   `StartIo` and one `HeapInsert` for the whole page; emitting a tuple
//!   charges `HeapRemove` then `CopyTuple`. The simulated clock advances on
//!   every charge call, so this call sequence is part of the paper's
//!   figures and must not change.
//! * **Up/down (knob on)** — run generation that may go up *or* down, of
//!   which the classic policy is the special case that only ever goes up.
//!   It changes what a run is in two ways:
//!
//!   1. **Trend-driven run directions.** Each run is formed either ascending
//!      (`Up`) or descending (`Down`), and the direction *follows the
//!      input*. Run 0's direction is sniffed from the first input page;
//!      every later run's direction is chosen from decayed ascending/
//!      descending arrival-pair counters. Descending-majority input gets
//!      `Down` runs and anything else gets `Up`: presorted input forms
//!      ascending runs and reversed input maximal descending ones, while
//!      random input, with no trend either way, gets runs of either
//!      direction at the classic ~2·M expected length. All
//!      selection happens in a per-run *comparison space*: `cmp = composite`
//!      for ascending runs and `cmp = !composite` for descending ones
//!      (bitwise NOT is an order-reversing bijection on `u128`), so the heap,
//!      the `last_out` tagging rule and the emission order are
//!      direction-blind. A descending run is written exactly as emitted
//!      (ranks physically descending) and tagged [`RunDirection::Reversed`];
//!      the merge reads it back-to-front. Heap entries are immutable, so run
//!      r+1's direction must be fixed when its first tuple is tagged, i.e. at
//!      the *start* of run r. The policy therefore reacts to a trend reversal
//!      with one run of lag (one memory-sized "lag run" at each direction
//!      change), which is amortized away whenever ordered stretches are
//!      longer than memory.
//!   2. **Natural-run detection** (the tail queue). Tuples that continue the
//!      input's current streak (`cmp` at least the tail's last value) append
//!      to a FIFO in O(1) instead of paying two O(log M) heap operations. The
//!      tail is an *independent* ascending sequence, not an extension of the
//!      heap: emission pops the smaller of (heap top, tail front), and
//!      merging two ascending streams keeps the output globally
//!      non-decreasing in `cmp`. A tuple that breaks the streak first evicts
//!      up to `SPIKE_EVICT_LIMIT` tail-tip elements into the heap, so an
//!      isolated out-of-place "spike" costs one heap insert instead of ending
//!      the streak, and falls back to the heap itself on a deeper break.
//!      Every element pays at most one heap round-trip, exactly like the
//!      classic policy, so random input stays at parity; on presorted,
//!      reversed or clustered input almost every tuple takes the O(1) path.
//!
//!   Its per-page charges are the same calls plus one `CopyTuple` for the
//!   tuples that took the tail.
//!
//! # The selection structure
//!
//! The heap holds compact `(run_no, cmp, slot)` entries over an **arena** of
//! tuples instead of the tuples themselves: composite keys (rank, then tie
//! rank — see [`SortOrder::composite`]) are computed once at insertion (the
//! merge kernel's cached-rank discipline), and every sift moves a small
//! packed entry rather than a full [`Tuple`] with its payload vector. A
//! binary heap — not the merge's loser tree ([`crate::merge::select`]) — is
//! the right tournament here because run formation inserts whole input pages
//! *between* pop streaks: a loser tree only supports replaying its current
//! winner, while this heap takes unpaired O(log n) inserts in stride.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::budget::MemoryBudget;
use crate::config::{PageLayout, RunFormation, SortConfig};
use crate::env::{CpuOp, SortEnv};
use crate::error::{SortError, SortResult};
use crate::input::InputSource;
use crate::order::SortOrder;
use crate::store::{RunDirection, RunId, RunStore};
use crate::tuple::{paginate_with, Page, Tuple};

use super::SplitStats;

/// Compact heap entry: `(run_no, cmp, slot)`, popped smallest-first through
/// [`Reverse`]. Ordering by (run number, comparison value) keeps the current
/// run's smallest tuple on top while next-run tuples sink below every
/// current-run one; the slot index breaks ties deterministically and locates
/// the tuple in the arena. The comparison value is the configured
/// [`SortOrder`]'s composite (`rank << 64 | tie_rank` — the tie half is zero
/// except for long normalized keys), bitwise-inverted for descending runs, so
/// descending, custom-key and normalized-key sorts all use the same heap.
type Entry = (u32, u128, u32);

/// The tuple arena behind the selection heap: slots are allocated on insert,
/// emptied on pop, and recycled through a free list so the arena's footprint
/// tracks the heap's population instead of growing without bound.
#[derive(Default)]
struct Arena {
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
    live: usize,
}

impl Arena {
    fn insert(&mut self, tuple: Tuple) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(tuple);
                slot
            }
            None => {
                self.slots.push(Some(tuple));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> Tuple {
        self.live -= 1;
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("heap entry pointed at an empty arena slot")
    }
}

/// How the block-write size is chosen.
#[derive(Clone, Copy, Debug)]
enum BlockPolicy {
    /// A fixed number of pages per block write (`replN`).
    Fixed(usize),
    /// Track the current memory allocation (`adapt`): block ≈ target / 6,
    /// clamped to [`RunFormation::ADAPTIVE_MIN_BLOCK`] ..=
    /// [`RunFormation::ADAPTIVE_MAX_BLOCK`] pages.
    Adaptive,
}

impl BlockPolicy {
    fn of(formation: RunFormation) -> Self {
        match formation {
            RunFormation::ReplacementSelect { block_pages } => BlockPolicy::Fixed(block_pages),
            RunFormation::AdaptiveReplacement => BlockPolicy::Adaptive,
            RunFormation::Quicksort => {
                panic!("replacement::form_runs called with the quicksort formation")
            }
        }
    }

    fn block_pages(self, target_pages: usize) -> usize {
        match self {
            BlockPolicy::Fixed(n) => n.max(1),
            BlockPolicy::Adaptive => (target_pages / 6).clamp(
                RunFormation::ADAPTIVE_MIN_BLOCK,
                RunFormation::ADAPTIVE_MAX_BLOCK,
            ),
        }
    }
}

/// The direction of the run currently being formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunDir {
    Up,
    Down,
}

impl RunDir {
    /// Map a composite sort key into this run's comparison space. Bitwise NOT
    /// is an order-reversing bijection on `u128`, so descending runs reuse
    /// the ascending heap unchanged.
    fn cmp_of(self, composite: u128) -> u128 {
        match self {
            RunDir::Up => composite,
            RunDir::Down => !composite,
        }
    }

    fn meta(self) -> RunDirection {
        match self {
            RunDir::Up => RunDirection::Forward,
            RunDir::Down => RunDirection::Reversed,
        }
    }
}

/// Ascending arrivals required before an empty tail engages. `2^-8` of
/// random pairs reach it (spurious engagement is negligible) while any
/// genuinely presorted stretch sails past it within a page.
const STREAK_ENGAGE: usize = 8;

/// How many tail-tip elements a streak-breaking tuple may push into the heap
/// before the tuple itself takes the heap path instead. One is enough for an
/// isolated out-of-place tuple; a small budget also absorbs short stutters
/// without letting a genuinely descending stretch churn the tail.
const SPIKE_EVICT_LIMIT: usize = 4;

struct State<'a, S: RunStore> {
    store: &'a mut S,
    tpp: usize,
    block_tuples: usize,
    order: SortOrder,
    layout: PageLayout,
    /// The up/down policy ([`SortConfig::adaptive_runs`]). Off, every run is
    /// `Up` and the direction sniff, the natural-run tail and the trend
    /// counters are never touched.
    up_down: bool,
    heap: BinaryHeap<Reverse<Entry>>,
    arena: Arena,
    /// Natural-run FIFO: the `(cmp, tuple)` ascending streak currently being
    /// detected at the input frontier, merged with the heap at emission.
    tail: VecDeque<(u128, Tuple)>,
    out_buf: Vec<Tuple>,
    current_run_no: u32,
    current_run_id: Option<RunId>,
    dir: RunDir,
    /// The direction the *next* run will sort in. Fixed at the start of the
    /// current run, because next-run heap entries are tagged in this space
    /// as they arrive and heap entries are immutable.
    next_dir: RunDir,
    /// Comparison-space value of the last tuple written to the current run.
    last_out: Option<u128>,
    /// Composite value of the previous input tuple — the reference point for
    /// the ascending/descending arrival-trend counters.
    last_composite: Option<u128>,
    /// Decayed count of strictly ascending adjacent arrivals (halved once per
    /// input page, so the trend reflects the last couple of pages). Equal
    /// pairs count in neither direction.
    up_pairs: u64,
    /// Decayed count of strictly descending adjacent arrivals.
    down_pairs: u64,
    /// Tuples in the streak the tail is currently detecting. Unlike
    /// `tail.len()` this survives emission draining the front, so a streak
    /// is counted as a *natural run* exactly once — when it reaches one
    /// page. Reset whenever the streak breaks.
    streak_len: usize,
    /// Comparison value of the previous input tuple (current-run space),
    /// regardless of where it was routed — the reference point for
    /// arrival-order streak detection.
    last_in: Option<u128>,
    /// Consecutive ascending arrivals ending at the previous tuple. An empty
    /// tail only engages once this reaches [`STREAK_ENGAGE`], so random
    /// input (short arrival streaks) skips the tail entirely and pays just
    /// one comparison per tuple over the classic policy.
    arrival_streak: usize,
}

impl<'a, S: RunStore> State<'a, S> {
    fn new(cfg: &SortConfig, store: &'a mut S, block_tuples: usize) -> Self {
        State {
            store,
            tpp: cfg.tuples_per_page(),
            block_tuples,
            order: cfg.order.clone(),
            layout: cfg.layout,
            up_down: cfg.adaptive_runs,
            heap: BinaryHeap::new(),
            arena: Arena::default(),
            tail: VecDeque::new(),
            out_buf: Vec::new(),
            current_run_no: 0,
            current_run_id: None,
            dir: RunDir::Up,
            next_dir: RunDir::Up,
            last_out: None,
            last_composite: None,
            up_pairs: 0,
            down_pairs: 0,
            streak_len: 0,
            last_in: None,
            arrival_streak: 0,
        }
    }

    fn in_memory_tuples(&self) -> usize {
        self.arena.live + self.tail.len() + self.out_buf.len()
    }

    fn in_memory_pages(&self) -> usize {
        self.in_memory_tuples().div_ceil(self.tpp)
    }

    /// True when nothing of any run remains buffered in the selection
    /// structures (the heap may still hold next-run entries otherwise).
    fn selection_empty(&self) -> bool {
        self.heap.is_empty() && self.tail.is_empty()
    }

    /// Sniff run 0's direction from the first non-empty input page: count
    /// ascending vs descending adjacent rank pairs and start descending when
    /// the input leans that way. Equal pairs carry no direction, so
    /// duplicate-heavy descending input still reads as descending. The
    /// direction must be fixed before any tuple is tagged, because heap
    /// entries are immutable once pushed.
    fn sniff_direction(&mut self, tuples: &[Tuple]) {
        let (mut up, mut down) = (0usize, 0usize);
        let mut prev: Option<u128> = None;
        for t in tuples {
            let c = self.order.composite_of(t);
            match prev.map(|p| c.cmp(&p)) {
                Some(Ordering::Greater) => up += 1,
                Some(Ordering::Less) => down += 1,
                _ => {}
            }
            prev = Some(c);
        }
        if down > up {
            self.dir = RunDir::Down;
        }
        // Until the first close there is no better signal for the next
        // run's space than run 0's own direction.
        self.next_dir = self.dir;
    }

    /// Up/down bookkeeping for one arrival: the trend counters (raw
    /// composite order) and the arrival streak (this run's comparison
    /// space). Returns the tuple's comparison value.
    fn observe_arrival(&mut self, composite: u128) -> u128 {
        match self.last_composite.map(|p| composite.cmp(&p)) {
            Some(Ordering::Greater) => self.up_pairs += 1,
            Some(Ordering::Less) => self.down_pairs += 1,
            _ => {}
        }
        self.last_composite = Some(composite);
        let cmp = self.dir.cmp_of(composite);
        // Arrival-order streak tracking happens before routing so every
        // tuple — heap, tail or next-run — advances or breaks it.
        if self.last_in.is_some_and(|p| cmp < p) {
            self.arrival_streak = 0;
        } else {
            self.arrival_streak += 1;
        }
        self.last_in = Some(cmp);
        cmp
    }

    fn push(&mut self, run_no: u32, cmp: u128, tuple: Tuple) {
        let slot = self.arena.insert(tuple);
        self.heap.push(Reverse((run_no, cmp, slot)));
    }

    /// Let a streak-breaking tuple evict a bounded number of tail-tip
    /// "spikes" into the heap, so an isolated out-of-place tuple costs one
    /// heap insert instead of ending the streak. Returns the number evicted.
    fn evict_spikes(&mut self, cmp: u128, stats: &mut SplitStats) -> u64 {
        let mut evicted = 0;
        while evicted < SPIKE_EVICT_LIMIT {
            match self.tail.back() {
                Some(&(tail_last, _)) if cmp < tail_last => {
                    let (spike_cmp, spike) = self.tail.pop_back().expect("peeked");
                    self.push(self.current_run_no, spike_cmp, spike);
                    // The spike took the heap path after all.
                    stats.natural_tuples = stats.natural_tuples.saturating_sub(1);
                    self.streak_len = self.streak_len.saturating_sub(1);
                    evicted += 1;
                }
                _ => break,
            }
        }
        evicted as u64
    }

    fn continues_streak(&self, cmp: u128) -> bool {
        match self.tail.back() {
            Some(&(tail_last, _)) => cmp >= tail_last,
            // Empty tail: current-run membership (`cmp ≥ last_out`) is
            // already established, but engage only for a proven arrival
            // streak — random input must not churn through the tail.
            None => self.arrival_streak >= STREAK_ENGAGE,
        }
    }

    /// Absorb one input page. The CPU work is charged per page, not per
    /// tuple (see the module docs): one `StartIo`, one `HeapInsert` for
    /// every tuple that entered the heap and, under the up/down policy only,
    /// one `CopyTuple` for every tuple that took the natural-run tail.
    fn insert_page<E: SortEnv>(&mut self, env: &mut E, page: Page, stats: &mut SplitStats) {
        env.charge_cpu(CpuOp::StartIo, 1);
        let tuples = page.into_tuples();
        if self.up_down {
            // No arrival observed yet: this is the first non-empty page.
            if self.last_composite.is_none() {
                self.sniff_direction(&tuples);
            }
            // Halve the trend counters once per page so the direction
            // decision reflects the last couple of pages, not the whole run.
            self.up_pairs >>= 1;
            self.down_pairs >>= 1;
        }
        let (mut heap_inserts, mut tail_appends) = (0u64, 0u64);
        for tuple in tuples {
            // Composite computed once per tuple (one `SortOrder` dispatch);
            // every later heap comparison reads the cached value.
            let composite = self.order.composite_of(&tuple);
            let cmp = if self.up_down {
                self.observe_arrival(composite)
            } else {
                composite
            };
            if matches!(self.last_out, Some(last) if cmp < last) {
                // Belongs to the next run, tagged in that run's (already
                // fixed) comparison space.
                heap_inserts += 1;
                self.push(
                    self.current_run_no + 1,
                    self.next_dir.cmp_of(composite),
                    tuple,
                );
                continue;
            }
            if self.up_down {
                heap_inserts += self.evict_spikes(cmp, stats);
                if self.continues_streak(cmp) {
                    // Natural-run fast path: O(1), no heap traffic.
                    stats.natural_tuples += 1;
                    self.streak_len += 1;
                    if self.streak_len == self.tpp {
                        // A streak one page long counts as a detected natural
                        // run (shorter fragments are heap noise).
                        stats.natural_runs += 1;
                    }
                    tail_appends += 1;
                    self.tail.push_back((cmp, tuple));
                    continue;
                }
                self.streak_len = 0;
            }
            heap_inserts += 1;
            self.push(self.current_run_no, cmp, tuple);
        }
        env.charge_cpu(CpuOp::HeapInsert, heap_inserts);
        if tail_appends > 0 {
            env.charge_cpu(CpuOp::CopyTuple, tail_appends);
        }
    }

    /// Pop the smallest current-run tuple (comparison space): the smaller of
    /// the heap's top and the tail's front. The heap's current-run prefix
    /// and the tail are each ascending in `cmp`, and a merge of two
    /// ascending streams is ascending — so emission stays non-decreasing
    /// without any cross-structure invariant.
    fn pop_current<E: SortEnv>(&mut self, env: &mut E) -> Option<(u128, Tuple)> {
        let heap_cur = match self.heap.peek() {
            Some(&Reverse((run_no, cmp, _))) if run_no == self.current_run_no => Some(cmp),
            _ => None,
        };
        let tail_front = self.tail.front().map(|&(cmp, _)| cmp);
        match (heap_cur, tail_front) {
            (Some(h), t) if t.is_none_or(|t| h <= t) => {
                let Some(Reverse((_, cmp, slot))) = self.heap.pop() else {
                    unreachable!("peeked a current-run entry");
                };
                env.charge_cpu(CpuOp::HeapRemove, 1);
                Some((cmp, self.arena.take(slot)))
            }
            (_, Some(_)) => self.tail.pop_front(),
            (_, None) => None,
        }
    }

    /// Pop current-run tuples into the output buffer until it holds
    /// `limit_tuples`, a run boundary is reached, or the selection is empty.
    /// Returns `true` if a run boundary was hit (only next-run tuples
    /// remain). The steady state fills one block; shedding pops the whole
    /// excess before a single (asynchronous) block write is issued.
    fn emit_up_to<E: SortEnv>(&mut self, env: &mut E, limit_tuples: usize) -> bool {
        while self.out_buf.len() < limit_tuples {
            match self.pop_current(env) {
                Some((cmp, tuple)) => {
                    env.charge_cpu(CpuOp::CopyTuple, 1);
                    self.last_out = Some(cmp);
                    self.out_buf.push(tuple);
                }
                None => return !self.heap.is_empty(),
            }
        }
        false
    }

    /// Flush the output buffer (whatever it currently holds) as one block
    /// write to the current run.
    fn flush<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let run = match self.current_run_id {
            Some(run) => run,
            None => {
                let run = self.store.create_run()?;
                self.current_run_id = Some(run);
                run
            }
        };
        let tuples = std::mem::take(&mut self.out_buf);
        env.charge_cpu(CpuOp::StartIo, 1);
        let pages = paginate_with(tuples, self.tpp, self.layout);
        stats.pages_written += pages.len();
        stats.block_writes += 1;
        self.store.append_block(run, pages)?;
        // The flushed buffers become available as soon as the block write
        // completes; unlike Quicksort, only as many pages as necessary are
        // written, which keeps replacement selection's delays short.
        budget.record_held(self.in_memory_pages(), env.now());
        Ok(())
    }

    /// Close the current run (flushing any buffered remainder first).
    fn close_run<E: SortEnv>(
        &mut self,
        env: &mut E,
        budget: &MemoryBudget,
        stats: &mut SplitStats,
    ) -> SortResult<()> {
        self.flush(env, budget, stats)?;
        if let Some(run) = self.current_run_id.take() {
            // The store only tracks sizes; the direction is ours to record.
            let mut meta = self.store.meta(run);
            meta.dir = self.dir.meta();
            env.trace().emit(masort_trace::EventKind::RunEmit {
                run: run.into(),
                tuples: meta.tuples as u64,
                reversed: meta.dir == RunDirection::Reversed,
            });
            stats.runs.push(meta);
        }
        self.current_run_no += 1;
        // The next run's space was fixed when its first tuple was tagged;
        // what the arrival trend decides *now* is the direction of the run
        // after it (one-run lag, see the module docs). The classic policy
        // never counts a trend, so it stays `Up`.
        self.dir = self.next_dir;
        self.next_dir = if self.down_pairs > self.up_pairs {
            RunDir::Down
        } else {
            RunDir::Up
        };
        self.last_out = None;
        self.streak_len = 0;
        // The comparison space may have changed; arrival history is stale.
        self.last_in = None;
        self.arrival_streak = 0;
        Ok(())
    }
}

/// Execute the split phase with replacement selection.
///
/// The block policy comes from `cfg.algorithm.formation` (`replN` writes
/// fixed N-page blocks, `adapt` tracks the allocation) and the run policy
/// from [`SortConfig::adaptive_runs`] (classic ascending runs, or up/down
/// runs with natural-run detection).
///
/// # Panics
///
/// If `cfg.algorithm.formation` is [`RunFormation::Quicksort`]; use
/// [`super::form_runs`] to dispatch on the formation.
pub fn form_runs<S, I, E>(
    cfg: &SortConfig,
    budget: &MemoryBudget,
    input: &mut I,
    store: &mut S,
    env: &mut E,
) -> SortResult<SplitStats>
where
    S: RunStore,
    I: InputSource,
    E: SortEnv,
{
    let policy = BlockPolicy::of(cfg.algorithm.formation);
    let tpp = cfg.tuples_per_page();
    let mut stats = SplitStats {
        started_at: env.now(),
        ..SplitStats::default()
    };
    let mut st = State::new(cfg, store, policy.block_pages(budget.target().max(1)) * tpp);
    budget.record_held(0, env.now());

    let mut exhausted = false;
    loop {
        env.poll(budget);
        if budget.is_cancelled() {
            budget.record_held(0, env.now());
            return Err(SortError::Cancelled);
        }
        let target = budget.target().max(1);
        // Under the adaptive block policy the block size follows the
        // allocation.
        st.block_tuples = policy.block_pages(target) * tpp;
        let cap_tuples = target * tpp;
        let in_mem = st.in_memory_tuples();

        // --------------------------------------------------------------
        // Memory shortage: shed pages by emitting and flushing blocks until
        // the holding fits the new target (or nothing is left to shed).
        // Unlike Quicksort, only as much as necessary is written out.
        // --------------------------------------------------------------
        if in_mem > cap_tuples {
            stats.shrink_events += 1;
            while st.in_memory_tuples() > cap_tuples {
                // Pop the whole excess (CPU work only), then issue one block
                // write for it; the freed buffers are handed back as soon as
                // the write is issued.
                let excess = st.in_memory_tuples() - cap_tuples;
                let boundary = st.emit_up_to(env, st.out_buf.len() + excess);
                if !st.out_buf.is_empty() {
                    st.flush(env, budget, &mut stats)?;
                }
                if boundary {
                    st.close_run(env, budget, &mut stats)?;
                } else if st.selection_empty() {
                    break;
                }
            }
            budget.record_held(st.in_memory_pages(), env.now());
            continue;
        }

        // --------------------------------------------------------------
        // Absorb the next input page if it fits in the current target.
        // --------------------------------------------------------------
        if !exhausted && in_mem + tpp <= cap_tuples {
            match input.next_page()? {
                Some(page) => {
                    stats.pages_read += 1;
                    st.insert_page(env, page, &mut stats);
                    budget.record_held(st.in_memory_pages(), env.now());
                }
                None => exhausted = true,
            }
            continue;
        }

        // --------------------------------------------------------------
        // Memory is full (steady state) or the input is exhausted: emit.
        // --------------------------------------------------------------
        if st.selection_empty() {
            if exhausted {
                st.close_run(env, budget, &mut stats)?;
                break;
            }
            // Selection empty but a residual output buffer blocks the next
            // page: flush it and retry.
            if !st.out_buf.is_empty() {
                st.flush(env, budget, &mut stats)?;
            }
            continue;
        }

        if st.emit_up_to(env, st.block_tuples) {
            st.close_run(env, budget, &mut stats)?;
        } else {
            // A full block, or the selection ran dry before filling one:
            // flush what we have so the next input page can be absorbed.
            st.flush(env, budget, &mut stats)?;
        }
        budget.record_held(st.in_memory_pages(), env.now());
    }

    budget.record_held(0, env.now());
    stats.finished_at = env.now();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::env::CountingEnv;
    use crate::input::VecSource;
    use crate::store::MemStore;
    use crate::verify::collect_run;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Tuple::synthetic(rng.gen::<u64>(), 256))
            .collect()
    }

    fn repl_cfg(mem: usize, block: usize, adaptive: bool) -> SortConfig {
        SortConfig::default()
            .with_memory_pages(mem)
            .with_algorithm(AlgorithmSpec {
                formation: RunFormation::repl(block),
                ..AlgorithmSpec::recommended()
            })
            .with_adaptive_runs(adaptive)
    }

    /// Split `tuples` with `mem` pages, `block`-page blocks and the run
    /// policy chosen by `adaptive`.
    fn split(
        tuples: Vec<Tuple>,
        mem: usize,
        block: usize,
        adaptive: bool,
    ) -> (SplitStats, MemStore) {
        let cfg = repl_cfg(mem, block, adaptive);
        let budget = MemoryBudget::new(mem);
        let mut input = VecSource::from_tuples(tuples, cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
        (stats, store)
    }

    /// Every run must be sorted in its recorded direction and the runs
    /// together must cover the input.
    fn assert_directed_runs_cover(stats: &SplitStats, store: &mut MemStore, expect: usize) {
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(store, r.id).unwrap();
            match r.dir {
                RunDirection::Forward => {
                    assert!(
                        t.windows(2).all(|w| w[0].key <= w[1].key),
                        "forward run {} not ascending",
                        r.id
                    )
                }
                RunDirection::Reversed => {
                    assert!(
                        t.windows(2).all(|w| w[0].key >= w[1].key),
                        "reversed run {} not descending",
                        r.id
                    )
                }
            }
            assert_eq!(t.len(), r.tuples);
            total += t.len();
        }
        assert_eq!(total, expect, "split lost or duplicated tuples");
    }

    /// Split random input under one run policy and check the runs are
    /// directed, cover the input and beat load-sort-store's length.
    fn check_random_split(adaptive: bool) {
        let n = 32 * 60;
        let (stats, mut store) = split(random_tuples(n, 7), 8, 6, adaptive);
        if !adaptive {
            assert!(stats.runs.iter().all(|r| r.dir == RunDirection::Forward));
        }
        assert_directed_runs_cover(&stats, &mut store, n);
        // On random input runs of either direction keep the expected
        // length of classic replacement selection (~2x memory),
        // comfortably above load-sort-store's 1x.
        assert!(
            stats.avg_run_pages() > 8.0,
            "adaptive={adaptive}: avg run pages {} too short",
            stats.avg_run_pages()
        );
    }

    #[test]
    fn produces_sorted_runs_covering_all_tuples() {
        check_random_split(false);
    }

    #[test]
    fn classic_policy_charges_one_heap_insert_call_per_page() {
        // The simulator's clock advances on every charge call, so the
        // classic policy must charge a page's heap inserts in one call.
        struct CallLog(Vec<(CpuOp, u64)>);
        impl SortEnv for CallLog {
            fn now(&self) -> f64 {
                0.0
            }
            fn charge_cpu(&mut self, op: CpuOp, count: u64) {
                self.0.push((op, count));
            }
            fn wait_for_pages(&mut self, _b: &MemoryBudget, _p: usize) -> bool {
                true
            }
        }
        let cfg = repl_cfg(4, 1, false);
        let tpp = cfg.tuples_per_page() as u64;
        let budget = MemoryBudget::new(4);
        let mut input = VecSource::from_tuples(random_tuples(32 * 10, 11), cfg.tuples_per_page());
        let mut env = CallLog(Vec::new());
        form_runs(&cfg, &budget, &mut input, &mut MemStore::new(), &mut env).unwrap();
        let inserts: Vec<u64> = env
            .0
            .iter()
            .filter(|(op, _)| *op == CpuOp::HeapInsert)
            .map(|&(_, n)| n)
            .collect();
        assert_eq!(inserts, vec![tpp; 10]);
        let removes = env.0.iter().filter(|(op, _)| *op == CpuOp::HeapRemove);
        assert!(removes.clone().all(|&(_, n)| n == 1));
        assert_eq!(removes.count(), 32 * 10);
        // Every heap removal is followed by exactly one tuple copy.
        for w in env.0.windows(2) {
            if w[0].0 == CpuOp::HeapRemove {
                assert_eq!(w[1], (CpuOp::CopyTuple, 1));
            }
        }
    }

    #[test]
    fn block_writes_issue_fewer_write_operations() {
        let n = 32 * 60;
        let (s1, _) = split(random_tuples(n, 7), 8, 1, false);
        let (s6, _) = split(random_tuples(n, 7), 8, 6, false);
        assert!(s6.block_writes * 3 < s1.block_writes);
        assert_eq!(s1.total_tuples(), n);
        assert_eq!(s6.total_tuples(), n);
    }

    /// Shrink the budget to a single page mid-split under one run policy
    /// and check the shortage is met without losing tuples.
    fn check_shrink_mid_split(adaptive: bool) {
        // An env that shrinks the budget to a single page once the clock passes 0.05 s.
        struct ShrinkingEnv {
            clock: f64,
            fired: bool,
        }
        impl SortEnv for ShrinkingEnv {
            fn now(&self) -> f64 {
                self.clock
            }
            fn charge_cpu(&mut self, _op: CpuOp, count: u64) {
                self.clock += count as f64 * 1e-4;
            }
            fn poll(&mut self, budget: &MemoryBudget) {
                if !self.fired && self.clock > 0.05 {
                    self.fired = true;
                    budget.set_target(1, self.clock);
                }
            }
            fn wait_for_pages(&mut self, _b: &MemoryBudget, _p: usize) -> bool {
                true
            }
        }
        let cfg = repl_cfg(8, 6, adaptive);
        let tpp = cfg.tuples_per_page();
        let budget = MemoryBudget::new(8);
        let mut input = VecSource::from_tuples(random_tuples(32 * 30, 3), tpp);
        let mut store = MemStore::new();
        let mut env = ShrinkingEnv {
            clock: 0.0,
            fired: false,
        };
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
        assert!(env.fired, "adaptive={adaptive}");
        assert!(stats.shrink_events >= 1);
        assert_eq!(stats.total_tuples(), 32 * 30);
        // The shortage must have been satisfied (delay recorded, none pending).
        assert!(!budget.shrink_pending());
        assert!(budget.delay_count() >= 1);
        assert_directed_runs_cover(&stats, &mut store, 32 * 30);
    }

    #[test]
    fn shrink_mid_split_frees_memory_and_records_event() {
        check_shrink_mid_split(false);
    }

    #[test]
    fn runs_longer_than_memory_on_random_input() {
        let (stats, _) = split(random_tuples(32 * 80, 7), 10, 1, false);
        assert!(stats.avg_run_pages() > 10.0 * 1.4);
    }

    #[test]
    fn degenerate_block_equal_to_memory_behaves_like_load_sort_store() {
        // When the block size equals the memory size the benefit of
        // replacement selection is lost: run length ≈ number of buffers
        // (paper §2.1).
        let (stats, _) = split(random_tuples(32 * 64, 7), 8, 8, false);
        assert!(
            stats.avg_run_pages() < 12.0,
            "avg run pages {} should collapse towards memory size",
            stats.avg_run_pages()
        );
    }

    #[test]
    fn adaptive_block_produces_sorted_runs_and_scales_block_size() {
        let n = 32 * 60;
        let run = |mem: usize| {
            let cfg = SortConfig::default()
                .with_memory_pages(mem)
                .with_algorithm(AlgorithmSpec {
                    formation: RunFormation::adaptive(),
                    ..AlgorithmSpec::recommended()
                })
                .with_adaptive_runs(false);
            let budget = MemoryBudget::new(cfg.memory_pages);
            let mut input = VecSource::from_tuples(random_tuples(n, 5), cfg.tuples_per_page());
            let mut store = MemStore::new();
            let mut env = CountingEnv::new();
            let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
            (stats, store)
        };
        let (small, mut small_store) = run(6);
        let (big, mut big_store) = run(60);
        assert_eq!(small.total_tuples(), n);
        assert_eq!(big.total_tuples(), n);
        for r in &small.runs {
            assert!(collect_run(&mut small_store, r.id)
                .unwrap()
                .windows(2)
                .all(|w| w[0].key <= w[1].key));
        }
        for r in &big.runs {
            assert!(collect_run(&mut big_store, r.id)
                .unwrap()
                .windows(2)
                .all(|w| w[0].key <= w[1].key));
        }
        // With 60 pages of memory the adaptive policy writes ~10-page blocks,
        // so it needs far fewer block writes per page written than with 6.
        let small_ratio = small.pages_written as f64 / small.block_writes as f64;
        let big_ratio = big.pages_written as f64 / big.block_writes as f64;
        assert!(
            big_ratio > small_ratio * 2.0,
            "bigger memory should mean bigger blocks ({big_ratio:.1} vs {small_ratio:.1} pages/write)"
        );
    }

    #[test]
    fn tiny_memory_still_completes() {
        let (stats, mut store) = split(random_tuples(32 * 5, 7), 1, 1, false);
        assert_eq!(stats.total_tuples(), 32 * 5);
        for r in &stats.runs {
            let t = collect_run(&mut store, r.id).unwrap();
            assert!(t.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    // -- up/down policy ----------------------------------------------------

    #[test]
    fn ordered_mode_random_input_covers_all_tuples() {
        check_random_split(true);
    }

    #[test]
    fn ordered_mode_survives_shrink() {
        check_shrink_mid_split(true);
    }

    #[test]
    fn ordered_mode_presorted_input_is_one_forward_run() {
        let n = 32 * 30;
        let tuples: Vec<Tuple> = (0..n).map(|k| Tuple::synthetic(k as u64, 256)).collect();
        let (stats, mut store) = split(tuples, 4, 1, true);
        assert_eq!(stats.run_count(), 1);
        assert_eq!(stats.runs[0].dir, RunDirection::Forward);
        assert!(stats.natural_tuples >= n - 32, "tail path barely used");
        assert_directed_runs_cover(&stats, &mut store, n);
    }

    #[test]
    fn ordered_mode_reversed_input_is_one_reversed_run() {
        // The classic algorithm's worst case (memory-sized runs) becomes a
        // single descending run: direction sniffing picks Down for run 0 and
        // every tuple continues the streak. With four copies of every key
        // the equal pairs must not outvote the descending ones.
        for copies in [1, 4] {
            let n = 32 * 30;
            let tuples: Vec<Tuple> = (0..n)
                .rev()
                .map(|k| Tuple::synthetic(k as u64 / copies, 256))
                .collect();
            let (stats, mut store) = split(tuples, 4, 1, true);
            assert_eq!(stats.run_count(), 1, "{copies} copies: want one run");
            assert_eq!(stats.runs[0].dir, RunDirection::Reversed);
            assert_directed_runs_cover(&stats, &mut store, n);
        }
    }

    #[test]
    fn ordered_mode_alternating_stretches_use_both_directions() {
        // Up-ramp then down-ramp, repeated, each stretch far longer than
        // memory (128 tuples): the trend policy follows the input with one
        // run of lag at each direction change, so each stretch costs at most
        // one big directed run plus one memory-sized lag run — far fewer
        // than the ~stretch/memory runs of one-directional selection.
        let stretch = 32 * 12;
        let mut tuples = Vec::new();
        for s in 0..4u64 {
            let ramp: Box<dyn Iterator<Item = u64>> = if s % 2 == 0 {
                Box::new(0..stretch)
            } else {
                Box::new((0..stretch).rev())
            };
            tuples.extend(ramp.map(|k| Tuple::synthetic(k, 256)));
        }
        let n = tuples.len();
        let (stats, mut store) = split(tuples, 4, 1, true);
        assert_directed_runs_cover(&stats, &mut store, n);
        assert!(
            stats.run_count() <= 10,
            "trend-following runs should absorb each stretch (got {} runs)",
            stats.run_count()
        );
        let reversed = stats
            .runs
            .iter()
            .filter(|r| r.dir == RunDirection::Reversed)
            .count();
        assert!(reversed >= 1, "descending stretches never got a Down run");
        assert!(
            reversed < stats.run_count(),
            "ascending stretches never got an Up run"
        );
    }

    #[test]
    fn ordered_mode_descending_sort_order_is_honoured() {
        // `dir` is relative to the configured order: with a descending
        // SortOrder, a Forward run is descending in raw keys.
        let n = 32 * 20;
        let cfg = repl_cfg(4, 1, true).with_order(SortOrder::descending());
        let budget = MemoryBudget::new(4);
        let mut input = VecSource::from_tuples(random_tuples(n, 9), cfg.tuples_per_page());
        let mut store = MemStore::new();
        let mut env = CountingEnv::new();
        let stats = form_runs(&cfg, &budget, &mut input, &mut store, &mut env).unwrap();
        let mut total = 0;
        for r in &stats.runs {
            let t = collect_run(&mut store, r.id).unwrap();
            match r.dir {
                RunDirection::Forward => assert!(t.windows(2).all(|w| w[0].key >= w[1].key)),
                RunDirection::Reversed => assert!(t.windows(2).all(|w| w[0].key <= w[1].key)),
            }
            total += t.len();
        }
        assert_eq!(total, n);
    }
}
