//! A memory-fluctuation schedule tied to the sort's progress, not a clock.
//!
//! The target flips between the full grant and a low grant after every
//! `every` input pages during the split phase and after every `every` store
//! block reads during the merge phase. The seed picks where in the first
//! period the first flip lands. Because the sort's page reads are the same
//! on every run, the same shrinks arrive at the same points of the sort on
//! every run with the same seed, whatever the machine's speed.

/// Which progress counter a tick advances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// One input page consumed (split phase).
    InputPage,
    /// One run-store block read issued (merge phase).
    BlockRead,
}

/// One target change: which counter fired, at which tick, to what target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flip {
    /// The counter that reached its period.
    pub on: Progress,
    /// Value of that counter when the flip fired.
    pub tick: u64,
    /// The new budget target in pages.
    pub target: usize,
}

/// The flip-flop schedule and the log of every flip it issued.
#[derive(Clone, Debug)]
pub struct FlipSchedule {
    full: usize,
    low: usize,
    every: u64,
    offset: u64,
    input_ticks: u64,
    read_ticks: u64,
    low_now: bool,
    log: Vec<Flip>,
}

impl FlipSchedule {
    /// Flip between `full` and `low` pages every `every` ticks of either
    /// counter, phase-shifted by `seed`.
    pub fn new(seed: u64, full: usize, low: usize, every: u64) -> Self {
        let every = every.max(1);
        FlipSchedule {
            full,
            low,
            every,
            offset: seed % every,
            input_ticks: 0,
            read_ticks: 0,
            low_now: false,
            log: Vec::new(),
        }
    }

    /// Advance `on` by one; returns the new target when this tick flips it.
    pub fn tick(&mut self, on: Progress) -> Option<usize> {
        let counter = match on {
            Progress::InputPage => &mut self.input_ticks,
            Progress::BlockRead => &mut self.read_ticks,
        };
        *counter += 1;
        let tick = *counter;
        if !(tick + self.offset).is_multiple_of(self.every) {
            return None;
        }
        self.low_now = !self.low_now;
        let target = if self.low_now { self.low } else { self.full };
        self.log.push(Flip { on, tick, target });
        Some(target)
    }

    /// Every flip issued so far.
    #[cfg(test)]
    pub fn log(&self) -> &[Flip] {
        &self.log
    }

    /// Flips that lowered the target.
    pub fn shrinks(&self) -> usize {
        self.log.iter().filter(|f| f.target == self.low).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(seed: u64) -> Vec<Flip> {
        let mut s = FlipSchedule::new(seed, 64, 16, 8);
        for _ in 0..100 {
            s.tick(Progress::InputPage);
        }
        for _ in 0..50 {
            s.tick(Progress::BlockRead);
        }
        s.log().to_vec()
    }

    #[test]
    fn same_seed_same_flips() {
        assert_eq!(drive(3), drive(3));
        assert_ne!(drive(3), drive(4));
    }

    #[test]
    fn flips_alternate_low_and_full_every_period() {
        let log = drive(0);
        // 100 input ticks and 50 read ticks at period 8: 12 + 6 flips.
        assert_eq!(log.len(), 18);
        assert!(log.iter().step_by(2).all(|f| f.target == 16));
        assert!(log.iter().skip(1).step_by(2).all(|f| f.target == 64));
        assert_eq!(log[0].tick, 8);
        assert_eq!(log[12].on, Progress::BlockRead);
        assert_eq!(log[12].tick, 8);
    }
}
