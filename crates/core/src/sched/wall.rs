//! Wall-clock attribution of one rank's factor loop: where the real time of
//! a factorization goes, at the boundaries [`super::step`] and the poll loop
//! already have. One lap timer partitions the loop into the [`Wall`] buckets,
//! so they sum to the loop's wall time by construction.
//!
//! The clock is read only while [`crate::SolverOptions::telemetry`] is on: a
//! task costs 5–6 `Instant::now()` calls, ≈ 5 % of a dense factorization and
//! ≈ 20 % of one with tiny supernodes, which is too much to leave running.
//! Wall numbers never enter a `TelemetrySnapshot` or any other document the
//! determinism gates hash.

use std::time::Instant;

/// What a rank's factor loop spends wall time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wall {
    /// `Rank::progress` (and the yield before it) on a poll that delivered
    /// or found work.
    Progress,
    /// Resolving queued signals: fetch, hold a relay duty,
    /// [`super::Engine::on_data`].
    Signals,
    /// Flushing expired frames, picking from the RTQ and forwarding the
    /// relays due by the picked task's start.
    Pick,
    /// Inside the dense kernels (the update product's temporary included).
    Kernel,
    /// The update's row map and scatter-add into the target block.
    Scatter,
    /// [`super::CommLayer::publish`]: hosting the payload and signalling.
    Publish,
    /// Everything else a task costs: operand lookup, store take / put,
    /// virtual-clock charge, telemetry sample, dependency decrements.
    Bookkeeping,
    /// Polls that found nothing to do, and the wait at the closing barrier.
    Idle,
}

impl Wall {
    /// Every bucket, in the order the tools print them.
    pub const ALL: [Wall; 8] = [
        Wall::Progress,
        Wall::Signals,
        Wall::Pick,
        Wall::Kernel,
        Wall::Scatter,
        Wall::Publish,
        Wall::Bookkeeping,
        Wall::Idle,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            Wall::Progress => "progress",
            Wall::Signals => "signals",
            Wall::Pick => "pick",
            Wall::Kernel => "kernel",
            Wall::Scatter => "scatter",
            Wall::Publish => "publish",
            Wall::Bookkeeping => "bookkeeping",
            Wall::Idle => "idle",
        }
    }
}

/// One rank's accumulated wall-clock milliseconds per [`Wall`] bucket. All
/// zero unless the factorization ran with
/// [`crate::SolverOptions::telemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopWall {
    ms: [f64; Wall::ALL.len()],
}

impl LoopWall {
    /// Milliseconds attributed to `bucket`.
    pub fn get(&self, bucket: Wall) -> f64 {
        self.ms[bucket as usize]
    }

    /// Wall time of the whole loop, first poll to past the closing barrier:
    /// the laps partition it, so it is the sum of the buckets.
    pub fn loop_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// The lap timer behind a [`LoopWall`]. Off (the default) it reads no clock
/// and every call is a branch on `None`.
#[derive(Debug, Default)]
pub struct WallClock {
    /// When the previous lap ended.
    last: Option<Instant>,
    acc: LoopWall,
}

impl WallClock {
    /// Start attributing from now.
    pub fn start(&mut self) {
        self.last = Some(Instant::now());
    }

    /// End a lap without attributing it: the caller decides the bucket once
    /// it knows what the interval led to ([`WallClock::add`]).
    #[inline]
    pub fn split(&mut self) -> f64 {
        let Some(last) = &mut self.last else {
            return 0.0;
        };
        let now = Instant::now();
        let ms = (now - *last).as_secs_f64() * 1e3;
        *last = now;
        ms
    }

    /// Attribute `ms` taken by an earlier [`WallClock::split`].
    #[inline]
    pub fn add(&mut self, bucket: Wall, ms: f64) {
        self.acc.ms[bucket as usize] += ms;
    }

    /// Attribute the time since the previous lap to `bucket`.
    #[inline]
    pub fn lap(&mut self, bucket: Wall) {
        if self.last.is_some() {
            let ms = self.split();
            self.add(bucket, ms);
        }
    }

    /// Close the loop: the time since the last lap (the closing barrier) is
    /// idle. Returns the attribution and stops the clock.
    pub fn finish(&mut self) -> LoopWall {
        self.lap(Wall::Idle);
        self.last = None;
        std::mem::take(&mut self.acc)
    }
}
