//! Seeded, deterministic network fault injection.
//!
//! A [`FaultPlan`] derives every fault decision from a single `u64` seed via
//! a stateless hash of `(seed, rank, op-counter, salt)`, so a run is exactly
//! reproducible from its seed: the same plan, matrix and rank count replay
//! the same drops, duplicates and delay spikes. Faults apply to the paper's
//! asynchronous protocol paths — `signal` RPCs (drop/duplicate/delay) and
//! one-sided `rget`s (transient timeout, delay) — which is precisely where a
//! message-driven solver must tolerate adversarial interleavings.

/// Salt values separating the decision streams drawn from one counter.
const SALT_DROP: u64 = 0x01;
const SALT_DUP: u64 = 0x02;
const SALT_DELAY: u64 = 0x03;
const SALT_DELAY_MAG: u64 = 0x04;
const SALT_RGET: u64 = 0x05;
const SALT_FRAME_DROP: u64 = 0x06;
const SALT_FRAME_DUP: u64 = 0x07;

/// SplitMix64 finalizer: a well-mixed 64-bit hash of the input.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic fault-injection plan, derived entirely from `seed`.
///
/// Probabilities are per-operation; an operation is one signal send or one
/// rget attempt. All decisions are pure functions of
/// `(seed, rank, counter, salt)` where `counter` is the issuing rank's
/// monotone fault-op counter, so replays are bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; two plans with different seeds fault different ops.
    pub seed: u64,
    /// Probability a signal RPC is silently dropped.
    pub drop_prob: f64,
    /// Probability a signal RPC is delivered twice.
    pub dup_prob: f64,
    /// Probability any message suffers an injected delay spike.
    pub delay_prob: f64,
    /// Base magnitude of a delay spike in virtual seconds (actual spikes
    /// are 1–2× this, hash-scaled, to force reordering).
    pub delay_secs: f64,
    /// Probability an rget attempt times out transiently (the caller is
    /// expected to retry with backoff).
    pub rget_fail_prob: f64,
}

impl FaultPlan {
    /// Delay spikes only: messages arrive late and reordered, never lost.
    pub fn delays_only(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.25,
            delay_secs: 50.0e-6,
            rget_fail_prob: 0.0,
        }
    }

    /// Signal duplication plus mild delays: exercises inbox idempotency.
    pub fn duplication(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.2,
            delay_prob: 0.1,
            delay_secs: 20.0e-6,
            rget_fail_prob: 0.0,
        }
    }

    /// Signal drops plus transient rget failures: exercises the stall
    /// detector and the rget retry path.
    pub fn drops(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.05,
            dup_prob: 0.0,
            delay_prob: 0.1,
            delay_secs: 20.0e-6,
            rget_fail_prob: 0.1,
        }
    }

    /// Everything at once.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.03,
            dup_prob: 0.1,
            delay_prob: 0.2,
            delay_secs: 40.0e-6,
            rget_fail_prob: 0.08,
        }
    }

    /// Uniform draw in `[0, 1)` for `(rank, counter, salt)`.
    fn unit(&self, rank: usize, counter: u64, salt: u64) -> f64 {
        let h = splitmix64(
            self.seed
                ^ splitmix64(
                    (rank as u64)
                        .wrapping_mul(0xA24B_AED4_963E_E407)
                        .wrapping_add(salt),
                )
                ^ splitmix64(counter.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        );
        // 53 high bits -> exact double in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn decide(&self, prob: f64, rank: usize, counter: u64, salt: u64) -> bool {
        prob > 0.0 && self.unit(rank, counter, salt) < prob
    }

    /// Should signal-op `counter` issued by `rank` be dropped?
    pub(crate) fn drops_signal(&self, rank: usize, counter: u64) -> bool {
        self.decide(self.drop_prob, rank, counter, SALT_DROP)
    }

    /// Should signal-op `counter` issued by `rank` be duplicated?
    pub(crate) fn duplicates_signal(&self, rank: usize, counter: u64) -> bool {
        self.decide(self.dup_prob, rank, counter, SALT_DUP)
    }

    /// Injected delay (virtual seconds, possibly `0.0`) for message-op
    /// `counter` issued by `rank`.
    pub fn delay(&self, rank: usize, counter: u64) -> f64 {
        if self.decide(self.delay_prob, rank, counter, SALT_DELAY) {
            self.delay_secs * (1.0 + self.unit(rank, counter, SALT_DELAY_MAG))
        } else {
            0.0
        }
    }

    /// Does rget attempt `counter` by `rank` time out transiently?
    pub(crate) fn rget_times_out(&self, rank: usize, counter: u64) -> bool {
        self.decide(self.rget_fail_prob, rank, counter, SALT_RGET)
    }

    /// Should coalesced-frame-op `counter` issued by `rank` be dropped
    /// whole? Frames reuse the signal drop probability but draw from a
    /// distinct salt so the coalesced and flat schedules fault
    /// independently.
    pub(crate) fn drops_frame(&self, rank: usize, counter: u64) -> bool {
        self.decide(self.drop_prob, rank, counter, SALT_FRAME_DROP)
    }

    /// Should coalesced-frame-op `counter` issued by `rank` be delivered
    /// twice? Every sub-frame in the ghost copy replays, so the receiving
    /// inbox must absorb a whole duplicated batch.
    pub(crate) fn duplicates_frame(&self, rank: usize, counter: u64) -> bool {
        self.decide(self.dup_prob, rank, counter, SALT_FRAME_DUP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::chaos(7);
        let b = FaultPlan::chaos(7);
        let c = FaultPlan::chaos(8);
        let mut diverged = false;
        for ctr in 0..512u64 {
            for rank in 0..4 {
                assert_eq!(a.drops_signal(rank, ctr), b.drops_signal(rank, ctr));
                assert_eq!(a.delay(rank, ctr), b.delay(rank, ctr));
                assert_eq!(a.rget_times_out(rank, ctr), b.rget_times_out(rank, ctr));
                if a.drops_signal(rank, ctr) != c.drops_signal(rank, ctr) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds must fault different ops");
    }

    #[test]
    fn empirical_rates_track_probabilities() {
        let p = FaultPlan::chaos(42);
        let n = 20_000u64;
        let drops = (0..n).filter(|&c| p.drops_signal(0, c)).count() as f64 / n as f64;
        let dups = (0..n).filter(|&c| p.duplicates_signal(0, c)).count() as f64 / n as f64;
        let rgets = (0..n).filter(|&c| p.rget_times_out(0, c)).count() as f64 / n as f64;
        assert!((drops - p.drop_prob).abs() < 0.01, "drop rate {drops}");
        assert!((dups - p.dup_prob).abs() < 0.01, "dup rate {dups}");
        assert!((rgets - p.rget_fail_prob).abs() < 0.01, "rget rate {rgets}");
    }

    #[test]
    fn delays_scale_with_base_magnitude() {
        let p = FaultPlan::delays_only(3);
        let mut spiked = 0;
        for c in 0..1000 {
            let d = p.delay(1, c);
            assert!(d == 0.0 || (d >= p.delay_secs && d <= 2.0 * p.delay_secs));
            if d > 0.0 {
                spiked += 1;
            }
        }
        assert!(spiked > 100, "expected some spikes, got {spiked}");
    }

    #[test]
    fn frame_decisions_use_an_independent_stream() {
        let p = FaultPlan::chaos(11);
        let n = 20_000u64;
        let drops = (0..n).filter(|&c| p.drops_frame(0, c)).count() as f64 / n as f64;
        let dups = (0..n).filter(|&c| p.duplicates_frame(0, c)).count() as f64 / n as f64;
        assert!(
            (drops - p.drop_prob).abs() < 0.01,
            "frame drop rate {drops}"
        );
        assert!((dups - p.dup_prob).abs() < 0.01, "frame dup rate {dups}");
        // Same counter, different salt: the streams must not be aliases.
        let aliased = (0..512).all(|c| p.drops_frame(1, c) == p.drops_signal(1, c));
        assert!(!aliased, "frame drops must not mirror signal drops");
    }

    #[test]
    fn zero_probability_plans_never_fault() {
        let p = FaultPlan {
            seed: 9,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_secs: 1.0,
            rget_fail_prob: 0.0,
        };
        for c in 0..256 {
            assert!(!p.drops_signal(0, c));
            assert!(!p.duplicates_signal(0, c));
            assert_eq!(p.delay(0, c), 0.0);
            assert!(!p.rget_times_out(0, c));
        }
    }
}
