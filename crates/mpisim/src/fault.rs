//! Deterministic fault injection for the simulated SPMD machine.
//!
//! A [`FaultPlan`] is a seeded, declarative description of everything
//! that will go wrong in a run: which ranks die at which epoch, and with
//! what probability individual messages are dropped or delayed in
//! transit. Determinism is the whole point — the same plan produces the
//! same faults on every run, at every driver rank count, so recovery
//! behaviour is testable bit-for-bit (DESIGN.md §12).
//!
//! Responsibilities are split between the layers:
//!
//! * `mpisim` (this module + [`crate::Comm`]) owns *message-level*
//!   faults: per-send drop and delay decisions drawn from a per-rank
//!   deterministic RNG, retransmitted or slept through inside the
//!   send and receive paths.
//! * `dlb-core`'s epoch driver owns *rank-level* faults: a scheduled
//!   failure is consumed at the epoch boundary and turned into a forced
//!   repartition onto the surviving parts. The plan is shared by every
//!   rank, so "detecting" a failure needs no extra collectives — it is
//!   the limit case of a perfect failure detector whose verdicts are
//!   consistent across the world.

use std::time::Duration;

use crate::spec;

/// Default length of one injected in-transit delay.
const DEFAULT_DELAY: Duration = Duration::from_micros(500);

/// One scheduled rank failure: logical `rank` dies at the boundary of
/// `epoch` (1-based, matching the simulation driver's epoch numbering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankFailure {
    /// The logical rank (= part id in the execution model) that dies.
    pub rank: usize,
    /// The 1-based epoch at whose boundary the failure is observed.
    pub epoch: usize,
}

/// A seeded, declarative fault schedule for one run.
///
/// Build one programmatically with the builder methods or parse the CLI
/// spec grammar with [`FaultPlan::parse`]:
///
/// ```text
/// SEED:directive(,directive)*
///   rank<R>@<E>   rank R fails at epoch E        e.g. rank1@2
///   drop<P>       drop each message w.p. P       e.g. drop0.01
///   delay<P>      delay each message w.p. P      e.g. delay0.05
/// ```
///
/// ```
/// use dlb_mpisim::FaultPlan;
/// let plan = FaultPlan::parse("42:rank1@2,drop0.01").unwrap();
/// assert_eq!(plan.seed(), 42);
/// assert_eq!(plan.ranks_failing_at(2), vec![1]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    failures: Vec<RankFailure>,
    drop_prob: f64,
    delay_prob: f64,
    delay: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            failures: Vec::new(),
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: DEFAULT_DELAY,
        }
    }

    /// Schedules logical `rank` to fail at the boundary of `epoch`
    /// (1-based).
    pub fn fail_rank(mut self, rank: usize, epoch: usize) -> Self {
        assert!(epoch >= 1, "epochs are 1-based");
        self.failures.push(RankFailure { rank, epoch });
        self
    }

    /// Parses the `SEED:spec` grammar (see the type docs). Returns a
    /// human-readable error for malformed specs.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, directives) = spec::split_seed_spec(s, "fault", "42:rank1@2")?;
        let mut plan = FaultPlan::new(seed);
        for directive in directives {
            if let Some(rest) = directive.strip_prefix("rank") {
                let (rank, epoch) = spec::parse_rank_at_epoch(directive, rest)?;
                plan.failures.push(RankFailure { rank, epoch });
            } else if let Some(p_str) = directive.strip_prefix("drop") {
                plan.drop_prob = spec::parse_prob(directive, p_str)?;
            } else if let Some(p_str) = directive.strip_prefix("delay") {
                plan.delay_prob = spec::parse_prob(directive, p_str)?;
            } else {
                return Err(spec::unknown_directive(
                    directive,
                    "rank<R>@<E>, drop<P> or delay<P>",
                ));
            }
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All scheduled rank failures, in insertion order.
    pub fn failures(&self) -> &[RankFailure] {
        &self.failures
    }

    /// Ranks scheduled to fail at the boundary of `epoch`, sorted and
    /// deduplicated.
    pub fn ranks_failing_at(&self, epoch: usize) -> Vec<usize> {
        let mut ranks: Vec<usize> = self
            .failures
            .iter()
            .filter(|f| f.epoch == epoch)
            .map(|f| f.rank)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The per-rank mutable fault state installed on a world's [`crate::Comm`].
    pub fn state_for(&self, rank: usize) -> FaultState {
        FaultState {
            // splitmix64 decorrelates nearby (seed, rank) pairs; also
            // guards against the forbidden all-zero xorshift state.
            state: splitmix64(self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1))),
            drop_prob: self.drop_prob,
            delay_prob: self.delay_prob,
            delay: self.delay,
        }
    }
}

/// Per-rank message-fault state: a deterministic RNG stream plus the
/// plan's probabilities. Lives on the [`crate::Comm`] of each rank in a
/// fault-injected world; decisions depend only on (seed, rank, draw
/// index), never on wall-clock time or scheduling.
#[derive(Clone, Debug)]
pub struct FaultState {
    state: u64,
    drop_prob: f64,
    delay_prob: f64,
    delay: Duration,
}

impl FaultState {
    fn next_f64(&mut self) -> f64 {
        // xorshift64*; uniform in [0, 1) from the top 53 bits.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Decides whether the next send attempt is dropped. Draws from the
    /// RNG only when the plan has a nonzero drop probability, so an
    /// empty plan consumes no randomness.
    pub fn should_drop(&mut self) -> bool {
        self.drop_prob > 0.0 && self.next_f64() < self.drop_prob
    }

    /// Decides whether the next send is delayed in transit.
    pub fn should_delay(&mut self) -> bool {
        self.delay_prob > 0.0 && self.next_f64() < self.delay_prob
    }

    /// Length of one injected delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse("42:rank1@2,rank3@2,drop0.01,delay0.5").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.ranks_failing_at(2), vec![1, 3]);
        assert_eq!(plan.ranks_failing_at(1), Vec::<usize>::new());
        assert_eq!((plan.drop_prob, plan.delay_prob), (0.01, 0.5));
    }

    #[test]
    fn parse_empty_spec_is_no_faults() {
        let plan = FaultPlan::parse("7:").unwrap();
        assert_eq!(plan.seed(), 7);
        assert!(plan.failures().is_empty());
        assert_eq!((plan.drop_prob, plan.delay_prob), (0.0, 0.0));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nocolon",
            "x:rank1@2",
            "1:rank@2",
            "1:rank1@zero",
            "1:rank1@0",
            "1:drop1.5",
            "1:delay-0.1",
            "1:explode",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn ranks_failing_at_dedups_and_sorts() {
        let plan = FaultPlan::new(1).fail_rank(3, 5).fail_rank(1, 5).fail_rank(3, 5);
        assert_eq!(plan.ranks_failing_at(5), vec![1, 3]);
    }

    #[test]
    fn fault_state_is_deterministic_per_rank() {
        let plan = FaultPlan::parse("99:drop0.5").unwrap();
        let draws = |rank: usize| {
            let mut s = plan.state_for(rank);
            (0..64).map(|_| s.should_drop()).collect::<Vec<_>>()
        };
        assert_eq!(draws(0), draws(0));
        assert_eq!(draws(3), draws(3));
        assert_ne!(draws(0), draws(1), "ranks draw independent streams");
    }

    #[test]
    fn zero_probability_never_fires_or_draws() {
        let mut s = FaultPlan::new(5).state_for(0);
        for _ in 0..100 {
            assert!(!s.should_drop());
            assert!(!s.should_delay());
        }
    }

    #[test]
    fn probabilities_are_roughly_respected() {
        let mut s = FaultPlan::parse("11:drop0.25").unwrap().state_for(2);
        let hits = (0..10_000).filter(|_| s.should_drop()).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }
}
