//! Deterministic message-fault injection for the simulated SPMD machine.
//!
//! A [`FaultPlan`] is a seeded, declarative description of what goes
//! wrong on the wire: with what probability individual messages are
//! dropped or delayed in transit. Determinism is the whole point — the
//! same plan produces the same faults on every run, at every world size,
//! so the retransmit and backoff paths are testable bit-for-bit
//! (DESIGN.md §12). Each send draws its drop and delay decisions from a
//! per-rank deterministic RNG ([`FaultState`]), and [`crate::Comm`]
//! retransmits or sleeps through them inside the send and receive paths.
//!
//! The plan says nothing about which ranks exist: a rank that fails is a
//! change of the rank set, which `dlb-core` schedules in its world plan
//! (`fail<R>@<E>`) next to planned joins and leaves.

use std::time::Duration;

use crate::spec;

/// Default length of one injected in-transit delay.
const DEFAULT_DELAY: Duration = Duration::from_micros(500);

/// A seeded, declarative message-fault schedule for one run.
///
/// Parse one from the CLI spec grammar with [`FaultPlan::parse`]:
///
/// ```text
/// SEED:directive(,directive)*
///   drop<P>       drop each message w.p. P       e.g. drop0.01
///   delay<P>      delay each message w.p. P      e.g. delay0.05
/// ```
///
/// ```
/// use dlb_mpisim::FaultPlan;
/// let plan = FaultPlan::parse("42:drop0.01,delay0.05").unwrap();
/// assert_eq!(plan.seed(), 42);
/// // A rank failure changes the rank set: it belongs to the world plan.
/// assert!(FaultPlan::parse("42:rank1@2").unwrap_err().contains("fail<R>@<E>"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    delay_prob: f64,
    delay: Duration,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub(crate) fn new(seed: u64) -> Self {
        FaultPlan { seed, drop_prob: 0.0, delay_prob: 0.0, delay: DEFAULT_DELAY }
    }

    /// Parses the `SEED:spec` grammar (see the type docs). Returns a
    /// human-readable error for malformed specs.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, directives) = spec::split_seed_spec(s, "fault", "42:drop0.01")?;
        let mut plan = FaultPlan::new(seed);
        for directive in directives {
            if let Some(p_str) = directive.strip_prefix("drop") {
                plan.drop_prob = parse_prob(directive, p_str)?;
            } else if let Some(p_str) = directive.strip_prefix("delay") {
                plan.delay_prob = parse_prob(directive, p_str)?;
            } else {
                return Err(spec::unknown_directive(
                    directive,
                    "drop<P> or delay<P>; rank failures are the world plan's fail<R>@<E>",
                ));
            }
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-rank mutable fault state installed on a world's [`crate::Comm`].
    pub(crate) fn state_for(&self, rank: usize) -> FaultState {
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
pub(crate) struct FaultState {
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
    pub(crate) fn should_drop(&mut self) -> bool {
        self.drop_prob > 0.0 && self.next_f64() < self.drop_prob
    }

    /// Decides whether the next send is delayed in transit.
    pub(crate) fn should_delay(&mut self) -> bool {
        self.delay_prob > 0.0 && self.next_f64() < self.delay_prob
    }

    /// Length of one injected delay.
    pub(crate) fn delay(&self) -> Duration {
        self.delay
    }
}

/// Parses a probability operand in `[0, 1]` (`drop0.01`, `delay0.5`).
fn parse_prob(directive: &str, p_str: &str) -> Result<f64, String> {
    let p: f64 = p_str
        .parse()
        .map_err(|_| format!("'{directive}': '{p_str}' is not a probability"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("'{directive}': probability {p} outside [0, 1]"));
    }
    Ok(p)
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
        let plan = FaultPlan::parse("42:drop0.01,delay0.5").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!((plan.drop_prob, plan.delay_prob), (0.01, 0.5));
    }

    #[test]
    fn parse_empty_spec_is_no_faults() {
        let plan = FaultPlan::parse("7:").unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan, FaultPlan::new(7));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nocolon",
            "x:drop0.1",
            "1:rank@2",
            "1:rank1@zero",
            "1:rank1@0",
            "1:drop1.5",
            "1:delay-0.1",
            "1:explode",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
        // A rank failure is a world-plan event; the error says so.
        let err = FaultPlan::parse("1:rank1@2").unwrap_err();
        assert_eq!(
            err,
            "unknown directive 'rank1@2' (expected drop<P> or delay<P>; \
             rank failures are the world plan's fail<R>@<E>)"
        );
    }

    #[test]
    fn prob_parses_and_rejects_out_of_range() {
        assert_eq!(parse_prob("drop0.25", "0.25").unwrap(), 0.25);
        assert_eq!(parse_prob("drop1", "1").unwrap(), 1.0);
        for (directive, rest) in [("drop1.5", "1.5"), ("delay-0.1", "-0.1"), ("dropx", "x")] {
            let err = parse_prob(directive, rest).unwrap_err();
            assert!(err.contains(directive), "error must cite '{directive}': {err}");
        }
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
