//! Graph-partitioner configuration.

/// Configuration for the ParMETIS-like graph partitioner.
///
/// Coarsening limits, the FM pass cap and the coarse partitioner's
/// attempt count are fixed (`coarsen_graph`'s constants,
/// `refine::MAX_REFINE_PASSES` and `kway::INITIAL_ATTEMPTS`), at the
/// values the hypergraph partitioner defaults to, so the two
/// partitioners the experiments compare run the same multilevel
/// schedule.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Allowed imbalance ε: every part must satisfy `W_p ≤ (1+ε) W_avg`.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            epsilon: 0.05,
            seed: 0,
        }
    }
}

impl GraphConfig {
    /// Default configuration with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        GraphConfig {
            seed,
            ..GraphConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GraphConfig::default();
        assert!(c.epsilon > 0.0 && c.epsilon < 1.0);
    }
}
