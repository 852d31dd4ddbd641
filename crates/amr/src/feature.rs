//! Moving Gaussian features: the "physics" driving refinement.
//!
//! Each feature is a Gaussian bump of unit amplitude that translates
//! across the unit square at constant speed, reflecting off the walls.
//! The error indicator at a point is the sum of the feature Gaussians;
//! cells near a feature refine, cells left behind coarsen — producing a
//! refinement front that tracks the features like an AMR shock tracker.
//!
//! Feature initial positions and headings come from one seeded RNG draw
//! at construction; motion afterwards is closed-form, so the entire
//! trajectory is a deterministic function of the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Features bounce inside `[MARGIN, 1 - MARGIN]²` so their support never
/// fully leaves the domain.
const MARGIN: f64 = 0.08;

/// One moving Gaussian feature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Feature {
    /// Current center.
    pub x: f64,
    /// Current center.
    pub y: f64,
    /// Velocity per epoch.
    pub vx: f64,
    /// Velocity per epoch.
    pub vy: f64,
}

impl Feature {
    /// Advances one epoch, reflecting off the walls of the bounce box.
    pub fn advance(&mut self) {
        self.x += self.vx;
        self.y += self.vy;
        let lo = MARGIN;
        let hi = 1.0 - MARGIN;
        if self.x < lo {
            self.x = 2.0 * lo - self.x;
            self.vx = -self.vx;
        } else if self.x > hi {
            self.x = 2.0 * hi - self.x;
            self.vx = -self.vx;
        }
        if self.y < lo {
            self.y = 2.0 * lo - self.y;
            self.vy = -self.vy;
        } else if self.y > hi {
            self.y = 2.0 * hi - self.y;
            self.vy = -self.vy;
        }
    }
}

/// Draws `count` features with random positions and headings (speed
/// fixed) from a seeded RNG.
pub fn seeded_features(count: usize, speed: f64, seed: u64) -> Vec<Feature> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x = rng.gen_range(0.2f64..0.8);
            let y = rng.gen_range(0.2f64..0.8);
            let theta = rng.gen_range(0.0f64..std::f64::consts::TAU);
            Feature {
                x,
                y,
                vx: theta.cos() * speed,
                vy: theta.sin() * speed,
            }
        })
        .collect()
}

/// The error indicator at `(x, y)`: the sum of unit-amplitude Gaussians
/// of width `sigma` centered on the features.
pub fn indicator(features: &[Feature], sigma: f64, x: f64, y: f64) -> f64 {
    let inv = 1.0 / (2.0 * sigma * sigma);
    features
        .iter()
        .map(|f| {
            let d2 = (x - f.x).powi(2) + (y - f.y).powi(2);
            (-d2 * inv).exp()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_stay_in_the_box_forever() {
        let mut fs = seeded_features(3, 0.11, 7);
        for _ in 0..500 {
            for f in &mut fs {
                f.advance();
                assert!((MARGIN..=1.0 - MARGIN).contains(&f.x), "x escaped: {}", f.x);
                assert!((MARGIN..=1.0 - MARGIN).contains(&f.y), "y escaped: {}", f.y);
                let speed = (f.vx * f.vx + f.vy * f.vy).sqrt();
                assert!((speed - 0.11).abs() < 1e-12, "speed drifted: {speed}");
            }
        }
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        assert_eq!(seeded_features(2, 0.05, 1), seeded_features(2, 0.05, 1));
        assert_ne!(seeded_features(2, 0.05, 1), seeded_features(2, 0.05, 2));
    }

    #[test]
    fn indicator_peaks_at_the_feature() {
        let fs = vec![Feature {
            x: 0.5,
            y: 0.5,
            vx: 0.0,
            vy: 0.0,
        }];
        let at = |x, y| indicator(&fs, 0.1, x, y);
        assert!((at(0.5, 0.5) - 1.0).abs() < 1e-12);
        assert!(at(0.5, 0.5) > at(0.6, 0.5));
        assert!(at(0.9, 0.9) < 0.01);
    }
}
