//! Noisy sensor model: GPS.
//!
//! All noise is drawn from one seeded PRNG per sensor, so runs are
//! reproducible. Noise magnitudes follow typical hobby-grade hardware of
//! the paper's era (few-metre GPS error).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::geo::GeoPoint;
use crate::kinematics::UavState;

/// A GPS fix as published on the `gps/position` variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Measured position.
    pub position: GeoPoint,
    /// Measured ground speed, m/s.
    pub speed_mps: f64,
    /// Measured course over ground, radians.
    pub course_rad: f64,
    /// Number of satellites (drops during simulated outages).
    pub satellites: u8,
}

/// A GPS receiver model with white position noise and optional outages.
#[derive(Debug, Clone)]
pub struct GpsSensor {
    rng: SmallRng,
    /// 1-sigma horizontal error, metres.
    pub sigma_m: f64,
    /// 1-sigma vertical error, metres.
    pub sigma_alt_m: f64,
    outage_until_s: f64,
}

impl GpsSensor {
    /// Creates a receiver with a noise seed.
    pub fn new(seed: u64) -> Self {
        GpsSensor {
            rng: SmallRng::seed_from_u64(seed),
            sigma_m: 2.5,
            sigma_alt_m: 4.0,
            outage_until_s: 0.0,
        }
    }

    /// Simulates an outage (no fixes) until `until_s` of mission time.
    pub fn set_outage_until(&mut self, until_s: f64) {
        self.outage_until_s = until_s;
    }

    /// Samples a fix from the true state at mission time `t_s`; `None`
    /// during an outage.
    pub fn sample(&mut self, truth: &UavState, t_s: f64) -> Option<GpsFix> {
        if t_s < self.outage_until_s {
            return None;
        }
        let gauss = |rng: &mut SmallRng, sigma: f64| {
            // Box-Muller from two uniforms.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen::<f64>();
            sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let east = gauss(&mut self.rng, self.sigma_m);
        let north = gauss(&mut self.rng, self.sigma_m);
        let up = gauss(&mut self.rng, self.sigma_alt_m);
        let pos = truth.position.displaced_m(east, north);
        Some(GpsFix {
            position: pos.at_alt(truth.position.alt + up),
            speed_mps: (truth.speed_mps + gauss(&mut self.rng, 0.2)).max(0.0),
            course_rad: (truth.heading_rad + gauss(&mut self.rng, 0.01))
                .rem_euclid(std::f64::consts::TAU),
            satellites: self.rng.gen_range(7..=12),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> UavState {
        UavState {
            position: GeoPoint::new(41.275, 1.987, 120.0),
            heading_rad: 1.0,
            speed_mps: 20.0,
            climb_mps: 0.0,
        }
    }

    #[test]
    fn gps_noise_is_bounded_and_reproducible() {
        let mut a = GpsSensor::new(7);
        let mut b = GpsSensor::new(7);
        let t = truth();
        for i in 0..100 {
            let fa = a.sample(&t, i as f64).unwrap();
            let fb = b.sample(&t, i as f64).unwrap();
            assert_eq!(fa, fb, "same seed, same fixes");
            let err = t.position.distance_m(&fa.position);
            assert!(err < 20.0, "5-sigma bound: {err}");
        }
    }

    #[test]
    fn gps_outage_suppresses_fixes() {
        let mut g = GpsSensor::new(1);
        g.set_outage_until(10.0);
        assert!(g.sample(&truth(), 5.0).is_none());
        assert!(g.sample(&truth(), 10.0).is_some());
    }
}
