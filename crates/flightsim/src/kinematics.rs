//! The aircraft motion model.

use crate::geo::GeoPoint;

/// Instantaneous aircraft state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UavState {
    /// Position.
    pub position: GeoPoint,
    /// Heading, radians, 0 = north, clockwise.
    pub heading_rad: f64,
    /// True airspeed, m/s.
    pub speed_mps: f64,
    /// Vertical speed, m/s (positive climb).
    pub climb_mps: f64,
}

/// A fixed-wing-like kinematic model: constant commanded speed, bounded
/// turn rate, bounded climb rate. Good enough to exercise every middleware
/// path with realistic timing; not an aerodynamics simulation.
#[derive(Debug, Clone)]
pub struct Kinematics {
    state: UavState,
    /// Commanded heading, radians.
    target_heading_rad: f64,
    /// Commanded altitude, metres.
    target_alt_m: f64,
    /// Maximum turn rate, rad/s.
    pub max_turn_rate: f64,
    /// Maximum climb/descent rate, m/s.
    pub max_climb_mps: f64,
}

impl Kinematics {
    /// Creates a model at `start`, heading north at `speed_mps`.
    pub fn new(start: GeoPoint, speed_mps: f64) -> Self {
        Kinematics {
            state: UavState { position: start, heading_rad: 0.0, speed_mps, climb_mps: 0.0 },
            target_heading_rad: 0.0,
            target_alt_m: start.alt,
            max_turn_rate: 0.5, // ~29°/s, typical for a mini UAV
            max_climb_mps: 3.0,
        }
    }

    /// Current state.
    pub fn state(&self) -> UavState {
        self.state
    }

    /// Commands a new heading.
    pub fn set_target_heading(&mut self, heading_rad: f64) {
        self.target_heading_rad = heading_rad.rem_euclid(std::f64::consts::TAU);
    }

    /// Commands a new altitude.
    pub fn set_target_alt(&mut self, alt_m: f64) {
        self.target_alt_m = alt_m;
    }

    /// Advances the model by `dt_s` seconds.
    pub fn step(&mut self, dt_s: f64) {
        // Turn towards the commanded heading along the short way.
        let mut err = self.target_heading_rad - self.state.heading_rad;
        while err > std::f64::consts::PI {
            err -= std::f64::consts::TAU;
        }
        while err < -std::f64::consts::PI {
            err += std::f64::consts::TAU;
        }
        let max_delta = self.max_turn_rate * dt_s;
        let delta = err.clamp(-max_delta, max_delta);
        self.state.heading_rad = (self.state.heading_rad + delta).rem_euclid(std::f64::consts::TAU);

        // Climb towards the commanded altitude.
        let alt_err = self.target_alt_m - self.state.position.alt;
        self.state.climb_mps =
            alt_err.clamp(-self.max_climb_mps * dt_s, self.max_climb_mps * dt_s) / dt_s.max(1e-9);
        let climb = self.state.climb_mps * dt_s;

        // Advance.
        let dist = self.state.speed_mps * dt_s;
        let east = dist * self.state.heading_rad.sin();
        let north = dist * self.state.heading_rad.cos();
        let new_alt = self.state.position.alt + climb;
        self.state.position = self.state.position.displaced_m(east, north).at_alt(new_alt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> GeoPoint {
        GeoPoint::new(41.275, 1.987, 100.0)
    }

    #[test]
    fn straight_flight_covers_expected_distance() {
        let mut k = Kinematics::new(start(), 20.0);
        for _ in 0..100 {
            k.step(0.1); // 10 s total
        }
        let d = start().distance_m(&k.state().position);
        assert!((d - 200.0).abs() < 1.0, "{d}");
    }

    #[test]
    fn turn_rate_is_bounded() {
        let mut k = Kinematics::new(start(), 20.0);
        k.set_target_heading(std::f64::consts::PI); // 180° turn
        k.step(1.0);
        assert!((k.state().heading_rad - 0.5).abs() < 1e-9, "one second at 0.5 rad/s");
        // Eventually reaches the target.
        for _ in 0..100 {
            k.step(0.1);
        }
        assert!((k.state().heading_rad - std::f64::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn turns_take_the_short_way() {
        let mut k = Kinematics::new(start(), 0.0);
        k.set_target_heading(-0.2_f64.rem_euclid(std::f64::consts::TAU)); // ≈ 6.08 rad
        k.set_target_heading(6.08);
        k.step(0.1);
        // Heading should decrease through 0/2π, not sweep all the way up.
        assert!(k.state().heading_rad > 6.0, "{}", k.state().heading_rad);
    }

    #[test]
    fn climb_is_bounded_and_converges() {
        let mut k = Kinematics::new(start(), 20.0);
        k.set_target_alt(130.0);
        k.step(1.0);
        assert!((k.state().position.alt - 103.0).abs() < 1e-6, "3 m/s max climb");
        for _ in 0..200 {
            k.step(0.1);
        }
        assert!((k.state().position.alt - 130.0).abs() < 0.01);
        assert!(k.state().climb_mps.abs() < 0.1);
    }
}
