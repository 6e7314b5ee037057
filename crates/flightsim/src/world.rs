//! The simulation facade services drive from container timers.

use crate::autopilot::{Autopilot, AutopilotStatus};
use crate::geo::GeoPoint;
use crate::kinematics::{Kinematics, UavState};
use crate::plan::{FlightPlan, WaypointAction};
use crate::terrain::{Frame, Terrain};

/// Something that happened while advancing the world.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldEvent {
    /// A waypoint was reached; carries its index and action.
    WaypointReached {
        /// Index in the flight plan.
        index: usize,
        /// The action attached to the waypoint.
        action: WaypointAction,
    },
    /// The flight plan is complete.
    PlanComplete,
}

/// The whole simulated outside world: airframe + autopilot + landscape.
///
/// Time is pushed in from outside (`advance_to` with mission seconds), so
/// the world follows the container's clock — virtual under the simulation
/// harness, wall-clock under the real-time driver.
#[derive(Debug, Clone)]
pub struct World {
    kinematics: Kinematics,
    autopilot: Autopilot,
    terrain: Terrain,
    t_s: f64,
    step_s: f64,
    plan_done_reported: bool,
}

impl World {
    /// Creates a world: aircraft at `start`, flying `plan` over `terrain`.
    pub fn new(start: GeoPoint, speed_mps: f64, plan: FlightPlan, terrain: Terrain) -> Self {
        World {
            kinematics: Kinematics::new(start, speed_mps),
            autopilot: Autopilot::new(plan),
            terrain,
            t_s: 0.0,
            step_s: 0.05,
            plan_done_reported: false,
        }
    }

    /// Mission time in seconds.
    pub fn time_s(&self) -> f64 {
        self.t_s
    }

    /// True aircraft state.
    pub fn state(&self) -> UavState {
        self.kinematics.state()
    }

    /// The landscape.
    pub fn terrain(&self) -> &Terrain {
        &self.terrain
    }

    /// The autopilot (for progress inspection).
    pub fn autopilot(&self) -> &Autopilot {
        &self.autopilot
    }

    /// Advances the world to mission time `t_s`, integrating in fixed
    /// sub-steps for numerical stability. Returns mission events in order.
    pub fn advance_to(&mut self, t_s: f64) -> Vec<WorldEvent> {
        let mut events = Vec::new();
        while self.t_s + self.step_s <= t_s {
            self.t_s += self.step_s;
            self.kinematics.step(self.step_s);
            for index in self.autopilot.update(&mut self.kinematics) {
                let action = self
                    .autopilot
                    .plan()
                    .get(index)
                    .map(|w| w.action.clone())
                    .unwrap_or(WaypointAction::None);
                events.push(WorldEvent::WaypointReached { index, action });
            }
            if self.autopilot.status() == AutopilotStatus::Done && !self.plan_done_reported {
                self.plan_done_reported = true;
                events.push(WorldEvent::PlanComplete);
            }
        }
        events
    }

    /// Renders the camera view straight down from the current position.
    pub fn capture_frame(&self, width: u32, height: u32) -> Frame {
        // Ground footprint scales with altitude: a simple pinhole model
        // with a 60° field of view.
        let alt = self.state().position.alt.max(10.0);
        let footprint_m = 2.0 * alt * (30f64.to_radians()).tan() * 2.0;
        let m_per_px = footprint_m / f64::from(width);
        self.terrain.render(self.state().position, width, height, m_per_px)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Waypoint;

    fn origin() -> GeoPoint {
        GeoPoint::new(41.275, 1.987, 120.0)
    }

    #[test]
    fn world_flies_plan_and_reports_events() {
        let plan = FlightPlan::new(vec![
            Waypoint::photo(origin().displaced_m(0.0, 400.0)),
            Waypoint::nav(origin().displaced_m(400.0, 400.0)),
        ]);
        let terrain = Terrain::new(1, origin(), 1000.0, 5);
        let mut w = World::new(origin(), 25.0, plan, terrain);
        let mut events = Vec::new();
        for t in 1..120 {
            events.extend(w.advance_to(t as f64));
        }
        assert_eq!(
            events,
            vec![
                WorldEvent::WaypointReached { index: 0, action: WaypointAction::TakePhoto },
                WorldEvent::WaypointReached { index: 1, action: WaypointAction::None },
                WorldEvent::PlanComplete,
            ]
        );
        assert!(w.time_s() >= 118.9, "fixed-step integration reaches the target time");
    }

    #[test]
    fn advance_is_idempotent_for_past_times() {
        let terrain = Terrain::new(2, origin(), 500.0, 1);
        let mut w = World::new(origin(), 20.0, FlightPlan::default(), terrain);
        w.advance_to(5.0);
        let t = w.time_s();
        let events = w.advance_to(3.0);
        assert!(events.is_empty(), "no events from a past target time");
        assert_eq!(w.time_s(), t, "time never goes backwards");
    }

    #[test]
    fn camera_footprint_scales_with_altitude() {
        let terrain = Terrain::new(3, origin(), 500.0, 0);
        let low = World::new(origin().at_alt(50.0), 20.0, FlightPlan::default(), terrain.clone());
        let high = World::new(origin().at_alt(200.0), 20.0, FlightPlan::default(), terrain);
        let f_low = low.capture_frame(64, 64);
        let f_high = high.capture_frame(64, 64);
        assert!(f_high.m_per_px > f_low.m_per_px * 3.0);
    }
}
