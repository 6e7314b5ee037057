//! The ground control station service.

use std::sync::Arc;

use parking_lot::Mutex;

use marea_core::{
    EventPort, EventQos, Micros, Service, ServiceContext, ServiceDescriptor, VarPort, VarQos,
};
use marea_presentation::{Name, Value};

use crate::names::{self, Detection, McStatus, Position};

/// Display one position line out of every `DECIMATE` fixes (20 Hz
/// telemetry would scroll a real console unreadably).
const DECIMATE: u64 = 20;

/// The operator's console feed: a shareable, append-only line buffer.
pub type Display = Arc<Mutex<Vec<String>>>;

/// Subscribes to the mission's variables and events and renders them as
/// terminal lines.
///
/// > *"In this simple use case, the ground station basically shows the
/// > subscribed variables and events in a terminal."* — paper §5
#[derive(Debug)]
pub struct GroundStationService {
    display: Display,
    positions_seen: u64,
    position: VarPort<Position>,
    mc_status: VarPort<McStatus>,
    photo_request: EventPort<u32>,
    photo_taken: EventPort<u32>,
    mission_complete: EventPort<()>,
    target_alert: EventPort<Detection>,
    fix_lost: EventPort<()>,
}

impl GroundStationService {
    /// Creates a ground station writing into `display`.
    pub fn new(display: Display) -> Self {
        GroundStationService {
            display,
            positions_seen: 0,
            position: names::position_port(),
            mc_status: names::mc_status_port(),
            photo_request: names::photo_request_port(),
            photo_taken: names::photo_taken_port(),
            mission_complete: names::mission_complete_port(),
            target_alert: names::target_alert_port(),
            fix_lost: names::fix_lost_port(),
        }
    }

    /// A restart factory over the same display log: a chaos `Restart`
    /// resumes the terminal feed where the operator left off.
    pub fn factory(display: Display) -> impl Fn() -> Box<dyn Service> + Send {
        move || Box::new(GroundStationService::new(display.clone())) as Box<dyn Service>
    }

    fn show(&self, now: Micros, line: impl AsRef<str>) {
        self.display.lock().push(format!(
            "[{:>10.3}s] {}",
            now.as_micros() as f64 / 1e6,
            line.as_ref()
        ));
    }
}

impl Service for GroundStationService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("ground-station")
            .subscribe_to_var(&self.position, VarQos::default())
            .subscribe_to_var(&self.mc_status, VarQos::default().with_initial())
            .subscribe_to_event(&self.photo_request, EventQos::default())
            .subscribe_to_event(&self.photo_taken, EventQos::default())
            .subscribe_to_event(&self.mission_complete, EventQos::default())
            .subscribe_to_event(&self.target_alert, EventQos::default())
            .subscribe_to_event(&self.fix_lost, EventQos::default())
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        self.show(ctx.now(), "ground station online");
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        if self.position.matches(name) {
            self.positions_seen += 1;
            if self.positions_seen.is_multiple_of(DECIMATE) {
                if let Ok(Position { lat, lon, alt, heading, speed }) = self.position.decode(value)
                {
                    self.show(
                        ctx.now(),
                        format!(
                            "pos {lat:.5},{lon:.5} alt {alt:.0}m hdg {:.0}° spd {speed:.1}m/s",
                            heading.to_degrees()
                        ),
                    );
                }
            }
        } else if self.mc_status.matches(name) {
            match self.mc_status.decode(value) {
                Ok(s) => self.show(
                    ctx.now(),
                    format!(
                        "mission status: waypoint {} photos {} complete {}",
                        s.next_waypoint, s.photos, s.complete
                    ),
                ),
                Err(e) => self.show(ctx.now(), format!("undecodable mission status: {e}")),
            }
        }
    }

    fn on_variable_timeout(&mut self, ctx: &mut ServiceContext<'_>, name: &Name) {
        self.show(ctx.now(), format!("WARNING: variable `{name}` stopped arriving"));
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        _stamp: Micros,
    ) {
        let line = if self.photo_request.matches(name) {
            format!("photo requested at waypoint {}", self.photo_request.decode(value).unwrap_or(0))
        } else if self.photo_taken.matches(name) {
            format!("photo {} taken", self.photo_taken.decode(value).unwrap_or(0))
        } else if self.mission_complete.matches(name) {
            "MISSION COMPLETE".to_owned()
        } else if self.target_alert.matches(name) {
            match self.target_alert.decode(value) {
                Ok(Detection { revision, count }) => {
                    format!("TARGET ALERT: {count} target(s) in photo {revision}")
                }
                Err(_) => "TARGET ALERT".to_owned(),
            }
        } else if self.fix_lost.matches(name) {
            "WARNING: gps fix lost".to_owned()
        } else {
            format!("event `{name}`")
        };
        self.show(ctx.now(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_subscribes_to_the_mission_feed() {
        let d = GroundStationService::new(Display::default()).descriptor();
        assert_eq!(d.var_subscriptions().len(), 2);
        assert_eq!(d.event_subscriptions().len(), 5);
        assert!(d.provides().is_empty(), "pure consumer");
    }
}
