//! Mission control: the orchestrator of the Fig. 3 scenario.

use marea_core::{
    CallError, CallHandle, EventQos, Micros, ProtoDuration, Service, ServiceContext,
    ServiceDescriptor, TypedCallHandle, VarQos,
};
use marea_flightsim::{FlightPlan, GeoPoint, WaypointAction};
use marea_presentation::{Name, Value};

use crate::names::{self, McStatus, Position};

/// Follows the flight plan and orchestrates the payload services.
///
/// > *"The Mission Control is a service that monitors the status of the
/// > mission and following a provided flight plan orchestrates the rest of
/// > services to autonomously accomplish the mission."* — paper §5
///
/// Interactions, one per primitive (the paper's point):
/// * consumes the `gps/position` **variable**;
/// * initializes the camera through a **remote invocation**
///   (`camera/prepare`);
/// * commands photos with the `mc/photo-request` **event**;
/// * the photos themselves travel as **file transfers** (camera → storage
///   / video), which mission control only observes through events.
///
/// Every interaction goes through a typed port from [`names`], so a
/// payload that disagrees with the mission vocabulary does not compile.
#[derive(Debug)]
pub struct MissionControlService {
    plan: FlightPlan,
    next_wp: usize,
    photos_requested: u32,
    complete_reported: bool,
    prepare_handle: Option<TypedCallHandle<bool>>,
    camera_ready: bool,
}

impl MissionControlService {
    /// Creates mission control for `plan`.
    pub fn new(plan: FlightPlan) -> Self {
        MissionControlService {
            plan,
            next_wp: 0,
            photos_requested: 0,
            complete_reported: false,
            prepare_handle: None,
            camera_ready: false,
        }
    }

    fn publish_status(&self, ctx: &mut ServiceContext<'_>) {
        ctx.publish_to(
            &names::MC_STATUS,
            McStatus {
                next_waypoint: self.next_wp as u32,
                photos: self.photos_requested,
                complete: self.next_wp >= self.plan.len(),
            },
        );
    }
}

impl Service for MissionControlService {
    fn descriptor(&self) -> ServiceDescriptor {
        let mut b = ServiceDescriptor::builder("mission-control");
        b.provides_var(&names::MC_STATUS, VarQos::aperiodic(ProtoDuration::from_secs(5)))
            .provides_event(&names::PHOTO_REQUEST)
            .provides_event(&names::MISSION_COMPLETE)
            .provides_event(&names::TARGET_ALERT)
            .subscribe_to_var(&names::POSITION, VarQos::default().with_initial())
            .subscribe_to_event(&names::TARGET_DETECTED, EventQos::default())
            .requires_fn(&names::CAMERA_PREPARE)
            .requires_fn(&names::STORAGE_STORE);
        b.build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.log(format!("mc: mission with {} waypoints", self.plan.len()));
        self.publish_status(ctx);
    }

    fn on_provider_change(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        notice: &marea_core::ProviderNotice,
    ) {
        // Initialize the camera as soon as its function appears ("all these
        // initialization have remote call semantics", §5).
        if let marea_core::ProviderNotice::FunctionAvailable(name) = notice {
            if names::CAMERA_PREPARE.matches(name) && self.prepare_handle.is_none() {
                self.prepare_handle =
                    Some(ctx.call_fn(&names::CAMERA_PREPARE, ("mission".to_owned(),)));
                ctx.log("mc: preparing camera");
            }
        }
    }

    fn on_reply(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        handle: CallHandle,
        result: Result<Value, CallError>,
    ) {
        let Some(pending) = self.prepare_handle else { return };
        if !pending.matches(handle) {
            return;
        }
        match pending.decode(result) {
            Ok(true) => {
                self.camera_ready = true;
                ctx.log("mc: camera ready");
            }
            Ok(false) => {
                ctx.log("mc: camera declined to arm");
                self.prepare_handle = None; // retry on next availability
            }
            Err(e) => {
                ctx.log(format!("mc: camera prepare failed: {e}"));
                self.prepare_handle = None; // retry on next availability
            }
        }
    }

    fn on_variable(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: &Value,
        _stamp: Micros,
    ) {
        if !names::POSITION.matches(name) {
            return;
        }
        let here = match names::POSITION.decode(value) {
            Ok(Position { lat, lon, alt, .. }) => GeoPoint::new(lat, lon, alt),
            Err(e) => {
                ctx.log(format!("mc: bad position sample: {e}"));
                return;
            }
        };
        let mut changed = false;
        while let Some(wp) = self.plan.get(self.next_wp) {
            if here.distance_m(&wp.point) > wp.radius_m {
                break;
            }
            if wp.action == WaypointAction::TakePhoto {
                if self.camera_ready {
                    ctx.emit_to(&names::PHOTO_REQUEST, self.next_wp as u32);
                    self.photos_requested += 1;
                    ctx.log(format!("mc: photo requested at waypoint {}", self.next_wp));
                } else {
                    ctx.log(format!(
                        "mc: waypoint {} reached but camera not ready; skipping photo",
                        self.next_wp
                    ));
                }
            }
            self.next_wp += 1;
            changed = true;
        }
        if changed {
            self.publish_status(ctx);
            if self.next_wp >= self.plan.len() && !self.complete_reported {
                self.complete_reported = true;
                ctx.emit_to(&names::MISSION_COMPLETE, ());
                ctx.log("mc: mission complete");
            }
        }
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        value: Option<&Value>,
        _stamp: Micros,
    ) {
        if names::TARGET_DETECTED.matches(name) {
            // Relay to the ground station channel ("it can notify the GS
            // and MC", §5).
            match names::TARGET_DETECTED.decode(value) {
                Ok(detection) => {
                    ctx.emit_to(&names::TARGET_ALERT, detection);
                    ctx.log(format!(
                        "mc: target alert relayed (photo {}, {} targets)",
                        detection.revision, detection.count
                    ));
                }
                Err(e) => ctx.log(format!("mc: undecodable detection: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_wires_all_four_primitives() {
        let mc = MissionControlService::new(FlightPlan::default());
        let d = mc.descriptor();
        assert!(d.provides().iter().any(|p| p.name() == names::MC_STATUS.name()));
        assert!(d.provides().iter().any(|p| p.name() == names::PHOTO_REQUEST.name()));
        assert!(d.var_subscriptions().iter().any(|s| &s.name == names::POSITION.name()));
        assert!(d.required_functions().iter().any(|f| f == names::CAMERA_PREPARE.name()));
        assert!(d.event_subscriptions().iter().any(|e| &e.name == names::TARGET_DETECTED.name()));
    }
}
