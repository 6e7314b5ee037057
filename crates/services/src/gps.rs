//! The GPS service: the mission's data source (paper §5).

use std::sync::Arc;

use parking_lot::Mutex;

use marea_core::{ProtoDuration, Service, ServiceContext, ServiceDescriptor, TimerId, VarQos};
use marea_flightsim::sensors::GpsSensor;
use marea_flightsim::World;

use crate::names::{self, Position};

/// Publication period of `gps/position` (20 Hz).
const PERIOD: ProtoDuration = ProtoDuration(50_000);

/// How long a published fix stays valid.
const VALIDITY: ProtoDuration = ProtoDuration(200_000);

/// The simulated world shared by the airframe-facing services (GPS drives
/// it forward; the camera reads it).
pub type SharedWorld = Arc<Mutex<World>>;

/// Publishes `gps/position` at a fixed rate from the simulated airframe.
///
/// > *"The position is a high rate changing data and the consumer services
/// > can lose some values without problem, then the variable primitive for
/// > its high efficiency is preferred over the safer event primitive."*
/// > — paper §5
#[derive(Debug)]
pub struct GpsService {
    world: SharedWorld,
    sensor: GpsSensor,
    in_outage: bool,
}

impl GpsService {
    /// Creates the service over a shared world; `seed` drives sensor noise.
    pub fn new(world: SharedWorld, seed: u64) -> Self {
        GpsService { world, sensor: GpsSensor::new(seed), in_outage: false }
    }

    /// A restart factory over the same shared world, for
    /// [`SimHarness::add_service_factory`](marea_core::SimHarness::add_service_factory):
    /// a chaos `Restart` rebuilds the GPS against the world where the
    /// airframe kept flying while the node was down.
    pub fn factory(world: SharedWorld, seed: u64) -> impl Fn() -> Box<dyn Service> + Send {
        move || Box::new(GpsService::new(world.clone(), seed)) as Box<dyn Service>
    }
}

impl Service for GpsService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("gps")
            .provides_var(&names::POSITION, VarQos::periodic(PERIOD, VALIDITY))
            .provides_event(&names::FIX_LOST)
            .build()
    }

    fn on_start(&mut self, ctx: &mut ServiceContext<'_>) {
        ctx.set_timer(PERIOD, Some(PERIOD));
        ctx.log("gps: started");
    }

    fn on_timer(&mut self, ctx: &mut ServiceContext<'_>, _id: TimerId) {
        let t_s = ctx.now().as_micros() as f64 / 1e6;
        let (state, fix) = {
            let mut world = self.world.lock();
            world.advance_to(t_s);
            let state = world.state();
            (state, self.sensor.sample(&state, t_s))
        };
        match fix {
            Some(fix) => {
                if self.in_outage {
                    self.in_outage = false;
                    ctx.log("gps: fix re-acquired");
                }
                ctx.publish_to(
                    &names::POSITION,
                    Position {
                        lat: fix.position.lat,
                        lon: fix.position.lon,
                        alt: fix.position.alt,
                        heading: fix.course_rad,
                        speed: fix.speed_mps,
                    },
                );
            }
            None => {
                if !self.in_outage {
                    self.in_outage = true;
                    ctx.emit_to(&names::FIX_LOST, ());
                    ctx.log(format!(
                        "gps: fix lost at ({:.5}, {:.5})",
                        state.position.lat, state.position.lon
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_flightsim::{FlightPlan, GeoPoint, Terrain};

    #[test]
    fn descriptor_declares_the_contract() {
        let origin = GeoPoint::new(41.275, 1.987, 120.0);
        let world = Arc::new(Mutex::new(World::new(
            origin,
            20.0,
            FlightPlan::default(),
            Terrain::new(1, origin, 100.0, 0),
        )));
        let svc = GpsService::new(world, 1);
        let d = svc.descriptor();
        assert_eq!(d.name(), "gps");
        assert!(d.provides().iter().any(|p| p.name() == names::POSITION.name()));
        assert!(d.provides().iter().any(|p| p.name() == names::FIX_LOST.name()));
    }
}
