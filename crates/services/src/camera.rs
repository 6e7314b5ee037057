//! The camera payload service.

use bytes::Bytes;

use marea_core::{EventQos, Micros, Service, ServiceContext, ServiceDescriptor};
use marea_presentation::{Name, Value};

use crate::gps::SharedWorld;
use crate::names;

/// Captures frames on `mc/photo-request` events and distributes them as
/// revisions of the `camera/photo` file resource.
///
/// > *"Before arriving the first location, the MC instructs the camera to
/// > prepare itself to take photos and publish them with the specified
/// > name ... The multicast file transfer will be then used for efficiently
/// > sending the image to the storage and video processing modules."*
/// > — paper §5
#[derive(Debug)]
pub struct CameraService {
    world: SharedWorld,
    width: u32,
    height: u32,
    ready: bool,
    shots: u32,
}

impl CameraService {
    /// Creates a camera over the shared world with a default 256×256
    /// sensor.
    pub fn new(world: SharedWorld) -> Self {
        CameraService { world, width: 256, height: 256, ready: false, shots: 0 }
    }

    /// Overrides the sensor resolution (builder style).
    #[must_use]
    pub fn with_resolution(mut self, width: u32, height: u32) -> Self {
        self.width = width;
        self.height = height;
        self
    }

    /// Shots taken so far.
    pub fn shots(&self) -> u32 {
        self.shots
    }
}

impl Service for CameraService {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("camera")
            .provides_fn(&names::CAMERA_PREPARE)
            .file_resource(names::FILE_PHOTO)
            .provides_event(&names::PHOTO_TAKEN)
            .subscribe_to_event(&names::PHOTO_REQUEST, EventQos::default())
            .build()
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        function: &Name,
        args: &[Value],
    ) -> Result<Value, String> {
        if !names::CAMERA_PREPARE.matches(function) {
            return Err(format!("unknown function `{function}`"));
        }
        let (mission,) = names::CAMERA_PREPARE.decode_args(args).map_err(|e| e.to_string())?;
        self.ready = true;
        ctx.log(format!("camera: prepared for mission `{mission}`"));
        Ok(names::CAMERA_PREPARE.encode_ret(true))
    }

    fn on_event(
        &mut self,
        ctx: &mut ServiceContext<'_>,
        name: &Name,
        _value: Option<&Value>,
        _stamp: Micros,
    ) {
        if !names::PHOTO_REQUEST.matches(name) {
            return;
        }
        if !self.ready {
            ctx.log("camera: photo requested before prepare; ignored");
            return;
        }
        let frame = self.world.lock().capture_frame(self.width, self.height);
        self.shots += 1;
        let bytes = Bytes::from(frame.to_bytes());
        ctx.log(format!(
            "camera: shot {} captured ({}x{}, {} bytes)",
            self.shots,
            frame.width,
            frame.height,
            bytes.len()
        ));
        // Each shot is a new revision of the same named resource; the
        // middleware's revision mechanism (§4.4) carries it to every
        // subscriber.
        ctx.publish_file(names::FILE_PHOTO, bytes);
        ctx.emit_to(&names::PHOTO_TAKEN, self.shots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_flightsim::{FlightPlan, GeoPoint, Terrain, World};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn descriptor_declares_photo_pipeline() {
        let origin = GeoPoint::new(41.275, 1.987, 120.0);
        let world = Arc::new(Mutex::new(World::new(
            origin,
            20.0,
            FlightPlan::default(),
            Terrain::new(1, origin, 100.0, 0),
        )));
        let cam = CameraService::new(world).with_resolution(64, 64);
        let d = cam.descriptor();
        assert!(d.provides().iter().any(|p| p.name() == names::CAMERA_PREPARE.name()));
        assert!(d.provides().iter().any(|p| p.name() == names::FILE_PHOTO));
        assert!(d.event_subscriptions().iter().any(|e| &e.name == names::PHOTO_REQUEST.name()));
        assert_eq!(cam.shots(), 0);
    }
}
