//! The mission vocabulary: names, schemas and **typed ports** shared by
//! the standard services.
//!
//! Keeping the contract here (instead of inside each service) is what lets
//! "all the services \[be\] generic enough to be reutilized in most of the
//! UAV missions" (paper §5) — a mission recombines services purely by
//! name. The typed port constructors make that contract compile-time
//! checked on *both* sides: the producer declares through the same port
//! the consumers subscribe and decode through, so a schema change is a
//! type error in every service it affects.

use marea_core::{EventPort, FnPort, VarPort};
use marea_presentation::record;

/// `gps/position` — the high-rate position variable (paper §5).
pub const VAR_POSITION: &str = "gps/position";
/// `gps/fix-lost` — bare event emitted when the receiver loses its fix.
pub const EVT_FIX_LOST: &str = "gps/fix-lost";
/// `mc/status` — mission progress variable.
pub const VAR_MC_STATUS: &str = "mc/status";
/// `mc/photo-request` — event carrying the waypoint index to photograph.
pub const EVT_PHOTO_REQUEST: &str = "mc/photo-request";
/// `mc/mission-complete` — bare event at end of plan.
pub const EVT_MISSION_COMPLETE: &str = "mc/mission-complete";
/// `mc/target-alert` — relayed detection alert for the ground station.
pub const EVT_TARGET_ALERT: &str = "mc/target-alert";
/// `camera/prepare` — remote function arming the camera.
pub const FN_CAMERA_PREPARE: &str = "camera/prepare";
/// `camera/photo` — the file resource carrying photos (one revision per
/// shot).
pub const FILE_PHOTO: &str = "camera/photo";
/// `camera/photo-taken` — event carrying the new photo revision.
pub const EVT_PHOTO_TAKEN: &str = "camera/photo-taken";
/// `storage/store` — remote function storing a named blob.
pub const FN_STORAGE_STORE: &str = "storage/store";
/// `storage/get` — remote function fetching a named blob.
pub const FN_STORAGE_GET: &str = "storage/get";
/// `storage/list` — remote function listing stored paths.
pub const FN_STORAGE_LIST: &str = "storage/list";
/// `video/target-detected` — event carrying detection results.
pub const EVT_TARGET_DETECTED: &str = "video/target-detected";
/// `telemetry/fg` — FlightGear-style telemetry line variable.
pub const VAR_TELEMETRY: &str = "telemetry/fg";

// ---- typed records ------------------------------------------------------

record! {
    /// A GPS fix: the payload of [`VAR_POSITION`].
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct Position {
        /// Latitude in degrees.
        pub lat: f64,
        /// Longitude in degrees.
        pub lon: f64,
        /// Altitude in metres.
        pub alt: f64,
        /// Course over ground in radians.
        pub heading: f64,
        /// Ground speed in m/s.
        pub speed: f64,
    }
}

record! {
    /// A detection report: the payload of [`EVT_TARGET_DETECTED`] and
    /// [`EVT_TARGET_ALERT`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Detection {
        /// Photo revision the detection ran on.
        pub revision: u32,
        /// Number of targets found.
        pub count: u32,
    }
}

record! {
    /// Mission progress: the payload of [`VAR_MC_STATUS`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct McStatus {
        /// Index of the next waypoint to reach.
        pub next_waypoint: u32,
        /// Photos requested so far.
        pub photos: u32,
        /// The plan is exhausted.
        pub complete: bool,
    }
}

// ---- typed ports --------------------------------------------------------

/// Typed port for [`VAR_POSITION`].
pub fn position_port() -> VarPort<Position> {
    VarPort::new(VAR_POSITION)
}

/// Typed port for [`EVT_FIX_LOST`] (bare).
pub fn fix_lost_port() -> EventPort<()> {
    EventPort::new(EVT_FIX_LOST)
}

/// Typed port for [`VAR_MC_STATUS`].
pub fn mc_status_port() -> VarPort<McStatus> {
    VarPort::new(VAR_MC_STATUS)
}

/// Typed port for [`EVT_PHOTO_REQUEST`] (payload: waypoint index).
pub fn photo_request_port() -> EventPort<u32> {
    EventPort::new(EVT_PHOTO_REQUEST)
}

/// Typed port for [`EVT_MISSION_COMPLETE`] (bare).
pub fn mission_complete_port() -> EventPort<()> {
    EventPort::new(EVT_MISSION_COMPLETE)
}

/// Typed port for [`EVT_TARGET_ALERT`].
pub fn target_alert_port() -> EventPort<Detection> {
    EventPort::new(EVT_TARGET_ALERT)
}

/// Typed port for [`FN_CAMERA_PREPARE`]: `(mission name) -> armed`.
pub fn camera_prepare_port() -> FnPort<(String,), bool> {
    FnPort::new(FN_CAMERA_PREPARE)
}

/// Typed port for [`EVT_PHOTO_TAKEN`] (payload: shot number).
pub fn photo_taken_port() -> EventPort<u32> {
    EventPort::new(EVT_PHOTO_TAKEN)
}

/// Typed port for [`FN_STORAGE_STORE`]: `(path, data) -> stored`.
pub fn storage_store_port() -> FnPort<(String, Vec<u8>), bool> {
    FnPort::new(FN_STORAGE_STORE)
}

/// Typed port for [`FN_STORAGE_GET`]: `(path) -> data`.
pub fn storage_get_port() -> FnPort<(String,), Vec<u8>> {
    FnPort::new(FN_STORAGE_GET)
}

/// Typed port for [`FN_STORAGE_LIST`]: `(prefix) -> newline-joined paths`.
pub fn storage_list_port() -> FnPort<(String,), String> {
    FnPort::new(FN_STORAGE_LIST)
}

/// Typed port for [`EVT_TARGET_DETECTED`].
pub fn target_detected_port() -> EventPort<Detection> {
    EventPort::new(EVT_TARGET_DETECTED)
}

/// Typed port for [`VAR_TELEMETRY`].
pub fn telemetry_port() -> VarPort<String> {
    VarPort::new(VAR_TELEMETRY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marea_presentation::{FromValue, HasDataType, IntoValue, Value};

    #[test]
    fn position_roundtrip() {
        let p = Position { lat: 41.2, lon: 1.9, alt: 120.0, heading: 1.5, speed: 22.0 };
        let v = p.into_value();
        v.conforms_to(&Position::data_type()).unwrap();
        assert_eq!(Position::from_value(&v).unwrap(), p);
    }

    #[test]
    fn detection_roundtrip() {
        let d = Detection { revision: 3, count: 2 };
        let v = d.into_value();
        v.conforms_to(&Detection::data_type()).unwrap();
        assert_eq!(Detection::from_value(&v).unwrap(), d);
    }

    #[test]
    fn mc_status_roundtrip() {
        let s = McStatus { next_waypoint: 4, photos: 2, complete: false };
        let v = s.into_value();
        v.conforms_to(&McStatus::data_type()).unwrap();
        assert_eq!(McStatus::from_value(&v).unwrap(), s);
    }

    #[test]
    fn parse_rejects_wrong_shapes() {
        assert!(Position::from_value(&Value::Bool(true)).is_err());
        let pos = Position::default().into_value();
        let err = Detection::from_value(&pos).unwrap_err();
        assert!(err.to_string().contains("revision"), "{err}");
    }

    #[test]
    fn ports_match_declared_names() {
        assert_eq!(position_port().name(), VAR_POSITION);
        assert_eq!(camera_prepare_port().name(), FN_CAMERA_PREPARE);
        assert_eq!(storage_store_port().name(), FN_STORAGE_STORE);
        assert_eq!(target_detected_port().name(), EVT_TARGET_DETECTED);
        assert_eq!(telemetry_port().name(), VAR_TELEMETRY);
    }
}
