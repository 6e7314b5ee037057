//! The mission vocabulary: the typed contracts, and the records they
//! carry, shared by the standard services.
//!
//! Keeping the contract here (instead of inside each service) is what lets
//! "all the services \[be\] generic enough to be reutilized in most of the
//! UAV missions" (paper §5) — a mission recombines services purely by
//! name. Each contract is declared once, as a static port that carries its
//! name and its payload type together: the producer declares through the
//! same static the consumers subscribe and decode through, so a schema
//! change is a type error in every service it affects and a name is
//! spelled in one place. Read a contract's name as `POSITION.name()`.

use std::sync::LazyLock;

use marea_core::{EventPort, FnPort, VarPort};
use marea_presentation::record;

/// `camera/photo` — the file resource carrying photos (one revision per
/// shot). File resources have no payload type, so no port.
pub const FILE_PHOTO: &str = "camera/photo";

// ---- typed records ------------------------------------------------------

record! {
    /// A GPS fix: the payload of [`POSITION`].
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
    /// A detection report: the payload of [`TARGET_DETECTED`] and
    /// [`TARGET_ALERT`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Detection {
        /// Photo revision the detection ran on.
        pub revision: u32,
        /// Number of targets found.
        pub count: u32,
    }
}

record! {
    /// Mission progress: the payload of [`MC_STATUS`].
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

// ---- typed contracts ----------------------------------------------------

/// `gps/position` — the high-rate position variable (paper §5).
pub static POSITION: LazyLock<VarPort<Position>> = LazyLock::new(|| VarPort::new("gps/position"));

/// `gps/fix-lost` — bare event emitted when the receiver loses its fix.
pub static FIX_LOST: LazyLock<EventPort<()>> = LazyLock::new(|| EventPort::new("gps/fix-lost"));

/// `mc/status` — mission progress variable.
pub static MC_STATUS: LazyLock<VarPort<McStatus>> = LazyLock::new(|| VarPort::new("mc/status"));

/// `mc/photo-request` — event carrying the waypoint index to photograph.
pub static PHOTO_REQUEST: LazyLock<EventPort<u32>> =
    LazyLock::new(|| EventPort::new("mc/photo-request"));

/// `mc/mission-complete` — bare event at end of plan.
pub static MISSION_COMPLETE: LazyLock<EventPort<()>> =
    LazyLock::new(|| EventPort::new("mc/mission-complete"));

/// `mc/target-alert` — relayed detection alert for the ground station.
pub static TARGET_ALERT: LazyLock<EventPort<Detection>> =
    LazyLock::new(|| EventPort::new("mc/target-alert"));

/// `camera/prepare` — remote function arming the camera:
/// `(mission name) -> armed`.
pub static CAMERA_PREPARE: LazyLock<FnPort<(String,), bool>> =
    LazyLock::new(|| FnPort::new("camera/prepare"));

/// `camera/photo-taken` — event carrying the new photo revision (the shot
/// number).
pub static PHOTO_TAKEN: LazyLock<EventPort<u32>> =
    LazyLock::new(|| EventPort::new("camera/photo-taken"));

/// `storage/store` — remote function storing a named blob:
/// `(path, data) -> stored`.
pub static STORAGE_STORE: LazyLock<FnPort<(String, Vec<u8>), bool>> =
    LazyLock::new(|| FnPort::new("storage/store"));

/// `storage/get` — remote function fetching a named blob: `(path) -> data`.
pub static STORAGE_GET: LazyLock<FnPort<(String,), Vec<u8>>> =
    LazyLock::new(|| FnPort::new("storage/get"));

/// `storage/list` — remote function listing stored paths:
/// `(prefix) -> newline-joined paths`.
pub static STORAGE_LIST: LazyLock<FnPort<(String,), String>> =
    LazyLock::new(|| FnPort::new("storage/list"));

/// `video/target-detected` — event carrying detection results.
pub static TARGET_DETECTED: LazyLock<EventPort<Detection>> =
    LazyLock::new(|| EventPort::new("video/target-detected"));

/// `telemetry/fg` — FlightGear-style telemetry line variable.
pub static TELEMETRY: LazyLock<VarPort<String>> = LazyLock::new(|| VarPort::new("telemetry/fg"));

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

    /// The names are on the wire: a contract keeps the one it has.
    #[test]
    fn ports_match_declared_names() {
        for (name, wire) in [
            (POSITION.name(), "gps/position"),
            (FIX_LOST.name(), "gps/fix-lost"),
            (MC_STATUS.name(), "mc/status"),
            (PHOTO_REQUEST.name(), "mc/photo-request"),
            (MISSION_COMPLETE.name(), "mc/mission-complete"),
            (TARGET_ALERT.name(), "mc/target-alert"),
            (CAMERA_PREPARE.name(), "camera/prepare"),
            (PHOTO_TAKEN.name(), "camera/photo-taken"),
            (STORAGE_STORE.name(), "storage/store"),
            (STORAGE_GET.name(), "storage/get"),
            (STORAGE_LIST.name(), "storage/list"),
            (TARGET_DETECTED.name(), "video/target-detected"),
            (TELEMETRY.name(), "telemetry/fg"),
        ] {
            assert_eq!(name, wire);
        }
    }
}
