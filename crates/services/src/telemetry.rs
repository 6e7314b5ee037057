//! FlightGear-style telemetry bridge.
//!
//! Paper §6 uses a telemetry bridge as its productivity yardstick: *"the
//! telemetry interface with FlightGear simulator has been done by a person
//! without previous knowledge of the architecture in only 2 days."* This
//! service is that artifact, built purely on the public service API: it
//! consumes the position variable and re-publishes FlightGear
//! generic-protocol CSV lines (`lat,lon,alt_ft,heading_deg,speed_kt`)
//! plus NMEA `GPGGA` sentences for conventional ground tools.

use std::sync::Arc;

use parking_lot::Mutex;

use marea_core::{Micros, ProtoDuration, Service, ServiceContext, ServiceDescriptor, VarQos};
use marea_presentation::{Name, Value};

use crate::names::{self, Position};

/// Captured telemetry output (shareable, for tests and consoles).
pub type TelemetryLog = Arc<Mutex<Vec<String>>>;

/// Formats `gps/position` into FlightGear CSV and NMEA sentences.
#[derive(Debug)]
pub struct TelemetryBridge {
    sink: TelemetryLog,
    lines_emitted: u64,
}

impl TelemetryBridge {
    /// Creates a bridge writing formatted lines into `sink`.
    pub fn new(sink: TelemetryLog) -> Self {
        TelemetryBridge { sink, lines_emitted: 0 }
    }

    /// Formats one FlightGear generic-protocol line.
    fn fg_line(lat: f64, lon: f64, alt_m: f64, heading_rad: f64, speed_mps: f64) -> String {
        format!(
            "{lat:.6},{lon:.6},{:.1},{:.1},{:.1}",
            alt_m * 3.28084,          // feet
            heading_rad.to_degrees(), // degrees
            speed_mps * 1.94384,      // knots
        )
    }

    /// Formats a minimal NMEA GPGGA sentence with checksum.
    fn gpgga(lat: f64, lon: f64, alt_m: f64) -> String {
        let lat_hemi = if lat >= 0.0 { 'N' } else { 'S' };
        let lon_hemi = if lon >= 0.0 { 'E' } else { 'W' };
        let lat = lat.abs();
        let lon = lon.abs();
        let lat_str = format!("{:02}{:07.4}", lat.trunc() as u32, lat.fract() * 60.0);
        let lon_str = format!("{:03}{:07.4}", lon.trunc() as u32, lon.fract() * 60.0);
        let body = format!(
            "GPGGA,000000.00,{lat_str},{lat_hemi},{lon_str},{lon_hemi},1,08,1.0,{alt_m:.1},M,0.0,M,,"
        );
        let checksum = body.bytes().fold(0u8, |acc, b| acc ^ b);
        format!("${body}*{checksum:02X}")
    }
}

impl Service for TelemetryBridge {
    fn descriptor(&self) -> ServiceDescriptor {
        ServiceDescriptor::builder("telemetry")
            .provides_var(
                &names::TELEMETRY,
                VarQos::periodic(ProtoDuration::from_millis(200), ProtoDuration::from_secs(1)),
            )
            .subscribe_to_var(&names::POSITION, VarQos::default().with_initial())
            .build()
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
        let Ok(Position { lat, lon, alt, heading, speed }) = names::POSITION.decode(value) else {
            return;
        };
        let fg = Self::fg_line(lat, lon, alt, heading, speed);
        let nmea = Self::gpgga(lat, lon, alt);
        ctx.publish_to(&names::TELEMETRY, fg.clone());
        self.lines_emitted += 1;
        let mut sink = self.sink.lock();
        sink.push(fg);
        sink.push(nmea);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fg_line_uses_aviation_units() {
        let line =
            TelemetryBridge::fg_line(41.275, 1.987, 100.0, std::f64::consts::FRAC_PI_2, 20.0);
        let parts: Vec<&str> = line.split(',').collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts[0], "41.275000");
        assert_eq!(parts[2], "328.1", "metres to feet");
        assert_eq!(parts[3], "90.0", "radians to degrees");
        assert_eq!(parts[4], "38.9", "m/s to knots");
    }

    #[test]
    fn gpgga_checksum_is_correct() {
        let s = TelemetryBridge::gpgga(41.275, 1.987, 100.0);
        assert!(s.starts_with("$GPGGA,"));
        let (body, checksum) = s[1..].split_once('*').unwrap();
        let computed = body.bytes().fold(0u8, |acc, b| acc ^ b);
        assert_eq!(format!("{computed:02X}"), checksum);
        assert!(s.contains(",N,"), "northern hemisphere");
        assert!(s.contains(",E,"), "eastern hemisphere");
    }

    #[test]
    fn southern_western_hemispheres() {
        let s = TelemetryBridge::gpgga(-33.9, -70.8, 500.0);
        assert!(s.contains(",S,"));
        assert!(s.contains(",W,"));
    }
}
