//! The code-rate table: the discrete operating points the adaptive
//! controller moves between.
//!
//! Each rate names an interleaved systematic `(k, r)` geometry: groups of
//! up to `k` data shards protected by `r` parity lanes (see
//! [`block`](crate::fec::block)). Stronger rates spend more redundant
//! bandwidth to survive more erasures per group — the classic goodput
//! trade the paper's degraded-radio regime cares about.

/// One operating point of the erasure code.
///
/// Ordered weakest-to-strongest so a ceiling is a plain `min` and the
/// controller can step with `stronger`/`weaker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum FecRate {
    /// No FEC: data travels bare. A link-level ceiling only (plain ARQ,
    /// the baseline the benches compare against): every container link
    /// runs under [`FecRate::Max`].
    #[default]
    Off,
    /// 8 data shards, 1 parity lane — 12.5% overhead, survives 1 erasure
    /// per group.
    Light,
    /// 4 data shards, 1 parity lane — 25% overhead.
    Medium,
    /// 4 data shards, 2 parity lanes — 50% overhead, survives 1 erasure
    /// per lane (2 per group when they fall in different lanes).
    Strong,
    /// 2 data shards, 2 parity lanes — 100% overhead, the retry-storm
    /// escape hatch for the worst of the loss ramp.
    Max,
}

impl FecRate {
    /// Every rate, weakest first.
    pub const ALL: &'static [FecRate] =
        &[FecRate::Off, FecRate::Light, FecRate::Medium, FecRate::Strong, FecRate::Max];

    /// `(k, r)`: data shards per group, parity lanes per group. `(0, 0)`
    /// for [`FecRate::Off`].
    pub fn params(self) -> (u8, u8) {
        match self {
            FecRate::Off => (0, 0),
            FecRate::Light => (8, 1),
            FecRate::Medium => (4, 1),
            FecRate::Strong => (4, 2),
            FecRate::Max => (2, 2),
        }
    }

    /// Stable number of the rate, weakest first: 0 for `Off` up to 4 for
    /// `Max`, as the container's `negotiated_rate_max` gauge reports it.
    pub fn wire_tag(self) -> u8 {
        match self {
            FecRate::Off => 0,
            FecRate::Light => 1,
            FecRate::Medium => 2,
            FecRate::Strong => 3,
            FecRate::Max => 4,
        }
    }

    /// Parity overhead in permille (`r / k`), 0 for `Off`.
    pub fn overhead_permille(self) -> u32 {
        let (k, r) = self.params();
        if k == 0 {
            0
        } else {
            u32::from(r) * 1000 / u32::from(k)
        }
    }

    /// The next stronger rate (saturates at [`FecRate::Max`]).
    pub fn stronger(self) -> FecRate {
        match self {
            FecRate::Off => FecRate::Light,
            FecRate::Light => FecRate::Medium,
            FecRate::Medium => FecRate::Strong,
            FecRate::Strong | FecRate::Max => FecRate::Max,
        }
    }

    /// The next weaker rate; never drops below [`FecRate::Light`] — once a
    /// link runs FEC, the lightest geometry stays on so the loss signal
    /// keeps flowing (`Off` is a link's ceiling, not a controller state). A calm link (see
    /// [`RateController::is_calm`](crate::fec::RateController::is_calm))
    /// still sends parity with every full group, and any loss report or
    /// retransmission puts it back on every group, so the signal
    /// survives calm too.
    pub fn weaker(self) -> FecRate {
        match self {
            FecRate::Off | FecRate::Light | FecRate::Medium => FecRate::Light,
            FecRate::Strong => FecRate::Medium,
            FecRate::Max => FecRate::Strong,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for &r in FecRate::ALL {
            assert_eq!(FecRate::ALL[usize::from(r.wire_tag())], r);
        }
    }

    #[test]
    fn params_are_sane() {
        for &rate in FecRate::ALL {
            let (k, r) = rate.params();
            if rate == FecRate::Off {
                assert_eq!((k, r), (0, 0));
            } else {
                assert!(k >= 1 && r >= 1 && r <= k, "{rate:?}");
            }
        }
    }

    #[test]
    fn ordering_matches_strength() {
        assert!(FecRate::Off < FecRate::Light);
        assert!(FecRate::Light < FecRate::Medium);
        assert!(FecRate::Medium < FecRate::Strong);
        assert!(FecRate::Strong < FecRate::Max);
        // Overhead grows with strength.
        let mut last = 0;
        for &rate in FecRate::ALL {
            assert!(rate.overhead_permille() >= last);
            last = rate.overhead_permille();
        }
    }

    #[test]
    fn stepping_saturates() {
        assert_eq!(FecRate::Max.stronger(), FecRate::Max);
        assert_eq!(FecRate::Light.weaker(), FecRate::Light);
        assert_eq!(FecRate::Off.stronger(), FecRate::Light);
    }
}
