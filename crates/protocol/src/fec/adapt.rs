//! Loss estimation and the adaptive code-rate controller.
//!
//! The receiver measures shard loss per retired group (expected vs
//! actually arrived — recoveries do not count as arrivals) and folds it
//! into a fixed-point EWMA. The estimate rides back to the sender
//! piggybacked on `RelAck`, where the controller maps it onto the
//! [`FecRate`] table with hysteresis: tighten immediately when loss
//! crosses a threshold, relax only after a sustained calm streak. Both
//! pieces are pure integer state machines — no clocks, no floats on the
//! estimate path — so the whole loop is deterministic under the sim.

use super::rate::FecRate;

/// EWMA smoothing shift: `est += (obs - est) >> 3` (α = 1/8).
const EWMA_SHIFT: u32 = 3;

/// Exponentially weighted shard-loss estimate in permille.
#[derive(Debug, Clone, Copy, Default)]
pub struct LossEstimator {
    /// Scaled estimate (permille << EWMA_SHIFT) for precision.
    scaled: u32,
    groups: u64,
}

impl LossEstimator {
    /// A fresh estimator reading 0‰.
    pub fn new() -> Self {
        LossEstimator::default()
    }

    /// Folds one retired group into the estimate.
    pub fn observe_group(&mut self, received: u32, expected: u32) {
        if expected == 0 {
            return;
        }
        let lost = expected.saturating_sub(received);
        let obs_permille = (lost * 1000 / expected).min(1000);
        if self.groups == 0 {
            self.scaled = obs_permille << EWMA_SHIFT;
        } else {
            let est = self.scaled >> EWMA_SHIFT;
            if obs_permille >= est {
                self.scaled += (obs_permille - est).min(1000);
            } else {
                self.scaled -= (est - obs_permille).min(self.scaled);
            }
        }
        self.groups += 1;
    }

    /// Current estimate in permille (0–1000).
    pub fn loss_permille(&self) -> u16 {
        ((self.scaled >> EWMA_SHIFT).min(1000)) as u16
    }
}

/// Loss thresholds (permille) above which each rate engages, weakest
/// rate first: `< 20‰ ⇒ Light`, `< 80‰ ⇒ Medium`, `< 180‰ ⇒ Strong`,
/// else `Max`.
const TIGHTEN_AT: &[(u16, FecRate)] =
    &[(180, FecRate::Max), (80, FecRate::Strong), (20, FecRate::Medium)];

/// Consecutive below-threshold updates required before stepping one rate
/// down (slow relax guards against loss/rate oscillation).
const RELAX_AFTER: u32 = 8;

/// Maps the loss estimate onto the rate table with hysteresis.
#[derive(Debug, Clone, Copy)]
pub struct RateController {
    cap: FecRate,
    current: FecRate,
    calm_streak: u32,
}

impl RateController {
    /// A controller bounded by the negotiated `cap`, starting at the
    /// lightest active rate.
    pub fn new(cap: FecRate) -> Self {
        let floor = if cap == FecRate::Off { FecRate::Off } else { FecRate::Light };
        RateController { cap, current: floor, calm_streak: 0 }
    }

    /// The rate currently in force.
    pub fn rate(&self) -> FecRate {
        self.current
    }

    /// The negotiated ceiling.
    pub fn cap(&self) -> FecRate {
        self.cap
    }

    /// What the raw threshold table asks for at `loss_permille`, before
    /// hysteresis or capping.
    pub fn target_for(loss_permille: u16) -> FecRate {
        for &(threshold, rate) in TIGHTEN_AT {
            if loss_permille >= threshold {
                return rate;
            }
        }
        FecRate::Light
    }

    /// Feeds a loss report; returns the (possibly updated) rate.
    ///
    /// Tightening is immediate — by the time the estimate crosses a
    /// threshold the link is already bleeding retransmissions. Relaxing
    /// steps one rate at a time after `RELAX_AFTER` consecutive calm
    /// reports, so a brief lull inside a loss ramp does not whipsaw the
    /// geometry.
    pub fn update(&mut self, loss_permille: u16) -> FecRate {
        if self.cap == FecRate::Off {
            return FecRate::Off;
        }
        let target = Self::target_for(loss_permille).min(self.cap);
        if target > self.current {
            self.current = target;
            self.calm_streak = 0;
        } else if target < self.current {
            self.calm_streak += 1;
            if self.calm_streak >= RELAX_AFTER {
                self.current = self.current.weaker().max(target);
                self.calm_streak = 0;
            }
        } else {
            self.calm_streak = 0;
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_starts_at_first_observation() {
        let mut e = LossEstimator::new();
        assert_eq!(e.loss_permille(), 0);
        e.observe_group(8, 10); // 20% loss
        assert_eq!(e.loss_permille(), 200);
    }

    #[test]
    fn estimator_converges_toward_sustained_loss() {
        let mut e = LossEstimator::new();
        for _ in 0..64 {
            e.observe_group(3, 4); // 250‰
        }
        let est = e.loss_permille();
        assert!((240..=260).contains(&est), "est {est}‰ should settle near 250‰");
        for _ in 0..64 {
            e.observe_group(4, 4);
        }
        assert!(e.loss_permille() < 20, "calm traffic must pull the estimate back down");
    }

    #[test]
    fn estimator_saturates_sanely() {
        let mut e = LossEstimator::new();
        e.observe_group(0, 4);
        assert_eq!(e.loss_permille(), 1000);
        e.observe_group(10, 4); // more received than expected: clamp at 0 lost
        assert!(e.loss_permille() < 1000);
    }

    #[test]
    fn controller_tightens_immediately() {
        let mut c = RateController::new(FecRate::Max);
        assert_eq!(c.rate(), FecRate::Light);
        assert_eq!(c.update(100), FecRate::Strong);
        assert_eq!(c.update(300), FecRate::Max);
    }

    #[test]
    fn controller_relaxes_slowly_one_step_at_a_time() {
        let mut c = RateController::new(FecRate::Max);
        c.update(300);
        assert_eq!(c.rate(), FecRate::Max);
        for _ in 0..7 {
            assert_eq!(c.update(0), FecRate::Max, "calm streak not yet long enough");
        }
        assert_eq!(c.update(0), FecRate::Strong, "8th calm report steps down once");
        for _ in 0..7 {
            c.update(0);
        }
        assert_eq!(c.update(0), FecRate::Medium);
    }

    #[test]
    fn relax_streak_resets_on_new_loss() {
        let mut c = RateController::new(FecRate::Max);
        c.update(300);
        for _ in 0..6 {
            c.update(0);
        }
        c.update(300); // loss returns: streak dies
        for _ in 0..7 {
            assert_eq!(c.update(0), FecRate::Max);
        }
    }

    #[test]
    fn cap_bounds_the_controller() {
        let mut c = RateController::new(FecRate::Medium);
        assert_eq!(c.update(999), FecRate::Medium);
        let mut off = RateController::new(FecRate::Off);
        assert_eq!(off.update(999), FecRate::Off);
    }

    #[test]
    fn threshold_table_matches_docs() {
        assert_eq!(RateController::target_for(0), FecRate::Light);
        assert_eq!(RateController::target_for(19), FecRate::Light);
        assert_eq!(RateController::target_for(20), FecRate::Medium);
        assert_eq!(RateController::target_for(80), FecRate::Strong);
        assert_eq!(RateController::target_for(180), FecRate::Max);
        assert_eq!(RateController::target_for(1000), FecRate::Max);
    }
}
