//! Loss estimation and the adaptive code-rate controller.
//!
//! The receiver measures shard loss per retired group (expected vs
//! actually arrived — recoveries do not count as arrivals) and folds it
//! into a fixed-point EWMA. The estimate rides back to the sender
//! piggybacked on `RelAck`, where the controller maps it onto the
//! [`FecRate`] table with hysteresis: tighten immediately when loss
//! crosses a threshold, relax only after a sustained calm streak. The
//! controller also says when the link is *calm* — long loss-free, so a
//! partial group closed by age may go without parity. Both pieces are
//! pure integer state machines — no clocks, no floats on the estimate
//! path — so the whole loop is deterministic under the sim.

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
/// down (slow relax guards against loss/rate oscillation), and
/// consecutive parity-bearing groups over a loss-free link before it is
/// calm.
const RELAX_AFTER: u32 = 8;

/// Maps the loss estimate onto the rate table with hysteresis.
#[derive(Debug, Clone, Copy)]
pub struct RateController {
    cap: FecRate,
    current: FecRate,
    calm_streak: u32,
    /// Groups closed with their parity since the last nonzero loss report
    /// or retransmission, saturating at `RELAX_AFTER`.
    parity_streak: u32,
}

impl RateController {
    /// A controller bounded by `cap`, starting at the lightest active
    /// rate.
    pub fn new(cap: FecRate) -> Self {
        let floor = if cap == FecRate::Off { FecRate::Off } else { FecRate::Light };
        RateController { cap, current: floor, calm_streak: 0, parity_streak: 0 }
    }

    /// The rate currently in force.
    pub fn rate(&self) -> FecRate {
        self.current
    }

    /// The ceiling.
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
        if loss_permille != 0 {
            self.parity_streak = 0;
        }
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

    /// `true` once `RELAX_AFTER` groups in a row closed with their parity
    /// while every loss report read 0‰ and the link retransmitted nothing.
    /// On a calm link a partial group closed by age goes without parity (a
    /// full group keeps it); any loss ends calm at once, and parity returns
    /// for at least `RELAX_AFTER` groups, so the receiver's estimator sees
    /// the loss again.
    pub fn is_calm(&self) -> bool {
        self.parity_streak >= RELAX_AFTER
    }

    /// A group closed with its parity.
    pub fn on_parity_group(&mut self) {
        self.parity_streak = (self.parity_streak + 1).min(RELAX_AFTER);
    }

    /// The link retransmitted: a loss the estimator may never see (a
    /// quiet group lost whole), so calm ends here too.
    pub fn on_retransmit(&mut self) {
        self.parity_streak = 0;
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
    fn calm_takes_eight_parity_groups_of_zero_reports() {
        let mut c = RateController::new(FecRate::Max);
        c.update(0);
        assert!(!c.is_calm(), "one zero report is not enough");
        for _ in 0..RELAX_AFTER - 1 {
            c.on_parity_group();
            c.update(0);
        }
        assert!(!c.is_calm(), "seven parity groups are not enough");
        c.on_parity_group();
        assert!(c.is_calm());
        c.update(0);
        assert!(c.is_calm(), "a zero report keeps calm");
    }

    #[test]
    fn any_loss_ends_calm_for_eight_parity_groups() {
        let calm = || {
            let mut c = RateController::new(FecRate::Max);
            (0..RELAX_AFTER).for_each(|_| c.on_parity_group());
            assert!(c.is_calm());
            c
        };
        let mut reported = calm();
        reported.update(1);
        let mut retransmitted = calm();
        retransmitted.on_retransmit();
        for mut c in [reported, retransmitted] {
            for _ in 0..RELAX_AFTER {
                assert!(!c.is_calm(), "parity returns for eight groups");
                c.on_parity_group();
            }
            assert!(c.is_calm());
        }
        let mut c = calm();
        c.on_retransmit();
        (0..RELAX_AFTER - 1).for_each(|_| c.on_parity_group());
        c.update(3);
        c.on_parity_group();
        assert!(!c.is_calm(), "a report inside the streak starts it over");
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
