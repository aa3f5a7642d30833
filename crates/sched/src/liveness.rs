//! Pure quorum math for partial-quorum sync flushing.
//!
//! Sync-mode dispatching (Fig. 4b) holds one synchronous launch per VP and
//! flushes them as a single cross-VP window. Lockstep flushing — wait until
//! *every* connected VP is held — maximizes window depth but lets one slow or
//! hung VP stall the whole platform. The liveness layer (DESIGN §15) relaxes
//! the trigger to a *quorum*: flush once `ceil(eligible · fraction)` VPs are
//! held, where `eligible` is the connected, non-quarantined VP count.
//!
//! The functions here are deliberately pure (no clocks, no state) so the
//! dispatch core and property tests share one definition over arbitrary
//! fractions and arrival orders.

/// Number of held VPs required to flush a window: `ceil(eligible · pct / 100)`,
/// never more than `eligible`. Zero eligible VPs means no quorum is ever met
/// (returns 0, and [`quorum_met`] stays false so an empty platform never
/// "flushes").
pub fn quorum_threshold(eligible: usize, pct: u32) -> usize {
    if eligible == 0 {
        return 0;
    }
    let pct = pct.clamp(1, 100) as usize;
    // ceil(eligible * pct / 100) in integer math; eligible is a VP count so
    // the product is nowhere near overflow.
    eligible.saturating_mul(pct).div_ceil(100).clamp(1, eligible)
}

/// Whether `held` distinct held VPs satisfy the quorum over `eligible`
/// connected, non-quarantined VPs.
pub fn quorum_met(held: usize, eligible: usize, pct: u32) -> bool {
    eligible > 0 && held >= quorum_threshold(eligible, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_ceil_and_clamped() {
        assert_eq!(quorum_threshold(4, 100), 4, "lockstep: all VPs");
        assert_eq!(quorum_threshold(4, 50), 2);
        assert_eq!(quorum_threshold(4, 51), 3, "ceil, not round");
        assert_eq!(quorum_threshold(4, 1), 1);
        assert_eq!(quorum_threshold(1, 50), 1, "at least one VP");
        assert_eq!(quorum_threshold(0, 50), 0, "no eligible VPs, no quorum");
        assert_eq!(quorum_threshold(3, 0), 1, "pct clamps up to 1");
        assert_eq!(quorum_threshold(3, 250), 3, "pct clamps down to 100");
    }

    #[test]
    fn met_matches_threshold() {
        assert!(quorum_met(2, 4, 50));
        assert!(!quorum_met(1, 4, 50));
        assert!(quorum_met(4, 4, 100));
        assert!(!quorum_met(3, 4, 100));
        assert!(!quorum_met(5, 0, 50), "empty platform never flushes");
    }
}
