//! Closed-form timeslot analysis from the paper.
//!
//! A *timeslot* is the time to transmit one block over one network link. The
//! formulas below are the ones derived in §2.2, §3.2, §4.1 and §4.4 and are
//! used by the test suite as oracles for the simulator, and by
//! `EXPERIMENTS.md` to sanity-check measured shapes.

/// Timeslots for a conventional single-block repair: `k` (§2.2).
pub fn conventional_single(k: usize) -> f64 {
    k as f64
}

/// Timeslots for a conventional multi-block repair of `f` failures:
/// `k + f - 1` (§2.2).
pub fn conventional_multi(k: usize, f: usize) -> f64 {
    (k + f - 1) as f64
}

/// Timeslots for a PPR single-block repair: `ceil(log2(k + 1))` (§2.2).
pub fn ppr_single(k: usize) -> f64 {
    ((k + 1) as f64).log2().ceil()
}

/// Timeslots for repair pipelining of a single block with `s` slices:
/// `1 + (k - 1) / s` (§3.2).
pub fn rp_single(k: usize, s: usize) -> f64 {
    1.0 + (k - 1) as f64 / s as f64
}

/// Timeslots for the block-level pipelining baseline (`Pipe-B`, the naive
/// approach of §3.2): `k`, the same as conventional repair.
pub fn pipe_b_single(k: usize) -> f64 {
    k as f64
}

/// Timeslots for a multi-block repair of `f` failures via repair pipelining:
/// `f * (1 + (k - 1) / s)` (§4.4).
pub fn rp_multi(k: usize, s: usize, f: usize) -> f64 {
    f as f64 * rp_single(k, s)
}

/// Timeslots for the naive block-level multi-block pipelining (§4.4):
/// `f * k`, worse than conventional repair.
pub fn naive_pipeline_multi(k: usize, f: usize) -> f64 {
    (f * k) as f64
}

/// The time (seconds) of one timeslot: transmitting one block of
/// `block_size` bytes over a link of `bandwidth` bytes/second.
pub fn timeslot_seconds(block_size: usize, bandwidth: f64) -> f64 {
    block_size as f64 / bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_values() {
        // §2.2: conventional repair takes k timeslots, PPR takes
        // ceil(log2(k+1)).
        assert_eq!(conventional_single(4), 4.0);
        assert_eq!(ppr_single(4), 3.0);
        assert_eq!(ppr_single(10), 4.0);
        // §3.2: 64 MiB block with 32 KiB slices gives s = 2048, so the repair
        // time approaches one timeslot.
        let t = rp_single(10, 2048);
        assert!(t > 1.0 && t < 1.005);
    }

    #[test]
    fn rp_beats_ppr_beats_conventional() {
        for k in 2..=20 {
            let s = 2048;
            assert!(rp_single(k, s) <= ppr_single(k));
            assert!(ppr_single(k) <= conventional_single(k));
        }
    }

    #[test]
    fn multi_block_comparison() {
        // §4.4: RP multi-block approaches f timeslots and always beats
        // conventional (k + f - 1); the naive block-level pipeline is worse
        // than conventional.
        let (k, s) = (10, 2048);
        for f in 1..=4 {
            assert!(rp_multi(k, s, f) < conventional_multi(k, f));
            assert!(naive_pipeline_multi(k, f) >= conventional_multi(k, f));
        }
    }

    #[test]
    fn rp_limit_is_one_timeslot() {
        assert!((rp_single(10, 1_000_000) - 1.0).abs() < 1e-4);
        assert_eq!(rp_single(10, 1), 10.0);
    }

    #[test]
    fn timeslot_seconds_at_1gbps() {
        let t = timeslot_seconds(64 * 1024 * 1024, 1e9 / 8.0);
        assert!((t - 0.5369).abs() < 1e-3);
    }
}
