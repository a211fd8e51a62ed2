//! Property tests for the simulation substrate.

use proptest::prelude::*;

use cor_sim::{Ledger, LedgerCategory, Pcg32, SimDuration, SimTime};

proptest! {
    /// `below` is always in range and `range` respects its bounds.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u32..10_000, lo in 0u64..1000, span in 1u64..100_000) {
        let mut rng = Pcg32::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
            let v = rng.range(lo, lo + span);
            prop_assert!(v >= lo && v < lo + span);
            let f = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    /// Shuffling is a permutation for any seed and size.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), n in 0usize..300) {
        let mut rng = Pcg32::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Ledger binning conserves bytes for any bin width and entry set.
    #[test]
    fn ledger_binning_conserves(
        entries in prop::collection::vec((0u64..100_000, 1u64..10_000, 0u8..3), 0..100),
        bin_ms in 1u64..5_000,
    ) {
        let mut ledger = Ledger::new();
        let mut sorted = entries.clone();
        sorted.sort_by_key(|&(t, _, _)| t);
        let mut end = SimTime::ZERO;
        for &(t, bytes, cat) in &sorted {
            let category = LedgerCategory::ALL[cat as usize];
            let at = SimTime::from_micros(t);
            ledger.record(at, bytes, category);
            end = end.max(at);
        }
        let total: u64 = LedgerCategory::ALL
            .iter()
            .flat_map(|&c| ledger.binned(SimDuration::from_millis(bin_ms), end, c))
            .sum();
        prop_assert_eq!(total, ledger.total());
    }

    /// Time arithmetic: since() inverts add for arbitrary instants.
    #[test]
    fn time_arith_roundtrip(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        prop_assert_eq!((t0 + d).since(t0), d);
        prop_assert_eq!((t0 + d).saturating_since(t0 + d + d), SimDuration::ZERO);
    }
}
