//! The crash-free twin shared by the crash sweeps.
//!
//! A crashed cell is judged against its *twin*: the same migration and
//! remote run with no [`CrashPlan`](cor_net::CrashPlan), whose touched-
//! memory checksum the survivor must reproduce byte for byte. The twin
//! does not depend on when the crash would have fired, so a sweep runs
//! one twin per distinct crash-free configuration, not one per cell.

use std::collections::HashMap;
use std::hash::Hash;

use cor_pool::Pool;

/// Runs `twin` once per distinct `key_of(cell)` (first batch on `pool`,
/// in first-seen order), then `crashed` for every cell with its twin's
/// checksum (second batch, in cell order). Both lists are keyed by the
/// one `key_of`, so every cell finds its twin; nothing outlives the call.
pub(crate) fn crash_sweep<C, K, O>(
    pool: &Pool,
    cells: &[C],
    key_of: impl Fn(&C) -> K,
    twin: impl Fn(K) -> Option<u64> + Sync,
    crashed: impl Fn(C, Option<u64>) -> O + Sync,
) -> Vec<O>
where
    C: Copy + Send,
    K: Copy + Eq + Hash + Send,
    O: Send,
{
    let mut keys: Vec<K> = Vec::new();
    for key in cells.iter().map(&key_of) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let (twin, crashed) = (&twin, &crashed);
    let sums = pool.run(keys.iter().map(|&k| move || twin(k)).collect());
    let clean: HashMap<K, Option<u64>> = keys.into_iter().zip(sums).collect();
    let jobs = cells.iter().map(|&cell| {
        let clean = clean[&key_of(&cell)];
        move || crashed(cell, clean)
    });
    pool.run(jobs.collect())
}

/// Whether a crashed run saw the memory its twin saw; `false` while
/// either orphaned — there is nothing to compare.
pub(crate) fn same_bytes(crashed: Option<u64>, clean: Option<u64>) -> bool {
    crashed.is_some() && crashed == clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_twin_per_distinct_key_and_every_cell_gets_its_own() {
        let cells: Vec<(u64, u64)> = (0..4).flat_map(|d| (0..3).map(move |k| (d, k))).collect();
        for pool in [Pool::serial(), Pool::new(4)] {
            let twins = AtomicUsize::new(0);
            let out = crash_sweep(
                &pool,
                &cells,
                |&(_, k)| k,
                |k| {
                    twins.fetch_add(1, Ordering::Relaxed);
                    (k != 1).then_some(k * 10)
                },
                |cell, clean| (cell, clean),
            );
            assert_eq!(twins.load(Ordering::Relaxed), 3);
            let want: Vec<_> = cells
                .iter()
                .map(|&(d, k)| ((d, k), (k != 1).then_some(k * 10)))
                .collect();
            assert_eq!(out, want, "cell order, each with its key's twin");
        }
    }

    #[test]
    fn an_orphan_on_either_side_never_matches() {
        assert!(same_bytes(Some(7), Some(7)));
        assert!(!same_bytes(Some(7), Some(8)));
        assert!(!same_bytes(None, Some(7)));
        assert!(!same_bytes(Some(7), None));
        assert!(!same_bytes(None, None));
    }
}
