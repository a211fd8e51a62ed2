//! The hasher for keys the simulator minted itself.
//!
//! Port, segment, node and process ids are `next += 1` counters and page
//! numbers are small dense integers: nobody outside the program chooses
//! them, so SipHash's protection against crafted collisions buys nothing.
//! [`IdHasher`] is one multiply per integer written; [`IdMap`] and
//! [`IdSet`] are the tables every library crate keys by such ids. Keep
//! `std`'s default hasher for keys that arrive from outside the program.
//! Iteration order is a pure function of the keys inserted (no
//! `RandomState`), so it no longer varies from run to run: no caller may
//! depend on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd, bit-balanced multiplier (2^64 / golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-rotate hasher for integer ids; tuples fold field by field.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// The product's high bits are its best-mixed ones and hashbrown
    /// indexes buckets by the low bits: rotate the former onto the latter.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` keyed by simulator-minted ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator-minted ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// Drops `keys` into every table of 16 to 1,024 buckets the way
    /// hashbrown indexes one — `finish() & mask` — and returns the fullest
    /// bucket seen, as a multiple of its table's mean.
    fn worst_bucket<K: Hash>(keys: &[K]) -> f64 {
        let hasher = BuildHasherDefault::<IdHasher>::default();
        let mut worst = 0.0f64;
        for buckets in (4..=10).map(|k| 1usize << k) {
            let mut fill = vec![0u32; buckets];
            for key in keys {
                fill[hasher.hash_one(key) as usize & (buckets - 1)] += 1;
            }
            let fullest = fill.iter().copied().max().unwrap_or(0);
            worst = worst.max(f64::from(fullest) * buckets as f64 / keys.len() as f64);
        }
        worst
    }

    /// A weak mix must fail here, not show up as a slow workload. The keys
    /// are the shapes the simulator mints: sequence numbers, page numbers
    /// a power-of-two stride apart (whose products have empty low bits —
    /// what `finish`'s rotation is for), and the links of a fleet.
    #[test]
    fn minted_keys_spread_over_power_of_two_tables() {
        let ids: Vec<u64> = (0..4096).collect();
        assert!(worst_bucket(&ids) <= 4.0, "sequential ids");
        for stride in [8u64, 64, 512] {
            let pages: Vec<u64> = ids.iter().map(|n| n * stride).collect();
            let worst = worst_bucket(&pages);
            assert!(worst <= 4.0, "stride {stride}: a bucket {worst}x the mean");
        }
        let links: Vec<(u32, u32)> = (0..64).flat_map(|a| (0..64).map(move |b| (a, b))).collect();
        assert!(worst_bucket(&links) <= 4.0, "64-node fleet links");
    }
}
