//! Key-range shard routing.
//!
//! The serving layer's content keys are SplitMix64-finished digests
//! (`deco_serve::cache`), uniform over the full `u64` space, so the
//! simplest partition is also a balanced one: shard *i* of *N* owns the
//! contiguous range `[i·2⁶⁴/N, (i+1)·2⁶⁴/N)`. Contiguity is load-bearing, not just
//! simple: the serving engine iterates its observables in ascending
//! content-key order, and walking N contiguous ranges in shard order *is*
//! that global order. A hash-mod-N partition would interleave shards'
//! keys and force a merge sort where the range router gets canonical
//! order for free.

/// Routes content keys to shards by contiguous `u64` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter { shards }
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`. Computed in `u128` so the range split is
    /// exact — no shard is a key wider or narrower than its share.
    pub fn shard_of(&self, key: u64) -> usize {
        ((key as u128 * self.shards as u128) >> 64) as usize
    }

    /// The inclusive-exclusive key range `[start, end)` shard `i` owns;
    /// `end` is `None` for the last shard (its range is open at
    /// `u64::MAX`, i.e. closes at 2⁶⁴).
    pub fn range_of(&self, shard: usize) -> (u64, Option<u64>) {
        assert!(shard < self.shards, "shard {shard} out of range");
        // shard_of floors key·N/2⁶⁴, so shard i's first key is the
        // ceiling of i·2⁶⁴/N.
        let n = self.shards as u128;
        let start = ((shard as u128) << 64).div_ceil(n);
        let end = (((shard + 1) as u128) << 64).div_ceil(n);
        (
            start as u64,
            if shard + 1 == self.shards {
                None
            } else {
                Some(end as u64)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_owns_everything() {
        let r = ShardRouter::new(1);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(u64::MAX), 0);
        assert_eq!(r.range_of(0), (0, None));
    }

    #[test]
    fn ranges_are_contiguous_and_exhaustive() {
        for n in [2usize, 3, 4, 7, 16] {
            let r = ShardRouter::new(n);
            let mut prev_end = 0u64;
            for i in 0..n {
                let (start, end) = r.range_of(i);
                assert_eq!(
                    start, prev_end,
                    "shard {i} of {n} must abut its left neighbor"
                );
                // Boundary keys route to the range that claims them.
                assert_eq!(r.shard_of(start), i);
                if let Some(end) = end {
                    assert_eq!(r.shard_of(end - 1), i);
                    assert_eq!(r.shard_of(end), i + 1);
                    prev_end = end;
                } else {
                    assert_eq!(i, n - 1);
                    assert_eq!(r.shard_of(u64::MAX), i);
                }
            }
        }
    }

    #[test]
    fn contiguous_ranges_preserve_global_key_order() {
        // Walking shards in index order and keys within each shard in
        // ascending order visits keys in globally ascending order — the
        // property the merge layer's byte-identity rests on.
        let r = ShardRouter::new(4);
        let keys: Vec<u64> = (0..1000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for &k in &keys {
            by_shard[r.shard_of(k)].push(k);
        }
        let mut walked: Vec<u64> = Vec::new();
        for part in &mut by_shard {
            part.sort_unstable();
            walked.extend_from_slice(part);
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(walked, sorted);
    }

    #[test]
    fn load_splits_evenly_for_uniform_keys() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000u64 {
            counts[r.shard_of(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 10_000.0).abs() < 600.0,
                "uniform keys should split evenly: {counts:?}"
            );
        }
    }
}
