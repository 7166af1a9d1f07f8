//! First-class scenario supply: where a sweep's workload comes from.
//!
//! The engine used to know exactly one way to name a workload — "a seed
//! range, generated on the fly".  [`ScenarioSource`] makes the supply an
//! API object in its own right (the FunTAL "languages as interfaces"
//! discipline applied to the *populations* we push across the boundaries):
//!
//! * [`SeedRange`] — the classic half-open range, generated on the fly;
//! * [`Shard`] — a deterministic k-of-n partition of a range, so one sweep
//!   composes across processes (per-shard reports merge into the digests
//!   of the unsharded sweep).
//!
//! Generation is deterministic in `(case, seed, profile)`, so the same
//! `--seeds`, `--shard` and `--profile` flags replay the same population —
//! and its digest — bit for bit.

/// A supplier of scenario seeds for each case study in a sweep.
///
/// Implementations must be deterministic: the same source must hand the
/// same ordered seed list to the same case on every call, on every
/// process, for sweep digests to be reproducible.
pub trait ScenarioSource {
    /// The ordered seeds this source supplies for the named case study.
    fn seeds(&self, case: &str) -> Vec<u64>;

    /// Total scenario count across the given case names (used for the
    /// engine's sweep-size guard and by progress output).
    fn total(&self, cases: &[&str]) -> u64 {
        cases.iter().map(|c| self.seeds(c).len() as u64).sum()
    }

    /// A short human-readable description for CLI output.
    fn describe(&self) -> String;
}

/// The classic workload: a half-open seed range, identical for every case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    start: u64,
    end: u64,
}

impl SeedRange {
    /// A validated half-open range `start..end` (must be non-empty and not
    /// reversed).
    pub fn new(start: u64, end: u64) -> Result<SeedRange, String> {
        if end < start {
            return Err(format!(
                "seed range {start}..{end} is reversed: the end is smaller than the start"
            ));
        }
        if end == start {
            return Err(format!("seed range {start}..{end} is empty"));
        }
        Ok(SeedRange { start, end })
    }

    /// First seed (inclusive).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Last seed (exclusive).
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of seeds in the range.
    pub fn count(&self) -> u64 {
        self.end - self.start
    }

    /// The `A..B` spec string the CLI's `--seeds` flag accepts — the round
    /// trip `SeedRange::new` ∘ parse ∘ `spec` is the identity, which is how
    /// `semint sweep --workers` hands its range to its shard workers.
    pub fn spec(&self) -> String {
        format!("{}..{}", self.start, self.end)
    }
}

impl ScenarioSource for SeedRange {
    fn seeds(&self, _case: &str) -> Vec<u64> {
        (self.start..self.end).collect()
    }

    fn total(&self, cases: &[&str]) -> u64 {
        self.count() * cases.len() as u64
    }

    fn describe(&self) -> String {
        format!("seeds {}..{}", self.start, self.end)
    }
}

/// A deterministic k-of-n partition of a seed range: shard `index` takes
/// every seed whose offset into the range is ≡ `index` (mod `of`).
///
/// The `of` shards of a range are pairwise disjoint and jointly cover it,
/// and every aggregate in a [`semint_core::stats::CaseReport`] is
/// additive — so merging the per-shard reports (see
/// [`semint_core::stats::SweepReport::merge`]) reproduces the unsharded
/// sweep's digests exactly.  That makes `--shard 0/2` + `--shard 1/2` in
/// two processes equivalent to one unsharded sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    range: SeedRange,
    index: u64,
    of: u64,
}

impl Shard {
    /// Shard `index` of `of` over `range`; `index` must be below `of`.
    pub fn new(range: SeedRange, index: u64, of: u64) -> Result<Shard, String> {
        if of == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= of {
            return Err(format!(
                "shard index {index} is out of range for {of} shards (use 0..{of})"
            ));
        }
        Ok(Shard { range, index, of })
    }

    /// This shard's index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Total number of shards in the partition.
    pub fn of(&self) -> u64 {
        self.of
    }

    /// The `K/N` spec string the CLI's `--shard` flag accepts.  Because the
    /// partition is a pure function of `(range, index, of)`, re-issuing this
    /// spec to a fresh process reproduces the dead worker's seed slice
    /// exactly — the property `semint sweep --workers`'s crash recovery
    /// rests on.
    pub fn spec(&self) -> String {
        format!("{}/{}", self.index, self.of)
    }

    /// Number of seeds in this shard's slice.
    pub fn seed_count(&self) -> u64 {
        let total = self.range.count();
        let whole = total / self.of;
        let rem = total % self.of;
        whole + u64::from(self.index < rem)
    }
}

impl ScenarioSource for Shard {
    fn seeds(&self, _case: &str) -> Vec<u64> {
        // A first seed past `u64::MAX` lies past the range's end too.
        let Some(first) = self.range.start.checked_add(self.index) else {
            return Vec::new();
        };
        let step = usize::try_from(self.of).unwrap_or(usize::MAX);
        (first..self.range.end).step_by(step).collect()
    }

    fn total(&self, cases: &[&str]) -> u64 {
        self.seed_count() * cases.len() as u64
    }

    fn describe(&self) -> String {
        format!(
            "shard {}/{} of seeds {}..{}",
            self.index, self.of, self.range.start, self.range.end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_ranges_validate() {
        assert!(SeedRange::new(10, 5).unwrap_err().contains("reversed"));
        assert!(SeedRange::new(7, 7).unwrap_err().contains("empty"));
        let range = SeedRange::new(3, 9).unwrap();
        assert_eq!(range.count(), 6);
        assert_eq!(range.seeds("anything"), vec![3, 4, 5, 6, 7, 8]);
        assert_eq!(range.total(&["a", "b", "c"]), 18);
    }

    #[test]
    fn shards_partition_exactly() {
        let range = SeedRange::new(5, 25).unwrap();
        let of = 3;
        let mut combined: Vec<u64> = Vec::new();
        for index in 0..of {
            let shard = Shard::new(range, index, of).unwrap();
            let seeds = shard.seeds("any");
            // Disjointness: nothing this shard yields was yielded before.
            for seed in &seeds {
                assert!(!combined.contains(seed), "seed {seed} in two shards");
            }
            combined.extend(seeds);
        }
        combined.sort_unstable();
        assert_eq!(combined, range.seeds("any"), "shards must cover the range");
    }

    #[test]
    fn spec_strings_round_trip_and_seed_counts_match() {
        let range = SeedRange::new(3, 20).unwrap();
        assert_eq!(range.spec(), "3..20");
        let spec = range.spec();
        let (a, b) = spec.split_once("..").unwrap();
        let reparsed = SeedRange::new(a.parse().unwrap(), b.parse().unwrap()).unwrap();
        assert_eq!(reparsed, range);
        for of in 1..6u64 {
            for index in 0..of {
                let shard = Shard::new(range, index, of).unwrap();
                assert_eq!(shard.spec(), format!("{index}/{of}"));
                assert_eq!(
                    shard.seed_count(),
                    shard.seeds("any").len() as u64,
                    "closed-form count agrees with the enumerated slice"
                );
                assert_eq!(shard.total(&["a", "b"]), 2 * shard.seed_count());
            }
        }
        // More shards than seeds: the last ones are empty.
        let empty = Shard::new(SeedRange::new(0, 3).unwrap(), 4, 5).unwrap();
        assert!(empty.seeds("any").is_empty());
        assert_eq!((empty.seed_count(), empty.total(&["a"])), (0, 0));
        // Near `u64::MAX` the slice neither overflows nor wraps around.
        let top = SeedRange::new(u64::MAX - 3, u64::MAX).unwrap();
        let shard = Shard::new(top, 2, 5).unwrap();
        assert_eq!(shard.seeds("any"), vec![u64::MAX - 1]);
        let shard = Shard::new(top, 4, 5).unwrap();
        assert!(shard.seeds("any").is_empty());
        assert_eq!(shard.seed_count(), 0);
    }

    #[test]
    fn shard_validation_rejects_bad_indices() {
        let range = SeedRange::new(0, 10).unwrap();
        assert!(Shard::new(range, 0, 0).unwrap_err().contains("at least 1"));
        assert!(Shard::new(range, 2, 2)
            .unwrap_err()
            .contains("out of range"));
    }
}
