//! Live digest merge: folds per-shard sweep reports into one rolling
//! aggregate as workers finish, instead of waiting for the whole fleet.
//!
//! Every [`semint_core::stats::CaseReport`] aggregate folds associatively
//! and commutatively, so k-of-n shard reports merge into the digests — and
//! [`semint_core::VmCounters`] — of the unsharded sweep, byte for byte, in
//! *any* arrival order.  [`RollingMerge`] adds the bookkeeping the
//! supervisor needs on top: which shards have landed and whether the sweep
//! is complete.

use std::collections::BTreeSet;

use semint_core::stats::SweepReport;

/// A sweep's rolling merged report: shard results are absorbed as they
/// arrive, and the digests converge on the one-shot sweep's the moment the
/// last shard lands.
///
/// The merge tracks *which* shard indices have landed, not just how many:
/// crash recovery replays checkpointed shards into a fresh merge, and a
/// double-merged shard would double-count its seeds silently — so
/// [`RollingMerge::absorb_shard`] rejects a repeated index outright.
#[derive(Debug, Clone)]
pub struct RollingMerge {
    shards_total: u64,
    done: BTreeSet<u64>,
    report: SweepReport,
}

impl RollingMerge {
    /// An empty merge expecting `shards_total` shard reports.
    pub fn new(shards_total: u64) -> RollingMerge {
        RollingMerge {
            shards_total,
            done: BTreeSet::new(),
            report: SweepReport::default(),
        }
    }

    /// Folds shard `index`'s completed report into the rolling aggregate.
    /// Arrival order never matters: merge is associative and commutative
    /// across shards of one partition.  Absorbing the same index twice is
    /// an error — the caller is confusing attempts with shards.
    pub fn absorb_shard(&mut self, index: u64, shard: &SweepReport) -> Result<(), String> {
        if index >= self.shards_total {
            return Err(format!(
                "shard index {index} is out of range (merge expects {} shards)",
                self.shards_total
            ));
        }
        if !self.done.insert(index) {
            return Err(format!("shard {index} was already merged"));
        }
        self.report.merge(shard);
        Ok(())
    }

    /// Shards merged so far.
    pub fn shards_done(&self) -> u64 {
        self.done.len() as u64
    }

    /// Whether shard `index` has already been merged.
    pub fn is_done(&self, index: u64) -> bool {
        self.done.contains(&index)
    }

    /// Shards the sweep was split into.
    pub fn shards_total(&self) -> u64 {
        self.shards_total
    }

    /// True once every shard has been merged.
    pub fn is_complete(&self) -> bool {
        self.shards_done() == self.shards_total
    }

    /// The merged-so-far report.
    pub fn report(&self) -> &SweepReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::AnyCase;
    use crate::engine::{sweep_all, SweepConfig};
    use crate::source::{SeedRange, Shard};

    /// The property behind the whole subsystem: shard reports
    /// absorbed one by one — in any order — reproduce the unsharded sweep's
    /// digests and counters exactly.
    #[test]
    fn rolling_shard_merge_matches_the_one_shot_sweep() {
        let cases = AnyCase::all(false);
        let cfg = SweepConfig {
            jobs: 2,
            model_check: false,
            ..SweepConfig::default()
        };
        let range = SeedRange::new(0, 21).unwrap();
        let whole = sweep_all(&cases, &range, &cfg);
        for order in [[0u64, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut rolling = RollingMerge::new(3);
            assert!(!rolling.is_complete());
            for index in order {
                let shard = Shard::new(range, index, 3).unwrap();
                rolling
                    .absorb_shard(index, &sweep_all(&cases, &shard, &cfg))
                    .expect("each shard index merges once");
                assert!(rolling.is_done(index));
            }
            assert!(rolling.is_complete());
            assert_eq!(rolling.shards_done(), 3);
            let digests = |r: &SweepReport| r.cases.iter().map(|c| c.digest()).collect::<Vec<_>>();
            assert_eq!(
                digests(rolling.report()),
                digests(&whole),
                "digests must converge on the unsharded sweep (order {order:?})"
            );
            for (merged, direct) in rolling.report().cases.iter().zip(&whole.cases) {
                assert_eq!(
                    merged.counters, direct.counters,
                    "VmCounters must survive the rolling merge exactly"
                );
            }
        }
    }

    #[test]
    fn empty_merge_reports_no_cases() {
        let rolling = RollingMerge::new(2);
        assert!(rolling.report().cases.is_empty());
        assert_eq!(rolling.shards_total(), 2);
        assert!(!rolling.is_complete());
    }

    /// The recovery-critical property: a shard index can land exactly once,
    /// so a replayed checkpoint can never double-count its seeds.
    #[test]
    fn duplicate_and_out_of_range_shards_are_rejected() {
        let cases = AnyCase::all(false);
        let cfg = SweepConfig {
            model_check: false,
            ..SweepConfig::default()
        };
        let range = SeedRange::new(0, 6).unwrap();
        let shard = Shard::new(range, 0, 2).unwrap();
        let report = sweep_all(&cases, &shard, &cfg);
        let mut rolling = RollingMerge::new(2);
        rolling.absorb_shard(0, &report).expect("first merge");
        let scenarios = rolling.report().scenarios();
        let err = rolling.absorb_shard(0, &report).expect_err("duplicate");
        assert!(err.contains("already merged"), "{err}");
        let err = rolling.absorb_shard(2, &report).expect_err("out of range");
        assert!(err.contains("out of range"), "{err}");
        assert_eq!(
            rolling.report().scenarios(),
            scenarios,
            "rejected merges must not touch the aggregate"
        );
        assert_eq!(rolling.shards_done(), 1);
    }
}
