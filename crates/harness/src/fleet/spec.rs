//! What a supervised sweep sweeps: the [`SweepSpec`] its journal records,
//! and the [`FaultPlan`] that sabotages one shard for recovery tests.

use semint_core::case::GenProfile;

use crate::cases::AnyCase;
use crate::engine::MAX_SEEDS_PER_SWEEP;
use crate::source::{SeedRange, Shard};

/// How an injected fault sabotages its shard's first attempt.  Each kind
/// exercises one branch of the supervisor's death classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker aborts mid-sweep with a nonzero exit (`--die-after`).
    Crash,
    /// The worker goes silent without exiting (`--wedge-after`); only the
    /// heartbeat timeout can catch it.
    Wedge,
    /// The worker exits cleanly but its saved report is garbage
    /// (`--corrupt-save garbage`).
    CorruptReport,
    /// The worker exits cleanly but its saved report is cut mid-line
    /// (`--corrupt-save truncate`).
    TruncateReport,
}

impl FaultKind {
    /// Every kind, in the order the chaos schedule cycles through them.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Crash,
        FaultKind::Wedge,
        FaultKind::CorruptReport,
        FaultKind::TruncateReport,
    ];

    /// The journal/CLI label for this kind.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Wedge => "wedge",
            FaultKind::CorruptReport => "corrupt-report",
            FaultKind::TruncateReport => "truncate-report",
        }
    }

    /// Parses a journal/CLI label back into a kind.
    pub fn from_label(label: &str) -> Result<FaultKind, String> {
        FaultKind::ALL
            .into_iter()
            .find(|kind| kind.label() == label)
            .ok_or_else(|| {
                let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
                format!(
                    "unknown fault kind {label:?} (expected one of: {})",
                    known.join(" | ")
                )
            })
    }
}

/// An injected fault for crash-recovery testing: shard `shard`'s *first*
/// attempt is sabotaged per `kind` once `after` scenarios have finished,
/// so the supervisor must classify the death and re-issue the slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which shard index is sabotaged (0-based).
    pub shard: u64,
    /// After how many completed scenarios the fault fires.
    pub after: u64,
    /// How the shard misbehaves.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// The `sweep --workers` flags that inject this fault.
    pub fn args(&self) -> Vec<String> {
        vec![
            "--fault-shard".into(),
            self.shard.to_string(),
            "--fault-after".into(),
            self.after.to_string(),
            "--fault-kind".into(),
            self.kind.label().into(),
        ]
    }
}

/// One supervised sweep: a seed range, a *preset* profile name (custom
/// knobs have no flag-free spelling, so workers rebuild the identical
/// profile by name), and the fan-out/execution shape.  A state dir holds
/// exactly one sweep; its journal's first line records this spec, and
/// `--resume` refuses a command whose spec differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Seed range `[start, end)`.
    pub seeds: (u64, u64),
    /// Preset profile name (`smoke` / `default` / `deep` / `boundary-heavy`).
    pub profile: String,
    /// Case study name, or `all`.
    pub case: String,
    /// How many shards the range is split into, all run concurrently.
    pub workers: u64,
    /// `--jobs` threads inside each worker.
    pub jobs: usize,
    /// `--batch` size inside each worker.
    pub batch: usize,
    /// Whether workers run the realizability-model stage.
    pub model_check: bool,
    /// Optional injected fault, for supervision tests and the chaos drill.
    pub fault: Option<FaultPlan>,
}

impl SweepSpec {
    /// Checks the spec against everything a worker would reject, so a bad
    /// sweep fails before any process is spawned instead of as a dead
    /// child.
    pub fn validate(&self) -> Result<(), String> {
        let range = SeedRange::new(self.seeds.0, self.seeds.1)?;
        if range.count() > MAX_SEEDS_PER_SWEEP {
            return Err(format!(
                "seed range {} holds {} seeds, exceeding the per-sweep cap of {MAX_SEEDS_PER_SWEEP}",
                range.spec(),
                range.count()
            ));
        }
        if GenProfile::by_name(&self.profile).is_none() {
            return Err(format!(
                "profile {:?} is not a preset (expected one of: {})",
                self.profile,
                GenProfile::PRESET_NAMES.join(" | ")
            ));
        }
        if self.case != "all" && AnyCase::by_name(&self.case, false).is_none() {
            return Err(format!("unknown case {:?}", self.case));
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        // Shard::new is the single source of truth for shard validity.
        Shard::new(range, 0, self.workers)?;
        if let Some(fault) = self.fault {
            if fault.shard >= self.workers {
                return Err(format!(
                    "fault shard {} is out of range (the sweep has {} shards)",
                    fault.shard, self.workers
                ));
            }
            if fault.after == 0 {
                return Err("fault after must be at least 1 scenario".into());
            }
        }
        Ok(())
    }

    /// The seed range this sweep covers.
    pub fn range(&self) -> SeedRange {
        SeedRange::new(self.seeds.0, self.seeds.1).expect("validated before use")
    }

    /// Shard `index` of the sweep's `workers`-way partition.
    pub fn shard(&self, index: u64) -> Shard {
        Shard::new(self.range(), index, self.workers).expect("index below the validated count")
    }

    /// The `semint sweep` flags that select this spec's population and
    /// execution shape (everything but the fan-out and the fault).
    pub fn sweep_args(&self) -> Vec<String> {
        let mut args = vec![
            "--seeds".into(),
            self.range().spec(),
            "--profile".into(),
            self.profile.clone(),
            "--case".into(),
            self.case.clone(),
            "--jobs".into(),
            self.jobs.to_string(),
            "--batch".into(),
            self.batch.to_string(),
        ];
        if !self.model_check {
            args.push("--no-model-check".into());
        }
        args
    }

    /// Every field as a (name, rendered value) pair, for naming differences.
    fn fields(&self) -> [(&'static str, String); 8] {
        [
            ("seeds", self.range().spec()),
            ("profile", self.profile.clone()),
            ("case", self.case.clone()),
            ("workers", self.workers.to_string()),
            ("jobs", self.jobs.to_string()),
            ("batch", self.batch.to_string()),
            ("model check", self.model_check.to_string()),
            (
                "fault",
                match self.fault {
                    None => "none".into(),
                    Some(f) => format!("{} on shard {} after {}", f.kind.label(), f.shard, f.after),
                },
            ),
        ]
    }

    /// The fields on which `other` differs from `self`, each rendered as
    /// `name: self-value vs other-value`; empty when the specs agree.
    pub fn differences(&self, other: &SweepSpec) -> Vec<String> {
        self.fields()
            .into_iter()
            .zip(other.fields())
            .filter(|((_, mine), (_, theirs))| mine != theirs)
            .map(|((name, mine), (_, theirs))| format!("{name}: {mine} vs {theirs}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            seeds: (0, 40),
            profile: "default".into(),
            case: "all".into(),
            workers: 2,
            jobs: 1,
            batch: 1,
            model_check: false,
            fault: None,
        }
    }

    #[test]
    fn invalid_specs_are_rejected_before_any_spawn() {
        assert_eq!(spec().validate(), Ok(()));
        let cases: Vec<(SweepSpec, &str)> = vec![
            (
                SweepSpec {
                    seeds: (9, 3),
                    ..spec()
                },
                "seed",
            ),
            (
                SweepSpec {
                    profile: "custom".into(),
                    ..spec()
                },
                "preset",
            ),
            (
                SweepSpec {
                    case: "nope".into(),
                    ..spec()
                },
                "case",
            ),
            (SweepSpec { jobs: 0, ..spec() }, "jobs"),
            (SweepSpec { batch: 0, ..spec() }, "batch"),
            (
                SweepSpec {
                    workers: 0,
                    ..spec()
                },
                "at least 1",
            ),
            (
                SweepSpec {
                    fault: Some(FaultPlan {
                        shard: 2,
                        after: 1,
                        kind: FaultKind::Crash,
                    }),
                    ..spec()
                },
                "fault shard",
            ),
            (
                SweepSpec {
                    fault: Some(FaultPlan {
                        shard: 0,
                        after: 0,
                        kind: FaultKind::Wedge,
                    }),
                    ..spec()
                },
                "at least 1",
            ),
        ];
        for (bad, needle) in cases {
            let err = bad.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn fault_kind_labels_round_trip_and_bad_labels_bounce() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(kind.label()), Ok(kind));
        }
        let err = FaultKind::from_label("segfault").expect_err("unknown kind");
        assert!(err.contains("crash | wedge"), "{err}");
    }

    #[test]
    fn differences_name_exactly_the_fields_that_differ() {
        assert!(spec().differences(&spec()).is_empty());
        let other = SweepSpec {
            seeds: (0, 60),
            workers: 3,
            ..spec()
        };
        assert_eq!(
            spec().differences(&other),
            vec!["seeds: 0..40 vs 0..60", "workers: 2 vs 3"]
        );
        let faulted = SweepSpec {
            fault: Some(FaultPlan {
                shard: 1,
                after: 5,
                kind: FaultKind::Wedge,
            }),
            ..spec()
        };
        assert_eq!(
            spec().differences(&faulted),
            vec!["fault: none vs wedge on shard 1 after 5"]
        );
    }

    #[test]
    fn sweep_args_spell_the_population_and_shape() {
        assert_eq!(
            spec().sweep_args().join(" "),
            "--seeds 0..40 --profile default --case all --jobs 1 --batch 1 --no-model-check"
        );
        let checked = SweepSpec {
            model_check: true,
            ..spec()
        };
        assert!(!checked.sweep_args().contains(&"--no-model-check".into()));
    }
}
