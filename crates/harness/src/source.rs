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
//!   of the unsharded sweep);
//! * [`Corpus`] — a persisted, replayable scenario set with its generation
//!   profile pinned, saved and loaded through a hand-rolled line format
//!   (the workspace deliberately vendors no serde).
//!
//! Generation is deterministic in `(case, seed, profile)`, so a corpus
//! needs to persist only those coordinates to reproduce a sweep — and its
//! digest — bit for bit.

use semint_core::case::{CaseStudy, ConstructorWeights, GenProfile};
use semint_core::Fuel;
use std::path::Path;

/// A supplier of scenario seeds for each case study in a sweep.
///
/// Implementations must be deterministic: the same source must hand the
/// same ordered seed list to the same case on every call, on every
/// process, for sweep digests to be reproducible.
pub trait ScenarioSource {
    /// The ordered seeds this source supplies for the named case study.
    fn seeds(&self, case: &str) -> Vec<u64>;

    /// The generation profile this source pins, if any.  A [`Corpus`]
    /// replays the profile it was saved with, overriding the sweep's
    /// configured profile so a reloaded corpus reproduces the identical
    /// digest no matter how the surrounding sweep is configured.
    fn pinned_profile(&self) -> Option<GenProfile> {
        None
    }

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
        (self.range.start..self.range.end)
            .filter(|seed| (seed - self.range.start) % self.of == self.index)
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "shard {}/{} of seeds {}..{}",
            self.index, self.of, self.range.start, self.range.end
        )
    }
}

/// One persisted scenario coordinate: deterministic generation means
/// `(case, seed)` plus the corpus's pinned profile reproduces the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The case study the scenario belongs to.
    pub case: String,
    /// The generation seed.
    pub seed: u64,
}

/// A persisted, replayable scenario set with its generation profile pinned.
///
/// The on-disk format is a hand-rolled, line-oriented text format (the
/// workspace vendors no serde): a version header, one `profile` line
/// carrying every knob, then one `scenario⟨TAB⟩case⟨TAB⟩seed` line per
/// entry.  [`Corpus::from_text`] validates the profile knobs on load, so a
/// hand-edited corpus with (say) a 250% boundary bias is rejected with a
/// friendly error instead of silently clamped.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    profile: GenProfile,
    entries: Vec<CorpusEntry>,
}

/// The header line identifying the corpus format.
const CORPUS_HEADER: &str = "# semint corpus v1";

impl Corpus {
    /// An empty corpus pinning `profile`.
    pub fn new(profile: GenProfile) -> Result<Corpus, String> {
        profile.validate()?;
        Ok(Corpus {
            profile,
            entries: Vec::new(),
        })
    }

    /// Records the exact scenario set `source` supplies for `cases` under
    /// `profile` — the corpus a sweep over that source would execute.
    pub fn record<C: CaseStudy>(
        cases: &[C],
        source: &dyn ScenarioSource,
        profile: GenProfile,
    ) -> Result<Corpus, String> {
        let mut corpus = Corpus::new(source.pinned_profile().unwrap_or(profile))?;
        for case in cases {
            for seed in source.seeds(case.name()) {
                corpus.entries.push(CorpusEntry {
                    case: case.name().to_string(),
                    seed,
                });
            }
        }
        Ok(corpus)
    }

    /// The pinned generation profile.
    pub fn profile(&self) -> GenProfile {
        self.profile
    }

    /// The persisted entries, in sweep order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of persisted scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the corpus holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the corpus to the line format documented on the type.
    pub fn to_text(&self) -> String {
        let fuel = match self.profile.fuel.remaining() {
            Some(steps) => steps.to_string(),
            None => "unlimited".into(),
        };
        let mut out = format!(
            "{CORPUS_HEADER}\nprofile\tname={}\ttype-depth={}\tdepth={}\tboundary-bias={}\t\
             weights={},{},{}\tfuel={}\n",
            self.profile.name,
            self.profile.type_depth,
            self.profile.max_depth,
            self.profile.boundary_bias,
            self.profile.weights.leaf,
            self.profile.weights.branch,
            self.profile.weights.wrap,
            fuel,
        );
        for entry in &self.entries {
            out.push_str(&format!("scenario\t{}\t{}\n", entry.case, entry.seed));
        }
        out
    }

    /// Parses the format produced by [`Corpus::to_text`], validating every
    /// profile knob.
    pub fn from_text(text: &str) -> Result<Corpus, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("corpus file is empty")?;
        if header.trim_end() != CORPUS_HEADER {
            return Err(format!(
                "not a semint corpus: expected header `{CORPUS_HEADER}`, found `{header}`"
            ));
        }
        let mut profile: Option<GenProfile> = None;
        let mut entries = Vec::new();
        for (lineno, line) in lines {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            let key = fields.next().unwrap_or_default();
            match key {
                "profile" => profile = Some(parse_profile_line(fields, lineno + 1)?),
                "scenario" => {
                    let case = fields
                        .next()
                        .ok_or_else(|| format!("line {}: scenario needs a case", lineno + 1))?;
                    let seed = fields
                        .next()
                        .ok_or_else(|| format!("line {}: scenario needs a seed", lineno + 1))?
                        .parse::<u64>()
                        .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?;
                    entries.push(CorpusEntry {
                        case: case.to_string(),
                        seed,
                    });
                }
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        let profile = profile.ok_or("corpus has no profile line")?;
        profile
            .validate()
            .map_err(|e| format!("corpus profile invalid: {e}"))?;
        Ok(Corpus { profile, entries })
    }

    /// Writes the corpus to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text())
            .map_err(|e| format!("saving corpus {}: {e}", path.display()))
    }

    /// Reads a corpus from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Corpus, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading corpus {}: {e}", path.display()))?;
        Corpus::from_text(&text).map_err(|e| format!("corpus {}: {e}", path.display()))
    }
}

/// Parses the tab-separated `key=value` fields of a `profile` line.
fn parse_profile_line<'a>(
    fields: impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<GenProfile, String> {
    let mut profile = GenProfile::standard();
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("line {lineno}: profile field `{field}` is not key=value"))?;
        let parse_num = |v: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|e| format!("line {lineno}: {key}: {e}"))
        };
        match key {
            // Preset names round-trip; anything else was already a
            // customized profile, whose knobs follow.
            "name" => {
                if let Some(preset) = GenProfile::by_name(value) {
                    profile = preset;
                } else {
                    profile.name = "custom";
                }
            }
            "type-depth" => profile.type_depth = parse_num(value)? as usize,
            "depth" => profile.max_depth = parse_num(value)? as usize,
            "boundary-bias" => profile.boundary_bias = parse_num(value)? as u32,
            "weights" => {
                let mut parts = value.split(',');
                let mut next = |what: &str| -> Result<u32, String> {
                    parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: weights missing {what}"))?
                        .parse::<u32>()
                        .map_err(|e| format!("line {lineno}: weights {what}: {e}"))
                };
                profile.weights = ConstructorWeights {
                    leaf: next("leaf")?,
                    branch: next("branch")?,
                    wrap: next("wrap")?,
                };
            }
            "fuel" => {
                profile.fuel = if value == "unlimited" {
                    Fuel::unlimited()
                } else {
                    Fuel::steps(parse_num(value)?)
                };
            }
            other => return Err(format!("line {lineno}: unknown profile knob {other:?}")),
        }
    }
    Ok(profile)
}

impl ScenarioSource for Corpus {
    fn seeds(&self, case: &str) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|e| e.case == case)
            .map(|e| e.seed)
            .collect()
    }

    fn pinned_profile(&self) -> Option<GenProfile> {
        Some(self.profile)
    }

    fn describe(&self) -> String {
        format!(
            "corpus of {} scenarios (profile {})",
            self.entries.len(),
            self.profile.name
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
            }
        }
    }

    #[test]
    fn shard_validation_rejects_bad_indices() {
        let range = SeedRange::new(0, 10).unwrap();
        assert!(Shard::new(range, 0, 0).unwrap_err().contains("at least 1"));
        assert!(Shard::new(range, 2, 2)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn corpus_round_trips_through_its_text_format() {
        let mut profile = GenProfile::deep();
        profile.boundary_bias = 60;
        profile.name = "custom";
        let mut corpus = Corpus::new(profile).unwrap();
        corpus.entries.push(CorpusEntry {
            case: "sharedmem".into(),
            seed: 17,
        });
        corpus.entries.push(CorpusEntry {
            case: "memgc".into(),
            seed: 3,
        });
        let parsed = Corpus::from_text(&corpus.to_text()).unwrap();
        assert_eq!(parsed, corpus);
        assert_eq!(parsed.pinned_profile().unwrap().boundary_bias, 60);
        assert_eq!(parsed.seeds("sharedmem"), vec![17]);
        assert_eq!(parsed.seeds("affine"), Vec::<u64>::new());
    }

    #[test]
    fn corpus_load_rejects_garbage_and_invalid_knobs() {
        assert!(Corpus::from_text("not a corpus")
            .unwrap_err()
            .contains("header"));
        let bad_bias = format!("{CORPUS_HEADER}\nprofile\tboundary-bias=250\n");
        assert!(Corpus::from_text(&bad_bias).unwrap_err().contains("0-100"));
        let no_profile = format!("{CORPUS_HEADER}\nscenario\taffine\t4\n");
        assert!(Corpus::from_text(&no_profile)
            .unwrap_err()
            .contains("no profile"));
        let bad_key = format!("{CORPUS_HEADER}\nprofile\tname=smoke\nnonsense\t1\n");
        assert!(Corpus::from_text(&bad_key)
            .unwrap_err()
            .contains("unknown key"));
    }

    #[test]
    fn unlimited_fuel_round_trips() {
        let mut profile = GenProfile::smoke();
        profile.fuel = Fuel::unlimited();
        let corpus = Corpus::new(profile).unwrap();
        let parsed = Corpus::from_text(&corpus.to_text()).unwrap();
        assert_eq!(parsed.profile().fuel, Fuel::unlimited());
    }
}
