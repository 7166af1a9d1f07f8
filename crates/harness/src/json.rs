//! Machine-readable bench results: the `semint bench --json PATH` format.
//!
//! Future PRs track a performance trajectory across commits, which needs the
//! per-stage totals, throughput and digests in a format a script can diff —
//! not the aligned human rendering.  The writer and parser here are
//! hand-rolled (the workspace is offline; no serde), matching the corpus
//! format's no-deps style: [`render_bench_json`] emits one self-describing
//! JSON document, and [`parse_bench_json`] reads it back into the same
//! [`SweepReport`] aggregates, so `semint report` renders saved JSON benches
//! exactly like saved TSV sweeps and a round trip preserves every digest.

use semint_core::stats::{CaseReport, FailStage, FailureRecord, StageTimings, SweepReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The current version of every JSON document this crate writes: the bench
/// format here and every line of the supervised sweep's durable journal
/// stamp their documents with `"version": FORMAT_VERSION` so the one format
/// can evolve.
/// Parsers tolerate an *absent* field (the v1 documents written before the
/// field existed) and reject versions newer than they understand.
pub const FORMAT_VERSION: u64 = 2;

/// Reads the shared `version` field of a parsed document: absent means v1,
/// anything above [`FORMAT_VERSION`] is from a newer writer and rejected.
pub(crate) fn document_version(doc: &Json) -> Result<u64, String> {
    let version = match doc.get("version") {
        None => 1,
        Some(value) => value.as_u64("version")?,
    };
    if version > FORMAT_VERSION {
        return Err(format!(
            "document version {version} is newer than this binary understands \
             (up to {FORMAT_VERSION}); upgrade semint"
        ));
    }
    Ok(version)
}

/// The sweep-independent facts of one bench invocation, carried alongside
/// the per-case aggregates in the JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeta {
    /// The generation profile's name.
    pub profile: String,
    /// How many repeats ran (the document carries the best one).
    pub repeat: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Compiled artifacts executed per reused machine (`--batch N`; 1 means
    /// one machine per scenario).
    pub batch: usize,
    /// Whether the realizability-model stage ran.
    pub model_check: bool,
    /// Whether the glue cache was bypassed (`--cold`).
    pub cold: bool,
    /// Best-repeat wall clock in nanoseconds.
    pub wall_ns: u64,
    /// Whether every repeat produced identical digests.
    pub digests_stable: bool,
}

impl BenchMeta {
    /// Scenarios per second over the best repeat's wall clock.
    pub fn throughput_per_s(&self, scenarios: u64) -> f64 {
        scenarios as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a bench report as a JSON document (pretty-printed, stable key
/// order, trailing newline).
pub fn render_bench_json(meta: &BenchMeta, report: &SweepReport) -> String {
    let scenarios = report.scenarios();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"semint_bench\": 1,");
    let _ = writeln!(out, "  \"version\": {FORMAT_VERSION},");
    let _ = writeln!(out, "  \"profile\": \"{}\",", escape_json(&meta.profile));
    let _ = writeln!(out, "  \"repeat\": {},", meta.repeat);
    let _ = writeln!(out, "  \"jobs\": {},", meta.jobs);
    let _ = writeln!(out, "  \"batch\": {},", meta.batch);
    let _ = writeln!(out, "  \"model_check\": {},", meta.model_check);
    let _ = writeln!(out, "  \"cold\": {},", meta.cold);
    let _ = writeln!(out, "  \"wall_ns\": {},", meta.wall_ns);
    let _ = writeln!(out, "  \"scenarios\": {scenarios},");
    let _ = writeln!(
        out,
        "  \"throughput_per_s\": {:.1},",
        meta.throughput_per_s(scenarios)
    );
    let _ = writeln!(out, "  \"digests_stable\": {},", meta.digests_stable);
    out.push_str("  \"cases\": [\n");
    for (idx, case) in report.cases.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"case\": \"{}\",", escape_json(&case.case));
        let _ = writeln!(out, "      \"scenarios\": {},", case.scenarios);
        let _ = writeln!(out, "      \"total_steps\": {},", case.total_steps);
        let _ = writeln!(
            out,
            "      \"total_boundaries\": {},",
            case.total_boundaries
        );
        let _ = writeln!(
            out,
            "      \"total_program_chars\": {},",
            case.total_program_chars
        );
        let _ = writeln!(out, "      \"glue_hits\": {},", case.glue_hits);
        let _ = writeln!(out, "      \"glue_misses\": {},", case.glue_misses);
        out.push_str("      \"counters\": {");
        for (i, (key, value)) in case.counters.fields().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": {value}");
        }
        out.push_str("},\n");
        let _ = writeln!(out, "      \"failures\": {},", case.failures.len());
        out.push_str("      \"outcomes\": {");
        for (i, (label, count)) in case.outcome_histogram.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {count}", escape_json(label));
        }
        out.push_str("},\n");
        if let Some(timings) = &case.timings {
            out.push_str("      \"stages_ns\": {");
            for (i, (label, ns)) in timings.stages().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{label}\": {ns}");
            }
            out.push_str("},\n");
        }
        let _ = writeln!(out, "      \"digest\": \"{}\"", escape_json(&case.digest()));
        out.push_str(if idx + 1 < report.cases.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough for the document the writer emits
// (objects, arrays, strings, numbers, booleans), with friendly errors.

/// A parsed JSON value.  Numbers keep their source text so integer fields
/// round-trip without a float detour.  Shared with the trace-profile reader
/// (`semint profile` parses JSONL lines with the same machinery).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// An object, in source order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string (escapes resolved).
    Str(String),
    /// A number, as written.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn require<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(text) => text
                .parse::<u64>()
                .map_err(|e| format!("{what}: {text:?} is not a non-negative integer ({e})")),
            other => Err(format!("{what}: expected a number, got {other:?}")),
        }
    }

    pub(crate) fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected a boolean, got {other:?}")),
        }
    }

    pub(crate) fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }
}

pub(crate) struct Reader<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// 1-based line of the next unconsumed character.
    line: usize,
    /// 1-based column of the next unconsumed character.
    column: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            chars: text.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    /// Consumes one character, keeping the line/column cursor current so
    /// parse errors can say where they happened.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.column = 1;
            }
            Some(_) => self.column += 1,
            None => {}
        }
        c
    }

    /// The reader's current position, for error context.
    pub(crate) fn position(&self) -> String {
        format!("line {}, column {}", self.line, self.column)
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, wanted: char) -> Result<(), String> {
        self.skip_ws();
        match self.bump() {
            Some(c) if c == wanted => Ok(()),
            Some(c) => Err(format!("expected {wanted:?}, found {c:?}")),
            None => Err(format!("expected {wanted:?}, found end of input")),
        }
    }

    pub(crate) fn peek_after_ws(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.peek().copied()
    }

    pub(crate) fn value(&mut self) -> Result<Json, String> {
        match self.peek_after_ws() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Json::Str),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character {c:?}")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for wanted in word.chars() {
            match self.bump() {
                Some(c) if c == wanted => {}
                other => return Err(format!("malformed literal `{word}` (at {other:?})")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        while let Some(&c) = self.chars.peek() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // Validate through the float grammar; integer consumers re-parse.
        text.parse::<f64>()
            .map_err(|e| format!("malformed number {text:?}: {e}"))?;
        Ok(Json::Num(text))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("malformed \\u escape")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        if self.peek_after_ws() == Some('}') {
            self.bump();
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected ',' or '}}' in object, found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        if self.peek_after_ws() == Some(']') {
            self.bump();
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek_after_ws() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']' in array, found {other:?}")),
            }
        }
    }
}

/// Parses a document produced by [`render_bench_json`], rebuilding the
/// [`SweepReport`] aggregates (failure counts are restored as placeholder
/// records, like the TSV reader) and verifying the recorded per-case digest
/// still matches the re-computed one.
pub fn parse_bench_json(text: &str) -> Result<(BenchMeta, SweepReport), String> {
    parse_bench_json_with_counter_keys(text).map(|(meta, report, _)| (meta, report))
}

/// Like [`parse_bench_json`], but additionally returns the set of counter
/// keys the document actually carried.  `semint bench-diff` compares
/// counters key by key against this set: a baseline written before a counter
/// existed reads the counter back as zero, which must not register as drift
/// against a current run that records it.
pub fn parse_bench_json_with_counter_keys(
    text: &str,
) -> Result<(BenchMeta, SweepReport, std::collections::BTreeSet<String>), String> {
    let mut reader = Reader::new(text);
    let doc = match reader.value() {
        Ok(doc) => doc,
        Err(e) => return Err(format!("{} ({e})", reader.position())),
    };
    if let Some(trailing) = reader.peek_after_ws() {
        return Err(format!(
            "{}: trailing content after document: {trailing:?}",
            reader.position()
        ));
    }
    doc.require("semint_bench")?
        .as_u64("semint_bench")
        .and_then(|v| match v {
            1 => Ok(()),
            other => Err(format!("unsupported semint_bench version {other}")),
        })?;
    document_version(&doc)?;
    let meta = BenchMeta {
        profile: doc.require("profile")?.as_str("profile")?.to_string(),
        repeat: doc.require("repeat")?.as_u64("repeat")? as usize,
        jobs: doc.require("jobs")?.as_u64("jobs")? as usize,
        // Documents written before batched execution carry no batch size;
        // they ran one scenario per machine.
        batch: match doc.get("batch") {
            Some(value) => value.as_u64("batch")? as usize,
            None => 1,
        },
        model_check: doc.require("model_check")?.as_bool("model_check")?,
        cold: doc.require("cold")?.as_bool("cold")?,
        wall_ns: doc.require("wall_ns")?.as_u64("wall_ns")?,
        digests_stable: doc.require("digests_stable")?.as_bool("digests_stable")?,
    };
    let Json::Array(cases) = doc.require("cases")? else {
        return Err("\"cases\": expected an array".into());
    };
    let mut report = SweepReport::default();
    let mut counter_keys = std::collections::BTreeSet::new();
    for entry in cases {
        let mut case = CaseReport::new(entry.require("case")?.as_str("case")?);
        case.scenarios = entry.require("scenarios")?.as_u64("scenarios")?;
        case.total_steps = entry.require("total_steps")?.as_u64("total_steps")?;
        case.total_boundaries = entry
            .require("total_boundaries")?
            .as_u64("total_boundaries")?;
        case.total_program_chars = entry
            .require("total_program_chars")?
            .as_u64("total_program_chars")?;
        case.glue_hits = entry.require("glue_hits")?.as_u64("glue_hits")?;
        case.glue_misses = entry.require("glue_misses")?.as_u64("glue_misses")?;
        // Documents written before VM telemetry carry no counters object;
        // their counters stay zero.
        if let Some(Json::Object(counters)) = entry.get("counters") {
            for (key, value) in counters {
                if !case.counters.set_field(key, value.as_u64(key)?) {
                    return Err(format!("\"counters\": unknown counter {key:?}"));
                }
                counter_keys.insert(key.clone());
            }
        }
        let Json::Object(outcomes) = entry.require("outcomes")? else {
            return Err("\"outcomes\": expected an object".into());
        };
        let mut histogram = BTreeMap::new();
        for (label, count) in outcomes {
            histogram.insert(label.clone(), count.as_u64(label)?);
        }
        case.outcome_histogram = histogram;
        if let Some(Json::Object(stages)) = entry.get("stages_ns") {
            let mut timings = StageTimings::default();
            for (label, ns) in stages {
                timings.set_stage(label, ns.as_u64(label)?)?;
            }
            case.timings = Some(timings);
        }
        for _ in 0..entry.require("failures")?.as_u64("failures")? {
            case.failures.push(FailureRecord {
                seed: 0,
                stage: FailStage::ModelCheck,
                reason: "(not serialised)".into(),
                witness: String::new(),
                shrunk: String::new(),
                shrink_steps: 0,
            });
        }
        let recorded = entry.require("digest")?.as_str("digest")?;
        if recorded != case.digest() {
            return Err(format!(
                "case {}: recorded digest does not match the aggregates\n  recorded: {recorded}\n  computed: {}",
                case.case,
                case.digest()
            ));
        }
        report.cases.push(case);
    }
    Ok((meta, report, counter_keys))
}

/// True when `text` looks like a bench JSON document rather than a TSV
/// report (`semint report` accepts both).
pub fn looks_like_bench_json(text: &str) -> bool {
    text.trim_start().starts_with('{')
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::stats::{OutcomeClass, RunStats, ScenarioRecord};

    fn sample_report() -> SweepReport {
        let mut case = CaseReport::new("sharedmem");
        for seed in 0..5u64 {
            case.absorb(&ScenarioRecord {
                seed,
                ty: "bool".into(),
                program_chars: 12,
                boundaries: 3,
                stats: Some(RunStats {
                    outcome: if seed == 0 {
                        OutcomeClass::OutOfFuel
                    } else {
                        OutcomeClass::Value
                    },
                    steps: 10 + seed,
                    counters: semint_core::VmCounters {
                        instr_data: 6 + seed,
                        instr_control: 2,
                        instr_fun: 1,
                        instr_heap: 1 + seed,
                        boundary_crossings: 3,
                        heap_allocs: 1 + seed,
                        heap_frees: seed,
                        heap_reuses: seed / 2,
                        heap_peak_live: 1 + seed,
                        stack_peak: 4,
                    },
                }),
                failure: None,
                timings: Some(StageTimings {
                    generate_ns: 5,
                    typecheck_ns: 4,
                    compile_ns: 3,
                    run_ns: 2,
                    model_check_ns: 1,
                }),
            });
        }
        case.glue_hits = 40;
        case.glue_misses = 2;
        SweepReport { cases: vec![case] }
    }

    fn sample_meta() -> BenchMeta {
        BenchMeta {
            profile: "deep".into(),
            repeat: 3,
            jobs: 2,
            batch: 8,
            model_check: true,
            cold: false,
            wall_ns: 250_000_000,
            digests_stable: true,
        }
    }

    #[test]
    fn bench_json_round_trips_every_digest_and_stage_total() {
        let report = sample_report();
        let meta = sample_meta();
        let text = render_bench_json(&meta, &report);
        assert!(looks_like_bench_json(&text));
        let (parsed_meta, parsed) = parse_bench_json(&text).expect("round trip");
        assert_eq!(parsed_meta, meta);
        assert_eq!(parsed_meta.batch, 8);
        assert_eq!(parsed.cases.len(), 1);
        assert_eq!(parsed.cases[0].digest(), report.cases[0].digest());
        assert_eq!(parsed.cases[0].timings, report.cases[0].timings);
        assert_eq!(parsed.cases[0].glue_hits, 40);
        assert_eq!(parsed.cases[0].glue_misses, 2);
        assert_eq!(
            parsed.cases[0].outcome_histogram,
            report.cases[0].outcome_histogram
        );
        assert_eq!(parsed.cases[0].counters, report.cases[0].counters);
    }

    #[test]
    fn documents_without_counters_default_to_zero() {
        let text = render_bench_json(&sample_meta(), &sample_report());
        let start = text.find("      \"counters\": {").expect("counters line");
        let end = text[start..].find('\n').expect("line end") + start + 1;
        let legacy = format!("{}{}", &text[..start], &text[end..]);
        assert_ne!(text, legacy, "the sample must contain the counters field");
        let (_, parsed) = parse_bench_json(&legacy).expect("legacy documents still parse");
        assert!(parsed.cases[0].counters.is_zero());
    }

    #[test]
    fn counter_keys_reflect_what_the_document_carried() {
        let text = render_bench_json(&sample_meta(), &sample_report());
        let (_, _, keys) = parse_bench_json_with_counter_keys(&text).expect("parse");
        assert!(keys.contains("heap_frees"));
        assert!(keys.contains("instr_data"));
        // A baseline written before a counter existed does not list it.
        let legacy = text
            .replace("\"heap_frees\": 10, ", "")
            .replace("\"heap_reuses\": 4, ", "");
        assert_ne!(text, legacy, "the sample must carry the new counters");
        let (_, report, keys) = parse_bench_json_with_counter_keys(&legacy).expect("parse legacy");
        assert!(!keys.contains("heap_frees"));
        assert!(keys.contains("heap_allocs"));
        assert_eq!(report.cases[0].counters.heap_frees, 0, "absent reads zero");
    }

    #[test]
    fn tampered_aggregates_fail_the_recorded_digest_check() {
        let text = render_bench_json(&sample_meta(), &sample_report());
        let tampered = text.replace("\"total_steps\": 60", "\"total_steps\": 61");
        assert_ne!(text, tampered, "the sample must contain the edited field");
        let err = parse_bench_json(&tampered).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn malformed_documents_are_friendly_errors() {
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("{").unwrap_err().contains("end of input"));
        assert!(parse_bench_json("{}").unwrap_err().contains("semint_bench"));
        assert!(parse_bench_json("{\"semint_bench\": 2, \"cases\": []}")
            .unwrap_err()
            .contains("version"));
        let text = render_bench_json(&sample_meta(), &sample_report());
        assert!(parse_bench_json(&format!("{text} garbage"))
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn version_field_round_trips_and_future_versions_are_rejected() {
        let text = render_bench_json(&sample_meta(), &sample_report());
        assert!(text.contains(&format!("\"version\": {FORMAT_VERSION}")));
        // Absent version = a v1 document written before the field existed.
        let legacy = text.replace(&format!("  \"version\": {FORMAT_VERSION},\n"), "");
        assert_ne!(text, legacy, "the sample must carry the version field");
        assert!(parse_bench_json(&legacy).is_ok());
        // A newer writer's document is rejected with an upgrade hint.
        let future = text.replace(&format!("\"version\": {FORMAT_VERSION}"), "\"version\": 99");
        let err = parse_bench_json(&future).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn parse_errors_carry_line_and_column_context() {
        let err = parse_bench_json("{\n  \"semint_bench\": 1,\n  oops\n}").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = parse_bench_json("{\"semint_bench\": 1, }").unwrap_err();
        assert!(err.contains("column"), "{err}");
    }

    #[test]
    fn documents_without_a_batch_size_default_to_one_per_machine() {
        let text = render_bench_json(&sample_meta(), &sample_report());
        let legacy = text.replace("  \"batch\": 8,\n", "");
        assert_ne!(text, legacy, "the sample must contain the batch field");
        let (meta, _) = parse_bench_json(&legacy).expect("legacy documents still parse");
        assert_eq!(meta.batch, 1);
    }

    #[test]
    fn strings_with_special_characters_survive() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let mut reader = Reader::new("\"a\\\"b\\\\c\\nd\\u0041\"");
        assert_eq!(reader.string().unwrap(), "a\"b\\c\ndA");
    }

    #[test]
    fn throughput_is_scenarios_over_wall_seconds() {
        let meta = sample_meta();
        let per_s = meta.throughput_per_s(1000);
        assert!((per_s - 4000.0).abs() < 1e-6, "{per_s}");
    }
}
