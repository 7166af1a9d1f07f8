//! # semint-harness
//!
//! The unified scenario engine over all three case studies.
//!
//! The paper instantiates its framework once per language pair; the
//! reproduction's case-study crates each expose the same pipeline shape
//! (generate → typecheck → compile → run → model-check, the model check
//! judging the run's report) through the [`CaseStudy`] trait in
//! `semint-core`.  This crate supplies everything
//! generic on top of that trait:
//!
//! * [`source`] — the [`source::ScenarioSource`] abstraction over *where a
//!   sweep's workload comes from*: a seed range, or a deterministic k-of-n
//!   [`source::Shard`] of one (sweeps compose across processes);
//! * [`engine`] — a parallel batch runner with deterministic per-task seed
//!   splitting and a work-stealing thread pool (std threads + mutex deques,
//!   no external dependencies), producing the shared
//!   [`CaseReport`] aggregates; tasks are contiguous `--batch N` groups of
//!   same-case scenarios whose compiled artifacts execute through **one**
//!   reused machine ([`CaseStudy::execute_batch`]), digest-identically to
//!   per-scenario execution;
//! * [`shrink`] — greedy structural counterexample shrinking for scenarios
//!   that fail type safety or model checking;
//! * [`cases`] — the [`cases::AnyCase`] dispatcher that erases the three
//!   case studies into one task type so a single pool can interleave all of
//!   them;
//! * [`report`] — plain-text rendering of sweep reports for the `semint`
//!   CLI binary shipped by this crate (`run`, `check`, `sweep`, `report`
//!   subcommands); the one persisted report is the TSV of
//!   [`SweepReport::to_tsv`], failure witnesses and each case's hottest
//!   seeds included, and on a `--time` sweep it explains time per layer:
//!   stage shares, the engine's own `other` time, and run ns per retired
//!   instruction;
//! * [`observe`] — the `--progress` live stderr line (the heartbeat of
//!   supervised shard workers) and the `--die-after`/`--wedge-after` fault
//!   hooks, strictly observational — observed and unobserved sweeps agree
//!   on digests and counters byte for byte;
//! * [`fleet`] — `semint sweep --workers N`: a supervisor that runs a sweep
//!   as N `semint sweep --shard` child processes (re-issuing the exact
//!   slice of any worker that crashes or wedges) and merges their reports
//!   into digests byte-identical to a one-shot sweep.  It is crash-safe:
//!   an fsync'd journal plus checkpointed shard reports in the state dir
//!   let `--resume` finish a killed sweep, re-running only unaccounted
//!   shards, and `semint chaos` drills exactly that with seed-derived
//!   fault schedules.
//!
//! ## Example
//!
//! ```
//! use semint_harness::cases::AnyCase;
//! use semint_harness::engine::{sweep_all, SweepConfig};
//! use semint_harness::source::SeedRange;
//!
//! let cases = AnyCase::all(false);
//! let source = SeedRange::new(0, 16).unwrap();
//! let cfg = SweepConfig { jobs: 2, ..SweepConfig::default() };
//! let report = sweep_all(&cases, &source, &cfg);
//! assert_eq!(report.scenarios(), 48); // 16 seeds × 3 case studies
//! assert_eq!(report.failure_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cases;
pub mod engine;
pub mod fleet;
pub mod observe;
pub mod report;
pub mod shrink;
pub mod source;

pub use cases::{AnyCase, AnyCompiled};
pub use engine::{sweep_all, sweep_all_observed, sweep_case, SweepConfig};
pub use observe::SweepObserver;
pub use semint_core::case::{CaseStudy, CheckFailure, GenProfile, Scenario};
pub use semint_core::stats::{CaseReport, SweepReport};
pub use source::{ScenarioSource, SeedRange, Shard};
