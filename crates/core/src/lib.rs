//! # semint-core
//!
//! Framework core for the *semantic soundness for language interoperability*
//! reproduction (Patterson, Mushtak, Wagner & Ahmed, PLDI 2022).
//!
//! The paper's framework has five steps (paper §2):
//!
//! 1. **Boundary syntax** — a language `A` embeds language-`B` code via a
//!    boundary form `⦇e⦈τ`.  Each source language's AST has its own boundary
//!    node, since it must carry the foreign expression.
//! 2. **Convertibility rules** — the designer declares `τA ∼ τB`, witnessed by
//!    target-level glue code `C_{τA↦τB}` and `C_{τB↦τA}`.  Each language pair
//!    states this judgment as one [`ConversionScheme`], a structural
//!    derivation memoized by a [`GlueCache`]; its typechecker and compiler
//!    both ask that scheme ([`convert`]).
//! 3. **Realizability models** — source types are interpreted as sets of
//!    *target* terms; the shared machinery (step indices, fuel, error codes)
//!    lives in [`fuel`], [`outcome`] and [`world`].
//! 4. **Soundness of conversions** — glue code maps `E⟦τA⟧` into `E⟦τB⟧`.
//! 5. **Soundness of the entire languages** — compatibility lemmas and the
//!    fundamental property, exercised in the per-case-study crates.
//!
//! This crate contains only the pieces shared by every case study: interned
//! variables, fuel/step budgets and step indices, machine outcomes and error
//! codes, the conversion scheme and its glue cache, the [`CaseStudy`] stage
//! interface with its [`GenProfile`], and the sweep statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod convert;
pub mod fuel;
pub mod outcome;
pub mod pipeline;
pub mod stats;
pub mod symbol;
pub mod telemetry;
pub mod world;

pub use case::{
    CaseStudy, CheckFailure, ConstructorClass, ConstructorWeights, GenProfile, Scenario,
};
pub use convert::{ConversionPair, ConversionScheme, GlueCache, GlueCacheStats};
pub use fuel::Fuel;
pub use outcome::{ErrorCode, Outcome};
pub use pipeline::PipelineError;
pub use stats::{CaseReport, OutcomeClass, RunStats, ScenarioRecord, StageTimings, SweepReport};
pub use symbol::{int_chars, Var};
pub use telemetry::{OpClass, VmCounters};
pub use world::StepIndex;
