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
//!    target-level glue code `C_{τA↦τB}` and `C_{τB↦τA}` ([`convert`]).
//! 3. **Realizability models** — source types are interpreted as sets of
//!    *target* terms; the shared machinery (step indices, fuel, error codes)
//!    lives in [`fuel`], [`outcome`] and [`world`].
//! 4. **Soundness of conversions** — glue code maps `E⟦τA⟧` into `E⟦τB⟧`.
//! 5. **Soundness of the entire languages** — compatibility lemmas and the
//!    fundamental property, exercised in the per-case-study crates.
//!
//! This crate contains only the pieces shared by every case study: interned
//! variables, fresh-name generation, fuel/step budgets, machine outcomes and
//! error codes, the generic convertibility registry and the step-index/world
//! vocabulary used by the executable logical relations.
//!
//! ## Example
//!
//! ```
//! use semint_core::convert::{ConvertibilityRegistry, ConversionPair};
//!
//! // A toy registry whose "glue code" is just a label.
//! let mut reg: ConvertibilityRegistry<&'static str, &'static str, &'static str> =
//!     ConvertibilityRegistry::new();
//! reg.register("bool", "int", ConversionPair::new("id", "id"));
//! assert!(reg.convertible(&"bool", &"int"));
//! assert!(!reg.convertible(&"bool", &"array"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod convert;
pub mod fresh;
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
pub use convert::{
    ConversionPair, ConversionScheme, ConvertibilityRegistry, GlueCache, GlueCacheStats,
};
pub use fresh::FreshGen;
pub use fuel::Fuel;
pub use outcome::{ErrorCode, Outcome};
pub use pipeline::PipelineError;
pub use stats::{CaseReport, OutcomeClass, RunStats, ScenarioRecord, StageTimings, SweepReport};
pub use symbol::Var;
pub use telemetry::{OpClass, VmCounters};
pub use world::StepIndex;
