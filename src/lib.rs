//! # semint — semantic soundness for language interoperability, executably
//!
//! This is the facade crate of the `semint` workspace, a Rust reproduction of
//! *"Semantic Soundness for Language Interoperability"* (Patterson, Mushtak,
//! Wagner, Ahmed — PLDI 2022).  It re-exports the workspace crates under one
//! roof so that examples, integration tests and downstream users can depend
//! on a single package:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the framework vocabulary: the [`core::convert::ConversionScheme`] judgment and its glue cache, fuel, the [`core::case::CaseStudy`] trait (the one front door to a language pair) with its [`core::case::GenProfile`] and program [`core::case::Size`], and shared sweep statistics |
//! | [`stacklang`] | the untyped stack-machine target of case study 1 (Fig. 2) |
//! | [`lcvm`] | the Scheme-like target of case studies 2–3, with GC'd + manual memory and the phantom-flag augmented semantics |
//! | [`reflang`] | RefHL and RefLL, their type systems and compilers (Fig. 1, 3) |
//! | [`sharedmem`] | case study 1: shared-memory interoperability, Fig. 4 conversions, Fig. 5 executable model; [`sharedmem::SharedMemCase`] is the multi-language system |
//! | [`affine`] | case study 2: Affi ⊸ MiniML, thunk guards, Fig. 9 conversions, Fig. 10 phantom-flag model; [`affine::AffineCase`] is the multi-language system |
//! | [`memgc`] | case study 3: MiniML ⊸ L3, `gcmov` ownership transfer, polymorphism over foreign types, Fig. 14 model; [`memgc::MemGcCase`] is the multi-language system |
//! | [`harness`] | the unified scenario engine: a parallel, work-stealing batch runner with counterexample shrinking over every case study, and the `semint` CLI |
//!
//! ## The `CaseStudy` abstraction and the `semint` CLI
//!
//! Each case-study crate implements [`core::case::CaseStudy`] (associated
//! `Program`/`Ty`/`Report`/`Compiled` types; `generate`, `typecheck`,
//! `compile`, `execute`, and the model check, `model_judgement`, on the
//! run's report and its artifact), and the [`harness`] engine drives any
//! implementation — including all three at once, interleaved on one thread
//! pool — typechecking, compiling and running each scenario exactly once:
//! the model check judges the run stage's report instead of running the
//! program again, unless the sweep's fuel falls short of the checker's
//! budget.
//!
//! ```
//! use semint::harness::cases::AnyCase;
//! use semint::harness::engine::{sweep_all, SweepConfig};
//! use semint::harness::source::SeedRange;
//!
//! let report = sweep_all(
//!     &AnyCase::all(false),
//!     &SeedRange::new(0, 8).unwrap(),
//!     &SweepConfig { jobs: 2, ..SweepConfig::default() },
//! );
//! assert_eq!(report.failure_count(), 0);
//! ```
//!
//! Workloads are supplied by a [`harness::source::ScenarioSource`] — a seed
//! range or a deterministic k-of-n shard of one — and shaped by a
//! [`core::case::GenProfile`] (presets `smoke`, `default`, `deep`,
//! `boundary-heavy`).  The same engine backs the `semint` binary:
//!
//! ```text
//! semint sweep --seeds 0..200 --jobs 4          # parallel sweep, aggregate report
//! semint sweep --profile deep                   # deep source types (glue on the hot path)
//! semint sweep --profile deep --batch 8         # 8 artifacts per reused machine, same digests
//! semint sweep --shard 0/2 --save s0.tsv        # half the range, saved as a TSV report
//! semint report s0.tsv s1.tsv                   # merge shards: unsharded digests and failures
//! semint sweep --profile deep --time            # per-stage wall-clock totals
//! semint check --case sharedmem --seeds 0..50   # Lemma 3.1 catalogue + model checks
//! semint run --case memgc --seed 7              # one scenario, verbosely
//! semint sweep --seeds 0..50 --broken           # sabotaged rule → shrunk counterexamples
//! ```
//!
//! ## Quick start
//!
//! Each case study is its language pair's multi-language system, and the
//! same object serves the sweep engine and hand-written programs:
//! [`core::case::CaseStudy::run`] type checks, compiles and runs one program.
//!
//! ```
//! use semint::core::{CaseStudy, Fuel};
//! use semint::reflang::syntax::{HlExpr, HlType, LlExpr};
//! use semint::sharedmem::{SharedMemCase, SmProgram};
//!
//! // A RefHL program that embeds RefLL arithmetic as a boolean:
//! //     if ⦇ 1 + 1 ⦈bool then false else true
//! let prog = HlExpr::if_(
//!     HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(1)), HlType::Bool),
//!     HlExpr::bool_(false),
//!     HlExpr::bool_(true),
//! );
//! let case = SharedMemCase::standard();
//! let result = case.run(&SmProgram::Hl(prog), Fuel::default()).unwrap();
//! assert!(result.outcome.is_safe());
//! ```
//!
//! See the `examples/` directory for one runnable scenario per case study,
//! `tests/cost_laws.rs` for the paper's cost claims as exact laws over the
//! VM counters, and `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]

pub use affine_interop as affine;
pub use lcvm;
pub use memgc_interop as memgc;
pub use reflang;
pub use semint_core as core;
pub use semint_harness as harness;
pub use sharedmem;
pub use stacklang;
