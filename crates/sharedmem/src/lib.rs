//! # sharedmem
//!
//! Case study 1 of the paper (§3): **shared-memory interoperability** between
//! RefHL and RefLL, compiled to StackLang.
//!
//! The crate provides
//!
//! * [`convert`] — the convertibility rules of Fig. 4 together with their
//!   StackLang glue code, plus the copy-convert strategy the paper's
//!   Discussion contrasts with pointer sharing;
//! * [`harness`] — the multi-language system, [`SharedMemCase`]: it holds
//!   one rule set, type checks a multi-language program (both environments,
//!   boundaries), compiles it with that rule set's glue code and runs it on
//!   the StackLang machine, for the sweep engine and hand-written programs
//!   alike;
//! * [`model`] — an executable approximation of the Fig. 5 realizability
//!   model: step-indexed worlds over heap typings, value and expression
//!   relations for both languages' types, and checkers for Convertibility
//!   Soundness (Lemma 3.1) and type safety (Theorems 3.3/3.4);
//! * [`gen`] — random well-typed multi-language program generation used by
//!   the property-test suites (the operational content of the Fundamental
//!   Property).
//!
//! ```
//! use reflang::syntax::{HlExpr, HlType, LlExpr};
//! use semint_core::{CaseStudy, Fuel};
//! use sharedmem::{SharedMemCase, SmProgram};
//! use stacklang::Value;
//!
//! // ⦇ 1 + 1 ⦈bool : RefLL arithmetic used as a RefHL boolean (non-zero = false).
//! let prog = HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(1)), HlType::Bool);
//! let case = SharedMemCase::standard();
//! let out = case.run(&SmProgram::Hl(prog), Fuel::default()).unwrap();
//! assert_eq!(out.outcome.value(), Some(Value::Num(2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod gen;
pub mod harness;
pub mod model;

pub use convert::{RefStrategy, SharedMemConversions};
pub use harness::{SharedMemCase, SmProgram, SourceType};
