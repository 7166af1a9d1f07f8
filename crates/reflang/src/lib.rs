//! # reflang
//!
//! The two source languages of the paper's first case study (§3, Fig. 1):
//!
//! * **RefHL** — a "higher-level" simply-typed functional language with
//!   booleans, sums, products, functions and ML-style mutable references.
//! * **RefLL** — a "lower-level" language with integers, arrays, functions
//!   and mutable references.
//!
//! Each language has a boundary form `⦇e⦈τ` embedding a term of the *other*
//! language, well-typed when the two types are convertible (`τ ∼ 𝜏`).  The
//! convertibility judgment itself, together with its glue code, lives in the
//! `sharedmem` case-study crate: the type checkers take the judgment as a
//! predicate, and the compilers take the rule set as a
//! [`semint_core::convert::ConversionScheme`] and read each boundary's glue
//! from its `derive_pair`.
//!
//! Both languages compile to [`stacklang`] following Fig. 3.
//!
//! ```
//! use reflang::syntax::{HlExpr, HlType};
//! use reflang::typecheck::{self, TypeCtx};
//!
//! // if true then 1+2 … but RefHL has no ints: use a pair instead.
//! let e = HlExpr::if_(HlExpr::bool_(true), HlExpr::unit(), HlExpr::unit());
//! let ty = typecheck::check_hl(&TypeCtx::empty(), &e, &|_, _| false).unwrap();
//! assert_eq!(ty, HlType::Unit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod syntax;
pub mod typecheck;

pub use compile::{compile_hl, compile_ll};
pub use syntax::{HlExpr, HlType, LlExpr, LlType};
pub use typecheck::{check_hl, check_ll, TypeCtx, TypeError};
