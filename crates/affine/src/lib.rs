//! # affine-interop
//!
//! Case study 2 of the paper (§4): an **affine** language (Affi) interacting
//! with an **unrestricted** functional language (MiniML), both compiled to
//! the Scheme-like target LCVM.
//!
//! The interesting design point is that Affi has *two* affine function
//! spaces:
//!
//! * `𝜏 ⊸ 𝜏` (“dynamic”) — functions that may be passed across the boundary;
//!   their arguments are protected by a runtime guard (`thunk(·)`, Fig. 8)
//!   that raises `fail Conv` on a second use;
//! * `𝜏 ⊸• 𝜏` (“static”) — functions that never cross the boundary; their
//!   at-most-once discipline is enforced purely by the type system, and the
//!   *model* accounts for it with phantom flags (Fig. 10) rather than any
//!   runtime check — which is exactly what makes them cheaper.
//!
//! Crate layout:
//!
//! * [`syntax`] — MiniML and Affi types and terms (Fig. 6), mutually
//!   recursive through boundaries;
//! * [`typecheck`] — the affine-aware static semantics (Fig. 7), implemented
//!   with usage accounting;
//! * [`compile`] — the Fig. 8 compilers to LCVM, including the `thunk(·)`
//!   guard macro; the compiler reports which target binders are static-affine
//!   so the augmented (phantom) semantics can protect them;
//! * [`convert`] — the Fig. 9 conversions, represented as ordinary LCVM
//!   functions;
//! * [`harness`] — the multi-language system, [`AffineCase`]: it holds one
//!   rule set and drives type check → compile → run for the sweep engine
//!   and hand-written programs alike;
//! * [`model`] — an executable approximation of the Fig. 10 logical relation
//!   and of the §4 soundness theorems, including the phantom-flag
//!   erasure/agreement property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod convert;
pub mod gen;
pub mod harness;
pub mod model;
pub mod syntax;
pub mod typecheck;

pub use harness::{AffProgram, AffSourceType, AffineCase};
pub use syntax::{AffiExpr, AffiType, MlExpr, MlType, Mode};
