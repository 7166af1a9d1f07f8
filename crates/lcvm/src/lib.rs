//! # lcvm
//!
//! The untyped, Scheme-like target language of the paper's second and third
//! case studies (Fig. 6, extended in Fig. 12).  LCVM has functions, pairs,
//! sums, pattern matching, mutable references and dynamic failure `fail c`.
//! The §5 extension adds *manually managed* allocation (`alloc`), explicit
//! deallocation (`free`), a way to hand a manual location over to the garbage
//! collector (`gcmov`), and an instruction to invoke the collector
//! (`callgc`).  GC'd and manual cells share a single pool of locations that
//! are reused after collection or `free`.
//!
//! The interpreter is an environment-based CEK-style abstract machine with an
//! explicit continuation stack, which gives us
//!
//! * precise step counting (for the executable step-indexed models),
//! * precise GC roots (current environment + every saved frame, each
//!   environment a persistent [`semint_core::Scope`]), and
//! * an *augmented* mode implementing the paper's phantom-flag semantics
//!   (§4): `protect(v, f)` values consume a phantom flag when forced, and
//!   bindings of designated "static affine" variables mint fresh flags.
//!
//! ```
//! use lcvm::{Expr, Machine, Value};
//! use semint_core::Fuel;
//!
//! // (λx. x + 1) 41
//! let prog = Expr::app(Expr::lam("x", Expr::add(Expr::var("x"), Expr::int(1))), Expr::int(41));
//! let result = Machine::run_expr(prog, Fuel::default());
//! assert_eq!(result.halt.value(), Some(Value::Int(42)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heap;
pub mod machine;
pub mod phantom;
pub mod syntax;
pub mod value;

pub use heap::{Heap, HeapError, Loc, Slot};
pub use machine::{Halt, Machine, RunResult};
pub use phantom::{FlagId, PhantomConfig};
pub use syntax::{Expr, PrimOp};
pub use value::{Env, Value};

pub use semint_core::{ErrorCode, Fuel, Var};
