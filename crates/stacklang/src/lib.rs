//! # stacklang
//!
//! The untyped stack-based target language of the paper's first case study
//! (Fig. 2), inspired by typed concatenative calculi.  Programs are sequences
//! of instructions operating over a configuration `⟨H; S; P⟩` of a heap, a
//! stack of values, and the remaining program.
//!
//! Values are numbers, suspended computations (`thunk P`), heap locations and
//! arrays of values.  `lam x. P` is an *instruction* (not a value) solely
//! responsible for binding, à la call-by-push-value; `thunk`/`call`
//! suspend and resume computation.
//!
//! Fig. 2 gives `lam` by substitution.  The [`Machine`] instead runs shared,
//! immutable code under environments, persistent [`semint_core::Scope`]s of
//! values: `lam` pops its values into a new environment for its body,
//! `push (thunk P)` captures the current one with a pointer copy, and
//! `if0`/`call` enter code as a new frame, so no step copies a program.
//! Running a body under `x ↦ v` is the same computation as running it with
//! `v` substituted for `x`: outcomes, step counts and telemetry are the
//! figure's, which tests check against the literal substitution machine
//! kept in [`mod@reference`].
//!
//! Any instruction whose stack precondition is not met steps to `fail Type`;
//! out-of-bounds indexing steps to `fail Idx`; conversion glue code emits
//! `fail Conv`.  The semantic type-soundness theorems of the paper guarantee
//! that programs compiled from well-typed multi-language sources never reach
//! `fail Type`.
//!
//! ```
//! use stacklang::{Instr, Program, Machine, Value};
//! use semint_core::Fuel;
//!
//! // (2 + 3) via the stack machine.
//! let prog = Program::from(vec![
//!     Instr::push_num(2),
//!     Instr::push_num(3),
//!     Instr::Add,
//! ]);
//! let result = Machine::run_program(prog, Fuel::default());
//! assert_eq!(result.outcome.value(), Some(Value::Num(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod heap;
pub mod instr;
pub mod machine;
pub mod reference;

pub use heap::{Heap, Loc};
pub use instr::{Instr, Operand, Program, Thunk, Value};
pub use machine::{Machine, RunResult, StackState};

pub use semint_core::{ErrorCode, Fuel, Outcome, Var};
