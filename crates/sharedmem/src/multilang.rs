//! The multi-language driver for case study 1.
//!
//! [`MultiLang`] bundles the three artifacts a language designer produces in
//! the paper's framework — the convertibility rules (with glue code), the two
//! compilers, and the common target — behind one entry point: type check
//! against the Fig. 4 rules, compile RefHL and RefLL to StackLang with glue
//! at the boundaries, and run the result under fuel.

use crate::convert::SharedMemConversions;
use reflang::compile::{compile_hl, compile_ll, MissingConversion};
use reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use reflang::typecheck::{check_hl, check_ll, TypeCtx, TypeError};
use semint_core::pipeline::PipelineError;
use semint_core::Fuel;
use stacklang::{Machine, Program, RunResult};
use std::fmt;

/// Errors from the multi-language pipeline: the shared [`PipelineError`]
/// shape instantiated at the §3 stage errors.
pub type MultiLangError = PipelineError<TypeError, MissingConversion>;

/// A closed §3 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum SmProgram {
    /// A RefHL-hosted program.
    Hl(HlExpr),
    /// A RefLL-hosted program.
    Ll(LlExpr),
}

impl fmt::Display for SmProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmProgram::Hl(e) => write!(f, "{e}"),
            SmProgram::Ll(e) => write!(f, "{e}"),
        }
    }
}

/// A compiled multi-language program, ready to run or inspect.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The source-level type of the program.
    pub ty: SourceType,
    /// The StackLang program it compiled to.
    pub program: Program,
}

/// Which language the top-level program was written in, with its type.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceType {
    /// A RefHL program of the given type.
    Hl(HlType),
    /// A RefLL program of the given type.
    Ll(LlType),
}

impl fmt::Display for SourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceType::Hl(t) => write!(f, "{t} (RefHL)"),
            SourceType::Ll(t) => write!(f, "{t} (RefLL)"),
        }
    }
}

/// The §3 multi-language system: RefHL + RefLL + the Fig. 4 conversions over
/// StackLang.
#[derive(Debug, Clone, Default)]
pub struct MultiLang {
    conversions: SharedMemConversions,
    fuel: Fuel,
}

impl MultiLang {
    /// A system using the given conversion rule set and the default fuel.
    pub fn new(conversions: SharedMemConversions) -> Self {
        MultiLang {
            conversions,
            fuel: Fuel::default(),
        }
    }

    /// Overrides the fuel used by [`MultiLang::run_hl`] / [`MultiLang::run_ll`].
    pub fn with_fuel(mut self, fuel: Fuel) -> Self {
        self.fuel = fuel;
        self
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &SharedMemConversions {
        &self.conversions
    }

    /// Type checks a closed multi-language program (either host language).
    pub fn typecheck(&self, program: &SmProgram) -> Result<SourceType, TypeError> {
        match program {
            SmProgram::Hl(e) => self.typecheck_hl(e).map(SourceType::Hl),
            SmProgram::Ll(e) => self.typecheck_ll(e).map(SourceType::Ll),
        }
    }

    /// Type checks a closed RefHL program.
    pub fn typecheck_hl(&self, e: &HlExpr) -> Result<HlType, TypeError> {
        check_hl(&TypeCtx::empty(), e, &self.conversions)
    }

    /// Type checks a closed RefLL program.
    pub fn typecheck_ll(&self, e: &LlExpr) -> Result<LlType, TypeError> {
        check_ll(&TypeCtx::empty(), e, &self.conversions)
    }

    /// Type checks and compiles a closed multi-language program.
    pub fn compile(&self, program: &SmProgram) -> Result<Compiled, MultiLangError> {
        let ty = self.typecheck(program).map_err(PipelineError::Type)?;
        let program = self.compile_only(program).map_err(PipelineError::Compile)?;
        Ok(Compiled { ty, program })
    }

    /// Compiles a program already known to type check, skipping the
    /// typecheck.  This is the sweep engine's entry: it re-checks the
    /// generator's type claim once up front, so its compile stage must not
    /// pay for a second typecheck.
    pub fn compile_only(&self, program: &SmProgram) -> Result<Program, MissingConversion> {
        match program {
            SmProgram::Hl(e) => compile_hl(&TypeCtx::empty(), e, &self.conversions),
            SmProgram::Ll(e) => compile_ll(&TypeCtx::empty(), e, &self.conversions),
        }
    }

    /// Runs an already-compiled StackLang program under an explicit fuel
    /// budget, consuming the artifact (no clone — the compile-once flow).
    pub fn execute(&self, program: Program, fuel: Fuel) -> RunResult {
        Machine::run_program(program, fuel)
    }

    /// Runs a batch of already-compiled StackLang programs under one fuel
    /// budget through **one** StackLang machine, reset between programs
    /// (each reset adopts the next program's buffer zero-copy; no state
    /// survives a reset), returning results in input order.
    pub fn execute_batch(&self, programs: Vec<Program>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(programs, fuel)
    }

    /// Type checks and compiles a closed RefHL program.
    pub fn compile_hl(&self, e: &HlExpr) -> Result<Compiled, MultiLangError> {
        self.compile(&SmProgram::Hl(e.clone()))
    }

    /// Type checks and compiles a closed RefLL program.
    pub fn compile_ll(&self, e: &LlExpr) -> Result<Compiled, MultiLangError> {
        self.compile(&SmProgram::Ll(e.clone()))
    }

    /// Type checks, compiles and runs a closed RefHL program.
    pub fn run_hl(&self, e: &HlExpr) -> Result<RunResult, MultiLangError> {
        Ok(self.execute(self.compile_hl(e)?.program, self.fuel))
    }

    /// Type checks, compiles and runs a closed RefLL program.
    pub fn run_ll(&self, e: &LlExpr) -> Result<RunResult, MultiLangError> {
        Ok(self.execute(self.compile_ll(e)?.program, self.fuel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semint_core::{ErrorCode, Outcome};
    use stacklang::Value;

    fn ml() -> MultiLang {
        MultiLang::new(SharedMemConversions::standard())
    }

    #[test]
    fn boundary_free_programs_run_as_usual() {
        let e = HlExpr::if_(
            HlExpr::bool_(true),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        let r = ml().run_hl(&e).unwrap();
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));

        let e = LlExpr::add(LlExpr::int(40), LlExpr::int(2));
        let r = ml().run_ll(&e).unwrap();
        assert_eq!(r.outcome, Outcome::Value(Value::Num(2 + 40)));
    }

    #[test]
    fn refll_ints_flow_into_refhl_bools() {
        // if ⦇ 0 ⦈bool then false else true  ==> false is taken as 0 = true.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(0), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(
            ml().run_hl(&e).unwrap().outcome,
            Outcome::Value(Value::Num(1))
        );

        // Any non-zero int behaves as false on the RefHL side.
        let e = HlExpr::if_(
            HlExpr::boundary(LlExpr::int(33), HlType::Bool),
            HlExpr::bool_(false),
            HlExpr::bool_(true),
        );
        assert_eq!(
            ml().run_hl(&e).unwrap().outcome,
            Outcome::Value(Value::Num(0))
        );
    }

    #[test]
    fn refhl_bools_flow_into_refll_ints() {
        // ⦇ true ⦈int + 5  ==> 0 + 5 = 5.
        let e = LlExpr::add(
            LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
            LlExpr::int(5),
        );
        assert_eq!(
            ml().run_ll(&e).unwrap().outcome,
            Outcome::Value(Value::Num(5))
        );
    }

    #[test]
    fn shared_reference_aliases_across_the_boundary() {
        // A RefHL function writes through a reference it received from RefLL,
        // and RefLL observes the write through its own alias:
        //   let r = ref 1 in  (⦇ (λs:ref bool. s := false) ⦈(ref int → int)) r ; !r
        // written as a RefLL program.
        let hl_writer = HlExpr::lam(
            "s",
            HlType::ref_(HlType::Bool),
            HlExpr::boundary(
                LlExpr::boundary(
                    HlExpr::assign(HlExpr::var("s"), HlExpr::bool_(false)),
                    LlType::Int,
                ),
                HlType::Bool,
            ),
        );
        // Give the writer the RefLL type ref int → int via the function-free
        // route: apply it inside RefHL instead, but to a RefLL-created ref.
        // let r = ref 7 in ⦇ (λs. s := false) ⦇r⦈ref bool ⦈int + !r
        let program = LlExpr::app(
            LlExpr::lam(
                "r",
                LlType::ref_(LlType::Int),
                LlExpr::add(
                    LlExpr::boundary(
                        HlExpr::app(
                            hl_writer,
                            HlExpr::boundary(LlExpr::var("r"), HlType::ref_(HlType::Bool)),
                        ),
                        LlType::Int,
                    ),
                    LlExpr::deref(LlExpr::var("r")),
                ),
            ),
            LlExpr::ref_(LlExpr::int(7)),
        );
        let r = ml().run_ll(&program).unwrap();
        // The write of `false` (= 1) lands in the shared cell; the result is
        // the assignment's unit (0, converted to int) plus the new contents 1.
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn sums_cross_as_int_arrays_with_dynamic_checks() {
        let sum_ty = HlType::sum(HlType::Bool, HlType::Bool);
        // A well-formed array becomes a sum.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(1), LlExpr::int(0)], LlType::Int),
                sum_ty.clone(),
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(
            ml().run_hl(&e).unwrap().outcome,
            Outcome::Value(Value::Num(0))
        );

        // A malformed tag produces the well-defined Conv failure.
        let e = HlExpr::match_(
            HlExpr::boundary(
                LlExpr::array([LlExpr::int(9), LlExpr::int(0)], LlType::Int),
                sum_ty,
            ),
            "x",
            HlExpr::bool_(false),
            "y",
            HlExpr::var("y"),
        );
        assert_eq!(
            ml().run_hl(&e).unwrap().outcome,
            Outcome::Fail(ErrorCode::Conv)
        );
    }

    #[test]
    fn ill_typed_boundaries_are_rejected_statically() {
        // ref (bool+bool) ∼ ref [int] is not derivable under pointer sharing.
        let e = HlExpr::boundary(
            LlExpr::ref_(LlExpr::array([LlExpr::int(0)], LlType::Int)),
            HlType::ref_(HlType::sum(HlType::Bool, HlType::Bool)),
        );
        let err = ml().run_hl(&e).unwrap_err();
        assert!(matches!(
            err,
            MultiLangError::Type(TypeError::NotConvertible { .. })
        ));
    }

    #[test]
    fn well_typed_multi_language_programs_never_fail_type() {
        // Theorem 3.3/3.4 smoke test over the crate's own examples.
        let programs: Vec<HlExpr> = vec![
            HlExpr::boundary(LlExpr::add(LlExpr::int(1), LlExpr::int(2)), HlType::Bool),
            HlExpr::pair(
                HlExpr::boundary(LlExpr::int(0), HlType::Bool),
                HlExpr::deref(HlExpr::ref_(HlExpr::bool_(true))),
            ),
            HlExpr::boundary(
                LlExpr::index(
                    LlExpr::array([LlExpr::int(3), LlExpr::int(4)], LlType::Int),
                    LlExpr::int(1),
                ),
                HlType::Bool,
            ),
        ];
        for e in programs {
            let r = ml().run_hl(&e).unwrap();
            assert!(r.outcome.is_safe(), "{e} produced {:?}", r.outcome);
        }
    }

    #[test]
    fn compiled_reports_source_type() {
        let c = ml().compile_hl(&HlExpr::bool_(true)).unwrap();
        assert_eq!(c.ty, SourceType::Hl(HlType::Bool));
        assert!(c.ty.to_string().contains("RefHL"));
        let c = ml().compile_ll(&LlExpr::int(1)).unwrap();
        assert_eq!(c.ty, SourceType::Ll(LlType::Int));
    }
}
