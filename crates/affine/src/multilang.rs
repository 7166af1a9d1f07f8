//! The end-to-end driver for case study 2: type check → compile → run, under
//! either the standard LCVM semantics or the augmented (phantom-flag)
//! semantics that additionally enforces the static affine discipline.

use crate::compile::{CompileError, CompileOutput, Compiler};
use crate::convert::AffineConversions;
use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use crate::typecheck::{check_affi, check_ml, AffineCtx, AffineTypeError};
use lcvm::{Machine, PhantomConfig, RunResult};
use semint_core::pipeline::PipelineError;
use semint_core::Fuel;
use std::fmt;

/// Errors from the §4 pipeline: the shared [`PipelineError`] shape
/// instantiated at this case study's stage errors.
pub type AffineMultiLangError = PipelineError<AffineTypeError, CompileError>;

/// A closed §4 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffProgram {
    /// An Affi-hosted program.
    Affi(AffiExpr),
    /// A MiniML-hosted program.
    Ml(MlExpr),
}

impl fmt::Display for AffProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffProgram::Affi(e) => write!(f, "{e}"),
            AffProgram::Ml(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §4 language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffSourceType {
    /// An Affi type.
    Affi(AffiType),
    /// A MiniML type.
    Ml(MlType),
}

impl fmt::Display for AffSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffSourceType::Affi(t) => write!(f, "{t} (Affi)"),
            AffSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
        }
    }
}

/// The §4 multi-language system: MiniML + Affi + the Fig. 9 conversions over
/// LCVM.
#[derive(Debug, Clone, Default)]
pub struct AffineMultiLang {
    conversions: AffineConversions,
    fuel: Fuel,
}

impl AffineMultiLang {
    /// A system with the standard rule set and default fuel.
    pub fn new() -> Self {
        AffineMultiLang {
            conversions: AffineConversions::standard(),
            fuel: Fuel::default(),
        }
    }

    /// Overrides the fuel budget used by the run methods.
    pub fn with_fuel(mut self, fuel: Fuel) -> Self {
        self.fuel = fuel;
        self
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &AffineConversions {
        &self.conversions
    }

    /// Type checks a closed multi-language program (either host language).
    pub fn typecheck(&self, program: &AffProgram) -> Result<AffSourceType, AffineTypeError> {
        match program {
            AffProgram::Affi(e) => self.typecheck_affi(e).map(AffSourceType::Affi),
            AffProgram::Ml(e) => self.typecheck_ml(e).map(AffSourceType::Ml),
        }
    }

    /// Type checks a closed MiniML program.
    pub fn typecheck_ml(&self, e: &MlExpr) -> Result<MlType, AffineTypeError> {
        check_ml(&AffineCtx::empty(), e, &self.conversions).map(|(t, _)| t)
    }

    /// Type checks a closed Affi program.
    pub fn typecheck_affi(&self, e: &AffiExpr) -> Result<AffiType, AffineTypeError> {
        check_affi(&AffineCtx::empty(), e, &self.conversions).map(|(t, _)| t)
    }

    /// Type checks and compiles a closed multi-language program.
    pub fn compile(&self, program: &AffProgram) -> Result<CompileOutput, AffineMultiLangError> {
        self.typecheck(program).map_err(PipelineError::Type)?;
        self.compile_only(program).map_err(PipelineError::Compile)
    }

    /// Compiles a program already known to type check, skipping the
    /// typecheck (the sweep engine re-checks the generator's type claim
    /// once up front).
    pub fn compile_only(&self, program: &AffProgram) -> Result<CompileOutput, CompileError> {
        let compiler = Compiler::new(&self.conversions, &self.conversions);
        match program {
            AffProgram::Affi(e) => compiler.compile_affi_program(e),
            AffProgram::Ml(e) => compiler.compile_ml_program(e),
        }
    }

    /// Runs an already-compiled program under an explicit fuel budget and
    /// the *standard* semantics, consuming the artifact (no clone — the
    /// compile-once flow).
    pub fn execute(&self, compiled: CompileOutput, fuel: Fuel) -> RunResult {
        Machine::run_expr(compiled.expr, fuel)
    }

    /// Runs a batch of already-compiled programs under one fuel budget and
    /// the *standard* semantics through **one** LCVM machine, reset in place
    /// between programs (the continuation stack's grown buffer survives as
    /// an allocation, never as state), returning results in input order.
    pub fn execute_batch(&self, compiled: Vec<CompileOutput>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(compiled.into_iter().map(|compiled| compiled.expr), fuel)
    }

    /// Type checks and compiles a closed MiniML program.
    pub fn compile_ml(&self, e: &MlExpr) -> Result<CompileOutput, AffineMultiLangError> {
        self.compile(&AffProgram::Ml(e.clone()))
    }

    /// Type checks and compiles a closed Affi program.
    pub fn compile_affi(&self, e: &AffiExpr) -> Result<CompileOutput, AffineMultiLangError> {
        self.compile(&AffProgram::Affi(e.clone()))
    }

    /// Runs a compiled program under the *standard* semantics.
    pub fn run(&self, compiled: &CompileOutput) -> RunResult {
        Machine::run_expr(compiled.expr.clone(), self.fuel)
    }

    /// Runs a compiled program under the *augmented* (phantom-flag) semantics,
    /// protecting exactly the static binders the compiler reported.
    pub fn run_phantom(&self, compiled: &CompileOutput) -> RunResult {
        Machine::run_phantom(
            compiled.expr.clone(),
            PhantomConfig::protecting(compiled.static_binders.iter().cloned()),
            self.fuel,
        )
    }

    /// Convenience: type check, compile and run a MiniML program.
    pub fn run_ml(&self, e: &MlExpr) -> Result<RunResult, AffineMultiLangError> {
        Ok(self.execute(self.compile_ml(e)?, self.fuel))
    }

    /// Convenience: type check, compile and run an Affi program.
    pub fn run_affi(&self, e: &AffiExpr) -> Result<RunResult, AffineMultiLangError> {
        Ok(self.execute(self.compile_affi(e)?, self.fuel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::{Halt, Value};
    use semint_core::ErrorCode;

    fn ml_thunked_int_fun() -> MlType {
        MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int)
    }

    #[test]
    fn affi_arithmetic_crosses_into_miniml() {
        // 1 + ⦇ if-free Affi: (λa◦:int. a) 41 ⦈int
        let affi = AffiExpr::app(
            AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
            AffiExpr::int(41),
        );
        let e = MlExpr::add(MlExpr::int(1), MlExpr::boundary(affi, MlType::Int));
        let sys = AffineMultiLang::new();
        let r = sys.run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(42)));
    }

    #[test]
    fn miniml_ints_cross_into_affi_as_booleans() {
        // Affi: if-style use of a MiniML int via bool ∼ int.
        let e = AffiExpr::boundary(MlExpr::int(7), AffiType::Bool);
        let sys = AffineMultiLang::new();
        let r = sys.run_affi(&e).unwrap();
        // 7 collapses to the canonical false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn affine_function_passed_to_miniml_and_called_once() {
        // let f = ⦇ λa◦:int. a ⦈((unit→int)→int) in f (λ_:unit. 9)
        let affi_fun = AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a"));
        let e = MlExpr::app(
            MlExpr::boundary(affi_fun, ml_thunked_int_fun()),
            MlExpr::lam("_", MlType::Unit, MlExpr::int(9)),
        );
        let sys = AffineMultiLang::new();
        assert_eq!(sys.run_ml(&e).unwrap().halt, Halt::Value(Value::Int(9)));
    }

    #[test]
    fn miniml_function_that_double_forces_fails_conv_when_used_from_affi() {
        // MiniML gives Affi a function that forces its thunk twice; using it
        // from Affi on an affine argument trips the dynamic guard.
        let rude_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
            ),
        );
        // Affi: (⦇rude⦈(int ⊸ int)) 21
        let e = AffiExpr::app(
            AffiExpr::boundary(rude_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        let sys = AffineMultiLang::new();
        let r = sys.run_affi(&e).unwrap();
        assert_eq!(r.halt, Halt::Fail(ErrorCode::Conv));

        // The polite variant succeeds.
        let polite_ml = MlExpr::lam(
            "t",
            MlType::fun(MlType::Unit, MlType::Int),
            MlExpr::add(
                MlExpr::app(MlExpr::var("t"), MlExpr::unit()),
                MlExpr::int(1),
            ),
        );
        let e = AffiExpr::app(
            AffiExpr::boundary(polite_ml, AffiType::lolli(AffiType::Int, AffiType::Int)),
            AffiExpr::int(21),
        );
        assert_eq!(sys.run_affi(&e).unwrap().halt, Halt::Value(Value::Int(22)));
    }

    #[test]
    fn static_arrows_cannot_cross_the_boundary() {
        let affi_fun = AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a"));
        let e = MlExpr::boundary(affi_fun, ml_thunked_int_fun());
        let sys = AffineMultiLang::new();
        assert!(matches!(
            sys.run_ml(&e),
            Err(AffineMultiLangError::Type(
                AffineTypeError::NotConvertible { .. }
            ))
        ));
    }

    #[test]
    fn phantom_run_agrees_with_standard_run_on_well_typed_programs() {
        // A well-typed program with static affine structure: the augmented
        // semantics must agree with the standard one (erasure property) and
        // must not get stuck (Fundamental Property for Affi).
        let e = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::boundary(
                MlExpr::add(
                    MlExpr::boundary(AffiExpr::avar_static("x"), MlType::Int),
                    MlExpr::boundary(AffiExpr::avar_static("y"), MlType::Int),
                ),
                AffiType::Int,
            ),
        );
        let sys = AffineMultiLang::new();
        // This program moves static variables through a MiniML boundary, so
        // the type checker must reject it (no•(Ωe)).
        assert!(matches!(
            sys.run_affi(&e),
            Err(AffineMultiLangError::Type(_))
        ));

        // A fully Affi-internal use of static resources is fine and the two
        // semantics agree.
        let ok = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(20), AffiExpr::int(22)),
            AffiExpr::app(
                AffiExpr::lam_static("z", AffiType::Int, AffiExpr::avar_static("z")),
                AffiExpr::avar_static("x"),
            ),
        );
        let compiled = sys.compile_affi(&ok).unwrap();
        assert_eq!(compiled.static_binders.len(), 3);
        let standard = sys.run(&compiled);
        let phantom = sys.run_phantom(&compiled);
        assert_eq!(standard.halt, Halt::Value(Value::Int(20)));
        assert_eq!(phantom.halt, Halt::Value(Value::Int(20)));
        assert!(phantom.flags_consumed >= 1);
    }

    #[test]
    fn well_typed_programs_are_safe_under_both_semantics() {
        let sys = AffineMultiLang::new();
        let programs: Vec<AffiExpr> = vec![
            AffiExpr::app(
                AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
                AffiExpr::boundary(MlExpr::add(MlExpr::int(2), MlExpr::int(3)), AffiType::Int),
            ),
            AffiExpr::let_tensor(
                "p",
                "q",
                AffiExpr::tensor(AffiExpr::bool_(true), AffiExpr::int(3)),
                AffiExpr::avar_static("q"),
            ),
            AffiExpr::proj1(AffiExpr::with_pair(AffiExpr::int(1), AffiExpr::int(2))),
            AffiExpr::let_bang("u", AffiExpr::bang(AffiExpr::int(8)), AffiExpr::uvar("u")),
        ];
        for e in programs {
            let compiled = sys.compile_affi(&e).expect("well-typed program compiles");
            assert!(
                sys.run(&compiled).halt.is_safe(),
                "standard run unsafe for {e}"
            );
            assert!(
                sys.run_phantom(&compiled).halt.is_safe(),
                "phantom run unsafe for {e}"
            );
        }
    }
}
