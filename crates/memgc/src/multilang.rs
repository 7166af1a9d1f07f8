//! The end-to-end driver for case study 3: type check → compile → run on
//! LCVM with GC and manual memory.

use crate::compile::{MemGcCompileError, MemGcCompiler};
use crate::convert::MemGcConversions;
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use crate::typecheck::{check_l3, check_poly, MemGcCtx, MemGcTypeError};
use lcvm::{Expr, Machine, RunResult};
use semint_core::pipeline::PipelineError;
use semint_core::Fuel;
use std::fmt;

/// Errors from the §5 pipeline: the shared [`PipelineError`] shape
/// instantiated at this case study's stage errors.
pub type MemGcMultiLangError = PipelineError<MemGcTypeError, MemGcCompileError>;

/// A closed §5 multi-language program, hosted in either language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgProgram {
    /// A MiniML-hosted program.
    Ml(PolyExpr),
    /// An L3-hosted program.
    L3(L3Expr),
}

impl fmt::Display for MgProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgProgram::Ml(e) => write!(f, "{e}"),
            MgProgram::L3(e) => write!(f, "{e}"),
        }
    }
}

/// A source type of either §5 language.
#[derive(Debug, Clone, PartialEq)]
pub enum MgSourceType {
    /// A MiniML type.
    Ml(PolyType),
    /// An L3 type.
    L3(L3Type),
}

impl fmt::Display for MgSourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgSourceType::Ml(t) => write!(f, "{t} (MiniML)"),
            MgSourceType::L3(t) => write!(f, "{t} (L3)"),
        }
    }
}

/// The §5 multi-language system: MiniML + L3 + the §5 conversions over
/// LCVM with GC and manual memory.
#[derive(Debug, Clone, Default)]
pub struct MemGcMultiLang {
    conversions: MemGcConversions,
    fuel: Fuel,
}

impl MemGcMultiLang {
    /// A system with the standard rule set and default fuel.
    pub fn new() -> Self {
        MemGcMultiLang {
            conversions: MemGcConversions::standard(),
            fuel: Fuel::default(),
        }
    }

    /// Overrides the fuel budget.
    pub fn with_fuel(mut self, fuel: Fuel) -> Self {
        self.fuel = fuel;
        self
    }

    /// The conversion rule set in use.
    pub fn conversions(&self) -> &MemGcConversions {
        &self.conversions
    }

    /// Type checks a closed multi-language program (either host language).
    pub fn typecheck(&self, program: &MgProgram) -> Result<MgSourceType, MemGcTypeError> {
        match program {
            MgProgram::Ml(e) => self.typecheck_ml(e).map(MgSourceType::Ml),
            MgProgram::L3(e) => self.typecheck_l3(e).map(MgSourceType::L3),
        }
    }

    /// Type checks a closed MiniML program.
    pub fn typecheck_ml(&self, e: &PolyExpr) -> Result<PolyType, MemGcTypeError> {
        check_poly(&MemGcCtx::empty(), e, &self.conversions).map(|(t, _)| t)
    }

    /// Type checks a closed L3 program.
    pub fn typecheck_l3(&self, e: &L3Expr) -> Result<L3Type, MemGcTypeError> {
        check_l3(&MemGcCtx::empty(), e, &self.conversions).map(|(t, _)| t)
    }

    /// Type checks and compiles a closed multi-language program.
    pub fn compile(&self, program: &MgProgram) -> Result<Expr, MemGcMultiLangError> {
        self.typecheck(program).map_err(PipelineError::Type)?;
        self.compile_only(program).map_err(PipelineError::Compile)
    }

    /// Compiles a program already known to type check, skipping the
    /// typecheck (the sweep engine re-checks the generator's type claim
    /// once up front).
    pub fn compile_only(&self, program: &MgProgram) -> Result<Expr, MemGcCompileError> {
        let compiler = MemGcCompiler::new(&self.conversions, &self.conversions);
        match program {
            MgProgram::Ml(e) => compiler.compile_ml_program(e),
            MgProgram::L3(e) => compiler.compile_l3_program(e),
        }
    }

    /// Runs an already-compiled LCVM expression under an explicit fuel
    /// budget, consuming the artifact (no clone — the compile-once flow).
    pub fn execute(&self, compiled: Expr, fuel: Fuel) -> RunResult {
        Machine::run_expr(compiled, fuel)
    }

    /// Runs a batch of already-compiled LCVM expressions under one fuel
    /// budget through **one** LCVM machine, reset in place between programs
    /// (the continuation stack's grown buffer survives as an allocation,
    /// never as state), returning results in input order.
    pub fn execute_batch(&self, compiled: Vec<Expr>, fuel: Fuel) -> Vec<RunResult> {
        Machine::run_batch(compiled, fuel)
    }

    /// Type checks and compiles a closed MiniML program.
    pub fn compile_ml(&self, e: &PolyExpr) -> Result<Expr, MemGcMultiLangError> {
        self.compile(&MgProgram::Ml(e.clone()))
    }

    /// Type checks and compiles a closed L3 program.
    pub fn compile_l3(&self, e: &L3Expr) -> Result<Expr, MemGcMultiLangError> {
        self.compile(&MgProgram::L3(e.clone()))
    }

    /// Type checks, compiles and runs a MiniML program.
    pub fn run_ml(&self, e: &PolyExpr) -> Result<RunResult, MemGcMultiLangError> {
        Ok(self.execute(self.compile_ml(e)?, self.fuel))
    }

    /// Type checks, compiles and runs an L3 program.
    pub fn run_l3(&self, e: &L3Expr) -> Result<RunResult, MemGcMultiLangError> {
        Ok(self.execute(self.compile_l3(e)?, self.fuel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::{Halt, Slot, Value};

    fn sys() -> MemGcMultiLang {
        MemGcMultiLang::new()
    }

    /// The L3 program `new true` packaged for crossing the boundary: it has
    /// type `REF bool`.
    fn l3_new_bool(b: bool) -> L3Expr {
        L3Expr::new(L3Expr::bool_(b))
    }

    #[test]
    fn l3_memory_transfers_to_miniml_without_copying() {
        // MiniML: !⦇ new true ⦈(ref int)   — read the transferred reference.
        let e = PolyExpr::deref(PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::ref_(PolyType::Int),
        ));
        let r = sys().run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
        // Exactly one manual allocation happened (inside L3), zero GC
        // allocations: the cell was moved, not copied.
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().gc_allocs, 0);
        assert_eq!(r.heap.stats().gcmovs, 1);
        assert_eq!(r.heap.manual_len(), 0, "the cell is now GC-managed");
    }

    #[test]
    fn transferred_memory_is_eventually_collected_not_leaked() {
        // Transfer a cell to MiniML, drop it on the floor, allocate again (via
        // another L3 new, which calls the GC first): the transferred cell is
        // unreachable by then and gets collected.
        let e = PolyExpr::snd(PolyExpr::pair(
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
        ));
        let r = sys().run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert!(r.heap.stats().gc_runs >= 2);
    }

    #[test]
    fn miniml_reference_crosses_to_l3_as_a_fresh_package() {
        // L3: free ⦇ ref 5 ⦈(REF bool)  — the contents are copied+converted.
        let e = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(5)),
            L3Type::ref_like(L3Type::Bool),
        ));
        let r = sys().run_l3(&e).unwrap();
        // 5 collapses to false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert_eq!(r.heap.stats().gc_allocs, 1);
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().frees, 1);
    }

    #[test]
    fn paper_example_1_polymorphic_instantiation_at_a_foreign_type() {
        // (Λα. λx:α. λy:α. y) [⟨bool⟩] ⦇true⦈⟨bool⟩ ⦇false⦈⟨bool⟩
        let second = PolyExpr::tylam(
            "α",
            PolyExpr::lam(
                "x",
                PolyType::tvar("α"),
                PolyExpr::lam("y", PolyType::tvar("α"), PolyExpr::var("y")),
            ),
        );
        let e = PolyExpr::app(
            PolyExpr::app(
                PolyExpr::tyapp(second, PolyType::foreign(L3Type::Bool)),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::foreign(L3Type::Bool)),
            ),
            PolyExpr::boundary(L3Expr::bool_(false), PolyType::foreign(L3Type::Bool)),
        );
        let sysm = sys();
        assert_eq!(
            sysm.typecheck_ml(&e).unwrap(),
            PolyType::foreign(L3Type::Bool)
        );
        let r = sysm.run_ml(&e).unwrap();
        assert_eq!(
            r.halt,
            Halt::Value(Value::Int(1)),
            "the second argument (false) is returned"
        );
    }

    #[test]
    fn paper_example_2_church_boolean_conversion() {
        // (λx:BOOL. x) ⦇true⦈BOOL  where BOOL ≜ ∀α. α → α → α
        let e = PolyExpr::app(
            PolyExpr::lam("x", PolyType::church_bool(), PolyExpr::var("x")),
            PolyExpr::boundary(L3Expr::bool_(true), PolyType::church_bool()),
        );
        let sysm = sys();
        assert_eq!(sysm.typecheck_ml(&e).unwrap(), PolyType::church_bool());
        // Use the resulting Church boolean from L3 by converting it back.
        let use_it = L3Expr::if_(
            L3Expr::boundary(e, L3Type::Bool),
            L3Expr::bool_(false),
            L3Expr::bool_(true),
        );
        let r = sysm.run_l3(&use_it).unwrap();
        // The boolean was true, so the first branch runs and returns false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
    }

    #[test]
    fn miniml_functions_cross_as_banged_lollis() {
        // L3 applies a MiniML increment-ish function to a boolean.
        let ml_fun = PolyExpr::lam(
            "x",
            PolyType::Int,
            PolyExpr::add(PolyExpr::var("x"), PolyExpr::int(0)),
        );
        let l3_ty = L3Type::bang(L3Type::lolli(L3Type::bang(L3Type::Bool), L3Type::Bool));
        let e = L3Expr::let_bang(
            "f",
            L3Expr::boundary(ml_fun, l3_ty),
            L3Expr::app(L3Expr::uvar("f"), L3Expr::bang(L3Expr::bool_(true))),
        );
        let r = sys().run_l3(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
    }

    #[test]
    fn linear_capabilities_cannot_be_smuggled_through_foreign_types() {
        // ⦇ new true ⦈⟨∃ζ. cap ζ bool ⊗ !ptr ζ⟩ — REF bool is not Duplicable,
        // so the boundary is rejected statically.
        let e = PolyExpr::boundary(
            l3_new_bool(true),
            PolyType::foreign(L3Type::ref_like(L3Type::Bool)),
        );
        assert!(matches!(
            sys().run_ml(&e),
            Err(MemGcMultiLangError::Type(
                MemGcTypeError::NotConvertible { .. }
            ))
        ));
    }

    #[test]
    fn aliasing_survives_the_transfer_to_miniml() {
        // Transfer a cell to MiniML, then write through the MiniML reference
        // and observe the result through the same reference: a plain sanity
        // check that gcmov preserved identity and mutability.
        let e = PolyExpr::app(
            PolyExpr::lam(
                "r",
                PolyType::ref_(PolyType::Int),
                PolyExpr::snd(PolyExpr::pair(
                    PolyExpr::assign(PolyExpr::var("r"), PolyExpr::int(9)),
                    PolyExpr::deref(PolyExpr::var("r")),
                )),
            ),
            PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int)),
        );
        let r = sys().run_ml(&e).unwrap();
        assert_eq!(r.halt, Halt::Value(Value::Int(9)));
    }

    #[test]
    fn well_typed_programs_are_safe() {
        let sysm = sys();
        let ml_programs = vec![
            PolyExpr::deref(PolyExpr::boundary(
                l3_new_bool(false),
                PolyType::ref_(PolyType::Int),
            )),
            PolyExpr::boundary(L3Expr::unit(), PolyType::Unit),
            PolyExpr::add(
                PolyExpr::int(1),
                PolyExpr::boundary(L3Expr::bool_(true), PolyType::Int),
            ),
        ];
        for e in ml_programs {
            let r = sysm.run_ml(&e).unwrap();
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
        let l3_programs = vec![
            L3Expr::free(L3Expr::boundary(
                PolyExpr::ref_(PolyExpr::int(3)),
                L3Type::ref_like(L3Type::Bool),
            )),
            L3Expr::if_(
                L3Expr::boundary(PolyExpr::int(0), L3Type::Bool),
                L3Expr::unit(),
                L3Expr::unit(),
            ),
        ];
        for e in l3_programs {
            let r = sysm.run_l3(&e).unwrap();
            assert!(r.halt.is_safe(), "{e} produced {:?}", r.halt);
        }
    }

    #[test]
    fn transferred_cell_slot_is_gc_after_the_boundary() {
        let e = PolyExpr::boundary(l3_new_bool(true), PolyType::ref_(PolyType::Int));
        let r = sys().run_ml(&e).unwrap();
        let loc = r
            .halt
            .value_ref()
            .and_then(|v| v.as_loc())
            .expect("a location");
        assert!(matches!(r.heap.slot(loc), Some(Slot::Gc(Value::Int(0)))));
    }
}
