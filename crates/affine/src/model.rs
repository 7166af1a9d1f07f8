//! An executable approximation of the §4 logical relation (Fig. 10) and of
//! the case study's soundness theorems.
//!
//! The full Fig. 10 model tracks a heap typing `Ψ`, an affine flag store `Θ`
//! and per-term phantom flag sets `Φ`.  The executable checker here keeps the
//! parts that have observable content:
//!
//! * **value membership** `v ∈ V⟦τ⟧` / `v ∈ V⟦𝜏⟧` over LCVM values, with the
//!   function cases checked by applying the value to canonical arguments
//!   (guarded, for the dynamic arrow — exactly the Fig. 10 clause that
//!   installs a fresh guard location and stores the argument's flags there);
//! * **expression membership** `e ∈ E⟦·⟧` by bounded evaluation, allowing
//!   `fail Conv` (the relation's escape hatch) and running out of budget, and
//!   — crucially — *rejecting* phantom-stuck runs, which is how the model
//!   excludes programs that use a static affine resource twice;
//! * **convertibility soundness** (the §4 analogue of Lemma 3.1) checked on
//!   sampled inhabitants, per rule of the rule set it is given — the case
//!   study passes the one its compiler uses;
//! * **type safety / fundamental property** checks for compiled programs
//!   under both the standard and the augmented semantics, plus the erasure
//!   agreement property the paper uses to transport safety from the augmented
//!   semantics back to the real machine.

use crate::compile::thunk_guard;
use crate::convert::AffineConversions;
use crate::syntax::{AffiType, MlType, Mode};
use lcvm::{Expr, Halt, Machine, PhantomConfig, Value};
use semint_core::{CheckFailure, ErrorCode, Fuel, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A source type of either §4 language.
#[derive(Debug, Clone, PartialEq)]
pub enum AffineSemType {
    /// A MiniML type.
    Ml(MlType),
    /// An Affi type.
    Affi(AffiType),
}

impl fmt::Display for AffineSemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffineSemType::Ml(t) => write!(f, "{t}"),
            AffineSemType::Affi(t) => write!(f, "{t}"),
        }
    }
}

/// The step budget of every evaluation the checks perform.
pub const CHECK_FUEL: Fuel = Fuel::steps(100_000);

/// Nesting depth for function-type membership checks.
const FUN_DEPTH: usize = 2;

/// Is the (closed) LCVM value `v` in `V⟦ty⟧`?
pub fn value_in(v: &Value, ty: &AffineSemType) -> bool {
    value_in_depth(v, ty, FUN_DEPTH)
}

fn value_in_depth(v: &Value, ty: &AffineSemType, depth: usize) -> bool {
    match ty {
        AffineSemType::Ml(t) => value_in_ml(v, t, depth),
        AffineSemType::Affi(t) => value_in_affi(v, t, depth),
    }
}

fn value_in_ml(v: &Value, ty: &MlType, depth: usize) -> bool {
    match ty {
        MlType::Unit => matches!(v, Value::Unit),
        MlType::Int => matches!(v, Value::Int(_)),
        MlType::Prod(a, b) => match v {
            Value::Pair(x, y) => value_in_ml(x, a, depth) && value_in_ml(y, b, depth),
            _ => false,
        },
        MlType::Sum(a, b) => match v {
            Value::Inl(x) => value_in_ml(x, a, depth),
            Value::Inr(y) => value_in_ml(y, b, depth),
            _ => false,
        },
        MlType::Fun(a, b) => fun_value_in(
            v,
            &AffineSemType::Ml((**a).clone()),
            &AffineSemType::Ml((**b).clone()),
            false,
            depth,
        ),
        // References require a heap; the checker treats any location as a
        // potential ref inhabitant (heap-typing refinement is exercised in
        // the §3 model, which owns that machinery).
        MlType::Ref(_) => matches!(v, Value::Loc(_)),
    }
}

fn value_in_affi(v: &Value, ty: &AffiType, depth: usize) -> bool {
    match ty {
        AffiType::Unit => matches!(v, Value::Unit),
        // Affi booleans are exactly 0 and 1 (Fig. 14 uses the same
        // convention for L3; Fig. 8 compiles true/false to 0/1).
        AffiType::Bool => matches!(v, Value::Int(0) | Value::Int(1)),
        AffiType::Int => matches!(v, Value::Int(_)),
        AffiType::Bang(inner) => value_in_affi(v, inner, depth),
        AffiType::Tensor(a, b) => match v {
            Value::Pair(x, y) => value_in_affi(x, a, depth) && value_in_affi(y, b, depth),
            _ => false,
        },
        // Additive pairs compile to pairs of thunks; check each side by
        // forcing it.
        AffiType::With(a, b) => match v {
            Value::Pair(x, y) => {
                forced_in(x, &AffineSemType::Affi((**a).clone()), depth)
                    && forced_in(y, &AffineSemType::Affi((**b).clone()), depth)
            }
            _ => false,
        },
        AffiType::Lolli(mode, a, b) => fun_value_in(
            v,
            &AffineSemType::Affi((**a).clone()),
            &AffineSemType::Affi((**b).clone()),
            *mode == Mode::Dynamic,
            depth,
        ),
    }
}

/// Forces a compiled `&`-component (a thunk closure) and checks the result.
fn forced_in(v: &Value, ty: &AffineSemType, depth: usize) -> bool {
    match v {
        Value::Closure { .. } => {
            let prog = Expr::app(value_to_expr(v), Expr::unit());
            expr_in_depth(prog, ty, depth)
        }
        _ => false,
    }
}

fn fun_value_in(
    v: &Value,
    dom: &AffineSemType,
    cod: &AffineSemType,
    guard_argument: bool,
    depth: usize,
) -> bool {
    if !matches!(v, Value::Closure { .. }) {
        return false;
    }
    if depth == 0 {
        return true;
    }
    for arg in sample_values(dom) {
        let arg_expr = if guard_argument {
            // The Fig. 10 ⊸ clause: the argument is placed behind a fresh
            // dynamic guard, exactly as a compiled application would.
            thunk_guard(value_to_expr(&arg))
        } else {
            value_to_expr(&arg)
        };
        let prog = Expr::app(value_to_expr(v), arg_expr);
        if !expr_in_depth(prog, cod, depth - 1) {
            return false;
        }
    }
    true
}

/// `e ∈ E⟦ty⟧`: evaluate under the standard semantics; benign failures and
/// out-of-fuel are accepted, dynamic type errors are not.
pub fn expr_in(e: Expr, ty: &AffineSemType) -> bool {
    expr_in_depth(e, ty, FUN_DEPTH)
}

fn expr_in_depth(e: Expr, ty: &AffineSemType, depth: usize) -> bool {
    let r = Machine::run_expr(e, CHECK_FUEL);
    halt_in_depth(&r.halt, ty, depth)
}

/// The post-run half of [`expr_in`]: is a run under [`CHECK_FUEL`] that
/// halted with `halt` in `E⟦ty⟧`?
pub fn halt_in(halt: &Halt, ty: &AffineSemType) -> bool {
    halt_in_depth(halt, ty, FUN_DEPTH)
}

fn halt_in_depth(halt: &Halt, ty: &AffineSemType, depth: usize) -> bool {
    match halt {
        Halt::OutOfFuel => true,
        Halt::Fail(ErrorCode::Conv) => true,
        Halt::Fail(_) => false,
        Halt::PhantomStuck { .. } => false,
        Halt::Value(v) => value_in_depth(v, ty, depth),
    }
}

/// Canonical inhabitants of `V⟦ty⟧`, used for the sampled quantifiers.
pub fn sample_values(ty: &AffineSemType) -> Vec<Value> {
    match ty {
        AffineSemType::Ml(MlType::Unit) | AffineSemType::Affi(AffiType::Unit) => {
            vec![Value::Unit]
        }
        AffineSemType::Ml(MlType::Int) | AffineSemType::Affi(AffiType::Int) => {
            vec![Value::Int(0), Value::Int(1), Value::Int(-9)]
        }
        AffineSemType::Affi(AffiType::Bool) => vec![Value::Int(0), Value::Int(1)],
        AffineSemType::Ml(MlType::Prod(a, b)) => pair_samples(
            &AffineSemType::Ml((**a).clone()),
            &AffineSemType::Ml((**b).clone()),
        ),
        AffineSemType::Affi(AffiType::Tensor(a, b)) => pair_samples(
            &AffineSemType::Affi((**a).clone()),
            &AffineSemType::Affi((**b).clone()),
        ),
        AffineSemType::Affi(AffiType::Bang(inner)) => {
            sample_values(&AffineSemType::Affi((**inner).clone()))
        }
        AffineSemType::Ml(MlType::Sum(a, b)) => {
            let mut out: Vec<Value> = sample_values(&AffineSemType::Ml((**a).clone()))
                .into_iter()
                .map(|v| Value::Inl(Box::new(v)))
                .collect();
            out.extend(
                sample_values(&AffineSemType::Ml((**b).clone()))
                    .into_iter()
                    .map(|v| Value::Inr(Box::new(v))),
            );
            out
        }
        // Function samples: constant functions returning canonical
        // codomain values; for dynamic arrows the constant function
        // ignores (never forces) its guarded argument, which is a legal
        // affine behaviour (affine = at *most* once).
        AffineSemType::Ml(MlType::Fun(_, b)) => sample_values(&AffineSemType::Ml((**b).clone()))
            .into_iter()
            .take(2)
            .map(closure_constant)
            .collect(),
        AffineSemType::Affi(AffiType::Lolli(mode, a, b)) => {
            let mut out: Vec<Value> = sample_values(&AffineSemType::Affi((**b).clone()))
                .into_iter()
                .take(2)
                .map(closure_constant)
                .collect();
            // For the dynamic arrow, also include a function that really
            // *forces* its guarded argument — the inhabitant that exposes
            // conversions which forget the thunking protocol.
            if *mode == Mode::Dynamic && a == b {
                out.push(Value::Closure {
                    param: Var::new("forced"),
                    body: std::sync::Arc::new(Expr::app(Expr::var("forced"), Expr::unit())),
                    env: lcvm::Env::empty(),
                });
            }
            out
        }
        AffineSemType::Affi(AffiType::With(a, b)) => {
            // Pairs of constant thunks.
            let xs = sample_values(&AffineSemType::Affi((**a).clone()));
            let ys = sample_values(&AffineSemType::Affi((**b).clone()));
            xs.into_iter()
                .zip(ys)
                .take(2)
                .map(|(x, y)| {
                    Value::Pair(Box::new(closure_constant(x)), Box::new(closure_constant(y)))
                })
                .collect()
        }
        AffineSemType::Ml(MlType::Ref(_)) => vec![],
    }
}

fn pair_samples(a: &AffineSemType, b: &AffineSemType) -> Vec<Value> {
    let xs = sample_values(a);
    let ys = sample_values(b);
    xs.into_iter()
        .zip(ys)
        .take(3)
        .map(|(x, y)| Value::Pair(Box::new(x), Box::new(y)))
        .collect()
}

/// The §4 analogue of Lemma 3.1: both directions of the rule of
/// `conversions` for `𝜏 ∼ τ` map sampled inhabitants into the expression
/// relation at the other type.
pub fn check_convertibility(
    conversions: &AffineConversions,
    affi: &AffiType,
    ml: &MlType,
) -> Result<(), CheckFailure> {
    let (to_ml, to_affi) = conversions.derive(affi, ml).ok_or_else(|| CheckFailure {
        claim: format!("{affi} ∼ {ml}"),
        witness: "-".into(),
        reason: "rule not derivable".into(),
    })?;
    let (affi, ml) = (
        AffineSemType::Affi(affi.clone()),
        AffineSemType::Ml(ml.clone()),
    );
    check_direction(&affi, &ml, &to_ml)?;
    check_direction(&ml, &affi, &to_affi)
}

/// Checks one direction of a (possibly unsound, candidate) conversion.
pub fn check_direction(
    from: &AffineSemType,
    to: &AffineSemType,
    glue: &Expr,
) -> Result<(), CheckFailure> {
    for v in sample_values(from) {
        let prog = Expr::app(glue.clone(), value_to_expr(&v));
        if !expr_in(prog, to) {
            return Err(CheckFailure {
                claim: format!("C_{{{from} ↦ {to}}} sound"),
                witness: v.to_string(),
                reason: format!("conversion output is not in E⟦{to}⟧"),
            });
        }
    }
    Ok(())
}

/// How `expr` halts under [`CHECK_FUEL`] when its static affine binders
/// are protected by phantom flags: the augmented-semantics run that
/// [`judge_safety`] compares with the standard one.  The model check makes
/// it only for a program with a static binder: with none, no flag is minted
/// and compiled code holds no `protect`, so the run would repeat the
/// standard one step for step (see [`lcvm::phantom`]).
pub fn augmented_run(expr: &Expr, static_binders: &Arc<BTreeSet<Var>>) -> Halt {
    let config = PhantomConfig {
        protected_binders: Arc::clone(static_binders),
    };
    Machine::run_phantom(expr.clone(), config, CHECK_FUEL).halt
}

/// Type safety under the standard semantics *and* the augmented
/// semantics, plus the erasure agreement property: judged on how the
/// program halts under each (within [`CHECK_FUEL`]), the two runs must
/// produce the same outcome on well-typed programs, their values agreeing
/// once `protect` is erased ([`Value::agrees_erased`], which names the
/// captured binding where they differ).  The failure's witness is left
/// empty for the caller, who knows what ran.
pub fn judge_safety(standard: &Halt, augmented: &Halt) -> Result<(), CheckFailure> {
    let refuted = |claim: &str, reason: String| CheckFailure {
        claim: claim.into(),
        witness: String::new(),
        reason,
    };
    if !standard.is_safe() {
        return Err(refuted(
            "type safety (standard semantics)",
            format!("{standard:?}"),
        ));
    }
    if !augmented.is_safe() {
        return Err(refuted(
            "type safety (augmented semantics)",
            format!("{augmented:?}"),
        ));
    }
    match (standard, augmented) {
        (Halt::Value(a), Halt::Value(b)) => a.agrees_erased(b).map_err(|binding| {
            let at = binding.map_or(String::new(), |x| format!(", which differ at binding {x}"));
            refuted(
                "erasure agreement",
                format!("standard gave {a}, augmented gave {b}{at}"),
            )
        }),
        _ => Ok(()),
    }
}

/// Embeds a machine value back into expression syntax so the checker can
/// apply glue code and functions to it.  Closures are re-expanded into their
/// defining lambda under a `let`-encoding of their captured environment.
fn value_to_expr(v: &Value) -> Expr {
    match v {
        Value::Unit => Expr::Unit,
        Value::Int(n) => Expr::Int(*n),
        Value::Loc(l) => Expr::Loc(*l),
        Value::Pair(a, b) => Expr::pair(value_to_expr(a), value_to_expr(b)),
        Value::Inl(a) => Expr::inl(value_to_expr(a)),
        Value::Inr(a) => Expr::inr(value_to_expr(a)),
        Value::Protected(inner, _) => value_to_expr(inner),
        Value::Closure { param, body, env } => {
            // Rebuild `λparam. body` under lets binding the captured free
            // variables.  Environments in checker-built values are tiny, so
            // the quadratic rebuild is irrelevant.
            let mut expr = Expr::Lam(param.clone(), body.clone());
            let mut bound: Vec<Var> = vec![param.clone()];
            for fv in body.free_vars() {
                if bound.contains(&fv) {
                    continue;
                }
                if let Some(val) = env.lookup(&fv) {
                    expr = Expr::let_(fv.clone(), value_to_expr(val), expr);
                    bound.push(fv);
                }
            }
            expr
        }
    }
}

/// A closure value `λ_. v` built without running the machine.
fn closure_constant(v: Value) -> Value {
    Value::Closure {
        param: Var::new("ignored"),
        body: std::sync::Arc::new(value_to_expr(&v)),
        env: lcvm::Env::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompileOutput;
    use crate::harness::{AffProgram, AffineCase};
    use crate::syntax::{AffiExpr, MlExpr};
    use semint_core::case::CaseStudy;

    /// Type checks and compiles `program` under the standard rules.
    fn compiled(program: AffProgram) -> CompileOutput {
        let case = AffineCase::standard();
        case.typecheck(&program).unwrap();
        case.compile(&program).unwrap()
    }

    /// The safety judgement on a standard and an augmented run of `expr`.
    fn safety(expr: &Expr, static_binders: &Arc<BTreeSet<Var>>) -> Result<(), CheckFailure> {
        let standard = Machine::run_expr(expr.clone(), CHECK_FUEL).halt;
        judge_safety(&standard, &augmented_run(expr, static_binders))
    }

    #[test]
    fn base_value_membership() {
        assert!(value_in(&Value::Unit, &AffineSemType::Ml(MlType::Unit)));
        assert!(!value_in(&Value::Int(0), &AffineSemType::Ml(MlType::Unit)));
        assert!(value_in(&Value::Int(5), &AffineSemType::Ml(MlType::Int)));
        // Affi booleans are exactly 0/1, MiniML ints are everything.
        assert!(value_in(
            &Value::Int(1),
            &AffineSemType::Affi(AffiType::Bool)
        ));
        assert!(!value_in(
            &Value::Int(7),
            &AffineSemType::Affi(AffiType::Bool)
        ));
        assert!(value_in(
            &Value::Pair(Box::new(Value::Int(1)), Box::new(Value::Unit)),
            &AffineSemType::Affi(AffiType::tensor(AffiType::Int, AffiType::Unit))
        ));
    }

    #[test]
    fn dynamic_arrow_membership_checks_guarded_application() {
        // The compiled Affi identity int ⊸ int is in V⟦int ⊸ int⟧.
        let compiled = compiled(AffProgram::Affi(AffiExpr::lam(
            "a",
            AffiType::Int,
            AffiExpr::avar("a"),
        )));
        let v = Machine::run_expr(compiled.expr, Fuel::default())
            .halt
            .value()
            .unwrap();
        assert!(value_in(
            &v,
            &AffineSemType::Affi(AffiType::lolli(AffiType::Int, AffiType::Int))
        ));
        // It is not in V⟦int ⊸ unit⟧: the result is an int, not unit.
        assert!(!value_in(
            &v,
            &AffineSemType::Affi(AffiType::lolli(AffiType::Int, AffiType::Unit))
        ));
        // A non-closure is never a function.
        assert!(!value_in(
            &Value::Int(3),
            &AffineSemType::Affi(AffiType::lolli(AffiType::Int, AffiType::Int))
        ));
    }

    #[test]
    fn unsound_candidate_conversions_are_rejected() {
        // Claim: MiniML int converts to Affi bool by the identity. False: 7
        // is not an Affi boolean.
        let err = check_direction(
            &AffineSemType::Ml(MlType::Int),
            &AffineSemType::Affi(AffiType::Bool),
            &Expr::lam("x", Expr::var("x")),
        )
        .unwrap_err();
        assert!(err.reason.contains("not in"));

        // Claim: an Affi int ⊸ int converts to a *plain* MiniML int → int by
        // the identity (no thunking). False: applying it to a raw int feeds a
        // non-thunk to code expecting a guard.
        let err = check_direction(
            &AffineSemType::Affi(AffiType::lolli(AffiType::Int, AffiType::Int)),
            &AffineSemType::Ml(MlType::fun(MlType::Int, MlType::Int)),
            &Expr::lam("x", Expr::var("x")),
        )
        .unwrap_err();
        assert_eq!(err.claim, "C_{(int ⊸ int) ↦ (int → int)} sound");
    }

    #[test]
    fn safety_checker_accepts_well_typed_programs_and_catches_stuck_phantoms() {
        let e = AffiExpr::app(
            AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a")),
            AffiExpr::int(3),
        );
        let compiled = compiled(AffProgram::Affi(e));
        safety(&compiled.expr, &compiled.static_binders).unwrap();

        // A hand-built violation: use a protected binder twice.  The standard
        // semantics is fine with it, but the augmented semantics gets stuck,
        // so the checker reports a counterexample — this is the program the
        // Affi type system exists to rule out.
        let expr = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::var("a")));
        let binders = Arc::new(BTreeSet::from([Var::new("a")]));
        let err = safety(&expr, &binders).unwrap_err();
        assert!(err.claim.contains("augmented"));
    }

    #[test]
    fn an_erasure_disagreement_names_the_differing_binding() {
        // λa◦. a◦ under `x• ↦ 20, y• ↦ 22` from the standard run, and the
        // same closure with `y•` bound to 23 from the augmented one.
        let closure = |y: i64| {
            Halt::Value(Value::Closure {
                param: Var::new("a"),
                body: Arc::new(Expr::app(Expr::var("a"), Expr::unit())),
                env: lcvm::Env::empty()
                    .extend(Var::new("x•0"), Value::Int(20))
                    .extend(Var::new("y•1"), Value::Int(y)),
            })
        };
        assert_eq!(judge_safety(&closure(22), &closure(22)), Ok(()));
        let err = judge_safety(&closure(22), &closure(23)).unwrap_err();
        assert_eq!(err.claim, "erasure agreement");
        assert_eq!(
            err.reason,
            "standard gave λa{…}, augmented gave λa{…}, which differ at binding y•1"
        );
    }

    #[test]
    fn miniml_boundary_programs_pass_the_safety_check() {
        let e = MlExpr::add(
            MlExpr::int(1),
            MlExpr::boundary(
                AffiExpr::app(
                    AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
                    AffiExpr::int(2),
                ),
                MlType::Int,
            ),
        );
        let compiled = compiled(AffProgram::Ml(e));
        safety(&compiled.expr, &compiled.static_binders).unwrap();
    }
}
