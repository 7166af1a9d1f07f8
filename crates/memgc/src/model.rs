//! An executable approximation of the §5 realizability model (Fig. 14).
//!
//! The §5 model pairs every value with the *owned* fragment of the manually
//! managed heap and keeps the garbage-collected heap in the world.  The
//! executable checks mirror that split:
//!
//! * [`value_in`] decides `(W, (H, v)) ∈ V⟦·⟧` against a concrete LCVM
//!   heap: capabilities demand that their location is a *live
//!   manually-managed* cell owned by the value (and its contents are in the
//!   stored type's interpretation); `ref τ` demands a live *GC-managed* cell;
//!   `ptr ζ` is just the location named by the substitution `ρ`; `!𝜏` and the
//!   `Duplicable` foreign types own no manual memory;
//! * [`check_transfer_soundness`] is the executable core of the §5
//!   convertibility-soundness argument for `REF 𝜏 ∼ ref τ` under the rule
//!   set it is given (the case study passes the one its compiler uses), and
//!   [`check_transfer`] the same check of one glue pair, however built:
//!   after running the glue code, the result must inhabit the target type's
//!   interpretation *in the resulting heap*, ownership must have moved from
//!   the manual to the GC'd side (or vice versa), and — for the L3→MiniML
//!   direction — the location must be unchanged (the "no copy" claim);
//! * [`halt_type_safe`] judges how a compiled program's run halted: never
//!   `fail Type` or `fail Ptr` (Theorem 3.3/3.4 for this pair of languages:
//!   well-typed programs may fail only with `Conv`).

use crate::convert::MemGcConversions;
use crate::syntax::{L3Type, LocVar, PolyType};
use lcvm::{Expr, Halt, Heap, Loc, Machine, Slot, Value};
use semint_core::{CheckFailure, ErrorCode, Fuel, Scope};
use std::fmt;

/// A source type of either §5 language.
#[derive(Debug, Clone, PartialEq)]
pub enum MemGcSemType {
    /// A MiniML type.
    Ml(PolyType),
    /// An L3 type.
    L3(L3Type),
}

impl fmt::Display for MemGcSemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemGcSemType::Ml(t) => write!(f, "{t}"),
            MemGcSemType::L3(t) => write!(f, "{t}"),
        }
    }
}

/// The location-variable substitution `ρ.L3(ζ) = ℓ` from Fig. 14: a
/// [`Scope`] of locations, so an `∃ζ` under test extends it with one node.
pub type LocSubst = Scope<Loc>;

/// The step budget of every evaluation the checks perform.
pub const CHECK_FUEL: Fuel = Fuel::steps(100_000);

/// Decides `v ∈ V⟦ty⟧` against the heap `heap` under the location
/// substitution `rho`.
pub fn value_in(heap: &Heap, rho: &LocSubst, v: &Value, ty: &MemGcSemType) -> bool {
    match ty {
        MemGcSemType::Ml(t) => value_in_ml(heap, rho, v, t),
        MemGcSemType::L3(t) => value_in_l3(heap, rho, v, t),
    }
}

fn value_in_ml(heap: &Heap, rho: &LocSubst, v: &Value, ty: &PolyType) -> bool {
    match ty {
        PolyType::Unit => matches!(v, Value::Unit),
        PolyType::Int => matches!(v, Value::Int(_)),
        PolyType::Prod(a, b) => match v {
            Value::Pair(x, y) => value_in_ml(heap, rho, x, a) && value_in_ml(heap, rho, y, b),
            _ => false,
        },
        PolyType::Sum(a, b) => match v {
            Value::Inl(x) => value_in_ml(heap, rho, x, a),
            Value::Inr(y) => value_in_ml(heap, rho, y, b),
            _ => false,
        },
        // Functions and quantified types: accept closures (their graphs
        // are exercised by the expression-level checks and the §4-style
        // sampling; re-implementing it here would duplicate that code).
        PolyType::Fun(_, _) | PolyType::Forall(_, _) => matches!(v, Value::Closure { .. }),
        // Type variables denote arbitrary relations drawn from ρ; with no
        // relational substitution the checker is parametricity-agnostic
        // and accepts any value.
        PolyType::Var(_) => true,
        // ref τ: a live GC-managed cell whose contents inhabit τ.
        PolyType::Ref(t) => match v {
            Value::Loc(l) => {
                matches!(heap.slot(*l), Some(Slot::Gc(stored)) if value_in_ml(heap, rho, stored, t))
            }
            _ => false,
        },
        // ⟨𝜏⟩ is interpreted exactly as 𝜏 (Fig. 14: V⟦⟨𝜏⟩⟧ρ = V⟦𝜏⟧ρ).
        PolyType::Foreign(t) => value_in_l3(heap, rho, v, t),
    }
}

fn value_in_l3(heap: &Heap, rho: &LocSubst, v: &Value, ty: &L3Type) -> bool {
    match ty {
        L3Type::Unit => matches!(v, Value::Unit),
        L3Type::Bool => matches!(v, Value::Int(0) | Value::Int(1)),
        L3Type::Tensor(a, b) => match v {
            Value::Pair(x, y) => value_in_l3(heap, rho, x, a) && value_in_l3(heap, rho, y, b),
            _ => false,
        },
        L3Type::Lolli(_, _) => matches!(v, Value::Closure { .. }),
        L3Type::Bang(inner) => value_in_l3(heap, rho, v, inner),
        // ptr ζ: exactly the location ρ names (aliasing is fine).
        L3Type::Ptr(z) => match (v, rho.lookup(z)) {
            (Value::Loc(l), Some(expected)) => l == expected,
            _ => false,
        },
        // cap ζ 𝜏: the capability itself is erased to (), but it asserts
        // ownership of the manual cell ρ(ζ), whose contents inhabit 𝜏.
        L3Type::Cap(z, stored) => {
            matches!(v, Value::Unit)
                && match rho.lookup(z) {
                    Some(l) => {
                        matches!(heap.slot(*l), Some(Slot::Manual(contents)) if value_in_l3(heap, rho, contents, stored))
                    }
                    None => false,
                }
        }
        L3Type::ForallLoc(_, _) => matches!(v, Value::Closure { .. }),
        // ∃ζ.𝜏: some concrete location witnesses the package.  The only
        // existentials the case study builds are REF-like packages
        // `((), ℓ)`, so the checker looks for the witness in the value.
        L3Type::ExistsLoc(z, body) => {
            let mut candidates: Vec<Loc> = Vec::new();
            collect_locs(v, &mut candidates);
            if candidates.is_empty() {
                // No location mentioned: any live location could witness
                // it only if the body ignores ζ.
                return value_in_l3(heap, &rho.extend(z.clone(), Loc(u64::MAX)), v, body);
            }
            candidates
                .into_iter()
                .any(|l| value_in_l3(heap, &rho.extend(z.clone(), l), v, body))
        }
    }
}

/// The executable `REF 𝜏 ∼ ref τ` soundness check (both directions) for a
/// payload pair `(τ, 𝜏)` of `conversions` and an initial payload value:
/// [`check_transfer`] of the glue `conversions` derives for the pair.
///
/// Returns a failure, witnessed by the payload pair, that describes the
/// first violated obligation.
pub fn check_transfer_soundness(
    conversions: &MemGcConversions,
    ml_payload: &PolyType,
    l3_payload: &L3Type,
    initial: Value,
) -> Result<(), CheckFailure> {
    let ml_ref = PolyType::ref_(ml_payload.clone());
    let l3_ref = L3Type::ref_like(l3_payload.clone());
    let (to_l3, to_ml) = conversions
        .derive(&ml_ref, &l3_ref)
        .ok_or_else(|| CheckFailure {
            claim: format!("{ml_ref} ∼ {l3_ref}"),
            witness: format!("{ml_payload} ∼ {l3_payload}"),
            reason: "rule not derivable".into(),
        })?;
    check_transfer(ml_payload, l3_payload, &to_l3, &to_ml, initial)
}

/// The `REF 𝜏 ∼ ref τ` soundness check of one (possibly unsound, candidate)
/// glue pair for the payload pair `(τ, 𝜏)`: `to_l3` is `C_{ref τ ↦ REF 𝜏}`
/// and `to_ml` is `C_{REF 𝜏 ↦ ref τ}`, each run on a cell holding
/// `initial`.
///
/// Returns a failure, witnessed by the payload pair, that describes the
/// first violated obligation.
pub fn check_transfer(
    ml_payload: &PolyType,
    l3_payload: &L3Type,
    to_l3: &Expr,
    to_ml: &Expr,
    initial: Value,
) -> Result<(), CheckFailure> {
    let refuted = |claim: String, reason: String| CheckFailure {
        claim,
        witness: format!("{ml_payload} ∼ {l3_payload}"),
        reason,
    };
    let ml_ref = PolyType::ref_(ml_payload.clone());
    let l3_ref = L3Type::ref_like(l3_payload.clone());

    // Direction 1: L3 → MiniML must transfer ownership without copying.
    let to_ml_refuted = |reason: String| refuted("L3→MiniML transfer".into(), reason);
    let mut heap = Heap::new();
    let loc = heap.alloc_manual(initial.clone());
    let before = heap.stats();
    let prog = Expr::app(to_ml.clone(), Expr::pair(Expr::Unit, Expr::Loc(loc)));
    let r = Machine::with_state(heap, prog).run(CHECK_FUEL);
    let Halt::Value(v) = &r.halt else {
        return Err(to_ml_refuted(format!(
            "conversion did not produce a value: {:?}",
            r.halt
        )));
    };
    if v.as_loc() != Some(loc) {
        return Err(to_ml_refuted(format!(
            "expected the same location {loc}, got {v}"
        )));
    }
    if r.heap.stats().manual_allocs > before.manual_allocs
        || r.heap.stats().gc_allocs > before.gc_allocs
    {
        return Err(to_ml_refuted(
            "the conversion allocated — it must move, not copy".into(),
        ));
    }
    if !value_in(
        &r.heap,
        &LocSubst::empty(),
        v,
        &MemGcSemType::Ml(ml_ref.clone()),
    ) {
        return Err(to_ml_refuted(format!("result is not in V⟦{ml_ref}⟧")));
    }

    // Direction 2: MiniML → L3 must copy into a fresh manual cell and
    // leave the original GC'd cell untouched.
    let to_l3_refuted = |reason: String| refuted("MiniML→L3 conversion".into(), reason);
    let mut heap = Heap::new();
    let gc_loc = heap.alloc_gc(initial);
    let prog = Expr::app(to_l3.clone(), Expr::Loc(gc_loc));
    let r = Machine::with_state(heap, prog).run(CHECK_FUEL);
    let Halt::Value(v) = &r.halt else {
        return Err(to_l3_refuted(format!(
            "conversion did not produce a value: {:?}",
            r.halt
        )));
    };
    let new_loc = match v {
        Value::Pair(_, p) => p.as_loc(),
        _ => None,
    };
    let new_loc =
        new_loc.ok_or_else(|| to_l3_refuted(format!("expected a package ((), ℓ), got {v}")))?;
    if new_loc == gc_loc {
        return Err(to_l3_refuted(
            "the GC'd cell was reused directly — aliases would be broken".into(),
        ));
    }
    if !matches!(r.heap.slot(gc_loc), Some(Slot::Gc(_))) {
        return Err(to_l3_refuted("the original GC'd cell was disturbed".into()));
    }
    let rho = LocSubst::empty().extend(LocVar::new("ζ"), new_loc);
    let pkg_ty = L3Type::tensor(
        L3Type::cap("ζ", l3_payload.clone()),
        L3Type::bang(L3Type::ptr("ζ")),
    );
    if !value_in(&r.heap, &rho, v, &MemGcSemType::L3(pkg_ty)) {
        return Err(to_l3_refuted(format!("result is not in V⟦{l3_ref}⟧")));
    }
    Ok(())
}

/// Type safety for a compiled §5 program, judged on how its run halted
/// within [`CHECK_FUEL`]: it may produce a value, run out of fuel, or fail
/// `Conv`; `Type` and `Ptr` failures witness a violation.  The failure's
/// witness is left empty for the caller, who knows what ran.
pub fn halt_type_safe(halt: &Halt) -> Result<(), CheckFailure> {
    match halt {
        Halt::Value(_) | Halt::OutOfFuel | Halt::Fail(ErrorCode::Conv) => Ok(()),
        other => Err(CheckFailure {
            claim: "type safety".into(),
            witness: String::new(),
            reason: format!("{other:?}"),
        }),
    }
}

fn collect_locs(v: &Value, out: &mut Vec<Loc>) {
    match v {
        Value::Loc(l) => out.push(*l),
        Value::Pair(a, b) => {
            collect_locs(a, out);
            collect_locs(b, out);
        }
        Value::Inl(a) | Value::Inr(a) | Value::Protected(a, _) => collect_locs(a, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{MemGcCase, MgProgram};
    use crate::syntax::{L3Expr, PolyExpr};
    use semint_core::case::CaseStudy;

    #[test]
    fn capability_membership_requires_live_manual_ownership() {
        let mut heap = Heap::new();
        let l = heap.alloc_manual(Value::Int(0));
        let rho = LocSubst::empty().extend(LocVar::new("ζ"), l);
        let cap_ty = MemGcSemType::L3(L3Type::cap("ζ", L3Type::Bool));
        assert!(value_in(&heap, &rho, &Value::Unit, &cap_ty));
        // A pointer to the same cell inhabits ptr ζ.
        assert!(value_in(
            &heap,
            &rho,
            &Value::Loc(l),
            &MemGcSemType::L3(L3Type::ptr("ζ"))
        ));
        // Freeing the cell invalidates the capability.
        heap.free(l).unwrap();
        assert!(!value_in(&heap, &rho, &Value::Unit, &cap_ty));
    }

    #[test]
    fn gc_reference_membership_requires_a_gc_slot() {
        let mut heap = Heap::new();
        let gc = heap.alloc_gc(Value::Int(3));
        let manual = heap.alloc_manual(Value::Int(3));
        let ty = MemGcSemType::Ml(PolyType::ref_(PolyType::Int));
        assert!(value_in(&heap, &LocSubst::empty(), &Value::Loc(gc), &ty));
        assert!(
            !value_in(&heap, &LocSubst::empty(), &Value::Loc(manual), &ty),
            "a manual cell is not an ML reference until it is gcmov'd"
        );
    }

    #[test]
    fn foreign_types_are_interpreted_as_their_l3_type() {
        let heap = Heap::new();
        let ty = MemGcSemType::Ml(PolyType::foreign(L3Type::Bool));
        assert!(value_in(&heap, &LocSubst::empty(), &Value::Int(1), &ty));
        assert!(!value_in(&heap, &LocSubst::empty(), &Value::Int(7), &ty));
    }

    #[test]
    fn ref_like_existential_packages_are_recognised() {
        let mut heap = Heap::new();
        let l = heap.alloc_manual(Value::Int(0));
        let pkg = Value::Pair(Box::new(Value::Unit), Box::new(Value::Loc(l)));
        assert!(value_in(
            &heap,
            &LocSubst::empty(),
            &pkg,
            &MemGcSemType::L3(L3Type::ref_like(L3Type::Bool))
        ));
        // With the payload at the wrong type (an int that is not 0/1) it is
        // rejected.
        heap.write(l, Value::Int(9)).unwrap();
        assert!(!value_in(
            &heap,
            &LocSubst::empty(),
            &pkg,
            &MemGcSemType::L3(L3Type::ref_like(L3Type::Bool))
        ));
    }

    #[test]
    fn transfer_soundness_for_the_registered_payloads() {
        let conversions = MemGcConversions::standard();
        for (ml, l3, initial) in [
            (PolyType::Int, L3Type::Bool, Value::Int(0)),
            (PolyType::Unit, L3Type::Unit, Value::Unit),
            (PolyType::foreign(L3Type::Bool), L3Type::Bool, Value::Int(1)),
        ] {
            check_transfer_soundness(&conversions, &ml, &l3, initial)
                .unwrap_or_else(|failure| panic!("{failure}"));
        }
    }

    #[test]
    fn transfer_soundness_rejects_underivable_payloads() {
        let err = check_transfer_soundness(
            &MemGcConversions::standard(),
            &PolyType::Int,
            &L3Type::cap("ζ", L3Type::Bool),
            Value::Int(0),
        )
        .unwrap_err();
        assert!(err.reason.contains("not derivable"));
    }

    #[test]
    fn compiled_case_study_programs_pass_the_safety_check() {
        let case = MemGcCase::standard();
        let compiled = |program: MgProgram| {
            case.typecheck(&program).unwrap();
            case.compile(&program).unwrap()
        };
        let safety = |expr| halt_type_safe(&Machine::run_expr(expr, CHECK_FUEL).halt);
        let ml = PolyExpr::deref(PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(true)),
            PolyType::ref_(PolyType::Int),
        ));
        safety(compiled(MgProgram::Ml(ml))).unwrap();
        let l3 = L3Expr::free(L3Expr::boundary(
            PolyExpr::ref_(PolyExpr::int(3)),
            L3Type::ref_like(L3Type::Bool),
        ));
        safety(compiled(MgProgram::L3(l3))).unwrap();
        // A deliberately broken target program is caught.
        let bad = Expr::free(Expr::ref_(Expr::int(1)));
        assert!(safety(bad).is_err());
    }
}
