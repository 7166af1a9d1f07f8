//! An executable approximation of the §3 realizability model (Fig. 5).
//!
//! The paper interprets each source type `τ` as a set `V⟦τ⟧` of pairs
//! `(W, v)` of a step-indexed world and a *StackLang* value, and each world
//! as a step budget plus a heap typing mapping locations to type
//! interpretations.  This module makes that model executable:
//!
//! * worlds are concrete ([`World`]): a step index plus a heap typing that
//!   maps locations to *source types of either language* ([`SemType`]) —
//!   sufficient because every interpretation the §3 system ever stores in a
//!   heap typing is the interpretation of some source type;
//! * membership `(W, v) ∈ V⟦τ⟧` is decided by [`value_in`]; the universal
//!   quantification over future worlds/arguments in the function case is
//!   approximated by a finite suite of canonical arguments and a bounded
//!   recursion depth;
//! * membership `(W, P) ∈ E⟦τ⟧` ([`expr_in`]) runs the machine for at most
//!   `W.k` steps and checks the escape clauses of the expression relation
//!   exactly as written (benign failure, out of budget, or a value in
//!   `V⟦τ⟧` under an extended world);
//! * [`check_convertibility`] is the executable content of Lemma 3.1
//!   (Convertibility Soundness) for one rule of the rule set it is given —
//!   the case study passes the one its compiler uses — and
//!   [`outcome_type_safe`] judges a run for Theorem 3.4.
//!
//! The positive direction (a term *is* in the relation) is approximate —
//! quantifiers are sampled — but the negative direction is exact: when a
//! check reports a [`CheckFailure`], the corresponding paper lemma is
//! genuinely violated for that rule set.  The test suite exercises both
//! directions, including deliberately unsound conversions that must be
//! rejected.

use crate::convert::SharedMemConversions;
use reflang::syntax::{HlType, LlType};
use semint_core::{CheckFailure, ErrorCode, Fuel, Outcome};
use stacklang::{Heap, Instr, Loc, Machine, Program, RunResult, StackState, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A source type of either language — the index set of the unified logical
/// relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SemType {
    /// A RefHL type.
    Hl(HlType),
    /// A RefLL type.
    Ll(LlType),
}

impl fmt::Display for SemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemType::Hl(t) => write!(f, "{t}"),
            SemType::Ll(t) => write!(f, "{t}"),
        }
    }
}

impl From<HlType> for SemType {
    fn from(t: HlType) -> Self {
        SemType::Hl(t)
    }
}

impl From<LlType> for SemType {
    fn from(t: LlType) -> Self {
        SemType::Ll(t)
    }
}

/// Decides whether two type interpretations are *the same set of target
/// values* — the question the paper highlights as newly expressible in a
/// unified realizability model ("we can ask if V⟦bool⟧ = V⟦int⟧").
///
/// The equality is decided structurally with the §3 base facts:
/// `V⟦bool⟧ = V⟦int⟧` (both are all integers) and `V⟦ref τ⟧ = V⟦ref 𝜏⟧` iff
/// the payload interpretations are equal.  Sums, products, arrays, unit and
/// functions of non-equal components are never equal to each other.
pub fn interp_equal(a: &SemType, b: &SemType) -> bool {
    use SemType::{Hl, Ll};
    match (a, b) {
        // Reflexivity.
        _ if a == b => true,
        // bool and int are both "all target integers".
        (Hl(HlType::Bool), Ll(LlType::Int)) | (Ll(LlType::Int), Hl(HlType::Bool)) => true,
        // References are equal exactly when their payload interpretations are.
        (Hl(HlType::Ref(t)), Ll(LlType::Ref(u))) | (Ll(LlType::Ref(u)), Hl(HlType::Ref(t))) => {
            interp_equal(&Hl((**t).clone()), &Ll((**u).clone()))
        }
        (Hl(HlType::Ref(t)), Hl(HlType::Ref(u))) => {
            interp_equal(&Hl((**t).clone()), &Hl((**u).clone()))
        }
        (Ll(LlType::Ref(t)), Ll(LlType::Ref(u))) => {
            interp_equal(&Ll((**t).clone()), &Ll((**u).clone()))
        }
        // Functions are equal when both domain and codomain interpretations
        // are equal (the relation is the same set of thunks).
        (Hl(HlType::Fun(a1, b1)), Ll(LlType::Fun(a2, b2)))
        | (Ll(LlType::Fun(a2, b2)), Hl(HlType::Fun(a1, b1))) => {
            interp_equal(&Hl((**a1).clone()), &Ll((**a2).clone()))
                && interp_equal(&Hl((**b1).clone()), &Ll((**b2).clone()))
        }
        _ => false,
    }
}

/// A step-indexed world `W = (k, Ψ)` (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// The step budget `W.k`.
    pub k: u64,
    /// The heap typing `W.Ψ`, mapping locations to the (source) type whose
    /// interpretation they must hold.
    pub heap_typing: BTreeMap<Loc, SemType>,
}

impl World {
    /// A world with the given budget and empty heap typing.
    pub fn new(k: u64) -> World {
        World {
            k,
            heap_typing: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a heap-typing entry.
    pub fn with_loc(mut self, l: Loc, ty: impl Into<SemType>) -> World {
        self.heap_typing.insert(l, ty.into());
        self
    }

    /// `W' ⊒ W`: the future world may have a smaller budget and must preserve
    /// every existing heap-typing entry at an equal interpretation.
    pub fn extended_by(&self, future: &World) -> bool {
        if future.k > self.k {
            return false;
        }
        self.heap_typing.iter().all(|(l, ty)| {
            future
                .heap_typing
                .get(l)
                .map(|ty2| interp_equal(ty, ty2))
                .unwrap_or(false)
        })
    }
}

/// Recursion depth for the function case of the value relation.
const FUN_DEPTH: usize = 2;

/// `(W, v) ∈ V⟦ty⟧` under heap `heap` (needed to chase references that
/// the world has not yet been told about — see module docs).
pub fn value_in(world: &World, heap: &Heap, v: &Value, ty: &SemType) -> bool {
    value_in_depth(world, heap, v, ty, FUN_DEPTH)
}

fn value_in_depth(world: &World, heap: &Heap, v: &Value, ty: &SemType, depth: usize) -> bool {
    match ty {
        SemType::Hl(t) => value_in_hl(world, heap, v, t, depth),
        SemType::Ll(t) => value_in_ll(world, heap, v, t, depth),
    }
}

fn value_in_hl(world: &World, heap: &Heap, v: &Value, ty: &HlType, depth: usize) -> bool {
    match ty {
        // V⟦unit⟧ = {(W, 0)}
        HlType::Unit => matches!(v, Value::Num(0)),
        // V⟦bool⟧ = {(W, n)} — all integers.
        HlType::Bool => matches!(v, Value::Num(_)),
        // V⟦τ1 + τ2⟧ = {[0, v]} ∪ {[1, v]} with payload in the component.
        HlType::Sum(t1, t2) => match v {
            Value::Array(parts) if parts.len() == 2 => match &parts[0] {
                Value::Num(0) => value_in_hl(world, heap, &parts[1], t1, depth),
                Value::Num(1) => value_in_hl(world, heap, &parts[1], t2, depth),
                _ => false,
            },
            _ => false,
        },
        HlType::Prod(t1, t2) => match v {
            Value::Array(parts) if parts.len() == 2 => {
                value_in_hl(world, heap, &parts[0], t1, depth)
                    && value_in_hl(world, heap, &parts[1], t2, depth)
            }
            _ => false,
        },
        HlType::Fun(t1, t2) => fun_value_in(
            world,
            heap,
            v,
            &SemType::Hl((**t1).clone()),
            &SemType::Hl((**t2).clone()),
            depth,
        ),
        HlType::Ref(t) => ref_value_in(world, heap, v, &SemType::Hl((**t).clone()), depth),
    }
}

fn value_in_ll(world: &World, heap: &Heap, v: &Value, ty: &LlType, depth: usize) -> bool {
    match ty {
        // V⟦int⟧ = {(W, n)}
        LlType::Int => matches!(v, Value::Num(_)),
        // V⟦[𝜏]⟧: every element is in V⟦𝜏⟧ (any length).
        LlType::Array(elem) => match v {
            Value::Array(parts) => parts
                .iter()
                .all(|p| value_in_ll(world, heap, p, elem, depth)),
            _ => false,
        },
        LlType::Fun(t1, t2) => fun_value_in(
            world,
            heap,
            v,
            &SemType::Ll((**t1).clone()),
            &SemType::Ll((**t2).clone()),
            depth,
        ),
        LlType::Ref(t) => ref_value_in(world, heap, v, &SemType::Ll((**t).clone()), depth),
    }
}

/// The reference case: `(W, ℓ) ∈ V⟦ref τ⟧` iff `W.Ψ(ℓ)` is (extensionally)
/// the interpretation of `τ`.  For locations the world does not mention,
/// the checker falls back to verifying the current heap contents — the
/// "inferred extension" approximation described in the module docs.
fn ref_value_in(world: &World, heap: &Heap, v: &Value, payload: &SemType, depth: usize) -> bool {
    let l = match v {
        Value::Loc(l) => *l,
        _ => return false,
    };
    match world.heap_typing.get(&l) {
        Some(assigned) => interp_equal(assigned, payload),
        None => match heap.read(l) {
            Some(stored) => value_in_depth(world, heap, stored, payload, depth),
            None => false,
        },
    }
}

/// The function case: the value must be a `thunk (lam x. P)` and, for a
/// suite of canonical arguments in the domain, running the application
/// must land in the expression relation at the codomain.
fn fun_value_in(
    world: &World,
    heap: &Heap,
    v: &Value,
    dom: &SemType,
    cod: &SemType,
    depth: usize,
) -> bool {
    if !matches!(v, Value::Thunk(_)) {
        return false;
    }
    if depth == 0 {
        // Budget for nested function exploration exhausted: accept the
        // shape (this is the approximate positive direction).
        return true;
    }
    for arg in sample_values(dom) {
        // Application protocol (Fig. 3): argument below the thunk, `call`.
        let program = Program::from(vec![
            Instr::push_val(arg.clone()),
            Instr::push_val(v.clone()),
            Instr::Call,
        ]);
        if !expr_in_depth(world, heap.clone(), &program, cod, depth - 1) {
            return false;
        }
    }
    true
}

/// `(W, P) ∈ E⟦ty⟧`, starting from a heap that satisfies `W`.
pub fn expr_in(world: &World, heap: Heap, program: &Program, ty: &SemType) -> bool {
    expr_in_depth(world, heap, program, ty, FUN_DEPTH)
}

fn expr_in_depth(world: &World, heap: Heap, program: &Program, ty: &SemType, depth: usize) -> bool {
    let machine = Machine::with_state(heap, StackState::empty(), program.clone());
    let result = machine.run(Fuel::steps(world.k));
    run_in_depth(world, &result, ty, depth)
}

/// The post-run half of [`expr_in`]: is `result`, a run of the program for
/// at most `W.k` steps from a heap that satisfies `W`, in `E⟦ty⟧`?
pub fn run_in(world: &World, result: &RunResult, ty: &SemType) -> bool {
    run_in_depth(world, result, ty, FUN_DEPTH)
}

fn run_in_depth(world: &World, result: &RunResult, ty: &SemType, depth: usize) -> bool {
    match &result.outcome {
        // Ran longer than the step budget: no constraint (escape clause).
        Outcome::OutOfFuel => true,
        // Well-defined errors are allowed by the §3 expression relation.
        Outcome::Fail(ErrorCode::Conv) | Outcome::Fail(ErrorCode::Idx) => true,
        Outcome::Fail(_) => false,
        Outcome::Value(v) => {
            // Build the future world: the budget shrinks by the steps
            // taken; existing heap-typing entries persist.
            let k_left = world.k.saturating_sub(result.steps);
            let future = World {
                k: k_left,
                heap_typing: world.heap_typing.clone(),
            };
            value_in_depth(&future, &result.heap, v, ty, depth)
        }
    }
}

/// Does `heap` satisfy `world` (`H : W`)?  Every location the heap typing
/// mentions must exist and hold a value in the assigned interpretation.
pub fn heap_satisfies(world: &World, heap: &Heap) -> bool {
    world.heap_typing.iter().all(|(l, ty)| match heap.read(*l) {
        Some(v) => value_in(world, heap, v, ty),
        None => false,
    })
}

/// Canonical inhabitants of `V⟦ty⟧`, used to instantiate the universally
/// quantified argument of the function case and to seed convertibility
/// checks.
pub fn sample_values(ty: &SemType) -> Vec<Value> {
    match ty {
        SemType::Hl(HlType::Unit) => vec![Value::Num(0)],
        SemType::Hl(HlType::Bool) => vec![Value::Num(0), Value::Num(1), Value::Num(42)],
        SemType::Ll(LlType::Int) => vec![Value::Num(0), Value::Num(1), Value::Num(-7)],
        SemType::Hl(HlType::Sum(a, b)) => {
            let mut out = Vec::new();
            for v in sample_values(&SemType::Hl((**a).clone())) {
                out.push(Value::array([Value::Num(0), v]));
            }
            for v in sample_values(&SemType::Hl((**b).clone())) {
                out.push(Value::array([Value::Num(1), v]));
            }
            out
        }
        SemType::Hl(HlType::Prod(a, b)) => {
            let xs = sample_values(&SemType::Hl((**a).clone()));
            let ys = sample_values(&SemType::Hl((**b).clone()));
            xs.into_iter()
                .flat_map(|x| ys.iter().map(move |y| Value::array([x.clone(), y.clone()])))
                .take(4)
                .collect()
        }
        // The first two element samples in both orders, so that an `[int]`
        // carries tag 0 (`[0, 1]`) and tag 1 (`[1, 0]`) into `C_{[int] ↦ τ1+τ2}`.
        SemType::Ll(LlType::Array(elem)) => {
            let es = sample_values(&SemType::Ll((**elem).clone()));
            vec![
                Value::array([]),
                Value::array(es.iter().take(2).cloned()),
                Value::array(es.iter().take(2).rev().cloned()),
                Value::array(es.into_iter().take(3)),
            ]
        }
        // Constant functions returning canonical codomain values.
        SemType::Hl(HlType::Fun(_, b)) => constant_thunks(&SemType::Hl((**b).clone())),
        SemType::Ll(LlType::Fun(_, b)) => constant_thunks(&SemType::Ll((**b).clone())),
        // Reference samples require a heap; convertibility checks build
        // them explicitly (see `check_direction`), so none here.
        SemType::Hl(HlType::Ref(_)) | SemType::Ll(LlType::Ref(_)) => vec![],
    }
}

/// Up to two constant functions `thunk (lam _. push v)`, one per canonical
/// inhabitant `v` of `cod`.
fn constant_thunks(cod: &SemType) -> Vec<Value> {
    sample_values(cod)
        .into_iter()
        .take(2)
        .map(|v| {
            Value::thunk(Program::single(Instr::lam1(
                "ignored",
                Program::single(Instr::push_val(v)),
            )))
        })
        .collect()
}

/// The executable content of **Lemma 3.1 (Convertibility Soundness)** for
/// one rule of `conversions`: for every sampled `(W, v) ∈ V⟦hl⟧`, pushing
/// `v` and running `C_{hl↦ll}` must land in `E⟦ll⟧`, and symmetrically.
pub fn check_convertibility(
    conversions: &SharedMemConversions,
    hl: &HlType,
    ll: &LlType,
) -> Result<(), CheckFailure> {
    let Some((to_ll, to_hl)) = conversions.derive(hl, ll) else {
        return Err(CheckFailure {
            claim: format!("{hl} ∼ {ll}"),
            witness: "-".into(),
            reason: "rule not derivable".into(),
        });
    };
    let (hl, ll) = (SemType::Hl(hl.clone()), SemType::Ll(ll.clone()));
    check_direction(&hl, &ll, &to_ll)?;
    check_direction(&ll, &hl, &to_hl)
}

/// Checks one direction of a conversion against an explicit glue program —
/// also usable for *candidate* (possibly unsound) conversions.
pub fn check_direction(from: &SemType, to: &SemType, glue: &Program) -> Result<(), CheckFailure> {
    let refuted = |witness: String, reason: String| CheckFailure {
        claim: format!("C_{{{from} ↦ {to}}} sound"),
        witness,
        reason,
    };
    let world = World::new(10_000);
    for v in sample_values(from) {
        let program = Program::single(Instr::push_val(v.clone())).then(glue.clone());
        if !expr_in(&world, Heap::new(), &program, to) {
            return Err(refuted(
                v.to_string(),
                format!("conversion output is not in E⟦{to}⟧"),
            ));
        }
    }
    // Reference samples need a heap: build one per payload sample.
    if let Some(payload) = ref_payload(from) {
        for pv in sample_values(&payload) {
            let mut heap = Heap::new();
            let l = heap.alloc(pv.clone());
            let world = World::new(10_000).with_loc(l, payload.clone());
            let program = Program::single(Instr::push_val(Value::Loc(l))).then(glue.clone());
            if !expr_in(&world, heap, &program, to) {
                return Err(refuted(
                    format!("ℓ ↦ {pv}"),
                    format!("converted reference is not in E⟦{to}⟧"),
                ));
            }
        }
    }
    Ok(())
}

/// The executable content of **Theorems 3.3/3.4 (type safety)**, judged on
/// a run's outcome: it must be a value, a benign failure, or out of fuel —
/// never a dynamic type error.  The failure's witness is left empty for
/// the caller, who knows what ran.
pub fn outcome_type_safe(outcome: &Outcome<Value>) -> Result<(), CheckFailure> {
    if outcome.is_safe() {
        Ok(())
    } else {
        Err(CheckFailure {
            claim: "type safety".into(),
            witness: String::new(),
            reason: format!("outcome {outcome:?}"),
        })
    }
}

fn ref_payload(ty: &SemType) -> Option<SemType> {
    match ty {
        SemType::Hl(HlType::Ref(t)) => Some(SemType::Hl((**t).clone())),
        SemType::Ll(LlType::Ref(t)) => Some(SemType::Ll((**t).clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_and_int_have_the_same_interpretation() {
        assert!(interp_equal(
            &SemType::Hl(HlType::Bool),
            &SemType::Ll(LlType::Int)
        ));
        assert!(interp_equal(
            &SemType::Hl(HlType::ref_(HlType::Bool)),
            &SemType::Ll(LlType::ref_(LlType::Int))
        ));
        assert!(!interp_equal(
            &SemType::Hl(HlType::Unit),
            &SemType::Ll(LlType::Int)
        ));
        assert!(!interp_equal(
            &SemType::Hl(HlType::sum(HlType::Bool, HlType::Bool)),
            &SemType::Ll(LlType::array(LlType::Int))
        ));
    }

    #[test]
    fn value_relation_base_cases() {
        let w = World::new(100);
        let h = Heap::new();
        // unit: only 0.
        assert!(value_in(&w, &h, &Value::Num(0), &SemType::Hl(HlType::Unit)));
        assert!(!value_in(
            &w,
            &h,
            &Value::Num(3),
            &SemType::Hl(HlType::Unit)
        ));
        // bool: every integer, nothing else.
        assert!(value_in(
            &w,
            &h,
            &Value::Num(17),
            &SemType::Hl(HlType::Bool)
        ));
        assert!(!value_in(
            &w,
            &h,
            &Value::array([]),
            &SemType::Hl(HlType::Bool)
        ));
        // int likewise.
        assert!(value_in(&w, &h, &Value::Num(-4), &SemType::Ll(LlType::Int)));
    }

    #[test]
    fn sums_products_and_arrays() {
        let w = World::new(100);
        let h = Heap::new();
        let sum = SemType::Hl(HlType::sum(HlType::Bool, HlType::Unit));
        assert!(value_in(
            &w,
            &h,
            &Value::array([Value::Num(0), Value::Num(9)]),
            &sum
        ));
        assert!(value_in(
            &w,
            &h,
            &Value::array([Value::Num(1), Value::Num(0)]),
            &sum
        ));
        // inr payload must be unit (0).
        assert!(!value_in(
            &w,
            &h,
            &Value::array([Value::Num(1), Value::Num(9)]),
            &sum
        ));
        // bad tag.
        assert!(!value_in(
            &w,
            &h,
            &Value::array([Value::Num(2), Value::Num(0)]),
            &sum
        ));

        let arr = SemType::Ll(LlType::array(LlType::Int));
        assert!(value_in(&w, &h, &Value::array([]), &arr));
        assert!(value_in(
            &w,
            &h,
            &Value::array([Value::Num(1), Value::Num(2), Value::Num(3)]),
            &arr
        ));
        assert!(!value_in(&w, &h, &Value::array([Value::array([])]), &arr));
    }

    #[test]
    fn reference_membership_uses_the_heap_typing() {
        let mut h = Heap::new();
        let l = h.alloc(Value::Num(1));
        // With ℓ : bool in the world, ℓ inhabits both ref bool and ref int —
        // the crux of the §3 case study.
        let w = World::new(100).with_loc(l, HlType::Bool);
        assert!(value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
        assert!(value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Ll(LlType::ref_(LlType::Int))
        ));
        // But not ref unit: V⟦unit⟧ ≠ V⟦bool⟧.
        assert!(!value_in(
            &w,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Unit))
        ));
        // A location the world does not know falls back to the heap contents.
        let w0 = World::new(100);
        assert!(value_in(
            &w0,
            &h,
            &Value::Loc(l),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
        // Dangling locations are never in the relation.
        assert!(!value_in(
            &w0,
            &h,
            &Value::Loc(Loc(99)),
            &SemType::Hl(HlType::ref_(HlType::Bool))
        ));
    }

    #[test]
    fn function_values_are_checked_on_canonical_arguments() {
        let w = World::new(10_000);
        let h = Heap::new();
        // thunk (lam x. push x) : bool → bool (the identity).
        let ident = Value::thunk(Program::single(Instr::lam1(
            "x",
            Program::single(Instr::push_var("x")),
        )));
        let ty = SemType::Hl(HlType::fun(HlType::Bool, HlType::Bool));
        assert!(value_in(&w, &h, &ident, &ty));
        // A function that ignores its argument and returns an array is not a
        // bool → bool.
        let bad = Value::thunk(Program::single(Instr::lam1(
            "x",
            Program::single(Instr::push_val(Value::array([]))),
        )));
        assert!(!value_in(&w, &h, &bad, &ty));
        // But it *is* a bool → [int].
        assert!(value_in(
            &w,
            &h,
            &bad,
            &SemType::Ll(LlType::fun(LlType::Int, LlType::array(LlType::Int)))
        ));
        // Non-thunks are never functions.
        assert!(!value_in(&w, &h, &Value::Num(3), &ty));
    }

    #[test]
    fn expression_relation_allows_benign_failures_and_divergence() {
        let w = World::new(1_000);
        let ty = SemType::Hl(HlType::Bool);
        // A program that fails Conv is in every E⟦τ⟧.
        let p = Program::single(Instr::Fail(ErrorCode::Conv));
        assert!(expr_in(&w, Heap::new(), &p, &ty));
        // A program that fails Type is in none.
        let p = Program::single(Instr::Add);
        assert!(!expr_in(&w, Heap::new(), &p, &ty));
        // A value of the wrong shape is rejected.
        let p = Program::single(Instr::push_val(Value::array([])));
        assert!(!expr_in(&w, Heap::new(), &p, &ty));
        // A long-running program exhausts the budget and is accepted.
        let mut instrs = vec![Instr::push_num(0)];
        for _ in 0..2_000 {
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::Add);
        }
        let w_small = World::new(50);
        assert!(expr_in(&w_small, Heap::new(), &Program::from(instrs), &ty));
    }

    #[test]
    fn heap_satisfaction() {
        let mut h = Heap::new();
        let l = h.alloc(Value::Num(5));
        let w = World::new(100).with_loc(l, HlType::Bool);
        assert!(heap_satisfies(&w, &h));
        // unit demands exactly 0.
        let w_bad = World::new(100).with_loc(l, HlType::Unit);
        assert!(!heap_satisfies(&w_bad, &h));
        // Missing locations violate satisfaction.
        let w_missing = World::new(100).with_loc(Loc(77), HlType::Bool);
        assert!(!heap_satisfies(&w_missing, &h));
    }

    #[test]
    fn lemma_3_1_convertibility_soundness_for_the_registered_rules() {
        let rules = vec![
            (HlType::Bool, LlType::Int),
            (HlType::Unit, LlType::Int),
            (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
            (
                HlType::sum(HlType::Bool, HlType::Bool),
                LlType::array(LlType::Int),
            ),
            (
                HlType::sum(HlType::Unit, HlType::Bool),
                LlType::array(LlType::Int),
            ),
            (
                HlType::prod(HlType::Bool, HlType::Bool),
                LlType::array(LlType::Int),
            ),
        ];
        let conversions = SharedMemConversions::standard();
        for (hl, ll) in rules {
            check_convertibility(&conversions, &hl, &ll)
                .unwrap_or_else(|ce| panic!("convertibility soundness failed: {ce}"));
        }
    }

    #[test]
    fn unsound_candidate_conversions_are_rejected() {
        // Claim: int converts to unit by doing nothing. False: 7 is not in
        // V⟦unit⟧.
        let err = check_direction(
            &SemType::Ll(LlType::Int),
            &SemType::Hl(HlType::Unit),
            &Program::empty(),
        )
        .unwrap_err();
        assert!(err.reason.contains("not in"));

        // Claim: int converts to bool+bool by tagging without checking: wrong,
        // arbitrary ints are not valid payload-carrying sums.
        let bogus = Program::single(Instr::push_num(5));
        let err = check_direction(
            &SemType::Ll(LlType::Int),
            &SemType::Hl(HlType::sum(HlType::Bool, HlType::Bool)),
            &bogus,
        )
        .unwrap_err();
        assert_eq!(err.claim, "C_{int ↦ (bool + bool)} sound");

        // Claim: ref [int] converts to ref (bool×bool) with a no-op (pointer
        // sharing): unsound because an empty array can be stored there.
        let err = check_direction(
            &SemType::Ll(LlType::ref_(LlType::array(LlType::Int))),
            &SemType::Hl(HlType::ref_(HlType::prod(HlType::Bool, HlType::Bool))),
            &Program::empty(),
        )
        .unwrap_err();
        assert!(err.witness.contains("ℓ"));
    }

    #[test]
    fn unregistered_rules_report_not_derivable() {
        let err = check_convertibility(
            &SharedMemConversions::standard(),
            &HlType::Bool,
            &LlType::array(LlType::Int),
        )
        .unwrap_err();
        assert_eq!(err.reason, "rule not derivable");
    }

    #[test]
    fn world_extension_laws() {
        let w = World::new(10).with_loc(Loc(0), HlType::Bool);
        // Extension is reflexive, and lowering the budget is an extension.
        assert!(w.extended_by(&w));
        let lowered = World { k: 9, ..w.clone() };
        assert!(w.extended_by(&lowered));
        // Forgetting a location is not an extension; relabelling bool as int is.
        let forgot = World::new(5);
        assert!(!w.extended_by(&forgot));
        let relabelled = World {
            k: 5,
            heap_typing: BTreeMap::from([(Loc(0), SemType::Ll(LlType::Int))]),
        };
        assert!(w.extended_by(&relabelled));
        // Raising the budget is not an extension.
        let raised = World {
            k: 50,
            heap_typing: w.heap_typing.clone(),
        };
        assert!(!w.extended_by(&raised));
    }

    #[test]
    fn type_safety_checker_flags_type_failures_only() {
        let judge = |instr| {
            let run = Machine::run_program(Program::single(instr), Fuel::default());
            outcome_type_safe(&run.outcome)
        };
        assert!(judge(Instr::push_num(1)).is_ok());
        assert!(judge(Instr::Fail(ErrorCode::Conv)).is_ok());
        assert!(judge(Instr::Call).is_err());
    }
}
