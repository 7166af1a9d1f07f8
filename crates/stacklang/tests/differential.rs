//! The environment machine against the substitution machine of Fig. 2.
//!
//! [`stacklang::reference`] runs the figure literally (`lam` substitutes,
//! `if0` and `call` splice code into one instruction sequence).  On random
//! programs both machines must agree exactly: outcome, final heap and stack
//! (rendered, and compared structurally), step count and every `VmCounters`
//! field.  The programs cover multi-binder and shadowing `lam`s, thunks that
//! capture `lam`-bound variables (also inside array templates, literal arrays
//! and heap cells), `call` of a non-thunk, stack underflow, open programs and
//! truncated fuel.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use semint_core::{ErrorCode, Fuel, Var};
use stacklang::builder::{dup, swap};
use stacklang::{reference, Instr, Machine, Operand, Program, RunResult, Value};

/// Binder names: few, so inner `lam`s often shadow outer ones.
const BINDERS: [&str; 3] = ["a", "b", "c"];

/// The one name no `lam` binds: `push z` is an open program's free variable.
/// (Binding the free variables of a thunk *value* under a later `lam` is
/// where the substitution machine captures and the environment machine does
/// not — see the [`stacklang::reference`] docs — so generated programs keep
/// free names apart from binder names.)
const FREE: &str = "z";

/// A program shape whose variable occurrences are indices into the binders
/// in scope, resolved by [`build`].
#[derive(Debug, Clone)]
enum Shape {
    Num(i64),
    /// `push x` for a binder in scope, or for the free `z` when `i` is
    /// [`FREE_INDEX`].
    Var(usize),
    /// A simple instruction or a Fig. 3 macro.
    Op(Instr),
    /// `push [..]`: an array template.
    Template(Vec<Shape>),
    /// `push (thunk P), call`.
    CallThunk(Vec<Shape>),
    /// `push (thunk P)`, left on the stack.
    Thunk(Vec<Shape>),
    /// `push (thunk P), alloc, read, call`: the thunk round-trips through
    /// the heap.
    StoredThunk(Vec<Shape>),
    /// `push [thunk P, 1], push 0, idx, call`: a thunk inside a literal
    /// array value.
    ArrayThunk(Vec<Shape>),
    If0(Vec<Shape>, Vec<Shape>),
    /// `lam x₁,…,xₖ. P` with binders drawn from [`BINDERS`].
    Lam(Vec<usize>, Vec<Shape>),
}

fn op(code: u8) -> Instr {
    match code {
        0 => Instr::Add,
        1 => Instr::Less,
        2 => Instr::Call,
        3 => Instr::Idx,
        4 => Instr::Len,
        5 => Instr::Alloc,
        6 => Instr::Read,
        7 => Instr::Write,
        8 => dup(),
        9 => swap(),
        _ => Instr::Fail(ErrorCode::Conv),
    }
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![
        (-2i64..4).prop_map(Shape::Num),
        (-2i64..4).prop_map(Shape::Num),
        (0usize..FREE_INDEX + 1).prop_map(Shape::Var),
        (0usize..FREE_INDEX + 1).prop_map(Shape::Var),
        (0usize..FREE_INDEX + 1).prop_map(Shape::Var),
        (0u8..11).prop_map(|c| Shape::Op(op(c))),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        let body = proptest::collection::vec(inner.clone(), 0..5);
        prop_oneof![
            (proptest::collection::vec(0usize..3, 1..4), body.clone())
                .prop_map(|(xs, b)| Shape::Lam(xs, b)),
            (proptest::collection::vec(0usize..3, 1..3), body.clone())
                .prop_map(|(xs, b)| Shape::Lam(xs, b)),
            body.clone().prop_map(Shape::CallThunk),
            body.clone().prop_map(Shape::Thunk),
            body.clone().prop_map(Shape::StoredThunk),
            body.clone().prop_map(Shape::ArrayThunk),
            (body.clone(), body).prop_map(|(t, f)| Shape::If0(t, f)),
            proptest::collection::vec(inner, 0..4).prop_map(Shape::Template),
        ]
    })
}

/// The [`Shape::Var`] index that stands for the free `z`; the others pick
/// a binder in scope, counting from the innermost.
const FREE_INDEX: usize = 7;

fn var(i: usize, scope: &[Var]) -> Var {
    match scope.len() {
        n if n > 0 && i != FREE_INDEX => scope[n - 1 - i % n].clone(),
        _ => Var::new(FREE),
    }
}

fn operand(s: &Shape, scope: &mut Vec<Var>) -> Operand {
    match s {
        Shape::Num(n) => Operand::Lit(Value::Num(*n)),
        Shape::Var(i) => Operand::Var(var(*i, scope)),
        Shape::Template(es) => Operand::Array(es.iter().map(|e| operand(e, scope)).collect()),
        Shape::Thunk(p) | Shape::CallThunk(p) | Shape::StoredThunk(p) | Shape::ArrayThunk(p) => {
            Operand::Lit(Value::thunk(build(p, scope)))
        }
        Shape::Op(_) | Shape::If0(..) | Shape::Lam(..) => Operand::Lit(Value::Num(0)),
    }
}

/// The program a list of shapes stands for, with `scope` the binders of the
/// enclosing `lam`s (innermost last).
fn build(shapes: &[Shape], scope: &mut Vec<Var>) -> Program {
    let mut out = Vec::new();
    for s in shapes {
        match s {
            Shape::Num(n) => out.push(Instr::push_num(*n)),
            Shape::Var(i) => out.push(Instr::push_var(var(*i, scope))),
            Shape::Op(i) => out.push(i.clone()),
            Shape::Template(_) => out.push(Instr::Push(operand(s, scope))),
            Shape::Thunk(p) => out.push(Instr::push_thunk(build(p, scope))),
            Shape::CallThunk(p) => out.extend([Instr::push_thunk(build(p, scope)), Instr::Call]),
            Shape::StoredThunk(p) => out.extend([
                Instr::push_thunk(build(p, scope)),
                Instr::Alloc,
                Instr::Read,
                Instr::Call,
            ]),
            Shape::ArrayThunk(p) => out.extend([
                Instr::push_val(Value::array([Value::thunk(build(p, scope)), Value::Num(1)])),
                Instr::push_num(0),
                Instr::Idx,
                Instr::Call,
            ]),
            Shape::If0(t, f) => out.push(Instr::If0(build(t, scope), build(f, scope))),
            Shape::Lam(xs, body) => {
                let binders: Vec<Var> = xs.iter().map(|&i| Var::new(BINDERS[i])).collect();
                let depth = scope.len();
                // The leftmost binder shadows the others, so it is innermost.
                scope.extend(binders.iter().rev().cloned());
                let body = build(body, scope);
                scope.truncate(depth);
                out.push(Instr::lam(binders, body));
            }
        }
    }
    Program::from(out)
}

fn render(r: &RunResult) -> (String, String, String) {
    (
        r.outcome.to_string(),
        r.heap.to_string(),
        r.stack.to_string(),
    )
}

fn agree(program: &Program, fuel: Fuel) -> Result<(), TestCaseError> {
    let ours = Machine::run_program(program.clone(), fuel);
    let oracle = reference::run_program(program.clone(), fuel);
    prop_assert_eq!(render(&ours), render(&oracle), "program {}", program);
    prop_assert_eq!(ours.steps, oracle.steps, "program {}", program);
    prop_assert_eq!(ours.counters, oracle.counters, "program {}", program);
    prop_assert_eq!(&ours, &oracle, "program {}", program);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Both machines agree on random programs, run to completion and cut
    /// short at a random fuel budget.
    #[test]
    fn environment_machine_matches_substitution_machine(
        shapes in proptest::collection::vec(shape(), 1..8),
        cut in 0u64..40,
    ) {
        // Three values bound to a, b, c and left below them give the
        // shapes operands to work on.
        let body = build(&shapes, &mut BINDERS.iter().rev().map(Var::new).collect());
        let program = Program::from(vec![
            Instr::push_num(0),
            Instr::push_thunk(Program::single(Instr::push_num(7))),
            Instr::push_num(1),
            Instr::push_num(2),
            Instr::push_num(3),
            Instr::lam(BINDERS.map(Var::new), body),
        ]);
        agree(&program, Fuel::default())?;
        agree(&program, Fuel::steps(cut))?;
    }
}

/// The reference's capture of open values, pinned: `z` is free in the
/// thunk `thunk {push z}` that `lam y` binds; substituting it under the
/// inner `lam z` captures `z` in the reference only.
#[test]
fn the_machines_part_only_on_open_values_under_a_binder_of_their_free_name() {
    let z = || Var::new(FREE);
    let program = Program::from(vec![
        Instr::push_thunk(Program::single(Instr::push_var(z()))),
        Instr::lam1(
            "y",
            Program::from(vec![
                Instr::push_num(5),
                Instr::lam1(z(), Program::from(vec![Instr::push_var("y"), Instr::Call])),
            ]),
        ),
    ]);
    let ours = Machine::run_program(program.clone(), Fuel::default());
    let oracle = reference::run_program(program, Fuel::default());
    assert_eq!(ours.outcome.to_string(), "fail Type");
    assert_eq!(oracle.outcome.to_string(), "value 5");
}
