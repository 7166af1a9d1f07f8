//! The budget rule ([`semint_core::Fuel::rebudget`]) on the StackLang
//! machine: a run under fuel `F`, re-budgeted to `B`, must say exactly what
//! a fresh run under `B` does.  "Same" means the same outcome, steps, final
//! heap and stack (the whole [`RunResult`]); "out of fuel" means the fresh
//! run exhausts `B`; "unknown" is allowed only when the run under `F` ran
//! out of fuel before `B`.  The runs under `F` go through a reused machine,
//! as the sweep's batched run stage does, and the programs include ones
//! that never halt.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use semint_core::fuel::Rebudgeted;
use semint_core::{ErrorCode, Fuel, Outcome};
use stacklang::builder::{dup, swap};
use stacklang::{Instr, Machine, Program, RunResult, Value};

#[derive(Debug, Clone)]
enum Piece {
    Num(i64),
    Op(u8),
    If0(Vec<Piece>, Vec<Piece>),
    Thunk(Vec<Piece>),
    CallThunk(Vec<Piece>),
    /// `push 0` then `k` times `push 1, add`: a long run that halts.
    Ladder(u8),
    /// A thunk that calls itself forever.
    Omega,
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

fn piece() -> impl Strategy<Value = Piece> {
    let leaf = prop_oneof![
        (-2i64..4).prop_map(Piece::Num),
        (-2i64..4).prop_map(Piece::Num),
        (0u8..11).prop_map(Piece::Op),
        (0u8..40).prop_map(Piece::Ladder),
        Just(Piece::Omega),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        let body = proptest::collection::vec(inner, 0..4);
        prop_oneof![
            (body.clone(), body.clone()).prop_map(|(t, f)| Piece::If0(t, f)),
            body.clone().prop_map(Piece::Thunk),
            body.prop_map(Piece::CallThunk),
        ]
    })
}

fn omega() -> Vec<Instr> {
    let body = Program::single(Instr::lam1(
        "f",
        Program::from(vec![
            Instr::push_var("f"),
            Instr::push_var("f"),
            Instr::Call,
        ]),
    ));
    vec![
        Instr::push_val(Value::thunk(body.clone())),
        Instr::push_val(Value::thunk(body)),
        Instr::Call,
    ]
}

fn build(pieces: &[Piece]) -> Program {
    let mut out = Vec::new();
    for p in pieces {
        match p {
            Piece::Num(n) => out.push(Instr::push_num(*n)),
            Piece::Op(code) => out.push(op(*code)),
            Piece::If0(t, f) => out.push(Instr::If0(build(t), build(f))),
            Piece::Thunk(b) => out.push(Instr::push_thunk(build(b))),
            Piece::CallThunk(b) => out.extend([Instr::push_thunk(build(b)), Instr::Call]),
            Piece::Ladder(k) => {
                out.push(Instr::push_num(0));
                for _ in 0..*k {
                    out.extend([Instr::push_num(1), Instr::Add]);
                }
            }
            Piece::Omega => out.extend(omega()),
        }
    }
    Program::from(out)
}

/// Runs `program` under `fuel` on a machine that ran another program first.
fn reused_run(program: &Program, fuel: Fuel) -> RunResult {
    let warm_up = Program::from(vec![Instr::push_num(4), Instr::Alloc, Instr::Read]);
    Machine::run_batch([warm_up, program.clone()], fuel)
        .pop()
        .expect("one result per program")
}

fn check(program: &Program, fuel: Fuel, budget: Fuel) -> Result<(), TestCaseError> {
    let run = reused_run(program, fuel);
    let fresh = Machine::run_program(program.clone(), budget);
    match run.rebudget(fuel, budget) {
        Rebudgeted::Same => prop_assert_eq!(&run, &fresh, "program {}", program),
        Rebudgeted::OutOfFuel => {
            prop_assert_eq!(&fresh.outcome, &Outcome::OutOfFuel, "program {}", program);
            prop_assert_eq!(Some(fresh.steps), budget.remaining(), "program {}", program);
        }
        Rebudgeted::Unknown => {
            prop_assert_eq!(&run.outcome, &Outcome::OutOfFuel, "program {}", program);
            prop_assert!(!fuel.covers(budget), "program {}", program);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_rebudgeted_run_equals_a_fresh_run_under_the_budget(
        pieces in proptest::collection::vec(piece(), 1..6),
        fuel in 0u64..120,
        budget in 0u64..120,
    ) {
        let program = build(&pieces);
        check(&program, Fuel::steps(fuel), Fuel::steps(budget))?;
        // Unlimited fuel on either side, for the programs that halt.
        let probe = Machine::run_program(program.clone(), Fuel::steps(10_000));
        if probe.outcome != Outcome::OutOfFuel {
            check(&program, Fuel::unlimited(), Fuel::steps(budget))?;
            check(&program, Fuel::steps(fuel), Fuel::unlimited())?;
        }
    }
}

#[test]
fn a_program_that_never_halts_runs_out_under_every_budget_its_fuel_covers() {
    let program = Program::from(omega());
    for fuel in [0, 1, 5, 64, 1_000] {
        for budget in [0, 3, 64, 999, 1_000, 1_001] {
            let run = reused_run(&program, Fuel::steps(fuel));
            assert_eq!(run.outcome, Outcome::OutOfFuel);
            assert_eq!(run.steps, fuel);
            let expected = if fuel >= budget {
                Rebudgeted::OutOfFuel
            } else {
                Rebudgeted::Unknown
            };
            assert_eq!(
                run.rebudget(Fuel::steps(fuel), Fuel::steps(budget)),
                expected
            );
            check(&program, Fuel::steps(fuel), Fuel::steps(budget)).expect("the rule holds");
        }
    }
}
