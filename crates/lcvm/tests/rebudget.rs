//! The budget rule ([`semint_core::Fuel::rebudget`]) on the LCVM machine:
//! a run under fuel `F`, re-budgeted to `B`, must say exactly what a fresh
//! run under `B` does.  "Same" means the same halt, steps, final heap and
//! counters (the whole [`RunResult`]); "out of fuel" means the fresh run
//! exhausts `B`; "unknown" is allowed only when the run under `F` ran out
//! of fuel before `B`.  The runs under `F` go through a reused machine, as
//! the sweep's batched run stage does, and the programs include ones that
//! never halt.

use lcvm::{Expr, Halt, Machine, RunResult};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use semint_core::fuel::Rebudgeted;
use semint_core::{ErrorCode, Fuel};

/// `(λx. x x) (λx. x x)`.
fn omega() -> Expr {
    let half = Expr::lam("x", Expr::app(Expr::var("x"), Expr::var("x")));
    Expr::app(half.clone(), half)
}

/// Counts `n` down to 0 by self-application, then returns `()`: a run whose
/// length grows with `n` and that halts.
fn countdown(n: i64) -> Expr {
    let step = Expr::lam(
        "s",
        Expr::lam(
            "n",
            Expr::if_(
                Expr::var("n"),
                Expr::unit(),
                Expr::app(
                    Expr::app(Expr::var("s"), Expr::var("s")),
                    Expr::add(Expr::var("n"), Expr::int(-1)),
                ),
            ),
        ),
    );
    Expr::app(Expr::app(step.clone(), step), Expr::int(n))
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-2i64..4).prop_map(Expr::int),
        Just(Expr::unit()),
        Just(Expr::var("x")),
        Just(Expr::var("y")),
        Just(Expr::Fail(ErrorCode::Conv)),
        Just(Expr::Callgc),
        (0i64..25).prop_map(countdown),
        Just(omega()),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::pair(a, b)),
            inner.clone().prop_map(Expr::fst),
            inner.clone().prop_map(Expr::snd),
            inner.clone().prop_map(Expr::inl),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::if_(c, t, f)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(e, l, r)| Expr::match_(e, "x", l, "y", r)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::let_("x", a, b)),
            inner.clone().prop_map(|b| Expr::lam("y", b)),
            (inner.clone(), inner.clone()).prop_map(|(f, a)| Expr::app(f, a)),
            inner.clone().prop_map(Expr::ref_),
            inner.clone().prop_map(Expr::deref),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::assign(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            inner.clone().prop_map(Expr::alloc),
            inner.clone().prop_map(Expr::free),
            inner.prop_map(Expr::gcmov),
        ]
    })
}

/// Runs `expr` under `fuel` on a machine that ran another program first.
fn reused_run(expr: &Expr, fuel: Fuel) -> RunResult {
    let warm_up = Expr::free(Expr::alloc(Expr::pair(
        Expr::int(1),
        Expr::ref_(Expr::unit()),
    )));
    Machine::run_batch([warm_up, expr.clone()], fuel)
        .pop()
        .expect("one result per program")
}

fn check(expr: &Expr, fuel: Fuel, budget: Fuel) -> Result<(), TestCaseError> {
    let run = reused_run(expr, fuel);
    let fresh = Machine::run_expr(expr.clone(), budget);
    match run.rebudget(fuel, budget) {
        Rebudgeted::Same => prop_assert_eq!(&run, &fresh, "program {}", expr),
        Rebudgeted::OutOfFuel => {
            prop_assert_eq!(&fresh.halt, &Halt::OutOfFuel, "program {}", expr);
            prop_assert_eq!(Some(fresh.steps), budget.remaining(), "program {}", expr);
        }
        Rebudgeted::Unknown => {
            prop_assert_eq!(&run.halt, &Halt::OutOfFuel, "program {}", expr);
            prop_assert!(!fuel.covers(budget), "program {}", expr);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_rebudgeted_run_equals_a_fresh_run_under_the_budget(
        expr in expr(),
        fuel in 0u64..400,
        budget in 0u64..400,
    ) {
        check(&expr, Fuel::steps(fuel), Fuel::steps(budget))?;
        // Unlimited fuel on either side, for the programs that halt.
        let probe = Machine::run_expr(expr.clone(), Fuel::steps(10_000));
        if probe.halt != Halt::OutOfFuel {
            check(&expr, Fuel::unlimited(), Fuel::steps(budget))?;
            check(&expr, Fuel::steps(fuel), Fuel::unlimited())?;
        }
    }
}

#[test]
fn a_program_that_never_halts_runs_out_under_every_budget_its_fuel_covers() {
    for fuel in [0, 1, 7, 300, 5_000] {
        for budget in [0, 2, 300, 4_999, 5_000, 5_001] {
            let run = reused_run(&omega(), Fuel::steps(fuel));
            assert_eq!(run.halt, Halt::OutOfFuel);
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
            check(&omega(), Fuel::steps(fuel), Fuel::steps(budget)).expect("the rule holds");
        }
    }
}

#[test]
fn a_long_run_that_halts_decides_every_budget() {
    let expr = countdown(20);
    let run = reused_run(&expr, Fuel::steps(100_000));
    assert_eq!(run.halt, Halt::Value(lcvm::Value::Unit));
    let steps = run.steps;
    for budget in [0, steps / 2, steps - 1, steps, steps + 1, 100_000] {
        check(&expr, Fuel::steps(100_000), Fuel::steps(budget)).expect("the rule holds");
    }
}
