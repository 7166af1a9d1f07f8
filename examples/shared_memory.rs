//! Case study 1 (§3): sharing mutable memory across languages without
//! proxies or copies.
//!
//! Run with `cargo run --example shared_memory`.
//!
//! A RefLL "data layer" allocates a buffer of counters (as `ref int`), and
//! RefHL "business logic" receives one of the references at type `ref bool`
//! and toggles it.  Because `V⟦bool⟧ = V⟦int⟧`, the pointer is passed across
//! the boundary as-is: both sides alias the same cell and neither pays any
//! conversion cost per access.

use semint::core::{CaseStudy, Fuel};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::{SharedMemCase, SmProgram};
use semint::stacklang::Value;

/// A RefHL function `ref bool → bool` that inverts the referenced flag and
/// returns the old value.
fn refhl_toggle() -> HlExpr {
    HlExpr::lam(
        "flag",
        HlType::ref_(HlType::Bool),
        // let old = !flag in (flag := if old then false else true ; old)
        HlExpr::app(
            HlExpr::lam(
                "old",
                HlType::Bool,
                HlExpr::snd(HlExpr::pair(
                    HlExpr::assign(
                        HlExpr::var("flag"),
                        HlExpr::if_(
                            HlExpr::var("old"),
                            HlExpr::bool_(false),
                            HlExpr::bool_(true),
                        ),
                    ),
                    HlExpr::var("old"),
                )),
            ),
            HlExpr::deref(HlExpr::var("flag")),
        ),
    )
}

fn main() {
    // RefLL program:
    //   let cell = ref 0 in
    //   let _ = ⦇ toggle ⦇cell⦈(ref bool) ⦈int in
    //   !cell
    let program = SmProgram::Ll(LlExpr::app(
        LlExpr::lam(
            "cell",
            LlType::ref_(LlType::Int),
            LlExpr::app(
                LlExpr::lam("ignored", LlType::Int, LlExpr::deref(LlExpr::var("cell"))),
                LlExpr::boundary(
                    HlExpr::app(
                        refhl_toggle(),
                        HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
                    ),
                    LlType::Int,
                ),
            ),
        ),
        LlExpr::ref_(LlExpr::int(0)),
    ));

    println!("RefLL program with a RefHL toggle applied to a shared reference:\n  {program}\n");

    let sharing = SharedMemCase::standard();
    let result = sharing
        .run(&program, Fuel::default())
        .expect("well-typed program runs");
    println!("[pointer-sharing conversions]");
    println!(
        "  result (contents seen by RefLL after RefHL's write): {}",
        result.outcome
    );
    println!("  heap cells allocated: {}", result.heap.len());
    println!("  machine steps: {}", result.steps);
    assert_eq!(
        result.outcome.value(),
        Some(Value::Num(1)),
        "RefLL sees the write"
    );
    assert_eq!(result.heap.len(), 1, "both sides alias one cell");

    // The same program under the copy-convert strategy from the paper's
    // Discussion: it still runs, but RefHL writes into a *copy*, so RefLL
    // does not observe the update — the aliasing behaviour differs, which is
    // exactly why the paper requires identical interpretations for sharing.
    let copying = SharedMemCase::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy));
    let result = copying
        .run(&program, Fuel::default())
        .expect("still well-typed under copying");
    println!("\n[copy-convert conversions (ablation)]");
    println!("  result: {}", result.outcome);
    println!("  heap cells allocated: {}", result.heap.len());
    println!("  machine steps: {}", result.steps);
    assert_eq!(
        result.outcome.value(),
        Some(Value::Num(0)),
        "the write hit a copy"
    );
    assert_eq!(result.heap.len(), 2, "the copy is a second cell");

    // Finally: a boundary the pointer-sharing rule set rejects statically,
    // because the pointed-to types do not have identical interpretations.
    let rejected = HlExpr::boundary(
        LlExpr::ref_(LlExpr::array([LlExpr::int(1)], LlType::Int)),
        HlType::ref_(HlType::sum(HlType::Bool, HlType::Bool)),
    );
    match sharing.typecheck(&SmProgram::Hl(rejected)) {
        Err(err) => println!("\nAs expected, rejected unsound boundary: {err}"),
        Ok(ty) => unreachable!("should not typecheck at {ty}"),
    }
}
