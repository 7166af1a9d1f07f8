//! Quickstart: the paper's framework in five steps, on case study 1.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example walks the framework of §2 end to end:
//! 1. boundary syntax — a RefHL program embeds RefLL code (and vice versa),
//! 2. convertibility rules — `bool ∼ int`, `ref bool ∼ ref int`, …,
//! 3. realizability model — we ask whether `V⟦bool⟧ = V⟦int⟧`,
//! 4. soundness of conversions — checked executably (Lemma 3.1),
//! 5. soundness of the languages — the compiled program never hits `fail Type`.

use semint::core::{CaseStudy, Fuel, Outcome};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::model::{check_convertibility, interp_equal, outcome_type_safe, SemType};
use semint::sharedmem::{SharedMemCase, SmProgram, SourceType};
use semint::stacklang::Value;

fn main() {
    // Step 1+2: a multi-language program. RefLL computes an index into an
    // array; RefHL treats the result as a boolean and branches on it.
    let refll_part = LlExpr::index(
        LlExpr::array([LlExpr::int(0), LlExpr::int(7)], LlType::Int),
        LlExpr::int(1),
    );
    let program = SmProgram::Hl(HlExpr::if_(
        HlExpr::boundary(refll_part, HlType::Bool),
        HlExpr::pair(HlExpr::bool_(true), HlExpr::unit()),
        HlExpr::pair(HlExpr::bool_(false), HlExpr::unit()),
    ));
    println!("source program:\n  {program}\n");

    // The case study is the multi-language system: the Fig. 4 rules with
    // their glue, both compilers and StackLang.
    let case = SharedMemCase::standard();
    let ty = case.typecheck(&program).expect("the program type checks");
    println!("type: {ty}");
    assert_eq!(ty, SourceType::Hl(HlType::prod(HlType::Bool, HlType::Unit)));

    let compiled = case.compile(&program).expect("compiles");
    println!(
        "compiled StackLang program ({} instructions):\n  {}\n",
        compiled.len(),
        compiled
    );

    let result = case.execute(compiled, Fuel::default());
    println!("result: {}", result.outcome);
    println!("machine steps: {}", result.steps);
    // 7 is non-zero, so false: the else branch's (false, ()) is [1, 0].
    assert_eq!(
        result.outcome,
        Outcome::Value(Value::array([Value::Num(1), Value::Num(0)]))
    );

    // Step 3: the realizability model lets us ask the question the paper
    // highlights: is V⟦bool⟧ the same set of target terms as V⟦int⟧?
    let bool_eq_int = interp_equal(&SemType::Hl(HlType::Bool), &SemType::Ll(LlType::Int));
    let unit_eq_int = interp_equal(&SemType::Hl(HlType::Unit), &SemType::Ll(LlType::Int));
    println!("\nV⟦bool⟧ = V⟦int⟧ ?  {bool_eq_int}");
    println!("V⟦unit⟧ = V⟦int⟧ ?  {unit_eq_int}");
    assert!(bool_eq_int, "booleans are the integers 0 and 1");
    assert!(!unit_eq_int, "unit is 0 alone");

    // Step 4: convertibility soundness, checked executably for a few of the
    // rules the system compiles with.
    for (hl, ll) in [
        (HlType::Bool, LlType::Int),
        (HlType::ref_(HlType::Bool), LlType::ref_(LlType::Int)),
        (
            HlType::sum(HlType::Bool, HlType::Unit),
            LlType::array(LlType::Int),
        ),
    ] {
        check_convertibility(case.conversions(), &hl, &ll)
            .unwrap_or_else(|ce| panic!("COUNTEREXAMPLE for {hl} ∼ {ll}: {ce}"));
        println!("Lemma 3.1 holds for  {hl} ∼ {ll}");
    }

    // Step 5: type safety on the compiled program's run.
    outcome_type_safe(&result.outcome).expect("Theorem 3.4: the compiled program is safe");
    println!("\nType safety check passed.");
}
