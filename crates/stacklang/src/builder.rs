//! Stack-shuffling macros and program-building helpers.
//!
//! Fig. 3 defines three macros used pervasively by the compilers and by the
//! conversion glue code:
//!
//! ```text
//! SWAP ≜ lam x. (lam y. push x, push y)
//! DROP ≜ lam x. ()
//! DUP  ≜ lam x. (push x, push x)
//! ```
//!
//! They are provided here as functions returning the corresponding
//! instruction, together with helpers for the array-building `lam` shapes the
//! compilers emit (`lam xₙ,…,x₁. (push [x₁,…,xₙ])`), which are used to encode
//! pairs, sums and RefLL array literals.
//!
//! Each macro is built once per process and handed out as a shared copy, so
//! emitting one costs a few reference-count bumps.

use crate::instr::{Instr, Operand, Program, Value};
use semint_core::Var;
use std::sync::OnceLock;

/// `SWAP`: exchanges the two topmost stack values.
pub fn swap() -> Instr {
    static SWAP: OnceLock<Instr> = OnceLock::new();
    SWAP.get_or_init(|| {
        let x = Var::new("swap%x");
        let y = Var::new("swap%y");
        Instr::lam1(
            x.clone(),
            Program::single(Instr::lam1(
                y.clone(),
                Program::from(vec![Instr::push_var(x), Instr::push_var(y)]),
            )),
        )
    })
    .clone()
}

/// `DROP`: discards the top stack value.
pub fn drop_top() -> Instr {
    static DROP: OnceLock<Instr> = OnceLock::new();
    DROP.get_or_init(|| Instr::lam1("drop%x", Program::empty()))
        .clone()
}

/// `DUP`: duplicates the top stack value.
pub fn dup() -> Instr {
    static DUP: OnceLock<Instr> = OnceLock::new();
    DUP.get_or_init(|| {
        let x = Var::new("dup%x");
        Instr::lam1(
            x.clone(),
            Program::from(vec![Instr::push_var(x.clone()), Instr::push_var(x)]),
        )
    })
    .clone()
}

/// Arities below this share one prebuilt `pack` instruction.
const SHARED_PACKS: usize = 8;

/// `lam xₙ,…,x₁. (push [x₁,…,xₙ])`: pops `n` values (the most recently pushed
/// becomes the *last* array element) and pushes the array containing them in
/// push order.  This is the compiled representation of tuples (Fig. 3) and of
/// RefLL array literals.
pub fn pack(n: usize) -> Instr {
    static PACKS: OnceLock<Vec<Instr>> = OnceLock::new();
    let shared = PACKS.get_or_init(|| (0..SHARED_PACKS).map(build_pack).collect());
    match shared.get(n) {
        Some(instr) => instr.clone(),
        None => build_pack(n),
    }
}

fn build_pack(n: usize) -> Instr {
    let names: Vec<Var> = (1..=n).map(|i| Var::new(format!("pack%x{i}"))).collect();
    // Binders are listed top-of-stack first, i.e. xₙ, …, x₁.
    let binders = names.iter().rev().cloned();
    let template = Operand::Array(names.iter().cloned().map(Operand::Var).collect());
    Instr::lam(binders, Program::single(Instr::Push(template)))
}

/// A program popping two values `v₁` (pushed first) and `v₂` (top) and
/// pushing the pair encoding `[v₁, v₂]`.
pub fn pair() -> Program {
    Program::single(pack(2))
}

/// Projects element `i` out of an array on top of the stack: `push i, idx`.
pub fn project(i: i64) -> Program {
    Program::from(vec![Instr::push_num(i), Instr::Idx])
}

/// Pops a value `v` and pushes the tagged array `[tag, v]` — the compiled
/// representation of `inl`/`inr` with tags 0 and 1 (Fig. 3).
pub fn tagged(tag: i64) -> Program {
    static TAGGED: OnceLock<[Program; 2]> = OnceLock::new();
    match tag {
        0 | 1 => TAGGED.get_or_init(|| [build_tagged(0), build_tagged(1)])[tag as usize].clone(),
        _ => build_tagged(tag),
    }
}

fn build_tagged(tag: i64) -> Program {
    let x = Var::new("tag%x");
    Program::single(Instr::lam1(
        x.clone(),
        Program::single(Instr::Push(Operand::Array(
            [Operand::Lit(Value::Num(tag)), Operand::Var(x)].into(),
        ))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::{Fuel, Outcome, Value};

    fn run(p: Program) -> Outcome<Value> {
        Machine::run_program(p, Fuel::default()).outcome
    }

    #[test]
    fn pack_then_project_recovers_elements() {
        let build = Program::from(vec![Instr::push_num(10), Instr::push_num(20), pack(2)]);
        assert_eq!(
            run(build.clone().then(project(0))),
            Outcome::Value(Value::Num(10))
        );
        assert_eq!(
            run(build.clone().then(project(1))),
            Outcome::Value(Value::Num(20))
        );
        assert_eq!(
            run(build),
            Outcome::Value(Value::array([Value::Num(10), Value::Num(20)]))
        );
    }

    #[test]
    fn tagged_values_carry_tag_and_payload() {
        let build = Program::single(Instr::push_num(99)).then(tagged(1));
        assert_eq!(
            run(build),
            Outcome::Value(Value::array([Value::Num(1), Value::Num(99)]))
        );
    }

    #[test]
    fn nullary_pack_pushes_empty_array() {
        let p = Program::from(vec![pack(0), Instr::Len]);
        assert_eq!(run(p), Outcome::Value(Value::Num(0)));
    }

    #[test]
    fn pair_is_binary_pack() {
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2)])
            .then(pair())
            .then(Program::single(Instr::Len));
        assert_eq!(run(p), Outcome::Value(Value::Num(2)));
    }

    #[test]
    fn swap_dup_drop_shapes() {
        // Covered behaviourally in machine::tests; here we check they are
        // closed programs (no stray free variables).
        for i in [swap(), dup(), drop_top(), pack(3)] {
            assert!(Program::single(i).is_closed());
        }
    }

    #[test]
    fn pack_underflow_is_a_type_error() {
        // Only one value on the stack but pack(2) needs two.
        let p = Program::from(vec![Instr::push_num(1), pack(2)]);
        assert_eq!(run(p), Outcome::Fail(semint_core::ErrorCode::Type));
    }
}
