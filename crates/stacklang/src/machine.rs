//! The StackLang abstract machine: configurations `⟨H; S; P⟩` and their
//! small-step operational semantics (Fig. 2).
//!
//! Every reduction rule of the figure is implemented by [`Machine::step`];
//! instructions whose stack precondition is not met step to `fail Type`.  The
//! machine is driven by [`Machine::run`] under a [`Fuel`] budget so that the
//! executable logical relation (crate `sharedmem`) can realise the paper's
//! step-indexed expression relation directly.
//!
//! # Execution model
//!
//! The remaining program `P` is a stack of frames, each a shared
//! [`Program`], the position of its next instruction and the environment its
//! variables resolve in.  No step copies or rewrites code:
//!
//! * `lam x₁,…,xₖ. P` pops its values into a new environment for `P` — the
//!   leftmost binder takes the top of the stack, an inner binder shadows an
//!   outer one, and an unbound `push x` is `fail Type`;
//! * `push (thunk P)` captures the current environment, and array templates
//!   resolve against it;
//! * `if0` enters its chosen branch and `call` its thunk's code as a new
//!   frame.
//!
//! Running `P` with `x ↦ v` in its environment is the same computation as
//! running Fig. 2's `[x ↦ v]P`, so outcomes, step counts and every
//! [`VmCounters`] field are the substitution machine's.  That machine is
//! kept as the tests' oracle ([`crate::reference`]).

use crate::heap::Heap;
use crate::instr::{Env, Instr, Operand, Program, Value};
use semint_core::fuel::Rebudgeted;
use semint_core::{ErrorCode, Fuel, OpClass, Outcome, OutcomeClass, RunStats, VmCounters};
use std::fmt;

/// The stack component of a configuration: either a stack of values or the
/// distinguished `Fail c` stack that aborts the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackState {
    /// An ordinary stack of values; the last element is the top.
    Values(Vec<Value>),
    /// The failed stack `Fail c`.
    Fail(ErrorCode),
}

impl StackState {
    /// An empty ordinary stack.
    pub fn empty() -> StackState {
        StackState::Values(Vec::new())
    }

    /// The values, if the stack has not failed.
    pub fn values(&self) -> Option<&[Value]> {
        match self {
            StackState::Values(vs) => Some(vs),
            StackState::Fail(_) => None,
        }
    }
}

impl fmt::Display for StackState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackState::Values(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            StackState::Fail(c) => write!(f, "Fail {c}"),
        }
    }
}

/// What a single machine step produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepStatus {
    /// The machine took a step and may continue.
    Continue,
    /// The program is empty (or the stack failed): the machine is terminal.
    Done,
}

/// The result of running a machine to completion (or until fuel ran out).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The final outcome: a value (top of stack), a well-defined failure, or
    /// out-of-fuel.
    pub outcome: Outcome<Value>,
    /// The final heap.
    pub heap: Heap,
    /// The final stack.
    pub stack: StackState,
    /// How many small steps were taken.
    pub steps: u64,
    /// Deterministic per-run telemetry: instructions retired by opcode
    /// class, allocation totals, and high-water marks.
    pub counters: VmCounters,
}

impl RunResult {
    /// How this run, made under `fuel`, ends under `budget` (the budget
    /// rule of [`Fuel::rebudget`]).
    pub fn rebudget(&self, fuel: Fuel, budget: Fuel) -> Rebudgeted {
        fuel.rebudget(self.outcome != Outcome::OutOfFuel, self.steps, budget)
    }

    /// The engine's projection of this run: how it ended, its steps and its
    /// counters.
    pub fn stats(&self) -> RunStats {
        let outcome = match &self.outcome {
            Outcome::Value(_) => OutcomeClass::Value,
            Outcome::Fail(c) => OutcomeClass::Fail(*c),
            Outcome::OutOfFuel => OutcomeClass::OutOfFuel,
        };
        RunStats {
            outcome,
            steps: self.steps,
            counters: self.counters,
        }
    }
}

/// One frame of the remaining program: shared code, the position of its
/// next instruction, and the environment its variables resolve in.
#[derive(Debug, Clone, PartialEq)]
struct Frame {
    code: Program,
    pc: usize,
    env: Env,
}

/// A StackLang machine configuration `⟨H; S; P⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    heap: Heap,
    stack: StackState,
    /// The remaining program, innermost frame last.  Every frame has at
    /// least one instruction left, so the program is done exactly when no
    /// frame is.
    frames: Vec<Frame>,
    steps: u64,
    counters: VmCounters,
}

impl Machine {
    /// A machine about to run `program` on an empty stack and empty heap.
    pub fn new(program: Program) -> Machine {
        Machine::with_state(Heap::new(), StackState::empty(), program)
    }

    /// A machine with explicit initial heap and stack.
    pub fn with_state(heap: Heap, stack: StackState, program: Program) -> Machine {
        let mut machine = Machine {
            heap,
            stack,
            frames: Vec::new(),
            steps: 0,
            counters: VmCounters::new(),
        };
        machine.start(program);
        machine
    }

    /// Rearms the machine to run `program` on an empty stack and empty
    /// heap.  The program becomes the only frame — a pointer copy — so a
    /// batch of compiled artifacts shares one machine, and its heap, stack
    /// and frame buffers, instead of constructing one per program.  (Each
    /// run's final heap and stack move into its [`RunResult`], so those
    /// start over; see [`Machine::run_mut`].)
    ///
    /// A reset machine is observationally identical to [`Machine::new`] on
    /// the same program — same outcome, same final heap and stack, same step
    /// count — which the unit tests below and the `batched_execution`
    /// integration suite assert.
    pub fn reset(&mut self, program: Program) {
        self.heap.reset();
        match &mut self.stack {
            StackState::Values(vs) => vs.clear(),
            failed => *failed = StackState::empty(),
        }
        self.frames.clear();
        self.start(program);
        self.steps = 0;
        self.counters = VmCounters::new();
    }

    fn start(&mut self, program: Program) {
        if !program.is_empty() {
            self.frames.push(Frame {
                code: program,
                pc: 0,
                env: Env::empty(),
            });
        }
    }

    /// True if the machine can take no further step.
    pub fn is_terminal(&self) -> bool {
        self.frames.is_empty() || matches!(self.stack, StackState::Fail(_))
    }

    /// Performs one small step (one reduction of Fig. 2).
    ///
    /// Returns [`StepStatus::Done`] if the machine was already terminal.
    pub fn step(&mut self) -> StepStatus {
        let Machine {
            heap,
            stack,
            frames,
            steps,
            counters,
        } = self;
        let (StackState::Values(vs), Some(frame)) = (&mut *stack, frames.last_mut()) else {
            return StepStatus::Done;
        };
        let instr = &frame.code.instrs()[frame.pc];
        frame.pc += 1;
        *steps += 1;
        counters.retire(classify_instr(instr));
        // The code (and its environment) the instruction continues with
        // before the rest of the current frame, if any.
        let mut enter: Option<(Program, Env)> = None;
        // `Ok` carries the value the instruction pushes, if any.
        let stepped = match instr {
            // A free variable reaching execution means the program was not
            // closed: a dynamic type error.
            Instr::Push(op) => resolve(op, &frame.env).map(Some).ok_or(ErrorCode::Type),
            Instr::Add => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    Ok(Some(Value::Num(n.wrapping_add(n1))))
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::Less => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    Ok(Some(Value::Num(if n < n1 { 0 } else { 1 })))
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::If0(p1, p2) => match vs.pop() {
                Some(Value::Num(n)) => {
                    let branch = if n == 0 { p1 } else { p2 };
                    enter = Some((branch.clone(), frame.env.clone()));
                    Ok(None)
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::Lam(xs, body) => match vs.len().checked_sub(xs.len()) {
                Some(base) => {
                    // The top k values are, from the top down, x₁'s, x₂'s,
                    // …; binding right to left lets a repeated name resolve
                    // to its leftmost binder, as substituting x₁ first does.
                    let env = xs
                        .iter()
                        .rev()
                        .zip(vs.drain(base..))
                        .fold(frame.env.clone(), |env, (x, v)| env.extend(x.clone(), v));
                    enter = Some((body.clone(), env));
                    Ok(None)
                }
                None => Err(ErrorCode::Type),
            },
            Instr::Call => match vs.pop() {
                Some(Value::Thunk(t)) => {
                    enter = Some((t.code, t.env));
                    Ok(None)
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::Idx => match (vs.pop(), vs.pop()) {
                (Some(Value::Num(n)), Some(Value::Array(elems))) => {
                    match usize::try_from(n).ok().and_then(|i| elems.get(i)) {
                        Some(v) => Ok(Some(v.clone())),
                        None => Err(ErrorCode::Idx),
                    }
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::Len => match vs.pop() {
                Some(Value::Array(elems)) => Ok(Some(Value::Num(elems.len() as i64))),
                _ => Err(ErrorCode::Type),
            },
            Instr::Alloc => match vs.pop() {
                Some(v) => Ok(Some(Value::Loc(heap.alloc(v)))),
                None => Err(ErrorCode::Type),
            },
            Instr::Read => match vs.pop() {
                Some(Value::Loc(l)) => heap.read(l).cloned().map(Some).ok_or(ErrorCode::Type),
                _ => Err(ErrorCode::Type),
            },
            Instr::Write => match (vs.pop(), vs.pop()) {
                (Some(v), Some(Value::Loc(l))) if heap.contains(l) => {
                    heap.write(l, v);
                    Ok(None)
                }
                _ => Err(ErrorCode::Type),
            },
            Instr::Fail(c) => Err(*c),
        };
        match stepped {
            Err(code) => {
                *stack = StackState::Fail(code);
                frames.clear();
            }
            Ok(pushed) => {
                if let Some(v) = pushed {
                    vs.push(v);
                }
                counters.note_stack_depth(vs.len());
                let exhausted = frame.pc == frame.code.len();
                match enter {
                    Some((code, env)) if !code.is_empty() => {
                        let next = Frame { code, pc: 0, env };
                        // A finished frame is replaced rather than kept
                        // below, so tail calls do not grow the frame stack.
                        if exhausted {
                            *frame = next;
                        } else {
                            frames.push(next);
                        }
                    }
                    _ if exhausted => {
                        frames.pop();
                    }
                    _ => {}
                }
            }
        }
        StepStatus::Continue
    }

    /// Runs the machine until it is terminal or the fuel is exhausted,
    /// consuming the machine.
    pub fn run(mut self, fuel: Fuel) -> RunResult {
        self.run_mut(fuel)
    }

    /// Like [`Machine::run`], but borrows the machine so it can be
    /// [`Machine::reset`] and reused for the next program of a batch.  The
    /// final heap and stack move into the returned [`RunResult`] (results
    /// own their final configuration); the machine is left with empty ones,
    /// exactly as a reset would leave it.
    pub fn run_mut(&mut self, mut fuel: Fuel) -> RunResult {
        while !self.is_terminal() {
            if !fuel.consume() {
                return self.take_result(Outcome::OutOfFuel);
            }
            self.step();
        }
        let outcome = match &self.stack {
            StackState::Fail(c) => Outcome::Fail(*c),
            StackState::Values(vs) => match vs.last() {
                Some(v) => Outcome::Value(v.clone()),
                None => Outcome::Fail(ErrorCode::Type),
            },
        };
        self.take_result(outcome)
    }

    /// Packages the run's outcome, moving the final heap and stack out of
    /// the machine.
    fn take_result(&mut self, outcome: Outcome<Value>) -> RunResult {
        // StackLang never frees or reuses locations, so the final population
        // *is* both the allocation total and the live-cell peak; read it
        // before the heap moves out.
        let mut counters = self.counters;
        counters.heap_allocs = self.heap.len() as u64;
        counters.heap_peak_live = self.heap.len() as u64;
        RunResult {
            outcome,
            heap: std::mem::take(&mut self.heap),
            stack: std::mem::replace(&mut self.stack, StackState::empty()),
            steps: self.steps,
            counters,
        }
    }

    /// Convenience: run a closed program from the empty configuration.
    pub fn run_program(program: Program, fuel: Fuel) -> RunResult {
        Machine::new(program).run(fuel)
    }

    /// Batch counterpart of [`Machine::run_program`]: runs each closed
    /// program on **one** reused machine ([`Machine::reset`] between
    /// programs), returning results in input order.  Observationally
    /// identical to calling [`Machine::run_program`] per program.
    pub fn run_batch(programs: impl IntoIterator<Item = Program>, fuel: Fuel) -> Vec<RunResult> {
        let mut machine = Machine::new(Program::empty());
        programs
            .into_iter()
            .map(|program| {
                machine.reset(program);
                machine.run_mut(fuel)
            })
            .collect()
    }
}

/// The value `push op` pushes under `env`, or `None` if `op` mentions a
/// variable `env` does not bind.
fn resolve(op: &Operand, env: &Env) -> Option<Value> {
    match op {
        Operand::Lit(v) => Some(v.closed_under(env)),
        Operand::Var(x) => env.lookup(x).cloned(),
        Operand::Array(ops) => {
            let mut bound = true;
            let elems = ops
                .iter()
                .map(|op| {
                    resolve(op, env).unwrap_or_else(|| {
                        bound = false;
                        Value::Num(0)
                    })
                })
                .collect();
            bound.then_some(Value::Array(elems))
        }
    }
}

/// The opcode class an instruction retires under (see
/// [`semint_core::telemetry::OpClass`] for the bucket definitions).
pub(crate) fn classify_instr(i: &Instr) -> OpClass {
    match i {
        Instr::Push(_) | Instr::Add | Instr::Less | Instr::Idx | Instr::Len => OpClass::Data,
        Instr::If0(..) | Instr::Fail(_) => OpClass::Control,
        Instr::Lam(..) | Instr::Call => OpClass::Fun,
        Instr::Alloc | Instr::Read | Instr::Write => OpClass::Heap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{drop_top, dup, swap};
    use crate::heap::Loc;
    use semint_core::Var;

    fn run(p: Program) -> RunResult {
        Machine::run_program(p, Fuel::default())
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = run(Program::from(vec![
            Instr::push_num(4),
            Instr::push_num(5),
            Instr::Add,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(9)));

        // less? pushes 0 (true) when n < n'.
        let r = run(Program::from(vec![
            Instr::push_num(3),
            Instr::push_num(8),
            Instr::Less,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(0)));
        let r = run(Program::from(vec![
            Instr::push_num(8),
            Instr::push_num(3),
            Instr::Less,
        ]));
        assert_eq!(r.outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn if0_branches_on_zero() {
        let p = |n| {
            Program::from(vec![
                Instr::push_num(n),
                Instr::If0(
                    Program::single(Instr::push_num(100)),
                    Program::single(Instr::push_num(200)),
                ),
            ])
        };
        assert_eq!(run(p(0)).outcome, Outcome::Value(Value::Num(100)));
        assert_eq!(run(p(7)).outcome, Outcome::Value(Value::Num(200)));
        assert_eq!(run(p(-3)).outcome, Outcome::Value(Value::Num(200)));
    }

    #[test]
    fn if0_on_empty_stack_is_a_type_error() {
        let p = Program::single(Instr::If0(Program::empty(), Program::empty()));
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn lam_binds_and_thunk_call_resumes() {
        // push 21, lam x. (push x, push x, add)  ==>  42
        let p = Program::from(vec![
            Instr::push_num(21),
            Instr::lam1(
                "x",
                Program::from(vec![Instr::push_var("x"), Instr::push_var("x"), Instr::Add]),
            ),
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(42)));

        // thunks suspend: push (thunk (push 1)), call ==> 1
        let p = Program::from(vec![
            Instr::push_thunk(Program::single(Instr::push_num(1))),
            Instr::Call,
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn multi_binder_lam_pops_top_first() {
        // push 1, push 2, lam x2,x1. (push [x1, x2])  ==> [1, 2]
        let template =
            Operand::Array(vec![Operand::Var(Var::new("x1")), Operand::Var(Var::new("x2"))].into());
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::push_num(2),
            Instr::lam(
                [Var::new("x2"), Var::new("x1")],
                Program::single(Instr::Push(template)),
            ),
        ]);
        assert_eq!(
            run(p).outcome,
            Outcome::Value(Value::array([Value::Num(1), Value::Num(2)]))
        );
    }

    #[test]
    fn lam_underflow_is_a_type_error() {
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::lam([Var::new("a"), Var::new("b")], Program::empty()),
        ]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn thunks_capture_their_lexical_environment() {
        // push 5, lam x. (push (thunk (push x))), push 9, lam x. (call)
        // ==> 5: the thunk runs under the x it captured, not the caller's.
        let p = Program::from(vec![
            Instr::push_num(5),
            Instr::lam1(
                "x",
                Program::single(Instr::push_thunk(Program::single(Instr::push_var("x")))),
            ),
            Instr::push_num(9),
            Instr::lam1("x", Program::single(Instr::Call)),
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Value(Value::Num(5)));
        // The captured thunk renders as the program substitution would
        // have built.
        let p = Program::from(vec![
            Instr::push_num(5),
            Instr::lam1(
                "x",
                Program::single(Instr::push_thunk(Program::single(Instr::push_var("x")))),
            ),
        ]);
        assert_eq!(
            run(p).outcome.value().unwrap().to_string(),
            "thunk {push 5}"
        );
    }

    #[test]
    fn call_of_non_thunk_fails_type() {
        let p = Program::from(vec![Instr::push_num(0), Instr::Call]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn array_indexing_and_len() {
        let arr = Value::array([Value::Num(10), Value::Num(20), Value::Num(30)]);
        let p = Program::from(vec![
            Instr::push_val(arr.clone()),
            Instr::push_num(1),
            Instr::Idx,
        ]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(20)));

        let p = Program::from(vec![Instr::push_val(arr.clone()), Instr::Len]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(3)));

        let p = Program::from(vec![
            Instr::push_val(arr.clone()),
            Instr::push_num(5),
            Instr::Idx,
        ]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Idx));
        let p = Program::from(vec![Instr::push_val(arr), Instr::push_num(-1), Instr::Idx]);
        assert_eq!(run(p).outcome, Outcome::Fail(ErrorCode::Idx));
    }

    #[test]
    fn heap_alloc_read_write() {
        // ref 7; !r  ==> 7
        let p = Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(7)));

        // r := 9; !r ==> 9  (keep the location around with dup)
        let p = Program::from(vec![
            Instr::push_num(7),
            Instr::Alloc,
            dup(),
            dup(),
            Instr::push_num(9),
            Instr::Write,
            Instr::Read,
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Value(Value::Num(9)));
        assert_eq!(r.heap.read(Loc(0)), Some(&Value::Num(9)));
    }

    #[test]
    fn explicit_fail_aborts_with_code() {
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::Fail(ErrorCode::Conv),
            Instr::push_num(2),
        ]);
        let r = run(p);
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Conv));
        assert_eq!(r.stack, StackState::Fail(ErrorCode::Conv));
    }

    #[test]
    fn fuel_exhaustion_reports_out_of_fuel() {
        // An infinite loop: a thunk that pushes itself and calls itself… we
        // can't easily build a self-referential thunk, so loop via repeated
        // program: push big computation with limited fuel instead.
        let mut instrs = Vec::new();
        for _ in 0..100 {
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::push_num(1));
            instrs.push(Instr::Add);
            instrs.push(drop_top());
        }
        let r = Machine::run_program(Program::from(instrs), Fuel::steps(10));
        assert_eq!(r.outcome, Outcome::OutOfFuel);
        assert_eq!(r.steps, 10);
    }

    #[test]
    fn swap_dup_drop_macros_behave() {
        // swap: push 1, push 2, swap ==> top is 1
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), swap()]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));

        // dup: push 3, dup, add ==> 6
        let p = Program::from(vec![Instr::push_num(3), dup(), Instr::Add]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(6)));

        // drop: push 1, push 2, drop ==> 1
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), drop_top()]);
        assert_eq!(run(p).outcome, Outcome::Value(Value::Num(1)));
    }

    #[test]
    fn empty_program_on_empty_stack_has_no_value() {
        let r = run(Program::empty());
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Type));
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn running_an_open_program_is_a_type_error() {
        let r = run(Program::single(Instr::push_var("x")));
        assert_eq!(r.outcome, Outcome::Fail(ErrorCode::Type));
    }

    #[test]
    fn reset_machine_is_observationally_identical_to_a_fresh_one() {
        // Programs exercising every piece of machine state a reset must
        // clear: stack values, heap cells, environments, failure states.
        let programs: Vec<Program> = vec![
            Program::from(vec![Instr::push_num(4), Instr::push_num(5), Instr::Add]),
            Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]),
            Program::from(vec![
                Instr::push_num(7),
                Instr::Alloc,
                dup(),
                dup(),
                Instr::push_num(9),
                Instr::Write,
                Instr::Read,
            ]),
            Program::from(vec![Instr::push_num(1), Instr::Fail(ErrorCode::Conv)]),
            Program::single(Instr::lam1(
                "x",
                Program::from(vec![Instr::push_var("x"), Instr::push_var("x")]),
            )),
        ];
        let mut reused = Machine::new(Program::empty());
        // Dirty the machine before the comparison runs so the reset has
        // something real to clear.
        let _ = reused.run_mut(Fuel::default());
        for p in &programs {
            reused.reset(p.clone());
            let from_reset = reused.run_mut(Fuel::default());
            let from_fresh = Machine::run_program(p.clone(), Fuel::default());
            assert_eq!(from_reset, from_fresh, "program {p:?}");
        }
        // Fuel exhaustion mid-run leaves no residue either: a half-run
        // program does not leak stack, heap or frame state into the next
        // one.
        let long: Vec<Instr> = (0..50).map(Instr::push_num).collect();
        reused.reset(Program::from(long));
        assert_eq!(reused.run_mut(Fuel::steps(10)).outcome, Outcome::OutOfFuel);
        let p = Program::from(vec![Instr::push_num(1), Instr::push_num(2), Instr::Add]);
        reused.reset(p.clone());
        assert_eq!(
            reused.run_mut(Fuel::default()),
            Machine::run_program(p, Fuel::default())
        );
    }

    #[test]
    fn run_batch_matches_per_program_runs_in_order() {
        let programs = vec![
            Program::from(vec![Instr::push_num(4), Instr::push_num(5), Instr::Add]),
            Program::single(Instr::Fail(ErrorCode::Conv)),
            Program::from(vec![Instr::push_num(7), Instr::Alloc, Instr::Read]),
        ];
        let singly: Vec<RunResult> = programs
            .iter()
            .map(|p| Machine::run_program(p.clone(), Fuel::default()))
            .collect();
        let batched = Machine::run_batch(programs, Fuel::default());
        assert_eq!(batched, singly);
        assert!(Machine::run_batch(Vec::new(), Fuel::default()).is_empty());
    }

    #[test]
    fn reset_recovers_from_a_failed_stack() {
        // Step (rather than run) to terminality, so the machine still holds
        // the `Fail` stack when the reset happens.
        let mut reused = Machine::new(Program::single(Instr::Fail(ErrorCode::Type)));
        while !reused.is_terminal() {
            reused.step();
        }
        assert!(matches!(reused.stack, StackState::Fail(_)));
        let p = Program::from(vec![Instr::push_num(21), dup(), Instr::Add]);
        reused.reset(p.clone());
        assert_eq!(
            reused.run_mut(Fuel::default()),
            Machine::run_program(p, Fuel::default())
        );
    }

    #[test]
    fn counters_account_for_every_step_and_track_heap_activity() {
        let p = Program::from(vec![
            Instr::push_num(7),
            Instr::Alloc,
            dup(),
            dup(),
            Instr::push_num(9),
            Instr::Write,
            Instr::Read,
        ]);
        let r = run(p.clone());
        let c = r.counters;
        assert_eq!(
            c.total_instrs(),
            r.steps,
            "every retired step is classified exactly once"
        );
        assert!(c.instr_heap >= 3, "alloc/write/read are heap steps");
        assert!(c.instr_data > 0, "push is a data step");
        assert_eq!(c.heap_allocs, 1);
        assert_eq!(c.heap_peak_live, 1);
        assert!(c.stack_peak >= 3, "dup/dup leaves three entries live");
        // Counters are digest-grade: a second identical run agrees exactly.
        assert_eq!(run(p).counters, c);
    }

    #[test]
    fn step_status_done_when_terminal() {
        let mut m = Machine::new(Program::empty());
        assert!(m.is_terminal());
        assert_eq!(m.step(), StepStatus::Done);
        assert_eq!(m.run(Fuel::default()).steps, 0);
    }
}
