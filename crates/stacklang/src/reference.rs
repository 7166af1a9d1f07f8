//! The reference StackLang machine: Fig. 2 executed literally, by
//! substitution.
//!
//! `lam x. P` substitutes the popped value into `P` before running it, the
//! remaining program is one flat instruction sequence, and `if0`/`call`
//! splice the chosen program into it.  This is the figure's own text, kept
//! as the oracle the environment machine ([`crate::Machine`]) is tested
//! against; nothing outside the tests runs it.  The two machines take the
//! same steps, retire the same instructions and reach the same outcome, heap
//! and stack (`tests/differential.rs` here, and the root crate's
//! `stacklang_differential` suite over compiled sweep scenarios).
//!
//! The agreement covers every program whose free variables no `lam` of the
//! program binds — closed programs in particular, which is all the compilers
//! emit.  Substituting an *open* thunk under a binder of one of its free
//! variables captures that variable here, whereas the environment machine's
//! scope is lexical.

use crate::heap::Heap;
use crate::instr::{Instr, Operand, Program, Value};
use crate::machine::{classify_instr, RunResult, StackState};
use semint_core::{ErrorCode, Fuel, Outcome, VmCounters};

/// Runs `program` from the empty configuration.
pub fn run_program(program: Program, fuel: Fuel) -> RunResult {
    let mut machine = Reference {
        heap: Heap::new(),
        stack: StackState::empty(),
        control: Vec::new(),
        steps: 0,
        counters: VmCounters::new(),
    };
    machine.push_program(&program);
    machine.run(fuel)
}

struct Reference {
    heap: Heap,
    stack: StackState,
    /// Remaining instructions, reversed (next instruction is the last element).
    control: Vec<Instr>,
    steps: u64,
    counters: VmCounters,
}

impl Reference {
    fn is_terminal(&self) -> bool {
        self.control.is_empty() || matches!(self.stack, StackState::Fail(_))
    }

    fn run(mut self, mut fuel: Fuel) -> RunResult {
        while !self.is_terminal() {
            if !fuel.consume() {
                return self.finish(Outcome::OutOfFuel);
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
        self.finish(outcome)
    }

    fn finish(self, outcome: Outcome<Value>) -> RunResult {
        let mut counters = self.counters;
        counters.heap_allocs = self.heap.len() as u64;
        counters.heap_peak_live = self.heap.len() as u64;
        RunResult {
            outcome,
            heap: self.heap,
            stack: self.stack,
            steps: self.steps,
            counters,
        }
    }

    fn fail(&mut self, code: ErrorCode) {
        self.stack = StackState::Fail(code);
        self.control.clear();
    }

    /// `p` runs before the current continuation, so its instructions go on
    /// top of the (reversed) control stack.
    fn push_program(&mut self, p: &Program) {
        self.control.extend(p.instrs().iter().rev().cloned());
    }

    fn pop_value(&mut self) -> Option<Value> {
        match &mut self.stack {
            StackState::Values(vs) => vs.pop(),
            StackState::Fail(_) => None,
        }
    }

    fn push_value(&mut self, v: Value) {
        if let StackState::Values(vs) = &mut self.stack {
            vs.push(v);
        }
    }

    fn step(&mut self) {
        let instr = self
            .control
            .pop()
            .expect("non-terminal machine has an instruction");
        self.steps += 1;
        self.counters.retire(classify_instr(&instr));
        match instr {
            Instr::Push(op) => match resolve(&op) {
                Some(v) => self.push_value(v),
                None => self.fail(ErrorCode::Type),
            },
            Instr::Add => match (self.pop_value(), self.pop_value()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    self.push_value(Value::Num(n.wrapping_add(n1)))
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Less => match (self.pop_value(), self.pop_value()) {
                (Some(Value::Num(n1)), Some(Value::Num(n))) => {
                    self.push_value(Value::Num(if n < n1 { 0 } else { 1 }))
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::If0(p1, p2) => match self.pop_value() {
                Some(Value::Num(n)) => self.push_program(if n == 0 { &p1 } else { &p2 }),
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Lam(xs, body) => {
                // Pop one value per binder; the leftmost binder receives the
                // top of the stack, and is substituted first.
                let mut body = body;
                for x in xs.iter() {
                    match self.pop_value() {
                        Some(v) => body = body.subst(x, &v),
                        None => return self.fail(ErrorCode::Type),
                    }
                }
                self.push_program(&body);
            }
            Instr::Call => match self.pop_value() {
                Some(Value::Thunk(t)) => self.push_program(&t.program()),
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Idx => match (self.pop_value(), self.pop_value()) {
                (Some(Value::Num(n)), Some(Value::Array(vs))) => {
                    if n >= 0 && (n as usize) < vs.len() {
                        self.push_value(vs[n as usize].clone());
                    } else {
                        self.fail(ErrorCode::Idx);
                    }
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Len => match self.pop_value() {
                Some(Value::Array(vs)) => self.push_value(Value::Num(vs.len() as i64)),
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Alloc => match self.pop_value() {
                Some(v) => {
                    let l = self.heap.alloc(v);
                    self.push_value(Value::Loc(l));
                }
                None => self.fail(ErrorCode::Type),
            },
            Instr::Read => match self.pop_value() {
                Some(Value::Loc(l)) => match self.heap.read(l) {
                    Some(v) => {
                        let v = v.clone();
                        self.push_value(v);
                    }
                    None => self.fail(ErrorCode::Type),
                },
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Write => match (self.pop_value(), self.pop_value()) {
                (Some(v), Some(Value::Loc(l))) => {
                    if !self.heap.write(l, v) {
                        self.fail(ErrorCode::Type);
                    }
                }
                _ => self.fail(ErrorCode::Type),
            },
            Instr::Fail(c) => self.fail(c),
        }
        if let StackState::Values(vs) = &self.stack {
            self.counters.note_stack_depth(vs.len());
        }
    }
}

/// Resolves a fully substituted operand into a value; `None` if a variable
/// remains (the program was open).
fn resolve(op: &Operand) -> Option<Value> {
    match op {
        Operand::Lit(v) => Some(v.clone()),
        Operand::Var(_) => None,
        Operand::Array(ops) => ops
            .iter()
            .map(resolve)
            .collect::<Option<Vec<_>>>()
            .map(Value::array),
    }
}
