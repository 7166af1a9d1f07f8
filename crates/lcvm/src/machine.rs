//! The LCVM abstract machine.
//!
//! A CEK-style machine: the state is a control (an expression under an
//! environment, or a value being returned), a continuation stack of frames, a
//! heap and — in augmented mode — a phantom flag store.  One transition of
//! this machine counts as one step for the purposes of the executable
//! step-indexed models.
//!
//! The paper's `⟨H, e⟩ → ⟨H', e'⟩` substitution semantics and this machine
//! agree on observable outcomes (final values up to closure representation,
//! failure codes, divergence); the machine additionally exposes precise GC
//! roots and step counts.

use crate::heap::{Heap, Loc};
use crate::phantom::{PhantomConfig, PhantomState};
use crate::syntax::{Expr, PrimOp};
use crate::value::{Env, Value};
use semint_core::fuel::Rebudgeted;
use semint_core::{ErrorCode, Fuel, OpClass, OutcomeClass, RunStats, Var, VmCounters};
use std::sync::Arc;

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Halt {
    /// Terminated with a value.
    Value(Value),
    /// Terminated with a dynamic error `fail c`.
    Fail(ErrorCode),
    /// The fuel budget was exhausted.
    OutOfFuel,
    /// **Augmented semantics only**: a `protect`ed value was forced after its
    /// phantom flag had been consumed.  The standard semantics has no such
    /// state; the logical relation excludes programs that reach it.
    PhantomStuck {
        /// The flag that was no longer available.
        flag: crate::phantom::FlagId,
    },
}

impl Halt {
    /// The final value, if the run produced one.
    pub fn value(self) -> Option<Value> {
        match self {
            Halt::Value(v) => Some(v),
            _ => None,
        }
    }

    /// A reference to the final value, if any.
    pub fn value_ref(&self) -> Option<&Value> {
        match self {
            Halt::Value(v) => Some(v),
            _ => None,
        }
    }

    /// True if the halt is permitted by semantic type safety: values, benign
    /// failures and out-of-fuel are fine; `fail Type` and phantom-stuck are
    /// not.
    pub fn is_safe(&self) -> bool {
        match self {
            Halt::Value(_) | Halt::OutOfFuel => true,
            Halt::Fail(c) => c.is_benign(),
            Halt::PhantomStuck { .. } => false,
        }
    }

    /// True if the halt is `fail code`.
    pub fn is_fail_with(&self, code: ErrorCode) -> bool {
        matches!(self, Halt::Fail(c) if *c == code)
    }
}

/// The result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How the machine halted.
    pub halt: Halt,
    /// The final heap.
    pub heap: Heap,
    /// Number of machine steps taken.
    pub steps: u64,
    /// Number of phantom flags consumed (0 outside augmented mode).
    pub flags_consumed: u64,
    /// Deterministic per-run telemetry: instructions retired by opcode
    /// class, allocation totals, and high-water marks.
    pub counters: VmCounters,
}

impl RunResult {
    /// How this run, made under `fuel`, ends under `budget` (the budget
    /// rule of [`Fuel::rebudget`]).
    pub fn rebudget(&self, fuel: Fuel, budget: Fuel) -> Rebudgeted {
        fuel.rebudget(self.halt != Halt::OutOfFuel, self.steps, budget)
    }

    /// The engine's projection of this run: how it halted, its steps and
    /// its counters.
    pub fn stats(&self) -> RunStats {
        let outcome = match &self.halt {
            Halt::Value(_) => OutcomeClass::Value,
            Halt::Fail(c) => OutcomeClass::Fail(*c),
            Halt::OutOfFuel => OutcomeClass::OutOfFuel,
            Halt::PhantomStuck { .. } => OutcomeClass::Stuck,
        };
        RunStats {
            outcome,
            steps: self.steps,
            counters: self.counters,
        }
    }
}

/// Continuation frames.
///
/// Pending expressions are held as [`Arc<Expr>`] — the same shared nodes the
/// program AST is built from — so pushing a frame is a reference-count bump,
/// never a copy of the subtree.
#[derive(Debug, Clone)]
enum Frame {
    PairL(Arc<Expr>, Env),
    PairR(Value),
    Fst,
    Snd,
    InlK,
    InrK,
    IfK(Arc<Expr>, Arc<Expr>, Env),
    MatchK(Var, Arc<Expr>, Var, Arc<Expr>, Env),
    LetK(Var, Arc<Expr>, Env),
    AppL(Arc<Expr>, Env),
    AppR(Value),
    RefK,
    DerefK,
    AssignL(Arc<Expr>, Env),
    AssignR(Loc),
    PrimL(PrimOp, Arc<Expr>, Env),
    PrimR(PrimOp, Value),
    AllocK,
    FreeK,
    GcmovK,
}

#[derive(Debug, Clone)]
enum Control {
    Eval(Arc<Expr>, Env),
    Return(Value),
}

/// The LCVM machine.
#[derive(Debug, Clone)]
pub struct Machine {
    heap: Heap,
    control: Control,
    kont: Vec<Frame>,
    /// The binders the augmented (phantom-flag) semantics of §4 protects,
    /// when the machine runs under it.
    augmented: Option<PhantomConfig>,
    phantom: PhantomState,
    steps: u64,
    counters: VmCounters,
    halted: Option<Halt>,
}

impl Machine {
    /// A machine evaluating `expr` in the empty environment and empty heap.
    pub fn new(expr: Expr) -> Machine {
        Machine::with_state(Heap::new(), expr)
    }

    /// A machine evaluating `expr` under the augmented (phantom-flag)
    /// semantics, protecting the binders `cfg` names.
    pub fn with_phantom(expr: Expr, cfg: PhantomConfig) -> Machine {
        Machine {
            augmented: Some(cfg),
            ..Machine::new(expr)
        }
    }

    /// A machine evaluating `expr` against an explicit heap — used by the
    /// executable models, which need to run expressions against heaps that
    /// satisfy a given world.
    pub fn with_state(heap: Heap, expr: Expr) -> Machine {
        Machine {
            heap,
            control: Control::Eval(Arc::new(expr), Env::empty()),
            kont: Vec::new(),
            augmented: None,
            phantom: PhantomState::new(),
            steps: 0,
            counters: VmCounters::new(),
            halted: None,
        }
    }

    /// Rearms the machine to evaluate `expr` from the empty configuration,
    /// clearing the heap, environment, continuation stack and phantom state
    /// **in place**.  The continuation stack's buffer and the heap slab both
    /// keep the capacity their previous runs grew — the retained allocations
    /// a batch of compiled artifacts shares by reusing one machine (each
    /// run's final *heap* is harvested into its [`RunResult`], so heaps
    /// start over logically while the slab's storage stays; see
    /// [`Machine::run_mut`]).  The protected binders, if any, are retained.
    ///
    /// A reset machine is observationally identical to a fresh one
    /// ([`Machine::new`] or [`Machine::with_phantom`]) on the same expression —
    /// same halt, same final heap, same step count — which the unit tests
    /// below and the `batched_execution` integration suite assert.
    pub fn reset(&mut self, expr: Expr) {
        self.heap.reset();
        self.kont.clear();
        self.control = Control::Eval(Arc::new(expr), Env::empty());
        self.phantom = PhantomState::new();
        self.steps = 0;
        self.counters = VmCounters::new();
        self.halted = None;
    }

    /// True if the machine can take no further step.
    pub fn is_terminal(&self) -> bool {
        self.halted.is_some()
            || matches!(
                (&self.control, self.kont.is_empty()),
                (Control::Return(_), true)
            )
    }

    fn fail(&mut self, code: ErrorCode) {
        self.halted = Some(Halt::Fail(code));
    }

    /// The locations directly reachable from the machine state: the
    /// control, every saved frame and the environments they hold.
    fn heap_roots(&self) -> Vec<Loc> {
        let mut roots = Vec::new();
        match &self.control {
            Control::Eval(e, env) => {
                env.iter()
                    .for_each(|(_, v)| v.collect_locs_into(&mut roots));
                collect_expr_locs(e, &mut roots);
            }
            Control::Return(v) => v.collect_locs_into(&mut roots),
        }
        for frame in &self.kont {
            match frame {
                Frame::PairL(e, env)
                | Frame::AppL(e, env)
                | Frame::AssignL(e, env)
                | Frame::PrimL(_, e, env)
                | Frame::LetK(_, e, env) => {
                    env.iter()
                        .for_each(|(_, v)| v.collect_locs_into(&mut roots));
                    collect_expr_locs(e, &mut roots);
                }
                Frame::IfK(e1, e2, env) | Frame::MatchK(_, e1, _, e2, env) => {
                    env.iter()
                        .for_each(|(_, v)| v.collect_locs_into(&mut roots));
                    collect_expr_locs(e1, &mut roots);
                    collect_expr_locs(e2, &mut roots);
                }
                Frame::PairR(v) | Frame::AppR(v) | Frame::PrimR(_, v) => {
                    v.collect_locs_into(&mut roots)
                }
                Frame::AssignR(l) => roots.push(*l),
                Frame::Fst
                | Frame::Snd
                | Frame::InlK
                | Frame::InrK
                | Frame::RefK
                | Frame::DerefK
                | Frame::AllocK
                | Frame::FreeK
                | Frame::GcmovK => {}
            }
        }
        roots
    }

    /// Binds `x ↦ v` in `env`, applying the augmented semantics' protection
    /// rule when `x` is a static affine binder.
    ///
    /// The wildcard `_` is not bound at all: under the paper's substitution
    /// semantics `let _ = e1 in e2` discards the value, so keeping it in an
    /// environment would make garbage collection needlessly conservative.
    fn bind(&mut self, env: &Env, x: Var, v: Value) -> Env {
        if x.as_str() == "_" {
            return env.clone();
        }
        if let Some(cfg) = &self.augmented {
            if cfg.protects(&x) {
                let f = self.phantom.mint();
                return env.extend(x, Value::Protected(Box::new(v), f));
            }
        }
        env.extend(x, v)
    }

    /// Performs one machine step.
    pub fn step(&mut self) {
        if self.is_terminal() {
            return;
        }
        self.steps += 1;
        let control = std::mem::replace(&mut self.control, Control::Return(Value::Unit));
        match control {
            Control::Eval(e, env) => {
                self.counters.retire(classify_expr(&e));
                self.step_eval(e, env);
            }
            Control::Return(v) => {
                // A non-terminal return step always has a frame to consume;
                // the retired instruction is classified by that frame.
                if let Some(frame) = self.kont.last() {
                    self.counters.retire(classify_frame(frame));
                }
                self.step_return(v);
            }
        }
        self.counters.note_stack_depth(self.kont.len());
    }

    fn step_eval(&mut self, e: Arc<Expr>, env: Env) {
        // Matching through the `Arc` means every child handed to a frame or
        // the next control is a reference-count bump, never a subtree copy.
        match &*e {
            Expr::Unit => self.control = Control::Return(Value::Unit),
            Expr::Int(n) => self.control = Control::Return(Value::Int(*n)),
            Expr::Loc(l) => self.control = Control::Return(Value::Loc(*l)),
            Expr::Var(x) => match env.lookup(x) {
                Some(Value::Protected(inner, f)) => {
                    // Augmented semantics: forcing a protected value consumes
                    // its phantom flag; a missing flag means the variable was
                    // already used and the machine is stuck.
                    let inner = (**inner).clone();
                    let f = *f;
                    if self.phantom.consume(f) {
                        self.control = Control::Return(inner);
                    } else {
                        self.halted = Some(Halt::PhantomStuck { flag: f });
                    }
                }
                Some(v) => self.control = Control::Return(v.clone()),
                None => self.fail(ErrorCode::Type),
            },
            Expr::Pair(e1, e2) => {
                self.kont.push(Frame::PairL(e2.clone(), env.clone()));
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Fst(e1) => {
                self.kont.push(Frame::Fst);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Snd(e1) => {
                self.kont.push(Frame::Snd);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Inl(e1) => {
                self.kont.push(Frame::InlK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Inr(e1) => {
                self.kont.push(Frame::InrK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::If(c, t, f) => {
                self.kont
                    .push(Frame::IfK(t.clone(), f.clone(), env.clone()));
                self.control = Control::Eval(c.clone(), env);
            }
            Expr::Match(s, x, l, y, r) => {
                self.kont.push(Frame::MatchK(
                    x.clone(),
                    l.clone(),
                    y.clone(),
                    r.clone(),
                    env.clone(),
                ));
                self.control = Control::Eval(s.clone(), env);
            }
            Expr::Let(x, bound, body) => {
                self.kont
                    .push(Frame::LetK(x.clone(), body.clone(), env.clone()));
                self.control = Control::Eval(bound.clone(), env);
            }
            Expr::Lam(x, body) => {
                self.control = Control::Return(Value::Closure {
                    param: x.clone(),
                    body: body.clone(),
                    env,
                });
            }
            Expr::App(f, a) => {
                self.kont.push(Frame::AppL(a.clone(), env.clone()));
                self.control = Control::Eval(f.clone(), env);
            }
            Expr::Ref(e1) => {
                self.kont.push(Frame::RefK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Deref(e1) => {
                self.kont.push(Frame::DerefK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Assign(e1, e2) => {
                self.kont.push(Frame::AssignL(e2.clone(), env.clone()));
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Fail(c) => self.fail(*c),
            Expr::Prim(op, e1, e2) => {
                self.kont.push(Frame::PrimL(*op, e2.clone(), env.clone()));
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Alloc(e1) => {
                self.kont.push(Frame::AllocK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Free(e1) => {
                self.kont.push(Frame::FreeK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Gcmov(e1) => {
                self.kont.push(Frame::GcmovK);
                self.control = Control::Eval(e1.clone(), env);
            }
            Expr::Callgc => {
                let roots = self.heap_roots();
                self.heap.collect(roots);
                self.control = Control::Return(Value::Unit);
            }
            Expr::Protect(e1, f) => {
                // Evaluating protect(e, f) consumes the flag and continues
                // with e (paper: ⟨Φ ⊎ {f}, H, protect(e,f)⟩ ⇝ ⟨Φ, H, e⟩).
                if self.augmented.is_some() {
                    if self.phantom.consume(*f) {
                        self.control = Control::Eval(e1.clone(), env);
                    } else {
                        self.halted = Some(Halt::PhantomStuck { flag: *f });
                    }
                } else {
                    // Outside augmented mode protect is erased on the fly.
                    self.control = Control::Eval(e1.clone(), env);
                }
            }
        }
    }

    fn step_return(&mut self, v: Value) {
        let frame = match self.kont.pop() {
            Some(f) => f,
            None => {
                self.control = Control::Return(v);
                return;
            }
        };
        match frame {
            Frame::PairL(e2, env) => {
                self.kont.push(Frame::PairR(v));
                self.control = Control::Eval(e2, env);
            }
            Frame::PairR(v1) => {
                self.control = Control::Return(Value::Pair(Box::new(v1), Box::new(v)));
            }
            Frame::Fst => match v {
                Value::Pair(a, _) => self.control = Control::Return(*a),
                _ => self.fail(ErrorCode::Type),
            },
            Frame::Snd => match v {
                Value::Pair(_, b) => self.control = Control::Return(*b),
                _ => self.fail(ErrorCode::Type),
            },
            Frame::InlK => self.control = Control::Return(Value::Inl(Box::new(v))),
            Frame::InrK => self.control = Control::Return(Value::Inr(Box::new(v))),
            Frame::IfK(t, f, env) => match v {
                Value::Int(0) => self.control = Control::Eval(t, env),
                Value::Int(_) => self.control = Control::Eval(f, env),
                _ => self.fail(ErrorCode::Type),
            },
            Frame::MatchK(x, l, y, r, env) => match v {
                Value::Inl(inner) => {
                    let env = self.bind(&env, x, *inner);
                    self.control = Control::Eval(l, env);
                }
                Value::Inr(inner) => {
                    let env = self.bind(&env, y, *inner);
                    self.control = Control::Eval(r, env);
                }
                _ => self.fail(ErrorCode::Type),
            },
            Frame::LetK(x, body, env) => {
                let env = self.bind(&env, x, v);
                self.control = Control::Eval(body, env);
            }
            Frame::AppL(arg, env) => {
                self.kont.push(Frame::AppR(v));
                self.control = Control::Eval(arg, env);
            }
            Frame::AppR(fun) => match fun {
                Value::Closure { param, body, env } => {
                    let env = self.bind(&env, param, v);
                    self.control = Control::Eval(body, env);
                }
                _ => self.fail(ErrorCode::Type),
            },
            Frame::RefK => {
                let l = self.heap.alloc_gc(v);
                self.control = Control::Return(Value::Loc(l));
            }
            Frame::DerefK => match v {
                Value::Loc(l) => match self.heap.read(l) {
                    Ok(stored) => self.control = Control::Return(stored.clone()),
                    Err(e) => self.fail(e.code()),
                },
                _ => self.fail(ErrorCode::Type),
            },
            Frame::AssignL(rhs, env) => match v {
                Value::Loc(l) => {
                    self.kont.push(Frame::AssignR(l));
                    self.control = Control::Eval(rhs, env);
                }
                _ => self.fail(ErrorCode::Type),
            },
            Frame::AssignR(l) => match self.heap.write(l, v) {
                Ok(()) => self.control = Control::Return(Value::Unit),
                Err(e) => self.fail(e.code()),
            },
            Frame::PrimL(op, e2, env) => {
                self.kont.push(Frame::PrimR(op, v));
                self.control = Control::Eval(e2, env);
            }
            Frame::PrimR(op, v1) => match (v1, v) {
                (Value::Int(a), Value::Int(b)) => {
                    let r = match op {
                        PrimOp::Add => a.wrapping_add(b),
                        PrimOp::Sub => a.wrapping_sub(b),
                        PrimOp::Mul => a.wrapping_mul(b),
                        PrimOp::Less => {
                            if a < b {
                                0
                            } else {
                                1
                            }
                        }
                        PrimOp::Eq => {
                            if a == b {
                                0
                            } else {
                                1
                            }
                        }
                    };
                    self.control = Control::Return(Value::Int(r));
                }
                _ => self.fail(ErrorCode::Type),
            },
            Frame::AllocK => {
                let l = self.heap.alloc_manual(v);
                self.control = Control::Return(Value::Loc(l));
            }
            Frame::FreeK => match v {
                Value::Loc(l) => match self.heap.free(l) {
                    Ok(_) => self.control = Control::Return(Value::Unit),
                    Err(e) => self.fail(e.code()),
                },
                _ => self.fail(ErrorCode::Type),
            },
            Frame::GcmovK => match v {
                Value::Loc(l) => match self.heap.gcmov(l) {
                    Ok(()) => self.control = Control::Return(Value::Loc(l)),
                    Err(e) => self.fail(e.code()),
                },
                _ => self.fail(ErrorCode::Type),
            },
        }
    }

    /// Runs the machine until it halts or the fuel is exhausted.
    pub fn run(mut self, fuel: Fuel) -> RunResult {
        self.run_mut(fuel)
    }

    /// Like [`Machine::run`], but borrows the machine so it can be
    /// [`Machine::reset`] and reused for the next program of a batch.  The
    /// final heap moves into the returned [`RunResult`] (reports own their
    /// heaps); the machine is left with an empty one, exactly as a reset
    /// would leave it.
    pub fn run_mut(&mut self, mut fuel: Fuel) -> RunResult {
        loop {
            if let Some(halt) = self.halted.take() {
                return self.take_result(halt);
            }
            if let (Control::Return(v), true) = (&self.control, self.kont.is_empty()) {
                let v = v.clone();
                return self.take_result(Halt::Value(v));
            }
            if !fuel.consume() {
                return self.take_result(Halt::OutOfFuel);
            }
            self.step();
        }
    }

    /// Packages the run's outcome, harvesting the final heap out of the
    /// machine's slab so the slab's capacity survives for the next run.
    fn take_result(&mut self, halt: Halt) -> RunResult {
        // Heap-derived counters must be read before the heap is harvested.
        let heap_stats = self.heap.stats();
        let mut counters = self.counters;
        counters.heap_allocs = heap_stats.gc_allocs + heap_stats.manual_allocs;
        counters.heap_frees = heap_stats.frees + heap_stats.collected;
        counters.heap_reuses = heap_stats.reused;
        counters.heap_peak_live = heap_stats.peak_live;
        RunResult {
            halt,
            heap: self.heap.harvest(),
            steps: self.steps,
            flags_consumed: self.phantom.consumed(),
            counters,
        }
    }

    /// Convenience: runs a closed expression from the empty configuration.
    pub fn run_expr(expr: Expr, fuel: Fuel) -> RunResult {
        Machine::new(expr).run(fuel)
    }

    /// Batch counterpart of [`Machine::run_expr`]: runs each closed
    /// expression from the empty configuration on **one** reused machine
    /// ([`Machine::reset`] between programs, so the continuation stack's
    /// grown buffer is shared across the batch), returning results in input
    /// order.  Observationally identical to calling [`Machine::run_expr`]
    /// per expression.
    pub fn run_batch(exprs: impl IntoIterator<Item = Expr>, fuel: Fuel) -> Vec<RunResult> {
        let mut machine = Machine::new(Expr::Unit);
        exprs
            .into_iter()
            .map(|expr| {
                machine.reset(expr);
                machine.run_mut(fuel)
            })
            .collect()
    }

    /// Convenience: runs an expression under the augmented (phantom-flag)
    /// semantics with the given protected binders.
    pub fn run_phantom(expr: Expr, cfg: PhantomConfig, fuel: Fuel) -> RunResult {
        Machine::with_phantom(expr, cfg).run(fuel)
    }
}

/// The opcode class an eval-mode step retires under (see
/// [`semint_core::telemetry::OpClass`] for the bucket definitions).
fn classify_expr(e: &Expr) -> OpClass {
    match e {
        Expr::Unit
        | Expr::Int(_)
        | Expr::Loc(_)
        | Expr::Var(_)
        | Expr::Pair(..)
        | Expr::Fst(_)
        | Expr::Snd(_)
        | Expr::Inl(_)
        | Expr::Inr(_)
        | Expr::Lam(..)
        | Expr::Prim(..) => OpClass::Data,
        Expr::If(..) | Expr::Match(..) | Expr::Fail(_) | Expr::Protect(..) => OpClass::Control,
        Expr::Let(..) | Expr::App(..) => OpClass::Fun,
        Expr::Ref(_)
        | Expr::Deref(_)
        | Expr::Assign(..)
        | Expr::Alloc(_)
        | Expr::Free(_)
        | Expr::Gcmov(_)
        | Expr::Callgc => OpClass::Heap,
    }
}

/// The opcode class a return-mode step retires under, keyed by the frame it
/// consumes — mirroring [`classify_expr`] on the construct that pushed it.
fn classify_frame(f: &Frame) -> OpClass {
    match f {
        Frame::PairL(..)
        | Frame::PairR(_)
        | Frame::Fst
        | Frame::Snd
        | Frame::InlK
        | Frame::InrK
        | Frame::PrimL(..)
        | Frame::PrimR(..) => OpClass::Data,
        Frame::IfK(..) | Frame::MatchK(..) => OpClass::Control,
        Frame::LetK(..) | Frame::AppL(..) | Frame::AppR(_) => OpClass::Fun,
        Frame::RefK
        | Frame::DerefK
        | Frame::AssignL(..)
        | Frame::AssignR(_)
        | Frame::AllocK
        | Frame::FreeK
        | Frame::GcmovK => OpClass::Heap,
    }
}

fn collect_expr_locs(e: &Expr, acc: &mut Vec<Loc>) {
    if let Expr::Loc(l) = e {
        acc.push(*l);
    }
    // Walk the expression for embedded location literals (rare outside tests
    // and conversion glue applied to already-evaluated values).
    match e {
        Expr::Pair(a, b)
        | Expr::App(a, b)
        | Expr::Assign(a, b)
        | Expr::Prim(_, a, b)
        | Expr::Let(_, a, b) => {
            collect_expr_locs(a, acc);
            collect_expr_locs(b, acc);
        }
        Expr::Fst(a)
        | Expr::Snd(a)
        | Expr::Inl(a)
        | Expr::Inr(a)
        | Expr::Lam(_, a)
        | Expr::Ref(a)
        | Expr::Deref(a)
        | Expr::Alloc(a)
        | Expr::Free(a)
        | Expr::Gcmov(a)
        | Expr::Protect(a, _) => collect_expr_locs(a, acc),
        Expr::If(c, t, f) => {
            collect_expr_locs(c, acc);
            collect_expr_locs(t, acc);
            collect_expr_locs(f, acc);
        }
        Expr::Match(s, _, l, _, r) => {
            collect_expr_locs(s, acc);
            collect_expr_locs(l, acc);
            collect_expr_locs(r, acc);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(e: Expr) -> Halt {
        Machine::run_expr(e, Fuel::default()).halt
    }

    #[test]
    fn arithmetic_and_booleans() {
        assert_eq!(
            run(Expr::add(Expr::int(2), Expr::int(3))),
            Halt::Value(Value::Int(5))
        );
        assert_eq!(
            run(Expr::sub(Expr::int(2), Expr::int(3))),
            Halt::Value(Value::Int(-1))
        );
        assert_eq!(
            run(Expr::mul(Expr::int(4), Expr::int(3))),
            Halt::Value(Value::Int(12))
        );
        // 0 encodes true.
        assert_eq!(
            run(Expr::less(Expr::int(1), Expr::int(2))),
            Halt::Value(Value::Int(0))
        );
        assert_eq!(
            run(Expr::eq(Expr::int(2), Expr::int(2))),
            Halt::Value(Value::Int(0))
        );
        assert_eq!(
            run(Expr::eq(Expr::int(2), Expr::int(3))),
            Halt::Value(Value::Int(1))
        );
    }

    #[test]
    fn if_takes_first_branch_on_zero() {
        assert_eq!(
            run(Expr::if_(Expr::int(0), Expr::int(10), Expr::int(20))),
            Halt::Value(Value::Int(10))
        );
        assert_eq!(
            run(Expr::if_(Expr::int(5), Expr::int(10), Expr::int(20))),
            Halt::Value(Value::Int(20))
        );
        assert_eq!(
            run(Expr::if_(Expr::unit(), Expr::int(1), Expr::int(2))),
            Halt::Fail(ErrorCode::Type)
        );
    }

    #[test]
    fn functions_close_over_their_environment() {
        // let y = 10 in (λx. x + y) 5  ==> 15
        let e = Expr::let_(
            "y",
            Expr::int(10),
            Expr::app(
                Expr::lam("x", Expr::add(Expr::var("x"), Expr::var("y"))),
                Expr::int(5),
            ),
        );
        assert_eq!(run(e), Halt::Value(Value::Int(15)));
    }

    #[test]
    fn pairs_sums_and_match() {
        let e = Expr::fst(Expr::pair(Expr::int(1), Expr::int(2)));
        assert_eq!(run(e), Halt::Value(Value::Int(1)));
        let e = Expr::snd(Expr::pair(Expr::int(1), Expr::int(2)));
        assert_eq!(run(e), Halt::Value(Value::Int(2)));

        let e = Expr::match_(
            Expr::inl(Expr::int(7)),
            "x",
            Expr::add(Expr::var("x"), Expr::int(1)),
            "y",
            Expr::int(0),
        );
        assert_eq!(run(e), Halt::Value(Value::Int(8)));

        let e = Expr::match_(
            Expr::inr(Expr::int(7)),
            "x",
            Expr::int(0),
            "y",
            Expr::var("y"),
        );
        assert_eq!(run(e), Halt::Value(Value::Int(7)));

        assert_eq!(
            run(Expr::match_(
                Expr::int(3),
                "x",
                Expr::int(0),
                "y",
                Expr::int(1)
            )),
            Halt::Fail(ErrorCode::Type)
        );
        assert_eq!(run(Expr::fst(Expr::int(3))), Halt::Fail(ErrorCode::Type));
    }

    #[test]
    fn gc_references_read_and_write() {
        // let r = ref 1 in (r := 42; !r)
        let e = Expr::let_(
            "r",
            Expr::ref_(Expr::int(1)),
            Expr::seq(
                Expr::assign(Expr::var("r"), Expr::int(42)),
                Expr::deref(Expr::var("r")),
            ),
        );
        assert_eq!(run(e), Halt::Value(Value::Int(42)));
    }

    #[test]
    fn manual_memory_alloc_free_and_use_after_free() {
        // let p = alloc 5 in (free p; !p)  ==> fail Ptr
        let e = Expr::let_(
            "p",
            Expr::alloc(Expr::int(5)),
            Expr::seq(Expr::free(Expr::var("p")), Expr::deref(Expr::var("p"))),
        );
        assert_eq!(run(e), Halt::Fail(ErrorCode::Ptr));

        // free of a GC'd cell fails with Ptr.
        let e = Expr::free(Expr::ref_(Expr::int(1)));
        assert_eq!(run(e), Halt::Fail(ErrorCode::Ptr));

        // alloc / read works like ref / read.
        let e = Expr::deref(Expr::alloc(Expr::int(9)));
        assert_eq!(run(e), Halt::Value(Value::Int(9)));
    }

    #[test]
    fn gcmov_preserves_identity_and_contents() {
        // let p = alloc 3 in let q = gcmov p in !q
        let e = Expr::let_(
            "p",
            Expr::alloc(Expr::int(3)),
            Expr::let_(
                "q",
                Expr::gcmov(Expr::var("p")),
                Expr::deref(Expr::var("q")),
            ),
        );
        let r = Machine::run_expr(e, Fuel::default());
        assert_eq!(r.halt, Halt::Value(Value::Int(3)));
        // After gcmov the cell is GC'd: freeing it would fail.
        let e = Expr::let_(
            "p",
            Expr::alloc(Expr::int(3)),
            Expr::seq(Expr::gcmov(Expr::var("p")), Expr::free(Expr::var("p"))),
        );
        assert_eq!(run(e), Halt::Fail(ErrorCode::Ptr));
    }

    #[test]
    fn callgc_collects_unreachable_cells_but_keeps_reachable_ones() {
        // let live = ref 1 in
        // let _ = ref 2 in          (immediately dead)
        // let _ = callgc in !live
        let e = Expr::let_(
            "live",
            Expr::ref_(Expr::int(1)),
            Expr::seq(
                Expr::ref_(Expr::int(2)),
                Expr::seq(Expr::Callgc, Expr::deref(Expr::var("live"))),
            ),
        );
        let r = Machine::run_expr(e, Fuel::default());
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert_eq!(r.heap.stats().gc_runs, 1);
        assert_eq!(r.heap.stats().collected, 1);
        assert_eq!(r.heap.len(), 1);
    }

    #[test]
    fn explicit_fail_reports_its_code() {
        assert_eq!(
            run(Expr::Fail(ErrorCode::Conv)),
            Halt::Fail(ErrorCode::Conv)
        );
        assert!(!Halt::Fail(ErrorCode::Type).is_safe());
        assert!(Halt::Fail(ErrorCode::Conv).is_safe());
    }

    #[test]
    fn out_of_fuel_on_divergence() {
        // Ω = (λx. x x) (λx. x x)
        let omega = Expr::app(
            Expr::lam("x", Expr::app(Expr::var("x"), Expr::var("x"))),
            Expr::lam("x", Expr::app(Expr::var("x"), Expr::var("x"))),
        );
        let r = Machine::run_expr(omega, Fuel::steps(500));
        assert_eq!(r.halt, Halt::OutOfFuel);
        assert_eq!(r.steps, 500);
        assert!(r.halt.is_safe());
    }

    #[test]
    fn unbound_variable_is_a_type_error() {
        assert_eq!(run(Expr::var("nope")), Halt::Fail(ErrorCode::Type));
    }

    #[test]
    fn application_of_non_function_is_a_type_error() {
        assert_eq!(
            run(Expr::app(Expr::int(3), Expr::int(4))),
            Halt::Fail(ErrorCode::Type)
        );
    }

    #[test]
    fn phantom_mode_allows_single_use_of_protected_binder() {
        // let a = 5 in a + 0, with `a` protected: one use is fine.
        let cfg = PhantomConfig::protecting([Var::new("a")]);
        let e = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::int(0)));
        let r = Machine::run_phantom(e, cfg, Fuel::default());
        assert_eq!(r.halt, Halt::Value(Value::Int(5)));
        assert_eq!(r.flags_consumed, 1);
    }

    #[test]
    fn phantom_mode_sticks_on_second_use() {
        // let a = 5 in a + a, with `a` protected: the second use is stuck.
        let cfg = PhantomConfig::protecting([Var::new("a")]);
        let e = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::var("a")));
        let r = Machine::run_phantom(e, cfg, Fuel::default());
        assert!(matches!(r.halt, Halt::PhantomStuck { .. }));
        assert!(!r.halt.is_safe());
    }

    #[test]
    fn phantom_mode_ignores_unprotected_binders() {
        let cfg = PhantomConfig::protecting([Var::new("someone_else")]);
        let e = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::var("a")));
        let r = Machine::run_phantom(e, cfg, Fuel::default());
        assert_eq!(r.halt, Halt::Value(Value::Int(10)));
        assert_eq!(r.flags_consumed, 0);
    }

    #[test]
    fn erased_phantom_program_agrees_with_standard_semantics() {
        // A program that uses its protected binder once: the augmented run and
        // the erased standard run agree (the paper's erasure property).
        let cfg = PhantomConfig::protecting([Var::new("a")]);
        let e = Expr::let_("a", Expr::int(21), Expr::mul(Expr::var("a"), Expr::int(2)));
        let aug = Machine::run_phantom(e.clone(), cfg, Fuel::default());
        let std = Machine::run_expr(e.erase_protect(), Fuel::default());
        assert_eq!(aug.halt.value_ref(), std.halt.value_ref());
    }

    #[test]
    fn protect_expression_consumes_flag_outside_binding() {
        // Directly evaluating protect(e, f) without the flag being live makes
        // the augmented machine stuck.
        let cfg = PhantomConfig::protecting([Var::new("unused")]);
        let e = Expr::Protect(Arc::new(Expr::int(1)), 999);
        let r = Machine::run_phantom(e.clone(), cfg, Fuel::default());
        assert!(matches!(r.halt, Halt::PhantomStuck { flag: 999 }));
        // Outside augmented mode, protect is erased on the fly.
        assert_eq!(run(e), Halt::Value(Value::Int(1)));
    }

    #[test]
    fn step_counting_is_deterministic() {
        let e = Expr::add(Expr::int(1), Expr::int(2));
        let r1 = Machine::run_expr(e.clone(), Fuel::default());
        let r2 = Machine::run_expr(e, Fuel::default());
        assert_eq!(r1.steps, r2.steps);
        assert!(r1.steps > 0);
    }

    #[test]
    fn reset_machine_is_observationally_identical_to_a_fresh_one() {
        // Programs exercising every piece of machine state a reset must
        // clear: heap cells (GC'd and manual), environments, continuation
        // frames, step counters and halt states.
        let programs: Vec<Expr> = vec![
            Expr::add(Expr::int(2), Expr::int(3)),
            Expr::let_(
                "r",
                Expr::ref_(Expr::int(1)),
                Expr::seq(
                    Expr::assign(Expr::var("r"), Expr::int(42)),
                    Expr::deref(Expr::var("r")),
                ),
            ),
            Expr::let_(
                "p",
                Expr::alloc(Expr::int(5)),
                Expr::seq(Expr::free(Expr::var("p")), Expr::deref(Expr::var("p"))),
            ),
            Expr::fst(Expr::int(3)),
            Expr::seq(Expr::ref_(Expr::int(7)), Expr::Callgc),
        ];
        let mut reused = Machine::new(Expr::unit());
        // Dirty the machine before the comparison runs so the reset has
        // something real to clear.
        let _ = reused.run_mut(Fuel::default());
        for e in &programs {
            reused.reset(e.clone());
            let from_reset = reused.run_mut(Fuel::default());
            let from_fresh = Machine::run_expr(e.clone(), Fuel::default());
            assert_eq!(from_reset, from_fresh, "program {e}");
        }
        // Fuel exhaustion mid-run leaves no residue either.
        let omega = Expr::app(
            Expr::lam("x", Expr::app(Expr::var("x"), Expr::var("x"))),
            Expr::lam("x", Expr::app(Expr::var("x"), Expr::var("x"))),
        );
        reused.reset(omega);
        assert_eq!(reused.run_mut(Fuel::steps(100)).halt, Halt::OutOfFuel);
        reused.reset(Expr::int(1));
        assert_eq!(
            reused.run_mut(Fuel::default()),
            Machine::run_expr(Expr::int(1), Fuel::default())
        );
    }

    #[test]
    fn run_batch_matches_per_expression_runs_in_order() {
        let exprs = vec![
            Expr::add(Expr::int(1), Expr::int(2)),
            Expr::fst(Expr::int(3)),
            Expr::deref(Expr::ref_(Expr::int(9))),
        ];
        let singly: Vec<RunResult> = exprs
            .iter()
            .map(|e| Machine::run_expr(e.clone(), Fuel::default()))
            .collect();
        let batched = Machine::run_batch(exprs, Fuel::default());
        assert_eq!(batched, singly);
        assert!(Machine::run_batch(Vec::new(), Fuel::default()).is_empty());
    }

    #[test]
    fn reset_clears_phantom_state_but_keeps_the_config() {
        let cfg = PhantomConfig::protecting([Var::new("a")]);
        let once = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::int(0)));
        let twice = Expr::let_("a", Expr::int(5), Expr::add(Expr::var("a"), Expr::var("a")));
        let mut reused = Machine::with_phantom(twice.clone(), cfg.clone());
        // First run gets stuck on the double use and consumes a flag…
        assert!(matches!(
            reused.run_mut(Fuel::default()).halt,
            Halt::PhantomStuck { .. }
        ));
        // …but a reset restores the pristine flag store while the config
        // (which binder is protected) survives.
        reused.reset(once.clone());
        let from_reset = reused.run_mut(Fuel::default());
        let from_fresh = Machine::with_phantom(once, cfg).run(Fuel::default());
        assert_eq!(from_reset, from_fresh);
        assert_eq!(from_reset.flags_consumed, 1);
    }

    #[test]
    fn counters_account_for_every_step_and_track_heap_activity() {
        // let r = ref 1 in (r := 42; !r) — data, fun, and heap steps.
        let e = Expr::let_(
            "r",
            Expr::ref_(Expr::int(1)),
            Expr::seq(
                Expr::assign(Expr::var("r"), Expr::int(42)),
                Expr::deref(Expr::var("r")),
            ),
        );
        let r = Machine::run_expr(e, Fuel::default());
        let c = r.counters;
        assert_eq!(
            c.total_instrs(),
            r.steps,
            "every retired step is classified exactly once"
        );
        assert!(c.instr_heap > 0, "ref/assign/deref are heap steps");
        assert!(c.instr_fun > 0, "let is a fun step");
        assert_eq!(c.heap_allocs, 1);
        assert_eq!(c.heap_peak_live, 1);
        assert!(c.stack_peak > 0);
        // Counters are digest-grade: a second identical run agrees exactly.
        let e2 = Expr::let_(
            "r",
            Expr::ref_(Expr::int(1)),
            Expr::seq(
                Expr::assign(Expr::var("r"), Expr::int(42)),
                Expr::deref(Expr::var("r")),
            ),
        );
        assert_eq!(Machine::run_expr(e2, Fuel::default()).counters, c);
    }

    #[test]
    fn church_boolean_application_shape() {
        // (λ_. λx. λy. y) () 0 1  ==> 1   (the CBOOL↦bool conversion shape)
        let church_false = Expr::lam("_", Expr::lam("x", Expr::lam("y", Expr::var("y"))));
        let e = Expr::app(
            Expr::app(Expr::app(church_false, Expr::unit()), Expr::int(0)),
            Expr::int(1),
        );
        assert_eq!(run(e), Halt::Value(Value::Int(1)));
    }
}
