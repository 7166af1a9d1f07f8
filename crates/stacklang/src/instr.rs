//! StackLang syntax: values, operands, instructions and programs (Fig. 2).
//!
//! The one divergence from the figure's concrete syntax is that `push`
//! operands are split into literal values and variables: compiled code pushes
//! variables (`push x`) that an enclosing `lam x. P` binds.  The paper folds
//! variables into the value grammar implicitly; separating them keeps "closed
//! program" a checkable property ([`Program::is_closed`]).
//!
//! # Sharing
//!
//! A [`Program`] is an immutable, reference-counted instruction slice, and
//! the nested programs of `if0`, `lam` and `thunk` are programs too, so
//! copying any of them is a pointer copy.  Arrays inside a [`Value`] are
//! shared the same way.  The machine never rewrites code: `lam` binds its
//! values in an environment, and a [`Thunk`] carries the environment that
//! was current when its `push (thunk P)` ran.  A thunk *denotes* Fig. 2's
//! substituted program — its code with the environment substituted in
//! ([`Thunk::program`]) — and it renders and compares as that program.

use crate::heap::Loc;
use semint_core::{ErrorCode, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// StackLang values `v ::= n | thunk P | ℓ | [v, …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An integer.
    Num(i64),
    /// A suspended computation, resumed with `call`.
    Thunk(Thunk),
    /// A heap location.
    Loc(Loc),
    /// An array of values, shared: copying the array copies a pointer.
    Array(Arc<[Value]>),
}

impl Value {
    /// The integer carried by a `Num`, if any.
    pub fn as_num(&self) -> Option<i64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The location carried by a `Loc`, if any.
    pub fn as_loc(&self) -> Option<Loc> {
        match self {
            Value::Loc(l) => Some(*l),
            _ => None,
        }
    }

    /// The elements of an `Array`, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// An array value from an iterator of values.
    pub fn array(vs: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(vs.into_iter().collect())
    }

    /// `thunk P` for a program `P` that captured nothing.
    pub fn thunk(code: Program) -> Value {
        Value::Thunk(Thunk::new(code))
    }

    /// The value a literal `push v` pushes under `env`: every thunk inside
    /// `v` that captured nothing captures `env`, as substituting `env` into
    /// the literal would.  Thunk-free values are returned as they are.
    pub(crate) fn closed_under(&self, env: &Env) -> Value {
        match self {
            Value::Thunk(t) => Value::Thunk(t.closed_under(env)),
            Value::Array(vs)
                if !env.is_empty()
                    && vs
                        .iter()
                        .any(|v| matches!(v, Value::Thunk(_) | Value::Array(_))) =>
            {
                Value::Array(vs.iter().map(|v| v.closed_under(env)).collect())
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Thunk(t) => write!(f, "thunk {{{}}}", t.program()),
            Value::Loc(l) => write!(f, "{l}"),
            Value::Array(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A thunk value: shared code plus the environment its `push (thunk P)`
/// captured.
///
/// It stands for the program Fig. 2 would have built by substitution
/// ([`Thunk::program`]): two thunks are equal, and render alike, exactly
/// when those programs are.
#[derive(Clone)]
pub struct Thunk {
    pub(crate) code: Program,
    pub(crate) env: Env,
}

impl Thunk {
    /// A thunk of `code` that captured nothing.
    pub fn new(code: Program) -> Thunk {
        Thunk {
            code,
            env: Env::empty(),
        }
    }

    /// The program this thunk denotes: its code with the captured
    /// environment substituted in.
    pub fn program(&self) -> Program {
        self.env.substitute_into(&self.code)
    }

    /// This thunk as a literal pushed under `env`.  Code that captured
    /// nothing captures `env`; a thunk that already carries an environment
    /// keeps it, since substituting into a closed value changes nothing.
    fn closed_under(&self, env: &Env) -> Thunk {
        Thunk {
            code: self.code.clone(),
            env: if self.env.is_empty() {
                env.clone()
            } else {
                self.env.clone()
            },
        }
    }
}

impl PartialEq for Thunk {
    fn eq(&self, other: &Thunk) -> bool {
        (self.code == other.code && self.env == other.env) || self.program() == other.program()
    }
}

impl Eq for Thunk {}

impl fmt::Debug for Thunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.program(), f)
    }
}

/// An environment: the values bound by the enclosing `lam`s, innermost
/// first.
///
/// Persistent: binding shares the tail, so a thunk captures its environment
/// with a pointer copy.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct Env(Option<Arc<Binding>>);

#[derive(PartialEq, Eq)]
struct Binding {
    var: Var,
    val: Value,
    next: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// `self` extended with `var ↦ val`, shadowing any outer `var`.
    pub fn bind(&self, var: Var, val: Value) -> Env {
        Env(Some(Arc::new(Binding {
            var,
            val,
            next: self.clone(),
        })))
    }

    /// The innermost value bound to `var`.
    pub fn lookup(&self, var: &Var) -> Option<&Value> {
        self.iter().find(|(x, _)| *x == var).map(|(_, v)| v)
    }

    /// The bindings, innermost first (shadowed ones included).
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        std::iter::successors(self.0.as_deref(), |b| b.next.0.as_deref()).map(|b| (&b.var, &b.val))
    }

    /// `program` with every binding substituted, innermost first, so an
    /// inner binding shadows an outer one of the same name.
    pub fn substitute_into(&self, program: &Program) -> Program {
        self.iter().fold(program.clone(), |p, (x, v)| p.subst(x, v))
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The operand of a `push`: a literal value, a variable bound by an
/// enclosing `lam`, or an array template whose elements are themselves
/// operands.
///
/// Array templates let us write the paper's `push [x₁, x₂]` (Fig. 3): the
/// machine resolves each element against the current environment when the
/// push executes, and an unbound variable is a `fail Type` (the program was
/// open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A literal value.
    Lit(Value),
    /// A variable occurrence.
    Var(Var),
    /// An array literal whose elements may mention variables.
    Array(Arc<[Operand]>),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Lit(v) => write!(f, "{v}"),
            Operand::Var(x) => write!(f, "{x}"),
            Operand::Array(ops) => {
                write!(f, "[")?;
                for (i, o) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{o}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// StackLang instructions (Fig. 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `push v` / `push x`: push a value (or the value bound to a variable).
    Push(Operand),
    /// `add`: pop `n'`, `n`, push `n + n'`.
    Add,
    /// `less?`: pop `n'`, `n`, push `0` if `n < n'` else `1`.
    Less,
    /// `if0 P1 P2`: pop `n`, continue with `P1` if `n = 0`, else `P2`.
    If0(Program, Program),
    /// `lam x₁,…,xₖ. P`: pop one value per binder (leftmost binder takes the
    /// top of the stack) and run `P` with them bound.
    Lam(Arc<[Var]>, Program),
    /// `call`: pop a thunk and continue with its program.
    Call,
    /// `idx`: pop `n`, an array, push the `n`-th element (`fail Idx` if out of
    /// bounds).
    Idx,
    /// `len`: pop an array, push its length.
    Len,
    /// `alloc`: pop `v`, allocate a fresh location holding `v`, push it.
    Alloc,
    /// `read`: pop a location, push its contents.
    Read,
    /// `write`: pop `v` and a location, store `v` there.
    Write,
    /// `fail c`: abort the machine with error code `c`.
    Fail(ErrorCode),
}

impl Instr {
    /// `push n` for a literal number — the most common instruction in
    /// compiled code, so it gets a shorthand.
    pub fn push_num(n: i64) -> Instr {
        Instr::Push(Operand::Lit(Value::Num(n)))
    }

    /// `push v` for a literal value.
    pub fn push_val(v: Value) -> Instr {
        Instr::Push(Operand::Lit(v))
    }

    /// `push x` for a variable.
    pub fn push_var(x: impl Into<Var>) -> Instr {
        Instr::Push(Operand::Var(x.into()))
    }

    /// `lam x₁,…,xₖ. P`, binders listed top-of-stack first.
    pub fn lam(binders: impl IntoIterator<Item = Var>, body: Program) -> Instr {
        Instr::Lam(binders.into_iter().collect(), body)
    }

    /// `lam x. P` with a single binder.
    pub fn lam1(x: impl Into<Var>, body: Program) -> Instr {
        Instr::lam([x.into()], body)
    }

    /// `push (thunk P)`.
    pub fn push_thunk(p: Program) -> Instr {
        Instr::push_val(Value::thunk(p))
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Push(o) => write!(f, "push {o}"),
            Instr::Add => write!(f, "add"),
            Instr::Less => write!(f, "less?"),
            Instr::If0(p1, p2) => write!(f, "if0 ({p1}) ({p2})"),
            Instr::Lam(xs, p) => {
                write!(f, "lam ")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ". ({p})")
            }
            Instr::Call => write!(f, "call"),
            Instr::Idx => write!(f, "idx"),
            Instr::Len => write!(f, "len"),
            Instr::Alloc => write!(f, "alloc"),
            Instr::Read => write!(f, "read"),
            Instr::Write => write!(f, "write"),
            Instr::Fail(c) => write!(f, "fail {c}"),
        }
    }
}

/// A StackLang program `P ::= · | i, P`: an immutable, shared sequence of
/// instructions.  Cloning a program copies a pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program(Arc<[Instr]>);

impl Program {
    /// The empty program `·` (one shared allocation per process).
    pub fn empty() -> Program {
        static EMPTY: OnceLock<Program> = OnceLock::new();
        EMPTY.get_or_init(|| Program(Arc::from(Vec::new()))).clone()
    }

    /// A single-instruction program.
    pub fn single(i: Instr) -> Program {
        Program(Arc::from([i]))
    }

    /// Number of top-level instructions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the program is `·`.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sequences `self` before `other` (`self, other`).
    pub fn then(self, other: Program) -> Program {
        if other.is_empty() {
            self
        } else if self.is_empty() {
            other
        } else {
            self.0.iter().chain(other.0.iter()).cloned().collect()
        }
    }

    /// Appends a single instruction.
    pub fn then_instr(self, i: Instr) -> Program {
        self.0.iter().cloned().chain([i]).collect()
    }

    /// The instructions, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.0
    }

    /// Capture-avoiding substitution `[x ↦ v]P` of Fig. 2.
    ///
    /// Replaces free occurrences of `x` (in `push x` operands) with the
    /// literal value `v`, descending into `if0` branches, `lam` bodies (unless
    /// the `lam` rebinds `x`) and the programs `thunk` literals denote.  The
    /// machine never substitutes; this defines what a [`Thunk`] denotes and
    /// drives the reference machine ([`crate::reference`]).
    pub(crate) fn subst(&self, x: &Var, v: &Value) -> Program {
        self.0.iter().map(|i| subst_instr(i, x, v)).collect()
    }

    /// The set of free variables of the program.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        let mut acc = BTreeSet::new();
        free_vars_prog(self, &mut Vec::new(), &mut acc);
        acc
    }

    /// True if the program has no free variables (safe to run directly).
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::empty()
    }
}

impl From<Vec<Instr>> for Program {
    fn from(v: Vec<Instr>) -> Self {
        Program(v.into())
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        Program(iter.into_iter().collect())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "·");
        }
        for (i, instr) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{instr}")?;
        }
        Ok(())
    }
}

fn subst_instr(i: &Instr, x: &Var, v: &Value) -> Instr {
    match i {
        Instr::Push(op) => Instr::Push(subst_operand(op, x, v)),
        Instr::If0(p1, p2) => Instr::If0(p1.subst(x, v), p2.subst(x, v)),
        Instr::Lam(xs, p) if !xs.contains(x) => Instr::Lam(xs.clone(), p.subst(x, v)),
        other => other.clone(),
    }
}

fn subst_operand(op: &Operand, x: &Var, v: &Value) -> Operand {
    match op {
        Operand::Var(y) if y == x => Operand::Lit(v.clone()),
        Operand::Var(y) => Operand::Var(y.clone()),
        Operand::Lit(val) => Operand::Lit(subst_value(val, x, v)),
        Operand::Array(ops) => Operand::Array(ops.iter().map(|o| subst_operand(o, x, v)).collect()),
    }
}

fn subst_value(val: &Value, x: &Var, v: &Value) -> Value {
    match val {
        Value::Thunk(t) => Value::thunk(t.program().subst(x, v)),
        Value::Array(vs) => Value::array(vs.iter().map(|w| subst_value(w, x, v))),
        other => other.clone(),
    }
}

fn free_vars_prog(p: &Program, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    for i in p.instrs() {
        match i {
            Instr::Push(op) => free_vars_operand(op, bound, acc),
            Instr::If0(p1, p2) => {
                free_vars_prog(p1, bound, acc);
                free_vars_prog(p2, bound, acc);
            }
            Instr::Lam(xs, body) => {
                let n = bound.len();
                bound.extend(xs.iter().cloned());
                free_vars_prog(body, bound, acc);
                bound.truncate(n);
            }
            _ => {}
        }
    }
}

fn free_vars_operand(op: &Operand, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    match op {
        Operand::Var(x) => {
            if !bound.contains(x) {
                acc.insert(x.clone());
            }
        }
        Operand::Lit(v) => free_vars_value(v, bound, acc),
        Operand::Array(ops) => {
            for o in ops.iter() {
                free_vars_operand(o, bound, acc)
            }
        }
    }
}

fn free_vars_value(v: &Value, bound: &mut Vec<Var>, acc: &mut BTreeSet<Var>) {
    match v {
        Value::Thunk(t) => free_vars_prog(&t.program(), bound, acc),
        Value::Array(vs) => {
            for w in vs.iter() {
                free_vars_value(w, bound, acc)
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn substitution_replaces_free_occurrences() {
        let p = Program::from(vec![Instr::push_var("x"), Instr::push_var("y"), Instr::Add]);
        let q = p.subst(&var("x"), &Value::Num(10));
        assert_eq!(
            q,
            Program::from(vec![Instr::push_num(10), Instr::push_var("y"), Instr::Add])
        );
    }

    #[test]
    fn substitution_respects_lam_shadowing() {
        // lam x. (push x) must not be touched when substituting for x.
        let inner = Program::single(Instr::push_var("x"));
        let p = Program::from(vec![Instr::push_var("x"), Instr::lam1("x", inner.clone())]);
        let q = p.subst(&var("x"), &Value::Num(1));
        assert_eq!(q.instrs()[0], Instr::push_num(1));
        assert_eq!(q.instrs()[1], Instr::lam1("x", inner));
    }

    #[test]
    fn substitution_descends_into_thunks_and_branches() {
        let p = Program::from(vec![
            Instr::push_thunk(Program::single(Instr::push_var("x"))),
            Instr::If0(
                Program::single(Instr::push_var("x")),
                Program::single(Instr::push_var("z")),
            ),
        ]);
        let q = p.subst(&var("x"), &Value::Num(3));
        assert_eq!(
            q.instrs()[0],
            Instr::push_thunk(Program::single(Instr::push_num(3)))
        );
        assert_eq!(
            q.instrs()[1],
            Instr::If0(
                Program::single(Instr::push_num(3)),
                Program::single(Instr::push_var("z")),
            )
        );
    }

    #[test]
    fn free_vars_and_closedness() {
        let p = Program::from(vec![
            Instr::push_var("a"),
            Instr::lam1(
                "b",
                Program::from(vec![Instr::push_var("b"), Instr::push_var("c")]),
            ),
        ]);
        let fv = p.free_vars();
        assert!(fv.contains(&var("a")));
        assert!(fv.contains(&var("c")));
        assert!(!fv.contains(&var("b")));
        assert!(!p.is_closed());
        assert!(Program::single(Instr::push_num(1)).is_closed());
    }

    #[test]
    fn then_concatenates_in_order() {
        let p = Program::single(Instr::push_num(1)).then(Program::single(Instr::push_num(2)));
        assert_eq!(p.len(), 2);
        assert_eq!(p.instrs()[0], Instr::push_num(1));
        let p = p.then_instr(Instr::Add);
        assert_eq!(p.len(), 3);
        assert_eq!(Program::empty().then(p.clone()), p);
    }

    #[test]
    fn display_round_trips_shape() {
        let p = Program::from(vec![
            Instr::push_num(1),
            Instr::lam1("x", Program::single(Instr::push_var("x"))),
            Instr::Fail(ErrorCode::Conv),
        ]);
        assert_eq!(p.to_string(), "push 1, lam x. (push x), fail Conv");
        assert_eq!(Program::empty().to_string(), "·");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Num(3).as_num(), Some(3));
        assert_eq!(Value::Num(3).as_loc(), None);
        assert_eq!(Value::Loc(Loc(1)).as_loc(), Some(Loc(1)));
        let arr = Value::array([Value::Num(1), Value::Num(2)]);
        assert_eq!(arr.as_array().unwrap().len(), 2);
        assert_eq!(arr.to_string(), "[1, 2]");
    }

    #[test]
    fn thunks_render_and_compare_as_the_program_they_denote() {
        // thunk {push x} under x ↦ 7 is the substituted thunk {push 7}.
        let code = Program::single(Instr::push_var("x"));
        let captured = Value::Thunk(Thunk {
            code: code.clone(),
            env: Env::empty().bind(var("x"), Value::Num(7)),
        });
        let substituted = Value::thunk(Program::single(Instr::push_num(7)));
        assert_eq!(captured, substituted);
        assert_eq!(captured.to_string(), "thunk {push 7}");
        assert_eq!(format!("{captured:?}"), format!("{substituted:?}"));
        assert_ne!(Value::thunk(code), substituted);
    }

    #[test]
    fn environments_shadow_innermost_first() {
        let env = Env::empty()
            .bind(var("x"), Value::Num(1))
            .bind(var("y"), Value::Num(2))
            .bind(var("x"), Value::Num(3));
        assert_eq!(env.lookup(&var("x")), Some(&Value::Num(3)));
        assert_eq!(env.lookup(&var("y")), Some(&Value::Num(2)));
        assert_eq!(env.lookup(&var("z")), None);
        let p = Program::from(vec![Instr::push_var("x"), Instr::push_var("y")]);
        assert_eq!(
            env.substitute_into(&p),
            Program::from(vec![Instr::push_num(3), Instr::push_num(2)])
        );
    }
}
