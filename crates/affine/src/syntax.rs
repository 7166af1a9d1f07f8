//! Syntax of MiniML and Affi (Fig. 6).
//!
//! MiniML here is the §4 instance: unit, int, products, sums, functions and
//! ML-style references (the §5 instance, with polymorphism and foreign types,
//! lives in the `memgc-interop` crate).  Affi has the two affine arrows, the
//! exponential `!𝜏`, the additive pair `&` and the multiplicative pair `⊗`.

use semint_core::Var;
use std::fmt;
use std::sync::Arc;

/// The mode of an affine binder or arrow: dynamic (`◦`, may cross the
/// boundary, runtime-guarded) or static (`•`, never crosses, model-enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// `◦` — dynamically enforced.
    Dynamic,
    /// `•` — statically enforced (phantom flags in the model).
    Static,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Dynamic => write!(f, "◦"),
            Mode::Static => write!(f, "•"),
        }
    }
}

/// MiniML types (§4 instance).
///
/// Children sit behind [`Arc`]: a clone copies one node and shares its
/// subtrees, while equality, hashing and rendering stay structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MlType {
    /// `unit`.
    Unit,
    /// `int`.
    Int,
    /// `τ1 × τ2`.
    Prod(Arc<MlType>, Arc<MlType>),
    /// `τ1 + τ2`.
    Sum(Arc<MlType>, Arc<MlType>),
    /// `τ1 → τ2`.
    Fun(Arc<MlType>, Arc<MlType>),
    /// `ref τ`.
    Ref(Arc<MlType>),
}

impl MlType {
    /// `τ1 × τ2`.
    pub fn prod(a: MlType, b: MlType) -> MlType {
        MlType::Prod(Arc::new(a), Arc::new(b))
    }
    /// `τ1 + τ2`.
    pub fn sum(a: MlType, b: MlType) -> MlType {
        MlType::Sum(Arc::new(a), Arc::new(b))
    }
    /// `τ1 → τ2`.
    pub fn fun(a: MlType, b: MlType) -> MlType {
        MlType::Fun(Arc::new(a), Arc::new(b))
    }
    /// `ref τ`.
    pub fn ref_(a: MlType) -> MlType {
        MlType::Ref(Arc::new(a))
    }
}

impl fmt::Display for MlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlType::Unit => write!(f, "unit"),
            MlType::Int => write!(f, "int"),
            MlType::Prod(a, b) => write!(f, "({a} × {b})"),
            MlType::Sum(a, b) => write!(f, "({a} + {b})"),
            MlType::Fun(a, b) => write!(f, "({a} → {b})"),
            MlType::Ref(a) => write!(f, "ref {a}"),
        }
    }
}

impl MlType {
    /// The length of this type's rendering in characters, counted arm for
    /// arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            MlType::Unit => 4,
            MlType::Int => 3,
            MlType::Prod(a, b) | MlType::Sum(a, b) | MlType::Fun(a, b) => {
                5 + a.rendered_chars() + b.rendered_chars()
            }
            MlType::Ref(a) => 4 + a.rendered_chars(),
        }
    }
}

/// Affi types (Fig. 6).
///
/// Children sit behind [`Arc`]: a clone copies one node and shares its
/// subtrees, while equality, hashing and rendering stay structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AffiType {
    /// `unit`.
    Unit,
    /// `bool`.
    Bool,
    /// `int`.
    Int,
    /// `𝜏1 ⊸ 𝜏2` (dynamic) or `𝜏1 ⊸• 𝜏2` (static), distinguished by the mode.
    Lolli(Mode, Arc<AffiType>, Arc<AffiType>),
    /// `!𝜏` — the exponential: values that use no affine resources.
    Bang(Arc<AffiType>),
    /// `𝜏1 & 𝜏2` — additive (lazy) pair: only one component will be used.
    With(Arc<AffiType>, Arc<AffiType>),
    /// `𝜏1 ⊗ 𝜏2` — multiplicative pair: both components are owned.
    Tensor(Arc<AffiType>, Arc<AffiType>),
}

impl AffiType {
    /// `𝜏1 ⊸ 𝜏2` (dynamic).
    pub fn lolli(a: AffiType, b: AffiType) -> AffiType {
        AffiType::Lolli(Mode::Dynamic, Arc::new(a), Arc::new(b))
    }
    /// `𝜏1 ⊸• 𝜏2` (static).
    pub fn lolli_static(a: AffiType, b: AffiType) -> AffiType {
        AffiType::Lolli(Mode::Static, Arc::new(a), Arc::new(b))
    }
    /// `!𝜏`.
    pub fn bang(a: AffiType) -> AffiType {
        AffiType::Bang(Arc::new(a))
    }
    /// `𝜏1 & 𝜏2`.
    pub fn with(a: AffiType, b: AffiType) -> AffiType {
        AffiType::With(Arc::new(a), Arc::new(b))
    }
    /// `𝜏1 ⊗ 𝜏2`.
    pub fn tensor(a: AffiType, b: AffiType) -> AffiType {
        AffiType::Tensor(Arc::new(a), Arc::new(b))
    }
}

impl fmt::Display for AffiType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffiType::Unit => write!(f, "unit"),
            AffiType::Bool => write!(f, "bool"),
            AffiType::Int => write!(f, "int"),
            AffiType::Lolli(Mode::Dynamic, a, b) => write!(f, "({a} ⊸ {b})"),
            AffiType::Lolli(Mode::Static, a, b) => write!(f, "({a} ⊸• {b})"),
            AffiType::Bang(a) => write!(f, "!{a}"),
            AffiType::With(a, b) => write!(f, "({a} & {b})"),
            AffiType::Tensor(a, b) => write!(f, "({a} ⊗ {b})"),
        }
    }
}

impl AffiType {
    /// The length of this type's rendering in characters, counted arm for
    /// arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            AffiType::Unit | AffiType::Bool => 4,
            AffiType::Int => 3,
            AffiType::Lolli(Mode::Dynamic, a, b)
            | AffiType::With(a, b)
            | AffiType::Tensor(a, b) => 5 + a.rendered_chars() + b.rendered_chars(),
            AffiType::Lolli(Mode::Static, a, b) => 6 + a.rendered_chars() + b.rendered_chars(),
            AffiType::Bang(a) => 1 + a.rendered_chars(),
        }
    }
}

/// MiniML expressions (§4 instance).
#[derive(Debug, Clone, PartialEq)]
pub enum MlExpr {
    /// `()`.
    Unit,
    /// An integer literal.
    Int(i64),
    /// A variable.
    Var(Var),
    /// `(e1, e2)`.
    Pair(Box<MlExpr>, Box<MlExpr>),
    /// `fst e`.
    Fst(Box<MlExpr>),
    /// `snd e`.
    Snd(Box<MlExpr>),
    /// `inl e` annotated with the full sum type.
    Inl(Box<MlExpr>, MlType),
    /// `inr e` annotated with the full sum type.
    Inr(Box<MlExpr>, MlType),
    /// `match e x {e1} y {e2}`.
    Match(Box<MlExpr>, Var, Box<MlExpr>, Var, Box<MlExpr>),
    /// `λx:τ. e`.
    Lam(Var, MlType, Box<MlExpr>),
    /// `e1 e2`.
    App(Box<MlExpr>, Box<MlExpr>),
    /// `ref e`.
    Ref(Box<MlExpr>),
    /// `!e`.
    Deref(Box<MlExpr>),
    /// `e1 := e2`.
    Assign(Box<MlExpr>, Box<MlExpr>),
    /// Primitive addition (used by the examples; compiles to LCVM `+`).
    Add(Box<MlExpr>, Box<MlExpr>),
    /// Boundary `⦇ē⦈τ`: an Affi term used at MiniML type `τ`.
    Boundary(Box<AffiExpr>, MlType),
}

impl MlExpr {
    /// `()`.
    pub fn unit() -> MlExpr {
        MlExpr::Unit
    }
    /// An integer literal.
    pub fn int(n: i64) -> MlExpr {
        MlExpr::Int(n)
    }
    /// A variable.
    pub fn var(x: impl Into<Var>) -> MlExpr {
        MlExpr::Var(x.into())
    }
    /// `(e1, e2)`.
    pub fn pair(a: MlExpr, b: MlExpr) -> MlExpr {
        MlExpr::Pair(Box::new(a), Box::new(b))
    }
    /// `fst e`.
    pub fn fst(e: MlExpr) -> MlExpr {
        MlExpr::Fst(Box::new(e))
    }
    /// `snd e`.
    pub fn snd(e: MlExpr) -> MlExpr {
        MlExpr::Snd(Box::new(e))
    }
    /// `inl e` at sum type `ty`.
    pub fn inl(e: MlExpr, ty: MlType) -> MlExpr {
        MlExpr::Inl(Box::new(e), ty)
    }
    /// `inr e` at sum type `ty`.
    pub fn inr(e: MlExpr, ty: MlType) -> MlExpr {
        MlExpr::Inr(Box::new(e), ty)
    }
    /// `match e x {l} y {r}`.
    pub fn match_(e: MlExpr, x: impl Into<Var>, l: MlExpr, y: impl Into<Var>, r: MlExpr) -> MlExpr {
        MlExpr::Match(Box::new(e), x.into(), Box::new(l), y.into(), Box::new(r))
    }
    /// `λx:τ. body`.
    pub fn lam(x: impl Into<Var>, ty: MlType, body: MlExpr) -> MlExpr {
        MlExpr::Lam(x.into(), ty, Box::new(body))
    }
    /// `e1 e2`.
    pub fn app(f: MlExpr, a: MlExpr) -> MlExpr {
        MlExpr::App(Box::new(f), Box::new(a))
    }
    /// `ref e`.
    pub fn ref_(e: MlExpr) -> MlExpr {
        MlExpr::Ref(Box::new(e))
    }
    /// `!e`.
    pub fn deref(e: MlExpr) -> MlExpr {
        MlExpr::Deref(Box::new(e))
    }
    /// `e1 := e2`.
    pub fn assign(a: MlExpr, b: MlExpr) -> MlExpr {
        MlExpr::Assign(Box::new(a), Box::new(b))
    }
    /// `e1 + e2`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: MlExpr, b: MlExpr) -> MlExpr {
        MlExpr::Add(Box::new(a), Box::new(b))
    }
    /// `⦇ē⦈τ`: embed an Affi term at MiniML type `ty`.
    pub fn boundary(e: AffiExpr, ty: MlType) -> MlExpr {
        MlExpr::Boundary(Box::new(e), ty)
    }
}

/// Affi expressions (Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub enum AffiExpr {
    /// `()`.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// An unrestricted variable (bound by `let !x = …`).
    UVar(Var),
    /// An affine variable `a◦` or `a•`.
    AVar(Mode, Var),
    /// `λa:𝜏. e` with the binder's mode determining the arrow.
    Lam(Mode, Var, AffiType, Box<AffiExpr>),
    /// `e1 e2`.
    App(Box<AffiExpr>, Box<AffiExpr>),
    /// `!v` — exponential introduction (the payload must use no affine
    /// resources).
    Bang(Box<AffiExpr>),
    /// `let !x = e in e'` — exponential elimination, binding `x`
    /// unrestrictedly.
    LetBang(Var, Box<AffiExpr>, Box<AffiExpr>),
    /// `⟨e, e'⟩` — additive pair.
    WithPair(Box<AffiExpr>, Box<AffiExpr>),
    /// `e.1`.
    Proj1(Box<AffiExpr>),
    /// `e.2`.
    Proj2(Box<AffiExpr>),
    /// `(e, e')` — multiplicative (tensor) pair.
    TensorPair(Box<AffiExpr>, Box<AffiExpr>),
    /// `let (a•, b•) = e in e'` — tensor elimination, binding two static
    /// affine variables.
    LetTensor(Var, Var, Box<AffiExpr>, Box<AffiExpr>),
    /// Boundary `⦇e⦈𝜏`: a MiniML term used at Affi type `𝜏`.
    Boundary(Box<MlExpr>, AffiType),
}

impl AffiExpr {
    /// `()`.
    pub fn unit() -> AffiExpr {
        AffiExpr::Unit
    }
    /// A boolean literal.
    pub fn bool_(b: bool) -> AffiExpr {
        AffiExpr::Bool(b)
    }
    /// An integer literal.
    pub fn int(n: i64) -> AffiExpr {
        AffiExpr::Int(n)
    }
    /// An unrestricted variable.
    pub fn uvar(x: impl Into<Var>) -> AffiExpr {
        AffiExpr::UVar(x.into())
    }
    /// A dynamic affine variable `a◦`.
    pub fn avar(x: impl Into<Var>) -> AffiExpr {
        AffiExpr::AVar(Mode::Dynamic, x.into())
    }
    /// A static affine variable `a•`.
    pub fn avar_static(x: impl Into<Var>) -> AffiExpr {
        AffiExpr::AVar(Mode::Static, x.into())
    }
    /// `λa◦:𝜏. body` (dynamic affine function).
    pub fn lam(x: impl Into<Var>, ty: AffiType, body: AffiExpr) -> AffiExpr {
        AffiExpr::Lam(Mode::Dynamic, x.into(), ty, Box::new(body))
    }
    /// `λa•:𝜏. body` (static affine function).
    pub fn lam_static(x: impl Into<Var>, ty: AffiType, body: AffiExpr) -> AffiExpr {
        AffiExpr::Lam(Mode::Static, x.into(), ty, Box::new(body))
    }
    /// `e1 e2`.
    pub fn app(f: AffiExpr, a: AffiExpr) -> AffiExpr {
        AffiExpr::App(Box::new(f), Box::new(a))
    }
    /// `!e`.
    pub fn bang(e: AffiExpr) -> AffiExpr {
        AffiExpr::Bang(Box::new(e))
    }
    /// `let !x = e in body`.
    pub fn let_bang(x: impl Into<Var>, e: AffiExpr, body: AffiExpr) -> AffiExpr {
        AffiExpr::LetBang(x.into(), Box::new(e), Box::new(body))
    }
    /// `⟨a, b⟩`.
    pub fn with_pair(a: AffiExpr, b: AffiExpr) -> AffiExpr {
        AffiExpr::WithPair(Box::new(a), Box::new(b))
    }
    /// `e.1`.
    pub fn proj1(e: AffiExpr) -> AffiExpr {
        AffiExpr::Proj1(Box::new(e))
    }
    /// `e.2`.
    pub fn proj2(e: AffiExpr) -> AffiExpr {
        AffiExpr::Proj2(Box::new(e))
    }
    /// `(a, b)` (tensor).
    pub fn tensor(a: AffiExpr, b: AffiExpr) -> AffiExpr {
        AffiExpr::TensorPair(Box::new(a), Box::new(b))
    }
    /// `let (a•, b•) = e in body`.
    pub fn let_tensor(
        a: impl Into<Var>,
        b: impl Into<Var>,
        e: AffiExpr,
        body: AffiExpr,
    ) -> AffiExpr {
        AffiExpr::LetTensor(a.into(), b.into(), Box::new(e), Box::new(body))
    }
    /// `⦇e⦈𝜏`: embed a MiniML term at Affi type `ty`.
    pub fn boundary(e: MlExpr, ty: AffiType) -> AffiExpr {
        AffiExpr::Boundary(Box::new(e), ty)
    }
}

impl MlExpr {
    /// Number of syntactic language boundaries `⦇·⦈`, counted structurally
    /// (one tree walk, no rendering) across both embedded languages.
    pub fn boundary_count(&self) -> usize {
        match self {
            MlExpr::Unit | MlExpr::Int(_) | MlExpr::Var(_) => 0,
            MlExpr::Fst(e)
            | MlExpr::Snd(e)
            | MlExpr::Inl(e, _)
            | MlExpr::Inr(e, _)
            | MlExpr::Lam(_, _, e)
            | MlExpr::Ref(e)
            | MlExpr::Deref(e) => e.boundary_count(),
            MlExpr::Pair(a, b) | MlExpr::App(a, b) | MlExpr::Assign(a, b) | MlExpr::Add(a, b) => {
                a.boundary_count() + b.boundary_count()
            }
            MlExpr::Match(s, _, l, _, r) => {
                s.boundary_count() + l.boundary_count() + r.boundary_count()
            }
            MlExpr::Boundary(e, _) => 1 + e.boundary_count(),
        }
    }
}

impl AffiExpr {
    /// Number of syntactic language boundaries `⦇·⦈`, counted structurally
    /// (one tree walk, no rendering) across both embedded languages.
    pub fn boundary_count(&self) -> usize {
        match self {
            AffiExpr::Unit
            | AffiExpr::Bool(_)
            | AffiExpr::Int(_)
            | AffiExpr::UVar(_)
            | AffiExpr::AVar(_, _) => 0,
            AffiExpr::Lam(_, _, _, e)
            | AffiExpr::Bang(e)
            | AffiExpr::Proj1(e)
            | AffiExpr::Proj2(e) => e.boundary_count(),
            AffiExpr::App(a, b)
            | AffiExpr::WithPair(a, b)
            | AffiExpr::TensorPair(a, b)
            | AffiExpr::LetBang(_, a, b)
            | AffiExpr::LetTensor(_, _, a, b) => a.boundary_count() + b.boundary_count(),
            AffiExpr::Boundary(e, _) => 1 + e.boundary_count(),
        }
    }
}

impl fmt::Display for MlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlExpr::Unit => write!(f, "()"),
            MlExpr::Int(n) => write!(f, "{n}"),
            MlExpr::Var(x) => write!(f, "{x}"),
            MlExpr::Pair(a, b) => write!(f, "({a}, {b})"),
            MlExpr::Fst(e) => write!(f, "fst {e}"),
            MlExpr::Snd(e) => write!(f, "snd {e}"),
            MlExpr::Inl(e, _) => write!(f, "inl {e}"),
            MlExpr::Inr(e, _) => write!(f, "inr {e}"),
            MlExpr::Match(s, x, l, y, r) => write!(f, "match {s} {x}{{{l}}} {y}{{{r}}}"),
            MlExpr::Lam(x, ty, b) => write!(f, "λ{x}:{ty}. {b}"),
            MlExpr::App(a, b) => write!(f, "({a}) ({b})"),
            MlExpr::Ref(e) => write!(f, "ref {e}"),
            MlExpr::Deref(e) => write!(f, "!{e}"),
            MlExpr::Assign(a, b) => write!(f, "{a} := {b}"),
            MlExpr::Add(a, b) => write!(f, "({a} + {b})"),
            MlExpr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

impl MlExpr {
    /// The length of this program's rendering in characters, counted arm
    /// for arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            MlExpr::Unit => 2,
            MlExpr::Int(n) => semint_core::int_chars(*n),
            MlExpr::Var(x) => x.rendered_chars(),
            MlExpr::Pair(a, b) | MlExpr::Assign(a, b) => {
                4 + a.rendered_chars() + b.rendered_chars()
            }
            MlExpr::Fst(e)
            | MlExpr::Snd(e)
            | MlExpr::Inl(e, _)
            | MlExpr::Inr(e, _)
            | MlExpr::Ref(e) => 4 + e.rendered_chars(),
            MlExpr::Match(s, x, l, y, r) => {
                12 + s.rendered_chars()
                    + x.rendered_chars()
                    + l.rendered_chars()
                    + y.rendered_chars()
                    + r.rendered_chars()
            }
            MlExpr::Lam(x, ty, b) => {
                4 + x.rendered_chars() + ty.rendered_chars() + b.rendered_chars()
            }
            MlExpr::App(a, b) | MlExpr::Add(a, b) => 5 + a.rendered_chars() + b.rendered_chars(),
            MlExpr::Deref(e) => 1 + e.rendered_chars(),
            MlExpr::Boundary(e, ty) => 2 + e.rendered_chars() + ty.rendered_chars(),
        }
    }
}

impl fmt::Display for AffiExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffiExpr::Unit => write!(f, "()"),
            AffiExpr::Bool(b) => write!(f, "{b}"),
            AffiExpr::Int(n) => write!(f, "{n}"),
            AffiExpr::UVar(x) => write!(f, "{x}"),
            AffiExpr::AVar(m, x) => write!(f, "{x}{m}"),
            AffiExpr::Lam(m, x, ty, b) => write!(f, "λ{x}{m}:{ty}. {b}"),
            AffiExpr::App(a, b) => write!(f, "({a}) ({b})"),
            AffiExpr::Bang(e) => write!(f, "!{e}"),
            AffiExpr::LetBang(x, e, b) => write!(f, "let !{x} = {e} in {b}"),
            AffiExpr::WithPair(a, b) => write!(f, "⟨{a}, {b}⟩"),
            AffiExpr::Proj1(e) => write!(f, "{e}.1"),
            AffiExpr::Proj2(e) => write!(f, "{e}.2"),
            AffiExpr::TensorPair(a, b) => write!(f, "({a}, {b})"),
            AffiExpr::LetTensor(a, b, e, body) => write!(f, "let ({a}•, {b}•) = {e} in {body}"),
            AffiExpr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

impl AffiExpr {
    /// The length of this program's rendering in characters, counted arm
    /// for arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            AffiExpr::Unit => 2,
            AffiExpr::Bool(true) => 4,
            AffiExpr::Bool(false) => 5,
            AffiExpr::Int(n) => semint_core::int_chars(*n),
            AffiExpr::UVar(x) => x.rendered_chars(),
            AffiExpr::AVar(_, x) => 1 + x.rendered_chars(),
            AffiExpr::Lam(_, x, ty, b) => {
                5 + x.rendered_chars() + ty.rendered_chars() + b.rendered_chars()
            }
            AffiExpr::App(a, b) => 5 + a.rendered_chars() + b.rendered_chars(),
            AffiExpr::Bang(e) => 1 + e.rendered_chars(),
            AffiExpr::LetBang(x, e, b) => {
                12 + x.rendered_chars() + e.rendered_chars() + b.rendered_chars()
            }
            AffiExpr::WithPair(a, b) | AffiExpr::TensorPair(a, b) => {
                4 + a.rendered_chars() + b.rendered_chars()
            }
            AffiExpr::Proj1(e) | AffiExpr::Proj2(e) => 2 + e.rendered_chars(),
            AffiExpr::LetTensor(a, b, e, body) => {
                17 + a.rendered_chars()
                    + b.rendered_chars()
                    + e.rendered_chars()
                    + body.rendered_chars()
            }
            AffiExpr::Boundary(e, ty) => 2 + e.rendered_chars() + ty.rendered_chars(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        assert_eq!(
            AffiType::lolli(AffiType::Int, AffiType::Bool).to_string(),
            "(int ⊸ bool)"
        );
        assert_eq!(
            AffiType::lolli_static(AffiType::Int, AffiType::Bool).to_string(),
            "(int ⊸• bool)"
        );
        assert_eq!(
            MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int).to_string(),
            "((unit → int) → int)"
        );
        assert_eq!(
            AffiType::tensor(AffiType::Unit, AffiType::bang(AffiType::Int)).to_string(),
            "(unit ⊗ !int)"
        );
    }

    #[test]
    fn structural_char_counts_match_the_rendering() {
        // Every constructor, with what the generators never emit: negative
        // and extreme integers, static lollis and `a•` binders, multi-byte
        // names.
        let affi_ty = AffiType::with(
            AffiType::lolli_static(AffiType::Int, AffiType::bang(AffiType::Bool)),
            AffiType::tensor(
                AffiType::Unit,
                AffiType::lolli(AffiType::Int, AffiType::Int),
            ),
        );
        let ml_ty = MlType::fun(
            MlType::sum(MlType::Int, MlType::prod(MlType::Unit, MlType::Int)),
            MlType::ref_(MlType::Unit),
        );
        let ml = MlExpr::match_(
            MlExpr::inl(
                MlExpr::int(i64::MIN),
                MlType::sum(MlType::Int, MlType::Unit),
            ),
            "ζ",
            MlExpr::pair(
                MlExpr::fst(MlExpr::var("ζ")),
                MlExpr::snd(MlExpr::add(MlExpr::int(-42), MlExpr::int(1234))),
            ),
            "y2",
            MlExpr::app(
                MlExpr::lam(
                    "α",
                    ml_ty.clone(),
                    MlExpr::deref(MlExpr::ref_(MlExpr::unit())),
                ),
                MlExpr::assign(
                    MlExpr::inr(MlExpr::unit(), MlType::sum(MlType::Int, MlType::Unit)),
                    MlExpr::boundary(AffiExpr::int(-7), MlType::Int),
                ),
            ),
        );
        let affi = AffiExpr::let_tensor(
            "ζ",
            "b",
            AffiExpr::tensor(
                AffiExpr::bool_(true),
                AffiExpr::tensor(AffiExpr::bool_(false), AffiExpr::unit()),
            ),
            AffiExpr::app(
                AffiExpr::lam_static(
                    "α",
                    affi_ty.clone(),
                    AffiExpr::let_bang(
                        "x",
                        AffiExpr::bang(AffiExpr::int(-305)),
                        AffiExpr::with_pair(AffiExpr::uvar("x"), AffiExpr::avar_static("α")),
                    ),
                ),
                AffiExpr::proj1(AffiExpr::proj2(AffiExpr::app(
                    AffiExpr::lam("a", AffiType::Unit, AffiExpr::avar("a")),
                    AffiExpr::boundary(ml.clone(), affi_ty.clone()),
                ))),
            ),
        );
        assert_eq!(
            affi_ty.rendered_chars(),
            affi_ty.to_string().chars().count()
        );
        assert_eq!(ml_ty.rendered_chars(), ml_ty.to_string().chars().count());
        assert_eq!(ml.rendered_chars(), ml.to_string().chars().count(), "{ml}");
        assert_eq!(
            affi.rendered_chars(),
            affi.to_string().chars().count(),
            "{affi}"
        );
    }

    #[test]
    fn boundaries_nest_between_the_two_languages() {
        let e = MlExpr::boundary(
            AffiExpr::app(
                AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
                AffiExpr::boundary(MlExpr::int(3), AffiType::Int),
            ),
            MlType::Int,
        );
        let s = e.to_string();
        assert!(s.contains("⦇") && s.contains("a◦"));
    }

    #[test]
    fn modes_distinguish_variables_and_lambdas() {
        assert_ne!(AffiExpr::avar("a"), AffiExpr::avar_static("a"));
        assert_ne!(
            AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
            AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a"))
        );
    }
}
