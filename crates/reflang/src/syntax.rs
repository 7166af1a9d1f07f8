//! Syntax of RefHL and RefLL (Fig. 1).
//!
//! The two languages are mutually recursive through their boundary forms:
//! a RefHL term can embed a RefLL term (`⦇ē⦈τ`) and vice versa (`⦇e⦈𝜏`), which
//! is why both ASTs live in one crate.

use semint_core::Var;
use std::fmt;

/// RefHL types `τ ::= unit | bool | τ+τ | τ×τ | τ→τ | ref τ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HlType {
    /// `unit`.
    Unit,
    /// `bool`.
    Bool,
    /// Sum `τ1 + τ2`.
    Sum(Box<HlType>, Box<HlType>),
    /// Product `τ1 × τ2`.
    Prod(Box<HlType>, Box<HlType>),
    /// Function `τ1 → τ2`.
    Fun(Box<HlType>, Box<HlType>),
    /// Reference `ref τ`.
    Ref(Box<HlType>),
}

impl HlType {
    /// `τ1 + τ2`.
    pub fn sum(a: HlType, b: HlType) -> HlType {
        HlType::Sum(Box::new(a), Box::new(b))
    }

    /// `τ1 × τ2`.
    pub fn prod(a: HlType, b: HlType) -> HlType {
        HlType::Prod(Box::new(a), Box::new(b))
    }

    /// `τ1 → τ2`.
    pub fn fun(a: HlType, b: HlType) -> HlType {
        HlType::Fun(Box::new(a), Box::new(b))
    }

    /// `ref τ`.
    pub fn ref_(a: HlType) -> HlType {
        HlType::Ref(Box::new(a))
    }
}

impl fmt::Display for HlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlType::Unit => write!(f, "unit"),
            HlType::Bool => write!(f, "bool"),
            HlType::Sum(a, b) => write!(f, "({a} + {b})"),
            HlType::Prod(a, b) => write!(f, "({a} × {b})"),
            HlType::Fun(a, b) => write!(f, "({a} → {b})"),
            HlType::Ref(a) => write!(f, "ref {a}"),
        }
    }
}

/// RefLL types `𝜏 ::= int | [𝜏] | 𝜏→𝜏 | ref 𝜏`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LlType {
    /// `int`.
    Int,
    /// Array `[𝜏]`.
    Array(Box<LlType>),
    /// Function `𝜏1 → 𝜏2`.
    Fun(Box<LlType>, Box<LlType>),
    /// Reference `ref 𝜏`.
    Ref(Box<LlType>),
}

impl LlType {
    /// `[𝜏]`.
    pub fn array(a: LlType) -> LlType {
        LlType::Array(Box::new(a))
    }

    /// `𝜏1 → 𝜏2`.
    pub fn fun(a: LlType, b: LlType) -> LlType {
        LlType::Fun(Box::new(a), Box::new(b))
    }

    /// `ref 𝜏`.
    pub fn ref_(a: LlType) -> LlType {
        LlType::Ref(Box::new(a))
    }
}

impl fmt::Display for LlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlType::Int => write!(f, "int"),
            LlType::Array(a) => write!(f, "[{a}]"),
            LlType::Fun(a, b) => write!(f, "({a} → {b})"),
            LlType::Ref(a) => write!(f, "ref {a}"),
        }
    }
}

/// RefHL expressions (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub enum HlExpr {
    /// `()`.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// A variable.
    Var(Var),
    /// `inl e` annotated with the full sum type it constructs.
    Inl(Box<HlExpr>, HlType),
    /// `inr e` annotated with the full sum type it constructs.
    Inr(Box<HlExpr>, HlType),
    /// `(e1, e2)`.
    Pair(Box<HlExpr>, Box<HlExpr>),
    /// `fst e`.
    Fst(Box<HlExpr>),
    /// `snd e`.
    Snd(Box<HlExpr>),
    /// `if e then e1 else e2`.
    If(Box<HlExpr>, Box<HlExpr>, Box<HlExpr>),
    /// `match e x {e1} y {e2}`.
    Match(Box<HlExpr>, Var, Box<HlExpr>, Var, Box<HlExpr>),
    /// `λx:τ. e`.
    Lam(Var, HlType, Box<HlExpr>),
    /// Application `e1 e2`.
    App(Box<HlExpr>, Box<HlExpr>),
    /// `ref e`.
    Ref(Box<HlExpr>),
    /// `!e`.
    Deref(Box<HlExpr>),
    /// `e1 := e2`.
    Assign(Box<HlExpr>, Box<HlExpr>),
    /// Boundary `⦇ē⦈τ`: a RefLL term used at RefHL type `τ`.
    Boundary(Box<LlExpr>, HlType),
}

impl HlExpr {
    /// `()`.
    pub fn unit() -> HlExpr {
        HlExpr::Unit
    }

    /// A boolean literal.
    pub fn bool_(b: bool) -> HlExpr {
        HlExpr::Bool(b)
    }

    /// A variable.
    pub fn var(x: impl Into<Var>) -> HlExpr {
        HlExpr::Var(x.into())
    }

    /// `inl e : ty` (where `ty` is the full sum type).
    pub fn inl(e: HlExpr, ty: HlType) -> HlExpr {
        HlExpr::Inl(Box::new(e), ty)
    }

    /// `inr e : ty` (where `ty` is the full sum type).
    pub fn inr(e: HlExpr, ty: HlType) -> HlExpr {
        HlExpr::Inr(Box::new(e), ty)
    }

    /// `(e1, e2)`.
    pub fn pair(a: HlExpr, b: HlExpr) -> HlExpr {
        HlExpr::Pair(Box::new(a), Box::new(b))
    }

    /// `fst e`.
    pub fn fst(e: HlExpr) -> HlExpr {
        HlExpr::Fst(Box::new(e))
    }

    /// `snd e`.
    pub fn snd(e: HlExpr) -> HlExpr {
        HlExpr::Snd(Box::new(e))
    }

    /// `if c then t else f`.
    pub fn if_(c: HlExpr, t: HlExpr, f: HlExpr) -> HlExpr {
        HlExpr::If(Box::new(c), Box::new(t), Box::new(f))
    }

    /// `match e x {l} y {r}`.
    pub fn match_(e: HlExpr, x: impl Into<Var>, l: HlExpr, y: impl Into<Var>, r: HlExpr) -> HlExpr {
        HlExpr::Match(Box::new(e), x.into(), Box::new(l), y.into(), Box::new(r))
    }

    /// `λx:τ. body`.
    pub fn lam(x: impl Into<Var>, ty: HlType, body: HlExpr) -> HlExpr {
        HlExpr::Lam(x.into(), ty, Box::new(body))
    }

    /// `e1 e2`.
    pub fn app(f: HlExpr, a: HlExpr) -> HlExpr {
        HlExpr::App(Box::new(f), Box::new(a))
    }

    /// `ref e`.
    pub fn ref_(e: HlExpr) -> HlExpr {
        HlExpr::Ref(Box::new(e))
    }

    /// `!e`.
    pub fn deref(e: HlExpr) -> HlExpr {
        HlExpr::Deref(Box::new(e))
    }

    /// `e1 := e2`.
    pub fn assign(a: HlExpr, b: HlExpr) -> HlExpr {
        HlExpr::Assign(Box::new(a), Box::new(b))
    }

    /// `⦇ē⦈τ`: embed a RefLL term at RefHL type `ty`.
    pub fn boundary(e: LlExpr, ty: HlType) -> HlExpr {
        HlExpr::Boundary(Box::new(e), ty)
    }

    /// Number of syntactic language boundaries `⦇·⦈`, counted structurally
    /// (one tree walk, no rendering) across both embedded languages.
    pub fn boundary_count(&self) -> usize {
        match self {
            HlExpr::Unit | HlExpr::Bool(_) | HlExpr::Var(_) => 0,
            HlExpr::Inl(e, _)
            | HlExpr::Inr(e, _)
            | HlExpr::Fst(e)
            | HlExpr::Snd(e)
            | HlExpr::Ref(e)
            | HlExpr::Deref(e)
            | HlExpr::Lam(_, _, e) => e.boundary_count(),
            HlExpr::Pair(a, b) | HlExpr::App(a, b) | HlExpr::Assign(a, b) => {
                a.boundary_count() + b.boundary_count()
            }
            HlExpr::If(a, b, c) => a.boundary_count() + b.boundary_count() + c.boundary_count(),
            HlExpr::Match(s, _, l, _, r) => {
                s.boundary_count() + l.boundary_count() + r.boundary_count()
            }
            HlExpr::Boundary(e, _) => 1 + e.boundary_count(),
        }
    }
}

/// RefLL expressions (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub enum LlExpr {
    /// An integer literal.
    Int(i64),
    /// A variable.
    Var(Var),
    /// An array literal `[ē, …]` annotated with its element type.
    Array(Vec<LlExpr>, LlType),
    /// Indexing `ē1[ē2]`.
    Index(Box<LlExpr>, Box<LlExpr>),
    /// `λx:𝜏. ē`.
    Lam(Var, LlType, Box<LlExpr>),
    /// Application `ē1 ē2`.
    App(Box<LlExpr>, Box<LlExpr>),
    /// Addition `ē1 + ē2`.
    Add(Box<LlExpr>, Box<LlExpr>),
    /// `if0 ē ē1 ē2`.
    If0(Box<LlExpr>, Box<LlExpr>, Box<LlExpr>),
    /// `ref ē`.
    Ref(Box<LlExpr>),
    /// `!ē`.
    Deref(Box<LlExpr>),
    /// `ē1 := ē2`.
    Assign(Box<LlExpr>, Box<LlExpr>),
    /// Boundary `⦇e⦈𝜏`: a RefHL term used at RefLL type `𝜏`.
    Boundary(Box<HlExpr>, LlType),
}

impl LlExpr {
    /// An integer literal.
    pub fn int(n: i64) -> LlExpr {
        LlExpr::Int(n)
    }

    /// A variable.
    pub fn var(x: impl Into<Var>) -> LlExpr {
        LlExpr::Var(x.into())
    }

    /// An array literal with element type `elem`.
    pub fn array(es: impl IntoIterator<Item = LlExpr>, elem: LlType) -> LlExpr {
        LlExpr::Array(es.into_iter().collect(), elem)
    }

    /// `ē1[ē2]`.
    pub fn index(a: LlExpr, i: LlExpr) -> LlExpr {
        LlExpr::Index(Box::new(a), Box::new(i))
    }

    /// `λx:𝜏. body`.
    pub fn lam(x: impl Into<Var>, ty: LlType, body: LlExpr) -> LlExpr {
        LlExpr::Lam(x.into(), ty, Box::new(body))
    }

    /// `ē1 ē2`.
    pub fn app(f: LlExpr, a: LlExpr) -> LlExpr {
        LlExpr::App(Box::new(f), Box::new(a))
    }

    /// `ē1 + ē2`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: LlExpr, b: LlExpr) -> LlExpr {
        LlExpr::Add(Box::new(a), Box::new(b))
    }

    /// `if0 c t f`.
    pub fn if0(c: LlExpr, t: LlExpr, f: LlExpr) -> LlExpr {
        LlExpr::If0(Box::new(c), Box::new(t), Box::new(f))
    }

    /// `ref ē`.
    pub fn ref_(e: LlExpr) -> LlExpr {
        LlExpr::Ref(Box::new(e))
    }

    /// `!ē`.
    pub fn deref(e: LlExpr) -> LlExpr {
        LlExpr::Deref(Box::new(e))
    }

    /// `ē1 := ē2`.
    pub fn assign(a: LlExpr, b: LlExpr) -> LlExpr {
        LlExpr::Assign(Box::new(a), Box::new(b))
    }

    /// `⦇e⦈𝜏`: embed a RefHL term at RefLL type `ty`.
    pub fn boundary(e: HlExpr, ty: LlType) -> LlExpr {
        LlExpr::Boundary(Box::new(e), ty)
    }

    /// Number of syntactic language boundaries `⦇·⦈`, counted structurally
    /// (one tree walk, no rendering) across both embedded languages.
    pub fn boundary_count(&self) -> usize {
        match self {
            LlExpr::Int(_) | LlExpr::Var(_) => 0,
            LlExpr::Array(es, _) => es.iter().map(LlExpr::boundary_count).sum(),
            LlExpr::Index(a, b) | LlExpr::App(a, b) | LlExpr::Add(a, b) | LlExpr::Assign(a, b) => {
                a.boundary_count() + b.boundary_count()
            }
            LlExpr::Lam(_, _, b) => b.boundary_count(),
            LlExpr::If0(a, b, c) => a.boundary_count() + b.boundary_count() + c.boundary_count(),
            LlExpr::Ref(e) | LlExpr::Deref(e) => e.boundary_count(),
            LlExpr::Boundary(e, _) => 1 + e.boundary_count(),
        }
    }
}

impl fmt::Display for HlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlExpr::Unit => write!(f, "()"),
            HlExpr::Bool(b) => write!(f, "{b}"),
            HlExpr::Var(x) => write!(f, "{x}"),
            HlExpr::Inl(e, _) => write!(f, "inl {e}"),
            HlExpr::Inr(e, _) => write!(f, "inr {e}"),
            HlExpr::Pair(a, b) => write!(f, "({a}, {b})"),
            HlExpr::Fst(e) => write!(f, "fst {e}"),
            HlExpr::Snd(e) => write!(f, "snd {e}"),
            HlExpr::If(c, t, e) => write!(f, "if {c} {t} {e}"),
            HlExpr::Match(s, x, l, y, r) => write!(f, "match {s} {x}{{{l}}} {y}{{{r}}}"),
            HlExpr::Lam(x, ty, b) => write!(f, "λ{x}:{ty}. {b}"),
            HlExpr::App(a, b) => write!(f, "({a}) ({b})"),
            HlExpr::Ref(e) => write!(f, "ref {e}"),
            HlExpr::Deref(e) => write!(f, "!{e}"),
            HlExpr::Assign(a, b) => write!(f, "{a} := {b}"),
            HlExpr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

impl fmt::Display for LlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlExpr::Int(n) => write!(f, "{n}"),
            LlExpr::Var(x) => write!(f, "{x}"),
            LlExpr::Array(es, _) => {
                write!(f, "[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            LlExpr::Index(a, i) => write!(f, "{a}[{i}]"),
            LlExpr::Lam(x, ty, b) => write!(f, "λ{x}:{ty}. {b}"),
            LlExpr::App(a, b) => write!(f, "({a}) ({b})"),
            LlExpr::Add(a, b) => write!(f, "({a} + {b})"),
            LlExpr::If0(c, t, e) => write!(f, "if0 {c} {t} {e}"),
            LlExpr::Ref(e) => write!(f, "ref {e}"),
            LlExpr::Deref(e) => write!(f, "!{e}"),
            LlExpr::Assign(a, b) => write!(f, "{a} := {b}"),
            LlExpr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_constructors_and_display() {
        let t = HlType::fun(
            HlType::sum(HlType::Bool, HlType::Unit),
            HlType::ref_(HlType::Bool),
        );
        assert_eq!(t.to_string(), "((bool + unit) → ref bool)");
        let u = LlType::fun(LlType::array(LlType::Int), LlType::ref_(LlType::Int));
        assert_eq!(u.to_string(), "([int] → ref int)");
    }

    #[test]
    fn boundaries_nest_across_languages() {
        // ⦇ ⦇ true ⦈int + 1 ⦈bool : a RefHL bool containing RefLL code that
        // itself embeds a RefHL bool.
        let inner = LlExpr::add(
            LlExpr::boundary(HlExpr::bool_(true), LlType::Int),
            LlExpr::int(1),
        );
        let outer = HlExpr::boundary(inner, HlType::Bool);
        assert!(outer.to_string().contains("⦇"));
        // The structural counter agrees with the rendered half-brackets.
        assert_eq!(outer.boundary_count(), 2);
        assert_eq!(
            outer.boundary_count(),
            outer.to_string().matches('⦇').count()
        );
    }
}
