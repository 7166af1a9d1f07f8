//! Syntax of the §5 languages: MiniML with polymorphism and foreign types
//! (here called `Poly*` to distinguish it from the §4 instance) and core L3
//! (Fig. 11), augmented with boundary and foreign-embedding forms.
//!
//! Types and expressions are immutable trees whose children sit behind
//! [`Arc`], so cloning any of them copies one node and bumps reference
//! counts: generator annotations, typing contexts, glue-cache keys and
//! shrink candidates share their subtrees instead of copying them.

use semint_core::{Size, Var};
use std::fmt;
use std::sync::Arc;

/// A type variable `α` (MiniML) — plain names.
pub type TyVar = Var;

/// A location variable `ζ` (L3).
pub type LocVar = Var;

/// MiniML types (§5 instance): `unit | int | τ×τ | τ+τ | τ→τ | ∀α.τ | α |
/// ref τ | ⟨𝜏⟩`.
///
/// Children sit behind [`Arc`]: a clone copies one node and shares its
/// subtrees, while equality, hashing and rendering stay structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PolyType {
    /// `unit`.
    Unit,
    /// `int`.
    Int,
    /// `τ1 × τ2`.
    Prod(Arc<PolyType>, Arc<PolyType>),
    /// `τ1 + τ2`.
    Sum(Arc<PolyType>, Arc<PolyType>),
    /// `τ1 → τ2`.
    Fun(Arc<PolyType>, Arc<PolyType>),
    /// `∀α. τ`.
    Forall(TyVar, Arc<PolyType>),
    /// A type variable `α`.
    Var(TyVar),
    /// `ref τ` (garbage collected).
    Ref(Arc<PolyType>),
    /// A foreign type `⟨𝜏⟩` embedding an L3 type opaquely.
    Foreign(Arc<L3Type>),
}

impl PolyType {
    /// `τ1 × τ2`.
    pub fn prod(a: PolyType, b: PolyType) -> PolyType {
        PolyType::Prod(Arc::new(a), Arc::new(b))
    }
    /// `τ1 + τ2`.
    pub fn sum(a: PolyType, b: PolyType) -> PolyType {
        PolyType::Sum(Arc::new(a), Arc::new(b))
    }
    /// `τ1 → τ2`.
    pub fn fun(a: PolyType, b: PolyType) -> PolyType {
        PolyType::Fun(Arc::new(a), Arc::new(b))
    }
    /// `∀α. τ`.
    pub fn forall(a: impl Into<TyVar>, t: PolyType) -> PolyType {
        PolyType::Forall(a.into(), Arc::new(t))
    }
    /// The type variable `α`.
    pub fn tvar(a: impl Into<TyVar>) -> PolyType {
        PolyType::Var(a.into())
    }
    /// `ref τ`.
    pub fn ref_(t: PolyType) -> PolyType {
        PolyType::Ref(Arc::new(t))
    }
    /// `⟨𝜏⟩`.
    pub fn foreign(t: L3Type) -> PolyType {
        PolyType::Foreign(Arc::new(t))
    }
    /// The Church-boolean type `∀α. α → α → α` used in the paper's example (2).
    pub fn church_bool() -> PolyType {
        PolyType::forall(
            "α",
            PolyType::fun(
                PolyType::tvar("α"),
                PolyType::fun(PolyType::tvar("α"), PolyType::tvar("α")),
            ),
        )
    }

    /// Capture-avoiding substitution of `target` for type variable `a`.
    ///
    /// The workspace's generated binders are all distinct, so the
    /// implementation only skips shadowing binders (no renaming is needed).
    pub fn subst(&self, a: &TyVar, target: &PolyType) -> PolyType {
        match self {
            PolyType::Unit | PolyType::Int => self.clone(),
            PolyType::Var(b) => {
                if b == a {
                    target.clone()
                } else {
                    self.clone()
                }
            }
            PolyType::Prod(x, y) => PolyType::prod(x.subst(a, target), y.subst(a, target)),
            PolyType::Sum(x, y) => PolyType::sum(x.subst(a, target), y.subst(a, target)),
            PolyType::Fun(x, y) => PolyType::fun(x.subst(a, target), y.subst(a, target)),
            PolyType::Forall(b, body) => {
                if b == a {
                    self.clone()
                } else {
                    PolyType::Forall(b.clone(), Arc::new(body.subst(a, target)))
                }
            }
            PolyType::Ref(t) => PolyType::ref_(t.subst(a, target)),
            PolyType::Foreign(t) => PolyType::Foreign(t.clone()),
        }
    }
}

impl fmt::Display for PolyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyType::Unit => write!(f, "unit"),
            PolyType::Int => write!(f, "int"),
            PolyType::Prod(a, b) => write!(f, "({a} × {b})"),
            PolyType::Sum(a, b) => write!(f, "({a} + {b})"),
            PolyType::Fun(a, b) => write!(f, "({a} → {b})"),
            PolyType::Forall(a, t) => write!(f, "∀{a}. {t}"),
            PolyType::Var(a) => write!(f, "{a}"),
            PolyType::Ref(t) => write!(f, "ref {t}"),
            PolyType::Foreign(t) => write!(f, "⟨{t}⟩"),
        }
    }
}

impl PolyType {
    /// The length of this type's rendering in characters, counted arm for
    /// arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            PolyType::Unit => 4,
            PolyType::Int => 3,
            PolyType::Prod(a, b) | PolyType::Sum(a, b) | PolyType::Fun(a, b) => {
                5 + a.rendered_chars() + b.rendered_chars()
            }
            PolyType::Forall(a, t) => 3 + a.rendered_chars() + t.rendered_chars(),
            PolyType::Var(a) => a.rendered_chars(),
            PolyType::Ref(t) => 4 + t.rendered_chars(),
            PolyType::Foreign(t) => 2 + t.rendered_chars(),
        }
    }
}

/// L3 types (Fig. 11): `unit | bool | 𝜏⊗𝜏 | 𝜏⊸𝜏 | !𝜏 | ptr ζ | cap ζ 𝜏 |
/// ∀ζ.𝜏 | ∃ζ.𝜏`.
///
/// Children sit behind [`Arc`]: a clone copies one node and shares its
/// subtrees, while equality, hashing and rendering stay structural.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum L3Type {
    /// `unit`.
    Unit,
    /// `bool`.
    Bool,
    /// `𝜏1 ⊗ 𝜏2`.
    Tensor(Arc<L3Type>, Arc<L3Type>),
    /// `𝜏1 ⊸ 𝜏2`.
    Lolli(Arc<L3Type>, Arc<L3Type>),
    /// `!𝜏`.
    Bang(Arc<L3Type>),
    /// `ptr ζ` — an aliasable pointer to the abstract location `ζ`.
    Ptr(LocVar),
    /// `cap ζ 𝜏` — the unique capability to access `ζ`, currently holding a 𝜏.
    Cap(LocVar, Arc<L3Type>),
    /// `∀ζ. 𝜏`.
    ForallLoc(LocVar, Arc<L3Type>),
    /// `∃ζ. 𝜏`.
    ExistsLoc(LocVar, Arc<L3Type>),
}

impl L3Type {
    /// `𝜏1 ⊗ 𝜏2`.
    pub fn tensor(a: L3Type, b: L3Type) -> L3Type {
        L3Type::Tensor(Arc::new(a), Arc::new(b))
    }
    /// `𝜏1 ⊸ 𝜏2`.
    pub fn lolli(a: L3Type, b: L3Type) -> L3Type {
        L3Type::Lolli(Arc::new(a), Arc::new(b))
    }
    /// `!𝜏`.
    pub fn bang(a: L3Type) -> L3Type {
        L3Type::Bang(Arc::new(a))
    }
    /// `ptr ζ`.
    pub fn ptr(z: impl Into<LocVar>) -> L3Type {
        L3Type::Ptr(z.into())
    }
    /// `cap ζ 𝜏`.
    pub fn cap(z: impl Into<LocVar>, t: L3Type) -> L3Type {
        L3Type::Cap(z.into(), Arc::new(t))
    }
    /// `∀ζ. 𝜏`.
    pub fn forall_loc(z: impl Into<LocVar>, t: L3Type) -> L3Type {
        L3Type::ForallLoc(z.into(), Arc::new(t))
    }
    /// `∃ζ. 𝜏`.
    pub fn exists_loc(z: impl Into<LocVar>, t: L3Type) -> L3Type {
        L3Type::ExistsLoc(z.into(), Arc::new(t))
    }
    /// The `REF 𝜏` abbreviation from §5: `∃ζ. cap ζ 𝜏 ⊗ !ptr ζ`.
    pub fn ref_like(t: L3Type) -> L3Type {
        L3Type::exists_loc(
            "ζ",
            L3Type::tensor(L3Type::cap("ζ", t), L3Type::bang(L3Type::ptr("ζ"))),
        )
    }

    /// Is this type in the `Duplicable` set (§5): `unit`, `bool`, `ptr ζ` and
    /// `!𝜏`?  Only these may be embedded as foreign types `⟨𝜏⟩`.
    pub fn is_duplicable(&self) -> bool {
        matches!(
            self,
            L3Type::Unit | L3Type::Bool | L3Type::Ptr(_) | L3Type::Bang(_)
        )
    }

    /// Substitutes the location variable `z` with another location variable
    /// (location polymorphism is name-to-name at the type level here, since
    /// the compiler erases locations).
    pub fn subst_loc(&self, z: &LocVar, target: &LocVar) -> L3Type {
        match self {
            L3Type::Unit | L3Type::Bool => self.clone(),
            L3Type::Tensor(a, b) => L3Type::tensor(a.subst_loc(z, target), b.subst_loc(z, target)),
            L3Type::Lolli(a, b) => L3Type::lolli(a.subst_loc(z, target), b.subst_loc(z, target)),
            L3Type::Bang(a) => L3Type::bang(a.subst_loc(z, target)),
            L3Type::Ptr(w) => L3Type::Ptr(if w == z { target.clone() } else { w.clone() }),
            L3Type::Cap(w, t) => L3Type::Cap(
                if w == z { target.clone() } else { w.clone() },
                Arc::new(t.subst_loc(z, target)),
            ),
            L3Type::ForallLoc(w, t) | L3Type::ExistsLoc(w, t) => {
                let rebuild = |inner: Arc<L3Type>| match self {
                    L3Type::ForallLoc(_, _) => L3Type::ForallLoc(w.clone(), inner),
                    _ => L3Type::ExistsLoc(w.clone(), inner),
                };
                if w == z {
                    self.clone()
                } else {
                    rebuild(Arc::new(t.subst_loc(z, target)))
                }
            }
        }
    }
}

impl fmt::Display for L3Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            L3Type::Unit => write!(f, "unit"),
            L3Type::Bool => write!(f, "bool"),
            L3Type::Tensor(a, b) => write!(f, "({a} ⊗ {b})"),
            L3Type::Lolli(a, b) => write!(f, "({a} ⊸ {b})"),
            L3Type::Bang(a) => write!(f, "!{a}"),
            L3Type::Ptr(z) => write!(f, "ptr {z}"),
            L3Type::Cap(z, t) => write!(f, "cap {z} {t}"),
            L3Type::ForallLoc(z, t) => write!(f, "∀{z}. {t}"),
            L3Type::ExistsLoc(z, t) => write!(f, "∃{z}. {t}"),
        }
    }
}

impl L3Type {
    /// The length of this type's rendering in characters, counted arm for
    /// arm beside [`fmt::Display`] without formatting anything.
    pub fn rendered_chars(&self) -> usize {
        match self {
            L3Type::Unit | L3Type::Bool => 4,
            L3Type::Tensor(a, b) | L3Type::Lolli(a, b) => {
                5 + a.rendered_chars() + b.rendered_chars()
            }
            L3Type::Bang(a) => 1 + a.rendered_chars(),
            L3Type::Ptr(z) => 4 + z.rendered_chars(),
            L3Type::Cap(z, t) => 5 + z.rendered_chars() + t.rendered_chars(),
            L3Type::ForallLoc(z, t) | L3Type::ExistsLoc(z, t) => {
                3 + z.rendered_chars() + t.rendered_chars()
            }
        }
    }
}

/// MiniML (§5) expressions.
///
/// Children sit behind [`Arc`], as in the types: a clone copies one node and
/// shares its subtrees, so a shrink candidate is a pointer copy, while
/// equality and rendering stay structural.
#[derive(Debug, Clone, PartialEq)]
pub enum PolyExpr {
    /// `()`.
    Unit,
    /// An integer literal.
    Int(i64),
    /// A variable.
    Var(Var),
    /// `(e1, e2)`.
    Pair(Arc<PolyExpr>, Arc<PolyExpr>),
    /// `fst e`.
    Fst(Arc<PolyExpr>),
    /// `snd e`.
    Snd(Arc<PolyExpr>),
    /// `inl e` at the annotated sum type.
    Inl(Arc<PolyExpr>, PolyType),
    /// `inr e` at the annotated sum type.
    Inr(Arc<PolyExpr>, PolyType),
    /// `match e x {e1} y {e2}`.
    Match(Arc<PolyExpr>, Var, Arc<PolyExpr>, Var, Arc<PolyExpr>),
    /// `λx:τ. e`.
    Lam(Var, PolyType, Arc<PolyExpr>),
    /// `e1 e2`.
    App(Arc<PolyExpr>, Arc<PolyExpr>),
    /// `Λα. e`.
    TyLam(TyVar, Arc<PolyExpr>),
    /// `e [τ]`.
    TyApp(Arc<PolyExpr>, PolyType),
    /// `ref e`.
    Ref(Arc<PolyExpr>),
    /// `!e`.
    Deref(Arc<PolyExpr>),
    /// `e1 := e2`.
    Assign(Arc<PolyExpr>, Arc<PolyExpr>),
    /// `e1 + e2`.
    Add(Arc<PolyExpr>, Arc<PolyExpr>),
    /// Boundary `⦇ē⦈τ`: an L3 term used at MiniML type `τ`.
    Boundary(Arc<L3Expr>, PolyType),
}

impl PolyExpr {
    /// `()`.
    pub fn unit() -> Self {
        PolyExpr::Unit
    }
    /// An integer literal.
    pub fn int(n: i64) -> Self {
        PolyExpr::Int(n)
    }
    /// A variable.
    pub fn var(x: impl Into<Var>) -> Self {
        PolyExpr::Var(x.into())
    }
    /// `(a, b)`.
    pub fn pair(a: Self, b: Self) -> Self {
        PolyExpr::Pair(Arc::new(a), Arc::new(b))
    }
    /// `fst e`.
    pub fn fst(e: Self) -> Self {
        PolyExpr::Fst(Arc::new(e))
    }
    /// `snd e`.
    pub fn snd(e: Self) -> Self {
        PolyExpr::Snd(Arc::new(e))
    }
    /// `inl e` at `ty`.
    pub fn inl(e: Self, ty: PolyType) -> Self {
        PolyExpr::Inl(Arc::new(e), ty)
    }
    /// `inr e` at `ty`.
    pub fn inr(e: Self, ty: PolyType) -> Self {
        PolyExpr::Inr(Arc::new(e), ty)
    }
    /// `match e x {l} y {r}`.
    pub fn match_(e: Self, x: impl Into<Var>, l: Self, y: impl Into<Var>, r: Self) -> Self {
        PolyExpr::Match(Arc::new(e), x.into(), Arc::new(l), y.into(), Arc::new(r))
    }
    /// `λx:τ. body`.
    pub fn lam(x: impl Into<Var>, ty: PolyType, body: Self) -> Self {
        PolyExpr::Lam(x.into(), ty, Arc::new(body))
    }
    /// `f a`.
    pub fn app(f: Self, a: Self) -> Self {
        PolyExpr::App(Arc::new(f), Arc::new(a))
    }
    /// `Λα. body`.
    pub fn tylam(a: impl Into<TyVar>, body: Self) -> Self {
        PolyExpr::TyLam(a.into(), Arc::new(body))
    }
    /// `e [τ]`.
    pub fn tyapp(e: Self, ty: PolyType) -> Self {
        PolyExpr::TyApp(Arc::new(e), ty)
    }
    /// `ref e`.
    pub fn ref_(e: Self) -> Self {
        PolyExpr::Ref(Arc::new(e))
    }
    /// `!e`.
    pub fn deref(e: Self) -> Self {
        PolyExpr::Deref(Arc::new(e))
    }
    /// `a := b`.
    pub fn assign(a: Self, b: Self) -> Self {
        PolyExpr::Assign(Arc::new(a), Arc::new(b))
    }
    /// `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Self, b: Self) -> Self {
        PolyExpr::Add(Arc::new(a), Arc::new(b))
    }
    /// `⦇ē⦈τ`.
    pub fn boundary(e: L3Expr, ty: PolyType) -> Self {
        PolyExpr::Boundary(Arc::new(e), ty)
    }
}

/// L3 expressions (Fig. 11, plus the boundary `⦇e⦈𝜏`).
///
/// Children sit behind [`Arc`], as in the types: a clone copies one node and
/// shares its subtrees, so a shrink candidate is a pointer copy, while
/// equality and rendering stay structural.
#[derive(Debug, Clone, PartialEq)]
pub enum L3Expr {
    /// `()`.
    Unit,
    /// `true` / `false`.
    Bool(bool),
    /// A variable (linear unless introduced by `let !x`).
    Var(Var),
    /// An unrestricted variable introduced by `let !x = …`.
    UVar(Var),
    /// `λx:𝜏. e`.
    Lam(Var, L3Type, Arc<L3Expr>),
    /// `e1 e2`.
    App(Arc<L3Expr>, Arc<L3Expr>),
    /// `(e1, e2)`.
    Pair(Arc<L3Expr>, Arc<L3Expr>),
    /// `let (x1, x2) = e1 in e2`.
    LetPair(Var, Var, Arc<L3Expr>, Arc<L3Expr>),
    /// `let () = e1 in e2`.
    LetUnit(Arc<L3Expr>, Arc<L3Expr>),
    /// `if e e1 e2`.
    If(Arc<L3Expr>, Arc<L3Expr>, Arc<L3Expr>),
    /// `!v` — exponential introduction.
    Bang(Arc<L3Expr>),
    /// `let !x = e1 in e2`.
    LetBang(Var, Arc<L3Expr>, Arc<L3Expr>),
    /// `dupl e` — duplicate a `!`-value (`!𝜏 ⊸ !𝜏 ⊗ !𝜏`).
    Dupl(Arc<L3Expr>),
    /// `drop e` — discard a `!`-value.
    Drop(Arc<L3Expr>),
    /// `new e` — allocate, returning `∃ζ. cap ζ 𝜏 ⊗ !ptr ζ`.
    New(Arc<L3Expr>),
    /// `free e` — deallocate a capability/pointer package, returning the
    /// stored value.
    Free(Arc<L3Expr>),
    /// `swap ec ep ev` — strong update: returns `cap ζ 𝜏2 ⊗ 𝜏1`.
    Swap(Arc<L3Expr>, Arc<L3Expr>, Arc<L3Expr>),
    /// `Λζ. e`.
    LocLam(LocVar, Arc<L3Expr>),
    /// `e [ζ]`.
    LocApp(Arc<L3Expr>, LocVar),
    /// `⌜ζ, e⌝` — pack.
    Pack(LocVar, Arc<L3Expr>, L3Type),
    /// `let ⌜ζ, x⌝ = e1 in e2` — unpack.
    Unpack(LocVar, Var, Arc<L3Expr>, Arc<L3Expr>),
    /// Boundary `⦇e⦈𝜏`: a MiniML term used at L3 type `𝜏`.
    Boundary(Arc<PolyExpr>, L3Type),
}

impl L3Expr {
    /// `()`.
    pub fn unit() -> Self {
        L3Expr::Unit
    }
    /// A boolean literal.
    pub fn bool_(b: bool) -> Self {
        L3Expr::Bool(b)
    }
    /// A linear variable.
    pub fn var(x: impl Into<Var>) -> Self {
        L3Expr::Var(x.into())
    }
    /// An unrestricted variable.
    pub fn uvar(x: impl Into<Var>) -> Self {
        L3Expr::UVar(x.into())
    }
    /// `λx:𝜏. body`.
    pub fn lam(x: impl Into<Var>, ty: L3Type, body: Self) -> Self {
        L3Expr::Lam(x.into(), ty, Arc::new(body))
    }
    /// `f a`.
    pub fn app(f: Self, a: Self) -> Self {
        L3Expr::App(Arc::new(f), Arc::new(a))
    }
    /// `(a, b)`.
    pub fn pair(a: Self, b: Self) -> Self {
        L3Expr::Pair(Arc::new(a), Arc::new(b))
    }
    /// `let (x, y) = e in body`.
    pub fn let_pair(x: impl Into<Var>, y: impl Into<Var>, e: Self, body: Self) -> Self {
        L3Expr::LetPair(x.into(), y.into(), Arc::new(e), Arc::new(body))
    }
    /// `let () = e in body`.
    pub fn let_unit(e: Self, body: Self) -> Self {
        L3Expr::LetUnit(Arc::new(e), Arc::new(body))
    }
    /// `if c t f`.
    pub fn if_(c: Self, t: Self, f: Self) -> Self {
        L3Expr::If(Arc::new(c), Arc::new(t), Arc::new(f))
    }
    /// `!e`.
    pub fn bang(e: Self) -> Self {
        L3Expr::Bang(Arc::new(e))
    }
    /// `let !x = e in body`.
    pub fn let_bang(x: impl Into<Var>, e: Self, body: Self) -> Self {
        L3Expr::LetBang(x.into(), Arc::new(e), Arc::new(body))
    }
    /// `dupl e`.
    pub fn dupl(e: Self) -> Self {
        L3Expr::Dupl(Arc::new(e))
    }
    /// `drop e`.
    pub fn drop_(e: Self) -> Self {
        L3Expr::Drop(Arc::new(e))
    }
    /// `new e`.
    pub fn new(e: Self) -> Self {
        L3Expr::New(Arc::new(e))
    }
    /// `free e`.
    pub fn free(e: Self) -> Self {
        L3Expr::Free(Arc::new(e))
    }
    /// `swap cap ptr value`.
    pub fn swap(cap: Self, ptr: Self, value: Self) -> Self {
        L3Expr::Swap(Arc::new(cap), Arc::new(ptr), Arc::new(value))
    }
    /// `Λζ. body`.
    pub fn loclam(z: impl Into<LocVar>, body: Self) -> Self {
        L3Expr::LocLam(z.into(), Arc::new(body))
    }
    /// `e [ζ]`.
    pub fn locapp(e: Self, z: impl Into<LocVar>) -> Self {
        L3Expr::LocApp(Arc::new(e), z.into())
    }
    /// `⌜ζ, e⌝ : ty` (the annotation is the existential type constructed).
    pub fn pack(z: impl Into<LocVar>, e: Self, ty: L3Type) -> Self {
        L3Expr::Pack(z.into(), Arc::new(e), ty)
    }
    /// `let ⌜ζ, x⌝ = e in body`.
    pub fn unpack(z: impl Into<LocVar>, x: impl Into<Var>, e: Self, body: Self) -> Self {
        L3Expr::Unpack(z.into(), x.into(), Arc::new(e), Arc::new(body))
    }
    /// `⦇e⦈𝜏`.
    pub fn boundary(e: PolyExpr, ty: L3Type) -> Self {
        L3Expr::Boundary(Arc::new(e), ty)
    }
}

impl fmt::Display for PolyExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolyExpr::Unit => write!(f, "()"),
            PolyExpr::Int(n) => write!(f, "{n}"),
            PolyExpr::Var(x) => write!(f, "{x}"),
            PolyExpr::Pair(a, b) => write!(f, "({a}, {b})"),
            PolyExpr::Fst(e) => write!(f, "fst {e}"),
            PolyExpr::Snd(e) => write!(f, "snd {e}"),
            PolyExpr::Inl(e, _) => write!(f, "inl {e}"),
            PolyExpr::Inr(e, _) => write!(f, "inr {e}"),
            PolyExpr::Match(s, x, l, y, r) => write!(f, "match {s} {x}{{{l}}} {y}{{{r}}}"),
            PolyExpr::Lam(x, ty, b) => write!(f, "λ{x}:{ty}. {b}"),
            PolyExpr::App(a, b) => write!(f, "({a}) ({b})"),
            PolyExpr::TyLam(a, b) => write!(f, "Λ{a}. {b}"),
            PolyExpr::TyApp(e, ty) => write!(f, "{e} [{ty}]"),
            PolyExpr::Ref(e) => write!(f, "ref {e}"),
            PolyExpr::Deref(e) => write!(f, "!{e}"),
            PolyExpr::Assign(a, b) => write!(f, "{a} := {b}"),
            PolyExpr::Add(a, b) => write!(f, "({a} + {b})"),
            PolyExpr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

impl PolyExpr {
    /// This program's rendered length in characters and its boundaries
    /// `⦇·⦈` in both languages, counted arm for arm beside [`fmt::Display`]
    /// without formatting anything.
    pub fn measure(&self) -> Size {
        match self {
            PolyExpr::Unit => Size::chars(2),
            PolyExpr::Int(n) => Size::chars(semint_core::int_chars(*n)),
            PolyExpr::Var(x) => Size::chars(x.rendered_chars()),
            PolyExpr::Pair(a, b) | PolyExpr::Assign(a, b) => 4 + a.measure() + b.measure(),
            PolyExpr::Fst(e)
            | PolyExpr::Snd(e)
            | PolyExpr::Inl(e, _)
            | PolyExpr::Inr(e, _)
            | PolyExpr::Ref(e) => 4 + e.measure(),
            PolyExpr::Match(s, x, l, y, r) => {
                12 + s.measure()
                    + x.rendered_chars()
                    + l.measure()
                    + y.rendered_chars()
                    + r.measure()
            }
            PolyExpr::Lam(x, ty, b) => 4 + x.rendered_chars() + ty.rendered_chars() + b.measure(),
            PolyExpr::App(a, b) | PolyExpr::Add(a, b) => 5 + a.measure() + b.measure(),
            PolyExpr::TyLam(a, b) => 3 + a.rendered_chars() + b.measure(),
            PolyExpr::TyApp(e, ty) => 3 + e.measure() + ty.rendered_chars(),
            PolyExpr::Deref(e) => 1 + e.measure(),
            PolyExpr::Boundary(e, ty) => Size::boundary(2) + e.measure() + ty.rendered_chars(),
        }
    }
}

impl fmt::Display for L3Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            L3Expr::Unit => write!(f, "()"),
            L3Expr::Bool(b) => write!(f, "{b}"),
            L3Expr::Var(x) | L3Expr::UVar(x) => write!(f, "{x}"),
            L3Expr::Lam(x, ty, b) => write!(f, "λ{x}:{ty}. {b}"),
            L3Expr::App(a, b) => write!(f, "({a}) ({b})"),
            L3Expr::Pair(a, b) => write!(f, "({a}, {b})"),
            L3Expr::LetPair(x, y, e, b) => write!(f, "let ({x}, {y}) = {e} in {b}"),
            L3Expr::LetUnit(e, b) => write!(f, "let () = {e} in {b}"),
            L3Expr::If(c, t, e) => write!(f, "if {c} {t} {e}"),
            L3Expr::Bang(e) => write!(f, "!{e}"),
            L3Expr::LetBang(x, e, b) => write!(f, "let !{x} = {e} in {b}"),
            L3Expr::Dupl(e) => write!(f, "dupl {e}"),
            L3Expr::Drop(e) => write!(f, "drop {e}"),
            L3Expr::New(e) => write!(f, "new {e}"),
            L3Expr::Free(e) => write!(f, "free {e}"),
            L3Expr::Swap(c, p, v) => write!(f, "swap {c} {p} {v}"),
            L3Expr::LocLam(z, b) => write!(f, "Λ{z}. {b}"),
            L3Expr::LocApp(e, z) => write!(f, "{e} [{z}]"),
            L3Expr::Pack(z, e, _) => write!(f, "⌜{z}, {e}⌝"),
            L3Expr::Unpack(z, x, e, b) => write!(f, "let ⌜{z}, {x}⌝ = {e} in {b}"),
            L3Expr::Boundary(e, ty) => write!(f, "⦇{e}⦈{ty}"),
        }
    }
}

impl L3Expr {
    /// This program's rendered length in characters and its boundaries
    /// `⦇·⦈` in both languages, counted arm for arm beside [`fmt::Display`]
    /// without formatting anything.
    pub fn measure(&self) -> Size {
        match self {
            L3Expr::Unit => Size::chars(2),
            L3Expr::Bool(true) => Size::chars(4),
            L3Expr::Bool(false) => Size::chars(5),
            L3Expr::Var(x) | L3Expr::UVar(x) => Size::chars(x.rendered_chars()),
            L3Expr::Lam(x, ty, b) => 4 + x.rendered_chars() + ty.rendered_chars() + b.measure(),
            L3Expr::App(a, b) => 5 + a.measure() + b.measure(),
            L3Expr::Pair(a, b) => 4 + a.measure() + b.measure(),
            L3Expr::LetPair(x, y, e, b) | L3Expr::Unpack(x, y, e, b) => {
                15 + x.rendered_chars() + y.rendered_chars() + e.measure() + b.measure()
            }
            L3Expr::LetUnit(e, b) => 13 + e.measure() + b.measure(),
            L3Expr::If(c, t, e) => 5 + c.measure() + t.measure() + e.measure(),
            L3Expr::Bang(e) => 1 + e.measure(),
            L3Expr::LetBang(x, e, b) => 12 + x.rendered_chars() + e.measure() + b.measure(),
            L3Expr::Dupl(e) | L3Expr::Drop(e) | L3Expr::Free(e) => 5 + e.measure(),
            L3Expr::New(e) => 4 + e.measure(),
            L3Expr::Swap(c, p, v) => 7 + c.measure() + p.measure() + v.measure(),
            L3Expr::LocLam(z, b) => 3 + z.rendered_chars() + b.measure(),
            L3Expr::LocApp(e, z) => 3 + e.measure() + z.rendered_chars(),
            L3Expr::Pack(z, e, _) => 4 + z.rendered_chars() + e.measure(),
            L3Expr::Boundary(e, ty) => Size::boundary(2) + e.measure() + ty.rendered_chars(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_char_counts_match_the_rendering() {
        // Every constructor, with what the generators never emit: negative
        // and extreme integers, foreign types, packs, unpacks, location
        // applications and swaps, multi-byte names.
        let l3_ty = L3Type::forall_loc(
            "ζ",
            L3Type::lolli(
                L3Type::cap("ζ", L3Type::Unit),
                L3Type::ref_like(L3Type::tensor(L3Type::Bool, L3Type::bang(L3Type::Unit))),
            ),
        );
        let poly_ty = PolyType::forall(
            "α",
            PolyType::fun(
                PolyType::prod(PolyType::tvar("α"), PolyType::foreign(l3_ty.clone())),
                PolyType::sum(PolyType::Int, PolyType::ref_(PolyType::Unit)),
            ),
        );
        let l3 = L3Expr::unpack(
            "ζ",
            "x",
            L3Expr::pack(
                "ζ",
                L3Expr::pair(L3Expr::var("c"), L3Expr::bang(L3Expr::uvar("p"))),
                L3Type::ref_like(L3Type::Bool),
            ),
            L3Expr::let_pair(
                "c",
                "p",
                L3Expr::swap(
                    L3Expr::locapp(L3Expr::loclam("η", L3Expr::var("c")), "ζ"),
                    L3Expr::dupl(L3Expr::var("p")),
                    L3Expr::if_(
                        L3Expr::bool_(true),
                        L3Expr::bool_(false),
                        L3Expr::boundary(PolyExpr::int(i64::MIN), L3Type::Bool),
                    ),
                ),
                L3Expr::let_unit(
                    L3Expr::drop_(L3Expr::unit()),
                    L3Expr::let_bang(
                        "y",
                        L3Expr::free(L3Expr::new(L3Expr::unit())),
                        L3Expr::app(
                            L3Expr::lam("α", l3_ty.clone(), L3Expr::var("α")),
                            L3Expr::uvar("y"),
                        ),
                    ),
                ),
            ),
        );
        let poly = PolyExpr::match_(
            PolyExpr::inl(
                PolyExpr::int(-42),
                PolyType::sum(PolyType::Int, PolyType::Unit),
            ),
            "ζ",
            PolyExpr::pair(
                PolyExpr::fst(PolyExpr::var("ζ")),
                PolyExpr::snd(PolyExpr::add(PolyExpr::int(-1), PolyExpr::int(9876))),
            ),
            "y2",
            PolyExpr::app(
                PolyExpr::tyapp(
                    PolyExpr::tylam(
                        "α",
                        PolyExpr::lam(
                            "x",
                            poly_ty.clone(),
                            PolyExpr::deref(PolyExpr::ref_(PolyExpr::unit())),
                        ),
                    ),
                    poly_ty.clone(),
                ),
                PolyExpr::assign(
                    PolyExpr::inr(
                        PolyExpr::unit(),
                        PolyType::sum(PolyType::Int, PolyType::Unit),
                    ),
                    PolyExpr::boundary(l3.clone(), PolyType::foreign(L3Type::ptr("ζ"))),
                ),
            ),
        );
        assert_eq!(l3_ty.rendered_chars(), l3_ty.to_string().chars().count());
        assert_eq!(
            poly_ty.rendered_chars(),
            poly_ty.to_string().chars().count()
        );
        assert_eq!(l3.measure(), rendered(&l3), "{l3}");
        assert_eq!(poly.measure(), rendered(&poly), "{poly}");
    }

    /// The size a rendering shows: its characters and its `⦇`s.
    fn rendered(e: &impl fmt::Display) -> Size {
        let text = e.to_string();
        Size {
            chars: text.chars().count(),
            boundaries: text.matches('⦇').count(),
        }
    }

    #[test]
    fn duplicable_set_matches_the_paper() {
        assert!(L3Type::Unit.is_duplicable());
        assert!(L3Type::Bool.is_duplicable());
        assert!(L3Type::ptr("ζ").is_duplicable());
        assert!(L3Type::bang(L3Type::Bool).is_duplicable());
        assert!(!L3Type::cap("ζ", L3Type::Bool).is_duplicable());
        assert!(!L3Type::lolli(L3Type::Bool, L3Type::Bool).is_duplicable());
        assert!(!L3Type::ref_like(L3Type::Bool).is_duplicable());
    }

    #[test]
    fn type_substitution_respects_binders() {
        let t = PolyType::forall("β", PolyType::fun(PolyType::tvar("α"), PolyType::tvar("β")));
        let s = t.subst(&TyVar::new("α"), &PolyType::Int);
        assert_eq!(
            s,
            PolyType::forall("β", PolyType::fun(PolyType::Int, PolyType::tvar("β")))
        );
        // Substituting under a shadowing binder is a no-op.
        let t = PolyType::forall("α", PolyType::tvar("α"));
        assert_eq!(t.subst(&TyVar::new("α"), &PolyType::Int), t);
    }

    #[test]
    fn ref_like_abbreviation_shape() {
        let t = L3Type::ref_like(L3Type::Bool);
        assert_eq!(t.to_string(), "∃ζ. (cap ζ bool ⊗ !ptr ζ)");
    }

    #[test]
    fn church_bool_shape() {
        assert_eq!(PolyType::church_bool().to_string(), "∀α. (α → (α → α))");
    }

    #[test]
    fn loc_substitution() {
        let t = L3Type::tensor(
            L3Type::cap("ζ", L3Type::Bool),
            L3Type::bang(L3Type::ptr("ζ")),
        );
        let s = t.subst_loc(&LocVar::new("ζ"), &LocVar::new("η"));
        assert_eq!(s.to_string(), "(cap η bool ⊗ !ptr η)");
        // Bound occurrences are untouched.
        let t = L3Type::exists_loc("ζ", L3Type::ptr("ζ"));
        assert_eq!(t.subst_loc(&LocVar::new("ζ"), &LocVar::new("η")), t);
    }
}
