//! Compilers from MiniML (§5) and L3 to LCVM (Fig. 13).
//!
//! L3's static artefacts are erased: capabilities compile to `()`, location
//! abstraction/application to thunking, packs/unpacks to the identity.  The
//! memory instructions map onto the Fig. 12 target forms:
//!
//! ```text
//! new e   ⇝ let _ = callgc in let xℓ = alloc e⁺ in ((), xℓ)
//! free e  ⇝ let x = e⁺ in let xr = !(snd x) in let _ = free (snd x) in xr
//! swap ec ep ev ⇝ let xp = ep⁺ in let _ = ec⁺ in let xv = !xp in
//!                 let _ = (xp := ev⁺) in ((), xv)
//! ```
//!
//! MiniML compiles in the standard way; `Λα. e ⇝ λ_. e⁺` and `e[τ] ⇝ e⁺ ()`.
//! Boundaries apply the conversion glue, the matching half of the rule set's
//! `derive_pair` (see [`crate::convert`]), by pointer: the application
//! shares the cached glue instead of copying it.

use crate::convert::MemGcConversions;
use crate::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use crate::typecheck::{check_l3, check_poly, MemGcCtx, MemGcTypeError};
use lcvm::Expr;
use semint_core::convert::ConversionScheme;
use semint_core::Var;
use std::fmt;
use std::sync::Arc;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum MemGcCompileError {
    /// The program (or a subterm re-typed at a boundary) is ill-typed.
    Type(MemGcTypeError),
    /// A boundary had no registered conversion.
    MissingConversion {
        /// The MiniML side.
        ml: PolyType,
        /// The L3 side.
        l3: L3Type,
    },
}

impl fmt::Display for MemGcCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemGcCompileError::Type(e) => write!(f, "type error during compilation: {e}"),
            MemGcCompileError::MissingConversion { ml, l3 } => {
                write!(f, "no conversion registered for boundary {ml} ∼ {l3}")
            }
        }
    }
}

impl std::error::Error for MemGcCompileError {}

impl From<MemGcTypeError> for MemGcCompileError {
    fn from(e: MemGcTypeError) -> Self {
        MemGcCompileError::Type(e)
    }
}

/// The §5 compiler over one rule set: its `derivable` re-types boundary
/// payloads and the subjects of `match`, `let (x, y)`, `let !x` and
/// `unpack`, and its `derive_pair` supplies each boundary's glue.
///
/// The re-typing goes through the real rule set, so every boundary inside a
/// re-typed subterm probes the glue cache once more, and those probes count
/// in a sweep's glue hits.  The repo benchmark's anchors
/// (`perfbench/anchors.tsv`) and `tests/preset_digests.rs` pin the hits, so
/// the re-checks stay until a change to the benchmark can move the anchors
/// with them.
pub struct MemGcCompiler<'a> {
    conversions: &'a MemGcConversions,
    fresh: u64,
}

impl<'a> MemGcCompiler<'a> {
    /// A compiler over the given rule set.
    pub fn new(conversions: &'a MemGcConversions) -> Self {
        MemGcCompiler {
            conversions,
            fresh: 0,
        }
    }

    fn fresh_var(&mut self, hint: &str) -> Var {
        let v = Var::new(format!("{hint}%{}", self.fresh));
        self.fresh += 1;
        v
    }

    /// Compiles a closed MiniML program.
    pub fn compile_ml_program(mut self, e: &PolyExpr) -> Result<Expr, MemGcCompileError> {
        self.ml(&MemGcCtx::empty(), e)
    }

    /// Compiles a closed L3 program.
    pub fn compile_l3_program(mut self, e: &L3Expr) -> Result<Expr, MemGcCompileError> {
        self.l3(&MemGcCtx::empty(), e)
    }

    fn ml(&mut self, ctx: &MemGcCtx, e: &PolyExpr) -> Result<Expr, MemGcCompileError> {
        Ok(match e {
            PolyExpr::Unit => Expr::Unit,
            PolyExpr::Int(n) => Expr::Int(*n),
            PolyExpr::Var(x) => Expr::Var(x.clone()),
            PolyExpr::Pair(a, b) => Expr::pair(self.ml(ctx, a)?, self.ml(ctx, b)?),
            PolyExpr::Fst(a) => Expr::fst(self.ml(ctx, a)?),
            PolyExpr::Snd(a) => Expr::snd(self.ml(ctx, a)?),
            PolyExpr::Inl(a, _) => Expr::inl(self.ml(ctx, a)?),
            PolyExpr::Inr(a, _) => Expr::inr(self.ml(ctx, a)?),
            PolyExpr::Match(s, x, l, y, r) => {
                let (ts, _) = check_poly(ctx, s, &|m, l| self.conversions.derivable(m, l))?;
                let (tl, tr) = match ts {
                    PolyType::Sum(a, b) => (Arc::unwrap_or_clone(a), Arc::unwrap_or_clone(b)),
                    other => {
                        return Err(MemGcCompileError::Type(MemGcTypeError::Mismatch {
                            expected: "a sum type".into(),
                            found: other.to_string(),
                            context: "match scrutinee",
                        }))
                    }
                };
                Expr::match_(
                    self.ml(ctx, s)?,
                    x.clone(),
                    self.ml(&ctx.with_ml(x.clone(), tl), l)?,
                    y.clone(),
                    self.ml(&ctx.with_ml(y.clone(), tr), r)?,
                )
            }
            PolyExpr::Lam(x, ty, body) => Expr::lam(
                x.clone(),
                self.ml(&ctx.with_ml(x.clone(), ty.clone()), body)?,
            ),
            PolyExpr::App(f, a) => Expr::app(self.ml(ctx, f)?, self.ml(ctx, a)?),
            PolyExpr::TyLam(a, body) => Expr::lam("_", self.ml(&ctx.with_tyvar(a.clone()), body)?),
            PolyExpr::TyApp(e1, _) => Expr::app(self.ml(ctx, e1)?, Expr::Unit),
            PolyExpr::Ref(a) => Expr::ref_(self.ml(ctx, a)?),
            PolyExpr::Deref(a) => Expr::deref(self.ml(ctx, a)?),
            PolyExpr::Assign(a, b) => Expr::assign(self.ml(ctx, a)?, self.ml(ctx, b)?),
            PolyExpr::Add(a, b) => Expr::add(self.ml(ctx, a)?, self.ml(ctx, b)?),
            PolyExpr::Boundary(l3, ty) => {
                let (tl, _) = check_l3(ctx, l3, &|m, l| self.conversions.derivable(m, l))?;
                let glue = self.conversions.derive_pair(ty, &tl).ok_or_else(|| {
                    MemGcCompileError::MissingConversion {
                        ml: ty.clone(),
                        l3: tl.clone(),
                    }
                })?;
                Expr::App(Arc::clone(&glue.b_to_a), Arc::new(self.l3(ctx, l3)?))
            }
        })
    }

    fn l3(&mut self, ctx: &MemGcCtx, e: &L3Expr) -> Result<Expr, MemGcCompileError> {
        Ok(match e {
            L3Expr::Unit => Expr::Unit,
            L3Expr::Bool(b) => Expr::bool_lit(*b),
            L3Expr::Var(x) | L3Expr::UVar(x) => Expr::Var(x.clone()),
            L3Expr::Lam(x, ty, body) => Expr::lam(
                x.clone(),
                self.l3(&ctx.with_l3_linear(x.clone(), ty.clone()), body)?,
            ),
            L3Expr::App(f, a) => Expr::app(self.l3(ctx, f)?, self.l3(ctx, a)?),
            L3Expr::Pair(a, b) => Expr::pair(self.l3(ctx, a)?, self.l3(ctx, b)?),
            L3Expr::LetPair(x, y, e1, body) => {
                let (t, _) = check_l3(ctx, e1, &|m, l| self.conversions.derivable(m, l))?;
                let (t1, t2) = match t {
                    L3Type::Tensor(a, b) => (Arc::unwrap_or_clone(a), Arc::unwrap_or_clone(b)),
                    other => {
                        return Err(MemGcCompileError::Type(MemGcTypeError::Mismatch {
                            expected: "a ⊗-type".into(),
                            found: other.to_string(),
                            context: "let (x, y)",
                        }))
                    }
                };
                let p = self.fresh_var("pair");
                let inner_ctx = ctx
                    .with_l3_linear(x.clone(), t1)
                    .with_l3_linear(y.clone(), t2);
                Expr::let_(
                    p.clone(),
                    self.l3(ctx, e1)?,
                    Expr::let_(
                        x.clone(),
                        Expr::fst(Expr::Var(p.clone())),
                        Expr::let_(
                            y.clone(),
                            Expr::snd(Expr::Var(p)),
                            self.l3(&inner_ctx, body)?,
                        ),
                    ),
                )
            }
            L3Expr::LetUnit(e1, body) => Expr::seq(self.l3(ctx, e1)?, self.l3(ctx, body)?),
            L3Expr::If(c, t, f) => Expr::if_(self.l3(ctx, c)?, self.l3(ctx, t)?, self.l3(ctx, f)?),
            L3Expr::Bang(v) => self.l3(ctx, v)?,
            L3Expr::LetBang(x, e1, body) => {
                let (t, _) = check_l3(ctx, e1, &|m, l| self.conversions.derivable(m, l))?;
                let inner = match t {
                    L3Type::Bang(inner) => Arc::unwrap_or_clone(inner),
                    other => {
                        return Err(MemGcCompileError::Type(MemGcTypeError::Mismatch {
                            expected: "a !-type".into(),
                            found: other.to_string(),
                            context: "let !",
                        }))
                    }
                };
                Expr::let_(
                    x.clone(),
                    self.l3(ctx, e1)?,
                    self.l3(&ctx.with_l3_unrestricted(x.clone(), inner), body)?,
                )
            }
            L3Expr::Dupl(e1) => {
                let x = self.fresh_var("dup");
                Expr::let_(
                    x.clone(),
                    self.l3(ctx, e1)?,
                    Expr::pair(Expr::Var(x.clone()), Expr::Var(x)),
                )
            }
            L3Expr::Drop(e1) => Expr::seq(self.l3(ctx, e1)?, Expr::Unit),
            L3Expr::New(e1) => {
                let xl = self.fresh_var("cell");
                Expr::seq(
                    Expr::Callgc,
                    Expr::let_(
                        xl.clone(),
                        Expr::alloc(self.l3(ctx, e1)?),
                        Expr::pair(Expr::Unit, Expr::Var(xl)),
                    ),
                )
            }
            L3Expr::Free(e1) => {
                let x = self.fresh_var("pkg");
                let xr = self.fresh_var("contents");
                Expr::let_(
                    x.clone(),
                    self.l3(ctx, e1)?,
                    Expr::let_(
                        xr.clone(),
                        Expr::deref(Expr::snd(Expr::Var(x.clone()))),
                        Expr::seq(Expr::free(Expr::snd(Expr::Var(x))), Expr::Var(xr)),
                    ),
                )
            }
            L3Expr::Swap(ec, ep, ev) => {
                let xp = self.fresh_var("ptr");
                let xv = self.fresh_var("old");
                Expr::let_(
                    xp.clone(),
                    self.l3(ctx, ep)?,
                    Expr::seq(
                        self.l3(ctx, ec)?,
                        Expr::let_(
                            xv.clone(),
                            Expr::deref(Expr::Var(xp.clone())),
                            Expr::seq(
                                Expr::assign(Expr::Var(xp), self.l3(ctx, ev)?),
                                Expr::pair(Expr::Unit, Expr::Var(xv)),
                            ),
                        ),
                    ),
                )
            }
            L3Expr::LocLam(z, body) => Expr::lam("_", self.l3(&ctx.with_locvar(z.clone()), body)?),
            L3Expr::LocApp(e1, _) => Expr::app(self.l3(ctx, e1)?, Expr::Unit),
            L3Expr::Pack(_, e1, _) => self.l3(ctx, e1)?,
            L3Expr::Unpack(z, x, e1, body) => {
                let (t, _) = check_l3(ctx, e1, &|m, l| self.conversions.derivable(m, l))?;
                let opened = match t {
                    L3Type::ExistsLoc(w, inner) => inner.subst_loc(&w, z),
                    other => {
                        return Err(MemGcCompileError::Type(MemGcTypeError::Mismatch {
                            expected: "an ∃ζ-type".into(),
                            found: other.to_string(),
                            context: "unpack",
                        }))
                    }
                };
                let inner_ctx = ctx.with_locvar(z.clone()).with_l3_linear(x.clone(), opened);
                Expr::let_(x.clone(), self.l3(ctx, e1)?, self.l3(&inner_ctx, body)?)
            }
            L3Expr::Boundary(ml, ty) => {
                let (tm, _) = check_poly(ctx, ml, &|m, l| self.conversions.derivable(m, l))?;
                let glue = self.conversions.derive_pair(&tm, ty).ok_or_else(|| {
                    MemGcCompileError::MissingConversion {
                        ml: tm.clone(),
                        l3: ty.clone(),
                    }
                })?;
                Expr::App(Arc::clone(&glue.a_to_b), Arc::new(self.ml(ctx, ml)?))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::{Halt, Machine, Slot, Value};
    use semint_core::{ErrorCode, Fuel};

    fn compile_l3(e: &L3Expr) -> Expr {
        MemGcCompiler::new(&MemGcConversions::standard())
            .compile_l3_program(e)
            .unwrap()
    }

    fn run(e: Expr) -> lcvm::RunResult {
        Machine::run_expr(e, Fuel::default())
    }

    #[test]
    fn new_allocates_manual_memory_and_free_reclaims_it() {
        // free (new true)  ==> true (0), and the heap ends empty.
        let e = L3Expr::free(L3Expr::new(L3Expr::bool_(true)));
        let r = run(compile_l3(&e));
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
        assert_eq!(r.heap.manual_len(), 0);
        assert_eq!(r.heap.stats().manual_allocs, 1);
        assert_eq!(r.heap.stats().frees, 1);
        assert_eq!(
            r.heap.stats().gc_runs,
            1,
            "new invokes callgc before allocating"
        );
    }

    #[test]
    fn new_without_free_leaks_the_manual_cell() {
        // Well-typed L3 cannot do this (the capability must be consumed), but
        // the target happily shows the leak — which is the point of linearity.
        let e = L3Expr::new(L3Expr::bool_(false));
        let r = run(compile_l3(&e));
        assert_eq!(r.heap.manual_len(), 1);
        match r.halt {
            Halt::Value(Value::Pair(cap, ptr)) => {
                assert_eq!(*cap, Value::Unit, "capabilities are erased to unit");
                assert!(matches!(*ptr, Value::Loc(_)));
            }
            other => panic!("expected a package value, got {other:?}"),
        }
    }

    #[test]
    fn swap_strongly_updates_through_the_pointer() {
        // Type-checked swap round trip (same program as the typecheck test).
        let e = L3Expr::unpack(
            "ζ",
            "pkg",
            L3Expr::new(L3Expr::bool_(true)),
            L3Expr::let_pair(
                "c",
                "p",
                L3Expr::var("pkg"),
                L3Expr::let_bang(
                    "q",
                    L3Expr::var("p"),
                    L3Expr::let_pair(
                        "c2",
                        "old",
                        L3Expr::swap(L3Expr::var("c"), L3Expr::uvar("q"), L3Expr::bool_(false)),
                        L3Expr::let_unit(
                            L3Expr::drop_(L3Expr::var("old")),
                            L3Expr::free(L3Expr::pack(
                                "ζ",
                                L3Expr::pair(L3Expr::var("c2"), L3Expr::bang(L3Expr::uvar("q"))),
                                L3Type::ref_like(L3Type::Bool),
                            )),
                        ),
                    ),
                ),
            ),
        );
        check_l3(&MemGcCtx::empty(), &e, &|_, _| false).expect("typechecks");
        let r = run(compile_l3(&e));
        // The freed contents are the swapped-in false (1).
        assert_eq!(r.halt, Halt::Value(Value::Int(1)));
        assert_eq!(r.heap.manual_len(), 0);
    }

    #[test]
    fn use_after_free_fails_ptr_not_type() {
        // Deliberately ill-typed L3 (double free) still compiles structurally
        // if we bypass the type checker; the target catches it with Ptr.
        let e = L3Expr::unpack(
            "ζ",
            "pkg",
            L3Expr::new(L3Expr::bool_(true)),
            L3Expr::let_pair(
                "c",
                "p",
                L3Expr::var("pkg"),
                L3Expr::let_bang(
                    "q",
                    L3Expr::var("p"),
                    L3Expr::let_unit(
                        L3Expr::drop_(L3Expr::free(L3Expr::pack(
                            "ζ",
                            L3Expr::pair(L3Expr::var("c"), L3Expr::bang(L3Expr::uvar("q"))),
                            L3Type::ref_like(L3Type::Bool),
                        ))),
                        // A second free through the stale pointer: the type
                        // system forbids this (the capability is gone); the
                        // erased program fails Ptr at runtime.
                        L3Expr::free(L3Expr::pack(
                            "ζ",
                            L3Expr::pair(L3Expr::unit(), L3Expr::bang(L3Expr::uvar("q"))),
                            L3Type::ref_like(L3Type::Bool),
                        )),
                    ),
                ),
            ),
        );
        // (The type checker would reject this — that is the theorem; here we
        // check the *dynamic* failure mode of the erased program.)
        let compiled = compile_l3(&e);
        let r = run(compiled);
        assert_eq!(r.halt, Halt::Fail(ErrorCode::Ptr));
    }

    #[test]
    fn dupl_drop_and_bang_erase_sensibly() {
        let e = L3Expr::let_pair(
            "a",
            "b",
            L3Expr::dupl(L3Expr::bang(L3Expr::bool_(true))),
            L3Expr::let_unit(L3Expr::drop_(L3Expr::var("a")), L3Expr::var("b")),
        );
        // dupl !true = (!true, !true); drop one, keep the other.
        let r = run(compile_l3(&e));
        assert_eq!(r.halt, Halt::Value(Value::Int(0)));
    }

    #[test]
    fn location_abstraction_erases_to_thunking() {
        let e = L3Expr::locapp(L3Expr::loclam("ζ", L3Expr::bool_(true)), "ζ");
        // Type checking requires ζ in scope for the application; compile the
        // closed loclam and apply: Λζ. true [ζ] ⇝ (λ_. 0) () ⇝ 0.
        let compiled = MemGcCompiler::new(&MemGcConversions::standard())
            .compile_l3_program(&e)
            .unwrap();
        assert_eq!(run(compiled).halt, Halt::Value(Value::Int(0)));
    }

    #[test]
    fn polymorphic_miniml_compiles_via_type_erasure() {
        // (Λα. λx:α. x) [int] 7  ==> 7
        let e = PolyExpr::app(
            PolyExpr::tyapp(
                PolyExpr::tylam(
                    "α",
                    PolyExpr::lam("x", PolyType::tvar("α"), PolyExpr::var("x")),
                ),
                PolyType::Int,
            ),
            PolyExpr::int(7),
        );
        let compiled = MemGcCompiler::new(&MemGcConversions::standard())
            .compile_ml_program(&e)
            .unwrap();
        assert_eq!(run(compiled).halt, Halt::Value(Value::Int(7)));
    }

    #[test]
    fn miniml_gc_references_stay_gc_managed() {
        let e = PolyExpr::deref(PolyExpr::ref_(PolyExpr::int(5)));
        let compiled = MemGcCompiler::new(&MemGcConversions::standard())
            .compile_ml_program(&e)
            .unwrap();
        let r = run(compiled);
        assert_eq!(r.halt, Halt::Value(Value::Int(5)));
        assert_eq!(r.heap.stats().gc_allocs, 1);
        assert_eq!(r.heap.stats().manual_allocs, 0);
        // The cell is GC'd, not manual.
        let (loc, slot) = r.heap.iter().next().unwrap();
        let _ = loc;
        assert!(matches!(slot, Slot::Gc(_)));
    }

    #[test]
    fn boundaries_without_glue_are_compile_errors() {
        // ⦇()⦈int: the standard rules refute int ∼ unit.
        let e = PolyExpr::boundary(L3Expr::unit(), PolyType::Int);
        let err = MemGcCompiler::new(&MemGcConversions::standard())
            .compile_ml_program(&e)
            .unwrap_err();
        assert!(matches!(err, MemGcCompileError::MissingConversion { .. }));
    }
}
