//! Compilers from MiniML and Affi to LCVM (Fig. 8).
//!
//! The interesting lines of the figure are reproduced exactly:
//!
//! ```text
//! thunk(e) ≜ let rfr = ref 1 in λ_. { if !rfr { fail Conv } { rfr := 0; e } }
//!
//! a◦                ⇝ a◦ ()                 a•              ⇝ a•
//! λa◦/•:𝜏. e         ⇝ λa◦/•. { e⁺ }
//! (e1 : 𝜏1 ⊸ 𝜏2) e2  ⇝ e1⁺ (let x = e2⁺ in thunk(x))
//! (e1 : 𝜏1 ⊸• 𝜏2) e2 ⇝ e1⁺ e2⁺
//! let (a•,b•) = e1 in e2 ⇝ let x = e1⁺, a• = fst x, b• = snd x in e2⁺
//! ```
//!
//! Dynamic affine arguments are wrapped in the `thunk(·)` guard by their
//! *caller* and forced (`a◦ ()`) at each use, so a second use hits the flag
//! and fails `Conv`.  Static affine binders get no runtime machinery at all —
//! the compiler merely *reports* them ([`CompileOutput::static_binders`]) so
//! that the augmented (phantom-flag) semantics and the model can protect
//! them.  To keep that report unambiguous the compiler alpha-renames every
//! static binder to a fresh target name.
//!
//! Boundaries compile to an application of the conversion glue (an ordinary
//! LCVM function, see [`crate::convert`]), the matching half of the rule
//! set's `derive_pair`, to the compiled term.

use crate::convert::AffineConversions;
use crate::syntax::{AffiExpr, AffiType, MlExpr, MlType, Mode};
use crate::typecheck::{check_affi, check_ml, AffineCtx, AffineTypeError};
use lcvm::Expr;
use semint_core::convert::ConversionScheme;
use semint_core::{ErrorCode, Var};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The `thunk(·)` guard macro from Fig. 8: a one-shot thunk whose second
/// forcing fails with `Conv`.
///
/// Everything but `e` (the binders `rfr` and `_`, `ref 1`, `!rfr`,
/// `fail Conv` and `rfr := 0`) is built once per process and shared, so a
/// guard allocates only the four nodes on the path to `e`.
pub fn thunk_guard(e: Expr) -> Expr {
    /// The fixed parts of every guard.
    struct Guard {
        rfr: Var,
        wildcard: Var,
        ref_one: Arc<Expr>,
        read_flag: Arc<Expr>,
        fail_conv: Arc<Expr>,
        clear_flag: Arc<Expr>,
    }
    static GUARD: OnceLock<Guard> = OnceLock::new();
    let guard = GUARD.get_or_init(|| {
        let rfr = Var::new("rfr%guard");
        Guard {
            wildcard: Var::new("_"),
            ref_one: Arc::new(Expr::ref_(Expr::int(1))),
            read_flag: Arc::new(Expr::deref(Expr::Var(rfr.clone()))),
            fail_conv: Arc::new(Expr::Fail(ErrorCode::Conv)),
            clear_flag: Arc::new(Expr::assign(Expr::Var(rfr.clone()), Expr::int(0))),
            rfr,
        }
    });
    // let rfr = ref 1 in λ_. { if !rfr { fail Conv } { let _ = rfr := 0 in e } }
    let clear_then_run = Expr::Let(
        guard.wildcard.clone(),
        Arc::clone(&guard.clear_flag),
        Arc::new(e),
    );
    let check = Expr::If(
        Arc::clone(&guard.read_flag),
        Arc::clone(&guard.fail_conv),
        Arc::new(clear_then_run),
    );
    Expr::Let(
        guard.rfr.clone(),
        Arc::clone(&guard.ref_one),
        Arc::new(Expr::lam(guard.wildcard.clone(), check)),
    )
}

/// Errors raised during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program (or a subterm the compiler had to re-type) is ill-typed.
    Type(AffineTypeError),
    /// A boundary had no registered conversion.
    MissingConversion {
        /// The Affi side of the boundary.
        affi: AffiType,
        /// The MiniML side of the boundary.
        ml: MlType,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "type error during compilation: {e}"),
            CompileError::MissingConversion { affi, ml } => {
                write!(f, "no conversion registered for boundary {affi} ∼ {ml}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<AffineTypeError> for CompileError {
    fn from(e: AffineTypeError) -> Self {
        CompileError::Type(e)
    }
}

/// The result of compiling a source term.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOutput {
    /// The compiled LCVM expression.
    pub expr: Expr,
    /// Target variables that came from *static* affine binders; the augmented
    /// semantics protects exactly these.
    pub static_binders: BTreeSet<Var>,
    /// How many dynamic-guard thunks the compiler inserted (one per
    /// dynamic-arrow application).  It counts only these: the guards of a
    /// call across the boundary come from the `⊸` glue, so a MiniML program
    /// calling converted Affi functions reports 0 while its run allocates
    /// one guard per call.
    pub dynamic_guards: usize,
}

/// A compiler instance over one rule set: its `derivable` re-types
/// application heads and boundary payloads, and its `derive_pair` supplies
/// each boundary's glue.
///
/// The re-typing goes through the real rule set, so every boundary inside a
/// re-typed subterm probes the glue cache once more, and those probes count
/// in a sweep's glue hits.  The repo benchmark's anchors
/// (`perfbench/anchors.tsv`) and `tests/preset_digests.rs` pin the hits, so
/// the re-checks stay until a change to the benchmark can move the anchors
/// with them.
pub struct Compiler<'a> {
    conversions: &'a AffineConversions,
    static_binders: BTreeSet<Var>,
    dynamic_guards: usize,
    fresh: u64,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler over the given rule set.
    pub fn new(conversions: &'a AffineConversions) -> Self {
        Compiler {
            conversions,
            static_binders: BTreeSet::new(),
            dynamic_guards: 0,
            fresh: 0,
        }
    }

    /// Compiles a closed MiniML program.
    pub fn compile_ml_program(mut self, e: &MlExpr) -> Result<CompileOutput, CompileError> {
        let expr = self.ml(&AffineCtx::empty(), &HashMap::new(), e)?;
        Ok(CompileOutput {
            expr,
            static_binders: self.static_binders,
            dynamic_guards: self.dynamic_guards,
        })
    }

    /// Compiles a closed Affi program.
    pub fn compile_affi_program(mut self, e: &AffiExpr) -> Result<CompileOutput, CompileError> {
        let expr = self.affi(&AffineCtx::empty(), &HashMap::new(), e)?;
        Ok(CompileOutput {
            expr,
            static_binders: self.static_binders,
            dynamic_guards: self.dynamic_guards,
        })
    }

    fn fresh_static(&mut self, hint: &Var) -> Var {
        let v = Var::new(format!("{hint}•{}", self.fresh));
        self.fresh += 1;
        self.static_binders.insert(v.clone());
        v
    }

    fn ml(
        &mut self,
        ctx: &AffineCtx,
        ren: &HashMap<Var, Var>,
        e: &MlExpr,
    ) -> Result<Expr, CompileError> {
        Ok(match e {
            MlExpr::Unit => Expr::Unit,
            MlExpr::Int(n) => Expr::Int(*n),
            MlExpr::Var(x) => Expr::Var(x.clone()),
            MlExpr::Pair(a, b) => Expr::pair(self.ml(ctx, ren, a)?, self.ml(ctx, ren, b)?),
            MlExpr::Fst(a) => Expr::fst(self.ml(ctx, ren, a)?),
            MlExpr::Snd(a) => Expr::snd(self.ml(ctx, ren, a)?),
            MlExpr::Inl(a, _) => Expr::inl(self.ml(ctx, ren, a)?),
            MlExpr::Inr(a, _) => Expr::inr(self.ml(ctx, ren, a)?),
            MlExpr::Match(s, x, l, y, r) => {
                let (ts, _) = check_ml(ctx, s, &|a, m| self.conversions.derivable(a, m))?;
                let (tl, tr) = match ts {
                    MlType::Sum(a, b) => (Arc::unwrap_or_clone(a), Arc::unwrap_or_clone(b)),
                    other => {
                        return Err(CompileError::Type(AffineTypeError::Mismatch {
                            expected: "a sum type".into(),
                            found: other.to_string(),
                            context: "match scrutinee",
                        }))
                    }
                };
                Expr::match_(
                    self.ml(ctx, ren, s)?,
                    x.clone(),
                    self.ml(&ctx.with_ml(x.clone(), tl), ren, l)?,
                    y.clone(),
                    self.ml(&ctx.with_ml(y.clone(), tr), ren, r)?,
                )
            }
            MlExpr::Lam(x, ty, body) => Expr::lam(
                x.clone(),
                self.ml(&ctx.with_ml(x.clone(), ty.clone()), ren, body)?,
            ),
            MlExpr::App(f, a) => Expr::app(self.ml(ctx, ren, f)?, self.ml(ctx, ren, a)?),
            MlExpr::Ref(a) => Expr::ref_(self.ml(ctx, ren, a)?),
            MlExpr::Deref(a) => Expr::deref(self.ml(ctx, ren, a)?),
            MlExpr::Assign(a, b) => Expr::assign(self.ml(ctx, ren, a)?, self.ml(ctx, ren, b)?),
            MlExpr::Add(a, b) => Expr::add(self.ml(ctx, ren, a)?, self.ml(ctx, ren, b)?),
            MlExpr::Boundary(affi, ty) => {
                let (affi_ty, _) = check_affi(ctx, affi, &|a, m| self.conversions.derivable(a, m))?;
                let glue = self.conversions.derive_pair(&affi_ty, ty).ok_or_else(|| {
                    CompileError::MissingConversion {
                        affi: affi_ty.clone(),
                        ml: ty.clone(),
                    }
                })?;
                Expr::app(glue.a_to_b.clone(), self.affi(ctx, ren, affi)?)
            }
        })
    }

    fn affi(
        &mut self,
        ctx: &AffineCtx,
        ren: &HashMap<Var, Var>,
        e: &AffiExpr,
    ) -> Result<Expr, CompileError> {
        Ok(match e {
            AffiExpr::Unit => Expr::Unit,
            AffiExpr::Bool(b) => Expr::bool_lit(*b),
            AffiExpr::Int(n) => Expr::Int(*n),
            AffiExpr::UVar(x) => Expr::Var(x.clone()),
            // A dynamic affine variable is bound to a one-shot guard: each use
            // forces it.
            AffiExpr::AVar(Mode::Dynamic, x) => Expr::app(Expr::Var(x.clone()), Expr::Unit),
            // A static affine variable is used directly; the model's phantom
            // flag (not any target code) enforces single use.
            AffiExpr::AVar(Mode::Static, x) => {
                Expr::Var(ren.get(x).cloned().unwrap_or_else(|| x.clone()))
            }
            AffiExpr::Lam(mode, x, ty, body) => {
                let inner_ctx = ctx.with_affine(x.clone(), *mode, ty.clone());
                match mode {
                    Mode::Dynamic => Expr::lam(x.clone(), self.affi(&inner_ctx, ren, body)?),
                    Mode::Static => {
                        let fresh = self.fresh_static(x);
                        let mut ren2 = ren.clone();
                        ren2.insert(x.clone(), fresh.clone());
                        Expr::lam(fresh, self.affi(&inner_ctx, &ren2, body)?)
                    }
                }
            }
            AffiExpr::App(f, a) => {
                let (tf, _) = check_affi(ctx, f, &|a, m| self.conversions.derivable(a, m))?;
                let cf = self.affi(ctx, ren, f)?;
                let ca = self.affi(ctx, ren, a)?;
                match tf {
                    AffiType::Lolli(Mode::Dynamic, _, _) => {
                        // e1⁺ (let x = e2⁺ in thunk(x))
                        self.dynamic_guards += 1;
                        let x = Var::new(format!("arg%{}", self.fresh));
                        self.fresh += 1;
                        Expr::app(cf, Expr::let_(x.clone(), ca, thunk_guard(Expr::Var(x))))
                    }
                    AffiType::Lolli(Mode::Static, _, _) => Expr::app(cf, ca),
                    other => {
                        return Err(CompileError::Type(AffineTypeError::Mismatch {
                            expected: "an affine function type".into(),
                            found: other.to_string(),
                            context: "application head",
                        }))
                    }
                }
            }
            AffiExpr::Bang(v) => self.affi(ctx, ren, v)?,
            AffiExpr::LetBang(x, e1, body) => {
                let (t, _) = check_affi(ctx, e1, &|a, m| self.conversions.derivable(a, m))?;
                let inner = match t {
                    AffiType::Bang(inner) => Arc::unwrap_or_clone(inner),
                    other => {
                        return Err(CompileError::Type(AffineTypeError::Mismatch {
                            expected: "a !-type".into(),
                            found: other.to_string(),
                            context: "let !",
                        }))
                    }
                };
                Expr::let_(
                    x.clone(),
                    self.affi(ctx, ren, e1)?,
                    self.affi(&ctx.with_unrestricted(x.clone(), inner), ren, body)?,
                )
            }
            // Additive pairs are lazy: both components are suspended and only
            // the projected one ever runs (the paper elides this case).
            AffiExpr::WithPair(a, b) => Expr::pair(
                Expr::lam("_", self.affi(ctx, ren, a)?),
                Expr::lam("_", self.affi(ctx, ren, b)?),
            ),
            AffiExpr::Proj1(e1) => Expr::app(Expr::fst(self.affi(ctx, ren, e1)?), Expr::Unit),
            AffiExpr::Proj2(e1) => Expr::app(Expr::snd(self.affi(ctx, ren, e1)?), Expr::Unit),
            AffiExpr::TensorPair(a, b) => {
                Expr::pair(self.affi(ctx, ren, a)?, self.affi(ctx, ren, b)?)
            }
            AffiExpr::LetTensor(a, b, e1, body) => {
                let (t, _) = check_affi(ctx, e1, &|a, m| self.conversions.derivable(a, m))?;
                let (t1, t2) = match t {
                    AffiType::Tensor(t1, t2) => {
                        (Arc::unwrap_or_clone(t1), Arc::unwrap_or_clone(t2))
                    }
                    other => {
                        return Err(CompileError::Type(AffineTypeError::Mismatch {
                            expected: "a ⊗-type".into(),
                            found: other.to_string(),
                            context: "let (a, b)",
                        }))
                    }
                };
                let fresh_a = self.fresh_static(a);
                let fresh_b = self.fresh_static(b);
                let mut ren2 = ren.clone();
                ren2.insert(a.clone(), fresh_a.clone());
                ren2.insert(b.clone(), fresh_b.clone());
                let inner_ctx = ctx.with_affine(a.clone(), Mode::Static, t1).with_affine(
                    b.clone(),
                    Mode::Static,
                    t2,
                );
                let pair_var = Var::new(format!("tensor%{}", self.fresh));
                self.fresh += 1;
                Expr::let_(
                    pair_var.clone(),
                    self.affi(ctx, ren, e1)?,
                    Expr::let_(
                        fresh_a,
                        Expr::fst(Expr::Var(pair_var.clone())),
                        Expr::let_(
                            fresh_b,
                            Expr::snd(Expr::Var(pair_var)),
                            self.affi(&inner_ctx, &ren2, body)?,
                        ),
                    ),
                )
            }
            AffiExpr::Boundary(ml, ty) => {
                let (ml_ty, _) = check_ml(ctx, ml, &|a, m| self.conversions.derivable(a, m))?;
                let glue = self.conversions.derive_pair(ty, &ml_ty).ok_or_else(|| {
                    CompileError::MissingConversion {
                        affi: ty.clone(),
                        ml: ml_ty.clone(),
                    }
                })?;
                Expr::app(glue.b_to_a.clone(), self.ml(ctx, ren, ml)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcvm::{Halt, Machine, Value};
    use semint_core::Fuel;

    fn compile_affi(e: &AffiExpr) -> CompileOutput {
        Compiler::new(&AffineConversions::standard())
            .compile_affi_program(e)
            .unwrap()
    }

    fn run(e: Expr) -> Halt {
        Machine::run_expr(e, Fuel::default()).halt
    }

    #[test]
    fn thunk_guard_is_one_shot() {
        // let t = thunk(42) in t () + t ()  — the second force fails Conv.
        let prog = Expr::let_(
            "t",
            thunk_guard(Expr::int(42)),
            Expr::add(
                Expr::app(Expr::var("t"), Expr::unit()),
                Expr::app(Expr::var("t"), Expr::unit()),
            ),
        );
        assert_eq!(run(prog), Halt::Fail(ErrorCode::Conv));

        // A single force succeeds.
        let prog = Expr::let_(
            "t",
            thunk_guard(Expr::int(42)),
            Expr::app(Expr::var("t"), Expr::unit()),
        );
        assert_eq!(run(prog), Halt::Value(Value::Int(42)));
    }

    #[test]
    fn dynamic_application_inserts_a_guard_and_forces_per_use() {
        // (λa◦:int. a) 5  ==> 5, with exactly one guard inserted.
        let e = AffiExpr::app(
            AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a")),
            AffiExpr::int(5),
        );
        let out = compile_affi(&e);
        assert_eq!(out.dynamic_guards, 1);
        assert!(out.static_binders.is_empty());
        assert_eq!(run(out.expr), Halt::Value(Value::Int(5)));
    }

    #[test]
    fn compiled_dynamic_function_rejects_a_reused_guard() {
        // Apply a compiled dynamic affine function to the *same* guarded
        // argument twice — the behaviour MiniML code that holds on to the
        // guard would exhibit.  The first call succeeds, the second fails
        // Conv.
        let f = AffiExpr::lam("a", AffiType::Int, AffiExpr::avar("a"));
        let out = compile_affi(&f);
        let prog = Expr::let_(
            "f",
            out.expr,
            Expr::let_(
                "t",
                thunk_guard(Expr::int(5)),
                Expr::add(
                    Expr::app(Expr::var("f"), Expr::var("t")),
                    Expr::app(Expr::var("f"), Expr::var("t")),
                ),
            ),
        );
        assert_eq!(run(prog), Halt::Fail(ErrorCode::Conv));
    }

    #[test]
    fn static_application_has_no_guard() {
        // (λa•:int. a) 5 — no guard, no thunk, and the binder is reported.
        let e = AffiExpr::app(
            AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a")),
            AffiExpr::int(5),
        );
        let out = compile_affi(&e);
        assert_eq!(out.dynamic_guards, 0);
        assert_eq!(out.static_binders.len(), 1);
        assert_eq!(run(out.expr), Halt::Value(Value::Int(5)));
    }

    #[test]
    fn static_binders_are_alpha_renamed_apart() {
        // Two distinct static binders with the same source name must be
        // reported as two distinct target names.
        let e = AffiExpr::app(
            AffiExpr::lam_static(
                "a",
                AffiType::Int,
                AffiExpr::app(
                    AffiExpr::lam_static("a", AffiType::Int, AffiExpr::avar_static("a")),
                    AffiExpr::avar_static("a"),
                ),
            ),
            AffiExpr::int(9),
        );
        let out = compile_affi(&e);
        assert_eq!(out.static_binders.len(), 2);
        assert_eq!(run(out.expr), Halt::Value(Value::Int(9)));
    }

    #[test]
    fn tensor_let_destructures_and_reports_static_binders() {
        let e = AffiExpr::let_tensor(
            "x",
            "y",
            AffiExpr::tensor(AffiExpr::int(3), AffiExpr::int(4)),
            AffiExpr::tensor(AffiExpr::avar_static("y"), AffiExpr::avar_static("x")),
        );
        let out = compile_affi(&e);
        assert_eq!(out.static_binders.len(), 2);
        assert_eq!(
            run(out.expr),
            Halt::Value(Value::Pair(
                Box::new(Value::Int(4)),
                Box::new(Value::Int(3))
            ))
        );
    }

    #[test]
    fn with_pairs_are_lazy_and_projections_force_one_side() {
        // ⟨1, diverging-free-but-failing⟩.1 must not touch the second side.
        let e = AffiExpr::proj1(AffiExpr::with_pair(
            AffiExpr::int(1),
            AffiExpr::app(
                AffiExpr::lam("z", AffiType::Int, AffiExpr::avar("z")),
                AffiExpr::int(0),
            ),
        ));
        let out = compile_affi(&e);
        assert_eq!(run(out.expr), Halt::Value(Value::Int(1)));
    }

    #[test]
    fn bang_and_let_bang_erase_to_plain_binding() {
        let e = AffiExpr::let_bang(
            "x",
            AffiExpr::bang(AffiExpr::int(6)),
            AffiExpr::tensor(AffiExpr::uvar("x"), AffiExpr::uvar("x")),
        );
        let out = compile_affi(&e);
        assert_eq!(
            run(out.expr),
            Halt::Value(Value::Pair(
                Box::new(Value::Int(6)),
                Box::new(Value::Int(6))
            ))
        );
    }

    #[test]
    fn miniml_compilation_is_standard() {
        let e = MlExpr::app(
            MlExpr::lam(
                "x",
                MlType::Int,
                MlExpr::add(MlExpr::var("x"), MlExpr::int(1)),
            ),
            MlExpr::int(41),
        );
        let out = Compiler::new(&AffineConversions::standard())
            .compile_ml_program(&e)
            .unwrap();
        assert_eq!(run(out.expr), Halt::Value(Value::Int(42)));

        let e = MlExpr::match_(
            MlExpr::inl(MlExpr::int(7), MlType::sum(MlType::Int, MlType::Unit)),
            "x",
            MlExpr::var("x"),
            "y",
            MlExpr::int(0),
        );
        let out = Compiler::new(&AffineConversions::standard())
            .compile_ml_program(&e)
            .unwrap();
        assert_eq!(run(out.expr), Halt::Value(Value::Int(7)));
    }

    #[test]
    fn boundaries_without_glue_are_compile_errors() {
        // ⦇()⦈int: the standard rules refute unit ∼ int.
        let e = MlExpr::boundary(AffiExpr::unit(), MlType::Int);
        let err = Compiler::new(&AffineConversions::standard())
            .compile_ml_program(&e)
            .unwrap_err();
        assert!(matches!(err, CompileError::MissingConversion { .. }));
    }
}
