//! The paper's §3–§5 cost claims as exact laws over the machines' counters.
//!
//! The paper argues about cost by counting, not by timing: sharing a
//! reference across the boundary is free while converting it pays per
//! crossing (§3), a dynamic affine arrow pays one `thunk(·)` guard per call
//! (§4, Fig. 8), and `gcmov` hands a manual cell to the collector without
//! copying it (§5).  Both machines count steps, retired instructions by
//! opcode class and heap traffic exactly, so each claim is pinned here as
//! an intercept plus a slope in the size of a hand-shaped workload (the
//! EXPERIMENTS.md index names each law test E1–E6).  Every run must end in
//! a value, so a law can never hold by running out of fuel.

use semint::affine::compile::thunk_guard;
use semint::affine::syntax::{AffiExpr, AffiType, MlExpr, MlType};
use semint::affine::{AffProgram, AffineCase};
use semint::core::{CaseStudy, Fuel, Outcome, VmCounters};
use semint::lcvm::{self, Expr, Halt, Machine};
use semint::memgc::syntax::{L3Expr, L3Type, PolyExpr, PolyType};
use semint::memgc::{MemGcCase, MgProgram};
use semint::reflang::syntax::{HlExpr, HlType, LlExpr, LlType};
use semint::sharedmem::convert::{RefStrategy, SharedMemConversions};
use semint::sharedmem::{SharedMemCase, SmProgram};
use semint::stacklang;

/// The workload sizes every law is checked at.
const SIZES: [usize; 5] = [0, 1, 4, 16, 64];

/// Type checks and compiles a workload, as the engine's stages do.
fn compiled<C: CaseStudy>(case: &C, program: C::Program) -> C::Compiled {
    case.typecheck(&program).expect("workload typechecks");
    case.compile(&program).expect("workload compiles")
}

/// Runs a RefLL program and insists that it ends in a value.
fn run_ll(case: &SharedMemCase, program: LlExpr) -> stacklang::RunResult {
    let run = case
        .run(&SmProgram::Ll(program), Fuel::default())
        .expect("workload typechecks");
    assert!(
        matches!(run.outcome, Outcome::Value(_)),
        "{:?}",
        run.outcome
    );
    run
}

/// Runs a compiled LCVM program and insists that it ends in a value.
fn run_lcvm(program: Expr) -> lcvm::RunResult {
    let run = Machine::run_expr(program, Fuel::default());
    assert!(matches!(run.halt, Halt::Value(_)), "{:?}", run.halt);
    run
}

/// The three numbers most laws pin: machine steps, heap allocations and
/// heap-class instructions.
fn cost(steps: u64, c: VmCounters) -> (u64, u64, u64) {
    (steps, c.heap_allocs, c.instr_heap)
}

// ---------------------------------------------------------------------------
// E1, E2: StackLang (§3).

/// A RefLL program that shares one `ref int` with RefHL and crosses the
/// boundary `crossings` times; each crossing is a RefHL write through the
/// alias, and RefLL reads the cell once at the end.
fn shared_ref_workload(crossings: usize) -> LlExpr {
    let mut body = LlExpr::deref(LlExpr::var("cell"));
    for i in 0..crossings {
        let hl_write = HlExpr::assign(
            HlExpr::boundary(LlExpr::var("cell"), HlType::ref_(HlType::Bool)),
            HlExpr::bool_(i % 2 == 0),
        );
        body = LlExpr::add(LlExpr::boundary(hl_write, LlType::Int), body);
    }
    LlExpr::app(
        LlExpr::lam("cell", LlType::ref_(LlType::Int), body),
        LlExpr::ref_(LlExpr::int(0)),
    )
}

/// The same access pattern with a conversion per access instead of a
/// shared pointer: each crossing reads the contents, converts them int →
/// bool → int, and writes them back on the RefLL side.
fn proxied_ref_workload(crossings: usize) -> LlExpr {
    let mut body = LlExpr::deref(LlExpr::var("cell"));
    for i in 0..crossings {
        let hl_read = HlExpr::if_(
            HlExpr::boundary(LlExpr::deref(LlExpr::var("cell")), HlType::Bool),
            HlExpr::bool_(i % 2 == 0),
            HlExpr::bool_(i % 2 == 1),
        );
        let write_back =
            LlExpr::assign(LlExpr::var("cell"), LlExpr::boundary(hl_read, LlType::Int));
        body = LlExpr::add(write_back, body);
    }
    LlExpr::app(
        LlExpr::lam("cell", LlType::ref_(LlType::Int), body),
        LlExpr::ref_(LlExpr::int(0)),
    )
}

/// Sums `count` RefHL sum values converted to RefLL int arrays; each
/// conversion re-tags the payload and rebuilds a two-element array.
fn sum_conversion_workload(count: usize) -> LlExpr {
    let sum_ty = HlType::sum(HlType::Bool, HlType::Bool);
    let mut body = LlExpr::int(0);
    for i in 0..count {
        let hl_sum = if i % 2 == 0 {
            HlExpr::inl(HlExpr::bool_(true), sum_ty.clone())
        } else {
            HlExpr::inr(HlExpr::bool_(false), sum_ty.clone())
        };
        let crossed = LlExpr::index(
            LlExpr::boundary(hl_sum, LlType::array(LlType::Int)),
            LlExpr::int(0),
        );
        body = LlExpr::add(crossed, body);
    }
    body
}

/// The same number of additions with no boundary at all.
fn sum_conversion_baseline(count: usize) -> LlExpr {
    let mut body = LlExpr::int(0);
    for i in 0..count {
        body = LlExpr::add(LlExpr::int((i % 2) as i64), body);
    }
    body
}

/// E1 (§3 Discussion): sharing the pointer costs 9 steps and one heap
/// write per crossing and never allocates; copy-converting allocates a
/// fresh cell per crossing, and converting per access pays a read, a write
/// and a branch per crossing.
#[test]
fn e1_sharing_a_reference_is_free_and_conversion_pays_per_crossing() {
    let share = SharedMemCase::standard();
    let copy = SharedMemCase::new(SharedMemConversions::with_ref_strategy(RefStrategy::Copy));
    for n in SIZES {
        let k = n as u64;
        let r = run_ll(&share, shared_ref_workload(n));
        assert_eq!(
            cost(r.steps, r.counters),
            (11 + 9 * k, 1, 2 + k),
            "share, n = {n}"
        );
        let r = run_ll(&copy, shared_ref_workload(n));
        assert_eq!(
            cost(r.steps, r.counters),
            (11 + 11 * k, 1 + k, 2 + 3 * k),
            "copy, n = {n}"
        );
        let r = run_ll(&share, proxied_ref_workload(n));
        assert_eq!(
            cost(r.steps, r.counters),
            (11 + 12 * k, 1, 2 + 2 * k),
            "per access, n = {n}"
        );
        assert_eq!(r.counters.instr_control, k, "per access, n = {n}");
    }
}

/// E2 (§3): unlike a reference, a sum pays glue per value — 25 steps per
/// conversion over the no-boundary baseline — yet neither allocates.
#[test]
fn e2_sum_conversions_pay_per_value() {
    let system = SharedMemCase::standard();
    for n in SIZES {
        let k = n as u64;
        let r = run_ll(&system, sum_conversion_workload(n));
        assert_eq!(
            (r.steps, r.counters.heap_allocs),
            (1 + 31 * k, 0),
            "sums, n = {n}"
        );
        let r = run_ll(&system, sum_conversion_baseline(n));
        assert_eq!(
            (r.steps, r.counters.heap_allocs),
            (1 + 6 * k, 0),
            "baseline, n = {n}"
        );
    }
}

// ---------------------------------------------------------------------------
// E3, E4: affine enforcement on LCVM (§4).

/// A chain of `calls` Affi identity applications, all through dynamic
/// arrows or all through static ones.
fn affine_chain(calls: usize, dynamic: bool) -> AffiExpr {
    let mut expr = AffiExpr::int(1);
    for i in 0..calls {
        let v = format!("x{i}");
        let identity = if dynamic {
            AffiExpr::lam(v.as_str(), AffiType::Int, AffiExpr::avar(v.as_str()))
        } else {
            AffiExpr::lam_static(v.as_str(), AffiType::Int, AffiExpr::avar_static(v.as_str()))
        };
        expr = AffiExpr::app(identity, expr);
    }
    expr
}

/// A chain of `calls` dynamic Affi identities, each called from MiniML
/// through the `𝜏1 ⊸ 𝜏2 ∼ (unit → τ1) → τ2` conversion with a thunk of the
/// accumulated expression.
fn cross_boundary_affine_chain(calls: usize) -> MlExpr {
    let thunked = MlType::fun(MlType::fun(MlType::Unit, MlType::Int), MlType::Int);
    let mut expr = MlExpr::int(1);
    for i in 0..calls {
        let v = format!("b{i}");
        let affi_identity = AffiExpr::lam(v.as_str(), AffiType::Int, AffiExpr::avar(v.as_str()));
        expr = MlExpr::app(
            MlExpr::boundary(affi_identity, thunked.clone()),
            MlExpr::lam("_", MlType::Unit, expr),
        );
    }
    expr
}

/// E3 (§4): a static arrow costs no guard and no heap traffic; a dynamic
/// arrow costs exactly one guard — one allocation and 7 heap-class
/// instructions — per call.  The cross-boundary chain pays the same guard
/// per call plus the Fig. 9 wrappers; its guards come from the `⊸` glue,
/// not from the compiler, which reports none.
#[test]
fn e3_static_arrows_are_free_and_dynamic_arrows_pay_one_guard_per_call() {
    let system = AffineCase::standard();
    for n in SIZES {
        let k = n as u64;
        let out = compiled(&system, AffProgram::Affi(affine_chain(n, false)));
        assert_eq!(out.dynamic_guards, 0, "static, n = {n}");
        let r = run_lcvm(out.expr);
        assert_eq!(
            cost(r.steps, r.counters),
            (1 + 5 * k, 0, 0),
            "static, n = {n}"
        );
        let out = compiled(&system, AffProgram::Affi(affine_chain(n, true)));
        assert_eq!(out.dynamic_guards, n, "dynamic, n = {n}");
        let r = run_lcvm(out.expr);
        assert_eq!(
            cost(r.steps, r.counters),
            (1 + 30 * k, k, 7 * k),
            "dynamic, n = {n}"
        );
        let out = compiled(&system, AffProgram::Ml(cross_boundary_affine_chain(n)));
        assert_eq!(out.dynamic_guards, 0, "cross-boundary, n = {n}");
        let r = run_lcvm(out.expr);
        assert_eq!(
            cost(r.steps, r.counters),
            (1 + 58 * k, k, 7 * k),
            "cross-boundary, n = {n}"
        );
    }
}

/// E4 (§4, Fig. 8): one `thunk(·)` guard.  Creating it is one allocation
/// and 2 heap-class steps (evaluating `ref 1`, then returning through its
/// `RefK` frame); forcing it once adds 5: `!r` is 2 and `r := 0` is 3.
#[test]
fn e4_one_guard_costs_one_allocation_and_seven_heap_instructions() {
    // (λx. x + 1) 41
    let call = |arg: Expr| Expr::app(Expr::lam("x", Expr::add(Expr::var("x"), Expr::int(1))), arg);
    let r = run_lcvm(call(Expr::int(41)));
    assert_eq!(cost(r.steps, r.counters), (10, 0, 0), "raw call");
    // thunk(41); 42
    let r = run_lcvm(Expr::seq(thunk_guard(Expr::int(41)), Expr::int(42)));
    assert_eq!(cost(r.steps, r.counters), (9, 1, 2), "guard never forced");
    // let t = thunk(41) in (λx. x + 1) (t ())
    let r = run_lcvm(Expr::let_(
        "t",
        thunk_guard(Expr::int(41)),
        call(Expr::app(Expr::var("t"), Expr::unit())),
    ));
    assert_eq!(cost(r.steps, r.counters), (35, 1, 7), "guarded call");
}

// ---------------------------------------------------------------------------
// E5, E6: memory management on LCVM (§5).

/// An L3 → MiniML transfer: L3 allocates `depth` nested tensor pairs in a
/// manual cell, `gcmov` hands the cell to MiniML, and MiniML reads it.
fn transfer_to_ml_workload(depth: usize) -> PolyExpr {
    let mut payload = L3Expr::bool_(true);
    let mut ml_ty = PolyType::Int;
    for _ in 0..depth {
        payload = L3Expr::pair(payload, L3Expr::bool_(false));
        ml_ty = PolyType::prod(ml_ty, PolyType::Int);
    }
    PolyExpr::deref(PolyExpr::boundary(
        L3Expr::new(payload),
        PolyType::ref_(ml_ty),
    ))
}

/// The opposite direction, which must copy: MiniML allocates the payload,
/// L3 receives a fresh manual cell and frees it.
fn transfer_to_l3_workload(depth: usize) -> L3Expr {
    let mut payload = PolyExpr::int(1);
    let mut l3_ty = L3Type::Bool;
    for _ in 0..depth {
        payload = PolyExpr::pair(payload, PolyExpr::int(0));
        l3_ty = L3Type::tensor(l3_ty, L3Type::Bool);
    }
    L3Expr::free(L3Expr::boundary(
        PolyExpr::ref_(payload),
        L3Type::ref_like(l3_ty),
    ))
}

/// E5 (§5): `gcmov` moves the L3 cell to the collector without copying it,
/// so the L3 → MiniML transfer allocates once at every payload depth;
/// MiniML → L3 allocates a second, manual cell and frees it.  Only the
/// conversion of the contents grows with the depth.
#[test]
fn e5_gcmov_transfers_without_copying() {
    // (cells handed to the collector, frees)
    let moved = |r: &lcvm::RunResult| (r.heap.stats().gcmovs, r.counters.heap_frees);
    let system = MemGcCase::standard();
    for d in SIZES {
        let k = d as u64;
        let r = run_lcvm(compiled(&system, MgProgram::Ml(transfer_to_ml_workload(d))));
        assert_eq!(
            cost(r.steps, r.counters),
            (41 + 22 * k, 1, 12),
            "to MiniML, d = {d}"
        );
        assert_eq!(moved(&r), (1, 0), "to MiniML, d = {d}");
        let r = run_lcvm(compiled(&system, MgProgram::L3(transfer_to_l3_workload(d))));
        assert_eq!(
            cost(r.steps, r.counters),
            (44 + 25 * k, 2, 10),
            "to L3, d = {d}"
        );
        assert_eq!(moved(&r), (0, 1), "to L3, d = {d}");
    }
}

/// `n` GC'd cells, each bound once and read once, except that every 4th is
/// read twice; all of them are garbage by the end, when an L3 allocation,
/// whose compilation calls the collector first, finishes the program.
fn gc_pressure_workload(n: usize) -> PolyExpr {
    let mut acc = PolyExpr::int(0);
    for i in 0..n {
        let reads = if i % 4 == 0 {
            PolyExpr::add(
                PolyExpr::deref(PolyExpr::var("c")),
                PolyExpr::deref(PolyExpr::var("c")),
            )
        } else {
            PolyExpr::deref(PolyExpr::var("c"))
        };
        let cell = PolyExpr::app(
            PolyExpr::lam("c", PolyType::ref_(PolyType::Int), reads),
            PolyExpr::ref_(PolyExpr::int(i as i64)),
        );
        acc = PolyExpr::add(acc, cell);
    }
    PolyExpr::add(
        acc,
        PolyExpr::deref(PolyExpr::boundary(
            L3Expr::new(L3Expr::bool_(true)),
            PolyType::ref_(PolyType::Int),
        )),
    )
}

/// `n` nested L3 `new`/`free` pairs, which never leave garbage behind.
fn manual_pressure_workload(n: usize) -> L3Expr {
    let mut e = L3Expr::bool_(true);
    for _ in 0..n {
        e = L3Expr::if_(
            L3Expr::free(L3Expr::new(e)),
            L3Expr::bool_(true),
            L3Expr::bool_(false),
        );
    }
    e
}

/// E6 (§5): GC'd allocation leaves its cells for the collector, which takes
/// all of them in its one run before the L3 allocation; manual `new`/`free`
/// keeps at most one cell live, so each of its collector runs finds nothing.
///
/// The manual pipeline nests `n` deep, and the debug-mode typecheck and
/// compile of a 32-deep one overflow the default test-thread stack, so this
/// law stops at 16.
#[test]
fn e6_gc_collects_the_garbage_manual_management_never_makes() {
    // (allocations, frees, collector runs, cells collected, peak live)
    let heap = |r: &lcvm::RunResult| {
        let (c, h) = (r.counters, r.heap.stats());
        (
            c.heap_allocs,
            c.heap_frees,
            h.gc_runs,
            h.collected,
            c.heap_peak_live,
        )
    };
    let system = MemGcCase::standard();
    for n in SIZES.into_iter().filter(|&n| n <= 16) {
        let k = n as u64;
        let r = run_lcvm(compiled(
            &system,
            MgProgram::L3(manual_pressure_workload(n)),
        ));
        assert_eq!(r.steps, 1 + 32 * k, "manual, n = {n}");
        assert_eq!(heap(&r), (k, k, k, 0, k.min(1)), "manual, n = {n}");
        let r = run_lcvm(compiled(&system, MgProgram::Ml(gc_pressure_workload(n))));
        assert_eq!(heap(&r), (k + 1, k, 1, k, k.max(1)), "GC'd, n = {n}");
    }
}
