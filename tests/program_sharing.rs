//! A source program's clone is a pointer copy, and so is every shrink
//! candidate and every compiled artifact.
//!
//! The six source-expression enums keep their children behind `Arc`, as the
//! six source-type enums do (`tests/type_sharing.rs`), so cloning a
//! generated scenario's program copies its root node and bumps the
//! reference counts of its children: it must neither allocate nor free.
//! [`CaseStudy::shrink`] proposes a program's immediate subterms, so its
//! candidates are such clones too, and the only block it may leave behind
//! is the buffer of the `Vec` it returns.  The targets keep their code
//! behind `Arc` too, and affine artifacts their static-binder set, so the
//! copy of an artifact that a model-checked sweep keeps is free as well.
//! Without a static binder the affine model check judges the run it is
//! given and runs nothing of its own, so it allocates nothing either.  A
//! counting global allocator measures all of these on the calling thread,
//! for every preset and seeds `0..200` of each case study.

use semint::affine::AffineCase;
use semint::harness::CaseStudy;
use semint::memgc::MemGcCase;
use semint::sharedmem::SharedMemCase;
use semint_core::case::GenProfile;
use std::hint::black_box;

mod counting_alloc;
use counting_alloc::counted;

fn assert_program_clones_allocate_nothing<C: CaseStudy>(case: &C) {
    assert_eq!(
        counted(|| drop(black_box(vec![0u8; 8]))),
        (1, 1),
        "the allocator counts this thread's allocations"
    );
    for profile in GenProfile::presets() {
        for seed in 0..200 {
            let program = case.generate(seed, &profile).program;
            let moved = counted(|| drop(black_box(program.clone())));
            assert_eq!(
                moved,
                (0, 0),
                "{} {} seed {seed}: cloning and dropping `{program}` made (allocations, frees)",
                case.name(),
                profile.name,
            );
        }
    }
}

fn assert_shrink_allocates_only_its_vec<C: CaseStudy>(case: &C) {
    for profile in GenProfile::presets() {
        for seed in 0..200 {
            let program = case.generate(seed, &profile).program;
            let mut candidates = Vec::new();
            let (allocs, frees) = counted(|| candidates = case.shrink(&program));
            // Growing the `Vec` may reallocate (an allocation and a free);
            // its buffer is the one block that outlives the call.
            let buffer = u64::from(candidates.capacity() > 0);
            assert_eq!(
                allocs - frees,
                buffer,
                "{} {} seed {seed}: shrinking `{program}` into {} candidates kept \
                 {allocs} allocations and made {frees} frees",
                case.name(),
                profile.name,
                candidates.len(),
            );
            assert_eq!(
                counted(|| drop(black_box(candidates))),
                (0, buffer),
                "{} {} seed {seed}: dropping the shrink candidates of `{program}` \
                 made (allocations, frees)",
                case.name(),
                profile.name,
            );
        }
    }
}

fn assert_artifact_clones_allocate_nothing<C: CaseStudy>(case: &C) {
    for profile in GenProfile::presets() {
        for seed in 0..200 {
            let program = case.generate(seed, &profile).program;
            let compiled = case.compile(&program).expect("generated programs compile");
            assert_eq!(
                counted(|| drop(black_box(compiled.clone()))),
                (0, 0),
                "{} {} seed {seed}: cloning and dropping the artifact of `{program}` \
                 made (allocations, frees)",
                case.name(),
                profile.name,
            );
        }
    }
}

#[test]
fn sharedmem_program_clones_allocate_nothing() {
    assert_program_clones_allocate_nothing(&SharedMemCase::standard());
}

#[test]
fn affine_program_clones_allocate_nothing() {
    assert_program_clones_allocate_nothing(&AffineCase::standard());
}

#[test]
fn memgc_program_clones_allocate_nothing() {
    assert_program_clones_allocate_nothing(&MemGcCase::standard());
}

#[test]
fn sharedmem_shrink_allocates_only_its_vec() {
    assert_shrink_allocates_only_its_vec(&SharedMemCase::standard());
}

#[test]
fn affine_shrink_allocates_only_its_vec() {
    assert_shrink_allocates_only_its_vec(&AffineCase::standard());
}

#[test]
fn memgc_shrink_allocates_only_its_vec() {
    assert_shrink_allocates_only_its_vec(&MemGcCase::standard());
}

#[test]
fn sharedmem_artifact_clones_allocate_nothing() {
    assert_artifact_clones_allocate_nothing(&SharedMemCase::standard());
}

#[test]
fn affine_artifact_clones_allocate_nothing() {
    assert_artifact_clones_allocate_nothing(&AffineCase::standard());
}

#[test]
fn memgc_artifact_clones_allocate_nothing() {
    assert_artifact_clones_allocate_nothing(&MemGcCase::standard());
}

#[test]
fn affine_judgement_without_a_static_binder_allocates_nothing() {
    let case = AffineCase::standard();
    let budget = case.model_budget();
    let mut judged = 0;
    for profile in GenProfile::presets() {
        for seed in 0..200 {
            let scenario = case.generate(seed, &profile);
            let compiled = case
                .compile(&scenario.program)
                .expect("generated programs compile");
            if !compiled.static_binders.is_empty() {
                continue;
            }
            let report = case.execute(compiled.clone(), budget);
            let mut verdict = Ok(());
            let counts = counted(|| {
                verdict = case.model_judgement(
                    &scenario.program,
                    &scenario.ty,
                    &compiled,
                    &report,
                    budget,
                )
            });
            verdict.unwrap_or_else(|f| panic!("{} seed {seed}: {f}", profile.name));
            assert_eq!(
                counts,
                (0, 0),
                "{} seed {seed}: judging the run of `{}` made (allocations, frees)",
                profile.name,
                scenario.program,
            );
            judged += 1;
        }
    }
    assert!(judged > 0, "no artifact without a static binder");
}
