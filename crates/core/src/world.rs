//! Step indices, the budget component of every case study's worlds.
//!
//! Every case study builds a different world (heap typings only in §3; heap
//! typing + affine flag store Θ in §4; GC'd heap typing + owned manual
//! fragments in §5), but all of them are step-indexed and all of them use
//! *approximation*: `⌊R⌋_j` restricts a relation to worlds with index `< j`.
//! The §3 executable model's world (`sharedmem::model::World`) pairs a
//! [`StepIndex`] with a heap typing and defines its own extension relation.

/// A step index `k` (the "budget" component of a world).
///
/// ```
/// use semint_core::StepIndex;
/// let k = StepIndex::new(5);
/// assert_eq!(k.get(), 5);
/// assert_eq!(StepIndex::from(5), k);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepIndex(pub u64);

impl StepIndex {
    /// Creates a step index.
    pub fn new(k: u64) -> Self {
        StepIndex(k)
    }

    /// The raw index.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl From<u64> for StepIndex {
    fn from(k: u64) -> Self {
        StepIndex(k)
    }
}
