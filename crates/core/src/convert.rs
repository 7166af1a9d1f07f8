//! The convertibility judgment `τA ∼ τB`.
//!
//! Paper §2.2: the designer of an interoperability system must *explicitly*
//! declare which pairs of source types are interconvertible, and provide
//! target-level glue code witnessing each direction.  The judgment is
//! deliberately **declarative and extensible**: new conversions can be added
//! later by implementers or end users.
//!
//! Each language pair states its judgment as one [`ConversionScheme`]: a
//! structural derivation that mirrors the paper's inference rules (Fig. 4,
//! Fig. 9, §5) and answers a type pair with its [`ConversionPair`] of glue,
//! or with `None` when no rule applies.  The scheme's [`GlueCache`] memoizes
//! every answer, refutations included, so the scheme is the judgment that
//! the pair's typechecker asks ([`ConversionScheme::derivable`]) and the glue
//! table that its compiler reads ([`ConversionScheme::derive_pair`]).
//! Extending the judgment means adding a rule to the scheme's derivation.
//!
//! Both are generic over the representation of glue code (a `stacklang`
//! program for case study 1, an `lcvm` expression-to-expression wrapper for
//! case studies 2 and 3).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A pair of target-level conversions witnessing `τA ∼ τB`.
///
/// `a_to_b` is the glue code `C_{τA ↦ τB}`; `b_to_a` is `C_{τB ↦ τA}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversionPair<G> {
    /// Glue code converting (target representations of) `τA` into `τB`.
    pub a_to_b: G,
    /// Glue code converting (target representations of) `τB` into `τA`.
    pub b_to_a: G,
}

impl<G> ConversionPair<G> {
    /// Creates a conversion pair from its two directions.
    pub fn new(a_to_b: G, b_to_a: G) -> Self {
        ConversionPair { a_to_b, b_to_a }
    }
}

/// A snapshot of a [`GlueCache`]'s effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlueCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the structural derivation.
    pub misses: u64,
    /// Distinct type pairs currently memoized (including non-derivable ones).
    pub entries: usize,
}

impl GlueCacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The counter difference `self - earlier` (entries taken from `self`),
    /// used by sweep drivers to report per-sweep figures from a shared cache.
    pub fn since(&self, earlier: &GlueCacheStats) -> GlueCacheStats {
        GlueCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// A memoization table for structural glue derivation, keyed on the type
/// pair `(τA, τB)`.
///
/// Deriving compound glue (`τ1 + τ2 ∼ [int]`, nested products, higher-order
/// wrappers) is recursive and allocates fresh target code at every level, so
/// repeated boundary crossings at the same type pair — the common case in a
/// `semint sweep` — pay the full derivation cost every time without a cache.
/// `GlueCache` makes every derivation after the first O(1): both successful
/// derivations **and** refutations (`None`) are memoized, so a type checker
/// probing many inconvertible pairs benefits as much as a compiler emitting
/// glue.
///
/// Cloning a `GlueCache` is cheap and **shares** the underlying table and
/// counters (the storage sits behind an [`Arc`]), so the clones of one
/// conversion scheme held by a pair's type checker, compiler and model
/// checker all consult one table.  Each case study owns one such cache for
/// the whole sweep, shared by every worker.
///
/// The hot path is engineered for the sweep engine's access pattern — many
/// parallel workers, ~99% hits after warm-up:
///
/// * the table sits behind an [`RwLock`], so concurrent hits never serialize
///   against each other (only the rare miss takes the write lock);
/// * the table is a *nested* map (`TA → TB → entry`), so a hit needs **no**
///   key clone — looking up a deep compound type pair allocates nothing;
/// * cached pairs are stored behind an [`Arc`], so a hit returns a pointer
///   clone of the glue, not a deep copy ([`GlueCache::is_derivable`] answers
///   the type checker's yes/no queries without touching the glue at all);
/// * derivations run *outside* the lock — recursive sub-derivations re-enter
///   the cache without deadlocking, at the price of occasional duplicated
///   work under contention (harmless: derivation is deterministic).
#[derive(Debug)]
pub struct GlueCache<TA, TB, G> {
    entries: Arc<RwLock<GlueTable<TA, TB, G>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

/// The memoization table of a [`GlueCache`]: a nested map so lookups borrow
/// the query types instead of cloning them into a tuple key.  `None` entries
/// record refutations.
type GlueTable<TA, TB, G> = HashMap<TA, HashMap<TB, Option<Arc<ConversionPair<G>>>>>;

impl<TA, TB, G> Clone for GlueCache<TA, TB, G> {
    /// Clones share the table and counters; see the type-level docs.
    fn clone(&self) -> Self {
        GlueCache {
            entries: Arc::clone(&self.entries),
            hits: Arc::clone(&self.hits),
            misses: Arc::clone(&self.misses),
        }
    }
}

impl<TA, TB, G> Default for GlueCache<TA, TB, G> {
    fn default() -> Self {
        GlueCache {
            entries: Arc::new(RwLock::new(HashMap::new())),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl<TA, TB, G> GlueCache<TA, TB, G>
where
    TA: Eq + Hash + Clone,
    TB: Eq + Hash + Clone,
{
    /// Creates an empty cache.
    pub fn new() -> Self {
        GlueCache::default()
    }

    /// Returns the memoized derivation for `(a, b)` behind its shared
    /// pointer, running `derive` (and memoizing its answer, derivable or
    /// not) on the first lookup.
    pub fn get_or_derive(
        &self,
        a: &TA,
        b: &TB,
        derive: impl FnOnce() -> Option<ConversionPair<G>>,
    ) -> Option<Arc<ConversionPair<G>>> {
        if let Some(found) = self
            .entries
            .read()
            .expect("glue cache poisoned")
            .get(a)
            .and_then(|by_b| by_b.get(b))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The lock is released while deriving: structural derivations recurse
        // back into this cache for their sub-pairs.
        let derived = derive().map(Arc::new);
        self.entries
            .write()
            .expect("glue cache poisoned")
            .entry(a.clone())
            .or_default()
            .entry(b.clone())
            .or_insert(derived)
            .clone()
    }

    /// Whether `a ∼ b` is derivable, **if** the answer is already memoized
    /// (`None` means "not cached yet").  This is the type checker's fast
    /// path: a convertibility oracle query on a warm cache costs one map
    /// probe and never touches the glue.
    pub fn is_derivable(&self, a: &TA, b: &TB) -> Option<bool> {
        let cached = self
            .entries
            .read()
            .expect("glue cache poisoned")
            .get(a)
            .and_then(|by_b| by_b.get(b))
            .map(|entry| entry.is_some());
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Number of memoized type pairs.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("glue cache poisoned")
            .values()
            .map(|by_b| by_b.len())
            .sum()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss counters and table size.
    pub fn stats(&self) -> GlueCacheStats {
        GlueCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// A structural derivation of conversion pairs over a type pair, memoized
/// through a [`GlueCache`].
///
/// This is the paper's step 2 (declare `τA ∼ τB`, witness it with glue)
/// factored out of the three case studies: each conversion rule set
/// implements [`ConversionScheme::derive_uncached`] with its inference-rule
/// `match` and exposes its cache via [`ConversionScheme::glue_cache`]; the
/// provided [`ConversionScheme::derive_pair`] entry point then memoizes every
/// query.  Recursive rules should recurse through the *cached* entry point so
/// compound glue is assembled from memoized parts.
pub trait ConversionScheme {
    /// Language-A source types (`τA`).
    type TyA: Clone + Eq + Hash;
    /// Language-B source types (`τB`).
    type TyB: Clone + Eq + Hash;
    /// The target-level glue representation (a `stacklang` program, an
    /// `lcvm` wrapper function, …).
    type Glue: Clone;

    /// One structural derivation of `a ∼ b`, mirroring the paper's
    /// inference rules.  Sub-derivations should go through
    /// [`ConversionScheme::derive_pair`] (or an inherent wrapper around it)
    /// so they are memoized too.
    fn derive_uncached(&self, a: &Self::TyA, b: &Self::TyB) -> Option<ConversionPair<Self::Glue>>;

    /// The memoization table threaded through every derivation.
    fn glue_cache(&self) -> &GlueCache<Self::TyA, Self::TyB, Self::Glue>;

    /// Memoized derivation of `a ∼ b` with its witnessing glue pair (shared
    /// with the cache — clone out of the [`Arc`] only when glue must be
    /// owned).
    fn derive_pair(&self, a: &Self::TyA, b: &Self::TyB) -> Option<Arc<ConversionPair<Self::Glue>>> {
        self.glue_cache()
            .get_or_derive(a, b, || self.derive_uncached(a, b))
    }

    /// Is `a ∼ b` derivable?  On a warm cache this is one map probe with no
    /// glue traffic — the path every convertibility oracle query takes.
    /// (Named to avoid clashing with the per-case `convertible` oracle
    /// traits, which are implemented in terms of this.)
    fn derivable(&self, a: &Self::TyA, b: &Self::TyB) -> bool {
        match self.glue_cache().is_derivable(a, b) {
            Some(answer) => answer,
            None => self.derive_pair(a, b).is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glue_cache_memoizes_hits_and_refutations() {
        let cache: GlueCache<&str, &str, u32> = GlueCache::new();
        let mut derivations = 0;
        let mut derive_once = |out: Option<ConversionPair<u32>>| {
            derivations += 1;
            out
        };
        let first = cache.get_or_derive(&"bool", &"int", || {
            derive_once(Some(ConversionPair::new(1, 2)))
        });
        assert_eq!(first.as_deref(), Some(&ConversionPair::new(1, 2)));
        let second = cache.get_or_derive(&"bool", &"int", || unreachable!("must be cached"));
        assert_eq!(second.as_deref(), Some(&ConversionPair::new(1, 2)));
        // A hit is a pointer clone of the memoized glue, not a deep copy.
        assert!(Arc::ptr_eq(
            first.as_ref().unwrap(),
            second.as_ref().unwrap()
        ));
        // Refutations are memoized too.
        assert!(cache.get_or_derive(&"bool", &"array", || None).is_none());
        assert!(cache
            .get_or_derive(&"bool", &"array", || unreachable!("must be cached"))
            .is_none());
        assert_eq!(derivations, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        // The derivable fast path answers from the cache without glue.
        assert_eq!(cache.is_derivable(&"bool", &"int"), Some(true));
        assert_eq!(cache.is_derivable(&"bool", &"array"), Some(false));
        assert_eq!(cache.is_derivable(&"bool", &"ref"), None);
        assert_eq!(cache.stats().hits, stats.hits + 2);
    }

    #[test]
    fn glue_cache_clones_share_storage() {
        let cache: GlueCache<u8, u8, u8> = GlueCache::new();
        let clone = cache.clone();
        clone.get_or_derive(&1, &2, || Some(ConversionPair::new(3, 4)));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache
                .get_or_derive(&1, &2, || unreachable!("shared with the clone"))
                .as_deref(),
            Some(&ConversionPair::new(3, 4))
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_stats_since_reports_the_difference() {
        let before = GlueCacheStats {
            hits: 3,
            misses: 2,
            entries: 2,
        };
        let after = GlueCacheStats {
            hits: 10,
            misses: 5,
            entries: 4,
        };
        let delta = after.since(&before);
        assert_eq!((delta.hits, delta.misses, delta.entries), (7, 3, 4));
        assert_eq!(GlueCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn conversion_scheme_default_methods_memoize() {
        struct Doubling {
            cache: GlueCache<u32, u32, u32>,
        }
        impl ConversionScheme for Doubling {
            type TyA = u32;
            type TyB = u32;
            type Glue = u32;
            fn derive_uncached(&self, a: &u32, b: &u32) -> Option<ConversionPair<u32>> {
                (*b == a * 2).then(|| ConversionPair::new(*a, *b))
            }
            fn glue_cache(&self) -> &GlueCache<u32, u32, u32> {
                &self.cache
            }
        }
        let scheme = Doubling {
            cache: GlueCache::new(),
        };
        assert!(scheme.derivable(&2, &4));
        assert!(scheme.derivable(&2, &4));
        assert!(!scheme.derivable(&2, &5));
        let stats = scheme.glue_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}
