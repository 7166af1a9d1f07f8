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

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
/// wrappers) is recursive and builds a new node at every level, so repeated
/// boundary crossings at the same type pair — the common case in a
/// `semint sweep` — pay the full derivation cost every time without a cache.
/// `GlueCache` makes every derivation after the first O(1): both successful
/// derivations **and** refutations (`None`) are memoized, so a type checker
/// probing many inconvertible pairs benefits as much as a compiler emitting
/// glue.
///
/// Cloning a `GlueCache` is cheap and **shares** the underlying table and
/// counters (they sit together behind one [`Arc`]), so the clones of one
/// conversion scheme held by a pair's type checker, compiler and model
/// checker all consult one table.  Each case study owns one such cache for
/// the whole sweep, shared by every worker.
///
/// The table is keyed by bytes, not by types: a pair `(a, b)` is stored
/// under [`encode_key`]`(a)` followed by `encode_key(b)`, the stream each
/// side's [`Hash`] writes, with discriminants and lengths as varints and
/// every string closed by `0xff`.  For types whose `Hash` is derived that
/// stream is prefix-free, so two pairs share an entry exactly when they are
/// equal (`tests/glue_cache.rs` checks it for the six source-type enums).
/// `TA` and `TB` must hash that way: a hand-written `Hash` that writes the
/// same bytes for two unequal values would give them one entry's glue.
///
/// The hot path is engineered for the sweep engine's access pattern — many
/// parallel workers, ~99% hits after warm-up:
///
/// * the table sits behind an [`RwLock`], so concurrent hits never serialize
///   against each other (only the rare miss takes the write lock);
/// * a lookup encodes its pair **once**, into a buffer each thread reuses,
///   and probes the one flat map with those bytes: the map hashes them once
///   and compares bytes, not type trees, and once the thread's buffer has
///   grown to the pair's length a hit allocates nothing;
/// * only a miss copies the bytes into a boxed key, so an entry costs one
///   key allocation plus its glue, and keeps no type tree alive;
/// * cached pairs are stored behind an [`Arc`], so a hit returns a pointer
///   clone of the glue, not a deep copy ([`GlueCache::is_derivable`] answers
///   the type checker's yes/no queries without touching the glue at all);
///   the §4 and §5 rule sets also keep each direction behind an `Arc`, so
///   compound glue points at its memoized sub-glue instead of copying it;
/// * derivations run *outside* the lock — recursive sub-derivations re-enter
///   the cache without deadlocking, at the price of occasional duplicated
///   work under contention (harmless: derivation is deterministic);
/// * the number of memoized pairs is a counter bumped only when an insert
///   finds its slot vacant, so [`GlueCache::stats`] and [`GlueCache::len`]
///   are O(1) and never walk the table.
#[derive(Debug)]
pub struct GlueCache<TA, TB, G> {
    shared: Arc<SharedGlue<G>>,
    /// The cache answers pairs of these types; it stores none of them.
    pair: PhantomData<fn(&TA, &TB)>,
}

/// The state every clone of a [`GlueCache`] shares.
#[derive(Debug)]
struct SharedGlue<G> {
    table: RwLock<GlueTable<G>>,
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicUsize,
}

/// The memoization table of a [`GlueCache`]: one map from an encoded type
/// pair to its derivation.  `None` entries record refutations.
type GlueTable<G> = HashMap<Box<[u8]>, Option<Arc<ConversionPair<G>>>>;

thread_local! {
    /// The buffer this thread encodes its queries into, kept between
    /// lookups so that a warm probe allocates nothing.
    static QUERY: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Appends the encoding of `value` to `out`: the stream its [`Hash`]
/// writes, with each discriminant and length as a LEB128 varint (one byte
/// below 128), each string as its bytes closed by `0xff` (which UTF-8 never
/// contains) and every other integer at its fixed width.  For a type whose
/// `Hash` is derived the encoding is prefix-free, so a [`GlueCache`] keys
/// the pair `(a, b)` by `encode_key(a)` followed by `encode_key(b)`.
pub fn encode_key(value: &impl Hash, out: &mut Vec<u8>) {
    value.hash(&mut KeyWriter(out));
}

/// The [`Hasher`] behind [`encode_key`]: it records what it is fed.
struct KeyWriter<'a>(&'a mut Vec<u8>);

impl KeyWriter<'_> {
    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.0.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.0.push(n as u8);
    }
}

impl Hasher for KeyWriter<'_> {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, byte: u8) {
        self.0.push(byte);
    }

    fn write_usize(&mut self, n: usize) {
        self.varint(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.varint(n as u64);
    }

    fn finish(&self) -> u64 {
        unreachable!("a key writer records bytes and is never asked for a hash")
    }
}

impl<TA, TB, G> Clone for GlueCache<TA, TB, G> {
    /// Clones share the table and counters; see the type-level docs.
    fn clone(&self) -> Self {
        GlueCache {
            shared: Arc::clone(&self.shared),
            pair: PhantomData,
        }
    }
}

impl<TA, TB, G> Default for GlueCache<TA, TB, G> {
    fn default() -> Self {
        GlueCache {
            shared: Arc::new(SharedGlue {
                table: RwLock::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                entries: AtomicUsize::new(0),
            }),
            pair: PhantomData,
        }
    }
}

impl<TA: Hash, TB: Hash, G> GlueCache<TA, TB, G> {
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
        self.lookup(a, b, derive, Option::clone)
    }

    /// Whether `a ∼ b` is derivable: the yes/no answer of
    /// [`GlueCache::get_or_derive`], counted and memoized the same way.
    /// This is the type checker's path: a hit reads the memoized answer
    /// without touching its glue.
    pub fn is_derivable(
        &self,
        a: &TA,
        b: &TB,
        derive: impl FnOnce() -> Option<ConversionPair<G>>,
    ) -> bool {
        self.lookup(a, b, derive, Option::is_some)
    }

    /// One lookup of `(a, b)`: encodes the pair once, counts a hit or a
    /// miss, runs `derive` and memoizes its answer on a miss, and reads the
    /// table's entry with `answer`.
    fn lookup<R>(
        &self,
        a: &TA,
        b: &TB,
        derive: impl FnOnce() -> Option<ConversionPair<G>>,
        answer: impl FnOnce(&Option<Arc<ConversionPair<G>>>) -> R,
    ) -> R {
        let shared = &*self.shared;
        // The buffer is taken, not borrowed, so a lookup that re-entered
        // this one while it holds the buffer would encode into a fresh one
        // instead of failing.
        let mut query = QUERY.take();
        query.clear();
        encode_key(a, &mut query);
        encode_key(b, &mut query);
        let table = shared.table.read().expect("glue cache poisoned");
        if let Some(found) = table.get(query.as_slice()) {
            shared.hits.fetch_add(1, Ordering::Relaxed);
            let hit = answer(found);
            drop(table);
            QUERY.set(query);
            return hit;
        }
        drop(table);
        shared.misses.fetch_add(1, Ordering::Relaxed);
        // The key is boxed and the buffer handed back before deriving:
        // structural derivations recurse into this cache for their
        // sub-pairs, on this thread.
        let key = Box::from(query.as_slice());
        QUERY.set(query);
        let derived = derive().map(Arc::new);
        let mut table = shared.table.write().expect("glue cache poisoned");
        match table.entry(key) {
            // A racing lookup of the same pair inserted first: keep its
            // answer so every caller shares one glue pointer.
            Entry::Occupied(slot) => answer(slot.get()),
            Entry::Vacant(slot) => {
                shared.entries.fetch_add(1, Ordering::Relaxed);
                answer(slot.insert(derived))
            }
        }
    }

    /// Number of memoized type pairs.
    pub fn len(&self) -> usize {
        self.shared.entries.load(Ordering::Relaxed)
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss counters and table size.
    pub fn stats(&self) -> GlueCacheStats {
        GlueCacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
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
    /// Language-A source types (`τA`), hashed structurally: the glue cache
    /// keys a pair by what its `Hash` writes (see [`GlueCache`]).
    type TyA: Clone + Eq + Hash;
    /// Language-B source types (`τB`), hashed as `TyA` is.
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

    /// Is `a ∼ b` derivable?  One lookup, hit or miss; on a warm cache it
    /// is one map probe with no glue traffic — the path every
    /// convertibility query of a type checker takes.
    fn derivable(&self, a: &Self::TyA, b: &Self::TyB) -> bool {
        self.glue_cache()
            .is_derivable(a, b, || self.derive_uncached(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

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
        // The yes/no path answers from the cache without glue…
        assert!(cache.is_derivable(&"bool", &"int", || unreachable!("must be cached")));
        assert!(!cache.is_derivable(&"bool", &"array", || unreachable!("must be cached")));
        assert_eq!(cache.stats().hits, stats.hits + 2);
        // …and on a miss derives, memoizes and counts one miss.
        assert!(!cache.is_derivable(&"bool", &"ref", || None));
        assert!(cache
            .get_or_derive(&"bool", &"ref", || unreachable!("must be cached"))
            .is_none());
        let after = cache.stats();
        assert_eq!((after.hits, after.misses, after.entries), (5, 3, 3));
    }

    #[test]
    fn each_lookup_hashes_each_side_once_however_often_the_table_grew() {
        /// How often each side's `Hash` ran.
        static HASHES: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        /// A key of side `SIDE` whose `Hash` counts its calls.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Counted<const SIDE: usize>(u32);
        impl<const SIDE: usize> Hash for Counted<SIDE> {
            fn hash<H: Hasher>(&self, state: &mut H) {
                HASHES[SIDE].fetch_add(1, Ordering::Relaxed);
                self.0.hash(state);
            }
        }
        let hashes = || HASHES.each_ref().map(|side| side.load(Ordering::Relaxed));
        let cache: GlueCache<Counted<0>, Counted<1>, u32> = GlueCache::new();
        let pairs = 10_000;
        for i in 0..pairs {
            let before = hashes();
            let glue = cache.get_or_derive(&Counted(i), &Counted(i + 1), || {
                Some(ConversionPair::new(i, i + 1))
            });
            assert_eq!(glue.map(|p| p.a_to_b), Some(i));
            let after = hashes();
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [1, 1],
                "miss {i}"
            );
        }
        assert_eq!(cache.len(), pairs as usize);
        for i in 0..pairs {
            let before = hashes();
            let (a, b) = (Counted(i), Counted(i + 1));
            if i % 2 == 0 {
                let glue = cache.get_or_derive(&a, &b, || unreachable!("must be cached"));
                assert_eq!(glue.map(|p| p.b_to_a), Some(i + 1));
            } else {
                assert!(cache.is_derivable(&a, &b, || unreachable!("must be cached")));
            }
            let after = hashes();
            assert_eq!(
                [after[0] - before[0], after[1] - before[1]],
                [1, 1],
                "hit {i}"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (u64::from(pairs), u64::from(pairs))
        );
    }

    #[test]
    fn keys_are_prefix_free() {
        // A string is closed by 0xff, so ("a", "bc") and ("ab", "c") write
        // different bytes and get two entries.
        let cache: GlueCache<&str, &str, u8> = GlueCache::new();
        cache.get_or_derive(&"a", &"bc", || Some(ConversionPair::new(1, 1)));
        let other = cache.get_or_derive(&"ab", &"c", || Some(ConversionPair::new(2, 2)));
        assert_eq!(other.map(|p| p.a_to_b), Some(2));
        assert_eq!(cache.len(), 2);
        let mut key = Vec::new();
        encode_key(&"ab", &mut key);
        assert_eq!(key, b"ab\xff");
        // A discriminant is one byte below 128, and a length a varint.
        key.clear();
        encode_key(&Some(7u8), &mut key);
        assert_eq!(key, [1, 7]);
        key.clear();
        encode_key(&vec![9u8; 300], &mut key);
        assert_eq!((&key[..3], key.len()), (&[0xac, 0x02, 9][..], 302));
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
    fn glue_cache_counts_a_raced_pair_once() {
        let cache: GlueCache<u8, u8, u8> = GlueCache::new();
        // Both lookups wait inside `derive` until the other has missed too,
        // so both insert the same pair.
        let both_missed = Barrier::new(2);
        let [first, second] = std::thread::scope(|s| {
            let lookup = || {
                cache.get_or_derive(&1, &2, || {
                    both_missed.wait();
                    Some(ConversionPair::new(3, 4))
                })
            };
            let first = s.spawn(lookup);
            let second = s.spawn(lookup);
            [first, second].map(|t| t.join().expect("lookup panicked").unwrap())
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));
        assert_eq!(cache.len(), 1);
        // The loser of the race returns the winner's stored glue.
        assert!(Arc::ptr_eq(&first, &second));
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
