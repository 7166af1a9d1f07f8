//! The LCVM heap: a single pool of locations holding garbage-collected or
//! manually-managed cells (Fig. 12).
//!
//! The same location names can be used as either GC'd (`ℓ ↦gc v`) or manually
//! managed (`ℓ ↦m v`) and are **re-used** after garbage collection or manual
//! `free` — this re-use is what makes the §5 world-extension relation
//! interesting, so the implementation preserves it faithfully via a free
//! list.
//!
//! # Layout
//!
//! The heap is a `Vec`-backed **slab**: location `ℓi` is index `i`, so
//! allocation is a pointer bump (or a free-list pop), reads and writes are
//! direct indexing, and dangling detection is an index/occupancy check
//! instead of a map lookup.  Freeing a manual cell vacates its slot in
//! place and pushes the location onto the free list; the next allocation
//! pops it (LIFO), which is exactly the re-use order the old map-based heap
//! exhibited.  Each slot carries the **epoch** it was last written in:
//! [`Heap::reset`] just bumps the heap's epoch and rewinds the bump pointer,
//! so a batch-lifetime heap resets in O(1) while retaining its capacity, and
//! slots surviving from a previous epoch read as dangling without ever being
//! scanned.
//!
//! The collector is a simple mark-and-sweep over GC'd cells only; manually
//! managed cells are never collected but are traced (a manual cell keeps the
//! GC'd cells it points to alive).  Mark state lives in a per-heap scratch
//! buffer (a stamp array plus a worklist) that is reused across collections,
//! so a `callgc`-heavy run allocates no transient mark sets.

use crate::value::Value;
use semint_core::ErrorCode;
use std::fmt;

/// A heap location `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u64);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// How a live cell is managed.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    /// A garbage-collected cell (`ℓ ↦gc v`), created by `ref`.
    Gc(Value),
    /// A manually-managed cell (`ℓ ↦m v`), created by `alloc`.
    Manual(Value),
}

impl Slot {
    /// The stored value, regardless of management discipline.
    pub fn value(&self) -> &Value {
        match self {
            Slot::Gc(v) | Slot::Manual(v) => v,
        }
    }

    /// True for manually-managed cells.
    pub fn is_manual(&self) -> bool {
        matches!(self, Slot::Manual(_))
    }
}

/// Errors raised by heap operations; [`HeapError::code`] maps them onto the
/// target's dynamic error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The location is not currently allocated (freed, collected, or never
    /// allocated).
    Dangling(Loc),
    /// `free` or `gcmov` was applied to a garbage-collected cell.
    NotManual(Loc),
}

impl HeapError {
    /// The dynamic error code the machine raises for this error.
    pub fn code(self) -> ErrorCode {
        ErrorCode::Ptr
    }
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::Dangling(l) => write!(f, "dangling location {l}"),
            HeapError::NotManual(l) => write!(f, "{l} is not manually managed"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Statistics the heap keeps about its own behaviour (used by the E6 / gc
/// pressure experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of GC'd allocations performed (`ref`).
    pub gc_allocs: u64,
    /// Number of manual allocations performed (`alloc`).
    pub manual_allocs: u64,
    /// Number of explicit `free`s.
    pub frees: u64,
    /// Number of `gcmov`s.
    pub gcmovs: u64,
    /// Number of collector runs.
    pub gc_runs: u64,
    /// Total number of cells reclaimed by the collector.
    pub collected: u64,
    /// Number of locations re-used from the free list.
    pub reused: u64,
    /// Peak number of simultaneously live cells (GC'd + manual).
    pub peak_live: u64,
}

/// One slab slot: the slot last written at index `i`, tagged with the heap
/// epoch it belongs to.  An entry is live iff its epoch matches the heap's
/// current epoch *and* it holds a slot — vacated (freed/collected) slots
/// keep their epoch but hold `None`.
#[derive(Debug, Clone)]
struct Entry {
    epoch: u64,
    slot: Option<Slot>,
}

/// The LCVM heap.
///
/// Equality compares the *logical* store — live cells in ascending location
/// order, the free list, the bump pointer, and the statistics — so a reset
/// slab with retained capacity is equal to [`Heap::new`], exactly as the old
/// map-based heap was.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    slots: Vec<Entry>,
    free_list: Vec<Loc>,
    /// Lowest never-allocated index of the current epoch (the bump pointer);
    /// every live or vacated current-epoch entry sits below it.
    next: u64,
    epoch: u64,
    live: u64,
    manual_live: u64,
    stats: HeapStats,
    /// Mark scratch for [`Heap::collect`]: `mark[i] == mark_stamp` means
    /// index `i` was marked by the collection in progress.  Reused across
    /// collections; never compared or harvested.
    mark: Vec<u64>,
    mark_stamp: u64,
    worklist: Vec<Loc>,
}

impl PartialEq for Heap {
    fn eq(&self, other: &Heap) -> bool {
        self.next == other.next
            && self.free_list == other.free_list
            && self.stats == other.stats
            && self.live == other.live
            && self.iter().eq(other.iter())
    }
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Clears the heap in place — no live cells, fresh location counter,
    /// zeroed statistics — in O(1): the slab's epoch is bumped and the bump
    /// pointer rewound, so capacity (and the GC scratch buffers) survive
    /// while every stale slot reads as dangling.  A reset heap is
    /// indistinguishable from [`Heap::new`].
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.next = 0;
        self.live = 0;
        self.manual_live = 0;
        self.free_list.clear();
        self.stats = HeapStats::default();
    }

    /// Moves the logical store out into a compact standalone heap — live
    /// cells, free list, bump pointer, statistics — and resets `self` for
    /// the next run.  A batch-lifetime machine hands the harvested heap to
    /// its [`crate::RunResult`] while keeping the slab (and its capacity)
    /// for the rest of the batch; the harvested heap is `==` to the heap
    /// the old move-out design produced.
    pub fn harvest(&mut self) -> Heap {
        let next = self.next as usize;
        let mut slots = Vec::with_capacity(next);
        for entry in self.slots.iter_mut().take(next) {
            slots.push(Entry {
                epoch: 0,
                slot: if entry.epoch == self.epoch {
                    entry.slot.take()
                } else {
                    None
                },
            });
        }
        let harvested = Heap {
            slots,
            free_list: std::mem::take(&mut self.free_list),
            next: self.next,
            epoch: 0,
            live: self.live,
            manual_live: self.manual_live,
            stats: self.stats,
            mark: Vec::new(),
            mark_stamp: 0,
            worklist: Vec::new(),
        };
        self.reset();
        harvested
    }

    /// The slab index of `l` if `l` could name a current-epoch slot.
    #[inline]
    fn index(&self, l: Loc) -> Option<usize> {
        let i = usize::try_from(l.0).ok()?;
        (i < self.next as usize).then_some(i)
    }

    /// The live entry at `l`, if any.
    #[inline]
    fn entry(&self, l: Loc) -> Option<&Slot> {
        let i = self.index(l)?;
        let entry = &self.slots[i];
        if entry.epoch == self.epoch {
            entry.slot.as_ref()
        } else {
            None
        }
    }

    #[inline]
    fn entry_mut(&mut self, l: Loc) -> Option<&mut Slot> {
        let i = self.index(l)?;
        let epoch = self.epoch;
        let entry = &mut self.slots[i];
        if entry.epoch == epoch {
            entry.slot.as_mut()
        } else {
            None
        }
    }

    fn next_loc(&mut self) -> Loc {
        if let Some(l) = self.free_list.pop() {
            self.stats.reused += 1;
            l
        } else {
            let l = Loc(self.next);
            self.next += 1;
            l
        }
    }

    /// Stores `slot` at the (just handed out) location `l`.
    fn place(&mut self, l: Loc, slot: Slot) {
        let i = l.0 as usize;
        let entry = Entry {
            epoch: self.epoch,
            slot: Some(slot),
        };
        if i == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[i] = entry;
        }
    }

    /// Allocates a garbage-collected cell (`ref e`).
    pub fn alloc_gc(&mut self, v: Value) -> Loc {
        let l = self.next_loc();
        self.stats.gc_allocs += 1;
        self.place(l, Slot::Gc(v));
        self.note_live();
        l
    }

    /// Allocates a manually-managed cell (`alloc e`).
    pub fn alloc_manual(&mut self, v: Value) -> Loc {
        let l = self.next_loc();
        self.stats.manual_allocs += 1;
        self.place(l, Slot::Manual(v));
        self.manual_live += 1;
        self.note_live();
        l
    }

    /// Raises the peak-live-cells statistic to the current population.
    fn note_live(&mut self) {
        self.live += 1;
        if self.live > self.stats.peak_live {
            self.stats.peak_live = self.live;
        }
    }

    /// Reads the value stored at `l`.
    pub fn read(&self, l: Loc) -> Result<&Value, HeapError> {
        self.entry(l).map(Slot::value).ok_or(HeapError::Dangling(l))
    }

    /// Writes `v` at `l`, preserving its management discipline.
    pub fn write(&mut self, l: Loc, v: Value) -> Result<(), HeapError> {
        match self.entry_mut(l) {
            Some(Slot::Gc(slot)) | Some(Slot::Manual(slot)) => {
                *slot = v;
                Ok(())
            }
            None => Err(HeapError::Dangling(l)),
        }
    }

    /// Frees a manually-managed cell; fails on GC'd or dangling locations.
    /// The vacated location goes onto the free list for re-use.
    pub fn free(&mut self, l: Loc) -> Result<Value, HeapError> {
        match self.entry(l) {
            Some(Slot::Manual(_)) => {
                let i = l.0 as usize;
                let v = match self.slots[i].slot.take() {
                    Some(Slot::Manual(v)) => v,
                    _ => unreachable!("checked above"),
                };
                self.free_list.push(l);
                self.live -= 1;
                self.manual_live -= 1;
                self.stats.frees += 1;
                Ok(v)
            }
            Some(Slot::Gc(_)) => Err(HeapError::NotManual(l)),
            None => Err(HeapError::Dangling(l)),
        }
    }

    /// Converts a manually-managed cell into a GC'd cell, keeping its
    /// identity and contents (`gcmov e`).
    pub fn gcmov(&mut self, l: Loc) -> Result<(), HeapError> {
        match self.entry(l) {
            Some(Slot::Manual(_)) => {
                let i = l.0 as usize;
                let v = match self.slots[i].slot.take() {
                    Some(Slot::Manual(v)) => v,
                    _ => unreachable!("checked above"),
                };
                self.slots[i].slot = Some(Slot::Gc(v));
                self.manual_live -= 1;
                self.stats.gcmovs += 1;
                Ok(())
            }
            Some(Slot::Gc(_)) => Err(HeapError::NotManual(l)),
            None => Err(HeapError::Dangling(l)),
        }
    }

    /// True if `l` is currently allocated.
    pub fn contains(&self, l: Loc) -> bool {
        self.entry(l).is_some()
    }

    /// The slot at `l`, if allocated (exposes whether it is GC'd or manual).
    pub fn slot(&self, l: Loc) -> Option<&Slot> {
        self.entry(l)
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True when no cells are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live manually-managed cells.
    pub fn manual_len(&self) -> usize {
        self.manual_live as usize
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Iterates over live cells in ascending location order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &Slot)> {
        let epoch = self.epoch;
        self.slots
            .iter()
            .take(self.next as usize)
            .enumerate()
            .filter_map(move |(i, entry)| {
                if entry.epoch == epoch {
                    entry.slot.as_ref().map(|s| (Loc(i as u64), s))
                } else {
                    None
                }
            })
    }

    /// Runs a mark-and-sweep collection (`callgc`).
    ///
    /// `roots` are the locations directly reachable from the machine state
    /// (environments and continuation frames), in any order and with
    /// duplicates.  Manual cells are never reclaimed, but they *are* traced:
    /// a GC'd cell referenced from a live manual cell survives.  Returns the
    /// number of reclaimed cells; reclaimed locations are vacated in place
    /// and pushed onto the free list in ascending order for re-use.
    pub fn collect(&mut self, roots: impl IntoIterator<Item = Loc>) -> usize {
        self.stats.gc_runs += 1;
        let next = self.next as usize;
        self.mark_stamp += 1;
        let stamp = self.mark_stamp;
        if self.mark.len() < next {
            self.mark.resize(next, 0);
        }
        let mut worklist = std::mem::take(&mut self.worklist);
        worklist.clear();
        worklist.extend(roots);
        // Manual cells are unconditional roots: the machine cannot see the
        // "owned heap fragments" the §5 model threads through values, so we
        // conservatively keep everything reachable from manual memory.
        for (i, entry) in self.slots.iter().enumerate().take(next) {
            if entry.epoch == self.epoch && entry.slot.as_ref().is_some_and(Slot::is_manual) {
                worklist.push(Loc(i as u64));
            }
        }
        while let Some(l) = worklist.pop() {
            // Out-of-slab locations (sentinels, stale pointers) have no slot
            // to trace and cannot be swept, so skipping them is the same as
            // the old map's "marked but absent" case.
            let Some(i) = usize::try_from(l.0).ok().filter(|i| *i < next) else {
                continue;
            };
            if self.mark[i] == stamp {
                continue;
            }
            self.mark[i] = stamp;
            let entry = &self.slots[i];
            if entry.epoch == self.epoch {
                if let Some(slot) = &entry.slot {
                    slot.value().collect_locs_into(&mut worklist);
                }
            }
        }
        worklist.clear();
        self.worklist = worklist;
        let mut reclaimed = 0;
        for i in 0..next {
            let entry = &mut self.slots[i];
            if entry.epoch == self.epoch
                && self.mark[i] != stamp
                && entry.slot.as_ref().is_some_and(|s| !s.is_manual())
            {
                entry.slot = None;
                self.free_list.push(Loc(i as u64));
                self.live -= 1;
                reclaimed += 1;
            }
        }
        self.stats.collected += reclaimed;
        reclaimed as usize
    }
}

impl fmt::Display for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (l, s)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match s {
                Slot::Gc(v) => write!(f, "{l} ↦gc {v}")?,
                Slot::Manual(v) => write!(f, "{l} ↦m {v}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gc_and_manual_allocation_read_write() {
        let mut h = Heap::new();
        let g = h.alloc_gc(Value::Int(1));
        let m = h.alloc_manual(Value::Int(2));
        assert_eq!(h.read(g).unwrap(), &Value::Int(1));
        assert_eq!(h.read(m).unwrap(), &Value::Int(2));
        h.write(m, Value::Int(5)).unwrap();
        assert_eq!(h.read(m).unwrap(), &Value::Int(5));
        assert_eq!(h.len(), 2);
        assert_eq!(h.manual_len(), 1);
    }

    #[test]
    fn free_only_applies_to_manual_cells() {
        let mut h = Heap::new();
        let g = h.alloc_gc(Value::Int(1));
        let m = h.alloc_manual(Value::Int(2));
        assert_eq!(h.free(g), Err(HeapError::NotManual(g)));
        assert_eq!(h.free(m), Ok(Value::Int(2)));
        assert_eq!(h.read(m), Err(HeapError::Dangling(m)));
        assert_eq!(h.free(m), Err(HeapError::Dangling(m)));
        assert_eq!(h.stats().frees, 1);
    }

    #[test]
    fn freed_locations_are_reused() {
        let mut h = Heap::new();
        let m = h.alloc_manual(Value::Int(2));
        h.free(m).unwrap();
        let m2 = h.alloc_gc(Value::Int(3));
        assert_eq!(m, m2, "the freed location is handed out again");
        assert_eq!(h.stats().reused, 1);
    }

    #[test]
    fn reading_a_reused_location_sees_the_new_cell() {
        // The paper's dangling-pointer hazard: after free + re-allocation a
        // stale pointer to the location observes the *new* cell — location
        // identity is all there is (Fig. 12 re-use).
        let mut h = Heap::new();
        let m = h.alloc_manual(Value::Int(2));
        h.free(m).unwrap();
        let m2 = h.alloc_gc(Value::Int(3));
        assert_eq!(m, m2);
        assert_eq!(h.read(m).unwrap(), &Value::Int(3));
    }

    #[test]
    fn gcmov_turns_manual_into_gc_keeping_identity() {
        let mut h = Heap::new();
        let m = h.alloc_manual(Value::Int(7));
        h.gcmov(m).unwrap();
        assert!(matches!(h.slot(m), Some(Slot::Gc(Value::Int(7)))));
        // A second gcmov (or a free) now fails: it is no longer manual.
        assert_eq!(h.gcmov(m), Err(HeapError::NotManual(m)));
        assert_eq!(h.free(m), Err(HeapError::NotManual(m)));
        assert_eq!(h.manual_len(), 0);
    }

    #[test]
    fn collect_reclaims_unreachable_gc_cells_only() {
        let mut h = Heap::new();
        let live = h.alloc_gc(Value::Int(1));
        let dead = h.alloc_gc(Value::Int(2));
        let manual = h.alloc_manual(Value::Int(3));
        let n = h.collect([live]);
        assert_eq!(n, 1);
        assert!(h.contains(live));
        assert!(!h.contains(dead));
        assert!(h.contains(manual), "manual cells are never collected");
        assert_eq!(h.stats().gc_runs, 1);
        assert_eq!(h.stats().collected, 1);
    }

    #[test]
    fn collect_traces_through_values_and_manual_cells() {
        let mut h = Heap::new();
        let inner = h.alloc_gc(Value::Int(10));
        let outer = h.alloc_gc(Value::Loc(inner));
        let from_manual = h.alloc_gc(Value::Int(20));
        let _manual = h.alloc_manual(Value::Loc(from_manual));
        let unreachable = h.alloc_gc(Value::Int(99));
        let n = h.collect([outer]);
        assert_eq!(n, 1);
        assert!(h.contains(inner), "reachable through a root's value");
        assert!(h.contains(from_manual), "reachable through a manual cell");
        assert!(!h.contains(unreachable));
    }

    #[test]
    fn collect_tolerates_out_of_slab_roots() {
        let mut h = Heap::new();
        let live = h.alloc_gc(Value::Int(1));
        let dead = h.alloc_gc(Value::Int(2));
        // Pinned sentinels (the memgc model uses Loc(u64::MAX)) and stale
        // pointers beyond the slab are ignored, not panics.
        let n = h.collect([live, Loc(u64::MAX), Loc(1_000)]);
        assert_eq!(n, 1);
        assert!(h.contains(live));
        assert!(!h.contains(dead));
    }

    #[test]
    fn reset_heaps_are_indistinguishable_from_fresh_ones() {
        let mut h = Heap::new();
        let g = h.alloc_gc(Value::Int(1));
        let m = h.alloc_manual(Value::Int(2));
        h.free(m).unwrap();
        h.collect([g]);
        h.reset();
        assert_eq!(h, Heap::new(), "reset state equals a fresh heap");
        // Allocation after reset restarts at ℓ0 with zeroed statistics, as
        // on a fresh heap — no stale free-list entry is handed out.
        let l = h.alloc_gc(Value::Int(9));
        assert_eq!(l, Loc(0));
        assert_eq!(h.stats().reused, 0);
        assert_eq!(h.stats().gc_allocs, 1);
    }

    #[test]
    fn stale_slots_from_previous_epochs_read_as_dangling() {
        let mut h = Heap::new();
        h.alloc_gc(Value::Int(1));
        let stale = h.alloc_gc(Value::Int(2));
        h.reset();
        // ℓ0 is re-populated this epoch; ℓ1 survives only as slab capacity.
        let l = h.alloc_gc(Value::Int(9));
        assert_eq!(l, Loc(0));
        assert_eq!(h.read(stale), Err(HeapError::Dangling(stale)));
        assert!(!h.contains(stale));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn harvest_moves_the_logical_store_and_rearms_the_slab() {
        let mut h = Heap::new();
        let g = h.alloc_gc(Value::Int(1));
        let m = h.alloc_manual(Value::Int(2));
        let f = h.alloc_manual(Value::Int(3));
        h.free(f).unwrap();
        let mut reference = Heap::new();
        let rg = reference.alloc_gc(Value::Int(1));
        let rm = reference.alloc_manual(Value::Int(2));
        let rf = reference.alloc_manual(Value::Int(3));
        reference.free(rf).unwrap();
        assert_eq!((g, m), (rg, rm));
        let harvested = h.harvest();
        assert_eq!(harvested, reference, "harvest preserves the logical heap");
        assert_eq!(harvested.read(g).unwrap(), &Value::Int(1));
        assert_eq!(harvested.stats().frees, 1);
        assert_eq!(h, Heap::new(), "the slab is re-armed, logically fresh");
        let l = h.alloc_gc(Value::Int(9));
        assert_eq!(l, Loc(0), "allocation restarts at ℓ0 with no stale reuse");
        assert_eq!(h.stats().reused, 0);
    }

    #[test]
    fn peak_live_tracks_the_high_water_mark_not_the_current_population() {
        let mut h = Heap::new();
        let a = h.alloc_manual(Value::Int(1));
        let b = h.alloc_manual(Value::Int(2));
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.len(), 0);
        assert_eq!(h.stats().peak_live, 2);
        // Re-allocating one cell does not disturb the recorded peak.
        h.alloc_gc(Value::Int(3));
        assert_eq!(h.stats().peak_live, 2);
    }

    #[test]
    fn dangling_errors_map_to_ptr() {
        assert_eq!(HeapError::Dangling(Loc(0)).code(), ErrorCode::Ptr);
        assert_eq!(HeapError::NotManual(Loc(0)).code(), ErrorCode::Ptr);
    }

    #[test]
    fn display_shows_management_discipline() {
        let mut h = Heap::new();
        h.alloc_gc(Value::Int(1));
        h.alloc_manual(Value::Int(2));
        let s = h.to_string();
        assert!(s.contains("↦gc"));
        assert!(s.contains("↦m"));
    }
}
