//! Deterministic VM-level telemetry.
//!
//! Both target machines are deterministic, so instruction and allocation
//! counts are *digest-grade* facts: unlike wall-clock they are identical
//! across `--jobs`, `--batch`, and shard splits, and the harness test suite
//! holds them to that standard.  [`VmCounters`] is the cheap per-machine
//! accumulator — plain `u64`s bumped on the step loop, no atomics — flushed
//! into the scenario record when a run finishes and aggregated additively
//! (counts) or by maximum (high-water marks) up through
//! [`crate::stats::CaseReport`].

use std::fmt;

/// The opcode class an instruction retires under.
///
/// Every machine step is classified into exactly one of four buckets so a
/// sweep can answer "where do the steps go?" without a full trace:
///
/// * **Data** — value construction and destruction (literals, pairs,
///   projections, injections, primitives, array indexing/length).
/// * **Control** — branching and failure (`if`, `match`, `fail`, phantom
///   protection).
/// * **Fun** — binding and application (`let`, `λ` application, calls).
/// * **Heap** — anything that touches the store (alloc, read, write, free,
///   GC moves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Value construction/destruction.
    Data,
    /// Branching and failure.
    Control,
    /// Binding and application.
    Fun,
    /// Store operations.
    Heap,
}

/// Deterministic per-run machine counters.
///
/// Count fields aggregate by addition, high-water fields (`heap_peak_live`,
/// `stack_peak`) by maximum — both commutative and associative, so
/// aggregation order (worker interleaving, batch grouping, shard merge)
/// cannot change the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// Instructions retired in the [`OpClass::Data`] class.
    pub instr_data: u64,
    /// Instructions retired in the [`OpClass::Control`] class.
    pub instr_control: u64,
    /// Instructions retired in the [`OpClass::Fun`] class.
    pub instr_fun: u64,
    /// Instructions retired in the [`OpClass::Heap`] class.
    pub instr_heap: u64,
    /// Source-level boundary crossings attributed to the run.
    ///
    /// Boundaries are erased by compilation (glue is ordinary target code),
    /// so the machines cannot observe them; the engine stamps this field
    /// from the scenario's static boundary count, which the determinism
    /// guarantee covers just the same.
    pub boundary_crossings: u64,
    /// Heap cells allocated over the whole run (GC'd + manual).
    pub heap_allocs: u64,
    /// Cells released over the run: manual `free`s plus cells reclaimed by
    /// GC sweeps.  Zero for reports read from files written before the
    /// arena heap landed.
    pub heap_frees: u64,
    /// Allocations served by recycling a freed slot from the heap's
    /// free list rather than growing the arena.  Zero for legacy files.
    pub heap_reuses: u64,
    /// Peak number of simultaneously live heap cells.
    pub heap_peak_live: u64,
    /// High-water mark of the continuation stack (LCVM) or value stack
    /// (StackLang), in entries.
    pub stack_peak: u64,
}

impl VmCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        VmCounters::default()
    }

    /// Retires one instruction in `class`.
    #[inline]
    pub fn retire(&mut self, class: OpClass) {
        match class {
            OpClass::Data => self.instr_data += 1,
            OpClass::Control => self.instr_control += 1,
            OpClass::Fun => self.instr_fun += 1,
            OpClass::Heap => self.instr_heap += 1,
        }
    }

    /// Raises the stack high-water mark to at least `depth`.
    #[inline]
    pub fn note_stack_depth(&mut self, depth: usize) {
        let depth = depth as u64;
        if depth > self.stack_peak {
            self.stack_peak = depth;
        }
    }

    /// Total instructions retired across all four classes.
    pub fn total_instrs(&self) -> u64 {
        self.instr_data + self.instr_control + self.instr_fun + self.instr_heap
    }

    /// Folds `other` into `self`: counts add, high-water marks take the max.
    ///
    /// This is the single aggregation rule used by scenario absorption,
    /// batch grouping, and shard merge, so all three agree exactly.
    pub fn absorb(&mut self, other: &VmCounters) {
        self.instr_data += other.instr_data;
        self.instr_control += other.instr_control;
        self.instr_fun += other.instr_fun;
        self.instr_heap += other.instr_heap;
        self.boundary_crossings += other.boundary_crossings;
        self.heap_allocs += other.heap_allocs;
        self.heap_frees += other.heap_frees;
        self.heap_reuses += other.heap_reuses;
        self.heap_peak_live = self.heap_peak_live.max(other.heap_peak_live);
        self.stack_peak = self.stack_peak.max(other.stack_peak);
    }

    /// True if every field is zero (e.g. a report deserialized from a file
    /// written before counters existed).
    pub fn is_zero(&self) -> bool {
        *self == VmCounters::default()
    }

    /// Stable `(key, value)` view of every field, in serialization order.
    ///
    /// The keys double as the saved report's `counter` row keys, so its
    /// writer and parser cannot drift apart.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("instr_data", self.instr_data),
            ("instr_control", self.instr_control),
            ("instr_fun", self.instr_fun),
            ("instr_heap", self.instr_heap),
            ("boundary_crossings", self.boundary_crossings),
            ("heap_allocs", self.heap_allocs),
            ("heap_frees", self.heap_frees),
            ("heap_reuses", self.heap_reuses),
            ("heap_peak_live", self.heap_peak_live),
            ("stack_peak", self.stack_peak),
        ]
    }

    /// Sets the field named `key` (as listed by [`VmCounters::fields`]) to
    /// `value`. Returns `false` if the key is unknown.
    pub fn set_field(&mut self, key: &str, value: u64) -> bool {
        match key {
            "instr_data" => self.instr_data = value,
            "instr_control" => self.instr_control = value,
            "instr_fun" => self.instr_fun = value,
            "instr_heap" => self.instr_heap = value,
            "boundary_crossings" => self.boundary_crossings = value,
            "heap_allocs" => self.heap_allocs = value,
            "heap_frees" => self.heap_frees = value,
            "heap_reuses" => self.heap_reuses = value,
            "heap_peak_live" => self.heap_peak_live = value,
            "stack_peak" => self.stack_peak = value,
            _ => return false,
        }
        true
    }
}

impl fmt::Display for VmCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instrs {} (data {} / control {} / fun {} / heap {}), \
             boundaries {}, allocs {}, frees {}, reuses {}, peak live {}, stack peak {}",
            self.total_instrs(),
            self.instr_data,
            self.instr_control,
            self.instr_fun,
            self.instr_heap,
            self.boundary_crossings,
            self.heap_allocs,
            self.heap_frees,
            self.heap_reuses,
            self.heap_peak_live,
            self.stack_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(base: u64) -> VmCounters {
        VmCounters {
            instr_data: base,
            instr_control: base + 1,
            instr_fun: base + 2,
            instr_heap: base + 3,
            boundary_crossings: base + 4,
            heap_allocs: base + 5,
            heap_frees: base + 6,
            heap_reuses: base + 7,
            heap_peak_live: base + 8,
            stack_peak: base + 9,
        }
    }

    #[test]
    fn retire_buckets_by_class() {
        let mut c = VmCounters::new();
        c.retire(OpClass::Data);
        c.retire(OpClass::Data);
        c.retire(OpClass::Control);
        c.retire(OpClass::Fun);
        c.retire(OpClass::Heap);
        assert_eq!(c.instr_data, 2);
        assert_eq!(c.instr_control, 1);
        assert_eq!(c.instr_fun, 1);
        assert_eq!(c.instr_heap, 1);
        assert_eq!(c.total_instrs(), 5);
    }

    #[test]
    fn stack_depth_is_a_high_water_mark() {
        let mut c = VmCounters::new();
        c.note_stack_depth(3);
        c.note_stack_depth(7);
        c.note_stack_depth(2);
        assert_eq!(c.stack_peak, 7);
    }

    #[test]
    fn absorb_adds_counts_and_maxes_peaks() {
        let mut a = sample(10);
        let b = sample(100);
        a.absorb(&b);
        assert_eq!(a.instr_data, 110);
        assert_eq!(a.boundary_crossings, 118);
        assert_eq!(a.heap_allocs, 120);
        assert_eq!(a.heap_frees, 122, "frees add");
        assert_eq!(a.heap_reuses, 124, "reuses add");
        assert_eq!(a.heap_peak_live, 108, "peak is max, not sum");
        assert_eq!(a.stack_peak, 109, "peak is max, not sum");
    }

    #[test]
    fn absorb_is_commutative_and_associative() {
        let (x, y, z) = (sample(1), sample(50), sample(9));
        let mut left = x;
        left.absorb(&y);
        left.absorb(&z);
        let mut right = z;
        right.absorb(&x);
        let mut right2 = y;
        right2.absorb(&right);
        assert_eq!(left, right2, "aggregation order must not matter");
    }

    #[test]
    fn fields_round_trip_through_set_field() {
        let c = sample(42);
        let mut rebuilt = VmCounters::new();
        for (key, value) in c.fields() {
            assert!(rebuilt.set_field(key, value), "unknown key {key}");
        }
        assert_eq!(rebuilt, c);
        assert!(!rebuilt.set_field("not_a_counter", 1));
    }

    #[test]
    fn zero_detection() {
        assert!(VmCounters::new().is_zero());
        assert!(!sample(0).is_zero());
    }
}
