//! `semint sweep --workers N`: a crash-safe sweep run as supervised shard
//! processes.
//!
//! A one-shot `semint sweep` that dies loses everything it computed.  The
//! fleet splits the seed range into N deterministic shards and its
//! [`supervisor`] runs them as N concurrent `semint sweep --shard i/N
//! --save` child processes.  A worker that crashes, wedges or saves an
//! unreadable report is killed and its exact seed slice re-issued.  Shards
//! are exact k-of-n seed slices and the [`merge`] is order-insensitive, so
//! the merged digests and VM counters are byte-identical to a one-shot
//! sweep over the same range however many workers died along the way.
//!
//! The supervisor also survives *its own* death.  Every validated shard
//! report is checkpointed into the state dir before its `shard-saved`
//! event is appended to an fsync'd [`journal`] of tab-separated lines,
//! whose first line records the sweep's [`SweepSpec`].  `--resume`
//! replays the journal, adopts every digest-verified checkpoint and
//! re-runs only the shards it does not account for.  The [`chaos`] drill
//! turns that invariant into a repeatable test: a seed-derived fault
//! schedule (worker crashes, wedges, corrupted reports) against a sweep
//! process that is SIGKILLed mid-run and resumed.

pub mod chaos;
pub mod journal;
pub mod merge;
pub mod spec;
pub mod supervisor;

pub use chaos::{run_drills, ChaosConfig, DrillOutcome};
pub use spec::{FaultKind, FaultPlan, SweepSpec};
pub use supervisor::run_sweep;
