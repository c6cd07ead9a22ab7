//! Lock-free event tracing for the AdaptiveTC runtime.
//!
//! The paper's argument is about *when* things happen — when a worker
//! demotes spawns to fake tasks, when `need_task` pressure triggers a
//! special transition, when thieves actually get work — but `RunStats`
//! only reports end-of-run totals. This crate adds the missing time
//! dimension:
//!
//! * [`event`] — the compact 16-byte event schema shared by the threaded
//!   runtime and the discrete-event simulator, plus the legal FSM edge
//!   set derived from the paper's version walk.
//! * [`ring`] — per-worker SPSC rings: block-claim producer protocol
//!   (plain-store hot path, one `Release` publication per block),
//!   drop-oldest overflow with derived accounting, quiescent drain.
//! * [`clock`] — run-epoch monotonic timestamps: calibrated invariant-TSC
//!   reads on x86_64, `Instant` elsewhere (the sim stamps virtual time
//!   instead).
//! * [`filter`] — event categories and the sampled subset.
//! * [`collector`] — one ring per worker, per-worker [`WorkerHandle`]s
//!   with optionally sampled emission, drained into an immutable
//!   [`Trace`].
//! * [`chrome`] — `chrome://tracing` / Perfetto JSON export.
//! * [`analysis`] — steal-provenance tree, per-state dwell times,
//!   steal-latency and deque-occupancy histograms, steal-latency and
//!   need_task→delivery response-time CDFs, aggregate counts.
//! * [`validate`](mod@validate) — the differential oracle: trace-derived counts must
//!   equal `RunStats` exactly, per worker and in aggregate, for every
//!   category the trace recorded unsampled (a bound for sampled ones).
//! * [`diff`] — real-vs-simulated stream comparison over the shared
//!   schema subset.
//!
//! The runtime integration lives in `adaptivetc-runtime` behind the
//! `Config::trace` runtime flag.

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod clock;
pub mod collector;
pub mod diff;
pub mod event;
pub mod filter;
pub mod jobs;
pub mod ring;
pub(crate) mod sync;
pub mod validate;

pub use analysis::{
    deque_occupancy, dwell_times, response_time_cdf, steal_latency, steal_latency_cdf, Cdf, Dwell,
    Histogram, StealTree, TraceCounts,
};
pub use chrome::to_chrome_json;
pub use clock::TraceClock;
pub use collector::{Trace, TraceCollector, WorkerHandle, WorkerTrace};
pub use diff::TraceDiff;
pub use event::{legal_fsm_edge, Event, EventKind, FsmState, RawEvent};
pub use filter::Category;
pub use jobs::{validate_concurrent, JobMismatch};
pub use validate::{assert_valid, validate, Mismatch};
