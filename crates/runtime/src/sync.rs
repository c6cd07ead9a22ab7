//! Synchronization facade for the runtime crate.
//!
//! Every lock and atomic the schedulers use is imported through this one
//! module, mirroring `adaptivetc_deque::sync`. The runtime is not compiled
//! against the shim-sync model (only the deque protocols are), so there is
//! no `adaptivetc_check` branch here — the facade exists so that
//! `adaptivetc-lint`'s facade-integrity rule can prove at a glance that no
//! scheduler file reaches for `std::sync::atomic` or `parking_lot`
//! directly, and so a model-checked variant could be swapped in later by
//! editing a single file.

pub use parking_lot::{Condvar, Mutex};
pub use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
