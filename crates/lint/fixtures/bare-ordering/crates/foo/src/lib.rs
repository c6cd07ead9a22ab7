//! Fixture: an `Ordering::` site with no comment giving its reason.
pub mod sync {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}
use sync::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed)
}
