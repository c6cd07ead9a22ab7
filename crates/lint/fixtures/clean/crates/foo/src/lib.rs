//! Fixture: a tree that satisfies every rule.
pub mod sync {
    pub use std::sync::atomic::{AtomicU64, Ordering};
}
use sync::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) -> u64 {
    // Relaxed: independent counter bump; aggregated after join.
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn read(x: &u32) -> u32 {
    let p: *const u32 = x;
    // SAFETY: `p` comes from a live reference, so it is valid and aligned.
    unsafe { *p }
}
