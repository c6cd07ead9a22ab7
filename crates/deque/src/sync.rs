//! Synchronization facade for the deque protocols.
//!
//! Release and test builds re-export the real primitives
//! (`std::sync::atomic` plus `parking_lot::Mutex`), so the hot path pays
//! nothing for the abstraction. Building with `--cfg adaptivetc_check`
//! (RUSTFLAGS) swaps in the model primitives from `shim-sync`, whose every
//! operation is a yield point of the bounded schedule explorer. The
//! `adaptivetc-check` crate also compiles these sources directly against
//! the model types via `#[path]` includes, so `cargo test -p
//! adaptivetc-check` explores schedules with no special flags.
//!
//! A third arm, behind the `count-sync` cargo feature, wraps the real
//! primitives in counting shims so `tests/sync_profile.rs` can check *how
//! many* fences, SeqCst operations and RMWs each backend performs per
//! push/pop (the Table-2 cost the fence-free backend eliminates). The
//! counters are process-global `Relaxed` statics — cheap, but still a
//! perturbation, so `count-sync` builds are for op-counting runs only,
//! never timing runs; see [`sync_counts`].

#[cfg(all(not(adaptivetc_check), not(feature = "count-sync")))]
pub use parking_lot::Mutex;
#[cfg(all(not(adaptivetc_check), not(feature = "count-sync")))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering,
};

#[cfg(adaptivetc_check)]
pub use shim_sync::sync::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Mutex, Ordering,
    RaceCell,
};

#[cfg(all(not(adaptivetc_check), feature = "count-sync"))]
pub use counting::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Mutex, Ordering,
};

#[cfg(not(adaptivetc_check))]
pub use plain::RaceCell;

/// Plain-cell arm of the facade for real and `count-sync` builds: a
/// transparent `UnsafeCell` with the checked-access API shape of
/// `shim_sync::sync::RaceCell`. The model checker's race detector is the
/// only consumer that distinguishes `read`/`write`/`speculative`; here
/// they all compile to `UnsafeCell::get`.
#[cfg(not(adaptivetc_check))]
mod plain {
    use std::cell::UnsafeCell;

    /// A plain, non-atomic cell race-checked under the model checker and
    /// zero-cost everywhere else. Pointers returned by the accessors
    /// carry the usual `UnsafeCell` obligations: the surrounding
    /// protocol, not this type, justifies each dereference.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct RaceCell<T> {
        inner: UnsafeCell<T>,
    }

    // SAFETY: same contract as `UnsafeCell` — the owning protocol
    // synchronizes all shared accesses (and the adaptivetc_check arm of
    // this facade model-checks exactly that claim).
    unsafe impl<T: Send> Send for RaceCell<T> {}
    // SAFETY: see the `Send` impl above.
    unsafe impl<T: Send> Sync for RaceCell<T> {}

    impl<T> RaceCell<T> {
        /// Create a new cell holding `t`.
        pub const fn new(t: T) -> Self {
            Self {
                inner: UnsafeCell::new(t),
            }
        }

        /// A checked plain read under the model checker; here, a raw
        /// pointer to the contents.
        #[inline(always)]
        pub fn read(&self) -> *const T {
            self.inner.get()
        }

        /// A checked plain write under the model checker; here, a raw
        /// pointer to the contents.
        #[inline(always)]
        pub fn write(&self) -> *mut T {
            self.inner.get()
        }

        /// An *unchecked* read for by-design benign races (validated
        /// out-of-band, e.g. by a subsequent CAS).
        #[inline(always)]
        pub fn speculative(&self) -> *const T {
            self.inner.get()
        }

        /// Exclusive access through a unique reference.
        #[allow(dead_code)] // API parity with the model-checked arm
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }
}

/// Process-global operation counters for `count-sync` builds.
#[cfg(all(not(adaptivetc_check), feature = "count-sync"))]
pub mod sync_counts {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static FENCES: AtomicU64 = AtomicU64::new(0);
    pub(super) static SEQCST_OPS: AtomicU64 = AtomicU64::new(0);
    pub(super) static RMW_OPS: AtomicU64 = AtomicU64::new(0);
    pub(super) static SEQCST_RMW_OPS: AtomicU64 = AtomicU64::new(0);

    /// A snapshot of the global synchronization-operation counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Counts {
        /// `fence()` calls of any ordering.
        pub fences: u64,
        /// Operations (loads, stores, RMWs, fences) at `SeqCst`.
        pub seqcst_ops: u64,
        /// Read-modify-write operations of any ordering (swap, fetch_*,
        /// compare-exchange attempts, and `Mutex::lock`, which is a CAS).
        pub rmw_ops: u64,
        /// The intersection: RMWs at `SeqCst`.
        pub seqcst_rmw_ops: u64,
    }

    impl Counts {
        /// Difference since an earlier snapshot.
        #[must_use]
        pub fn since(self, earlier: Counts) -> Counts {
            Counts {
                fences: self.fences - earlier.fences,
                seqcst_ops: self.seqcst_ops - earlier.seqcst_ops,
                rmw_ops: self.rmw_ops - earlier.rmw_ops,
                seqcst_rmw_ops: self.seqcst_rmw_ops - earlier.seqcst_rmw_ops,
            }
        }
    }

    /// Read the current counter values.
    pub fn snapshot() -> Counts {
        Counts {
            // Relaxed: process-global op counters read for reporting; no
            // synchronisation intended.
            fences: FENCES.load(Ordering::Relaxed),
            seqcst_ops: SEQCST_OPS.load(Ordering::Relaxed),
            rmw_ops: RMW_OPS.load(Ordering::Relaxed),
            seqcst_rmw_ops: SEQCST_RMW_OPS.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters (while no other thread touches a deque).
    pub fn reset() {
        // Relaxed: zeroed between single-threaded harness phases.
        FENCES.store(0, Ordering::Relaxed);
        SEQCST_OPS.store(0, Ordering::Relaxed);
        RMW_OPS.store(0, Ordering::Relaxed);
        SEQCST_RMW_OPS.store(0, Ordering::Relaxed);
    }
}

#[cfg(all(not(adaptivetc_check), feature = "count-sync"))]
#[allow(dead_code)] // wrappers mirror the full facade; not every op is used yet
mod counting {
    //! API-compatible wrappers over the real primitives that bump the
    //! [`super::sync_counts`] counters. Only the operations the deque
    //! sources use are provided.

    use super::sync_counts::{FENCES, RMW_OPS, SEQCST_OPS, SEQCST_RMW_OPS};
    use std::sync::atomic::Ordering as Real;
    pub use std::sync::atomic::Ordering;

    #[inline]
    fn note(o: Ordering, rmw: bool) {
        // SeqCst: a comparison that classifies the counted operation, not
        // a memory-ordering choice.
        if o == Ordering::SeqCst {
            SEQCST_OPS.fetch_add(1, Real::Relaxed);
            if rmw {
                SEQCST_RMW_OPS.fetch_add(1, Real::Relaxed);
            }
        }
        if rmw {
            RMW_OPS.fetch_add(1, Real::Relaxed);
        }
    }

    /// Counting replacement for [`std::sync::atomic::fence`].
    pub fn fence(o: Ordering) {
        FENCES.fetch_add(1, Real::Relaxed);
        // SeqCst: classifies the counted fence, as in `note`.
        if o == Ordering::SeqCst {
            SEQCST_OPS.fetch_add(1, Real::Relaxed);
        }
        std::sync::atomic::fence(o);
    }

    macro_rules! counting_int_atomic {
        ($name:ident, $real:ident, $prim:ty) => {
            /// Counting wrapper over the identically named std atomic.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: std::sync::atomic::$real,
            }

            impl $name {
                /// Create a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: std::sync::atomic::$real::new(v),
                    }
                }

                /// Counting `load`.
                pub fn load(&self, o: Ordering) -> $prim {
                    note(o, false);
                    self.inner.load(o)
                }

                /// Counting `store`.
                pub fn store(&self, v: $prim, o: Ordering) {
                    note(o, false);
                    self.inner.store(v, o);
                }

                /// Counting `swap`.
                pub fn swap(&self, v: $prim, o: Ordering) -> $prim {
                    note(o, true);
                    self.inner.swap(v, o)
                }

                /// Counting `fetch_add`.
                pub fn fetch_add(&self, v: $prim, o: Ordering) -> $prim {
                    note(o, true);
                    self.inner.fetch_add(v, o)
                }

                /// Counting `fetch_sub`.
                pub fn fetch_sub(&self, v: $prim, o: Ordering) -> $prim {
                    note(o, true);
                    self.inner.fetch_sub(v, o)
                }

                /// Counting `compare_exchange` (one RMW per attempt).
                pub fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    note(ok, true);
                    self.inner.compare_exchange(cur, new, ok, err)
                }

                /// Counting `compare_exchange_weak` (one RMW per attempt).
                pub fn compare_exchange_weak(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    note(ok, true);
                    self.inner.compare_exchange_weak(cur, new, ok, err)
                }
            }
        };
    }

    counting_int_atomic!(AtomicU64, AtomicU64, u64);
    counting_int_atomic!(AtomicU32, AtomicU32, u32);
    counting_int_atomic!(AtomicU8, AtomicU8, u8);
    counting_int_atomic!(AtomicI64, AtomicI64, i64);

    /// Counting wrapper over [`std::sync::atomic::AtomicBool`].
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Create a new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Counting `load`.
        pub fn load(&self, o: Ordering) -> bool {
            note(o, false);
            self.inner.load(o)
        }

        /// Counting `store`.
        pub fn store(&self, v: bool, o: Ordering) {
            note(o, false);
            self.inner.store(v, o);
        }

        /// Counting `swap`.
        pub fn swap(&self, v: bool, o: Ordering) -> bool {
            note(o, true);
            self.inner.swap(v, o)
        }
    }

    /// Counting wrapper over [`std::sync::atomic::AtomicPtr`].
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Create a new atomic with the given initial pointer.
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        /// Counting `load`.
        pub fn load(&self, o: Ordering) -> *mut T {
            note(o, false);
            self.inner.load(o)
        }

        /// Counting `store`.
        pub fn store(&self, p: *mut T, o: Ordering) {
            note(o, false);
            self.inner.store(p, o);
        }

        /// Counting `swap`.
        pub fn swap(&self, p: *mut T, o: Ordering) -> *mut T {
            note(o, true);
            self.inner.swap(p, o)
        }
    }

    /// Counting wrapper over [`parking_lot::Mutex`]: `lock` is one RMW
    /// (parking_lot's fast path is an Acquire CAS).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: parking_lot::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Create a new mutex guarding `v`.
        pub const fn new(v: T) -> Self {
            Self {
                inner: parking_lot::Mutex::new(v),
            }
        }

        /// Counting `lock`.
        pub fn lock(&self) -> parking_lot::MutexGuard<'_, T> {
            RMW_OPS.fetch_add(1, Real::Relaxed);
            self.inner.lock()
        }
    }
}
