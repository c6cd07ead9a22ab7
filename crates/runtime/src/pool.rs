//! Bounded per-worker object pools for the engine's hot path.
//!
//! The paper's Table 2 attributes most of Cilk's one-thread overhead to
//! task-creation costs, a large share of which is heap traffic: a workspace
//! allocation per spawned child and a frame (`task_info`) allocation per
//! task. The `SYNCHED` experiment in the paper shows what recycling buys
//! (allocations drop, copies remain). This module generalizes that idiom
//! into a reusable primitive: a bounded LIFO free list each worker owns
//! privately, so `take`/`put` are unsynchronized.
//!
//! The engine's **workspace arena** (`Pool<P::State>`) rides on this type,
//! recycling taskprivate buffers for every mode except `Cilk`, which does
//! not pool — `Cilk-SYNCHED` is the mode that does. (No Table-1 workspace
//! allocates when copied, so the arena saves those modes nothing there.)
//! Retired frames need no bound: they are handles into the slot board's
//! slabs, which own the memory, so the frame free list is a plain `Vec`.
//!
//! The bound keeps a worker that momentarily held a huge subtree from
//! pinning its peak footprint forever; overflow simply drops the object.

/// A bounded LIFO free list owned by a single worker.
///
/// Not a synchronized structure: wrap it per worker, not in `Shared`.
///
/// # Examples
///
/// ```
/// use adaptivetc_runtime::pool::Pool;
///
/// let mut pool: Pool<Vec<u8>> = Pool::new(2);
/// assert!(pool.take().is_none());       // empty pool allocates nothing
/// assert!(pool.put(vec![1]));           // recycled
/// assert!(pool.put(vec![2]));           // recycled (at capacity)
/// assert!(!pool.put(vec![3]));          // full: dropped, not stored
/// assert_eq!(pool.take(), Some(vec![2])); // LIFO: hottest buffer first
/// assert_eq!(pool.len(), 1);
/// ```
pub struct Pool<T> {
    slots: Vec<T>,
    cap: usize,
}

impl<T> Pool<T> {
    /// An empty pool that retains at most `cap` objects.
    pub fn new(cap: usize) -> Self {
        Pool {
            slots: Vec::new(),
            cap,
        }
    }

    /// Take the most recently returned object, if any.
    pub fn take(&mut self) -> Option<T> {
        self.slots.pop()
    }

    /// Return an object to the pool.
    ///
    /// Returns `false` (and drops the object) when the pool is already at
    /// capacity.
    pub fn put(&mut self, item: T) -> bool {
        if self.slots.len() < self.cap {
            self.slots.push(item);
            true
        } else {
            false
        }
    }

    /// Drop every pooled object; the pool keeps its slot storage.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Objects currently pooled.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool holds no objects.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The retention bound this pool was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl<T> std::fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("len", &self.slots.len())
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut p = Pool::new(8);
        for i in 0..5 {
            assert!(p.put(i));
        }
        for i in (0..5).rev() {
            assert_eq!(p.take(), Some(i));
        }
        assert_eq!(p.take(), None);
    }

    #[test]
    fn bound_is_enforced() {
        let mut p = Pool::new(3);
        assert!(p.put(1) && p.put(2) && p.put(3));
        assert!(!p.put(4));
        assert_eq!(p.len(), 3);
        assert_eq!(p.capacity(), 3);
    }

    #[test]
    fn zero_capacity_pools_nothing() {
        let mut p = Pool::new(0);
        assert!(!p.put(1));
        assert!(p.is_empty());
        assert_eq!(p.take(), None);
    }

    #[test]
    fn drops_overflow_immediately() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut p = Pool::new(1);
        assert!(p.put(Rc::clone(&token)));
        assert!(!p.put(Rc::clone(&token)));
        assert_eq!(Rc::strong_count(&token), 2); // overflow copy was dropped
        drop(p);
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
