//! Seeded pseudo-random number generation.
//!
//! All scheduler-internal randomness (victim selection, simulator tie
//! breaking) flows through [`XorShift64`] so that every run is reproducible
//! from its configured seed. The synthetic unbalanced trees additionally use
//! the paper's own linear congruential recipe (implemented in
//! `adaptivetc-workloads`).

/// An xorshift64* pseudo-random number generator.
///
/// Small, fast and deterministic; not cryptographically secure.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped to a fixed
    /// nonzero constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a nonzero bound");
        // Multiplicative range reduction; bias is negligible for the small
        // bounds (worker counts, child counts) used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derive an independent generator (for per-worker streams).
    pub fn split(&mut self) -> XorShift64 {
        XorShift64::new(self.next_u64() | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
        assert_ne!(x, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(123);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_hits_all_residues() {
        let mut r = XorShift64::new(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.below_usize(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShift64::new(55);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn split_streams_differ() {
        let mut r = XorShift64::new(1);
        let mut a = r.split();
        let mut b = r.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "nonzero bound")]
    fn below_zero_bound_panics() {
        XorShift64::new(1).below(0);
    }
}
