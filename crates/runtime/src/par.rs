//! Convenience data-parallel helpers built on the schedulers.
//!
//! The paper's machinery is expressed as a search-tree [`Problem`]; most
//! day-to-day parallelism is "map this function over a slice and reduce".
//! [`map_reduce`] bridges the two: it wraps a slice in a divide-and-conquer
//! range problem (split-in-half choices, like the paper's `Comp`) and runs
//! it under any scheduler. The [`Range`] workspace is two words, so these
//! runs are where copy-on-steal matters least — it still elides the clone
//! per spawn (visible in `workspace_copies_saved`), but the paper-scale
//! win needs a workload with a real taskprivate payload.

use crate::Scheduler;
use adaptivetc_core::{Config, Expansion, Problem, Reduce, RunReport, SchedulerError};

/// A half-split over an index range; carries the replaced bound so it can
/// be undone exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSplit {
    hi_half: bool,
    saved: usize,
}

/// The range workspace (no taskprivate payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    lo: usize,
    hi: usize,
}

struct MapReduce<'a, T, O, F> {
    items: &'a [T],
    f: F,
    grain: usize,
    _out: std::marker::PhantomData<fn() -> O>,
}

impl<T, O, F> Problem for MapReduce<'_, T, O, F>
where
    T: Sync,
    O: Reduce,
    F: Fn(&T) -> O + Send + Sync,
{
    type State = Range;
    type Choice = RangeSplit;
    type Out = O;

    fn root(&self) -> Range {
        Range {
            lo: 0,
            hi: self.items.len(),
        }
    }

    fn expand(&self, r: &Range, _depth: u32) -> Expansion<RangeSplit, O> {
        if r.hi - r.lo <= self.grain {
            let mut acc = O::identity();
            for item in &self.items[r.lo..r.hi] {
                acc.combine((self.f)(item));
            }
            return Expansion::Leaf(acc);
        }
        Expansion::Children(vec![
            RangeSplit {
                hi_half: false,
                saved: r.hi,
            },
            RangeSplit {
                hi_half: true,
                saved: r.lo,
            },
        ])
    }

    fn apply(&self, r: &mut Range, c: RangeSplit) {
        let mid = r.lo + (r.hi - r.lo) / 2;
        if c.hi_half {
            r.lo = mid;
        } else {
            r.hi = mid;
        }
    }

    fn undo(&self, r: &mut Range, c: RangeSplit) {
        if c.hi_half {
            r.lo = c.saved;
        } else {
            r.hi = c.saved;
        }
    }

    fn state_bytes(&self, _: &Range) -> usize {
        0
    }
}

/// Map `f` over `items` and reduce the results under a scheduler.
///
/// `grain` items are processed per leaf task (pick it so a leaf does at
/// least a few microseconds of work).
///
/// # Errors
///
/// Propagates [`SchedulerError`] from the scheduler.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::Config;
/// use adaptivetc_runtime::{par, Scheduler};
///
/// # fn main() -> Result<(), adaptivetc_core::SchedulerError> {
/// let xs: Vec<u64> = (1..=10_000).collect();
/// let (sum, _) = par::map_reduce(
///     Scheduler::AdaptiveTc,
///     &Config::new(2),
///     &xs,
///     64,
///     |&x| x * x,
/// )?;
/// assert_eq!(sum, xs.iter().map(|&x| x * x).sum::<u64>());
/// # Ok(())
/// # }
/// ```
pub fn map_reduce<T, O, F>(
    scheduler: Scheduler,
    cfg: &Config,
    items: &[T],
    grain: usize,
    f: F,
) -> Result<(O, RunReport), SchedulerError>
where
    T: Sync,
    O: Reduce,
    F: Fn(&T) -> O + Send + Sync,
{
    let problem = MapReduce {
        items,
        f,
        grain: grain.max(1),
        _out: std::marker::PhantomData,
    };
    scheduler.run(&problem, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_match_across_schedulers() {
        let xs: Vec<u64> = (0..5_000).collect();
        let want: u64 = xs.iter().sum();
        for s in [
            Scheduler::Serial,
            Scheduler::Cilk,
            Scheduler::Tascell,
            Scheduler::AdaptiveTc,
        ] {
            let (got, _) = map_reduce(s, &Config::new(2), &xs, 32, |&x| x).expect("runs");
            assert_eq!(got, want, "{s}");
        }
    }

    #[test]
    fn empty_slice_reduces_to_identity() {
        let xs: Vec<u64> = Vec::new();
        let (got, _) =
            map_reduce(Scheduler::AdaptiveTc, &Config::new(1), &xs, 8, |&x| x).expect("runs");
        assert_eq!(got, 0);
    }

    #[test]
    fn grain_one_handles_single_item() {
        let xs = vec![41u64];
        let (got, _) =
            map_reduce(Scheduler::Cilk, &Config::new(2), &xs, 1, |&x| x + 1).expect("runs");
        assert_eq!(got, 42);
    }

    #[test]
    fn pair_reduction_collects_min_and_count() {
        use adaptivetc_core::reduce::Min;
        let xs: Vec<u64> = (10..100).rev().collect();
        let (got, _): ((Min<u64>, u64), _) =
            map_reduce(Scheduler::AdaptiveTc, &Config::new(2), &xs, 8, |&x| {
                (Min(Some(x)), 1u64)
            })
            .expect("runs");
        assert_eq!(got.0 .0, Some(10));
        assert_eq!(got.1, 90);
    }
}
