//! What a job costs the allocator, as an exact count.
//!
//! Whoever leads a job keeps its engine region from job to job — its frames
//! too, in the slot board's slabs: a pool worker, and a client that leads
//! queued jobs while it waits. So a warmed-up single-slot job allocates, on
//! the thread that leads it, what its tree allocates — what one
//! `serial::run` of it does — plus the one thing a job must have of its
//! own: `RunReport::per_worker`. The submitting side pays three allocations
//! a job — building a `Fig1Tree` allocates nothing — and the lead's share
//! of every job it leads itself. This binary holds one test, so nothing
//! else allocates while it counts.

use adaptivetc_suite::core::{serial, Config};
use adaptivetc_suite::runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig};
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the submitting thread. `const`, so reading it inside the
    /// allocator neither allocates nor registers a destructor.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

static CLIENT_CALLS: AtomicU64 = AtomicU64::new(0);
static OTHER_CALLS: AtomicU64 = AtomicU64::new(0);

/// Counts every call that obtains memory — `alloc`, `alloc_zeroed`,
/// `realloc` — by which side made it.
struct Counting;

fn count() {
    let counter = if CLIENT.with(Cell::get) {
        &CLIENT_CALLS
    } else {
        &OTHER_CALLS
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> (u64, u64) {
    (
        CLIENT_CALLS.load(Ordering::Relaxed),
        OTHER_CALLS.load(Ordering::Relaxed),
    )
}

/// Keep `WINDOW` jobs in flight until `jobs` have completed.
fn flood(
    server: &JobServer,
    inflight: &mut VecDeque<adaptivetc_suite::runtime::JobHandle<u64>>,
    jobs: usize,
) {
    const WINDOW: usize = 8;
    let (mut submitted, mut done) = (0, 0);
    while done < jobs {
        while inflight.len() < WINDOW && submitted < jobs {
            let h = server
                .submit(
                    Fig1Tree::new(),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            inflight.push_back(h);
            submitted += 1;
        }
        match inflight.pop_front().expect("a job is in flight").wait() {
            JobOutcome::Completed { out, .. } => assert_eq!(out, Fig1Tree::LEAVES),
            JobOutcome::Cancelled { .. } => panic!("nobody cancelled it"),
        }
        done += 1;
    }
}

#[test]
fn a_warm_job_allocates_what_its_tree_does_plus_a_report() {
    const WARM_UP: usize = 200;
    const JOBS: usize = 2_000;
    CLIENT.with(|c| c.set(true));

    let before = calls().0;
    let tree = Fig1Tree::new();
    let build = calls().0 - before;
    let before = calls().0;
    assert_eq!(serial::run(&tree).0, Fig1Tree::LEAVES);
    let serial = calls().0 - before;
    assert!(serial > 0, "the counter is not installed");
    assert_eq!(build, 0, "a Fig1Tree is a static table, not a heap build");

    let server = JobServer::new(ServerConfig::new(1));
    let mut inflight = VecDeque::with_capacity(16);
    // Warm both regions: the pool worker's and this thread's.
    let mut rounds = 0;
    loop {
        flood(&server, &mut inflight, WARM_UP);
        let s = server.stats();
        if s.client_leads > 0 && s.completed > s.client_leads {
            break;
        }
        rounds += 1;
        assert!(rounds < 100, "one side led every warm-up job: {s:?}");
    }
    let warm = server.stats();
    let (client0, other0) = calls();
    flood(&server, &mut inflight, JOBS);
    let (client1, other1) = calls();
    let stats = server.shutdown().stats;
    assert_eq!(
        (warm.lease_misses, stats.lease_misses),
        (2, 2),
        "one region for each side served every job"
    );

    let jobs = JOBS as u64;
    let led_here = stats.client_leads - warm.client_leads;
    let per_lead = serial + 1;
    let pool_side = other1 - other0;
    assert_eq!(
        pool_side,
        (jobs - led_here) * per_lead,
        "pool-side allocations for {} jobs = {:.2} a job; a serial run of \
         the tree makes {serial}, the report 1, and a warm job's frames none",
        jobs - led_here,
        pool_side as f64 / (jobs - led_here).max(1) as f64
    );
    assert_eq!(
        client1 - client0,
        jobs * (build + 3) + led_here * per_lead,
        "client-side allocations: a job's tree ({build}), problem, job and cancel \
         token, and {per_lead} for each of the {led_here} jobs led here"
    );
}
