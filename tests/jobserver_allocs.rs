//! What a job costs the allocator, as an exact count.
//!
//! Whoever leads a job keeps its engine region from job to job — its frames
//! too, in the slot board's slabs: a pool worker, and a client that leads
//! queued jobs while it waits. So a warmed-up single-slot job allocates, on
//! the thread that leads it, what its tree allocates — what one
//! `serial::run` of it does — plus the one thing a job must have of its
//! own, `RunReport::per_worker`, plus the workspace clones its real tasks
//! allocate (`RunStats::allocations`: the workspaces its frames keep die
//! with each run, so a warm job allocates these too). The submitting side pays three allocations
//! a job — building a `Fig1Tree` allocates nothing — and the lead's share
//! of every job it leads itself. This binary holds one test, so nothing
//! else allocates while it counts.
//!
//! The pool side is the threads that have led a job. The test harness's own
//! thread allocates its bookkeeping just after it starts the test, and on a
//! loaded host that can fall inside the counted window; it leads no job, so
//! it is not counted.

use adaptivetc_suite::core::{serial, Config, Expansion, Problem};
use adaptivetc_suite::runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig};
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the submitting thread. `const`, so reading these inside the
    /// allocator neither allocates nor registers a destructor.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
    /// Set on a thread once it has started a job's traversal.
    static LED: Cell<bool> = const { Cell::new(false) };
}

static CLIENT_CALLS: AtomicU64 = AtomicU64::new(0);
static POOL_CALLS: AtomicU64 = AtomicU64::new(0);

/// Counts every call that obtains memory — `alloc`, `alloc_zeroed`,
/// `realloc` — by which side made it: the client, or a thread that led a
/// job. Other threads are not counted.
struct Counting;

fn count() {
    let counter = if CLIENT.with(Cell::get) {
        &CLIENT_CALLS
    } else if LED.with(Cell::get) {
        &POOL_CALLS
    } else {
        return;
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
        POOL_CALLS.load(Ordering::Relaxed),
    )
}

/// A `Fig1Tree` that marks the thread that starts its traversal as one
/// that led a job.
struct Marked(Fig1Tree);

impl Problem for Marked {
    type State = <Fig1Tree as Problem>::State;
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Self::State {
        LED.with(|led| led.set(true));
        self.0.root()
    }
    fn expand(&self, st: &Self::State, depth: u32) -> Expansion<u32, u64> {
        self.0.expand(st, depth)
    }
    fn apply(&self, st: &mut Self::State, c: u32) {
        self.0.apply(st, c)
    }
    fn undo(&self, st: &mut Self::State, c: u32) {
        self.0.undo(st, c)
    }
}

/// Keep `WINDOW` jobs in flight until `jobs` have completed. Returns the
/// workspace allocations each job's report counts, the same for every job.
fn flood(
    server: &JobServer,
    inflight: &mut VecDeque<adaptivetc_suite::runtime::JobHandle<u64>>,
    jobs: usize,
) -> u64 {
    const WINDOW: usize = 8;
    let (mut submitted, mut done) = (0, 0);
    let mut allocations = None;
    while done < jobs {
        while inflight.len() < WINDOW && submitted < jobs {
            let h = server
                .submit(
                    Marked(Fig1Tree::new()),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            inflight.push_back(h);
            submitted += 1;
        }
        match inflight.pop_front().expect("a job is in flight").wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, Fig1Tree::LEAVES);
                let a = report.stats.allocations;
                assert_eq!(
                    *allocations.get_or_insert(a),
                    a,
                    "jobs differ in allocations"
                );
            }
            JobOutcome::Cancelled { .. } => panic!("nobody cancelled it"),
        }
        done += 1;
    }
    allocations.expect("a job completed")
}

#[test]
fn a_warm_job_allocates_what_its_tree_does_plus_a_report() {
    const WARM_UP: usize = 200;
    const JOBS: usize = 2_000;
    CLIENT.with(|c| c.set(true));

    let before = calls().0;
    let tree = Marked(Fig1Tree::new());
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
    let (client0, pool0) = calls();
    let allocations = flood(&server, &mut inflight, JOBS);
    let (client1, pool1) = calls();
    let stats = server.shutdown().stats;
    assert_eq!(
        (warm.lease_misses, stats.lease_misses),
        (2, 2),
        "one region for each side served every job"
    );

    let jobs = JOBS as u64;
    let led_here = stats.client_leads - warm.client_leads;
    let per_lead = serial + 1 + allocations;
    let pool_side = pool1 - pool0;
    assert_eq!(
        pool_side,
        (jobs - led_here) * per_lead,
        "pool-side allocations for {} jobs = {:.2} a job; a serial run of \
         the tree makes {serial}, the report 1, its workspace clones \
         {allocations}, and a warm job's frames none",
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
