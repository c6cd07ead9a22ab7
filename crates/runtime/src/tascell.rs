//! A Tascell-style backtracking load-balancing scheduler (Hiraishi et al.,
//! PPoPP 2009), the paper's second comparator.
//!
//! Tascell keeps no task deque. Each worker runs one task as plain
//! sequential recursion over its execution stack (here: an explicit shadow
//! stack), **polling** for steal *requests* at every node. When a request
//! arrives, the victim *temporarily backtracks*: it undoes the applied
//! choices down to the **shallowest** frame that still has an untried
//! choice, takes the later half of that frame's untried choices
//! ([`tascell_split`], the rule the simulator runs too), copies the
//! workspace once, re-applies the undone choices, and hands the packaged
//! range to the requester.
//!
//! A request is a word per worker (`request.rs`) and is **always
//! answered**: at the victim's next poll, with a range or with nothing,
//! or — when the victim's traversal ends first — with nothing as it stops
//! taking requests. So a thief waits for its answer in its own result
//! cell with no timeout, and a request to an idle or waiting worker fails
//! at once. Nothing is allocated per request.
//!
//! The crucial limitation the paper exploits: a Tascell task **cannot be
//! suspended** at a synchronization point (its state lives on the execution
//! stack), so at the end of a task the victim blocks until every range it
//! gave away has delivered its result — the `wait_children` overhead of
//! Figures 6 and 7. The ranges report through the victim's join cell and
//! result cell, as a special task's stolen children do at
//! `sync_specialtask`.

use crate::engine::{self, lap, now_if, run_team};
use crate::frame::ResultCell;
use crate::join::JoinCell;
use crate::request::Request;
use adaptivetc_core::{Config, Expansion, Problem, Reduce, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::{tascell_split, uniform_victim};
use crossbeam_utils::CachePadded;
use std::time::Instant;

/// A packaged range of sibling subtrees handed to a requester: the later
/// half of the untried choices at the split frame. This is what makes
/// Tascell collapse on right-heavy trees — the heavy late siblings leave
/// early and the victim ends up waiting on them.
struct Task<P: Problem> {
    /// Workspace at the split frame's node (no choice applied).
    state: P::State,
    /// Logical depth of the split frame's children.
    child_logical: u32,
    /// The handed-away choices, in order.
    choices: Vec<P::Choice>,
    /// The victim, whose hand-off join the range's total arrives at.
    victim: usize,
}

/// What the other workers reach of one worker.
struct Cell<P: Problem> {
    /// Its steal-request word.
    request: Request,
    /// Where a victim answers this worker's request.
    response: ResultCell<Option<Task<P>>>,
    /// Its task's hand-off join: a token for each range handed out.
    join: JoinCell<P::Out>,
    /// Where the last arriving range delivers the task's total.
    joined: ResultCell<P::Out>,
}

struct Shared<'p, P: Problem> {
    problem: &'p P,
    cells: Vec<CachePadded<Cell<P>>>,
    root: ResultCell<P::Out>,
    timing: bool,
}

/// One level of the victim's shadow stack. While a node below it runs,
/// the level's applied choice is `choices[next - 1]`.
struct ShadowFrame<C> {
    choices: Vec<C>,
    next: usize,
}

struct Worker<'s, 'p, P: Problem> {
    shared: &'s Shared<'p, P>,
    id: usize,
    stats: RunStats,
    rng: XorShift64,
    stack: Vec<ShadowFrame<P::Choice>>,
    /// Whether the running task handed a range out.
    handed: bool,
}

impl<'s, 'p, P: Problem> Worker<'s, 'p, P> {
    /// Run one task — the root, or a range a victim handed over — taking
    /// requests while `traverse` runs, and return its total once every
    /// range it handed out has arrived.
    fn run_task(&mut self, traverse: impl FnOnce(&mut Self) -> P::Out) -> P::Out {
        let shared = self.shared;
        let cell = &shared.cells[self.id];
        debug_assert!(self.stack.is_empty());
        cell.request.open();
        let own = traverse(self);
        if let Some(thief) = cell.request.close() {
            self.answer(thief, None);
        }
        if !std::mem::take(&mut self.handed) {
            return own;
        }
        // The terminal wait: no stealing possible.
        let t0 = now_if(shared.timing);
        let total = match cell.join.release(own, P::Out::combine) {
            Some(total) => total,
            None => cell.joined.recv(),
        };
        cell.join.rearm();
        lap(&mut self.stats.time.wait_children_ns, t0);
        total
    }

    /// Execute a set of sibling subtrees under a stealable shadow frame.
    fn traverse_set(
        &mut self,
        state: &mut P::State,
        child_logical: u32,
        choices: Vec<P::Choice>,
    ) -> P::Out {
        let mut acc = P::Out::identity();
        self.stack.push(ShadowFrame { choices, next: 0 });
        let level = self.stack.len() - 1;
        loop {
            let c = {
                let f = &mut self.stack[level];
                let Some(&c) = f.choices.get(f.next) else {
                    break;
                };
                f.next += 1;
                c
            };
            self.shared.problem.apply(state, c);
            acc.combine(self.node(state, child_logical));
            self.shared.problem.undo(state, c);
        }
        self.stack.pop();
        acc
    }

    /// Sequential node execution with per-node request polling.
    fn node(&mut self, state: &mut P::State, logical: u32) -> P::Out {
        self.stats.nodes += 1;
        self.stats.polls += 1;
        if let Some(thief) = self.shared.cells[self.id].request.take() {
            self.respond(thief, state, logical);
        }
        match self.shared.problem.expand(state, logical) {
            Expansion::Leaf(out) => out,
            Expansion::Children(choices) => {
                self.stats.fake_tasks += 1;
                self.traverse_set(state, logical + 1, choices)
            }
        }
    }

    /// Answer `thief`'s request at the node at `logical`, by backtracking
    /// to the level [`tascell_split`] picks.
    fn respond(&mut self, thief: u32, state: &mut P::State, logical: u32) {
        let split = tascell_split(self.stack.iter().map(|f| f.choices.len() - f.next));
        let Some((level, give)) = split else {
            return self.answer(thief, None);
        };
        // Temporary backtracking: undo the applied path from the deepest
        // level down to `level`, snapshot the workspace at the split
        // frame's node, then re-apply the path.
        let p = self.shared.problem;
        let path = &self.stack[level..];
        for f in path.iter().rev() {
            p.undo(state, f.choices[f.next - 1]);
        }
        // The split frame sits `path.len()` applied choices above this
        // node; its children are one deeper.
        let child_logical = logical + 1 - path.len() as u32;
        let t0 = now_if(self.shared.timing);
        let task_state = state.clone();
        self.stats.copies += 1;
        self.stats.allocations += 1;
        self.stats.copy_bytes += p.state_bytes(state) as u64;
        lap(&mut self.stats.time.copy_ns, t0);
        for f in path {
            p.apply(state, f.choices[f.next - 1]);
        }
        let f = &mut self.stack[level];
        let choices = f.choices.split_off(f.choices.len() - give);

        self.shared.cells[self.id].join.add_in_flight();
        self.handed = true;
        self.stats.tasks_created += 1;
        self.stats.steal_responses += 1;
        self.answer(
            thief,
            Some(Task {
                state: task_state,
                child_logical,
                choices,
                victim: self.id,
            }),
        );
    }

    fn answer(&self, thief: u32, task: Option<Task<P>>) {
        self.shared.cells[thief as usize].response.send(task);
    }

    /// Idle loop: request tasks from random victims until the root is done.
    fn steal_loop(&mut self) {
        let shared = self.shared;
        let n = shared.cells.len();
        if n == 1 {
            return;
        }
        let mut idle_since = now_if(shared.timing);
        while !shared.root.is_done() {
            let victim = uniform_victim(&mut self.rng, self.id, n);
            let task = if shared.cells[victim].request.ask(self.id as u32) {
                self.stats.steal_requests += 1;
                shared.cells[self.id].response.recv()
            } else {
                None
            };
            match task {
                Some(task) => {
                    self.stats.steals_ok += 1;
                    lap(&mut self.stats.time.steal_wait_ns, idle_since.take());
                    let Task {
                        mut state,
                        child_logical,
                        choices,
                        victim,
                    } = task;
                    let out = self.run_task(|w| w.traverse_set(&mut state, child_logical, choices));
                    let to = &shared.cells[victim];
                    if let Some(total) = to.join.arrive(out, P::Out::combine) {
                        to.joined.send(total);
                    }
                    idle_since = now_if(shared.timing);
                }
                None => self.stats.steals_failed += 1,
            }
            std::thread::yield_now();
        }
        lap(&mut self.stats.time.steal_wait_ns, idle_since.take());
    }
}

/// Run `problem` under the Tascell policy.
///
/// Slot 0 — the root task, then its steal loop — runs on the caller's
/// stack; only slots `1..cfg.threads` get threads.
///
/// # Errors
///
/// Returns [`adaptivetc_core::SchedulerError::Config`] for invalid
/// configurations and `WorkerPanicked` if a worker panics. A panic in slot
/// 0 is caught, and at one thread the caller gets `WorkerPanicked(0)`; at
/// two or more threads the other workers keep requesting work for a root
/// that never completes, so the call does not return.
pub fn run<P: Problem>(
    problem: &P,
    cfg: &Config,
) -> Result<(P::Out, RunReport), adaptivetc_core::SchedulerError> {
    cfg.validate()?;
    let threads = cfg.threads;
    let shared = Shared {
        problem,
        cells: (0..threads)
            .map(|_| {
                CachePadded::new(Cell {
                    request: Request::new(),
                    response: ResultCell::new(),
                    join: JoinCell::new(),
                    joined: ResultCell::new(),
                })
            })
            .collect(),
        root: ResultCell::new(),
        timing: cfg.timing,
    };
    let seeds: Vec<XorShift64> = engine::Shared::<P>::seeds(cfg).take(threads).collect();

    let start = Instant::now();
    let per_worker = run_team(threads, |id| {
        let mut w = Worker {
            shared: &shared,
            id,
            stats: RunStats::default(),
            rng: seeds[id].clone(),
            stack: Vec::new(),
            handed: false,
        };
        if id == 0 {
            let mut root_state = shared.problem.root();
            w.stats.tasks_created += 1; // the root task
            let out = w.run_task(|w| w.node(&mut root_state, 0));
            shared.root.deliver(out);
        }
        w.steal_loop();
        w.stats
    })?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let out = shared.root.take();
    Ok((out, RunReport::from_workers(per_worker, wall_ns)))
}
