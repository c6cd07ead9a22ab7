//! A Tascell-style backtracking load-balancing scheduler (Hiraishi et al.,
//! PPoPP 2009), the paper's second comparator.
//!
//! Tascell keeps no task deque. Each worker runs one task as plain
//! sequential recursion over its execution stack (here: an explicit shadow
//! stack), **polling** for steal *requests* at every node. When a request
//! arrives, the victim *temporarily backtracks*: it undoes the applied
//! choices down to the **shallowest** frame that still has an untried
//! choice, takes that choice, copies the workspace once, re-applies the
//! undone choices, and ships the packaged subtree to the requester.
//!
//! The crucial limitation the paper exploits: a Tascell task **cannot be
//! suspended** at a synchronization point (its state lives on the execution
//! stack), so at the end of a task the victim blocks until every subtree it
//! gave away has delivered its result — the `wait_children` overhead of
//! Figures 6 and 7.

use crate::engine::{self, lap, now_if, run_team};
use crate::frame::ResultCell;
use crate::sync::Mutex;
use crate::sync::{AtomicBool, Ordering};
use adaptivetc_core::{Config, Expansion, Problem, Reduce, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::{tascell_give, uniform_victim};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::time::{Duration, Instant};

/// A packaged half-range of sibling subtrees handed to a requester.
///
/// Tascell's parallel-for split: the victim keeps the first half of the
/// untried choices at the split frame and hands the second half away in one
/// task (this is what makes it collapse on right-heavy trees — the heavy
/// late siblings leave early and the victim ends up waiting on them).
struct Task<P: Problem> {
    /// Workspace at the split frame's node (no choice applied).
    state: P::State,
    /// Logical depth of the split frame's children.
    child_logical: u32,
    /// The handed-away choices, in order.
    choices: Vec<P::Choice>,
    /// Where the range's total result must be sent (the victim waits on the
    /// other end).
    result: Sender<P::Out>,
}

/// One outstanding steal request: the requester's id and where to send the
/// response.
type Responder<P> = (usize, SyncSender<Option<Task<P>>>);

struct RequestBox<P: Problem> {
    /// Polled by the victim at every node (cheap).
    flag: AtomicBool,
    slot: Mutex<Option<Responder<P>>>,
}

struct Shared<'p, P: Problem> {
    problem: &'p P,
    boxes: Vec<RequestBox<P>>,
    root: ResultCell<P::Out>,
    timing: bool,
}

/// One level of the victim's shadow stack.
struct ShadowFrame<C> {
    choices: Vec<C>,
    next: usize,
    /// The choice currently applied on the path below this frame.
    applied: Option<C>,
}

/// Channels and counter for the subtrees the current task handed away.
struct TaskChildren<O> {
    rx: Receiver<O>,
    tx: Sender<O>,
    handed: u32,
}

struct Worker<'s, 'p, P: Problem> {
    shared: &'s Shared<'p, P>,
    id: usize,
    stats: RunStats,
    rng: XorShift64,
    stack: Vec<ShadowFrame<P::Choice>>,
    /// Present while the worker is running a task.
    task_children: Option<TaskChildren<P::Out>>,
}

impl<'s, 'p, P: Problem> Worker<'s, 'p, P> {
    fn problem(&self) -> &'p P {
        self.shared.problem
    }

    /// Run the root task to completion, including the terminal wait for
    /// children given away, and return its total result.
    fn run_root_task(&mut self, mut state: P::State, logical: u32) -> P::Out {
        let (tx, rx) = channel::<P::Out>();
        self.task_children = Some(TaskChildren { rx, tx, handed: 0 });
        debug_assert!(self.stack.is_empty());
        let out = self.node(&mut state, logical);
        self.await_children(out)
    }

    /// Run a handed-over sibling range to completion.
    fn run_range_task(&mut self, task: Task<P>) -> P::Out {
        let Task {
            mut state,
            child_logical,
            choices,
            result,
        } = task;
        let (tx, rx) = channel::<P::Out>();
        self.task_children = Some(TaskChildren { rx, tx, handed: 0 });
        debug_assert!(self.stack.is_empty());
        let out = self.traverse_set(&mut state, child_logical, choices);
        let out = self.await_children(out);
        let _ = result.send(out);
        P::Out::identity()
    }

    /// Terminal sync: wait (no stealing possible!) for given-away subtrees.
    fn await_children(&mut self, mut out: P::Out) -> P::Out {
        let TaskChildren { rx, tx, handed } =
            self.task_children.take().expect("installed by run_*_task");
        drop(tx);
        if handed > 0 {
            let t0 = now_if(self.shared.timing);
            for _ in 0..handed {
                out.combine(rx.recv().expect("child task panicked or leaked its sender"));
            }
            lap(&mut self.stats.time.wait_children_ns, t0);
        }
        out
    }

    /// Execute a set of sibling subtrees under a stealable shadow frame.
    fn traverse_set(
        &mut self,
        state: &mut P::State,
        child_logical: u32,
        choices: Vec<P::Choice>,
    ) -> P::Out {
        let mut acc = P::Out::identity();
        self.stack.push(ShadowFrame {
            choices,
            next: 0,
            applied: None,
        });
        let level = self.stack.len() - 1;
        loop {
            let c = {
                let f = &mut self.stack[level];
                if f.next >= f.choices.len() {
                    break;
                }
                let c = f.choices[f.next];
                f.next += 1;
                f.applied = Some(c);
                c
            };
            self.problem().apply(state, c);
            acc.combine(self.node(state, child_logical));
            self.problem().undo(state, c);
            self.stack[level].applied = None;
        }
        self.stack.pop();
        acc
    }

    /// Sequential node execution with per-node request polling.
    fn node(&mut self, state: &mut P::State, logical: u32) -> P::Out {
        self.stats.nodes += 1;
        self.stats.polls += 1;
        // Relaxed: an advisory request-flag poll on the victim's hot path;
        // the mailbox mutex carries the actual task hand-off.
        if self.shared.boxes[self.id].flag.load(Ordering::Relaxed) {
            self.respond(state, logical);
        }
        match self.problem().expand(state, logical) {
            Expansion::Leaf(out) => out,
            Expansion::Children(choices) => {
                self.stats.fake_tasks += 1;
                self.traverse_set(state, logical + 1, choices)
            }
        }
    }

    /// Answer a pending steal request by backtracking to the shallowest
    /// frame with an untried choice.
    fn respond(&mut self, state: &mut P::State, _logical: u32) {
        let Some((_, responder)) = self.shared.boxes[self.id].slot.lock().take() else {
            // Raced with a timed-out requester that retracted its request;
            // clear the flag.
            // Relaxed: the mailbox lock just taken provides the ordering,
            // the atomic only the poll.
            self.shared.boxes[self.id]
                .flag
                .store(false, Ordering::Relaxed);
            return;
        };
        // Relaxed: cleared after servicing under the mailbox lock, as above.
        self.shared.boxes[self.id]
            .flag
            .store(false, Ordering::Relaxed);

        // Shallowest splittable frame.
        let split = self.stack.iter().position(|f| f.next < f.choices.len());
        let Some(level) = split else {
            let _ = responder.send(None);
            return;
        };

        // Temporary backtracking: undo the applied path from the deepest
        // frame down to (and including) `level`, snapshot the workspace at
        // the split frame's node, hand away the second half of its untried
        // choices, then re-apply the path.
        let path: Vec<P::Choice> = self.stack[level..]
            .iter()
            .filter_map(|f| f.applied)
            .collect();
        for &c in path.iter().rev() {
            self.problem().undo(state, c);
        }
        // Frame at `level` sits `path.len()` applied choices above the
        // current node (at `_logical`); its children are one deeper.
        let child_logical = _logical - path.len() as u32 + 1;
        let handed_choices: Vec<P::Choice> = {
            let f = &mut self.stack[level];
            let give = tascell_give(f.choices.len() - f.next);
            f.choices.drain(f.choices.len() - give..).collect()
        };
        let t0 = now_if(self.shared.timing);
        let task_state = state.clone();
        self.stats.copies += 1;
        self.stats.allocations += 1;
        self.stats.copy_bytes += self.problem().state_bytes(state) as u64;
        lap(&mut self.stats.time.copy_ns, t0);
        for &c in path.iter() {
            self.problem().apply(state, c);
        }

        let result_tx = self
            .task_children
            .as_ref()
            .expect("responding only while running a task")
            .tx
            .clone();
        match responder.send(Some(Task {
            state: task_state,
            child_logical,
            choices: handed_choices,
            result: result_tx,
        })) {
            Ok(()) => {
                self.task_children.as_mut().expect("installed").handed += 1;
                self.stats.tasks_created += 1;
                self.stats.steal_responses += 1;
            }
            Err(_) => {
                // The requester timed out and dropped its receiver. The
                // handed choices were drained with the Task and dropped with
                // it; this arm is unreachable under the retract-or-block
                // protocol, which guarantees the receiver stays alive once
                // the victim holds the responder.
                unreachable!("requester receivers outlive taken responders");
            }
        }
    }

    /// Idle loop: request tasks from random victims.
    fn steal_loop(&mut self) {
        let n = self.shared.boxes.len();
        if n == 1 {
            return;
        }
        let mut idle_since = now_if(self.shared.timing);
        while !self.shared.root.is_done() {
            // Serve (reject) requests aimed at us while we are idle, so
            // requesters don't wait out their timeout on an empty worker.
            // Relaxed: advisory poll, as in `node`.
            if self.shared.boxes[self.id].flag.load(Ordering::Relaxed) {
                if let Some((_, r)) = self.shared.boxes[self.id].slot.lock().take() {
                    let _ = r.send(None);
                }
                // Relaxed: cleared after the mailbox lock, as in `respond`.
                self.shared.boxes[self.id]
                    .flag
                    .store(false, Ordering::Relaxed);
            }

            let victim = uniform_victim(&mut self.rng, self.id, n);
            let vbox = &self.shared.boxes[victim];
            // Relaxed: the flag CAS only arbitrates requesters (one request
            // per victim at a time); the request itself is written under
            // the mailbox mutex, which the victim locks after its poll.
            if vbox
                .flag
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                // Someone else is already requesting from this victim.
                self.stats.steals_failed += 1;
                std::thread::yield_now();
                continue;
            }
            let (tx, rx) = sync_channel::<Option<Task<P>>>(1);
            *vbox.slot.lock() = Some((self.id, tx));
            self.stats.steal_requests += 1;
            let response = match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(r) => Some(r),
                Err(_) => {
                    // Timed out. If our request is still in the slot the
                    // victim has not seen it: retract it and move on. If the
                    // victim already took it, a response is imminent — block
                    // briefly for it so the handed-out task is never lost.
                    let mut slot = vbox.slot.lock();
                    let still_ours = matches!(*slot, Some((id, _)) if id == self.id);
                    if still_ours {
                        *slot = None;
                        // Relaxed: retracted under the mailbox lock.
                        vbox.flag.store(false, Ordering::Relaxed);
                        drop(slot);
                        None
                    } else {
                        drop(slot);
                        rx.recv().ok()
                    }
                }
            };
            match response {
                Some(Some(task)) => {
                    self.stats.steals_ok += 1;
                    lap(&mut self.stats.time.steal_wait_ns, idle_since.take());
                    self.run_range_task(task);
                    idle_since = now_if(self.shared.timing);
                }
                Some(None) | None => {
                    self.stats.steals_failed += 1;
                }
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
        boxes: (0..threads)
            .map(|_| RequestBox {
                flag: AtomicBool::new(false),
                slot: Mutex::new(None),
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
            task_children: None,
        };
        if id == 0 {
            let root_state = shared.problem.root();
            w.stats.tasks_created += 1; // the root task
            let out = w.run_root_task(root_state, 0);
            shared.root.deliver(out);
        }
        w.steal_loop();
        w.stats
    })?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let out = shared.root.take();
    Ok((out, RunReport::from_workers(per_worker, wall_ns)))
}
