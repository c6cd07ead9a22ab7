//! Virtual-time interpreter for the Tascell policy.
//!
//! Each virtual worker runs one task as an explicit-stack sequential
//! traversal, polling its request flag at every node. A thief installs a
//! request at a random busy victim and sleeps until the victim answers (at
//! its next poll) or a timeout fires. The victim answers by *temporary
//! backtracking*: it pays an undo/redo cost proportional to the distance to
//! the shallowest frame holding an untried choice, one workspace copy, and
//! a response latency. At the end of a task the victim blocks — it cannot
//! steal — until every subtree it handed out has delivered its result
//! (`wait_children`, the overhead of the paper's Figure 7).

use crate::cost::CostModel;
use crate::events::Events;
use crate::tree::SimTree;
use adaptivetc_core::{Config, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::{tascell_give, uniform_victim};

/// One level of a victim's traversal stack. `end` is normally the child
/// count, but a handed-over range task starts with a narrowed window, and a
/// respond() narrows the victim's own window.
struct TFrame {
    node: u32,
    kid: usize,
    end: usize,
    acc: u64,
}

/// Where a completed task's total goes.
#[derive(Debug, Clone, Copy)]
enum TOut {
    Root,
    /// Into the task currently running (or being waited on) by a victim.
    Victim(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Executing its task (stack non-empty).
    Busy,
    /// Requesting from `victim`; sleeping until response or timeout.
    Requesting(usize),
    /// Task traversal finished; blocked on handed-out children.
    WaitingChildren,
    /// No task; between steal attempts.
    Idle,
    Done,
}

struct TWorker {
    stack: Vec<TFrame>,
    out: TOut,
    /// Subtrees handed out minus results received for the current task.
    pending_children: u32,
    /// Results received from handed-out subtrees.
    extra: u64,
    /// Accumulated result of the finished traversal (valid while waiting).
    own_total: u64,
    request_from: Option<usize>,
    stats: RunStats,
    rng: XorShift64,
    state: TState,
    /// Range assigned by a responding victim: children `[from, to)` of
    /// `node`.
    assigned: Option<(u32, usize, usize, TOut)>,
    idle_since: Option<u64>,
    wait_since: u64,
}

pub(crate) struct TascellSim<'t> {
    tree: &'t SimTree,
    cost: CostModel,
    workers: Vec<TWorker>,
    events: Events,
    root_value: u64,
    root_done: Option<u64>,
    now: u64,
}

impl<'t> TascellSim<'t> {
    pub(crate) fn new(tree: &'t SimTree, cfg: &Config, cost: CostModel) -> Self {
        let mut seeder = XorShift64::new(cfg.seed);
        let workers = (0..cfg.threads)
            .map(|_| TWorker {
                stack: Vec::new(),
                out: TOut::Root,
                pending_children: 0,
                extra: 0,
                own_total: 0,
                request_from: None,
                stats: RunStats::default(),
                rng: seeder.split(),
                state: TState::Idle,
                assigned: None,
                idle_since: None,
                wait_since: 0,
            })
            .collect();
        TascellSim {
            tree,
            cost,
            workers,
            events: Events::new(cfg.threads),
            root_value: 0,
            root_done: None,
            now: 0,
        }
    }

    /// Begin a task over children `[from, to)` of `node` (the root task uses
    /// the full range), delivering its total to `out`. The node itself was
    /// already executed by whoever handed the range over, except for the
    /// root task where `from == 0 && to == children` and the root node is
    /// charged here.
    fn start_task(
        &mut self,
        wid: usize,
        node: u32,
        from: usize,
        to: usize,
        out: TOut,
        root_task: bool,
    ) -> u64 {
        {
            let w = &mut self.workers[wid];
            debug_assert!(w.stack.is_empty());
            w.out = out;
            w.pending_children = 0;
            w.extra = 0;
            w.own_total = 0;
            w.state = TState::Busy;
        }
        let mut cost = self.cost.poll_ns;
        let w = &mut self.workers[wid];
        w.stats.polls += 1;
        w.stats.time.poll_ns += self.cost.poll_ns;
        if root_task {
            let work = self.cost.work_ns(self.tree.work(node));
            cost += work;
            w.stats.nodes += 1;
            w.stats.time.busy_ns += work;
        }
        if self.tree.is_leaf(node) {
            w.own_total = 1;
            // Task completion handled on the next step.
        } else {
            w.stats.fake_tasks += 1;
            w.stack.push(TFrame {
                node,
                kid: from,
                end: to,
                acc: 0,
            });
        }
        cost
    }

    /// Deliver a completed task total.
    fn deliver(&mut self, out: TOut, value: u64) {
        match out {
            TOut::Root => {
                self.root_value = value;
                self.root_done = Some(self.now);
            }
            TOut::Victim(v) => {
                let at = self.now;
                let w = &mut self.workers[v];
                debug_assert!(w.pending_children > 0);
                w.pending_children -= 1;
                w.extra += value;
                if w.pending_children == 0 && w.state == TState::WaitingChildren {
                    // Wake the victim: its task can now complete.
                    self.events.schedule(v, at);
                }
            }
        }
    }

    /// Answer a pending request, if any, by temporary backtracking.
    /// Returns the extra virtual cost paid by the victim.
    fn respond(&mut self, wid: usize) -> u64 {
        let Some(thief) = self.workers[wid].request_from.take() else {
            return 0;
        };
        // The thief may have timed out and moved on.
        if self.workers[thief].state != TState::Requesting(wid) {
            return 0;
        }
        // Shallowest frame with an untried choice.
        let split = self.workers[wid].stack.iter().position(|f| f.kid < f.end);
        let Some(level) = split else {
            // Nothing to give: fail the thief immediately.
            let at = self.now;
            let t = &mut self.workers[thief];
            t.state = TState::Idle;
            t.stats.steals_failed += 1;
            self.events.reschedule(thief, at);
            return 0;
        };
        let depth = self.workers[wid].stack.len();
        let (node, from, to, bytes) = {
            let f = &mut self.workers[wid].stack[level];
            let from = f.end - tascell_give(f.end - f.kid);
            let to = f.end;
            f.end = from;
            (f.node, from, to, self.tree.bytes(f.node))
        };
        let backtrack = self.cost.backtrack_level_ns * 2 * (depth - level) as u64;
        let copy = self.cost.copy_ns(bytes, true);
        let cost = backtrack + copy + self.cost.respond_ns;
        {
            let w = &mut self.workers[wid];
            w.pending_children += 1;
            w.stats.tasks_created += 1;
            w.stats.steal_responses += 1;
            w.stats.copies += 1;
            w.stats.allocations += 1;
            w.stats.copy_bytes += bytes;
            w.stats.time.copy_ns += copy;
            w.stats.time.deque_ns += backtrack + self.cost.respond_ns;
        }
        // Hand the range to the thief.
        let at = self.now + cost;
        let t = &mut self.workers[thief];
        t.assigned = Some((node, from, to, TOut::Victim(wid)));
        t.state = TState::Idle; // will pick the assignment up on wake
        t.stats.steals_ok += 1;
        self.events.reschedule(thief, at);
        cost
    }

    /// One event step for a worker; `Some(cost)` reschedules.
    fn step(&mut self, wid: usize) -> Option<u64> {
        match self.workers[wid].state {
            TState::Done => None,
            TState::Requesting(victim) => {
                // Timeout fired: retract and go idle.
                if self.workers[victim].request_from == Some(wid) {
                    self.workers[victim].request_from = None;
                }
                let w = &mut self.workers[wid];
                w.state = TState::Idle;
                w.stats.steals_failed += 1;
                Some(self.cost.steal_ns)
            }
            TState::WaitingChildren => {
                // Woken: all handed-out children delivered.
                let w = &mut self.workers[wid];
                debug_assert_eq!(w.pending_children, 0);
                w.stats.time.wait_children_ns += self.now - w.wait_since;
                let total = w.own_total + w.extra;
                let out = w.out;
                w.state = TState::Idle;
                self.deliver(out, total);
                Some(self.cost.poll_ns.max(1))
            }
            TState::Idle => {
                if let Some((node, from, to, out)) = self.workers[wid].assigned.take() {
                    let w = &mut self.workers[wid];
                    if let Some(since) = w.idle_since.take() {
                        w.stats.time.steal_wait_ns += self.now - since;
                    }
                    return Some(self.start_task(wid, node, from, to, out, false));
                }
                if self.root_done.is_some() {
                    let w = &mut self.workers[wid];
                    if let Some(since) = w.idle_since.take() {
                        w.stats.time.steal_wait_ns += self.now - since;
                    }
                    w.state = TState::Done;
                    return None;
                }
                if self.workers[wid].idle_since.is_none() {
                    self.workers[wid].idle_since = Some(self.now);
                }
                // Reject requests aimed at us while idle.
                if let Some(thief) = self.workers[wid].request_from.take() {
                    if self.workers[thief].state == TState::Requesting(wid) {
                        let at = self.now;
                        let t = &mut self.workers[thief];
                        t.state = TState::Idle;
                        t.stats.steals_failed += 1;
                        self.events.reschedule(thief, at);
                    }
                }
                let n = self.workers.len();
                if n == 1 {
                    return Some(self.cost.steal_backoff_ns);
                }
                let victim = uniform_victim(&mut self.workers[wid].rng, wid, n);
                let victim_busy = matches!(
                    self.workers[victim].state,
                    TState::Busy | TState::WaitingChildren
                );
                if victim_busy && self.workers[victim].request_from.is_none() {
                    self.workers[victim].request_from = Some(wid);
                    let w = &mut self.workers[wid];
                    w.state = TState::Requesting(victim);
                    w.stats.steal_requests += 1;
                    let at = self.now + self.cost.request_timeout_ns;
                    self.events.schedule(wid, at);
                    None // sleeping until response or timeout
                } else {
                    self.workers[wid].stats.steals_failed += 1;
                    Some(self.cost.steal_ns + self.cost.steal_backoff_ns)
                }
            }
            TState::Busy => {
                // Answer any pending request first (the per-node poll).
                let respond_cost = self.respond(wid);
                let (tree, cost) = (self.tree, &self.cost);
                let w = &mut self.workers[wid];
                let Some(top) = w.stack.last_mut() else {
                    // Leaf-only task: traversal finished at start_task.
                    return self.finish_traversal(wid).map(|c| respond_cost + c);
                };
                if top.kid >= top.end {
                    // Close this frame.
                    let acc = top.acc;
                    w.stack.pop();
                    let Some(parent) = w.stack.last_mut() else {
                        w.own_total = acc;
                        return self.finish_traversal(wid).map(|c| respond_cost + c);
                    };
                    parent.acc += acc;
                    // Free bookkeeping plus any respond cost.
                    return Some(respond_cost.max(1));
                }
                let child = tree.children(top.node).start + top.kid as u32;
                top.kid += 1;
                let work = cost.work_ns(tree.work(child));
                w.stats.nodes += 1;
                w.stats.polls += 1;
                w.stats.time.busy_ns += work;
                w.stats.time.poll_ns += cost.poll_ns;
                let mut paid = respond_cost + work + cost.poll_ns;
                if tree.is_leaf(child) {
                    top.acc += 1;
                } else {
                    w.stats.fake_tasks += 1;
                    w.stack.push(TFrame {
                        node: child,
                        kid: 0,
                        end: tree.children(child).len(),
                        acc: 0,
                    });
                    paid += cost.backtrack_level_ns / 4; // nested-function bookkeeping
                    w.stats.time.deque_ns += cost.backtrack_level_ns / 4;
                }
                Some(paid)
            }
        }
    }

    /// The task's own traversal is done: block on handed-out children
    /// (`None`, the last delivering child wakes us) or complete immediately.
    fn finish_traversal(&mut self, wid: usize) -> Option<u64> {
        let w = &mut self.workers[wid];
        if w.pending_children > 0 {
            w.state = TState::WaitingChildren;
            w.wait_since = self.now;
            w.stats.suspensions += 1;
            None
        } else {
            let total = w.own_total + w.extra;
            let out = w.out;
            w.state = TState::Idle;
            self.deliver(out, total);
            Some(1)
        }
    }

    pub(crate) fn run(mut self) -> (u64, RunReport) {
        let n = self.workers.len();
        self.workers[0].stats.tasks_created += 1;
        let root_kids = self.tree.children(0).len();
        let first_cost = self.start_task(0, 0, 0, root_kids, TOut::Root, true);
        self.events.schedule(0, first_cost);
        for wid in 1..n {
            self.events.schedule(wid, 0);
        }
        while let Some((t, wid)) = self.events.pop() {
            self.now = t;
            if let Some(cost) = self.step(wid) {
                self.events.schedule(wid, t + cost.max(1));
            }
        }
        let wall = self.root_done.expect("simulation must complete the root");
        let per_worker: Vec<RunStats> = self.workers.into_iter().map(|w| w.stats).collect();
        (self.root_value, RunReport::from_workers(per_worker, wall))
    }
}
