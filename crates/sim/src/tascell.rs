//! Virtual-time interpreter for the Tascell policy.
//!
//! Each virtual worker runs one task as an explicit-stack sequential
//! traversal, polling for a request at every node. The request protocol is
//! the threaded runtime's: a thief installs a request only at a victim that
//! runs a task (`Busy`, whose word is open) and has none pending, and then
//! sleeps until the victim answers at its next poll — a victim always
//! answers before it leaves `Busy`, so a thief needs no timeout, and a
//! request to an idle or waiting worker fails at once. The victim answers
//! by *temporary backtracking* to the level [`tascell_split`] picks: it
//! pays an undo/redo cost proportional to the distance to that level, one
//! workspace copy, and a response latency. At the end of a task the victim
//! blocks — it cannot steal — until every range it handed out has
//! delivered its result (`wait_children`, the overhead of the paper's
//! Figure 7).

use crate::cost::CostModel;
use crate::events::Events;
use crate::tree::SimTree;
use adaptivetc_core::{Config, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::{tascell_split, uniform_victim};

/// One level of a victim's traversal stack: the children of `node` from
/// cursor `kid` up to cursor `end` are left. A handed-over range starts
/// with a narrowed window, and each answer narrows the victim's own.
struct TFrame {
    node: u32,
    kid: u32,
    end: u32,
    acc: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Executing its task; its request word is open.
    Busy,
    /// Requesting from `victim`; sleeping until it answers.
    Requesting(usize),
    /// Task traversal finished; blocked on handed-out ranges.
    WaitingChildren,
    /// No task; between steal attempts.
    Idle,
    Done,
}

struct TWorker {
    stack: Vec<TFrame>,
    /// The victim whose task the running task's total joins; `None` for
    /// the root task.
    out: Option<usize>,
    /// Ranges handed out minus results received, for the current task.
    pending_children: u32,
    /// The current task's total so far: its own traversal's, once done,
    /// plus each range's that arrived.
    total: u64,
    /// The requester whose request this worker must answer.
    request_from: Option<usize>,
    stats: RunStats,
    rng: XorShift64,
    state: TState,
    /// Range assigned by a responding victim: the children of `node` from
    /// cursor `from` up to cursor `to`, for `victim`.
    assigned: Option<(u32, u32, u32, usize)>,
    idle_since: Option<u64>,
    wait_since: u64,
}

impl TWorker {
    fn end_idle(&mut self, now: u64) {
        if let Some(since) = self.idle_since.take() {
            self.stats.time.steal_wait_ns += now - since;
        }
    }
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
                out: None,
                pending_children: 0,
                total: 0,
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

    /// Begin a task over the children of `node` from cursor `from` up to
    /// cursor `to`, whose total joins `out`'s task. Whoever handed the
    /// range over executed `node`; only the root task (`out == None`, the
    /// full range) is charged it here.
    fn start_task(&mut self, wid: usize, node: u32, from: u32, to: u32, out: Option<usize>) -> u64 {
        let w = &mut self.workers[wid];
        debug_assert!(w.stack.is_empty());
        w.out = out;
        w.pending_children = 0;
        w.total = 0;
        w.state = TState::Busy;
        let mut cost = self.cost.poll_ns;
        w.stats.polls += 1;
        w.stats.time.poll_ns += self.cost.poll_ns;
        if out.is_none() {
            let work = self.cost.work_ns(self.tree.work(node));
            cost += work;
            w.stats.nodes += 1;
            w.stats.time.busy_ns += work;
        }
        if self.tree.is_leaf(node) {
            // Task completion handled on the next step.
            w.total = 1;
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
    fn deliver(&mut self, out: Option<usize>, value: u64) {
        let Some(v) = out else {
            self.root_value = value;
            self.root_done = Some(self.now);
            return;
        };
        let w = &mut self.workers[v];
        debug_assert!(w.pending_children > 0);
        w.pending_children -= 1;
        w.total += value;
        if w.pending_children == 0 && w.state == TState::WaitingChildren {
            // Wake the victim: its task can now complete.
            self.events.schedule(v, self.now);
        }
    }

    /// Answer a pending request, if any, by temporary backtracking.
    /// Returns the extra virtual cost paid by the victim.
    fn respond(&mut self, wid: usize) -> u64 {
        let Some(thief) = self.workers[wid].request_from.take() else {
            return 0;
        };
        debug_assert_eq!(self.workers[thief].state, TState::Requesting(wid));
        let tree = self.tree;
        // Only the levels up to the first with an untried child are counted.
        let untried = |f: &TFrame| tree.siblings(f.kid, f.end).count();
        let split = tascell_split(self.workers[wid].stack.iter().map(untried));
        let Some((level, give)) = split else {
            // Nothing to give: fail the thief immediately.
            let t = &mut self.workers[thief];
            t.state = TState::Idle;
            t.stats.steals_failed += 1;
            self.events.schedule(thief, self.now);
            return 0;
        };
        let w = &mut self.workers[wid];
        let backtrack = self.cost.backtrack_level_ns * 2 * (w.stack.len() - level) as u64;
        let f = &mut w.stack[level];
        let keep = untried(f) - give;
        let from = tree
            .siblings(f.kid, f.end)
            .nth(keep)
            .expect("give <= untried");
        let (node, to) = (f.node, f.end);
        f.end = from;
        let bytes = tree.bytes(node);
        let copy = self.cost.copy_ns(bytes, true);
        let cost = backtrack + copy + self.cost.respond_ns;
        w.pending_children += 1;
        w.stats.tasks_created += 1;
        w.stats.steal_responses += 1;
        w.stats.copies += 1;
        w.stats.allocations += 1;
        w.stats.copy_bytes += bytes;
        w.stats.time.copy_ns += copy;
        w.stats.time.deque_ns += backtrack + self.cost.respond_ns;
        // Hand the range to the thief, which picks it up on waking.
        let t = &mut self.workers[thief];
        t.assigned = Some((node, from, to, wid));
        t.state = TState::Idle;
        t.stats.steals_ok += 1;
        self.events.schedule(thief, self.now + cost);
        cost
    }

    /// One event step for a worker; `Some(cost)` reschedules.
    fn step(&mut self, wid: usize) -> Option<u64> {
        let now = self.now;
        match self.workers[wid].state {
            TState::Done => None,
            TState::Requesting(_) => unreachable!("a requesting thief sleeps until it is answered"),
            TState::WaitingChildren => {
                // Woken: all handed-out ranges delivered.
                let w = &mut self.workers[wid];
                debug_assert_eq!(w.pending_children, 0);
                w.stats.time.wait_children_ns += now - w.wait_since;
                w.state = TState::Idle;
                let (out, total) = (w.out, w.total);
                self.deliver(out, total);
                Some(self.cost.poll_ns.max(1))
            }
            TState::Idle => {
                let w = &mut self.workers[wid];
                if let Some((node, from, to, victim)) = w.assigned.take() {
                    w.end_idle(now);
                    return Some(self.start_task(wid, node, from, to, Some(victim)));
                }
                if self.root_done.is_some() {
                    w.end_idle(now);
                    w.state = TState::Done;
                    return None;
                }
                w.idle_since.get_or_insert(now);
                let n = self.workers.len();
                if n == 1 {
                    return Some(self.cost.steal_backoff_ns);
                }
                let victim = uniform_victim(&mut self.workers[wid].rng, wid, n);
                // The runtime's CAS: only a running task's open word, with
                // no request pending, takes one.
                let v = &mut self.workers[victim];
                if v.state == TState::Busy && v.request_from.is_none() {
                    v.request_from = Some(wid);
                    let w = &mut self.workers[wid];
                    w.state = TState::Requesting(victim);
                    w.stats.steal_requests += 1;
                    None // sleeping until the victim answers
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
                        w.total += acc;
                        return self.finish_traversal(wid).map(|c| respond_cost + c);
                    };
                    parent.acc += acc;
                    // Free bookkeeping plus any respond cost.
                    return Some(respond_cost.max(1));
                }
                let child = top.kid;
                top.kid = tree.next_sibling(child);
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
                        kid: tree.first_child(child),
                        end: tree.children_end(child),
                        acc: 0,
                    });
                    paid += cost.backtrack_level_ns / 4; // nested-function bookkeeping
                    w.stats.time.deque_ns += cost.backtrack_level_ns / 4;
                }
                Some(paid)
            }
        }
    }

    /// The task's own traversal is done: block on handed-out ranges
    /// (`None`, the last to arrive wakes us) or complete immediately.
    fn finish_traversal(&mut self, wid: usize) -> Option<u64> {
        let w = &mut self.workers[wid];
        // The poll that opened this step answered any request: a victim
        // leaves `Busy` owing none.
        debug_assert_eq!(w.request_from, None);
        if w.pending_children > 0 {
            w.state = TState::WaitingChildren;
            w.wait_since = self.now;
            w.stats.suspensions += 1;
            return None;
        }
        w.state = TState::Idle;
        let (out, total) = (w.out, w.total);
        self.deliver(out, total);
        Some(1)
    }

    /// Run the next event; `false` once none is left.
    fn advance(&mut self) -> bool {
        let Some((t, wid)) = self.events.pop() else {
            return false;
        };
        self.now = t;
        if let Some(cost) = self.step(wid) {
            self.events.schedule(wid, t + cost.max(1));
        }
        true
    }

    /// The root task on worker 0, every other worker in its steal loop.
    fn start(&mut self) {
        self.workers[0].stats.tasks_created += 1;
        let (from, to) = (self.tree.first_child(0), self.tree.children_end(0));
        let first_cost = self.start_task(0, 0, from, to, None);
        self.events.schedule(0, first_cost);
        for wid in 1..self.workers.len() {
            self.events.schedule(wid, 0);
        }
    }

    pub(crate) fn run(mut self) -> (u64, RunReport) {
        self.start();
        while self.advance() {}
        let wall = self.root_done.expect("simulation must complete the root");
        let per_worker: Vec<RunStats> = self.workers.into_iter().map(|w| w.stats).collect();
        (self.root_value, RunReport::from_workers(per_worker, wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_waiting_worker_never_leaves_a_thief_waiting() {
        // A complete ternary tree of height 7: enough ranges go out that
        // victims reach their terminal wait while thieves still probe.
        let interior = (3usize.pow(7) - 1) / 2;
        let mut children = vec![Vec::new(); (3usize.pow(8) - 1) / 2];
        for (i, kids) in children.iter_mut().enumerate().take(interior) {
            *kids = (1..=3).map(|k| (3 * i + k) as u32).collect();
        }
        let tree = SimTree::from_lists(children, 1, 64);
        let mut waited = 0;
        for threads in [2, 4, 8] {
            for seed in 0..8 {
                let cfg = Config::new(threads).seed(seed);
                let mut sim = TascellSim::new(&tree, &cfg, CostModel::calibrated());
                sim.start();
                while sim.advance() {
                    for (wid, w) in sim.workers.iter().enumerate() {
                        if let TState::Requesting(v) = w.state {
                            assert_eq!(
                                sim.workers[v].state,
                                TState::Busy,
                                "worker {wid} waits on {v}, which no longer takes requests \
                                 ({threads} workers, seed {seed}, t = {})",
                                sim.now
                            );
                        }
                        waited += usize::from(w.state == TState::WaitingChildren);
                    }
                }
                assert!(sim.root_done.is_some());
                assert!(sim.workers.iter().all(|w| w.state == TState::Done));
            }
        }
        assert!(waited > 0, "no victim ever reached its terminal wait");
    }
}
