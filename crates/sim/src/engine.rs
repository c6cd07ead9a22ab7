//! Virtual-time interpreter for the deque-based policies (Cilk,
//! Cilk-SYNCHED, the two cut-off baselines, AdaptiveTC).
//!
//! Each virtual worker owns an explicit continuation stack whose entries
//! mirror the threaded engine's recursion: `Node` (expand and dispatch),
//! `Loop`/`PopCheck` (the frame spawn loop and its THE pop), `SeqLoop` (the
//! sequence/check fake-task recursion) and `SpecialLoop`/`SpecialPop` (the
//! special-task section). The loops advance in place at the top of the
//! stack; frames live in an index slab with a free list; one event slot
//! per worker ([`Events`]) drives the interleaving deterministically. Every
//! costed activity advances only the acting worker's clock, and a step
//! allocates nothing once the stacks, deques and slab have grown.
//!
//! Every scheduling decision is the virtual worker's [`Kernel`]'s
//! (`adaptivetc-strategy`), the same code the threaded engine runs; this
//! module supplies the deques, frames and virtual time.

use crate::cost::CostModel;
use crate::events::Events;
use crate::trace::{sev, SimTracer};
use crate::tree::SimTree;
use adaptivetc_core::{Config, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::fsm::{self, Version};
use adaptivetc_strategy::{Fallthrough, Kernel, Mode, Regime};
use adaptivetc_trace::EventKind as Ev;
use std::collections::VecDeque;

struct Frame {
    node: u32,
    tdepth: u32,
    /// The next child to spawn.
    next: u32,
    /// Arrivals still expected: one per spawned child, plus the owner's
    /// continuation.
    outstanding: u32,
    acc: u64,
    parent: Deliver,
}

/// A frame's index in the [`Frames`] slab.
type FrameRef = u32;

/// Every live frame, in a slab whose freed slots the next frames reuse.
#[derive(Default)]
struct Frames {
    slab: Vec<Frame>,
    free: Vec<FrameRef>,
}

impl Frames {
    fn alloc(&mut self, node: u32, tdepth: u32, parent: Deliver) -> FrameRef {
        let frame = Frame {
            node,
            tdepth,
            next: 0,
            outstanding: 1,
            acc: 0,
            parent,
        };
        match self.free.pop() {
            Some(f) => {
                self.slab[f as usize] = frame;
                f
            }
            None => {
                self.slab.push(frame);
                (self.slab.len() - 1) as FrameRef
            }
        }
    }

    /// One expected arrival at `f`, carrying `value`. The last one frees
    /// the frame and returns its total and where the total goes.
    fn arrive(&mut self, f: FrameRef, value: u64) -> Option<(u64, Deliver)> {
        let frame = &mut self.slab[f as usize];
        frame.acc += value;
        frame.outstanding -= 1;
        if frame.outstanding > 0 {
            return None;
        }
        self.free.push(f);
        Some((frame.acc, frame.parent))
    }
}

#[derive(Clone, Copy)]
enum Deliver {
    /// The root result.
    Root,
    /// Absorb into a frame (asynchronous join).
    Frame(FrameRef),
    /// Add to the accumulator of the worker's current top stack entry.
    Below,
    /// Wake the blocked worker (special-task sync).
    Wake(u32),
}

#[derive(Clone, Copy)]
enum Entry {
    Node {
        node: u32,
        tdepth: u32,
        regime: Regime,
        out: Deliver,
    },
    Loop {
        frame: FrameRef,
        regime: Regime,
    },
    PopCheck {
        frame: FrameRef,
        regime: Regime,
    },
    SeqLoop {
        node: u32,
        kid: u32,
        acc: u64,
        kind: Fallthrough,
        /// Task depth of `node`.
        tdepth: u32,
        out: Deliver,
    },
    SpecialLoop {
        node: u32,
        kid: u32,
        sframe: FrameRef,
        out: Deliver,
    },
    SpecialPop {
        sframe: FrameRef,
    },
}

/// A deque entry. Every entry names a live frame, and an owner's pop
/// compares it with frames pushed no earlier, so an equal index is the
/// same frame.
#[derive(Clone, Copy, PartialEq)]
enum DqEntry {
    Task(FrameRef),
    Special(FrameRef),
}

/// Outcome of processing one stack entry.
enum Flow {
    /// Pay a virtual cost, then schedule the next event.
    Pay(u64),
    /// Free bookkeeping: continue within the same event.
    Free,
    /// The worker blocked (special-task sync): no reschedule.
    Block,
    /// The stack is empty: try to steal.
    Idle,
}

/// What a step reads and does not change.
struct Env<'t> {
    tree: &'t SimTree,
    cost: CostModel,
    mode: Mode,
    /// Event sink stamping the virtual clock (`None` when `Config::trace`
    /// is off).
    tracer: SimTracer<'t>,
    now: u64,
}

struct WorkerSim {
    id: u32,
    stack: Vec<Entry>,
    deque: VecDeque<DqEntry>,
    stolen_num: u32,
    need_task: bool,
    kernel: Kernel,
    stats: RunStats,
    /// The total a blocked special-task sync was woken with.
    wake: Option<u64>,
    wait_since: u64,
    idle_since: Option<u64>,
    /// A delivery that left this worker during the current entry — the
    /// root result or a blocked worker's wake-up — for [`Sim::step`].
    far: Option<(Deliver, u64)>,
}

pub(crate) struct Sim<'t> {
    env: Env<'t>,
    /// Failed steals against one victim before its `need_task` is raised.
    max_stolen: u32,
    workers: Vec<WorkerSim>,
    frames: Frames,
    events: Events,
    root_value: u64,
    root_done: Option<u64>,
}

impl WorkerSim {
    /// Node work, charged and counted.
    fn work(&mut self, env: &Env, node: u32) -> u64 {
        let ns = env.cost.work_ns(env.tree.work(node));
        self.stats.nodes += 1;
        self.stats.time.busy_ns += ns;
        ns
    }

    /// The paper's workspace copy, charged and recorded.
    fn charge_copy(&mut self, env: &Env, bytes: u64) -> u64 {
        let alloc = env.mode != Mode::CilkSynched;
        let ns = env.cost.copy_ns(bytes, alloc);
        let st = &mut self.stats;
        st.copies += 1;
        st.copy_bytes += bytes;
        if alloc {
            st.allocations += 1;
        }
        st.time.copy_ns += ns;
        ns
    }

    fn push_deque(&mut self, entry: DqEntry) {
        self.deque.push_back(entry);
        self.stats.deque_peak = self.stats.deque_peak.max(self.deque.len() as u64);
    }

    /// The entry being executed.
    fn top(&mut self) -> &mut Entry {
        self.stack.last_mut().expect("an entry is executing")
    }

    fn deliver(&mut self, frames: &mut Frames, mut out: Deliver, mut value: u64) {
        loop {
            match out {
                Deliver::Below => match self.stack.last_mut() {
                    Some(Entry::SeqLoop { acc, .. }) => return *acc += value,
                    _ => unreachable!("Below delivers into a SeqLoop"),
                },
                Deliver::Frame(f) => match frames.arrive(f, value) {
                    Some((total, parent)) => (value, out) = (total, parent),
                    None => return,
                },
                Deliver::Root | Deliver::Wake(_) => return self.far = Some((out, value)),
            }
        }
    }

    /// Process the entry at the top of the stack.
    fn exec(&mut self, env: &Env, frames: &mut Frames) -> Flow {
        let wid = self.id as usize;
        let Some(top) = self.stack.last_mut() else {
            return Flow::Idle;
        };
        match *top {
            Entry::Node {
                node,
                tdepth,
                regime,
                out,
            } => {
                self.stack.pop();
                let cost = self.work(env, node);
                if env.tree.is_leaf(node) {
                    self.deliver(frames, out, 1);
                    return Flow::Pay(cost);
                }
                if self.kernel.real_task(tdepth, regime) {
                    let frame = frames.alloc(node, tdepth, out);
                    self.stack.push(Entry::Loop { frame, regime });
                    return Flow::Pay(cost);
                }
                let kind = self.kernel.fallthrough(regime);
                Flow::Pay(cost + self.enter_inline(env, frames, node, tdepth, kind, out))
            }

            Entry::SeqLoop {
                node,
                ref mut kid,
                ref mut acc,
                kind,
                tdepth,
                out,
            } => {
                let Some(child) = env.tree.child(node, *kid) else {
                    let acc = *acc;
                    self.stack.pop();
                    self.deliver(frames, out, acc);
                    return Flow::Free;
                };
                *kid += 1;
                let leaf = env.tree.is_leaf(child);
                if leaf {
                    *acc += 1;
                }
                let mut cost = self.work(env, child);
                if kind == Fallthrough::SequenceCopy {
                    cost += self.charge_copy(env, env.tree.bytes(node));
                }
                if leaf {
                    return Flow::Pay(cost);
                }
                let inline =
                    self.enter_inline(env, frames, child, tdepth + 1, kind, Deliver::Below);
                Flow::Pay(cost + inline)
            }

            Entry::Loop { frame, regime } => {
                let f = &mut frames.slab[frame as usize];
                let kids = env.tree.children(f.node);
                let child = kids.start + f.next;
                if child >= kids.end {
                    self.stack.pop();
                    match frames.arrive(frame, 0) {
                        Some((total, parent)) => self.deliver(frames, parent, total),
                        None => {
                            self.stats.suspensions += 1;
                            sev!(env, wid, Ev::SyncSuspend);
                        }
                    }
                    return Flow::Free;
                }
                f.next += 1;
                f.outstanding += 1;
                // The continuation after the last spawn holds nothing
                // stealable: elide its deque entry (dead continuations
                // would otherwise satisfy thieves without feeding them).
                let stealable = child + 1 < kids.end;
                let (tdepth, bytes) = (f.tdepth + 1, env.tree.bytes(f.node));
                let mut cost = env.cost.task_create_ns;
                self.stats.tasks_created += 1;
                self.stats.time.deque_ns += env.cost.task_create_ns;
                sev!(env, wid, Ev::Spawn { depth: tdepth });
                // A real task's child gets its own workspace clone.
                cost += self.charge_copy(env, bytes);
                // Without a deque entry there is nothing to pop: the loop
                // stays on top, so the continuation still reaches its sync.
                if stealable {
                    sev!(env, wid, Ev::Push);
                    cost += env.cost.deque_op_ns;
                    self.stats.deque_pushes += 1;
                    self.stats.time.deque_ns += env.cost.deque_op_ns;
                    self.push_deque(DqEntry::Task(frame));
                    *self.top() = Entry::PopCheck { frame, regime };
                }
                self.stack.push(Entry::Node {
                    node: child,
                    tdepth,
                    regime,
                    out: Deliver::Frame(frame),
                });
                Flow::Pay(cost)
            }

            Entry::PopCheck { frame, regime } => {
                let cost = env.cost.deque_op_ns;
                self.stats.time.deque_ns += cost;
                if self.deque.back() == Some(&DqEntry::Task(frame)) {
                    self.deque.pop_back();
                    self.stats.deque_pops += 1;
                    sev!(env, wid, Ev::Pop);
                    *self.top() = Entry::Loop { frame, regime };
                } else {
                    self.stack.pop();
                    self.stats.pop_conflicts += 1;
                    sev!(env, wid, Ev::PopConflict);
                }
                Flow::Pay(cost)
            }

            Entry::SpecialLoop {
                node,
                ref mut kid,
                sframe,
                out,
            } => {
                if let Some(child) = env.tree.child(node, *kid) {
                    *kid += 1;
                    frames.slab[sframe as usize].outstanding += 1;
                    let mut cost = env.cost.task_create_ns + 2 * env.cost.deque_op_ns;
                    self.stats.tasks_created += 1;
                    self.stats.deque_pushes += 1;
                    self.stats.time.deque_ns += cost;
                    sev!(env, wid, Ev::Spawn { depth: 0 });
                    sev!(env, wid, Ev::SpecialPush);
                    cost += self.charge_copy(env, env.tree.bytes(node));
                    self.push_deque(DqEntry::Special(sframe));
                    self.stack.push(Entry::SpecialPop { sframe });
                    self.stack.push(Entry::Node {
                        node: child,
                        tdepth: 0,
                        regime: Regime::Fast2,
                        out: Deliver::Frame(sframe),
                    });
                    return Flow::Pay(cost);
                }
                // sync_specialtask: the total is here once the last child
                // has woken this worker, or if no child is still out.
                let total = match self.wake.take() {
                    Some(total) => {
                        self.stats.time.wait_children_ns += env.now - self.wait_since;
                        Some(total)
                    }
                    None => frames.arrive(sframe, 0).map(|(total, _)| total),
                };
                let Some(total) = total else {
                    sev!(env, wid, Ev::SyncSuspend);
                    self.stats.suspensions += 1;
                    self.wait_since = env.now;
                    return Flow::Block;
                };
                self.stack.pop();
                self.deliver(frames, out, total);
                Flow::Free
            }

            Entry::SpecialPop { sframe } => {
                self.stack.pop();
                let cost = env.cost.deque_op_ns;
                self.stats.time.deque_ns += cost;
                let reclaimed = self.deque.back() == Some(&DqEntry::Special(sframe));
                if reclaimed {
                    self.deque.pop_back();
                    self.stats.deque_pops += 1;
                } else {
                    self.stats.pop_conflicts += 1;
                }
                sev!(env, wid, Ev::SpecialConsume { reclaimed });
                Flow::Pay(cost)
            }
        }
    }

    /// Enter an interior node that is not a real task, as `kind`: the
    /// check version polls `need_task` first and may divert into a
    /// special task; otherwise the node is a fake task whose children a
    /// `SeqLoop` walks. Returns the cost beyond the node's own work.
    fn enter_inline(
        &mut self,
        env: &Env,
        frames: &mut Frames,
        node: u32,
        tdepth: u32,
        kind: Fallthrough,
        out: Deliver,
    ) -> u64 {
        let mut cost = 0;
        if kind == Fallthrough::Check {
            cost = env.cost.poll_ns;
            self.stats.polls += 1;
            self.stats.time.poll_ns += cost;
            if fsm::after_poll(self.need_task) == Version::Special {
                return cost + self.start_special(env, frames, node, tdepth, out);
            }
        }
        self.stats.fake_tasks += 1;
        sev!(env, self.id as usize, Ev::FakeTask { depth: tdepth });
        self.stack.push(Entry::SeqLoop {
            node,
            kid: 0,
            acc: 0,
            kind,
            tdepth,
            out,
        });
        cost
    }

    /// The special-task section: acknowledge `need_task`, then spawn
    /// every child of `node` as a special task's child under fast_2.
    fn start_special(
        &mut self,
        env: &Env,
        frames: &mut Frames,
        node: u32,
        depth: u32,
        out: Deliver,
    ) -> u64 {
        self.need_task = false;
        self.stolen_num = 0;
        self.stats.special_tasks += 1;
        sev!(env, self.id as usize, Ev::SpecialBegin { depth });
        let sframe = frames.alloc(node, 0, Deliver::Wake(self.id));
        self.stack.push(Entry::SpecialLoop {
            node,
            kid: 0,
            sframe,
            out,
        });
        env.cost.task_create_ns
    }

    fn finish_idle_at(&mut self, end: u64) {
        if let Some(since) = self.idle_since.take() {
            self.stats.time.steal_wait_ns += end.saturating_sub(since);
        }
    }
}

impl<'t> Sim<'t> {
    pub(crate) fn new(
        tree: &'t SimTree,
        cfg: &Config,
        cost: CostModel,
        mode: Mode,
        tracer: SimTracer<'t>,
    ) -> Self {
        let mut seeder = XorShift64::new(cfg.seed);
        let workers = (0..cfg.threads)
            .map(|id| WorkerSim {
                id: id as u32,
                stack: Vec::new(),
                deque: VecDeque::new(),
                stolen_num: 0,
                need_task: false,
                kernel: Kernel::new(mode, cfg.cutoff_depth(), seeder.split()),
                stats: RunStats::default(),
                wake: None,
                wait_since: 0,
                idle_since: None,
                far: None,
            })
            .collect();
        Sim {
            env: Env {
                tree,
                cost,
                mode,
                tracer,
                now: 0,
            },
            max_stolen: cfg.max_stolen_num,
            workers,
            frames: Frames::default(),
            events: Events::new(cfg.threads),
            root_value: 0,
            root_done: None,
        }
    }

    /// Execute one costed step for a worker; returns the cost, or `None` if
    /// the worker blocked or finished (no reschedule).
    fn step(&mut self, wid: usize) -> Option<u64> {
        loop {
            let w = &mut self.workers[wid];
            let flow = w.exec(&self.env, &mut self.frames);
            match w.far.take() {
                Some((Deliver::Root, value)) => {
                    self.root_value = value;
                    self.root_done = Some(self.env.now);
                }
                Some((Deliver::Wake(target), value)) => {
                    self.workers[target as usize].wake = Some(value);
                    self.events.schedule(target as usize, self.env.now);
                }
                Some(_) => unreachable!("only the root and a wake-up leave a worker"),
                None => {}
            }
            match flow {
                Flow::Pay(cost) => return Some(cost),
                Flow::Free => {} // zero-cost bookkeeping: keep going
                Flow::Block => return None,
                Flow::Idle => return self.steal_step(wid),
            }
        }
    }

    /// One steal attempt (the worker's stack is empty).
    ///
    /// Out of line on purpose: this is the idle path, and folded into
    /// `run` with `step` and `exec` it costs the per-node interpreter loop
    /// about 3 % on the `sim_8w` workload (code layout, measured in PR 17).
    #[inline(never)]
    fn steal_step(&mut self, wid: usize) -> Option<u64> {
        let (now, cost) = (self.env.now, self.env.cost);
        if self.root_done.is_some() {
            self.workers[wid].finish_idle_at(now);
            return None;
        }
        self.workers[wid].idle_since.get_or_insert(now);
        let n = self.workers.len();
        if n == 1 {
            // Nothing to steal from; spin until done.
            return Some(cost.steal_backoff_ns);
        }
        let victim = self.workers[wid].kernel.victim(wid, n);
        let v = &mut self.workers[victim];
        let stolen = match (v.deque.front().copied(), v.deque.get(1).copied()) {
            (Some(DqEntry::Task(f)), _) => {
                v.deque.pop_front();
                Some(f)
            }
            // steal_specialtask: retire the special, take its child.
            (Some(DqEntry::Special(_)), Some(DqEntry::Task(f))) => {
                v.deque.drain(..2);
                Some(f)
            }
            _ => None,
        };
        let Some(frame) = stolen else {
            v.stolen_num += 1;
            if v.stolen_num > self.max_stolen {
                v.need_task = true;
            }
            let w = &mut self.workers[wid];
            w.kernel.on_steal_empty(victim);
            w.stats.steals_failed += 1;
            sev!(
                self.env,
                wid,
                Ev::StealEmpty {
                    victim: victim as u32
                }
            );
            return Some(cost.steal_ns + cost.steal_backoff_ns);
        };
        v.stolen_num = 0;
        v.need_task = false;
        let w = &mut self.workers[wid];
        w.stats.steals_ok += 1;
        sev!(
            self.env,
            wid,
            Ev::StealOk {
                victim: victim as u32
            }
        );
        w.kernel.on_steal();
        let paid = cost.steal_ns;
        // The slow version resumes under fast/check rules.
        w.stack.push(Entry::Loop {
            frame,
            regime: Regime::Fast,
        });
        w.finish_idle_at(now + paid);
        Some(paid)
    }

    /// Run to completion, returning the leaf count and the report.
    pub(crate) fn run(mut self) -> (u64, RunReport) {
        self.workers[0].stack.push(Entry::Node {
            node: 0,
            tdepth: 0,
            regime: Regime::Fast,
            out: Deliver::Root,
        });
        self.workers[0].stats.tasks_created += 1; // the root task
        sev!(self.env, 0, Ev::Spawn { depth: 0 });
        for wid in 0..self.workers.len() {
            self.events.schedule(wid, 0);
        }
        while let Some((t, wid)) = self.events.pop() {
            self.env.now = t;
            if let Some(cost) = self.step(wid) {
                self.events.schedule(wid, t + cost.max(1));
            }
        }
        let wall = self.root_done.expect("simulation must complete the root");
        let (made, freed) = (self.frames.slab.len(), self.frames.free.len());
        debug_assert_eq!(made, freed, "a frame was never freed");
        let per_worker: Vec<RunStats> = self.workers.into_iter().map(|w| w.stats).collect();
        (self.root_value, RunReport::from_workers(per_worker, wall))
    }
}
