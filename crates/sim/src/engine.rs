//! Virtual-time interpreter for the deque-based policies (Cilk,
//! Cilk-SYNCHED, the two cut-off baselines, AdaptiveTC).
//!
//! Each virtual worker owns an explicit continuation stack whose entries
//! mirror the threaded engine's recursion: `Node` (expand and dispatch),
//! `Loop`/`PopCheck` (the frame spawn loop and its THE pop), `SeqLoop` (the
//! sequence/check fake-task recursion) and `SpecialLoop`/`SpecialPop` (the
//! special-task section). A binary heap of `(virtual time, sequence,
//! worker)` events drives the interleaving deterministically; every costed
//! activity advances only the acting worker's clock.
//!
//! Every scheduling decision is the virtual worker's [`Kernel`]'s
//! (`adaptivetc-strategy`), the same code the threaded engine runs; this
//! module supplies the deques, frames and virtual time.

use crate::cost::CostModel;
use crate::trace::{sev, SimTracer};
use crate::tree::SimTree;
use adaptivetc_core::{Config, RunReport, RunStats, XorShift64};
use adaptivetc_strategy::fsm::Version;
use adaptivetc_strategy::{Fallthrough, Kernel, Mode, Regime, Tune};
use adaptivetc_trace::EventKind as Ev;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

struct FrameMut {
    next: usize,
    outstanding: u32,
    acc: u64,
}

struct Frame {
    node: u32,
    tdepth: u32,
    parent: Deliver,
    m: RefCell<FrameMut>,
}

type FrameRef = Rc<Frame>;

impl Frame {
    fn new(node: u32, tdepth: u32, parent: Deliver) -> FrameRef {
        Rc::new(Frame {
            node,
            tdepth,
            parent,
            m: RefCell::new(FrameMut {
                next: 0,
                outstanding: 1,
                acc: 0,
            }),
        })
    }

    /// One expected arrival, carrying `value`: the frame's total once
    /// nothing is outstanding any more.
    fn arrive(&self, value: u64) -> Option<u64> {
        let mut m = self.m.borrow_mut();
        m.acc += value;
        m.outstanding -= 1;
        (m.outstanding == 0).then_some(m.acc)
    }
}

#[derive(Clone)]
enum Deliver {
    /// The root result.
    Root,
    /// Absorb into a frame (asynchronous join).
    Frame(FrameRef),
    /// Add to the accumulator of the worker's current top stack entry.
    Below,
    /// Wake the blocked worker (special-task sync).
    Wake(usize),
}

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
        kid: usize,
        acc: u64,
        kind: Fallthrough,
        /// Task depth of `node`.
        tdepth: u32,
        out: Deliver,
    },
    SpecialLoop {
        node: u32,
        kid: usize,
        sframe: FrameRef,
        out: Deliver,
    },
    SpecialPop {
        sframe: FrameRef,
    },
}

enum DqEntry {
    Task(FrameRef),
    Special(FrameRef),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WState {
    Active,
    Waiting,
    Done,
}

/// Outcome of processing one stack entry.
enum Flow {
    /// Pay a virtual cost, then schedule the next event.
    Pay(u64),
    /// Free bookkeeping: continue within the same event.
    Free,
    /// The worker blocked (special-task sync): no reschedule.
    Block,
}

struct WorkerSim {
    stack: Vec<Entry>,
    deque: VecDeque<DqEntry>,
    stolen_num: u32,
    need_task: bool,
    kernel: Kernel,
    stats: RunStats,
    state: WState,
    /// Pending wake value for a special-task sync.
    wake: Option<(u64, Deliver)>,
    /// Where the blocked special sync should deliver on wake.
    wait_out: Option<Deliver>,
    wait_since: u64,
    idle_since: Option<u64>,
    epoch: u64,
}

pub(crate) struct Sim<'t> {
    tree: &'t SimTree,
    cost: CostModel,
    mode: Mode,
    /// Failed steals against one victim before its `need_task` is raised.
    max_stolen: u32,
    /// The deque backend being simulated. The sim's deques are exact
    /// (`VecDeque`) regardless — multiplicity and the claim layer are a
    /// memory-protocol concern, not a virtual-time one — but the owner's
    /// pop charge depends on whether the backend fences its pop fast path
    /// (see [`CostModel::pop_ns`]).
    backend: adaptivetc_core::DequeBackend,
    workers: Vec<WorkerSim>,
    heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>, // (time, seq, wid, epoch)
    seq: u64,
    root_value: u64,
    root_done: Option<u64>,
    now: u64,
    /// Event sink stamping the virtual clock (`None` when `Config::trace`
    /// is off).
    tracer: SimTracer<'t>,
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
            .map(|_| WorkerSim {
                stack: Vec::new(),
                deque: VecDeque::new(),
                stolen_num: 0,
                need_task: false,
                kernel: Kernel::new(mode, cfg.cutoff_depth(), seeder.split()),
                stats: RunStats::default(),
                state: WState::Active,
                wake: None,
                wait_out: None,
                wait_since: 0,
                idle_since: None,
                epoch: 0,
            })
            .collect();
        Sim {
            tree,
            cost,
            mode,
            max_stolen: cfg.max_stolen_num,
            backend: cfg.backend,
            workers,
            heap: BinaryHeap::new(),
            seq: 0,
            root_value: 0,
            root_done: None,
            now: 0,
            tracer,
        }
    }

    fn schedule(&mut self, wid: usize, at: u64) {
        self.seq += 1;
        let epoch = self.workers[wid].epoch;
        self.heap.push(Reverse((at, self.seq, wid, epoch)));
    }

    /// The paper's workspace copy, charged and recorded.
    fn charge_copy(&mut self, wid: usize, bytes: u64) -> u64 {
        let alloc = self.mode != Mode::CilkSynched;
        let ns = self.cost.copy_ns(bytes, alloc);
        let st = &mut self.workers[wid].stats;
        st.copies += 1;
        st.copy_bytes += bytes;
        if alloc {
            st.allocations += 1;
        }
        st.time.copy_ns += ns;
        ns
    }

    fn deliver(&mut self, out: Deliver, value: u64, wid: usize) {
        let mut out = out;
        let mut value = value;
        loop {
            match out {
                Deliver::Root => {
                    self.root_value = value;
                    self.root_done = Some(self.now);
                    return;
                }
                Deliver::Below => {
                    match self.workers[wid]
                        .stack
                        .last_mut()
                        .expect("Below requires an enclosing sequential entry")
                    {
                        Entry::SeqLoop { acc, .. } => *acc += value,
                        _ => unreachable!("Below delivers into a SeqLoop"),
                    }
                    return;
                }
                Deliver::Wake(target) => {
                    let at = self.now;
                    let w = &mut self.workers[target];
                    debug_assert_eq!(w.state, WState::Waiting);
                    let final_out = w.wait_out.take().expect("waiter stored its out");
                    w.wake = Some((value, final_out));
                    w.state = WState::Active;
                    w.epoch += 1;
                    self.schedule(target, at);
                    return;
                }
                Deliver::Frame(f) => match f.arrive(value) {
                    Some(v) => {
                        value = v;
                        out = f.parent.clone();
                    }
                    None => return,
                },
            }
        }
    }

    /// Execute one costed step for a worker; returns the cost, or `None` if
    /// the worker blocked or finished (no reschedule).
    fn step(&mut self, wid: usize) -> Option<u64> {
        // A pending special-task wake is consumed first.
        if let Some((value, out)) = self.workers[wid].wake.take() {
            let waited = self.now - self.workers[wid].wait_since;
            self.workers[wid].stats.time.wait_children_ns += waited;
            self.deliver(out, value, wid);
        }
        loop {
            let Some(entry) = self.workers[wid].stack.pop() else {
                return self.steal_step(wid);
            };
            match self.exec(wid, entry) {
                Flow::Pay(cost) => return Some(cost),
                Flow::Free => {} // zero-cost bookkeeping: keep going
                Flow::Block => return None,
            }
        }
    }

    /// Process one stack entry.
    fn exec(&mut self, wid: usize, entry: Entry) -> Flow {
        match entry {
            Entry::Node {
                node,
                tdepth,
                regime,
                out,
            } => {
                let cost = self.cost.work_ns(self.tree.work(node));
                self.workers[wid].stats.nodes += 1;
                self.workers[wid].stats.time.busy_ns += cost;
                if self.tree.is_leaf(node) {
                    self.deliver(out, 1, wid);
                    return Flow::Pay(cost);
                }
                let kernel = &self.workers[wid].kernel;
                if kernel.real_task(tdepth, regime) {
                    let frame = Frame::new(node, tdepth, out);
                    self.workers[wid].stack.push(Entry::Loop { frame, regime });
                    return Flow::Pay(cost);
                }
                let kind = kernel.fallthrough(regime);
                Flow::Pay(cost + self.enter_inline(wid, node, tdepth, kind, out))
            }

            Entry::SeqLoop {
                node,
                kid,
                acc,
                kind,
                tdepth,
                out,
            } => {
                let kids = self.tree.children(node);
                if kid >= kids.len() {
                    self.deliver(out, acc, wid);
                    return Flow::Free;
                }
                let child = kids[kid];
                self.workers[wid].stack.push(Entry::SeqLoop {
                    node,
                    kid: kid + 1,
                    acc,
                    kind,
                    tdepth,
                    out,
                });
                let mut cost = self.cost.work_ns(self.tree.work(child));
                self.workers[wid].stats.nodes += 1;
                self.workers[wid].stats.time.busy_ns += cost;
                if kind == Fallthrough::SequenceCopy {
                    cost += self.charge_copy(wid, self.tree.bytes(node));
                }
                if self.tree.is_leaf(child) {
                    self.deliver(Deliver::Below, 1, wid);
                    return Flow::Pay(cost);
                }
                Flow::Pay(cost + self.enter_inline(wid, child, tdepth + 1, kind, Deliver::Below))
            }

            Entry::Loop { frame, regime } => {
                let kids = self.tree.children(frame.node);
                let next = {
                    let mut m = frame.m.borrow_mut();
                    if m.next < kids.len() {
                        let child = kids[m.next];
                        m.next += 1;
                        m.outstanding += 1;
                        // The continuation after the last spawn holds
                        // nothing stealable: elide its deque entry (dead
                        // continuations would otherwise satisfy thieves
                        // without feeding them).
                        Some((child, m.next < kids.len()))
                    } else {
                        None
                    }
                };
                match next {
                    Some((child, stealable)) => {
                        let mut cost = self.cost.task_create_ns;
                        {
                            let st = &mut self.workers[wid].stats;
                            st.tasks_created += 1;
                            st.time.deque_ns += self.cost.task_create_ns;
                        }
                        let tdepth = frame.tdepth + 1;
                        sev!(self, wid, Ev::Spawn { depth: tdepth });
                        if self.workers[wid].kernel.copies_per_spawn() {
                            cost += self.charge_copy(wid, self.tree.bytes(frame.node));
                        } else {
                            // Copy-on-steal: the child borrows the live
                            // workspace; the clone is deferred to a thief,
                            // if any. (The owner-side region seals around
                            // special sections are a liveness device, not
                            // a steady-state cost, and are not modelled.)
                            self.workers[wid].stats.workspace_copies_saved += 1;
                            sev!(self, wid, Ev::CopySaved);
                        }
                        let parent = Deliver::Frame(Rc::clone(&frame));
                        if stealable {
                            sev!(self, wid, Ev::Push);
                        }
                        let w = &mut self.workers[wid];
                        if stealable {
                            cost += self.cost.deque_op_ns;
                            w.stats.deque_pushes += 1;
                            w.stats.time.deque_ns += self.cost.deque_op_ns;
                            w.deque.push_back(DqEntry::Task(Rc::clone(&frame)));
                            w.stats.deque_peak = w.stats.deque_peak.max(w.deque.len() as u64);
                            w.stack.push(Entry::PopCheck { frame, regime });
                        } else {
                            // No entry to pop; re-enter the loop directly so
                            // the continuation still reaches its sync.
                            w.stack.push(Entry::Loop {
                                frame: Rc::clone(&frame),
                                regime,
                            });
                        }
                        w.stack.push(Entry::Node {
                            node: child,
                            tdepth,
                            regime,
                            out: parent,
                        });
                        Flow::Pay(cost)
                    }
                    None => {
                        if let Some(v) = frame.arrive(0) {
                            self.deliver(frame.parent.clone(), v, wid);
                        } else {
                            self.workers[wid].stats.suspensions += 1;
                            sev!(self, wid, Ev::SyncSuspend);
                        }
                        Flow::Free
                    }
                }
            }

            Entry::PopCheck { frame, regime } => {
                let cost = self.cost.pop_ns(self.backend);
                self.workers[wid].stats.time.deque_ns += cost;
                let retained = matches!(
                    self.workers[wid].deque.back(),
                    Some(DqEntry::Task(f)) if Rc::ptr_eq(f, &frame)
                );
                if retained {
                    self.workers[wid].deque.pop_back();
                    self.workers[wid].stats.deque_pops += 1;
                    sev!(self, wid, Ev::Pop);
                    self.workers[wid].stack.push(Entry::Loop { frame, regime });
                } else {
                    self.workers[wid].stats.pop_conflicts += 1;
                    sev!(self, wid, Ev::PopConflict);
                }
                Flow::Pay(cost)
            }

            Entry::SpecialLoop {
                node,
                kid,
                sframe,
                out,
            } => {
                let kids = self.tree.children(node);
                if kid < kids.len() {
                    let child = kids[kid];
                    self.workers[wid].stack.push(Entry::SpecialLoop {
                        node,
                        kid: kid + 1,
                        sframe: Rc::clone(&sframe),
                        out,
                    });
                    sframe.m.borrow_mut().outstanding += 1;
                    let mut cost = self.cost.task_create_ns + 2 * self.cost.deque_op_ns;
                    {
                        let st = &mut self.workers[wid].stats;
                        st.tasks_created += 1;
                        st.deque_pushes += 1;
                        st.time.deque_ns += cost;
                    }
                    sev!(self, wid, Ev::Spawn { depth: 0 });
                    sev!(self, wid, Ev::SpecialPush);
                    cost += self.charge_copy(wid, self.tree.bytes(node));
                    let w = &mut self.workers[wid];
                    w.deque.push_back(DqEntry::Special(Rc::clone(&sframe)));
                    w.stats.deque_peak = w.stats.deque_peak.max(w.deque.len() as u64);
                    w.stack.push(Entry::SpecialPop {
                        sframe: Rc::clone(&sframe),
                    });
                    w.stack.push(Entry::Node {
                        node: child,
                        tdepth: 0,
                        regime: Regime::Fast2,
                        out: Deliver::Frame(sframe),
                    });
                    Flow::Pay(cost)
                } else {
                    // sync_specialtask.
                    match sframe.arrive(0) {
                        Some(v) => {
                            self.deliver(out, v, wid);
                            Flow::Free
                        }
                        None => {
                            sev!(self, wid, Ev::SyncSuspend);
                            let w = &mut self.workers[wid];
                            w.stats.suspensions += 1;
                            w.state = WState::Waiting;
                            w.wait_out = Some(out);
                            w.wait_since = self.now;
                            w.epoch += 1;
                            Flow::Block
                        }
                    }
                }
            }

            Entry::SpecialPop { sframe } => {
                let cost = self.cost.pop_ns(self.backend);
                self.workers[wid].stats.time.deque_ns += cost;
                let reclaimed = matches!(
                    self.workers[wid].deque.back(),
                    Some(DqEntry::Special(f)) if Rc::ptr_eq(f, &sframe)
                );
                if reclaimed {
                    self.workers[wid].deque.pop_back();
                    self.workers[wid].stats.deque_pops += 1;
                } else {
                    self.workers[wid].stats.pop_conflicts += 1;
                }
                sev!(self, wid, Ev::SpecialConsume { reclaimed });
                Flow::Pay(cost)
            }
        }
    }

    /// Record a cut-off move the kernel reports.
    fn note_tune(&mut self, wid: usize, tune: Option<Tune>) {
        if let Some(Tune { eff, up }) = tune {
            self.workers[wid].stats.cutoff_adjustments += 1;
            sev!(self, wid, Ev::CutoffTune { eff, up });
        }
    }

    /// Enter an interior node that is not a real task, as `kind`: the
    /// check version polls `need_task` first and may divert into a
    /// special task; otherwise the node is a fake task whose children a
    /// `SeqLoop` walks. Returns the cost beyond the node's own work.
    fn enter_inline(
        &mut self,
        wid: usize,
        node: u32,
        tdepth: u32,
        kind: Fallthrough,
        out: Deliver,
    ) -> u64 {
        let mut cost = 0;
        if kind == Fallthrough::Check {
            cost = self.cost.poll_ns;
            let w = &mut self.workers[wid];
            w.stats.polls += 1;
            w.stats.time.poll_ns += cost;
            let (next, tune) = w.kernel.check_poll(w.need_task, || w.deque.len());
            self.note_tune(wid, tune);
            if next == Version::Special {
                return cost + self.start_special(wid, node, tdepth, out);
            }
        }
        self.workers[wid].stats.fake_tasks += 1;
        sev!(self, wid, Ev::FakeTask { depth: tdepth });
        self.workers[wid].stack.push(Entry::SeqLoop {
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
    fn start_special(&mut self, wid: usize, node: u32, depth: u32, out: Deliver) -> u64 {
        let w = &mut self.workers[wid];
        w.need_task = false;
        w.stolen_num = 0;
        w.stats.special_tasks += 1;
        sev!(self, wid, Ev::SpecialBegin { depth });
        let sframe = Frame::new(node, 0, Deliver::Wake(wid));
        self.workers[wid].stack.push(Entry::SpecialLoop {
            node,
            kid: 0,
            sframe,
            out,
        });
        self.cost.task_create_ns
    }

    /// One steal attempt (the worker's stack is empty).
    ///
    /// Out of line on purpose: this is the idle path, and folded into
    /// `run` with `step` and `exec` it costs the per-node interpreter loop
    /// about 3 % on the `sim_8w` workload (code layout, measured in PR 17).
    #[inline(never)]
    fn steal_step(&mut self, wid: usize) -> Option<u64> {
        if self.root_done.is_some() {
            self.finish_idle_at(wid, self.now);
            self.workers[wid].state = WState::Done;
            return None;
        }
        if self.workers[wid].idle_since.is_none() {
            self.workers[wid].idle_since = Some(self.now);
        }
        let n = self.workers.len();
        if n == 1 {
            // Nothing to steal from; spin until done.
            return Some(self.cost.steal_backoff_ns);
        }
        let victim = self.workers[wid].kernel.victim(wid, n);
        let stolen: Option<FrameRef> = {
            let vd = &mut self.workers[victim].deque;
            match vd.front() {
                Some(DqEntry::Task(_)) => match vd.pop_front() {
                    Some(DqEntry::Task(f)) => Some(f),
                    _ => unreachable!("just matched"),
                },
                Some(DqEntry::Special(_)) => match vd.get(1) {
                    Some(DqEntry::Task(_)) => {
                        // steal_specialtask: retire the special, take its
                        // child.
                        vd.pop_front();
                        match vd.pop_front() {
                            Some(DqEntry::Task(f)) => Some(f),
                            _ => unreachable!("just matched"),
                        }
                    }
                    _ => None,
                },
                None => None,
            }
        };
        match stolen {
            Some(frame) => {
                {
                    let v = &mut self.workers[victim];
                    v.stolen_num = 0;
                    v.need_task = false;
                }
                self.workers[wid].stats.steals_ok += 1;
                sev!(
                    self,
                    wid,
                    Ev::StealOk {
                        victim: victim as u32
                    }
                );
                let tune = self.workers[wid].kernel.on_steal();
                self.note_tune(wid, tune);
                let mut cost = self.cost.steal_ns;
                if !self.workers[wid].kernel.copies_per_spawn() {
                    // Copy-on-steal: the deferred workspace clone is
                    // materialised for the thief now.
                    cost += self.charge_copy(wid, self.tree.bytes(frame.node));
                }
                // The slow version resumes under fast/check rules.
                self.workers[wid].stack.push(Entry::Loop {
                    frame,
                    regime: Regime::Fast,
                });
                self.finish_idle_at(wid, self.now + cost);
                Some(cost)
            }
            None => {
                {
                    let v = &mut self.workers[victim];
                    v.stolen_num += 1;
                    if v.stolen_num > self.max_stolen {
                        v.need_task = true;
                    }
                }
                self.workers[wid].kernel.on_steal_empty(victim);
                self.workers[wid].stats.steals_failed += 1;
                sev!(
                    self,
                    wid,
                    Ev::StealEmpty {
                        victim: victim as u32
                    }
                );
                Some(self.cost.steal_ns + self.cost.steal_backoff_ns)
            }
        }
    }

    fn finish_idle_at(&mut self, wid: usize, end: u64) {
        let w = &mut self.workers[wid];
        if let Some(since) = w.idle_since.take() {
            w.stats.time.steal_wait_ns += end.saturating_sub(since);
        }
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
        sev!(self, 0, Ev::Spawn { depth: 0 });
        let n = self.workers.len();
        for wid in 0..n {
            self.schedule(wid, 0);
        }
        while let Some(Reverse((t, _, wid, epoch))) = self.heap.pop() {
            if self.workers[wid].epoch != epoch || self.workers[wid].state != WState::Active {
                continue; // stale event
            }
            self.now = t;
            if let Some(cost) = self.step(wid) {
                let at = t + cost.max(1);
                self.schedule(wid, at);
            }
        }
        let wall = self.root_done.expect("simulation must complete the root");
        let per_worker: Vec<RunStats> = self.workers.into_iter().map(|w| w.stats).collect();
        (self.root_value, RunReport::from_workers(per_worker, wall))
    }
}
