//! A miniature work-first engine over the real join cell.
//!
//! `runtime/src/join.rs` is `#[path]`-included into this crate, so the
//! [`JoinCell`] below is the product source compiled against the model
//! primitives. Around it this module rebuilds, statement for statement,
//! the part of `engine.rs` that decides *when* the cell is touched — the
//! spawn loop's push / run child / pop, the theft branch, the sync, the
//! thief's entry and the cascading delivery — over the real THE deque
//! and a fixed scenario tree whose frames are preallocated.
//!
//! The continuation-private fields (`next`, `acc`) are [`RaceCell`]s:
//! under `check_races` every schedule also proves that only the current
//! holder touches them and that holdership moves through a
//! Release/Acquire edge (deque extraction or the cell's lock).
//!
//! The preallocated frames are the engine's frame slab, and each carries a
//! `retired` [`RaceCell`] for the reuse rule: the holder sets it at a sync
//! that never went asynchronous, and whoever empties the frame's join cell
//! sets it otherwise — the two points at which the engine hands a frame
//! to a free list. Every access to a frame (`arrive`, `add_in_flight`,
//! `next`, `acc`) first asserts it unset, so a schedule in which anybody
//! touches a frame after it could have been reused fails, by that
//! assertion or as a race on the flag itself.

use crate::join::JoinCell;
use crate::sync::RaceCell;
use crate::the::{StealOutcome, TheDeque};
use std::sync::{Arc, Mutex};

/// One frame, three leaf children: every steal is of the only frame.
pub const FLAT: Node = Node::Inner(0, &[Node::Leaf(1), Node::Leaf(2), Node::Leaf(4)]);

/// The interior child is spawned *last*, so the root's push is elided:
/// stealing the child leaves it detached under a parent its owner kept.
pub const NESTED_KEPT: Node = Node::Inner(
    0,
    &[
        Node::Leaf(8),
        Node::Inner(1, &[Node::Leaf(1), Node::Leaf(2)]),
    ],
);

/// The interior child is spawned *first*: the owner's deque holds root
/// then child, so two steals leave the child detached under a parent
/// that was stolen too.
pub const NESTED_STOLEN: Node = Node::Inner(
    0,
    &[
        Node::Inner(1, &[Node::Leaf(1), Node::Leaf(2)]),
        Node::Leaf(8),
    ],
);

/// One node of a scenario tree.
pub enum Node {
    /// A leaf worth this much.
    Leaf(u64),
    /// An interior node: its frame's index in [`World`] and its children.
    Inner(usize, &'static [Node]),
}

struct Frame {
    kids: &'static [Node],
    parent: Option<usize>,
    join: JoinCell<u64>,
    next: RaceCell<usize>,
    acc: RaceCell<u64>,
    /// Handed back for reuse: nobody may touch the frame any more.
    retired: RaceCell<bool>,
}

impl Frame {
    /// Every access to the frame goes through here first.
    fn live(&self) -> &Self {
        // SAFETY: a checked plain read; a retirement racing it fails the
        // schedule before the value is used.
        let retired = unsafe { *self.retired.read() };
        assert!(!retired, "frame touched after its retirement");
        self
    }

    /// The holder or the cell's emptier hands the frame back.
    fn retire(&self) {
        // SAFETY: the retiring thread owns the completed frame; a racing
        // access fails the schedule.
        unsafe { *self.retired.write() = true };
    }
}

/// A planted bug for the meta-tests; `None` is the engine as written.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutant {
    /// The engine's protocol, unmodified.
    None,
    /// A holder that keeps its frame after a child came back detached
    /// forgets to add the in-flight token back.
    DropReaddedToken,
    /// A victim whose pop found its continuation stolen re-reads the
    /// frame's `acc` after its finished child's `arrive` returned `None`.
    VictimRereadsAcc,
}

/// What running a subtree produced on the caller's stack (the engine's
/// `Outcome`).
enum Outcome {
    Done(u64),
    Detached,
}

/// The shared state of one explored execution.
pub struct World {
    root: &'static Node,
    frames: Vec<Frame>,
    deques: Vec<TheDeque<u32>>,
    /// Every completion of the root, in order. Host-side (not a yield
    /// point): the oracle reads it after all workers joined.
    completions: Mutex<Vec<u64>>,
    /// Frames retired by an arriving child rather than by their holder, in
    /// order. Host-side, like `completions`.
    retired_by_arrival: Mutex<Vec<usize>>,
    mutant: Mutant,
}

fn add(acc: &mut u64, v: u64) {
    *acc += v;
}

impl World {
    /// A world for `root` with one deque per worker.
    pub fn new(root: &'static Node, workers: usize, mutant: Mutant) -> Arc<World> {
        fn collect(node: &'static Node, parent: Option<usize>, out: &mut Vec<(usize, Frame)>) {
            if let Node::Inner(id, kids) = node {
                let frame = Frame {
                    kids,
                    parent,
                    join: JoinCell::new(),
                    next: RaceCell::new(0),
                    acc: RaceCell::new(0),
                    retired: RaceCell::new(false),
                };
                out.push((*id, frame));
                for k in *kids {
                    collect(k, Some(*id), out);
                }
            }
        }
        let mut frames = Vec::new();
        collect(root, None, &mut frames);
        frames.sort_by_key(|(id, _)| *id);
        Arc::new(World {
            root,
            frames: frames.into_iter().map(|(_, f)| f).collect(),
            deques: (0..workers).map(|_| TheDeque::new(8)).collect(),
            completions: Mutex::new(Vec::new()),
            retired_by_arrival: Mutex::new(Vec::new()),
            mutant,
        })
    }

    /// The sum of every leaf: what the one completion must report.
    pub fn expected(&self) -> u64 {
        fn sum(n: &Node) -> u64 {
            match n {
                Node::Leaf(v) => *v,
                Node::Inner(_, kids) => kids.iter().map(sum).sum(),
            }
        }
        sum(self.root)
    }

    /// The oracle, run after every worker joined: exactly one completion,
    /// carrying every child's result, and every frame retired. (A delivery
    /// after completion trips the cell's own assertion during the run.)
    pub fn verify(&self) {
        let done = self.completions.lock().unwrap();
        assert_eq!(
            *done,
            [self.expected()],
            "root completions (want exactly one, summing every leaf)"
        );
        for (id, f) in self.frames.iter().enumerate() {
            // SAFETY: every worker joined; the joins order this read.
            assert!(unsafe { *f.retired.read() }, "frame {id} never retired");
        }
    }

    /// `participate` for the lead worker: run the root task on deque `me`.
    pub fn run_root(&self, me: usize) {
        if let Outcome::Done(total) = self.exec_node(me, self.root) {
            self.complete(None, total);
        }
    }

    /// One steal attempt by worker `me` on `victim`, running what it gets
    /// (`run_stolen`). Returns the stolen frame's index, if any.
    pub fn steal_and_run(&self, me: usize, victim: usize) -> Option<usize> {
        let StealOutcome::Stolen(id) = self.deques[victim].steal() else {
            return None;
        };
        let id = id as usize;
        let parent = self.frames[id].parent;
        // The victim's child still owns the frame's in-flight token.
        self.frames[id].live().join.add_in_flight();
        if let Outcome::Done(total) = self.frame_loop(me, id, true) {
            self.complete(parent, total);
        }
        Some(id)
    }

    fn exec_node(&self, me: usize, node: &Node) -> Outcome {
        match node {
            Node::Leaf(v) => Outcome::Done(*v),
            Node::Inner(id, _) => self.frame_loop(me, *id, false),
        }
    }

    fn frame_loop(&self, me: usize, id: usize, mut shared: bool) -> Outcome {
        let f = &self.frames[id];
        loop {
            // SAFETY: (model of `FrameRef::cont`) this worker holds the
            // continuation; the race detector checks exactly that.
            let i = unsafe { *f.live().next.read() };
            if i >= f.kids.len() {
                break;
            }
            // SAFETY: as above.
            unsafe { *f.live().next.write() = i + 1 };
            let stealable = i + 1 < f.kids.len();
            let pushed = stealable && self.deques[me].push(id as u32).is_ok();
            let child = self.exec_node(me, &f.kids[i]);
            if pushed && self.deques[me].pop().is_none() {
                if let Outcome::Done(out) = child {
                    let emptied = self.complete(Some(id), out);
                    if self.mutant == Mutant::VictimRereadsAcc && !emptied {
                        // SAFETY: none — the planted bug: the token that
                        // gave this worker its right was just delivered.
                        let _ = unsafe { *f.live().acc.read() };
                    }
                }
                return Outcome::Detached;
            }
            match child {
                // SAFETY: the pop left the continuation with this worker.
                Outcome::Done(out) => unsafe { *f.live().acc.write() += out },
                Outcome::Detached => {
                    if self.mutant != Mutant::DropReaddedToken {
                        f.live().join.add_in_flight();
                    }
                    shared = true;
                }
            }
        }
        // SAFETY: still the holder.
        let acc = unsafe { *f.live().acc.read() };
        if !shared {
            // The engine's `retire_frame` at a sync that never went
            // asynchronous.
            f.retire();
            return Outcome::Done(acc);
        }
        match f.live().join.release(acc, add) {
            Some(total) => {
                // The holder emptied the cell.
                f.retire();
                Outcome::Done(total)
            }
            None => Outcome::Detached,
        }
    }

    /// `frame::deliver`: hand `out` to frame `parent` (the root mailbox if
    /// `None`), cascading completions upward and retiring every frame whose
    /// cell it empties. Whether the first `arrive` emptied its cell.
    fn complete(&self, mut parent: Option<usize>, mut out: u64) -> bool {
        let mut first = true;
        loop {
            let Some(id) = parent else {
                self.completions.lock().unwrap().push(out);
                return true;
            };
            let f = &self.frames[id];
            match f.live().join.arrive(out, add) {
                None => return !first,
                Some(total) => {
                    out = total;
                    parent = f.parent;
                    f.retire();
                    self.retired_by_arrival.lock().unwrap().push(id);
                    first = false;
                }
            }
        }
    }
}

/// Which frames the thieves' steal attempts obtained, in attempt order.
pub type Steals = Vec<Option<usize>>;

/// Exploration body: the owner runs `tree` on deque 0 against one thief
/// making `attempts` steal attempts; verifies the completion.
pub fn owner_vs_thief(tree: &'static Node, attempts: usize, mutant: Mutant) -> Steals {
    owner_vs_thief_retiring(tree, attempts, mutant).0
}

/// As [`owner_vs_thief`], also returning the frames an arriving child
/// retired (the others were retired by their holders), in order.
pub fn owner_vs_thief_retiring(
    tree: &'static Node,
    attempts: usize,
    mutant: Mutant,
) -> (Steals, Vec<usize>) {
    let w = World::new(tree, 2, mutant);
    let thief = {
        let w = Arc::clone(&w);
        shim_sync::thread::spawn(move || (0..attempts).map(|_| w.steal_and_run(1, 0)).collect())
    };
    w.run_root(0);
    let steals: Steals = thief.join().unwrap();
    w.verify();
    let by_arrival = w.retired_by_arrival.lock().unwrap().clone();
    (steals, by_arrival)
}

/// Exploration body: the owner on deque 0, a thief stealing from it, and
/// a second thief stealing from the *first thief's* deque.
pub fn owner_vs_two_thieves(tree: &'static Node) -> Steals {
    let w = World::new(tree, 3, Mutant::None);
    let spawn = |me: usize, victim: usize| {
        let w = Arc::clone(&w);
        shim_sync::thread::spawn(move || w.steal_and_run(me, victim))
    };
    let (first, second) = (spawn(1, 0), spawn(2, 1));
    w.run_root(0);
    let steals = vec![first.join().unwrap(), second.join().unwrap()];
    w.verify();
    steals
}
