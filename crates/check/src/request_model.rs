//! One Tascell victim against two thieves over the real request word.
//!
//! `runtime/src/request.rs` is `#[path]`-included into this crate, so the
//! [`Request`] below is the product source compiled against the model
//! primitives. Around it this module rebuilds what `runtime/tascell.rs`
//! does with it: the victim opens the word for each task, polls it once a
//! node and answers what it takes, and closes it at the task's end,
//! answering whoever got in; a thief asks, and on success waits for its
//! answer.
//!
//! shim-sync has no notion of a wait that ends, so a waiting thief's model
//! thread ends at a successful ask, and the answer spawns its continuation
//! as a new model thread — which then asks again, racing whatever the
//! victim does next. Every answer asserts that its thief was waiting (no
//! request is answered twice), and [`victim_vs_two_thieves`] asserts at
//! the end that no thief is still waiting (none is stranded).

use crate::request::{Request, IDLE, OPEN};
use crate::sync::Ordering;
use shim_sync::thread::{spawn, JoinHandle};
use std::sync::{Arc, Mutex};

/// The victim's close, as the product writes it or as a seeded bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// `Request::close`: a swap.
    None,
    /// Read the word, then *store* `IDLE` over it: a request installed
    /// between the two is overwritten and never answered.
    StoreIdle,
}

struct World {
    word: Request,
    mutant: Mutant,
    /// Per thief: a request installed and not yet answered. Host mutexes
    /// here and below: never held across a yield point.
    waiting: Mutex<Vec<bool>>,
    /// Per thief: requests installed.
    asked: Mutex<Vec<u32>>,
    /// Per waiting thief: the attempts its continuation has left.
    left: Mutex<Vec<u32>>,
    /// Continuations of answered thieves.
    woken: Mutex<Vec<JoinHandle<()>>>,
}

impl World {
    /// Thief `me`: ask until a request is installed or `attempts` run out.
    fn thief(self: Arc<Self>, me: u32, attempts: u32) {
        let t = me as usize;
        for left in (0..attempts).rev() {
            // Registered before the ask: the victim can take the id the
            // moment the CAS lands.
            self.waiting.lock().unwrap()[t] = true;
            self.left.lock().unwrap()[t] = left;
            if self.word.ask(me) {
                // Asleep until answered.
                self.asked.lock().unwrap()[t] += 1;
                return;
            }
            self.waiting.lock().unwrap()[t] = false;
        }
    }

    /// The victim answers `thief`, which must be waiting.
    fn answer(self: &Arc<Self>, thief: u32) {
        let t = thief as usize;
        {
            let mut waiting = self.waiting.lock().unwrap();
            assert!(waiting[t], "thief {thief} answered without a request");
            waiting[t] = false;
        }
        let left = self.left.lock().unwrap()[t];
        let world = Arc::clone(self);
        let next = spawn(move || world.thief(thief, left));
        self.woken.lock().unwrap().push(next);
    }

    /// The victim: `tasks` tasks of `nodes` polls each.
    fn victim(self: &Arc<Self>, tasks: u32, nodes: u32) {
        for _ in 0..tasks {
            self.word.open();
            for _ in 0..nodes {
                if let Some(thief) = self.word.take() {
                    self.answer(thief);
                }
            }
            let pending = match self.mutant {
                Mutant::None => self.word.close(),
                Mutant::StoreIdle => {
                    let pending = self.word.word.load(Ordering::Relaxed);
                    self.word.word.store(IDLE, Ordering::Relaxed);
                    (pending < OPEN).then_some(pending)
                }
            };
            if let Some(thief) = pending {
                self.answer(thief);
            }
        }
    }
}

/// One victim running `tasks` tasks of `nodes` nodes against thieves 0
/// and 1, each asking up to `attempts` times in all. Returns how many
/// requests each thief got installed: each answered once, as every answer
/// clears its thief's `waiting` flag and none may find it clear.
///
/// # Panics
///
/// On an answer to a thief that was not waiting, a thief still waiting
/// once the victim is done, or a word not left `IDLE`.
pub fn victim_vs_two_thieves(tasks: u32, nodes: u32, attempts: u32, mutant: Mutant) -> [u32; 2] {
    let world = Arc::new(World {
        word: Request::new(),
        mutant,
        waiting: Mutex::new(vec![false; 2]),
        asked: Mutex::new(vec![0; 2]),
        left: Mutex::new(vec![0; 2]),
        woken: Mutex::new(Vec::new()),
    });
    let thieves: Vec<_> = (0..2)
        .map(|me| {
            let world = Arc::clone(&world);
            spawn(move || world.thief(me, attempts))
        })
        .collect();
    // The victim's id is 2: the word never names it.
    world.victim(tasks, nodes);
    for t in thieves {
        t.join().unwrap();
    }
    // The victim is done, so no continuation is spawned after this drain.
    let woken = std::mem::take(&mut *world.woken.lock().unwrap());
    for t in woken {
        t.join().unwrap();
    }
    let waiting = world.waiting.lock().unwrap().clone();
    assert!(
        waiting.iter().all(|w| !w),
        "a request was stranded: thieves waiting {waiting:?}"
    );
    assert_eq!(world.word.word.load(Ordering::Relaxed), IDLE);
    let asked = world.asked.lock().unwrap();
    [asked[0], asked[1]]
}
