//! The shared event schema: what both the threaded runtime and the
//! discrete-event simulator record.
//!
//! Events are stored in the per-worker rings as fixed-size 16-byte
//! [`RawEvent`]s (a timestamp plus a packed code/argument triple) so that
//! recording on the hot path is a single clock read and one cache-line
//! store. [`EventKind`] is the typed view used by every consumer; the
//! raw↔typed round-trip is lossless and property-tested.
//!
//! The schema deliberately mirrors `RunStats`: for every counter the
//! engine increments there is an event whose occurrence count must equal
//! it at the end of a run — that identity is what
//! [`validate`](crate::validate) checks.

/// The five compiled code versions of the paper's FSM, plus the two
/// scheduler-level states a *worker* (rather than a task) can be in:
/// `Slow` (executing a stolen continuation) and `Idle` (the steal loop).
///
/// This is the trace-side mirror of `adaptivetc_strategy::fsm::Version`;
/// the suite's integration tests assert the two stay in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FsmState {
    /// Task creation above the cut-off.
    Fast = 0,
    /// Fake tasks polling `need_task`.
    Check = 1,
    /// The special-task transition section.
    Special = 2,
    /// Task creation with doubled cut-off and reset depth.
    Fast2 = 3,
    /// Plain sequential execution below fast_2.
    Sequence = 4,
    /// A thief executing a stolen continuation.
    Slow = 5,
    /// The steal loop (no task in hand).
    Idle = 6,
}

impl FsmState {
    /// All states, indexable by discriminant.
    pub const ALL: [FsmState; 7] = [
        FsmState::Fast,
        FsmState::Check,
        FsmState::Special,
        FsmState::Fast2,
        FsmState::Sequence,
        FsmState::Slow,
        FsmState::Idle,
    ];

    /// Short name for reports and Chrome-trace track labels.
    pub fn name(&self) -> &'static str {
        match self {
            FsmState::Fast => "fast",
            FsmState::Check => "check",
            FsmState::Special => "special",
            FsmState::Fast2 => "fast_2",
            FsmState::Sequence => "sequence",
            FsmState::Slow => "slow",
            FsmState::Idle => "idle",
        }
    }

    fn from_u8(v: u8) -> FsmState {
        FsmState::ALL[v as usize % FsmState::ALL.len()]
    }
}

/// Is `from → to` an edge of the paper's version walk (Figure 2 as
/// interpreted by Appendix C, plus the slow-version entry/exit a steal
/// performs)?
///
/// The legal edges are exactly the decisions `adaptivetc_strategy::fsm`
/// encodes: `fast → check` (falling below the cut-off), `check → special`
/// (a raised `need_task` poll), `special → fast_2` (re-entry with reset
/// depth), `fast_2 → sequence` (below the doubled cut-off), and the
/// worker-level `idle → slow` / `slow → idle` bracket around a stolen
/// continuation.
pub fn legal_fsm_edge(from: FsmState, to: FsmState) -> bool {
    matches!(
        (from, to),
        (FsmState::Fast, FsmState::Check)
            | (FsmState::Check, FsmState::Special)
            | (FsmState::Special, FsmState::Fast2)
            | (FsmState::Fast2, FsmState::Sequence)
            | (FsmState::Idle, FsmState::Slow)
            | (FsmState::Slow, FsmState::Idle)
    )
}

/// One trace event, before timestamping.
///
/// `victim`/`owner` arguments are worker ids; `depth` is the task depth
/// (the paper's cut-off counter) at the emitting site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A real task was created (`RunStats::tasks_created`).
    Spawn {
        /// Task depth of the created task.
        depth: u32,
    },
    /// A regular entry was pushed (`RunStats::deque_pushes`, regular part).
    Push,
    /// The owner popped its entry back (`RunStats::deque_pops`, regular).
    Pop,
    /// The owner's pop lost the THE race (`RunStats::pop_conflicts`).
    PopConflict,
    /// A thief probed `victim`'s deque.
    StealAttempt {
        /// The probed worker.
        victim: u32,
    },
    /// The probe succeeded (`RunStats::steals_ok`).
    StealOk {
        /// The robbed worker.
        victim: u32,
    },
    /// The probe found nothing stealable (`RunStats::steals_failed`).
    StealEmpty {
        /// The probed worker.
        victim: u32,
    },
    /// A node ran as a fake task (`RunStats::fake_tasks`).
    FakeTask {
        /// Task depth of the fake task.
        depth: u32,
    },
    /// A version transition of the paper's FSM.
    Fsm {
        /// State before the transition.
        from: FsmState,
        /// State after the transition.
        to: FsmState,
        /// Task depth at the transition point.
        depth: u32,
    },
    /// A special task was created (`RunStats::special_tasks`); opens a
    /// special-section span closed by [`EventKind::SpecialEnd`].
    SpecialBegin {
        /// Logical depth of the transitioning fake task.
        depth: u32,
    },
    /// The special section finished (its sync completed).
    SpecialEnd,
    /// A special entry was pushed (`RunStats::deque_pushes`, special part).
    SpecialPush,
    /// The owner consumed its special entry: `reclaimed` if the child was
    /// still present, otherwise a thief had taken it.
    SpecialConsume {
        /// Whether the special entry was reclaimed intact.
        reclaimed: bool,
    },
    /// A thief's failed-steal streak raised `victim`'s `need_task` flag.
    NeedTaskSignal {
        /// The starving worker's current victim.
        victim: u32,
    },
    /// The victim acknowledged its `need_task` flag (special transition).
    NeedTaskAck,
    /// Copy-on-steal: a thief asked `owner` for a workspace deposit.
    WsRequest {
        /// The frame's owning worker.
        owner: u32,
    },
    /// Copy-on-steal: the owner deposited a materialised workspace.
    WsDeposit,
    /// Copy-on-steal: the thief took a deposited workspace.
    WsTake,
    /// A spawn elided its eager workspace clone
    /// (`RunStats::workspace_copies_saved`).
    CopySaved,
    /// A special sync suspended with children outstanding
    /// (`RunStats::suspensions`).
    SyncSuspend,
    /// The suspended sync resumed (all children delivered).
    SyncResume,
    /// A job-server worker started participating in job `job` at job slot
    /// `slot`. All events this worker emits until the matching
    /// [`EventKind::JobEnd`] belong to that job's run-epoch; one-shot runs
    /// never emit it. See [`crate::Trace::split_jobs`].
    JobBegin {
        /// The server-assigned job id.
        job: u32,
        /// The job-local worker slot this pool worker filled.
        slot: u16,
    },
    /// The worker stopped participating in job `job` (completion,
    /// cancellation, or a joiner abandoning an idle steal loop).
    JobEnd {
        /// The server-assigned job id.
        job: u32,
    },
}

/// Event codes of the compact binary encoding, one per [`EventKind`]
/// variant. Codes 21 (retired duplicate-steal event), 24 and 25 (retired
/// cut-off and threshold retune events) are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Code {
    Spawn = 0,
    Push = 1,
    Pop = 2,
    PopConflict = 3,
    StealAttempt = 4,
    StealOk = 5,
    StealEmpty = 6,
    FakeTask = 7,
    Fsm = 8,
    SpecialBegin = 9,
    SpecialEnd = 10,
    SpecialPush = 11,
    SpecialConsume = 12,
    NeedTaskSignal = 13,
    NeedTaskAck = 14,
    WsRequest = 15,
    WsDeposit = 16,
    WsTake = 17,
    CopySaved = 18,
    SyncSuspend = 19,
    SyncResume = 20,
    JobBegin = 22,
    JobEnd = 23,
}

/// The 16-byte wire format: one timestamp, one code, two small arguments.
///
/// | field | bytes | meaning |
/// |---|---|---|
/// | `ts`   | 8 | nanoseconds since the run epoch (virtual ns in the sim) |
/// | `code` | 1 | [`Code`] discriminant |
/// | `a`    | 1 | packed small argument (FSM `from`/`to` nibbles, bools) |
/// | `b`    | 2 | worker id argument (victim / owner) |
/// | `c`    | 4 | depth argument |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct RawEvent {
    /// Nanoseconds since the run epoch.
    pub ts: u64,
    /// [`Code`] discriminant.
    pub code: u8,
    /// Packed small argument.
    pub a: u8,
    /// Worker-id argument.
    pub b: u16,
    /// Depth argument.
    pub c: u32,
}

impl RawEvent {
    /// A zeroed placeholder (used to initialise ring storage).
    pub const ZERO: RawEvent = RawEvent {
        ts: 0,
        code: 0,
        a: 0,
        b: 0,
        c: 0,
    };

    /// Encode a typed event at timestamp `ts`.
    pub fn encode(ts: u64, kind: EventKind) -> RawEvent {
        let (code, a, b, c) = match kind {
            EventKind::Spawn { depth } => (Code::Spawn, 0, 0, depth),
            EventKind::Push => (Code::Push, 0, 0, 0),
            EventKind::Pop => (Code::Pop, 0, 0, 0),
            EventKind::PopConflict => (Code::PopConflict, 0, 0, 0),
            EventKind::StealAttempt { victim } => (Code::StealAttempt, 0, victim as u16, 0),
            EventKind::StealOk { victim } => (Code::StealOk, 0, victim as u16, 0),
            EventKind::StealEmpty { victim } => (Code::StealEmpty, 0, victim as u16, 0),
            EventKind::FakeTask { depth } => (Code::FakeTask, 0, 0, depth),
            EventKind::Fsm { from, to, depth } => {
                (Code::Fsm, (from as u8) << 4 | (to as u8), 0, depth)
            }
            EventKind::SpecialBegin { depth } => (Code::SpecialBegin, 0, 0, depth),
            EventKind::SpecialEnd => (Code::SpecialEnd, 0, 0, 0),
            EventKind::SpecialPush => (Code::SpecialPush, 0, 0, 0),
            EventKind::SpecialConsume { reclaimed } => {
                (Code::SpecialConsume, reclaimed as u8, 0, 0)
            }
            EventKind::NeedTaskSignal { victim } => (Code::NeedTaskSignal, 0, victim as u16, 0),
            EventKind::NeedTaskAck => (Code::NeedTaskAck, 0, 0, 0),
            EventKind::WsRequest { owner } => (Code::WsRequest, 0, owner as u16, 0),
            EventKind::WsDeposit => (Code::WsDeposit, 0, 0, 0),
            EventKind::WsTake => (Code::WsTake, 0, 0, 0),
            EventKind::CopySaved => (Code::CopySaved, 0, 0, 0),
            EventKind::SyncSuspend => (Code::SyncSuspend, 0, 0, 0),
            EventKind::SyncResume => (Code::SyncResume, 0, 0, 0),
            EventKind::JobBegin { job, slot } => (Code::JobBegin, 0, slot, job),
            EventKind::JobEnd { job } => (Code::JobEnd, 0, 0, job),
        };
        RawEvent {
            ts,
            code: code as u8,
            a,
            b,
            c,
        }
    }

    /// Decode back to the typed view.
    pub fn decode(&self) -> EventKind {
        match self.code {
            0 => EventKind::Spawn { depth: self.c },
            1 => EventKind::Push,
            2 => EventKind::Pop,
            3 => EventKind::PopConflict,
            4 => EventKind::StealAttempt {
                victim: self.b as u32,
            },
            5 => EventKind::StealOk {
                victim: self.b as u32,
            },
            6 => EventKind::StealEmpty {
                victim: self.b as u32,
            },
            7 => EventKind::FakeTask { depth: self.c },
            8 => EventKind::Fsm {
                from: FsmState::from_u8(self.a >> 4),
                to: FsmState::from_u8(self.a & 0x0F),
                depth: self.c,
            },
            9 => EventKind::SpecialBegin { depth: self.c },
            10 => EventKind::SpecialEnd,
            11 => EventKind::SpecialPush,
            12 => EventKind::SpecialConsume {
                reclaimed: self.a != 0,
            },
            13 => EventKind::NeedTaskSignal {
                victim: self.b as u32,
            },
            14 => EventKind::NeedTaskAck,
            15 => EventKind::WsRequest {
                owner: self.b as u32,
            },
            16 => EventKind::WsDeposit,
            17 => EventKind::WsTake,
            18 => EventKind::CopySaved,
            19 => EventKind::SyncSuspend,
            20 => EventKind::SyncResume,
            22 => EventKind::JobBegin {
                job: self.c,
                slot: self.b,
            },
            _ => EventKind::JobEnd { job: self.c },
        }
    }
}

/// A decoded event with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the run epoch (virtual ns in the simulator).
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// A short stable name for reports, Chrome-trace entries and diffs.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Spawn { .. } => "spawn",
            EventKind::Push => "push",
            EventKind::Pop => "pop",
            EventKind::PopConflict => "pop_conflict",
            EventKind::StealAttempt { .. } => "steal_attempt",
            EventKind::StealOk { .. } => "steal_ok",
            EventKind::StealEmpty { .. } => "steal_empty",
            EventKind::FakeTask { .. } => "fake_task",
            EventKind::Fsm { .. } => "fsm",
            EventKind::SpecialBegin { .. } => "special_begin",
            EventKind::SpecialEnd => "special_end",
            EventKind::SpecialPush => "special_push",
            EventKind::SpecialConsume { .. } => "special_consume",
            EventKind::NeedTaskSignal { .. } => "need_task_signal",
            EventKind::NeedTaskAck => "need_task_ack",
            EventKind::WsRequest { .. } => "ws_request",
            EventKind::WsDeposit => "ws_deposit",
            EventKind::WsTake => "ws_take",
            EventKind::CopySaved => "copy_saved",
            EventKind::SyncSuspend => "sync_suspend",
            EventKind::SyncResume => "sync_resume",
            EventKind::JobBegin { .. } => "job_begin",
            EventKind::JobEnd { .. } => "job_end",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        let mut v = vec![
            EventKind::Spawn { depth: 3 },
            EventKind::Push,
            EventKind::Pop,
            EventKind::PopConflict,
            EventKind::StealAttempt { victim: 7 },
            EventKind::StealOk { victim: 1 },
            EventKind::StealEmpty { victim: 65535 },
            EventKind::FakeTask { depth: u32::MAX },
            EventKind::SpecialBegin { depth: 9 },
            EventKind::SpecialEnd,
            EventKind::SpecialPush,
            EventKind::SpecialConsume { reclaimed: true },
            EventKind::SpecialConsume { reclaimed: false },
            EventKind::NeedTaskSignal { victim: 2 },
            EventKind::NeedTaskAck,
            EventKind::WsRequest { owner: 3 },
            EventKind::WsDeposit,
            EventKind::WsTake,
            EventKind::CopySaved,
            EventKind::SyncSuspend,
            EventKind::SyncResume,
            EventKind::JobBegin {
                job: 17,
                slot: 65535,
            },
            EventKind::JobEnd { job: u32::MAX },
        ];
        for from in FsmState::ALL {
            for to in FsmState::ALL {
                v.push(EventKind::Fsm { from, to, depth: 5 });
            }
        }
        v
    }

    #[test]
    fn raw_event_is_16_bytes() {
        assert_eq!(std::mem::size_of::<RawEvent>(), 16);
    }

    #[test]
    fn encode_decode_roundtrips() {
        for kind in all_kinds() {
            let raw = RawEvent::encode(42, kind);
            assert_eq!(raw.ts, 42);
            assert_eq!(raw.decode(), kind, "{kind:?} did not roundtrip");
        }
    }

    #[test]
    fn legal_edges_are_exactly_the_fsm_walk() {
        let legal: Vec<(FsmState, FsmState)> = FsmState::ALL
            .into_iter()
            .flat_map(|f| FsmState::ALL.into_iter().map(move |t| (f, t)))
            .filter(|(f, t)| legal_fsm_edge(*f, *t))
            .collect();
        assert_eq!(
            legal,
            vec![
                (FsmState::Fast, FsmState::Check),
                (FsmState::Check, FsmState::Special),
                (FsmState::Special, FsmState::Fast2),
                (FsmState::Fast2, FsmState::Sequence),
                (FsmState::Slow, FsmState::Idle),
                (FsmState::Idle, FsmState::Slow),
            ]
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = all_kinds().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        // 22 non-FSM variants + the single "fsm" name.
        assert_eq!(names.len(), 23);
        let mut state_names: Vec<_> = FsmState::ALL.iter().map(|s| s.name()).collect();
        state_names.sort_unstable();
        state_names.dedup();
        assert_eq!(state_names.len(), FsmState::ALL.len());
    }
}
