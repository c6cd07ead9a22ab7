//! Scheduler configuration.

use crate::error::ConfigError;

/// How the task-creation cut-off depth is chosen.
///
/// The paper's runtime sets the AdaptiveTC cut-off to `⌈log₂ N⌉` for `N`
/// threads ([`CutoffPolicy::Auto`]); the fixed-cut-off baselines of Figure 9
/// use a programmer- or library-chosen constant ([`CutoffPolicy::Fixed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutoffPolicy {
    /// `⌈log₂ threads⌉`, minimum 1 — the paper's default.
    Auto,
    /// A fixed depth.
    Fixed(u32),
}

impl CutoffPolicy {
    /// Resolve the policy to a depth for a given worker count.
    ///
    /// # Examples
    ///
    /// ```
    /// use adaptivetc_core::CutoffPolicy;
    ///
    /// assert_eq!(CutoffPolicy::Auto.depth_for(8), 3);
    /// assert_eq!(CutoffPolicy::Auto.depth_for(5), 3);
    /// assert_eq!(CutoffPolicy::Auto.depth_for(1), 1);
    /// assert_eq!(CutoffPolicy::Fixed(7).depth_for(8), 7);
    /// ```
    pub fn depth_for(&self, threads: usize) -> u32 {
        match *self {
            CutoffPolicy::Fixed(d) => d,
            CutoffPolicy::Auto => {
                let t = threads.max(1) as u32;
                let lg = 32 - (t - 1).leading_zeros(); // ceil(log2 t), 0 for t=1
                lg.max(1)
            }
        }
    }
}

/// Names for the four deques of `adaptivetc-deque`. The benchmark's metric
/// catalogue labels its `deque.<name>.*` rows with them; that is all this
/// type is for. Nothing selects a deque with it: the threaded runtime runs
/// on the THE deque only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DequeBackend {
    /// The simplified THE protocol of Frigo et al. (fixed capacity,
    /// per-deque thief lock): the paper's substrate and the engine's deque.
    The,
    /// The lock-free dynamic circular deque of Chase & Lev (grows on
    /// demand, single-CAS thief synchronization).
    ChaseLev,
    /// The growable locked buffer-pool deque (overflow-free reference).
    Pool,
    /// The fully read/write fence-free deque with multiplicity of
    /// Castañeda & Piña: zero fences/RMWs on the owner path; an entry may
    /// be extracted more than once.
    FenceFree,
}

impl DequeBackend {
    /// Short name for reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            DequeBackend::The => "the",
            DequeBackend::ChaseLev => "chase-lev",
            DequeBackend::Pool => "pool",
            DequeBackend::FenceFree => "fence-free",
        }
    }

    /// All four, in report order.
    pub const ALL: [DequeBackend; 4] = [
        DequeBackend::The,
        DequeBackend::ChaseLev,
        DequeBackend::Pool,
        DequeBackend::FenceFree,
    ];
}

/// Configuration shared by all schedulers.
///
/// The threaded runtime runs on the paper's THE deque, sized by
/// `deque_capacity`. Use the builder-style setters; [`Config::validate`] is called by the
/// schedulers before running.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::{Config, CutoffPolicy};
///
/// let cfg = Config::new(8)
///     .cutoff(CutoffPolicy::Auto)
///     .max_stolen_num(20)
///     .seed(1);
/// assert_eq!(cfg.threads, 8);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Number of worker threads (virtual workers in the simulator).
    pub threads: usize,
    /// Task-creation cut-off policy.
    pub cutoff: CutoffPolicy,
    /// Failed-steal threshold before a victim's `need_task` flag is raised
    /// (the paper's default is 20).
    pub max_stolen_num: u32,
    /// Capacity of each worker's fixed-size THE d-e-que. A solo run
    /// allocates its deques at this size; on a `JobServer` it is a lease
    /// key instead — a pool worker keeps the deques of the last job it led
    /// and a job allocates only when its capacity (or slot count) differs
    /// from theirs.
    pub deque_capacity: usize,
    /// Seed for all scheduler-internal randomness.
    pub seed: u64,
    /// Measure per-activity times (adds instrumentation overhead to the
    /// threaded runtime; the simulator always reports exact virtual times).
    pub timing: bool,
    /// Record per-worker event traces (spawns, deque traffic, steals, FSM
    /// transitions, special tasks). Works in every mode, including
    /// the Cilk baselines. Off by default; this is the one off switch.
    pub trace: bool,
    /// Per-worker event-ring capacity (events, rounded up to a power of
    /// two). Full rings drop their oldest events and count the loss.
    pub trace_capacity: usize,
    /// Record only 1 in N events of the high-frequency categories (deque
    /// traffic, fake tasks, spawns) — the one volume control. The
    /// default of 16 keeps traced-on overhead in low single digits
    /// (production flight-recorder mode); set `1` to record everything —
    /// required when a consumer needs exhaustive streams, e.g. the
    /// trace-vs-sim diff. `RunStats` keeps exact counts regardless, so
    /// the trace/stats differential stays meaningful — sampled categories
    /// are checked as bounds.
    pub trace_sample: u32,
}

impl Config {
    /// A configuration with the paper's defaults for `threads` workers.
    pub fn new(threads: usize) -> Self {
        Config {
            threads,
            cutoff: CutoffPolicy::Auto,
            max_stolen_num: 20,
            deque_capacity: 4096,
            seed: 0x5EED,
            timing: false,
            trace: false,
            trace_capacity: 1 << 16,
            trace_sample: 16,
        }
    }

    /// Set the cut-off policy.
    pub fn cutoff(mut self, cutoff: CutoffPolicy) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// Set the failed-steal threshold that raises `need_task`.
    pub fn max_stolen_num(mut self, n: u32) -> Self {
        self.max_stolen_num = n;
        self
    }

    /// Set the fixed d-e-que capacity.
    pub fn deque_capacity(mut self, cap: usize) -> Self {
        self.deque_capacity = cap;
        self
    }

    /// Set the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable or disable time instrumentation.
    pub fn timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Enable or disable event tracing.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Set the per-worker event-ring capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Set the 1-in-N sampling rate for high-frequency trace categories.
    pub fn trace_sample(mut self, n: u32) -> Self {
        self.trace_sample = n;
        self
    }

    /// The resolved cut-off depth for this configuration.
    pub fn cutoff_depth(&self) -> u32 {
        self.cutoff.depth_for(self.threads)
    }

    /// Check the configuration for nonsensical values.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `threads == 0`, `deque_capacity < 2`,
    /// `max_stolen_num == 0`, or tracing is enabled with
    /// `trace_capacity < 16` or `trace_sample == 0`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.deque_capacity < 2 {
            return Err(ConfigError::DequeTooSmall(self.deque_capacity));
        }
        if self.max_stolen_num == 0 {
            return Err(ConfigError::ZeroMaxStolen);
        }
        if self.trace && self.trace_capacity < 16 {
            return Err(ConfigError::TraceCapacityTooSmall(self.trace_capacity));
        }
        if self.trace && self.trace_sample == 0 {
            return Err(ConfigError::ZeroTraceSample);
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_cutoff_is_ceil_log2() {
        assert_eq!(CutoffPolicy::Auto.depth_for(1), 1);
        assert_eq!(CutoffPolicy::Auto.depth_for(2), 1);
        assert_eq!(CutoffPolicy::Auto.depth_for(3), 2);
        assert_eq!(CutoffPolicy::Auto.depth_for(4), 2);
        assert_eq!(CutoffPolicy::Auto.depth_for(8), 3);
        assert_eq!(CutoffPolicy::Auto.depth_for(9), 4);
        assert_eq!(CutoffPolicy::Auto.depth_for(16), 4);
    }

    #[test]
    fn fixed_cutoff_ignores_threads() {
        assert_eq!(CutoffPolicy::Fixed(5).depth_for(1), 5);
        assert_eq!(CutoffPolicy::Fixed(5).depth_for(64), 5);
    }

    #[test]
    fn validate_rejects_zero_threads() {
        assert!(Config::new(0).validate().is_err());
    }

    #[test]
    fn validate_rejects_tiny_deque() {
        assert!(Config::new(1).deque_capacity(1).validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_max_stolen() {
        assert!(Config::new(1).max_stolen_num(0).validate().is_err());
    }

    #[test]
    fn builder_roundtrip() {
        let cfg = Config::new(4)
            .cutoff(CutoffPolicy::Fixed(9))
            .max_stolen_num(3)
            .deque_capacity(64)
            .seed(77)
            .timing(true)
            .trace(true)
            .trace_capacity(1 << 10)
            .trace_sample(8);
        assert_eq!(cfg.cutoff_depth(), 9);
        assert_eq!(cfg.max_stolen_num, 3);
        assert_eq!(cfg.deque_capacity, 64);
        assert_eq!(cfg.seed, 77);
        assert!(cfg.timing);
        assert!(cfg.trace);
        assert_eq!(cfg.trace_capacity, 1 << 10);
        assert_eq!(cfg.trace_sample, 8);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_trace_sample_only_when_tracing() {
        assert!(Config::new(1).trace_sample(0).validate().is_ok());
        let err = Config::new(1)
            .trace(true)
            .trace_sample(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, crate::ConfigError::ZeroTraceSample);
        // The default samples hot categories 1-in-16 (flight-recorder
        // mode); exhaustive recording is opt-in.
        assert_eq!(Config::new(1).trace_sample, 16);
    }

    #[test]
    fn validate_rejects_tiny_trace_ring_only_when_tracing() {
        // A tiny capacity is fine while tracing is off...
        assert!(Config::new(1).trace_capacity(1).validate().is_ok());
        // ...and rejected once tracing is requested.
        let err = Config::new(1)
            .trace(true)
            .trace_capacity(1)
            .validate()
            .unwrap_err();
        assert_eq!(err, crate::ConfigError::TraceCapacityTooSmall(1));
        assert!(Config::new(1).trace(true).validate().is_ok());
    }

    #[test]
    fn backend_names_are_distinct() {
        let mut names: Vec<_> = DequeBackend::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DequeBackend::ALL.len());
    }

    #[test]
    fn default_is_single_threaded_and_valid() {
        let cfg = Config::default();
        assert_eq!(cfg.threads, 1);
        assert!(cfg.validate().is_ok());
    }
}
