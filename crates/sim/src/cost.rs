//! The virtual-time cost model.
//!
//! Every scheduling activity is charged a configurable number of virtual
//! nanoseconds. The defaults were calibrated against the threaded runtime
//! of this repository running single-threaded on the development machine
//! (see EXPERIMENTS.md); what matters for reproducing the paper's *shapes*
//! is the ratios — e.g. that a workspace copy of a few hundred bytes costs
//! a few node-work units, and that a steal round-trip costs tens of them.
//!
//! *Where* a copy is charged depends on the policy: under the Cilk
//! baselines every simulated spawn pays `alloc_ns` + the per-byte copy up
//! front; under the cut-off and AdaptiveTC policies (copy-on-steal) the
//! spawn site records a saved copy and the charge moves to the thief at
//! the moment of a successful steal (matching the threaded engine's
//! materialisation). Region seals are not modelled — in the real engine
//! they are a liveness device, not a steady-state cost.

/// Virtual durations (ns) for each scheduling activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per work unit of `Problem::node_work` (expansion, apply/undo).
    pub node_ns: u64,
    /// Creating a task: frame allocation and initialisation.
    pub task_create_ns: u64,
    /// One d-e-que operation (push or pop, THE fast path).
    pub deque_op_ns: u64,
    /// Workspace allocation (skipped by Cilk-SYNCHED's buffer reuse).
    pub alloc_ns: u64,
    /// Copying one byte of taskprivate workspace, in hundredths of a ns
    /// (`25` = 0.25 ns/byte ≈ 4 GB/s memcpy).
    pub copy_byte_centi_ns: u64,
    /// A steal attempt (locking the victim deque and inspecting it).
    pub steal_ns: u64,
    /// Extra idle time after a failed steal before the next attempt.
    pub steal_backoff_ns: u64,
    /// Polling the `need_task` flag / request flag once.
    pub poll_ns: u64,
    /// Tascell: undoing or re-applying one level during temporary
    /// backtracking.
    pub backtrack_level_ns: u64,
    /// Tascell: request/response messaging latency.
    pub respond_ns: u64,
    /// Tascell: a thief's request timeout before retrying elsewhere.
    pub request_timeout_ns: u64,
}

impl CostModel {
    /// Costs calibrated against this repository's threaded runtime.
    pub fn calibrated() -> Self {
        CostModel {
            node_ns: 120,
            task_create_ns: 90,
            deque_op_ns: 25,
            alloc_ns: 40,
            copy_byte_centi_ns: 25,
            steal_ns: 120,
            steal_backoff_ns: 400,
            poll_ns: 3,
            backtrack_level_ns: 30,
            respond_ns: 250,
            request_timeout_ns: 10_000,
        }
    }

    /// Cost of copying `bytes` of workspace, including allocation when
    /// `alloc` is true.
    pub fn copy_ns(&self, bytes: u64, alloc: bool) -> u64 {
        let alloc_ns = if alloc { self.alloc_ns } else { 0 };
        alloc_ns + bytes * self.copy_byte_centi_ns / 100
    }

    /// Cost of executing `units` of node work.
    pub fn work_ns(&self, units: u64) -> u64 {
        units * self.node_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_scales_with_bytes() {
        let c = CostModel::calibrated();
        assert!(c.copy_ns(1000, true) > c.copy_ns(100, true));
        assert_eq!(
            c.copy_ns(400, true) - c.copy_ns(400, false),
            c.alloc_ns,
            "alloc is a fixed increment"
        );
    }

    #[test]
    fn zero_byte_copy_costs_only_alloc() {
        let c = CostModel::calibrated();
        assert_eq!(c.copy_ns(0, false), 0);
        assert_eq!(c.copy_ns(0, true), c.alloc_ns);
    }

    #[test]
    fn work_is_linear() {
        let c = CostModel::calibrated();
        assert_eq!(c.work_ns(7), 7 * c.node_ns);
    }
}
