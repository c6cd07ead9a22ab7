//! Golden digests of the simulator: Figure 1 and the six trees of the
//! benchmark's `sim_8w` workload, under every `Policy` at 2 and 8 virtual
//! workers with fixed seeds. A digest folds in `leaves`, `wall_ns` and every
//! worker's `RunStats`, so any change to a scheduling decision, a count or
//! a virtual time shows up here. An interpreter rework must leave every
//! digest as it is; a change that means to move the simulator's output
//! regenerates them and says why.

use adaptivetc_suite::core::{Config, Problem};
use adaptivetc_suite::sim::{simulate, CostModel, Policy, SimTree};
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::sudoku::Sudoku;

const POLICIES: [Policy; 6] = [
    Policy::Cilk,
    Policy::CilkSynched,
    Policy::CutoffProgrammer(3),
    Policy::CutoffLibrary,
    Policy::AdaptiveTc,
    Policy::Tascell,
];

/// FNV-1a, 64-bit.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every policy at 2 and 8 workers over one tree.
fn digest<P: Problem<Out = u64>>(problem: &P) -> u64 {
    let tree = SimTree::from_problem(problem);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for policy in POLICIES {
        for threads in [2, 8] {
            let cfg = Config::new(threads).seed(0x5eed + threads as u64);
            let out = simulate(&tree, policy, &cfg, CostModel::calibrated());
            assert_eq!(
                out.leaves,
                tree.leaf_count(),
                "{} lost leaves",
                policy.name()
            );
            let line = format!(
                "{} {threads} {} {} {:?}",
                policy.name(),
                out.leaves,
                out.wall_ns,
                out.report.per_worker
            );
            h = fnv(h, line.as_bytes());
        }
    }
    h
}

/// The pinned digest of each tree. Last regenerated when a Tascell steal
/// request became a word that is always answered, with no timeout and no
/// request to a worker at its terminal wait: only Tascell's part of each
/// digest moved (the five deque policies, folded alone, read the same
/// before and after).
const GOLDEN: [(&str, u64); 7] = [
    ("fig1", 0x7bf0_e22e_5626_8f97),
    ("nqueens-array(11)", 0x9fa4_66b6_6275_9fea),
    ("nqueens-compute(11)", 0xfdc1_07d2_7d30_a20c),
    ("sudoku(balanced tree)", 0x7c6a_5f28_0d1e_0dfa),
    ("pentomino(8, 5x8)", 0x5415_1611_c1a5_b3d2),
    ("fib(26)", 0x2482_6251_d13a_778f),
    ("comp(1024)", 0x8c49_a5e3_b6ef_4d77),
];

#[test]
fn simulator_outputs_match_their_golden_digests() {
    // One thread per tree: the suite runs unoptimised, and the seven
    // digests are independent.
    let got: Vec<(&str, u64)> = std::thread::scope(|s| {
        let runs = [
            s.spawn(|| digest(&Fig1Tree::new())),
            s.spawn(|| digest(&NqueensArray::new(11))),
            s.spawn(|| digest(&NqueensCompute::new(11))),
            s.spawn(|| digest(&Sudoku::balanced_tree())),
            s.spawn(|| digest(&Pentomino::with_board(8, 5, 8))),
            s.spawn(|| digest(&Fib::new(26))),
            s.spawn(|| digest(&Comp::new(1024, 7).leaf_size(4))),
        ];
        GOLDEN
            .iter()
            .zip(runs)
            .map(|(&(name, _), run)| (name, run.join().expect("digest thread")))
            .collect()
    });
    for (&(name, want), (_, got)) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            *got, want,
            "{name}: digest {got:#018x}, golden {want:#018x}"
        );
    }
}
