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

/// The pinned digest of each tree.
const GOLDEN: [(&str, u64); 7] = [
    ("fig1", 0x375c_be90_1168_7256),
    ("nqueens-array(11)", 0xd783_57bb_37da_319a),
    ("nqueens-compute(11)", 0x0858_a01c_b4bf_7c04),
    ("sudoku(balanced tree)", 0x1e63_456c_627d_3b5f),
    ("pentomino(8, 5x8)", 0x9906_0b36_2732_ebf9),
    ("fib(26)", 0xae62_2739_f05d_038b),
    ("comp(1024)", 0x9fb2_0724_6ee5_7bac),
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
