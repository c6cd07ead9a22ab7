//! The n-queens benchmarks: `Nqueen-array(n)` and `Nqueen-compute(n)`.
//!
//! Both count all placements of `n` queens on an `n × n` board with no two
//! queens sharing a row, column or diagonal. They differ in the taskprivate
//! workspace, exactly as in Table 1:
//!
//! * [`NqueensArray`] keeps three conflict arrays (column, both diagonals) —
//!   *time efficient*, but its workspace is ~`5n` bytes, so workspace
//!   copying dominates in Cilk;
//! * [`NqueensCompute`] keeps only the list of placed queens (one byte per
//!   row) and re-scans it for conflicts — *memory efficient* with a heavier
//!   per-node compute share.
//!
//! Both workspaces are fixed-size values sized for [`MAX_N`], so copying one
//! is a single `memcpy`, as the paper's `Cilk_alloca + memcpy` is.

use adaptivetc_core::{Expansion, Problem};

/// The largest board either variant accepts (the paper's largest instance;
/// bigger boards are impractical here). It sizes both workspaces.
pub const MAX_N: u8 = 16;

const MAX: usize = MAX_N as usize;

/// Known solution counts for `n = 0..=16` (OEIS A000170).
pub const SOLUTIONS: [u64; MAX + 1] = [
    1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200, 73712, 365_596, 2_279_184, 14_772_512,
];

/// The conflict-array workspace of [`NqueensArray`]. Entries beyond the
/// board's `n` columns and `2n - 1` diagonals stay `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayState {
    row: u8,
    cols: [bool; MAX],
    /// Diagonal `row + col`.
    diag_a: [bool; 2 * MAX - 1],
    /// Anti-diagonal `row - col + n - 1`.
    diag_b: [bool; 2 * MAX - 1],
}

/// The workspace of [`NqueensCompute`]: the columns of the queens placed so
/// far, one per row. `cols[..len]` is live; the rest stays 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    cols: [u8; MAX],
    len: u8,
}

/// `Nqueen-array(n)`: conflict bookkeeping in three boolean arrays.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::serial;
/// use adaptivetc_workloads::nqueens::NqueensArray;
///
/// let (solutions, _) = serial::run(&NqueensArray::new(8));
/// assert_eq!(solutions, 92);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NqueensArray {
    n: u8,
}

impl NqueensArray {
    /// An `n × n` instance.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_N`.
    pub fn new(n: u8) -> Self {
        assert!(
            n <= MAX_N,
            "n-queens instances above {MAX_N} are impractical here"
        );
        NqueensArray { n }
    }

    /// Board size.
    pub fn n(&self) -> u8 {
        self.n
    }
}

impl Problem for NqueensArray {
    type State = ArrayState;
    type Choice = u8;
    type Out = u64;

    fn root(&self) -> ArrayState {
        ArrayState {
            row: 0,
            cols: [false; MAX],
            diag_a: [false; 2 * MAX - 1],
            diag_b: [false; 2 * MAX - 1],
        }
    }

    fn expand(&self, st: &ArrayState, _depth: u32) -> Expansion<u8, u64> {
        if st.row == self.n {
            return Expansion::Leaf(1);
        }
        let n = self.n as usize;
        let r = st.row as usize;
        let free: Vec<u8> = (0..n)
            .filter(|&c| !st.cols[c] && !st.diag_a[r + c] && !st.diag_b[r + n - 1 - c])
            .map(|c| c as u8)
            .collect();
        Expansion::Children(free)
    }

    fn apply(&self, st: &mut ArrayState, c: u8) {
        let n = self.n as usize;
        let (r, c) = (st.row as usize, c as usize);
        st.cols[c] = true;
        st.diag_a[r + c] = true;
        st.diag_b[r + n - 1 - c] = true;
        st.row += 1;
    }

    fn undo(&self, st: &mut ArrayState, c: u8) {
        st.row -= 1;
        let n = self.n as usize;
        let (r, c) = (st.row as usize, c as usize);
        st.cols[c] = false;
        st.diag_a[r + c] = false;
        st.diag_b[r + n - 1 - c] = false;
    }

    /// The paper's workspace for this board: `n` columns, two sets of
    /// `2n - 1` diagonals and the row.
    fn state_bytes(&self, _: &ArrayState) -> usize {
        let n = usize::from(self.n);
        n + 2 * (2 * n.max(1) - 1) + 1
    }
}

/// `Nqueen-compute(n)`: the board is re-traversed to detect conflicts.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::serial;
/// use adaptivetc_workloads::nqueens::NqueensCompute;
///
/// let (solutions, _) = serial::run(&NqueensCompute::new(6));
/// assert_eq!(solutions, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NqueensCompute {
    n: u8,
}

impl NqueensCompute {
    /// An `n × n` instance.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_N`.
    pub fn new(n: u8) -> Self {
        assert!(
            n <= MAX_N,
            "n-queens instances above {MAX_N} are impractical here"
        );
        NqueensCompute { n }
    }

    /// Board size.
    pub fn n(&self) -> u8 {
        self.n
    }
}

impl Problem for NqueensCompute {
    type State = Placed;
    type Choice = u8;
    type Out = u64;

    fn root(&self) -> Placed {
        Placed {
            cols: [0; MAX],
            len: 0,
        }
    }

    fn expand(&self, placed: &Placed, _depth: u32) -> Expansion<u8, u64> {
        if placed.len == self.n {
            return Expansion::Leaf(1);
        }
        let row = usize::from(placed.len);
        let live = &placed.cols[..row];
        let free: Vec<u8> = (0..self.n)
            .filter(|&c| {
                live.iter().enumerate().all(|(pr, &pc)| {
                    pc != c && (row - pr) as i32 != (i32::from(c) - i32::from(pc)).abs()
                })
            })
            .collect();
        Expansion::Children(free)
    }

    fn apply(&self, placed: &mut Placed, c: u8) {
        placed.cols[usize::from(placed.len)] = c;
        placed.len += 1;
    }

    fn undo(&self, placed: &mut Placed, _c: u8) {
        placed.len -= 1;
        placed.cols[usize::from(placed.len)] = 0;
    }

    /// The paper's workspace for this board: one byte per row.
    fn state_bytes(&self, _: &Placed) -> usize {
        usize::from(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::serial;

    #[test]
    fn array_matches_known_counts() {
        for n in 1..=9u8 {
            let (got, _) = serial::run(&NqueensArray::new(n));
            assert_eq!(got, SOLUTIONS[n as usize], "n={n}");
        }
    }

    #[test]
    fn compute_matches_known_counts() {
        for n in 1..=9u8 {
            let (got, _) = serial::run(&NqueensCompute::new(n));
            assert_eq!(got, SOLUTIONS[n as usize], "n={n}");
        }
    }

    #[test]
    fn variants_traverse_the_same_tree() {
        let (_, ra) = serial::run(&NqueensArray::new(7));
        let (_, rc) = serial::run(&NqueensCompute::new(7));
        assert_eq!(ra.nodes, rc.nodes);
        assert_eq!(ra.leaves, rc.leaves);
    }

    #[test]
    fn array_state_bytes_scale_with_n() {
        let p = NqueensArray::new(10);
        let st = p.root();
        assert_eq!(p.state_bytes(&st), 10 + 19 + 19 + 1);
    }

    #[test]
    fn apply_undo_roundtrip() {
        let p = NqueensArray::new(6);
        let mut st = p.root();
        let orig = st;
        if let Expansion::Children(cs) = p.expand(&st, 0) {
            for c in cs {
                p.apply(&mut st, c);
                p.undo(&mut st, c);
                assert_eq!(st, orig);
            }
        }
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn oversized_instance_rejected() {
        NqueensArray::new(17);
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn oversized_compute_instance_rejected() {
        NqueensCompute::new(17);
    }
}
