//! The Strimko benchmark: fill a 7×7 grid so that every row, column and
//! *stream* (a 7-cell region) contains the digits 1–7 exactly once.
//!
//! A Strimko instance is a stream assignment (a partition of the grid into
//! `n` regions of `n` cells) plus given digits. The solver counts all
//! completions — a classic backtracking search whose taskprivate workspace
//! is the grid plus row/column/stream candidate masks, a fixed-size value
//! sized for [`MAX_SIDE`] so that copying it is one `memcpy`.

use adaptivetc_core::{Expansion, Problem};

/// The widest grid [`Strimko::new`] accepts. It sizes the workspace.
pub const MAX_SIDE: u8 = 9;

const SIDE: usize = MAX_SIDE as usize;

/// The solver workspace: grid contents and used-digit masks. Only the first
/// `n * n` cells and `n` masks are live; the rest stay 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrimkoState {
    /// 0 = empty, 1..=n = digit, row-major.
    grid: [u8; SIDE * SIDE],
    row_mask: [u16; SIDE],
    col_mask: [u16; SIDE],
    stream_mask: [u16; SIDE],
}

/// Placing `digit` into `cell` (the first empty cell at expansion time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    cell: u8,
    digit: u8,
}

/// A Strimko puzzle instance.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::serial;
/// use adaptivetc_workloads::strimko::Strimko;
///
/// let puzzle = Strimko::paper_default();
/// let (solutions, _) = serial::run(&puzzle);
/// assert!(solutions > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Strimko {
    n: u8,
    /// Stream id of each cell, row-major.
    streams: Vec<u8>,
    /// Given digits, 0 = empty, row-major.
    givens: Vec<u8>,
}

impl Strimko {
    /// Build from an explicit stream map and givens (both `n*n` long,
    /// row-major; givens use 0 for empty).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `2..=MAX_SIDE`, the vectors have the wrong
    /// length, the stream map is not a partition into `n` regions of `n`
    /// cells, or a given digit is out of range.
    pub fn new(n: u8, streams: Vec<u8>, givens: Vec<u8>) -> Self {
        assert!(
            (2..=MAX_SIDE).contains(&n),
            "grid side must be in 2..={MAX_SIDE}"
        );
        let nn = usize::from(n) * usize::from(n);
        assert_eq!(streams.len(), nn, "stream map must cover the grid");
        assert_eq!(givens.len(), nn, "givens must cover the grid");
        let mut sizes = vec![0usize; usize::from(n)];
        for &s in &streams {
            assert!(s < n, "stream id {s} out of range");
            sizes[usize::from(s)] += 1;
        }
        assert!(
            sizes.iter().all(|&c| c == usize::from(n)),
            "each stream must have exactly n cells"
        );
        assert!(givens.iter().all(|&d| d <= n), "given digits must be 0..=n");
        Strimko { n, streams, givens }
    }

    /// A linear stream layout: cell `(r, c)` belongs to stream
    /// `(a·r + b·c) mod n`.
    pub fn linear(n: u8, a: u8, b: u8, givens: Vec<u8>) -> Self {
        let streams = (0..n)
            .flat_map(|r| (0..n).map(move |c| (a * r + b * c) % n))
            .collect();
        Strimko::new(n, streams, givens)
    }

    /// The default 7×7 instance used by the benchmark harness: diagonal
    /// streams with the first row given as `1..=7`.
    pub fn paper_default() -> Self {
        let n = 7;
        let mut givens = vec![0u8; 49];
        for (c, g) in givens.iter_mut().take(7).enumerate() {
            *g = c as u8 + 1;
        }
        Strimko::linear(n, 1, 1, givens)
    }

    /// Grid side.
    pub fn n(&self) -> u8 {
        self.n
    }

    /// Verify a completed grid against all three constraint families.
    pub fn is_solution(&self, grid: &[u8]) -> bool {
        let n = usize::from(self.n);
        if grid.len() != n * n {
            return false;
        }
        let full: u16 = ((1u32 << self.n) - 1) as u16;
        let mut rows = vec![0u16; n];
        let mut cols = vec![0u16; n];
        let mut streams = vec![0u16; n];
        for (i, &d) in grid.iter().enumerate() {
            if d == 0 || d > self.n {
                return false;
            }
            let bit = 1u16 << (d - 1);
            rows[i / n] |= bit;
            cols[i % n] |= bit;
            streams[usize::from(self.streams[i])] |= bit;
        }
        rows.iter().chain(&cols).chain(&streams).all(|&m| m == full)
    }
}

impl Problem for Strimko {
    type State = StrimkoState;
    type Choice = Placement;
    type Out = u64;

    fn root(&self) -> StrimkoState {
        let n = usize::from(self.n);
        let mut st = StrimkoState {
            grid: [0; SIDE * SIDE],
            row_mask: [0; SIDE],
            col_mask: [0; SIDE],
            stream_mask: [0; SIDE],
        };
        for (i, &d) in self.givens.iter().enumerate() {
            if d != 0 {
                let bit = 1u16 << (d - 1);
                st.grid[i] = d;
                st.row_mask[i / n] |= bit;
                st.col_mask[i % n] |= bit;
                st.stream_mask[usize::from(self.streams[i])] |= bit;
            }
        }
        st
    }

    fn expand(&self, st: &StrimkoState, _depth: u32) -> Expansion<Placement, u64> {
        let n = usize::from(self.n);
        let Some(cell) = st.grid[..n * n].iter().position(|&d| d == 0) else {
            return Expansion::Leaf(1);
        };
        let used = st.row_mask[cell / n]
            | st.col_mask[cell % n]
            | st.stream_mask[usize::from(self.streams[cell])];
        let candidates: Vec<Placement> = (1..=self.n)
            .filter(|d| used & (1 << (d - 1)) == 0)
            .map(|digit| Placement {
                cell: cell as u8,
                digit,
            })
            .collect();
        Expansion::Children(candidates)
    }

    fn apply(&self, st: &mut StrimkoState, p: Placement) {
        let n = usize::from(self.n);
        let cell = usize::from(p.cell);
        let bit = 1u16 << (p.digit - 1);
        st.grid[cell] = p.digit;
        st.row_mask[cell / n] |= bit;
        st.col_mask[cell % n] |= bit;
        st.stream_mask[usize::from(self.streams[cell])] |= bit;
    }

    fn undo(&self, st: &mut StrimkoState, p: Placement) {
        let n = usize::from(self.n);
        let cell = usize::from(p.cell);
        let bit = 1u16 << (p.digit - 1);
        st.grid[cell] = 0;
        st.row_mask[cell / n] &= !bit;
        st.col_mask[cell % n] &= !bit;
        st.stream_mask[usize::from(self.streams[cell])] &= !bit;
    }

    /// The paper's workspace for this grid: `n * n` cells and three sets of
    /// `n` two-byte masks.
    fn state_bytes(&self, _: &StrimkoState) -> usize {
        let n = usize::from(self.n);
        n * n + 2 * 3 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::serial;

    #[test]
    fn default_instance_has_635_solutions() {
        // Golden value for the diagonal-stream instance with row 0 given.
        let (solutions, r) = serial::run(&Strimko::paper_default());
        assert_eq!(solutions, 635);
        assert!(r.nodes > solutions, "interior nodes exist");
    }

    #[test]
    fn solutions_satisfy_the_checker() {
        // Spot-check the constructed linear solution family: grid[r][c] =
        // (2r + 3c) mod 7 + 1 satisfies rows, columns and (1,1)-streams.
        let p = Strimko::linear(7, 1, 1, vec![0; 49]);
        let grid: Vec<u8> = (0..7)
            .flat_map(|r| (0..7).map(move |c| ((2 * r + 3 * c) % 7 + 1) as u8))
            .collect();
        assert!(p.is_solution(&grid));
    }

    #[test]
    fn tiny_instance_counts_exactly() {
        // 2×2 with streams = columns and no givens: rows and columns and
        // streams distinct. Solutions: grids [[1,2],[2,1]] and [[2,1],[1,2]].
        let p = Strimko::new(2, vec![0, 1, 0, 1], vec![0; 4]);
        let (solutions, _) = serial::run(&p);
        assert_eq!(solutions, 2);
    }

    #[test]
    fn givens_constrain_the_count() {
        let free = Strimko::new(2, vec![0, 1, 0, 1], vec![0; 4]);
        let pinned = Strimko::new(2, vec![0, 1, 0, 1], vec![1, 0, 0, 0]);
        let (a, _) = serial::run(&free);
        let (b, _) = serial::run(&pinned);
        assert_eq!(a, 2);
        assert_eq!(b, 1);
    }

    #[test]
    fn is_solution_validates() {
        let p = Strimko::new(2, vec![0, 1, 0, 1], vec![0; 4]);
        assert!(p.is_solution(&[1, 2, 2, 1]));
        assert!(!p.is_solution(&[1, 1, 2, 2]));
        assert!(!p.is_solution(&[1, 2, 2]));
        assert!(!p.is_solution(&[1, 2, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "each stream must have exactly n cells")]
    fn lopsided_streams_rejected() {
        Strimko::new(2, vec![0, 0, 0, 1], vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "grid side must be in 2..=9")]
    fn oversized_grid_rejected() {
        Strimko::linear(10, 1, 1, vec![0; 100]);
    }

    #[test]
    fn apply_undo_roundtrip() {
        let p = Strimko::paper_default();
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
}
