//! The Sudoku benchmark: count all solutions of a 9×9 grid (Appendix A of
//! the paper).
//!
//! Instances are 81-character strings (`.` or `0` = empty). Three named
//! inputs mirror the paper's evaluation:
//!
//! * [`Sudoku::balanced`] — the classic uniquely-solvable puzzle used for
//!   the "balance tree" rows of Table 2 and Figure 4(e);
//! * [`Sudoku::input1`] / [`Sudoku::input2`] — sparse grids whose search
//!   trees are large and *unbalanced* (Figures 8–10a). The paper's exact
//!   inputs are not published; these substitutes blank whole bands of a
//!   solved grid, which concentrates the subtree mass the same way
//!   (documented in DESIGN.md).

use adaptivetc_core::{Expansion, Problem};
use std::fmt;
use std::str::FromStr;

/// Rows, columns, boxes and digits per grid.
const SIDE: usize = 9;

/// Cells per grid.
const CELLS: usize = SIDE * SIDE;

/// The solver workspace: board plus row/column/box candidate masks, a
/// fixed-size value so that copying it is one `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SudokuState {
    grid: [u8; CELLS],
    rows: [u16; SIDE],
    cols: [u16; SIDE],
    boxes: [u16; SIDE],
}

impl SudokuState {
    /// The workspace with `givens` placed, or `None` if two of them
    /// conflict.
    fn with_givens(givens: &[u8; CELLS]) -> Option<SudokuState> {
        let mut st = SudokuState {
            grid: *givens,
            rows: [0; SIDE],
            cols: [0; SIDE],
            boxes: [0; SIDE],
        };
        for (i, &d) in givens.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let bit = 1u16 << (d - 1);
            let (r, c) = (i / SIDE, i % SIDE);
            let b = (r / 3) * 3 + c / 3;
            if (st.rows[r] | st.cols[c] | st.boxes[b]) & bit != 0 {
                return None;
            }
            st.rows[r] |= bit;
            st.cols[c] |= bit;
            st.boxes[b] |= bit;
        }
        Some(st)
    }
}

/// Placing `digit` into `cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    cell: u8,
    digit: u8,
}

/// A parse failure for a Sudoku grid string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSudokuError {
    /// The string did not contain exactly 81 cells.
    WrongLength(usize),
    /// An unexpected character (stores it and its position).
    BadCell(char, usize),
    /// The givens already conflict.
    Contradiction,
}

impl fmt::Display for ParseSudokuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseSudokuError::WrongLength(n) => {
                write!(f, "expected 81 cells, found {n}")
            }
            ParseSudokuError::BadCell(c, i) => {
                write!(f, "unexpected character {c:?} at cell {i}")
            }
            ParseSudokuError::Contradiction => write!(f, "the givens conflict"),
        }
    }
}

impl std::error::Error for ParseSudokuError {}

/// A 9×9 Sudoku whose solutions are counted exhaustively.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::serial;
/// use adaptivetc_workloads::sudoku::Sudoku;
///
/// let (solutions, _) = serial::run(&Sudoku::balanced());
/// assert_eq!(solutions, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sudoku {
    givens: [u8; CELLS],
}

/// The classic solved grid used to derive the named instances.
const SOLVED: &str =
    "534678912672195348198342567859761423426853791713924856961537284287419635345286179";

impl Sudoku {
    /// The uniquely-solvable "balance tree" instance.
    pub fn balanced() -> Self {
        "53..7....6..195....98....6.8...6...34..8.3..17...2...6.6....28....419..5....8..79"
            .parse()
            .expect("the balanced instance is well-formed")
    }

    /// The "balance tree" instance of Table 2 / Figure 4(e): the first four
    /// rows blanked, which makes the search tree bushy at the top (four
    /// depth-1 subtrees holding roughly 31/19/31/18 % of the mass) and
    /// roughly balanced — unlike [`Sudoku::input1`]'s chain-heavy shape.
    pub fn balanced_tree() -> Self {
        let mut s: Vec<u8> = SOLVED.bytes().collect();
        for b in s.iter_mut().take(36) {
            *b = b'.';
        }
        std::str::from_utf8(&s)
            .expect("ascii")
            .parse()
            .expect("derived from a valid grid")
    }

    /// Unbalanced instance 1: the last four rows blanked.
    pub fn input1() -> Self {
        let mut s: Vec<u8> = SOLVED.bytes().collect();
        for b in s.iter_mut().skip(45) {
            *b = b'.';
        }
        std::str::from_utf8(&s)
            .expect("ascii")
            .parse()
            .expect("derived from a valid grid")
    }

    /// Unbalanced instance 2: rows 0–2 and columns 0–2 of the remainder
    /// blanked (mass concentrated differently from `input1`).
    pub fn input2() -> Self {
        let mut s: Vec<u8> = SOLVED.bytes().collect();
        for r in 0..9 {
            for c in 0..9 {
                if r < 3 || c < 3 {
                    s[r * 9 + c] = b'.';
                }
            }
        }
        std::str::from_utf8(&s)
            .expect("ascii")
            .parse()
            .expect("derived from a valid grid")
    }

    /// The given digits, row-major, 0 for empty.
    pub fn givens(&self) -> &[u8] {
        &self.givens
    }

    /// Number of given clues.
    pub fn clue_count(&self) -> usize {
        self.givens.iter().filter(|&&d| d != 0).count()
    }
}

impl FromStr for Sudoku {
    type Err = ParseSudokuError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let cells: Vec<char> = s.chars().filter(|c| !c.is_whitespace()).collect();
        if cells.len() != CELLS {
            return Err(ParseSudokuError::WrongLength(cells.len()));
        }
        let mut givens = [0; CELLS];
        for (i, (g, c)) in givens.iter_mut().zip(cells).enumerate() {
            match c {
                '.' | '0' => {}
                '1'..='9' => *g = c as u8 - b'0',
                other => return Err(ParseSudokuError::BadCell(other, i)),
            }
        }
        // Reject conflicting givens up front.
        SudokuState::with_givens(&givens).ok_or(ParseSudokuError::Contradiction)?;
        Ok(Sudoku { givens })
    }
}

impl Problem for Sudoku {
    type State = SudokuState;
    type Choice = Fill;
    type Out = u64;

    fn root(&self) -> SudokuState {
        SudokuState::with_givens(&self.givens).expect("parsing rejected conflicting givens")
    }

    fn expand(&self, st: &SudokuState, _depth: u32) -> Expansion<Fill, u64> {
        // find_free_cell: fixed row-major scan, as in Appendix A.
        let Some(cell) = st.grid.iter().position(|&d| d == 0) else {
            return Expansion::Leaf(1);
        };
        let (r, c) = (cell / 9, cell % 9);
        let b = (r / 3) * 3 + c / 3;
        let used = st.rows[r] | st.cols[c] | st.boxes[b];
        let candidates: Vec<Fill> = (1..=9u8)
            .filter(|d| used & (1 << (d - 1)) == 0)
            .map(|digit| Fill {
                cell: cell as u8,
                digit,
            })
            .collect();
        Expansion::Children(candidates)
    }

    fn apply(&self, st: &mut SudokuState, f: Fill) {
        let cell = usize::from(f.cell);
        let (r, c) = (cell / 9, cell % 9);
        let bit = 1u16 << (f.digit - 1);
        st.grid[cell] = f.digit;
        st.rows[r] |= bit;
        st.cols[c] |= bit;
        st.boxes[(r / 3) * 3 + c / 3] |= bit;
    }

    fn undo(&self, st: &mut SudokuState, f: Fill) {
        let cell = usize::from(f.cell);
        let (r, c) = (cell / 9, cell % 9);
        let bit = 1u16 << (f.digit - 1);
        st.grid[cell] = 0;
        st.rows[r] &= !bit;
        st.cols[c] &= !bit;
        st.boxes[(r / 3) * 3 + c / 3] &= !bit;
    }

    fn state_bytes(&self, _: &SudokuState) -> usize {
        // The paper's Status_t: board + three placed arrays (9×9 each).
        CELLS * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::serial;

    #[test]
    fn solved_grid_counts_one() {
        let p: Sudoku = SOLVED.parse().unwrap();
        let (n, r) = serial::run(&p);
        assert_eq!(n, 1);
        assert_eq!(r.nodes, 1);
    }

    #[test]
    fn balanced_has_unique_solution() {
        let (n, _) = serial::run(&Sudoku::balanced());
        assert_eq!(n, 1);
    }

    #[test]
    fn balanced_tree_is_bushy_at_the_top() {
        let p = Sudoku::balanced_tree();
        let info = adaptivetc_core::treeinfo::TreeInfo::measure(&p);
        assert!(info.depth1_shares.len() >= 3, "bushy root");
        let max = info.depth1_percent().into_iter().fold(0.0f64, f64::max);
        assert!(max < 50.0, "no depth-1 subtree dominates: {max:.1}%");
    }

    #[test]
    fn named_instances_have_golden_counts() {
        let (n, r) = serial::run(&Sudoku::input1());
        assert_eq!(n, 1284);
        assert!(r.nodes > 10_000);
        let (n, _) = serial::run(&Sudoku::balanced_tree());
        assert_eq!(n, 1224);
    }

    #[test]
    #[ignore = "input2 explores ~10M nodes (seconds in release)"]
    fn input2_golden_count() {
        let (n, _) = serial::run(&Sudoku::input2());
        assert_eq!(n, 244_224);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(matches!(
            "123".parse::<Sudoku>(),
            Err(ParseSudokuError::WrongLength(3))
        ));
        let mut bad = SOLVED.to_string();
        bad.replace_range(0..1, "x");
        assert!(matches!(
            bad.parse::<Sudoku>(),
            Err(ParseSudokuError::BadCell('x', 0))
        ));
        let mut conflict = ".".repeat(79);
        conflict.push_str("11");
        assert!(matches!(
            conflict.parse::<Sudoku>(),
            Err(ParseSudokuError::Contradiction)
        ));
    }

    #[test]
    fn parse_accepts_whitespace_and_zeroes() {
        let spaced = format!("{}\n", SOLVED.replace('1', "0"));
        let p: Sudoku = spaced.parse().unwrap();
        assert_eq!(p.clue_count(), 81 - SOLVED.matches('1').count());
    }

    #[test]
    fn apply_undo_roundtrip() {
        let p = Sudoku::balanced();
        let mut st = p.root();
        let orig = st;
        if let Expansion::Children(cs) = p.expand(&st, 0) {
            for f in cs {
                p.apply(&mut st, f);
                p.undo(&mut st, f);
                assert_eq!(st, orig);
            }
        }
    }
}
