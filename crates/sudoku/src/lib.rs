//! Sudoku as a non-convex factor-graph ADMM — the combinatorial
//! message-passing domain behind the paper's references \[9\] and \[24\]
//! (Derbinsky, Bento, Elser, Yedidia), whose "tool" the paper benchmarks
//! its packing implementation against.
//!
//! Encoding: every cell is one variable node carrying an `n`-dimensional
//! indicator vector (`dims = n`, `n = 9` for classic Sudoku). Factors:
//!
//! * **all-different** — one per row, column and box, touching its `n`
//!   cells; its proximal operator projects the `n × n` (cell × digit)
//!   block onto the set of permutation matrices — an exact assignment
//!   solve ([`paradmm_prox::PermutationProx`]);
//! * **clue** — a strong quadratic anchor pinning a given cell to its
//!   digit's indicator;
//! * **cell-simplex** — one per free cell, keeping the consensus on the
//!   probability simplex so intermediate iterates stay interpretable.
//!
//! ADMM on this graph is a *non-convex* message-passing heuristic — the
//! paper's whole §V-A argument is that such heuristics are practical and
//! parallelize well. Easy instances solve in a few hundred iterations;
//! the solver supports random restarts for harder ones.

use paradmm_core::{AdmmProblem, BackendSpec, ProxOp, Solver, SolverOptions, StoppingCriteria};
use paradmm_graph::{GraphBuilder, VarId, VarStore};
use paradmm_prox::{PermutationProx, QuadraticProx, SimplexProx};
use rand::Rng;

/// A (possibly partial) Sudoku grid; 0 = empty, 1..=n = given digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Box side length `b` (classic Sudoku: 3). Grid side is `n = b²`.
    pub box_side: usize,
    /// Row-major cells, length `n²`.
    pub cells: Vec<u8>,
}

impl Grid {
    /// Creates a grid from row-major cell values.
    ///
    /// # Panics
    /// If the length is not `b⁴` or any value exceeds `b²`.
    pub(crate) fn new(box_side: usize, cells: Vec<u8>) -> Self {
        let n = box_side * box_side;
        assert_eq!(cells.len(), n * n, "grid must have n² cells");
        assert!(
            cells.iter().all(|&c| (c as usize) <= n),
            "cell value out of range"
        );
        Grid { box_side, cells }
    }

    /// Parses a string of digits (`0` or `.` = empty), ignoring whitespace.
    pub fn parse(box_side: usize, text: &str) -> Self {
        let cells: Vec<u8> = text
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '.' => 0,
                d => d.to_digit(10).expect("invalid grid character") as u8,
            })
            .collect();
        Grid::new(box_side, cells)
    }

    /// Grid side `n`.
    pub fn side(&self) -> usize {
        self.box_side * self.box_side
    }

    /// Cell value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> u8 {
        self.cells[row * self.side() + col]
    }

    /// Whether the grid is completely filled and satisfies all row,
    /// column and box all-different constraints.
    pub fn is_solved(&self) -> bool {
        let n = self.side();
        if self.cells.contains(&0) {
            return false;
        }
        let groups = group_indices(self.box_side);
        groups.iter().all(|group| {
            let mut seen = vec![false; n + 1];
            group.iter().all(|&idx| {
                let v = self.cells[idx] as usize;
                !std::mem::replace(&mut seen[v], true)
            })
        })
    }

    /// Whether `other` extends this grid (all givens preserved).
    pub fn is_completion_of(&self, givens: &Grid) -> bool {
        self.box_side == givens.box_side
            && self
                .cells
                .iter()
                .zip(&givens.cells)
                .all(|(&got, &given)| given == 0 || got == given)
    }
}

/// Cell indices of every row, column and box group (3n groups of n).
pub(crate) fn group_indices(box_side: usize) -> Vec<Vec<usize>> {
    let n = box_side * box_side;
    let mut groups = Vec::with_capacity(3 * n);
    for r in 0..n {
        groups.push((0..n).map(|c| r * n + c).collect());
    }
    for c in 0..n {
        groups.push((0..n).map(|r| r * n + c).collect());
    }
    for br in 0..box_side {
        for bc in 0..box_side {
            let mut g = Vec::with_capacity(n);
            for ir in 0..box_side {
                for ic in 0..box_side {
                    g.push((br * box_side + ir) * n + (bc * box_side + ic));
                }
            }
            groups.push(g);
        }
    }
    groups
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SudokuConfig {
    /// Penalty weight ρ.
    pub rho: f64,
    /// Clue anchor strength (quadratic weight pinning givens).
    pub clue_weight: f64,
    /// Iterations per attempt.
    pub iters_per_attempt: usize,
    /// Random restarts before giving up.
    pub max_attempts: usize,
}

impl Default for SudokuConfig {
    fn default() -> Self {
        SudokuConfig {
            rho: 1.0,
            clue_weight: 50.0,
            iters_per_attempt: 1500,
            max_attempts: 8,
        }
    }
}

/// A built Sudoku instance.
pub struct SudokuProblem {
    givens: Grid,
    cell_vars: Vec<VarId>,
}

impl SudokuProblem {
    /// Builds the factor graph: `n²` cell variables (`dims = n`), `3n`
    /// all-different factors, one clue factor per given, one simplex
    /// factor per free cell.
    pub fn build(givens: &Grid, config: &SudokuConfig) -> (Self, AdmmProblem) {
        let n = givens.side();
        let mut b = GraphBuilder::new(n);
        let cell_vars = b.add_vars(n * n);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();

        for group in group_indices(givens.box_side) {
            let vars: Vec<VarId> = group.iter().map(|&i| cell_vars[i]).collect();
            b.add_factor(&vars);
            proxes.push(Box::new(PermutationProx::new(n)));
        }
        for (i, &given) in givens.cells.iter().enumerate() {
            b.add_factor(&[cell_vars[i]]);
            if given > 0 {
                let mut target = vec![0.0; n];
                target[(given - 1) as usize] = 1.0;
                proxes.push(Box::new(QuadraticProx::isotropic(
                    n,
                    config.clue_weight,
                    &target,
                )));
            } else {
                proxes.push(Box::new(SimplexProx));
            }
        }
        let problem = AdmmProblem::new(b.build(), proxes, config.rho, 1.0);
        (
            SudokuProblem {
                givens: givens.clone(),
                cell_vars,
            },
            problem,
        )
    }

    /// Rounds the consensus to a grid: per cell, the arg-max digit.
    pub fn extract(&self, store: &VarStore) -> Grid {
        let n = self.givens.side();
        let cells = self
            .cell_vars
            .iter()
            .map(|&v| {
                let z = store.z_var(v);
                let mut best = 0usize;
                for d in 1..n {
                    if z[d] > z[best] {
                        best = d;
                    }
                }
                (best + 1) as u8
            })
            .collect();
        Grid::new(self.givens.box_side, cells)
    }

    /// Solves with random restarts; returns the solved grid and the total
    /// iterations spent, or `None` if every attempt failed.
    pub fn solve(givens: &Grid, config: &SudokuConfig, seed: u64) -> Option<(Grid, usize)> {
        Self::solve_with_backend(givens, config, seed, BackendSpec::Serial)
    }

    /// [`SudokuProblem::solve`] on a chosen execution backend. All
    /// synchronous backends are bit-identical, so the solved grid *and*
    /// the iteration count are independent of the backend (pinned by
    /// `tests/sudoku_golden.rs`); the knob exists to run the restarts on
    /// whatever hardware mapping is fastest.
    pub fn solve_with_backend(
        givens: &Grid,
        config: &SudokuConfig,
        seed: u64,
        backend: BackendSpec,
    ) -> Option<(Grid, usize)> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut total_iters = 0usize;
        for _attempt in 0..config.max_attempts {
            let (sudoku, admm) = SudokuProblem::build(givens, config);
            let options = SolverOptions {
                backend,
                rho: config.rho,
                alpha: 1.0,
                stopping: StoppingCriteria::fixed_iterations(config.iters_per_attempt),
            };
            let mut solver = Solver::from_problem(admm, options);
            // Symmetry-breaking noise, scaled small so clues dominate.
            let store = solver.store_mut();
            for v in store.z.iter_mut() {
                *v = rng.gen_range(0.0..0.2);
            }
            for v in store.n.iter_mut() {
                *v = rng.gen_range(0.0..0.2);
            }
            store.snapshot_z();

            // Check periodically: message-passing Sudoku usually clicks
            // into place suddenly.
            let chunk = 100usize;
            let mut spent = 0usize;
            while spent < config.iters_per_attempt {
                solver.run(chunk);
                spent += chunk;
                total_iters += chunk;
                let grid = sudoku.extract(solver.store());
                if grid.is_solved() && grid.is_completion_of(givens) {
                    return Some((grid, total_iters));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4×4 Sudoku (shidoku) with a unique solution.
    fn shidoku() -> Grid {
        Grid::parse(
            2,
            "1 0 0 0
             0 0 3 0
             0 4 0 0
             0 0 0 2",
        )
    }

    /// An easy 9×9 puzzle (many givens).
    fn easy9() -> Grid {
        Grid::parse(
            3,
            "530070000
             600195000
             098000060
             800060003
             400803001
             700020006
             060000280
             000419005
             000080079",
        )
    }

    #[test]
    fn groups_cover_each_cell_three_times() {
        for b in [2usize, 3] {
            let n = b * b;
            let groups = group_indices(b);
            assert_eq!(groups.len(), 3 * n);
            let mut counts = vec![0usize; n * n];
            for g in &groups {
                assert_eq!(g.len(), n);
                for &i in g {
                    counts[i] += 1;
                }
            }
            assert!(counts.iter().all(|&c| c == 3));
        }
    }

    #[test]
    fn is_solved_detects_validity() {
        let solved = Grid::parse(
            2,
            "1234
             3412
             2143
             4321",
        );
        assert!(solved.is_solved());
        let mut broken = solved.clone();
        broken.cells[0] = 2; // duplicate in row 0
        assert!(!broken.is_solved());
        assert!(!shidoku().is_solved()); // incomplete
    }

    #[test]
    fn completion_check() {
        let solved = Grid::parse(2, "1234341221434321");
        let givens = Grid::parse(2, "1000040000400002");
        assert!(!solved.is_completion_of(&givens)); // conflicting givens
        let matching = Grid::parse(2, "1000300000400000");
        assert!(solved.is_completion_of(&matching));
    }

    #[test]
    fn graph_shape() {
        let (_, admm) = SudokuProblem::build(&shidoku(), &SudokuConfig::default());
        let g = admm.graph();
        assert_eq!(g.num_vars(), 16);
        assert_eq!(g.dims(), 4);
        // 12 all-diff (4 rows + 4 cols + 4 boxes) + 16 cell factors.
        assert_eq!(g.num_factors(), 12 + 16);
        // all-diff edges 12·4 + cell edges 16.
        assert_eq!(g.num_edges(), 48 + 16);
    }

    #[test]
    fn solves_shidoku() {
        let givens = shidoku();
        let config = SudokuConfig::default();
        let (grid, iters) =
            SudokuProblem::solve(&givens, &config, 7).expect("shidoku should solve");
        assert!(grid.is_solved());
        assert!(grid.is_completion_of(&givens));
        assert!(iters <= config.max_attempts * config.iters_per_attempt);
    }

    #[test]
    fn solves_easy_9x9() {
        let givens = easy9();
        let config = SudokuConfig {
            iters_per_attempt: 3000,
            max_attempts: 4,
            ..SudokuConfig::default()
        };
        let (grid, _) = SudokuProblem::solve(&givens, &config, 11).expect("easy 9×9 should solve");
        assert!(grid.is_solved());
        assert!(grid.is_completion_of(&givens));
    }

    #[test]
    fn extract_argmax() {
        let givens = shidoku();
        let (sudoku, admm) = SudokuProblem::build(&givens, &SudokuConfig::default());
        let mut store = VarStore::zeros(admm.graph());
        // Set cell 0 consensus to prefer digit 3.
        store.z[2] = 1.0;
        let grid = sudoku.extract(&store);
        assert_eq!(grid.cells[0], 3);
    }

    #[test]
    #[should_panic(expected = "n² cells")]
    fn wrong_length_rejected() {
        let _ = Grid::new(2, vec![0; 10]);
    }
}
