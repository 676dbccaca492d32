//! The textbook dense elimination kernels, kept as the reference the
//! sparse-support kernels of [`crate::simplex`] must match, and the
//! property tests that check them against it.
//!
//! [`with_dense`] swaps the dense kernels in for the duration of a
//! closure on the calling thread; everything else (pricing, ratio
//! test, canonical finish, warm starts) runs the production code.

// The dense kernels index several parallel arrays in one loop, like
// the production kernels they mirror.
#![allow(clippy::needless_range_loop)]

use std::cell::Cell;

use crate::simplex::{Tableau, EPS};

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Whether the dense kernels are swapped in on this thread.
pub(crate) fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Runs `f` with the dense kernels in place of the sparse ones.
pub(crate) fn with_dense<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
        }
    }
    ACTIVE.with(|a| a.set(true));
    let _reset = Reset;
    f()
}

impl Tableau {
    /// Dense pivot arithmetic: every cell of every row with a nonzero
    /// factor, and the whole reduced-cost row.
    pub(crate) fn eliminate_dense(&mut self, row: usize, col: usize) -> u64 {
        let w = self.cols + 1;
        let inv = 1.0 / self.at(row, col);
        for j in 0..w {
            self.data[row * w + j] *= inv;
        }
        let pivot_row: Vec<f64> = self.data[row * w..(row + 1) * w].to_vec();
        let mut cells = 0;
        for i in 0..self.m {
            if i == row {
                continue;
            }
            let factor = self.at(i, col);
            if factor.abs() <= EPS {
                continue;
            }
            for j in 0..w {
                self.data[i * w + j] -= factor * pivot_row[j];
            }
            self.data[i * w + col] = 0.0;
            cells += w as u64;
        }
        let factor = self.reduced[col];
        if factor.abs() > EPS {
            for (j, r) in self.reduced.iter_mut().enumerate() {
                *r -= factor * pivot_row[j];
            }
            cells += self.cols as u64;
            self.objective += factor * pivot_row[self.cols];
            self.reduced[col] = 0.0;
        }
        cells
    }

    /// Dense Gauss-Jordan on a freshly allocated `[B | A b]`, with
    /// physical row swaps.
    pub(crate) fn gauss_jordan_dense(&mut self) -> Option<u64> {
        let m = self.m;
        let w = self.cols + 1;
        let aw = m + w;
        let mut orig = vec![0.0; m * w];
        for (i, row) in self.orig.iter().enumerate() {
            for &(j, v) in row {
                orig[i * w + j] = v;
            }
            orig[i * w + self.cols] = self.orig_rhs[i];
        }
        let mut mat = vec![0.0; m * aw];
        for i in 0..m {
            for (bpos, &bcol) in self.basis.iter().enumerate() {
                mat[i * aw + bpos] = orig[i * w + bcol];
            }
            mat[i * aw + m..i * aw + m + w].copy_from_slice(&orig[i * w..(i + 1) * w]);
        }
        let mut cells = 0;
        for col in 0..m {
            let mut piv = col;
            let mut best = mat[col * aw + col].abs();
            for r in col + 1..m {
                let v = mat[r * aw + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-11 {
                return None;
            }
            if piv != col {
                for j in 0..aw {
                    mat.swap(col * aw + j, piv * aw + j);
                }
            }
            let inv = 1.0 / mat[col * aw + col];
            for j in 0..aw {
                mat[col * aw + j] *= inv;
            }
            let pivot_row: Vec<f64> = mat[col * aw..(col + 1) * aw].to_vec();
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = mat[r * aw + col];
                if f != 0.0 {
                    for j in 0..aw {
                        mat[r * aw + j] -= f * pivot_row[j];
                    }
                    cells += aw as u64;
                }
            }
        }
        for i in 0..m {
            self.data[i * w..(i + 1) * w].copy_from_slice(&mat[i * aw + m..(i + 1) * aw]);
        }
        Some(cells)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestCaseError;

    use super::with_dense;
    use crate::simplex::{solve_inner, SolveStats};
    use crate::{ColumnSpec, IncrementalLp, LinearProgram, LpError, Relation, Solution};

    /// `==` everywhere (so `−0.0` matches `+0.0`), identical bits for
    /// every nonzero value.
    fn same_value(a: f64, b: f64) -> bool {
        a == b && (a == 0.0 || a.to_bits() == b.to_bits())
    }

    fn same_solution(
        sparse: &Result<Solution, LpError>,
        dense: &Result<Solution, LpError>,
    ) -> Result<(), TestCaseError> {
        match (sparse, dense) {
            (Ok(s), Ok(d)) => {
                prop_assert!(
                    same_value(s.objective, d.objective),
                    "objective {:e} vs {:e}",
                    s.objective,
                    d.objective
                );
                for (what, sv, dv) in [("x", &s.x, &d.x), ("dual", &s.duals, &d.duals)] {
                    prop_assert_eq!(sv.len(), dv.len());
                    for (i, (&a, &b)) in sv.iter().zip(dv).enumerate() {
                        prop_assert!(same_value(a, b), "{what}[{i}] {a:e} vs {b:e}");
                    }
                }
            }
            (s, d) => prop_assert_eq!(s.as_ref().err(), d.as_ref().err()),
        }
        Ok(())
    }

    /// Solves `lp` once per kernel set; the counters that do not
    /// measure arithmetic must agree, and the sparse kernels may only
    /// do less of it.
    fn check_one_shot(lp: &LinearProgram) -> Result<(), TestCaseError> {
        let mut ss = SolveStats::default();
        let sparse = solve_inner(lp, &mut ss);
        let mut ds = SolveStats::default();
        let dense = with_dense(|| solve_inner(lp, &mut ds));
        same_solution(&sparse, &dense)?;
        prop_assert_eq!(ss.pivots, ds.pivots);
        prop_assert_eq!(ss.refactorizations, ds.refactorizations);
        prop_assert_eq!(ss.refactor_skips, ds.refactor_skips);
        prop_assert_eq!(ss.phase1_iterations, ds.phase1_iterations);
        prop_assert_eq!(ss.phase2_iterations, ds.phase2_iterations);
        prop_assert!(ss.cells_updated <= ds.cells_updated);
        Ok(())
    }

    /// One warm step applied to both engines.
    #[derive(Debug, Clone)]
    enum Step {
        Objective(Vec<f64>),
        Columns(Vec<ColumnSpec>),
    }

    /// Runs the same resolve sequence on two copies of `lp`, one per
    /// kernel set, comparing every answer and pivot count.
    fn check_sequence(lp: &IncrementalLp, steps: &[Step]) -> Result<(), TestCaseError> {
        let (mut sparse, mut dense) = (lp.clone(), lp.clone());
        let compare = |sparse: &mut IncrementalLp, dense: &mut IncrementalLp| {
            let s = sparse.resolve();
            let d = with_dense(|| dense.resolve());
            same_solution(&s, &d)?;
            let (ss, ds) = (sparse.last_stats(), dense.last_stats());
            prop_assert_eq!(ss.pivots, ds.pivots);
            prop_assert_eq!(ss.warm, ds.warm);
            Ok(())
        };
        compare(&mut sparse, &mut dense)?;
        for step in steps {
            match step {
                Step::Objective(c) => {
                    let c: Vec<(usize, f64)> = c
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(i, _)| i < sparse.n_vars())
                        .collect();
                    sparse.set_objective(&c).unwrap();
                    dense.set_objective(&c).unwrap();
                }
                Step::Columns(cols) => {
                    sparse.add_columns(cols).unwrap();
                    dense.add_columns(cols).unwrap();
                }
            }
            compare(&mut sparse, &mut dense)?;
        }
        Ok(())
    }

    /// A coefficient that is exactly zero about half the time, so the
    /// tableau stays sparse enough for the kernels to skip work.
    fn sparse_coeff() -> impl Strategy<Value = f64> {
        (-3.0f64..3.0).prop_map(|v| if v.abs() < 1.5 { 0.0 } else { v })
    }

    /// A general row: dense-over-`n` sparse coefficients, a relation,
    /// and a rhs that is exactly zero (homogeneous) about a third of
    /// the time.
    fn arb_row(n: usize) -> impl Strategy<Value = (Vec<f64>, Relation, f64)> {
        (
            prop::collection::vec(sparse_coeff(), n),
            (0usize..3).prop_map(|r| [Relation::Le, Relation::Ge, Relation::Eq][r]),
            (-4.0f64..8.0).prop_map(|r| if r < 0.0 { 0.0 } else { r - 2.0 }),
        )
    }

    /// A Geo-I-shaped pricing program over `k` variables: TVPI rows
    /// `z_i − α z_l ≤ (α − 1)·floor` for the listed pairs (`floor = 0`
    /// makes them homogeneous) and box rows `z_i ≤ 1 − floor`.
    fn geo_program(k: usize, pairs: &[(usize, usize, f64)], floor: f64) -> IncrementalLp {
        let mut lp = IncrementalLp::new(k);
        for &(i, l, alpha) in pairs {
            let (i, l) = (i % k, l % k);
            if i != l {
                lp.add_constraint(
                    &[(i, 1.0), (l, -alpha)],
                    Relation::Le,
                    (alpha - 1.0) * floor,
                )
                .unwrap();
            }
        }
        for i in 0..k {
            lp.add_constraint(&[(i, 1.0)], Relation::Le, 1.0 - floor)
                .unwrap();
        }
        lp
    }

    fn arb_columns(m: usize) -> impl Strategy<Value = Vec<ColumnSpec>> {
        prop::collection::vec(
            (
                -2.0f64..2.0,
                prop::collection::vec((0usize..m.max(1), sparse_coeff()), 1..4),
            )
                .prop_map(|(cost, entries)| ColumnSpec { cost, entries }),
            1..4,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Mixed `≤ / ≥ / =` programs, homogeneous rows included, with
        /// optional box rows: one-shot solves agree bit for bit.
        #[test]
        fn one_shot_solves_match_dense_oracle(
            n in 1usize..7,
            rows in prop::collection::vec(arb_row(6), 1..9),
            obj in prop::collection::vec(-5.0f64..5.0, 6),
            boxed in any::<bool>(),
        ) {
            let mut lp = LinearProgram::new(n);
            let c: Vec<(usize, f64)> = obj.iter().copied().enumerate().take(n).collect();
            lp.set_objective(&c).unwrap();
            for (coeffs, rel, rhs) in &rows {
                let a: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().take(n).collect();
                lp.add_constraint(&a, *rel, *rhs).unwrap();
            }
            if boxed {
                for i in 0..n {
                    lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0).unwrap();
                }
            }
            check_one_shot(&lp)?;
        }

        /// Geo-I pricing programs through the warm engine: a cold
        /// solve, objective swaps, then appended columns priced in.
        #[test]
        fn warm_geo_sequences_match_dense_oracle(
            k in 2usize..9,
            pairs in prop::collection::vec((0usize..9, 0usize..9, 1.0f64..6.0), 1..40),
            homogeneous in any::<bool>(),
            first in prop::collection::vec(-1.0f64..0.5, 9),
            objectives in prop::collection::vec(prop::collection::vec(-1.0f64..0.5, 9), 1..4),
            extra in arb_columns(48),
        ) {
            let mut lp = geo_program(k, &pairs, if homogeneous { 0.0 } else { 1e-6 });
            let c: Vec<(usize, f64)> = first.iter().copied().enumerate().take(k).collect();
            lp.set_objective(&c).unwrap();
            let m = lp.n_constraints();
            let extra: Vec<ColumnSpec> = extra
                .into_iter()
                .map(|mut c| {
                    c.entries.iter_mut().for_each(|e| e.0 %= m);
                    c
                })
                .collect();
            let mut steps: Vec<Step> = objectives.into_iter().map(Step::Objective).collect();
            steps.push(Step::Columns(extra));
            steps.push(Step::Objective(vec![-1.0; 9]));
            check_sequence(&lp, &steps)?;
        }

        /// General mixed programs through the warm engine, phase 1
        /// included: objective swaps and column appends.
        #[test]
        fn warm_mixed_sequences_match_dense_oracle(
            rows in prop::collection::vec(arb_row(5), 1..8),
            obj in prop::collection::vec(-5.0f64..5.0, 5),
            swap in prop::collection::vec(-5.0f64..5.0, 5),
            extra in arb_columns(8),
        ) {
            let mut lp = IncrementalLp::new(5);
            let c: Vec<(usize, f64)> = obj.iter().copied().enumerate().collect();
            lp.set_objective(&c).unwrap();
            for (coeffs, rel, rhs) in &rows {
                let a: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
                lp.add_constraint(&a, *rel, *rhs).unwrap();
            }
            for i in 0..5 {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0).unwrap();
            }
            let m = lp.n_constraints();
            let extra: Vec<ColumnSpec> = extra
                .into_iter()
                .map(|mut c| {
                    c.entries.iter_mut().for_each(|e| e.0 %= m);
                    c
                })
                .collect();
            check_sequence(&lp, &[Step::Objective(swap), Step::Columns(extra)])?;
        }
    }

    /// A program long enough to run past the periodic refactorization,
    /// so mid-solve refactors are compared too.
    #[test]
    fn long_solve_matches_dense_oracle() {
        let (n, m) = (150, 150);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut lp = LinearProgram::new(n);
        let c: Vec<(usize, f64)> = (0..n).map(|j| (j, -1.0 - next())).collect();
        lp.set_objective(&c).unwrap();
        for _ in 0..m {
            let a: Vec<(usize, f64)> = (0..n)
                .filter_map(|j| {
                    let u = next();
                    (u < 0.3).then_some((j, 0.2 + 3.0 * u))
                })
                .collect();
            lp.add_constraint(&a, Relation::Le, 1.0 + next()).unwrap();
        }
        check_one_shot(&lp).unwrap();
        let mut stats = SolveStats::default();
        solve_inner(&lp, &mut stats).unwrap();
        assert!(
            stats.pivots > 150 && stats.refactorizations >= 2,
            "{stats:?}"
        );
    }
}
