//! Tensor completion: CP factorization of *observed entries only*.
//!
//! The CP-ALS of [`cpals`](crate::cpals) fits the full tensor, treating
//! unobserved cells as zeros — right for count/measurement data, wrong
//! for recommender-style data where missing means *unknown*. Completion
//! solves
//!
//! `min sum_{(i_1..i_N) observed} (x - sum_r prod_d U^(d)(i_d, r))² +
//!  reg * sum_d ||U^(d)||²`
//!
//! by row-wise alternating least squares: the normal equations decouple
//! per row of each factor, with the row's system assembled from exactly
//! the nonzeros of its slice (the same per-mode grouped views the COO
//! MTTKRP uses). This is the standard ALS formulation of the tensor
//! completion literature that the sparse-MTTKRP papers extend to.
//!
//! Completion stays outside the one sweep loop of [`crate::cpals`]: its
//! row-wise solves assemble each row's system from that row's observed
//! entries, so it has no MTTKRP backend to drive.

use crate::model::CpModel;
use adatm_linalg::{pinv_sym, Mat, PINV_RCOND};
use adatm_tensor::{SortedModeView, SparseTensor};
use rayon::prelude::*;

/// Options for a completion run.
#[derive(Clone, Debug)]
pub struct CompletionOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the relative change in training RMSE.
    pub tol: f64,
    /// Tikhonov regularization weight (`reg > 0` recommended — slices
    /// with fewer observations than the rank are otherwise singular).
    pub reg: f64,
    /// Initialization seed.
    pub seed: u64,
}

impl CompletionOptions {
    /// Defaults: 50 iterations, tolerance `1e-5`, regularization `0.1`.
    pub fn new(rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        CompletionOptions { rank, max_iters: 50, tol: 1e-5, reg: 0.1, seed: 0 }
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the RMSE-change tolerance (0 disables early stop).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the regularization weight.
    pub fn reg(mut self, reg: f64) -> Self {
        assert!(reg >= 0.0, "regularization must be nonnegative");
        self.reg = reg;
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a completion run.
#[derive(Clone, Debug)]
pub struct CompletionResult {
    /// The factorization (`lambda` all ones; factors unnormalized — the
    /// regularized objective fixes the scale indeterminacy itself).
    pub model: CpModel,
    /// Completed iterations.
    pub iters: usize,
    /// Training RMSE over the observed entries after each iteration.
    pub rmse_history: Vec<f64>,
    /// Whether the tolerance stop fired.
    pub converged: bool,
}

impl CompletionResult {
    /// Final training RMSE.
    pub fn final_rmse(&self) -> f64 {
        self.rmse_history.last().copied().unwrap_or(f64::NAN)
    }
}

/// RMSE of a CP model over a set of observed entries.
pub fn rmse_on(model: &CpModel, entries: &SparseTensor) -> f64 {
    if entries.nnz() == 0 {
        return 0.0;
    }
    let se: f64 = (0..entries.nnz())
        .map(|k| {
            let coords: Vec<usize> =
                (0..entries.ndim()).map(|d| entries.mode_idx(d)[k] as usize).collect();
            let diff = model.predict(&coords) - entries.vals()[k];
            diff * diff
        })
        .sum();
    (se / entries.nnz() as f64).sqrt()
}

/// Runs completion ALS over the observed entries of `tensor`.
///
/// Unlike the full-tensor solvers, there is no backend parameter: the
/// row-wise normal equations need per-slice entry lists, which the
/// per-mode [`SortedModeView`]s provide directly.
pub fn complete(tensor: &SparseTensor, opts: &CompletionOptions) -> CompletionResult {
    let n = tensor.ndim();
    assert!(n >= 2, "completion needs at least 2 modes");
    let rank = opts.rank;
    let views: Vec<SortedModeView> = (0..n).map(|m| SortedModeView::build(tensor, m)).collect();
    let mut factors: Vec<Mat> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &rows)| Mat::random(rows, rank, opts.seed ^ (0xc0_f1 + d as u64)))
        .collect();
    let mut rmse_history = Vec::new();
    let mut converged = false;
    let mut iters = 0;

    for _iter in 0..opts.max_iters {
        for mode in 0..n {
            let view = &views[mode];
            // Solve each observed row's regularized normal equations
            // independently (embarrassingly parallel across rows).
            let updated: Vec<(usize, Vec<f64>)> = (0..view.num_groups())
                .into_par_iter()
                .map(|g| {
                    let row_idx = view.key(g) as usize;
                    // Assemble A = sum c c^T + reg I and b = sum x c over
                    // the slice's entries, with c the Hadamard of the
                    // other modes' factor rows.
                    let mut a = Mat::zeros(rank, rank);
                    let mut b = vec![0.0f64; rank];
                    let mut c = vec![0.0f64; rank];
                    for &e in view.group(g) {
                        let k = e as usize;
                        c.iter_mut().for_each(|x| *x = 1.0);
                        for (d, f) in factors.iter().enumerate() {
                            if d == mode {
                                continue;
                            }
                            let frow = f.row(tensor.mode_idx(d)[k] as usize);
                            for (x, &u) in c.iter_mut().zip(frow.iter()) {
                                *x *= u;
                            }
                        }
                        let x = tensor.vals()[k];
                        for r in 0..rank {
                            b[r] += x * c[r];
                            let arow = a.row_mut(r);
                            let cr = c[r];
                            for (av, &cv) in arow.iter_mut().zip(c.iter()) {
                                *av += cr * cv;
                            }
                        }
                    }
                    for r in 0..rank {
                        let v = a.get(r, r) + opts.reg;
                        a.set(r, r, v);
                    }
                    let ainv = pinv_sym(&a, PINV_RCOND);
                    let mut u = vec![0.0f64; rank];
                    for (r, ur) in u.iter_mut().enumerate() {
                        let arow = ainv.row(r);
                        *ur = arow.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
                    }
                    (row_idx, u)
                })
                .collect();
            for (row_idx, u) in updated {
                factors[mode].row_mut(row_idx).copy_from_slice(&u);
            }
        }
        // Training RMSE.
        let model = CpModel { lambda: vec![1.0; rank], factors: factors.clone() };
        let rmse = rmse_on(&model, tensor);
        iters += 1;
        let prev = rmse_history.last().copied();
        rmse_history.push(rmse);
        if let Some(p) = prev {
            // Mixed absolute/relative criterion: a plain relative test
            // never fires once the RMSE itself approaches zero.
            if opts.tol > 0.0 && (p - rmse).abs() <= opts.tol * (1.0 + p) {
                converged = true;
                break;
            }
        }
    }

    CompletionResult {
        model: CpModel { lambda: vec![1.0; rank], factors },
        iters,
        rmse_history,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adatm_tensor::gen::low_rank_tensor;

    #[test]
    fn completes_sparsely_observed_low_rank_tensor() {
        // Sample a low-rank model at sparse positions; completion must
        // drive the training RMSE near zero — the full-tensor CP-ALS
        // cannot (it fits the implicit zeros too).
        let truth = low_rank_tensor(&[40, 35, 30], 3, 6_000, 0.0, 3);
        let res = complete(
            &truth.tensor,
            &CompletionOptions::new(3).max_iters(40).reg(1e-4).tol(0.0).seed(5),
        );
        assert!(res.final_rmse() < 0.05, "training RMSE {} should be near zero", res.final_rmse());
    }

    #[test]
    fn generalizes_to_held_out_entries() {
        let truth = low_rank_tensor(&[30, 30, 30], 2, 8_000, 0.0, 7);
        let full = &truth.tensor;
        // 90/10 split.
        let mut train = Vec::new();
        let mut test = Vec::new();
        for k in 0..full.nnz() {
            let coords: Vec<usize> = (0..3).map(|d| full.mode_idx(d)[k] as usize).collect();
            if k % 10 == 0 {
                test.push((coords, full.vals()[k]));
            } else {
                train.push((coords, full.vals()[k]));
            }
        }
        let train_t = SparseTensor::from_entries(full.dims().to_vec(), &train);
        let test_t = SparseTensor::from_entries(full.dims().to_vec(), &test);
        let res =
            complete(&train_t, &CompletionOptions::new(2).max_iters(30).reg(1e-3).tol(0.0).seed(2));
        let test_rmse = rmse_on(&res.model, &test_t);
        // Values are O(rank * 0.25); an informative model sits well below
        // the data's own standard deviation.
        let mean: f64 = test_t.vals().iter().sum::<f64>() / test_t.nnz() as f64;
        let sd: f64 = (test_t.vals().iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / test_t.nnz() as f64)
            .sqrt();
        assert!(test_rmse < 0.5 * sd, "held-out RMSE {test_rmse} vs data sd {sd}");
    }

    #[test]
    fn rmse_history_is_nonincreasing_with_tiny_reg() {
        let truth = low_rank_tensor(&[20, 25, 15, 10], 2, 2_000, 0.05, 9);
        let res = complete(
            &truth.tensor,
            &CompletionOptions::new(2).max_iters(15).reg(1e-6).tol(0.0).seed(1),
        );
        for w in res.rmse_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "RMSE rose: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn regularization_shrinks_factors() {
        let truth = low_rank_tensor(&[15, 15, 15], 2, 800, 0.1, 4);
        let weak = complete(
            &truth.tensor,
            &CompletionOptions::new(2).max_iters(10).reg(1e-6).tol(0.0).seed(3),
        );
        let strong = complete(
            &truth.tensor,
            &CompletionOptions::new(2).max_iters(10).reg(100.0).tol(0.0).seed(3),
        );
        let norm = |m: &CpModel| -> f64 { m.factors.iter().map(Mat::fro_norm).sum() };
        assert!(norm(&strong.model) < norm(&weak.model));
    }

    #[test]
    fn unobserved_rows_keep_initial_values() {
        // A mode-0 index that never occurs must not be touched.
        let t = SparseTensor::from_entries(
            vec![5, 3, 3],
            &[(vec![0, 1, 2], 1.0), (vec![2, 0, 1], 2.0)],
        );
        let res = complete(&t, &CompletionOptions::new(2).max_iters(2).tol(0.0).seed(11));
        let init = Mat::random(5, 2, 11 ^ 0xc0_f1);
        for &row in &[1usize, 3, 4] {
            assert_eq!(res.model.factors[0].row(row), init.row(row), "row {row}");
        }
    }

    #[test]
    fn convergence_stop_fires() {
        let truth = low_rank_tensor(&[15, 12, 10], 2, 600, 0.0, 6);
        let res = complete(
            &truth.tensor,
            &CompletionOptions::new(2).max_iters(500).reg(1e-4).tol(1e-8).seed(8),
        );
        assert!(res.converged);
        assert!(res.iters < 500);
    }
}
