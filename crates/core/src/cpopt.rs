//! CP-OPT: gradient-based CP fitting (all-at-once optimization).
//!
//! The third client of the MTTKRP engines. CP-OPT minimizes
//! `f(U) = 1/2 ||X - model||²` by gradient descent with Armijo
//! backtracking; the gradient with respect to each factor is
//!
//! `G^(n) = U^(n) H^(n) - M^(n)`
//!
//! with `M^(n)` the MTTKRP and `H^(n)` the Hadamard-of-Grams — the same
//! quantities as CP-ALS, but evaluated at a *fixed* factor set. That
//! detail makes memoization even more profitable than in ALS: because no
//! factor changes between the `N` MTTKRPs of one gradient evaluation, a
//! dimension-tree backend computes every internal node **once** and
//! reuses it for every mode, with no invalidation at all between modes.
//!
//! CP-OPT stays outside the one sweep loop of [`crate::cpals`]: it runs
//! an Armijo line search over all modes at fixed factors and never calls
//! `begin_mode`, so it has no per-mode "compute `M^(n)`, then update
//! `U^(n)`" step for an update rule to plug into.

use crate::backend::MttkrpBackend;
use crate::error::{check_input, CpAlsError};
use crate::init::{init_factors, InitStrategy};
use crate::model::CpModel;
use adatm_linalg::Mat;
use adatm_tensor::SparseTensor;

/// Options for a CP-OPT run.
#[derive(Clone, Debug)]
pub struct CpOptOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Maximum gradient iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the relative objective decrease.
    pub tol: f64,
    /// Initialization seed.
    pub seed: u64,
    /// Initial step size for the line search.
    pub step0: f64,
}

impl CpOptOptions {
    /// Defaults: 100 iterations, tolerance `1e-8`, seed 0, step 1.
    ///
    /// A rank of 0 is rejected with [`CpAlsError::ZeroRank`] when
    /// [`cp_opt`] runs.
    pub fn new(rank: usize) -> Self {
        CpOptOptions { rank, max_iters: 100, tol: 1e-8, seed: 0, step0: 1.0 }
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the relative-decrease tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a CP-OPT run.
#[derive(Clone, Debug)]
pub struct CpOptResult {
    /// The decomposition (`lambda` all ones; factors unnormalized).
    pub model: CpModel,
    /// Completed iterations.
    pub iters: usize,
    /// Objective `1/2 ||X - model||²` after each iteration.
    pub objective_history: Vec<f64>,
    /// Objective at the returned factors (the starting point's when no
    /// step was accepted).
    pub objective: f64,
    /// Whether the run stopped at a stationary point: the tolerance stop
    /// fired, the gradient vanished, or no step decreased the objective.
    /// False when the objective or its gradient norm is not finite, or
    /// when even the line search's smallest step overflowed.
    pub converged: bool,
}

/// Evaluates the objective and the full gradient at the current factors.
///
/// Returns `(objective, gradients)`. One MTTKRP per mode, **without**
/// invalidation between modes (factors are fixed during the evaluation);
/// the caller must `backend.reset()` after moving the factors.
fn objective_and_gradient<B: MttkrpBackend + ?Sized>(
    tensor: &SparseTensor,
    backend: &mut B,
    factors: &[Mat],
    xnorm2: f64,
) -> (f64, Vec<Mat>) {
    let n = tensor.ndim();
    let rank = factors[0].ncols();
    let grams: Vec<Mat> = factors.iter().map(Mat::gram).collect();
    let mut grads = Vec::with_capacity(n);
    let mut inner = 0.0;
    for mode in 0..n {
        // Intentionally no begin_mode: factors are fixed, so every cached
        // intermediate stays valid across the N MTTKRPs.
        let mut m = Mat::zeros(tensor.dims()[mode], rank);
        backend.mttkrp_into(tensor, factors, mode, &mut m);
        if mode == n - 1 {
            inner = (0..rank).map(|r| m.col_dot(&factors[mode], r)).sum();
        }
        let mut h = Mat::from_vec(rank, rank, vec![1.0; rank * rank]);
        for (d, w) in grams.iter().enumerate() {
            if d != mode {
                h.hadamard_assign(w);
            }
        }
        let mut g = factors[mode].matmul(&h);
        for (gv, &mv) in g.as_mut_slice().iter_mut().zip(m.as_slice().iter()) {
            *gv -= mv;
        }
        grads.push(g);
    }
    let mut gfull = Mat::from_vec(rank, rank, vec![1.0; rank * rank]);
    for w in &grams {
        gfull.hadamard_assign(w);
    }
    let ones = vec![1.0; rank];
    // Clamp rounding below zero, but keep a NaN (which `f64::max` would
    // turn into 0): an overflowed point must not read as a perfect fit.
    let non_negative = |x: f64| if x.is_nan() { x } else { x.max(0.0) };
    let mnorm2 = non_negative(gfull.weighted_quad(&ones, &ones));
    let obj = 0.5 * non_negative(xnorm2 - 2.0 * inner + mnorm2);
    (obj, grads)
}

/// Runs CP-OPT (gradient descent with Armijo backtracking) over any
/// MTTKRP backend.
///
/// Returns [`CpAlsError`] for a zero rank, a tensor with fewer than two
/// modes or a non-finite value. A run that meets a non-finite objective
/// is not an error: it stops there, unconverged.
pub fn cp_opt<B: MttkrpBackend + ?Sized>(
    tensor: &SparseTensor,
    backend: &mut B,
    opts: &CpOptOptions,
) -> Result<CpOptResult, CpAlsError> {
    check_input(tensor, opts.rank)?;
    let xnorm2 = tensor.fro_norm_sq();
    let mut factors = init_factors(tensor, opts.rank, opts.seed, InitStrategy::Random);
    // Scale the random init down: gradient descent on CP blows up from
    // large starting factors (the objective is a degree-2N polynomial).
    let scale = (xnorm2.sqrt().max(1e-12) / tensor.nnz().max(1) as f64)
        .powf(1.0 / tensor.ndim() as f64)
        .min(1.0);
    for f in &mut factors {
        for v in f.as_mut_slice() {
            *v *= scale;
        }
    }
    backend.reset();
    let (mut obj, mut grads) = objective_and_gradient(tensor, backend, &factors, xnorm2);
    let mut history = Vec::new();
    let mut step = opts.step0;
    let mut converged = false;
    let mut iters = 0;

    for _iter in 0..opts.max_iters {
        let gnorm2: f64 =
            grads.iter().map(|g| g.as_slice().iter().map(|x| x * x).sum::<f64>()).sum();
        // At a non-finite objective or gradient norm the Armijo test below
        // decides nothing (it passes no step, or every one): stop there,
        // unconverged, before trial points overflow further.
        if !(obj.is_finite() && gnorm2.is_finite()) {
            break;
        }
        if gnorm2 == 0.0 {
            converged = true;
            break;
        }
        // Armijo backtracking on the step size. A non-finite trial
        // objective fails the test and halves the step.
        let mut accepted = false;
        let mut finite_trial = true;
        for _bt in 0..40 {
            let trial: Vec<Mat> = factors
                .iter()
                .zip(grads.iter())
                .map(|(f, g)| {
                    let mut t = f.clone();
                    for (tv, &gv) in t.as_mut_slice().iter_mut().zip(g.as_slice().iter()) {
                        *tv -= step * gv;
                    }
                    t
                })
                .collect();
            backend.reset();
            let (tobj, tgrads) = objective_and_gradient(tensor, backend, &trial, xnorm2);
            finite_trial = tobj.is_finite();
            if tobj <= obj - 1e-4 * step * gnorm2 {
                factors = trial;
                let rel = (obj - tobj) / obj.max(f64::MIN_POSITIVE);
                obj = tobj;
                grads = tgrads;
                step *= 1.5; // optimistic growth after a success
                accepted = true;
                iters += 1;
                history.push(obj);
                if opts.tol > 0.0 && rel < opts.tol {
                    converged = true;
                }
                break;
            }
            step *= 0.5;
        }
        if !accepted || converged {
            // A search that failed only because its smallest step still
            // overflowed has not found a stationary point.
            converged = converged || finite_trial;
            break;
        }
    }

    Ok(CpOptResult {
        model: CpModel { lambda: vec![1.0; opts.rank], factors },
        iters,
        objective_history: history,
        objective: obj,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CooBackend, DtreeBackend};
    use adatm_tensor::gen::{dense_low_rank, zipf_tensor};

    #[test]
    fn objective_decreases_monotonically() {
        let truth = dense_low_rank(&[8, 9, 7], 2, 0.0, 3);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = cp_opt(
            &truth.tensor,
            &mut backend,
            &CpOptOptions::new(2).max_iters(30).tol(0.0).seed(5),
        )
        .unwrap();
        assert!(res.iters > 0, "no accepted steps");
        for w in res.objective_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "objective increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let t = zipf_tensor(&[5, 6, 4], 30, &[0.3; 3], 7);
        let xnorm2 = t.fro_norm_sq();
        let factors = init_factors(&t, 2, 9, InitStrategy::Random);
        let mut backend = CooBackend::new(&t);
        let (f0, grads) = objective_and_gradient(&t, &mut backend, &factors, xnorm2);
        let eps = 1e-6;
        for mode in 0..3 {
            for &(i, r) in &[(0usize, 0usize), (2, 1), (4, 0)] {
                if i >= factors[mode].nrows() {
                    continue;
                }
                let mut pert = factors.clone();
                let v = pert[mode].get(i, r);
                pert[mode].set(i, r, v + eps);
                let (f1, _) = objective_and_gradient(&t, &mut backend, &pert, xnorm2);
                let fd = (f1 - f0) / eps;
                let an = grads[mode].get(i, r);
                assert!(
                    (fd - an).abs() < 1e-3 * (1.0 + an.abs()),
                    "mode {mode} ({i},{r}): fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn cpopt_reaches_good_fit_on_low_rank_data() {
        let truth = dense_low_rank(&[8, 7, 6], 2, 0.0, 11);
        let t = &truth.tensor;
        let mut backend = DtreeBackend::balanced_binary(t, 2);
        let res =
            cp_opt(t, &mut backend, &CpOptOptions::new(2).max_iters(400).tol(0.0).seed(1)).unwrap();
        let final_obj = *res.objective_history.last().unwrap();
        let rel = (2.0 * final_obj).sqrt() / t.fro_norm();
        assert!(rel < 0.3, "relative residual {rel}");
    }

    #[test]
    fn overflowing_trial_steps_are_rejected() {
        // Values of 1e100: the starting objective (about 1e200) is finite,
        // but every trial step of the line search moves the factors to
        // 1e88 or more, where the model's norm overflows and the
        // objective is NaN. Such a trial must fail the Armijo test rather
        // than read as a perfect fit.
        let mut t = zipf_tensor(&[6, 5, 4], 40, &[0.3; 3], 3);
        for v in t.vals_mut() {
            *v *= 1e100;
        }
        let mut backend = CooBackend::new(&t);
        let res = cp_opt(&t, &mut backend, &CpOptOptions::new(2).max_iters(5).seed(4)).unwrap();
        assert_eq!(res.iters, 0, "an overflowed trial was accepted");
        let (obj, _) =
            objective_and_gradient(&t, &mut backend, &res.model.factors, t.fro_norm_sq());
        assert!(obj.is_finite() && obj > 1e199, "objective at the returned factors {obj}");
        assert_eq!(res.objective.to_bits(), obj.to_bits());
        assert!(!res.converged, "an overflowing line search is not convergence");
    }

    #[test]
    fn backends_agree_on_gradient() {
        let t = zipf_tensor(&[8, 10, 6, 7], 120, &[0.5; 4], 13);
        let factors = init_factors(&t, 3, 17, InitStrategy::Random);
        let xnorm2 = t.fro_norm_sq();
        let mut coo = CooBackend::new(&t);
        let mut bdt = DtreeBackend::balanced_binary(&t, 3);
        let (fa, ga) = objective_and_gradient(&t, &mut coo, &factors, xnorm2);
        let (fb, gb) = objective_and_gradient(&t, &mut bdt, &factors, xnorm2);
        assert!((fa - fb).abs() < 1e-9);
        for (x, y) in ga.iter().zip(gb.iter()) {
            assert!(x.max_abs_diff(y) < 1e-9);
        }
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        let t = zipf_tensor(&[5, 4, 3], 30, &[0.3; 3], 2);
        let mut backend = CooBackend::new(&t);
        let err = cp_opt(&t, &mut backend, &CpOptOptions::new(0)).unwrap_err();
        assert_eq!(err, CpAlsError::ZeroRank);
        let one_mode = SparseTensor::from_entries(vec![3], &[(vec![0], 1.0), (vec![2], 2.0)]);
        let mut backend = CooBackend::new(&one_mode);
        let err = cp_opt(&one_mode, &mut backend, &CpOptOptions::new(2)).unwrap_err();
        assert_eq!(err, CpAlsError::TooFewModes { ndim: 1 });
        let mut inf = t.clone();
        inf.vals_mut()[0] = f64::INFINITY;
        let mut backend = CooBackend::new(&inf);
        let err = cp_opt(&inf, &mut backend, &CpOptOptions::new(2)).unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteTensor);
    }
}
