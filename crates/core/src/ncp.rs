//! Nonnegative CP decomposition by multiplicative updates.
//!
//! The memoized MTTKRP engines are not ALS-specific: any algorithm whose
//! inner loop is "compute `M^(n)` for each mode in turn, then update
//! `U^(n)`" plugs into the same backends and the same invalidation
//! protocol. Nonnegative CP (NCP) with Lee–Seung-style multiplicative
//! updates is the canonical second rule:
//!
//! `U^(n) <- U^(n) .* M^(n) ./ (U^(n) H^(n) + eps)`
//!
//! with `M^(n)` the MTTKRP and `H^(n)` the Hadamard product of the other
//! Gram matrices — exactly the quantities CP-ALS computes. NCP therefore
//! runs through the one sweep loop of [`crate::cpals`] (entered with
//! [`CpAls::ncp`], or the one-call [`ncp`]) and inherits its typed
//! errors, breakdown detectors, time budget, checkpoints and resume,
//! pairwise-perturbation sweeps, and tracing. This module holds only the
//! rule's own parts: its initialization, its input check, and the
//! division guard of the update, which runs in place as
//! [`adatm_linalg::update::ncp_into`]. The update preserves
//! nonnegativity of the input tensor and the initialization; factors
//! stay unnormalized and `lambda` stays all ones.

use crate::backend::MttkrpBackend;
use crate::cpals::{CpAls, CpAlsOptions, CpResult};
use crate::error::CpAlsError;
use adatm_linalg::Mat;
use adatm_tensor::SparseTensor;

/// Division guard keeping the multiplicative update finite.
pub(crate) const MU_EPS: f64 = 1e-12;

/// Runs nonnegative CP with multiplicative updates over any MTTKRP
/// backend: the one-call form of [`CpAls::ncp`].
///
/// A tensor with negative values, or a signed initial factor (e.g. from
/// [`InitStrategy::RandomizedRange`](crate::InitStrategy::RandomizedRange)),
/// is rejected with [`CpAlsError::NegativeInput`]; every other input
/// error is the one [`CpAls::run`] returns.
pub fn ncp<B: MttkrpBackend + ?Sized>(
    tensor: &SparseTensor,
    backend: &mut B,
    opts: &CpAlsOptions,
) -> Result<CpResult, CpAlsError> {
    CpAls::ncp(opts.clone()).run(tensor, backend)
}

/// NCP's random initialization: i.i.d. uniform entries in `(0, 1)`, one
/// seed per mode.
pub(crate) fn init_factors(tensor: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &rows)| Mat::random(rows, rank, seed ^ (0xabc + d as u64)))
        .collect()
}

/// The update needs `X >= 0` and a nonnegative start.
pub(crate) fn check_input(tensor: &SparseTensor, factors: &[Mat]) -> Result<(), CpAlsError> {
    if tensor.vals().iter().any(|&v| v < 0.0) {
        return Err(CpAlsError::NegativeInput { mode: None });
    }
    match factors.iter().position(|f| f.as_slice().iter().any(|&x| x < 0.0)) {
        Some(d) => Err(CpAlsError::NegativeInput { mode: Some(d) }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CooBackend, DtreeBackend};
    use adatm_linalg::Mat as M;
    use adatm_tensor::gen::zipf_tensor;
    use adatm_tensor::SparseTensor;

    /// A dense nonnegative low-rank tensor (all cells) for recovery tests.
    fn nonneg_low_rank(dims: &[usize], rank: usize, seed: u64) -> SparseTensor {
        let factors: Vec<M> =
            dims.iter().enumerate().map(|(d, &n)| M::random(n, rank, seed + d as u64)).collect();
        let mut entries = Vec::new();
        let mut coords = vec![0usize; dims.len()];
        let cells: usize = dims.iter().product();
        for _ in 0..cells {
            let mut v = 0.0;
            for r in 0..rank {
                let mut p = 1.0;
                for (d, f) in factors.iter().enumerate() {
                    p *= f.get(coords[d], r);
                }
                v += p;
            }
            entries.push((coords.clone(), v));
            for d in (0..dims.len()).rev() {
                coords[d] += 1;
                if coords[d] < dims[d] {
                    break;
                }
                coords[d] = 0;
            }
        }
        SparseTensor::from_entries(dims.to_vec(), &entries)
    }

    #[test]
    fn ncp_fits_nonnegative_low_rank_data() {
        let t = nonneg_low_rank(&[10, 12, 8], 3, 5);
        let mut backend = CooBackend::new(&t);
        let res =
            ncp(&t, &mut backend, &CpAlsOptions::new(3).max_iters(300).tol(0.0).seed(2)).unwrap();
        assert!(res.final_fit() > 0.95, "fit {}", res.final_fit());
    }

    #[test]
    fn factors_stay_nonnegative() {
        let t = zipf_tensor(&[15, 18, 12, 10], 400, &[0.5; 4], 7);
        let mut backend = DtreeBackend::balanced_binary(&t, 4);
        let res =
            ncp(&t, &mut backend, &CpAlsOptions::new(4).max_iters(10).tol(0.0).seed(1)).unwrap();
        for (d, f) in res.model.factors.iter().enumerate() {
            assert!(
                f.as_slice().iter().all(|&x| x >= 0.0 && x.is_finite()),
                "mode {d} has negative/non-finite entries"
            );
        }
    }

    #[test]
    fn fit_is_monotone_nondecreasing() {
        // Multiplicative updates are monotone in the objective for
        // nonnegative data.
        let t = nonneg_low_rank(&[8, 9, 7], 2, 3);
        let mut backend = CooBackend::new(&t);
        let res =
            ncp(&t, &mut backend, &CpAlsOptions::new(2).max_iters(40).tol(0.0).seed(4)).unwrap();
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn backends_agree_on_ncp_trajectory() {
        let t = zipf_tensor(&[12, 14, 10, 8], 300, &[0.6; 4], 9);
        let opts = CpAlsOptions::new(3).max_iters(8).tol(0.0).seed(11);
        let mut coo = CooBackend::new(&t);
        let mut bdt = DtreeBackend::balanced_binary(&t, 3);
        let a = ncp(&t, &mut coo, &opts).unwrap();
        let b = ncp(&t, &mut bdt, &opts).unwrap();
        for (x, y) in a.fit_history.iter().zip(b.fit_history.iter()) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn ncp_rejects_negative_values() {
        let t = SparseTensor::from_entries(vec![3, 3], &[(vec![0, 0], -1.0)]);
        let mut backend = CooBackend::new(&t);
        let err = ncp(&t, &mut backend, &CpAlsOptions::new(2)).unwrap_err();
        assert_eq!(err, CpAlsError::NegativeInput { mode: None });
        // Signed initial factors: explicit ones, and the orthonormal bases
        // of the randomized range finder.
        let t = zipf_tensor(&[10, 12, 9], 200, &[0.4; 3], 3);
        let mut backend = CooBackend::new(&t);
        let mut signed = init_factors(&t, 2, 1);
        signed[1].set(4, 0, -0.5);
        let err = CpAls::ncp(CpAlsOptions::new(2)).run_from(&t, &mut backend, signed).unwrap_err();
        assert_eq!(err, CpAlsError::NegativeInput { mode: Some(1) });
        let opts = CpAlsOptions::new(3).init(crate::InitStrategy::RandomizedRange);
        let err = ncp(&t, &mut backend, &opts).unwrap_err();
        assert!(matches!(err, CpAlsError::NegativeInput { mode: Some(_) }), "got {err:?}");
    }
}
