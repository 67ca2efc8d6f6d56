//! Property tests for the validators: structures the kernels build must
//! always validate, and targeted corruptions must fail with the *right*
//! [`AuditError`] variant.

use adatm_audit::{validate_canonical, validate_csf_parts, validate_symbolic, Validate};
use adatm_dtree::{DimTree, SymbolicTree, TreeShape};
use adatm_linalg::Mat;
use adatm_tensor::coo::Idx;
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::SparseTensor;
use proptest::prelude::*;

/// Strategy: a random sparse tensor with 2-5 modes, small dims, and a
/// handful of entries, canonicalized by `dedup_sum`.
fn arb_tensor() -> impl Strategy<Value = SparseTensor> {
    (2usize..=5)
        .prop_flat_map(|ndim| {
            let dims = proptest::collection::vec(2usize..7, ndim);
            dims.prop_flat_map(move |dims| {
                let cells: usize = dims.iter().product();
                let max_nnz = cells.min(40);
                let entry = {
                    let dims = dims.clone();
                    (0..cells).prop_map(move |flat| {
                        let mut c = Vec::with_capacity(dims.len());
                        let mut rest = flat;
                        for &d in dims.iter().rev() {
                            c.push(rest % d);
                            rest /= d;
                        }
                        c.reverse();
                        c
                    })
                };
                (Just(dims.clone()), proptest::collection::vec((entry, -5.0f64..5.0), 1..=max_nnz))
            })
        })
        .prop_map(|(dims, entries)| {
            let entries: Vec<(Vec<usize>, f64)> = entries;
            let mut t = SparseTensor::from_entries(dims, &entries);
            t.dedup_sum();
            t
        })
}

/// Owned raw parts of a CSF tensor: `(dims, order, fids, fptr, vals)`.
type CsfParts = (Vec<usize>, Vec<usize>, Vec<Vec<Idx>>, Vec<Vec<usize>>, Vec<f64>);

/// Borrows a CSF tensor's raw parts, ready for corruption.
fn csf_parts(c: &CsfTensor) -> CsfParts {
    let n = c.ndim();
    (
        c.dims().to_vec(),
        c.order().to_vec(),
        (0..n).map(|l| c.level_fids(l).to_vec()).collect(),
        (0..n - 1).map(|l| c.level_fptr(l).to_vec()).collect(),
        c.vals().to_vec(),
    )
}

fn run_parts(
    dims: &[usize],
    order: &[usize],
    fids: &[Vec<Idx>],
    fptr: &[Vec<usize>],
    vals: &[f64],
) -> Result<(), adatm_audit::AuditError> {
    let fids: Vec<&[Idx]> = fids.iter().map(Vec::as_slice).collect();
    let fptr: Vec<&[usize]> = fptr.iter().map(Vec::as_slice).collect();
    validate_csf_parts(dims, order, &fids, &fptr, vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip: a canonical COO tensor validates, and every per-mode
    /// CSF built from it validates too.
    #[test]
    fn coo_to_csf_round_trip_always_validates(t in arb_tensor()) {
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(validate_canonical(&t), Ok(()));
        for m in 0..t.ndim() {
            let c = CsfTensor::for_mode(&t, m);
            prop_assert_eq!(c.validate(), Ok(()));
        }
    }

    /// A duplicated coordinate (skipping `dedup_sum`) is reported as
    /// `DuplicateIndex` by the canonical validator.
    #[test]
    fn duplicate_coordinate_fails_canonical(t in arb_tensor()) {
        // Rebuild the tensor with its first entry repeated at the end,
        // then re-sort (without merging) so ordering is not the failure.
        let mut entries: Vec<(Vec<usize>, f64)> = (0..t.nnz())
            .map(|k| {
                ((0..t.ndim()).map(|d| t.mode_idx(d)[k] as usize).collect(), t.vals()[k])
            })
            .collect();
        entries.push(entries[0].clone());
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let dup = SparseTensor::from_entries(t.dims().to_vec(), &entries);
        prop_assert_eq!(dup.validate(), Ok(()));
        prop_assert!(matches!(
            validate_canonical(&dup),
            Err(adatm_audit::AuditError::DuplicateIndex { what: "coo coordinates", .. })
        ));
    }

    /// A NaN planted anywhere in the values is reported as `NonFinite`
    /// at exactly that position.
    #[test]
    fn nan_value_fails_with_nonfinite(t in arb_tensor(), at in 0usize..1000) {
        let mut t = t;
        let pos = at % t.nnz();
        t.vals_mut()[pos] = f64::NAN;
        let got = t.validate();
        let want = Err(adatm_audit::AuditError::NonFinite { what: "coo values", pos });
        prop_assert_eq!(got, want);
    }

    /// Shuffling a CSF level's fibers (when there is anything to shuffle)
    /// is reported as `Unsorted` or `DuplicateIndex` — never accepted.
    #[test]
    fn shuffled_csf_fiber_fails(t in arb_tensor(), which in 0usize..1000) {
        let mode = which % t.ndim();
        let c = CsfTensor::for_mode(&t, mode);
        let (dims, order, mut fids, fptr, vals) = csf_parts(&c);
        prop_assume!(fids[0].len() >= 2);
        // Reverse the root level: with >= 2 distinct fibers this breaks
        // strict ascending order while keeping all pointers intact.
        fids[0].reverse();
        prop_assert!(matches!(
            run_parts(&dims, &order, &fids, &fptr, &vals),
            Err(adatm_audit::AuditError::Unsorted { what: "csf root fibers", .. })
        ));
    }

    /// Truncating the CSF leaf values breaks the fiber-count/nnz
    /// accounting and is reported as `CountMismatch`.
    #[test]
    fn csf_leaf_accounting_fails_on_truncation(t in arb_tensor()) {
        let c = CsfTensor::for_mode(&t, 0);
        let (dims, order, fids, fptr, mut vals) = csf_parts(&c);
        vals.pop();
        prop_assert!(matches!(
            run_parts(&dims, &order, &fids, &fptr, &vals),
            Err(adatm_audit::AuditError::CountMismatch { what: "csf leaf values", .. })
        ));
    }

    /// Every random dimension tree and its symbolic structure validate.
    #[test]
    fn random_trees_and_symbolic_always_validate(t in arb_tensor(), seed in 0u64..1000) {
        for shape in [
            TreeShape::two_level(t.ndim()),
            TreeShape::three_level(t.ndim()),
            TreeShape::balanced_binary(t.ndim()),
            TreeShape::left_deep(t.ndim()),
        ] {
            let tree = DimTree::from_shape(&shape);
            prop_assert_eq!(tree.validate(), Ok(()));
            let sym = SymbolicTree::build(&t, &tree);
            prop_assert_eq!(validate_symbolic(&sym, &tree), Ok(()));
        }
        let _ = seed;
    }

    /// Factor sets produced for a tensor validate; a planted infinity
    /// fails with `NonFinite`.
    #[test]
    fn factor_sets_validate_until_poisoned(t in arb_tensor(), seed in 0u64..1000) {
        let rank = 3;
        let mut factors: Vec<Mat> = t
            .dims()
            .iter()
            .enumerate()
            .map(|(d, &n)| Mat::random(n, rank, seed + d as u64))
            .collect();
        prop_assert_eq!(adatm_audit::validate_factors(&factors, t.dims(), rank), Ok(()));
        factors[0].set(0, 0, f64::INFINITY);
        prop_assert!(matches!(
            adatm_audit::validate_factors(&factors, t.dims(), rank),
            Err(adatm_audit::AuditError::NonFinite { what: "matrix entries", pos: 0 })
        ));
    }
}
