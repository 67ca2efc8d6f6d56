//! Property-based tests of the tensor substrate: CSF equivalence and I/O
//! round trips, on random sparse tensors.

use adatm_linalg::Mat;
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::dense::DenseTensor;
use adatm_tensor::io::{read_binary, read_tns, write_binary, write_tns};
use adatm_tensor::mttkrp::mttkrp_seq;
use adatm_tensor::SparseTensor;
use proptest::prelude::*;

fn arb_tensor() -> impl Strategy<Value = SparseTensor> {
    (2usize..=4)
        .prop_flat_map(|ndim| {
            proptest::collection::vec(2usize..8, ndim).prop_flat_map(move |dims| {
                let cells: usize = dims.iter().product();
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
                (
                    Just(dims.clone()),
                    proptest::collection::vec((entry, -4.0f64..4.0), 1..=cells.min(30)),
                )
            })
        })
        .prop_map(|(dims, entries)| {
            let mut t = SparseTensor::from_entries(dims, &entries);
            t.dedup_sum();
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csf_mttkrp_equals_coo_mttkrp(t in arb_tensor(), seed in 0u64..500) {
        let rank = 2;
        let factors: Vec<Mat> = t.dims().iter().enumerate()
            .map(|(d, &n)| Mat::random(n, rank, seed + d as u64))
            .collect();
        for mode in 0..t.ndim() {
            let csf = CsfTensor::for_mode(&t, mode);
            let a = csf.mttkrp_root(&factors);
            let b = mttkrp_seq(&t, &factors, mode);
            prop_assert!(a.max_abs_diff(&b) < 1e-9, "mode {mode}");
        }
    }

    #[test]
    fn csf_leaf_count_is_distinct_coordinate_count(t in arb_tensor()) {
        let csf = CsfTensor::build(&t, &(0..t.ndim()).collect::<Vec<_>>());
        prop_assert_eq!(*csf.node_counts().last().unwrap(), t.nnz());
    }

    #[test]
    fn tns_round_trip_preserves_dense_content(t in arb_tensor()) {
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let mut back = read_tns(&buf[..]).unwrap();
        back.dedup_sum();
        // The reader infers dims from max indices; compare via dense on
        // the original dims (the read tensor's dims are <= original).
        let dense_a = DenseTensor::from_sparse(&t);
        for k in 0..back.nnz() {
            let coords: Vec<usize> =
                (0..back.ndim()).map(|d| back.mode_idx(d)[k] as usize).collect();
            prop_assert!((dense_a.get(&coords) - back.vals()[k]).abs() < 1e-9);
        }
        prop_assert_eq!(back.nnz(), t.nnz());
    }

    #[test]
    fn binary_round_trip_is_exact(t in arb_tensor()) {
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        prop_assert_eq!(back, t);
    }
}
