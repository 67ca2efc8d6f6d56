//! Property-based tests of the dense kernels on random matrices.

use adatm_linalg::{jacobi_eigh, pinv_sym, thin_qr, Mat, PINV_RCOND};
use proptest::prelude::*;

/// Strategy: a random matrix with bounded shape and entries.
fn arb_mat(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Mat> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f64..10.0, m * n)
            .prop_map(move |data| Mat::from_vec(m, n, data))
    })
}

/// Strategy: a random symmetric PSD matrix (`A^T A` form).
fn arb_psd(max_n: usize) -> impl Strategy<Value = Mat> {
    arb_mat(2 * max_n, max_n).prop_map(|a| a.gram())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gram_is_symmetric_psd(a in arb_mat(12, 6)) {
        let g = a.gram();
        prop_assert!(g.max_abs_diff(&g.transpose()) < 1e-10);
        let e = jacobi_eigh(&g);
        let scale = g.fro_norm().max(1.0);
        for &w in &e.values {
            prop_assert!(w > -1e-10 * scale, "negative eigenvalue {w}");
        }
    }

    #[test]
    fn matmul_is_associative(
        adata in proptest::collection::vec(-3.0f64..3.0, 5 * 4),
        bdata in proptest::collection::vec(-3.0f64..3.0, 4 * 3),
        cdata in proptest::collection::vec(-3.0f64..3.0, 3 * 6),
    ) {
        let a = Mat::from_vec(5, 4, adata);
        let b = Mat::from_vec(4, 3, bdata);
        let c = Mat::from_vec(3, 6, cdata);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_reverses_matmul(
        adata in proptest::collection::vec(-3.0f64..3.0, 5 * 4),
        bdata in proptest::collection::vec(-3.0f64..3.0, 4 * 3),
    ) {
        let a = Mat::from_vec(5, 4, adata);
        let b = Mat::from_vec(4, 3, bdata);
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-10);
    }

    #[test]
    fn eigh_reconstructs(a in arb_psd(6)) {
        let e = jacobi_eigh(&a);
        let n = a.nrows();
        let mut d = Mat::zeros(n, n);
        for (i, &w) in e.values.iter().enumerate() {
            d.set(i, i, w);
        }
        let back = e.vectors.matmul(&d).matmul(&e.vectors.transpose());
        let tol = 1e-8 * a.fro_norm().max(1.0);
        prop_assert!(back.max_abs_diff(&a) < tol);
    }

    #[test]
    fn pinv_penrose_conditions(h in arb_psd(5)) {
        let p = pinv_sym(&h, PINV_RCOND);
        let tol = 1e-6 * h.fro_norm().max(1.0);
        prop_assert!(h.matmul(&p).matmul(&h).max_abs_diff(&h) < tol);
        let ptol = 1e-6 * p.fro_norm().max(1.0);
        prop_assert!(p.matmul(&h).matmul(&p).max_abs_diff(&p) < ptol);
    }

    #[test]
    fn qr_reconstruction_and_orthogonality(a in arb_mat(15, 5)) {
        let qr = thin_qr(&a);
        let back = qr.q.matmul(&qr.r);
        let tol = 1e-8 * a.fro_norm().max(1.0);
        prop_assert!(back.max_abs_diff(&a) < tol);
        // Q^T Q is the identity restricted to non-deficient columns.
        let qtq = qr.q.gram();
        for i in 0..qtq.nrows() {
            for j in 0..qtq.ncols() {
                let want = if i == j {
                    let d = qtq.get(i, i);
                    prop_assert!(d.abs() < 1e-8 || (d - 1.0).abs() < 1e-8);
                    continue;
                } else {
                    0.0
                };
                prop_assert!((qtq.get(i, j) - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn normalize_then_rescale_round_trips(a in arb_mat(10, 4)) {
        let mut b = a.clone();
        let scales = b.normalize_cols();
        // Rescale back.
        for i in 0..b.nrows() {
            for (j, &s) in scales.iter().enumerate() {
                let v = b.get(i, j) * s;
                b.set(i, j, v);
            }
        }
        prop_assert!(b.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn col_norms_match_gram_diagonal(a in arb_mat(10, 5)) {
        let g = a.gram();
        for (j, n) in a.col_norms().into_iter().enumerate() {
            prop_assert!((n * n - g.get(j, j)).abs() < 1e-8);
        }
    }
}

/// The ranks the blocked kernels must match a plain scalar loop on,
/// bitwise: 1/3/5/7 are pure-remainder, 17 is one 16-block plus a tail,
/// 33 is two 16-blocks plus a tail.
const PARITY_RANKS: [usize; 6] = [1, 3, 5, 7, 17, 33];

/// Strategy: four equal-length random vectors plus a scalar, at one of
/// the parity ranks.
fn arb_kernel_input() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, f64)> {
    (0usize..PARITY_RANKS.len()).prop_flat_map(|i| {
        let len = PARITY_RANKS[i];
        let v = || proptest::collection::vec(-8.0f64..8.0, len);
        (v(), v(), v(), v(), -4.0f64..4.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every blocked kernel is bitwise identical to the naive scalar
    /// loop it replaces — the blocking is a pure traversal-order
    /// rewrite, elementwise, with multiplications kept left-to-right.
    #[test]
    fn blocked_kernels_match_scalar_loops_bitwise(input in arb_kernel_input()) {
        use adatm_linalg::kernels;
        let (acc0, a, b, c, alpha) = input;
        let n = acc0.len();
        let check = |got: &[f64], want: &[f64], name: &str| {
            for i in 0..n {
                prop_assert!(
                    got[i].to_bits() == want[i].to_bits(),
                    "{name}[{i}]: {} vs {}", got[i], want[i]
                );
            }
            Ok(())
        };
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] * a[i]).collect();
        kernels::mul_assign(&mut g, &a);
        check(&g, &w, "mul_assign")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] + a[i]).collect();
        kernels::add_assign(&mut g, &a);
        check(&g, &w, "add_assign")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] + alpha * a[i]).collect();
        kernels::axpy(&mut g, alpha, &a);
        check(&g, &w, "axpy")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| alpha * a[i]).collect();
        kernels::scale(&mut g, alpha, &a);
        check(&g, &w, "scale")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] + a[i] * b[i]).collect();
        kernels::muladd_assign(&mut g, &a, &b);
        check(&g, &w, "muladd_assign")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] + alpha * a[i] * b[i]).collect();
        kernels::axpy2(&mut g, alpha, &a, &b);
        check(&g, &w, "axpy2")?;
        let mut g = acc0.clone();
        let w: Vec<f64> = (0..n).map(|i| acc0[i] + alpha * a[i] * b[i] * c[i]).collect();
        kernels::axpy3(&mut g, alpha, &a, &b, &c);
        check(&g, &w, "axpy3")?;
    }

    /// The remainder path touches only the tail: a kernel applied to a
    /// length-17 slice leaves bits of the first 16 lanes exactly equal
    /// to the same kernel applied to the 16-prefix alone.
    #[test]
    fn remainder_never_perturbs_block_lanes(input in arb_kernel_input()) {
        use adatm_linalg::kernels;
        let (acc0, a, _b, _c, alpha) = input;
        let n = acc0.len();
        let blocked = n - n % 4;
        let mut full = acc0.clone();
        kernels::axpy(&mut full, alpha, &a);
        let mut prefix = acc0[..blocked].to_vec();
        kernels::axpy(&mut prefix, alpha, &a[..blocked]);
        for i in 0..blocked {
            prop_assert!(full[i].to_bits() == prefix[i].to_bits());
        }
    }
}

/// Ranks for the fused-update parity tests: the block widths of the
/// `axpy` the row kernels run (4, 8, 16) and ranks with a tail on either
/// side of them.
const UPDATE_RANKS: [usize; 7] = [1, 3, 4, 8, 16, 17, 33];

/// Row counts straddling the 4096-row threshold of the parallel dense
/// kernels; 9000 rows make three Gram chunks, so two workers fold
/// unequal shares.
const UPDATE_ROWS: [usize; 6] = [1, 7, 4095, 4096, 4097, 9000];

/// A deterministic `rows x cols` matrix of mixed signs and magnitudes
/// with exact zeros: every seventh row and every fifth entry.
fn det_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let data = (0..rows * cols)
        .map(|k| {
            if (k / cols.max(1)) % 7 == 3 || k % 5 == 2 {
                return 0.0;
            }
            let x = (k as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((x >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 2.5
        })
        .collect();
    Mat::from_vec(rows, cols, data)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` once on a one-thread and once on a two-thread pool.
fn at_1_and_2_threads(f: impl Fn(usize)) {
    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| f(threads));
    }
}

/// The fused ALS update equals `matmul` + `normalize_cols` (first
/// iteration) or `normalize_cols_max` (later ones) + `gram`, bit for bit
/// in the factor, `lambda` and the Gram — at one and two threads, where
/// the Gram reduction changes shape above 4096 rows.
#[test]
fn fused_als_update_matches_chained_kernels_bitwise() {
    use adatm_linalg::update::{normalize_gram, solve_into, ColNorm};
    at_1_and_2_threads(|threads| {
        for r in UPDATE_RANKS {
            // An arbitrary operator with a zero last column (from rank 3
            // on), so one column of U has norm 0 and is scaled by zero.
            let mut p = det_mat(r, r, 11 + r as u64);
            if r >= 3 {
                for l in 0..r {
                    p.set(l, r - 1, 0.0);
                }
            }
            for rows in UPDATE_ROWS {
                let m = det_mat(rows, r, rows as u64);
                for norm in [ColNorm::Two, ColNorm::Max] {
                    let mut want = m.matmul(&p);
                    let want_lambda = match norm {
                        ColNorm::Two => want.normalize_cols(),
                        ColNorm::Max => want.normalize_cols_max(),
                    };
                    let want_gram = want.gram();
                    // Stale contents everywhere: the kernels overwrite.
                    let mut u = Mat::random(rows, r, 5);
                    let mut lambda = vec![7.0; r];
                    let mut gram = Mat::random(r, r, 6);
                    solve_into(&m, &p, norm, &mut u, &mut lambda);
                    let finite = normalize_gram(&mut u, &lambda, &mut gram);
                    let at = format!("{threads} threads, rank {r}, {rows} rows, {norm:?}");
                    assert!(finite, "{at}");
                    assert_eq!(bits(u.as_slice()), bits(want.as_slice()), "factor, {at}");
                    assert_eq!(bits(&lambda), bits(&want_lambda), "lambda, {at}");
                    assert_eq!(bits(gram.as_slice()), bits(want_gram.as_slice()), "gram, {at}");
                }
            }
        }
    });
}

/// The NCP update as the chained kernels compute it:
/// `U .* M ./ (U H + eps)` through `matmul`.
fn ncp_update_ref(u: &Mat, m: &Mat, h: &Mat, eps: f64) -> Mat {
    let mut out = u.matmul(h);
    for ((o, &x), &mv) in out.as_mut_slice().iter_mut().zip(u.as_slice()).zip(m.as_slice()) {
        *o = x * (mv.max(0.0) / (*o + eps));
    }
    out
}

/// The in-place NCP update equals the chained update + `gram`, bit for
/// bit, at one and two threads.
#[test]
fn fused_ncp_update_matches_chained_kernels_bitwise() {
    use adatm_linalg::update::ncp_into;
    let eps = 1e-12;
    at_1_and_2_threads(|threads| {
        for r in UPDATE_RANKS {
            let h = det_mat(2 * r, r, 3).gram();
            for rows in UPDATE_ROWS {
                let mut u0 = det_mat(rows, r, 17 + rows as u64);
                u0.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                let m = det_mat(rows, r, 29 + rows as u64);
                let want = ncp_update_ref(&u0, &m, &h, eps);
                let want_gram = want.gram();
                let mut u = u0.clone();
                let mut gram = Mat::random(r, r, 6);
                let finite = ncp_into(&mut u, &m, &h, eps, &mut gram, &mut vec![0.0; r]);
                let at = format!("{threads} threads, rank {r}, {rows} rows");
                assert!(finite, "{at}");
                assert_eq!(bits(u.as_slice()), bits(want.as_slice()), "factor, {at}");
                assert_eq!(bits(gram.as_slice()), bits(want_gram.as_slice()), "gram, {at}");
            }
        }
    });
}

/// The finiteness flag of both updates is exactly `is_finite()` of the
/// chained result, including for a NaN that the max norm skips and the
/// zero scale cannot clear.
#[test]
fn fused_updates_report_non_finite_entries() {
    use adatm_linalg::update::{ncp_into, normalize_gram, solve_into, ColNorm};
    at_1_and_2_threads(|threads| {
        for rows in [7, 4097] {
            for (i, j, v) in [(0, 0, f64::NAN), (rows - 1, 2, f64::INFINITY), (3, 1, 1e300)] {
                let r = 4;
                let mut m = det_mat(rows, r, 1);
                m.set(i, j, v);
                let p = det_mat(r, r, 2);
                for norm in [ColNorm::Two, ColNorm::Max] {
                    let mut want = m.matmul(&p);
                    match norm {
                        ColNorm::Two => want.normalize_cols(),
                        ColNorm::Max => want.normalize_cols_max(),
                    };
                    let mut u = Mat::zeros(rows, r);
                    let mut lambda = vec![0.0; r];
                    let mut gram = Mat::zeros(r, r);
                    solve_into(&m, &p, norm, &mut u, &mut lambda);
                    let finite = normalize_gram(&mut u, &lambda, &mut gram);
                    assert_eq!(finite, want.is_finite(), "{threads} threads, {rows} rows, {v}");
                }
                let h = det_mat(2 * r, r, 3).gram();
                let mut u = det_mat(rows, r, 4);
                u.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                let want = ncp_update_ref(&u, &m, &h, 1e-12);
                let mut gram = Mat::zeros(r, r);
                let finite = ncp_into(&mut u, &m, &h, 1e-12, &mut gram, &mut vec![0.0; r]);
                assert_eq!(finite, want.is_finite(), "ncp, {threads} threads, {rows} rows, {v}");
            }
        }
    });
}

/// The ranks of the zero-row parity tests: pure edge tiles (1, 3), one
/// tile plus an edge (5, 7), whole tiles and register blocks (16), and a
/// 16-column block plus a tail (17, 33).
const ZERO_ROW_RANKS: [usize; 7] = [1, 3, 5, 7, 16, 17, 33];

/// Row counts for them: inside one 64-row tile block, just past it, and
/// across the 4096-row chunks of the parallel reduction.
const ZERO_ROW_ROWS: [usize; 6] = [1, 7, 64, 65, 4097, 9000];

/// `det_mat` with long runs of all-zero rows: rows `50..100` of every
/// 150, the rows around the 4096-row chunk boundary, and all of a
/// one-row matrix's only row when `seed` is odd.
fn zero_row_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut a = det_mat(rows, cols, seed);
    for i in 0..rows {
        if (i % 150 >= 50 && i % 150 < 100)
            || (4090..4100).contains(&i)
            || rows == seed as usize % 2
        {
            a.row_mut(i).fill(0.0);
        }
    }
    a
}

/// The Gram as the row-at-a-time kernel summed it: `acc[i][j] += row[i] *
/// row[j]` for every row in order, over the whole square; above 4096 rows
/// on two threads, 4096-row chunks folded per worker (one contiguous run
/// of chunks each, as the thread runtime splits them) and the worker sums
/// added to zeros in order.
fn gram_reference(a: &Mat, threads: usize) -> Mat {
    let r = a.ncols();
    let row_order = |rows: &[f64]| {
        let mut acc = vec![0.0; r * r];
        for row in rows.chunks_exact(r) {
            for i in 0..r {
                for j in 0..r {
                    acc[i * r + j] += row[i] * row[j];
                }
            }
        }
        acc
    };
    if a.nrows() < 4096 || threads == 1 {
        return Mat::from_vec(r, r, row_order(a.as_slice()));
    }
    let chunks = a.nrows().div_ceil(4096);
    let workers = threads.min(chunks);
    let per = chunks.div_ceil(workers) * 4096 * r;
    let mut total = vec![0.0; r * r];
    for part in a.as_slice().chunks(per) {
        for (t, p) in total.iter_mut().zip(row_order(part)) {
            *t += p;
        }
    }
    Mat::from_vec(r, r, total)
}

/// Bit equality that lets any NaN match any NaN.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// `Mat::gram` — register tiles over the upper triangle, zero rows
/// skipped, mirrored — equals the row-at-a-time sum bit for bit.
#[test]
fn gram_matches_the_row_order_reference_bitwise() {
    at_1_and_2_threads(|threads| {
        for r in ZERO_ROW_RANKS {
            for rows in ZERO_ROW_ROWS {
                for seed in [1, 2] {
                    let a = zero_row_mat(rows, r, seed);
                    let want = gram_reference(&a, threads);
                    let got = a.gram();
                    let at = format!("{threads} threads, rank {r}, {rows} rows, seed {seed}");
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{at}");
                }
            }
        }
    });
}

/// Puts the non-finite or huge entries of the parity cases into `m`.
fn poison(m: &mut Mat, case: usize) {
    let (rows, r) = (m.nrows(), m.ncols());
    let entries = match case {
        1 => [(0, 0, 1e300), (rows / 2, r - 1, -1e300)],
        2 => [(rows - 1, r / 2, f64::NAN), (0, 0, 1.0)],
        3 => [(rows / 3, 0, f64::INFINITY), (rows - 1, r - 1, f64::NEG_INFINITY)],
        _ => return,
    };
    for (i, j, v) in entries {
        m.set(i, j, v);
    }
}

/// Both fused updates with all-zero rows in `M` and in `U`, and with
/// `M` holding 1e300, NaN or infinities, against the row-at-a-time
/// kernels and Gram. ALS leaves a zero row unscaled, so where its flag
/// reports a non-finite factor only the rows with a nonzero entry must
/// agree; a finite result agrees everywhere.
#[test]
fn fused_updates_skip_zero_rows_without_changing_a_bit() {
    use adatm_linalg::update::{ncp_into, normalize_gram, solve_into, ColNorm};
    let eps = 1e-12;
    at_1_and_2_threads(|threads| {
        for r in ZERO_ROW_RANKS {
            let p = det_mat(r, r, 11 + r as u64);
            let h = det_mat(2 * r, r, 3).gram();
            for rows in ZERO_ROW_ROWS {
                // The poisoned cases need one chunk boundary, not two.
                let cases = if rows > 2 * 4096 { 0..1 } else { 0..4 };
                for case in cases {
                    let mut m = zero_row_mat(rows, r, rows as u64);
                    poison(&mut m, case);
                    let at = format!("{threads} threads, rank {r}, {rows} rows, case {case}");
                    for norm in [ColNorm::Two, ColNorm::Max] {
                        let unscaled = m.matmul(&p);
                        let mut want = unscaled.clone();
                        let want_lambda = match norm {
                            ColNorm::Two => want.normalize_cols(),
                            ColNorm::Max => want.normalize_cols_max(),
                        };
                        let mut u = Mat::random(rows, r, 5);
                        let mut lambda = vec![7.0; r];
                        let mut gram = Mat::random(r, r, 6);
                        solve_into(&m, &p, norm, &mut u, &mut lambda);
                        let finite = normalize_gram(&mut u, &lambda, &mut gram);
                        assert_eq!(finite, want.is_finite(), "als flag, {at}, {norm:?}");
                        assert!(same_bits(&lambda, &want_lambda), "lambda, {at}, {norm:?}");
                        for i in 0..rows {
                            if finite || unscaled.row(i).iter().any(|&x| x != 0.0) {
                                assert!(
                                    same_bits(u.row(i), want.row(i)),
                                    "row {i}, {at}, {norm:?}"
                                );
                            }
                        }
                        if finite {
                            let want_gram = gram_reference(&want, threads);
                            assert_eq!(bits(gram.as_slice()), bits(want_gram.as_slice()), "{at}");
                        }
                    }
                    let mut u0 = zero_row_mat(rows, r, 17 + rows as u64);
                    u0.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                    for i in (0..rows).step_by(5) {
                        u0.row_mut(i).fill(0.0);
                    }
                    let want = ncp_update_ref(&u0, &m, &h, eps);
                    let want_gram = gram_reference(&want, threads);
                    let mut u = u0.clone();
                    let mut gram = Mat::random(r, r, 6);
                    let finite = ncp_into(&mut u, &m, &h, eps, &mut gram, &mut vec![9.0; r]);
                    assert_eq!(finite, want.is_finite(), "ncp flag, {at}");
                    assert!(same_bits(u.as_slice(), want.as_slice()), "ncp factor, {at}");
                    assert!(same_bits(gram.as_slice(), want_gram.as_slice()), "ncp gram, {at}");
                }
            }
        }
    });
}

/// The support-row forms of both updates against the every-row forms: a
/// support holding every row whose `M` row is nonzero plus some zero-by-
/// value rows, an output buffer that holds `+0.0` outside the support and
/// garbage inside it, and (NCP) an old factor that holds `+0.0` outside
/// the support. Factors, flags, `lambda` and Grams agree bit for bit at one and two
/// threads, across the parallel chunk boundary, with `M` holding 1e300,
/// NaN or infinities.
#[test]
fn support_row_updates_match_every_row_updates_bitwise() {
    use adatm_linalg::update::{
        ncp_into, ncp_rows_into, normalize_gram, normalize_gram_rows, solve_into, solve_rows_into,
        ColNorm,
    };
    use adatm_linalg::RowSet;
    let eps = 1e-12;
    // Garbage inside `support`, `+0.0` outside it.
    let settled = |rows: usize, r: usize, support: &RowSet, seed: u64| {
        let mut u = Mat::random(rows, r, seed);
        for i in (0..rows).filter(|&i| !support.contains(i)) {
            u.row_mut(i).fill(0.0);
        }
        u
    };
    at_1_and_2_threads(|threads| {
        for r in [1, 5, 16, 17] {
            let p = det_mat(r, r, 11 + r as u64);
            let h = det_mat(2 * r, r, 3).gram();
            for rows in ZERO_ROW_ROWS {
                for case in 0..4 {
                    let mut m = zero_row_mat(rows, r, rows as u64);
                    poison(&mut m, case);
                    let live =
                        |i: usize| m.row(i).iter().any(|&x| x != 0.0) || i.is_multiple_of(11);
                    let support = RowSet::from_indices(rows, (0..rows).filter(|&i| live(i)));
                    let at = format!("{threads} threads, rank {r}, {rows} rows, case {case}");
                    for norm in [ColNorm::Two, ColNorm::Max] {
                        let (mut u1, mut l1, mut g1) =
                            (Mat::random(rows, r, 5), vec![0.0; r], h.clone());
                        solve_into(&m, &p, norm, &mut u1, &mut l1);
                        let f1 = normalize_gram(&mut u1, &l1, &mut g1);
                        let mut u2 = settled(rows, r, &support, 8);
                        let (mut l2, mut g2) = (vec![7.0; r], p.clone());
                        solve_rows_into(&m, &p, norm, &mut u2, &mut l2, Some(&support));
                        let f2 = normalize_gram_rows(&mut u2, &l2, &mut g2, Some(&support));
                        assert_eq!(f1, f2, "als flag, {at}, {norm:?}");
                        assert!(same_bits(&l1, &l2), "lambda, {at}, {norm:?}");
                        if f1 {
                            assert!(same_bits(u1.as_slice(), u2.as_slice()), "als, {at}, {norm:?}");
                            assert!(
                                same_bits(g1.as_slice(), g2.as_slice()),
                                "gram, {at}, {norm:?}"
                            );
                        }
                    }
                    let mut u0 = settled(rows, r, &support, 17 + rows as u64);
                    u0.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                    let (mut want, mut g1) = (u0.clone(), p.clone());
                    let f1 = ncp_into(&mut want, &m, &h, eps, &mut g1, &mut vec![9.0; r]);
                    for rows_of in [None, Some(&support)] {
                        let (mut u, mut g2, mut uh) = (u0.clone(), h.clone(), vec![3.0; r]);
                        let f2 = ncp_rows_into(&mut u, &m, &h, eps, &mut g2, &mut uh, rows_of);
                        let at = format!("{at}, support {}", rows_of.is_some());
                        assert_eq!(f1, f2, "ncp flag, {at}");
                        assert!(same_bits(u.as_slice(), want.as_slice()), "ncp factor, {at}");
                        assert!(same_bits(g1.as_slice(), g2.as_slice()), "ncp gram, {at}");
                    }
                }
            }
        }
    });
}
