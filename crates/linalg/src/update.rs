//! Fused in-place mode updates for the CP sweep loop.
//!
//! A CP mode update turns the MTTKRP result `M` (`I_n x R`) and the
//! Hadamard-of-Grams system `H` (`R x R`) into the new factor `U`, its
//! column scales and its Gram `U^T U`. Chained from the general kernels
//! ([`Mat::matmul`], [`Mat::normalize_cols`], [`Mat::gram`]) that is about
//! seven passes over `I_n x R` data and a fresh factor-sized allocation per
//! mode. The kernels here perform the same floating-point operations, in
//! the same order, in at most two row passes that write the caller's factor
//! in place:
//!
//! * **ALS** — pass A ([`solve_into`]) writes `U = M P` row by row (`P` the
//!   pseudo- or ridge inverse of `H`) and accumulates the column norms;
//!   pass B ([`normalize_gram`]) scales by the inverse norms, checks
//!   finiteness and accumulates the Gram.
//! * **NCP** — one pass ([`ncp_into`]) applies `U .* M ./ (U H + eps)` to
//!   each row through an `R`-length temporary and accumulates the Gram.
//!
//! # Bitwise contract
//!
//! Results equal the chained kernels bit for bit, at every thread count:
//!
//! * a row of `M P` (or `U H`) is `Mat::matmul`'s zero-skipping axpys in
//!   `l` order;
//! * 2-norms are one sequential row-order sum, as in `col_norms`; max
//!   norms are order-free, so parallel workers combine theirs;
//! * the Gram keeps `Mat::gram`'s reduction shape: below
//!   `PAR_ROW_THRESHOLD` rows, or on one thread, one row-order sum; above
//!   it, `PAR_ROW_THRESHOLD`-row chunks folded per worker and reduced from
//!   zeros in worker order.

use crate::kernels::axpy;
use crate::mat::{Mat, PAR_ROW_THRESHOLD};
use rayon::prelude::*;

/// The column norm an ALS update moves into `lambda`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColNorm {
    /// Euclidean norm, as [`Mat::normalize_cols`] (the first iteration).
    Two,
    /// Largest absolute value, as [`Mat::normalize_cols_max`] (later
    /// iterations, so converged columns do not shrink again).
    Max,
}

/// Pass A of the ALS update: `u = m * p`, row by row, and `lambda` set to
/// the column `norm`s of the result. `u`'s previous contents are ignored;
/// `m` is only read, so a ridge re-solve can run this again with another
/// `p`.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn solve_into(m: &Mat, p: &Mat, norm: ColNorm, u: &mut Mat, lambda: &mut [f64]) {
    let r = u.ncols();
    assert!(
        m.nrows() == u.nrows()
            && m.ncols() == r
            && p.nrows() == r
            && p.ncols() == r
            && lambda.len() == r,
        "solve_into shape mismatch"
    );
    if r == 0 {
        return;
    }
    solve_rows(m.as_slice(), p.as_slice(), norm, u.as_mut_slice(), lambda);
    if norm == ColNorm::Two {
        lambda.iter_mut().for_each(|n| *n = n.sqrt());
    }
}

/// Pass B of the ALS update: scales column `j` of `u` by `1 / lambda[j]`
/// (by zero for a zero norm, as [`Mat::scale_cols_inv`]), writes the Gram
/// of the scaled factor into `gram`, and returns whether every scaled
/// entry is finite.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn normalize_gram(u: &mut Mat, lambda: &[f64], gram: &mut Mat) -> bool {
    let r = u.ncols();
    assert!(
        lambda.len() == r && gram.nrows() == r && gram.ncols() == r,
        "normalize_gram shape mismatch"
    );
    let inv: Vec<f64> = lambda.iter().map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 }).collect();
    r == 0 || normalize_rows(u.as_mut_slice(), &inv, gram.as_mut_slice())
}

/// The NCP multiplicative update in place: each row of `u` becomes
/// `u .* max(m, 0) ./ (u h + eps)`, `gram` the Gram of the result. Returns
/// whether every updated entry is finite.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn ncp_into(u: &mut Mat, m: &Mat, h: &Mat, eps: f64, gram: &mut Mat) -> bool {
    let r = u.ncols();
    assert!(
        m.nrows() == u.nrows()
            && m.ncols() == r
            && h.nrows() == r
            && h.ncols() == r
            && gram.nrows() == r
            && gram.ncols() == r,
        "ncp_into shape mismatch"
    );
    r == 0 || ncp_rows(u.as_mut_slice(), m.as_slice(), h.as_slice(), eps, r, gram.as_mut_slice())
}

/// Whether `rows` rows take the parallel path: the row threshold of the
/// general kernels, and more than one worker to give the chunks to.
fn parallel(rows: usize) -> bool {
    rows >= PAR_ROW_THRESHOLD && rayon::current_num_threads() > 1
}

/// Pass A over all rows (rank `lambda.len()`).
#[adatm::hot]
fn solve_rows(m: &[f64], p: &[f64], norm: ColNorm, u: &mut [f64], lambda: &mut [f64]) {
    let r = lambda.len();
    lambda.fill(0.0);
    // Max norms are order-free, so workers may combine theirs; a 2-norm is
    // a floating-point sum and stays one row-order pass (on the first
    // iteration only).
    if norm == ColNorm::Max && parallel(u.len() / r) {
        let chunk = PAR_ROW_THRESHOLD * r;
        let maxes = u
            .par_chunks_mut(chunk)
            .zip(m.par_chunks(chunk))
            .fold(
                || vec![0.0; r],
                |mut acc, (uc, mc)| {
                    solve_block(mc, p, norm, uc, &mut acc);
                    acc
                },
            )
            .reduce(
                || vec![0.0; r],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x = x.max(y);
                    }
                    a
                },
            );
        lambda.copy_from_slice(&maxes);
    } else {
        solve_block(m, p, norm, u, lambda);
    }
}

/// Pass A over one block of rows, folding the column norms into `norms`.
#[inline(always)]
fn solve_block(m: &[f64], p: &[f64], norm: ColNorm, u: &mut [f64], norms: &mut [f64]) {
    let r = norms.len();
    for (urow, mrow) in u.chunks_exact_mut(r).zip(m.chunks_exact(r)) {
        solve_row(mrow, p, urow);
        match norm {
            ColNorm::Two => {
                for (n, &x) in norms.iter_mut().zip(urow.iter()) {
                    *n += x * x;
                }
            }
            ColNorm::Max => {
                for (n, &x) in norms.iter_mut().zip(urow.iter()) {
                    *n = n.max(x.abs());
                }
            }
        }
    }
}

/// `out = row * p` for an `r x r` row-major `p`: `Mat::matmul`'s row
/// kernel, skipping zero entries of `row` and adding the rows of `p` in
/// order.
#[inline(always)]
fn solve_row(row: &[f64], p: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (&a, prow) in row.iter().zip(p.chunks_exact(out.len())) {
        if a != 0.0 {
            axpy(out, a, prow);
        }
    }
}

/// Pass B over all rows: scale by `inv`, check, accumulate the Gram.
#[adatm::hot]
fn normalize_rows(u: &mut [f64], inv: &[f64], gram: &mut [f64]) -> bool {
    let r = inv.len();
    gram_fold(u, r, gram, |_, rows, acc| {
        let mut finite = true;
        for row in rows.chunks_exact_mut(r) {
            for (x, &s) in row.iter_mut().zip(inv) {
                *x *= s;
            }
            finite &= gram_row(acc, row);
        }
        finite
    })
}

/// The NCP update over all rows (rank `r`), accumulating the Gram of the
/// result.
#[adatm::hot]
fn ncp_rows(u: &mut [f64], m: &[f64], h: &[f64], eps: f64, r: usize, gram: &mut [f64]) -> bool {
    gram_fold(u, r, gram, |row0, rows, acc| {
        // `u h` needs the whole old row, so the quotient goes through an
        // R-length temporary, one per block of rows.
        let mut tmp = vec![0.0; r];
        let mut finite = true;
        for (urow, mrow) in rows.chunks_exact_mut(r).zip(m.chunks_exact(r).skip(row0)) {
            solve_row(urow, h, &mut tmp);
            ncp_quotient(urow, mrow, &tmp, eps);
            finite &= gram_row(acc, urow);
        }
        finite
    })
}

/// `u = u * (max(m, 0) / (uh + eps))`, elementwise, in the association the
/// unfused update used.
#[inline(always)]
fn ncp_quotient(u: &mut [f64], m: &[f64], uh: &[f64], eps: f64) {
    for ((x, &mv), &o) in u.iter_mut().zip(m).zip(uh) {
        *x *= mv.max(0.0) / (o + eps);
    }
}

/// Runs `block(first_row, rows, acc)` over the rows of `u` (row length
/// `r`) and leaves the summed Gram accumulators in `gram`, with
/// `Mat::gram`'s reduction shape; `block` accumulates each row it writes
/// into `acc` and reports whether all of them are finite.
fn gram_fold<F>(u: &mut [f64], r: usize, gram: &mut [f64], block: F) -> bool
where
    F: Fn(usize, &mut [f64], &mut [f64]) -> bool + Sync,
{
    gram.fill(0.0);
    if !parallel(u.len() / r) {
        // One row-order sum. `Mat::gram` adds it to zeros once more on its
        // reduction path, which changes no bit: a sum started from +0.0
        // never becomes -0.0.
        return block(0, u, gram);
    }
    let (acc, finite) = u
        .par_chunks_mut(PAR_ROW_THRESHOLD * r)
        .enumerate()
        .fold(
            || (vec![0.0; r * r], true),
            |(mut acc, ok), (c, rows)| {
                let finite = block(c * PAR_ROW_THRESHOLD, rows, &mut acc);
                (acc, ok & finite)
            },
        )
        .reduce(
            || (vec![0.0; r * r], true),
            |(mut a, oa), (b, ob)| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                (a, oa & ob)
            },
        );
    gram.copy_from_slice(&acc);
    finite
}

/// `acc += row^T row` (the `Mat::gram` row step: one axpy of `row` per
/// entry, in order), returning whether `row` is finite.
#[inline(always)]
fn gram_row(acc: &mut [f64], row: &[f64]) -> bool {
    for (&a, out) in row.iter().zip(acc.chunks_exact_mut(row.len())) {
        axpy(out, a, row);
    }
    row.iter().fold(true, |ok, x| ok & x.is_finite())
}
