//! Fused in-place mode updates for the CP sweep loop, and the Gram
//! accumulator every Gram in this crate goes through.
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
//!   each row through the caller's `R`-length work row and accumulates the
//!   Gram.
//!
//! Neither allocates on one thread.
//!
//! # Saved rows
//!
//! The `_rows_into` forms of pass A and of the NCP update take an optional
//! copy of the factor's shape. Each row they are about to overwrite is first
//! stored into the same row of the copy, by the pass that already holds it
//! in cache, and the copy's other rows are left as they are. A caller that
//! keeps the factors of an earlier iterate this way never copies a factor
//! in a separate pass. Saving changes no bit of what the update writes.
//!
//! # Support rows
//!
//! Each kernel takes the rows it visits: `None` for every row, or the
//! mode's support (the rows that hold a tensor nonzero, see
//! [`crate::rows`]). Outside the support `M` is exactly `+0.0`, so one
//! update leaves each such row of `U` at a fixed point of the rule — ALS
//! writes `+0.0` for a zero row of `M`, NCP gives `u * 0 / (u h + eps)`,
//! a zero with the sign of `u` — and a sum that starts at `+0.0` is not
//! changed by its `±0.0` products. A caller may pass the support once the
//! factor's rows outside it hold that fixed point (the factor is
//! *settled*); the first update of any other factor (initial, reseeded or
//! restored) visits every row.
//! Parallel chunks stay defined by row index, rows outside the support
//! included, so the reduction shape below does not change.
//!
//! # Register tiles
//!
//! The factors are often taller than the tensor has nonzeros, so these
//! row passes cost as much as the MTTKRP. Their inner loops keep their
//! sums in registers:
//!
//! * a row of `M P` (or `U H`) is built in blocks of up to 16 columns,
//!   each held in registers across the whole `l` loop and stored once;
//! * the Gram adds only its upper triangle, in `4 x 4` register tiles
//!   swept over blocks of up to 64 nonzero rows, and then mirrors it.
//!   `x * y == y * x` in IEEE arithmetic, so the mirrored lower triangle
//!   is what adding it would have given. Ranks that are not a multiple of
//!   the tile side finish in narrower edge tiles.
//!
//! # Zero rows
//!
//! All-zero rows (the empty slices of a mode) are skipped wherever that
//! provably changes no bit:
//!
//! * a Gram sum starts at `+0.0` and never becomes `-0.0`, so adding the
//!   `±0.0` products of a zero row leaves it unchanged: every Gram skips
//!   zero rows;
//! * ALS pass A: a zero row of `M` gives a `+0.0` row of `U` and moves no
//!   norm;
//! * ALS pass B: a zero row of `U` is left out of the scaling. Scaling it
//!   could only change it through a non-finite inverse scale, and a column
//!   with one also holds a nonzero entry that the scaling makes
//!   non-finite, so the finiteness flag is the same;
//! * NCP computes every row, since `0 * (m / (0 + eps))` is NaN when
//!   `m / eps` overflows; only rows that come out zero skip the Gram.
//!
//! # Bitwise contract
//!
//! Results equal the chained kernels of the row-at-a-time code bit for bit,
//! at every thread count:
//!
//! * a row of `M P` (or `U H`) is `Mat::matmul`'s zero-skipping axpys in
//!   `l` order;
//! * 2-norms are one sequential row-order sum, as in `col_norms`; max
//!   norms are order-free, so parallel workers combine theirs;
//! * every Gram entry is a row-order sum of `row[i] * row[j]`, with one
//!   reduction shape: below `PAR_ROW_THRESHOLD` rows, or on one thread,
//!   one row-order sum; above it, `PAR_ROW_THRESHOLD`-row chunks (defined
//!   by row index, zero rows included) folded per worker and reduced from
//!   zeros in worker order.

use crate::mat::{Mat, PAR_ROW_THRESHOLD};
use crate::rows::{for_runs, RowIter, RowSet};
use rayon::prelude::*;

/// Widest block of output columns a row kernel holds in registers.
const LANES: usize = 16;

/// Side of a Gram register tile.
const TILE: usize = 4;

/// Nonzero rows a Gram tile sweeps between a load and a store of its
/// sums.
const BLOCK: usize = 64;

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
pub fn solve_into(m: &Mat, p: &Mat, norm: ColNorm, u: &mut Mat, lambda: &mut [f64]) {
    solve_rows_into(m, p, norm, u, lambda, None, None);
}

/// [`solve_into`] over `rows` only (`None`: every row); `u` is left as it
/// is elsewhere. With `save`, each row of `u` it overwrites is first copied
/// into the same row of `save` (see the module docs).
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn solve_rows_into(
    m: &Mat,
    p: &Mat,
    norm: ColNorm,
    u: &mut Mat,
    lambda: &mut [f64],
    rows: Option<&RowSet>,
    save: Option<&mut Mat>,
) {
    let r = u.ncols();
    assert!(
        m.nrows() == u.nrows()
            && m.ncols() == r
            && p.nrows() == r
            && p.ncols() == r
            && lambda.len() == r
            && rows.is_none_or(|s| s.len() == u.nrows())
            && save.as_ref().is_none_or(|s| (s.nrows(), s.ncols()) == (u.nrows(), r)),
        "solve_rows_into shape mismatch"
    );
    if r == 0 {
        return;
    }
    let save = save.map(Mat::as_mut_slice);
    solve_rows(m.as_slice(), p.as_slice(), norm, u.as_mut_slice(), lambda, rows, save);
    if norm == ColNorm::Two {
        lambda.iter_mut().for_each(|n| *n = n.sqrt());
    }
}

/// Pass B of the ALS update: scales column `j` of `u` by `1 / lambda[j]`
/// (by zero for a zero norm, as [`Mat::scale_cols_inv`]), writes the Gram
/// of the scaled factor into `gram`, and returns whether every scaled
/// entry is finite. `lambda` holds the norms [`solve_into`] left (not
/// negative); all-zero rows of `u` are left as they are.
///
/// # Panics
/// Panics on a shape mismatch.
pub fn normalize_gram(u: &mut Mat, lambda: &[f64], gram: &mut Mat) -> bool {
    normalize_gram_rows(u, lambda, gram, None)
}

/// [`normalize_gram`] over `rows` only (`None`: every row); the rows of
/// `u` outside `rows` must be zero.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn normalize_gram_rows(
    u: &mut Mat,
    lambda: &[f64],
    gram: &mut Mat,
    rows: Option<&RowSet>,
) -> bool {
    let r = u.ncols();
    assert!(
        lambda.len() == r
            && gram.nrows() == r
            && gram.ncols() == r
            && rows.is_none_or(|s| s.len() == u.nrows()),
        "normalize_gram shape mismatch"
    );
    r == 0 || normalize_rows(u.as_mut_slice(), lambda, gram.as_mut_slice(), rows)
}

/// The NCP multiplicative update in place: each row of `u` becomes
/// `u .* max(m, 0) ./ (u h + eps)`, `gram` the Gram of the result. `uh`
/// is an `R`-length work row for `u h`; its contents are overwritten.
/// Returns whether every updated entry is finite.
///
/// # Panics
/// Panics on a shape mismatch.
pub fn ncp_into(u: &mut Mat, m: &Mat, h: &Mat, eps: f64, gram: &mut Mat, uh: &mut [f64]) -> bool {
    ncp_rows_into(u, m, h, eps, gram, uh, None, None)
}

/// [`ncp_into`] over `rows` only (`None`: every row). `gram` becomes the
/// Gram of all of `u`, whose rows outside `rows` must already be zero
/// (see the module docs). With `save`, each row of `u` it overwrites is
/// first copied into the same row of `save`.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
pub fn ncp_rows_into(
    u: &mut Mat,
    m: &Mat,
    h: &Mat,
    eps: f64,
    gram: &mut Mat,
    uh: &mut [f64],
    rows: Option<&RowSet>,
    save: Option<&mut Mat>,
) -> bool {
    let r = u.ncols();
    assert!(
        m.nrows() == u.nrows()
            && m.ncols() == r
            && h.nrows() == r
            && h.ncols() == r
            && gram.nrows() == r
            && gram.ncols() == r
            && uh.len() == r
            && rows.is_none_or(|s| s.len() == u.nrows())
            && save.as_ref().is_none_or(|s| (s.nrows(), s.ncols()) == (u.nrows(), r)),
        "ncp_rows_into shape mismatch"
    );
    let (u, gram) = (u.as_mut_slice(), gram.as_mut_slice());
    let save = save.map(Mat::as_mut_slice);
    r == 0 || ncp_rows(u, m.as_slice(), h.as_slice(), eps, gram, uh, rows, save)
}

/// Whether every entry of `m` in `rows` (`None`: every row) is finite.
pub fn rows_finite(m: &Mat, rows: Option<&RowSet>) -> bool {
    let (r, data) = (m.ncols(), m.as_slice());
    let mut finite = true;
    for_runs(rows, 0, m.nrows(), |s, e| {
        // No early exit, so the scan vectorizes.
        finite &= data[s * r..e * r].iter().fold(true, |ok, x| ok & x.is_finite());
    });
    finite
}

/// [`Mat::col_dots`] over `rows` only: `out[j]` sums `m[i][j] * u[i][j]`
/// in row order from `-0.0`. Where `m` is `+0.0` outside `rows` and `u`
/// is finite, each skipped product is a zero, so a nonzero result is
/// bitwise [`Mat::col_dots`]'s and a zero one differs at most in its sign.
///
/// # Panics
/// Panics on a shape mismatch.
pub fn col_dots_rows(m: &Mat, u: &Mat, out: &mut [f64], rows: Option<&RowSet>) {
    assert!(
        (m.nrows(), m.ncols()) == (u.nrows(), u.ncols()) && out.len() == m.ncols(),
        "col_dots_rows shape mismatch"
    );
    out.fill(-0.0);
    let r = m.ncols().max(1);
    let (a, b) = (m.as_slice(), u.as_slice());
    for_runs(rows, 0, m.nrows(), |s, e| {
        for (x, y) in a[s * r..e * r].chunks_exact(r).zip(b[s * r..e * r].chunks_exact(r)) {
            crate::kernels::muladd_assign(out, x, y);
        }
    });
}

/// Whether `rows` rows take the parallel path: the row threshold of the
/// general kernels, and more than one worker to give the chunks to.
fn parallel(rows: usize) -> bool {
    rows >= PAR_ROW_THRESHOLD && rayon::current_num_threads() > 1
}

/// `save` cut into the `chunk`-long pieces `par_chunks_mut(chunk)` cuts a
/// factor of its length into, or `n` `None`s when nothing is saved.
fn save_chunks(save: Option<&mut [f64]>, chunk: usize, n: usize) -> Vec<Option<&mut [f64]>> {
    match save {
        Some(s) => s.chunks_mut(chunk).map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    }
}

/// Pass A over `rows` (rank `lambda.len()`), saving the rows it overwrites
/// into `save`.
#[adatm::hot]
fn solve_rows(
    m: &[f64],
    p: &[f64],
    norm: ColNorm,
    u: &mut [f64],
    lambda: &mut [f64],
    rows: Option<&RowSet>,
    save: Option<&mut [f64]>,
) {
    let r = lambda.len();
    lambda.fill(0.0);
    // Pass A over the runs of `rows` inside rows `lo..` of this block, whose
    // saved rows (if any) are `sc`.
    let runs = |lo: usize, uc: &mut [f64], mut sc: Option<&mut [f64]>, norms: &mut [f64]| {
        for_runs(rows, lo, lo + uc.len() / r, |s, e| {
            let (a, b) = ((s - lo) * r, (e - lo) * r);
            let saved = sc.as_deref_mut().map(|c| &mut c[a..b]);
            solve_block(&m[s * r..e * r], p, norm, &mut uc[a..b], saved, norms);
        });
    };
    // Max norms are order-free, so workers may combine theirs; a 2-norm is
    // a floating-point sum and stays one row-order pass (on the first
    // iteration only).
    if norm == ColNorm::Max && parallel(u.len() / r) {
        let chunk = PAR_ROW_THRESHOLD * r;
        let saves = save_chunks(save, chunk, u.len().div_ceil(chunk));
        let maxes = u
            .par_chunks_mut(chunk)
            .zip(saves.into_par_iter())
            .enumerate()
            .fold(
                || vec![0.0; r],
                |mut acc, (c, (uc, sc))| {
                    runs(c * PAR_ROW_THRESHOLD, uc, sc, &mut acc);
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
        runs(0, u, save, lambda);
    }
}

/// Pass A over one block of rows, folding the column norms into `norms`
/// and first copying each row into `save` (the same block of the copy).
#[inline(always)]
fn solve_block(
    m: &[f64],
    p: &[f64],
    norm: ColNorm,
    u: &mut [f64],
    save: Option<&mut [f64]>,
    norms: &mut [f64],
) {
    let r = norms.len();
    let mut save = save.map(|s| s.chunks_exact_mut(r));
    for (urow, mrow) in u.chunks_exact_mut(r).zip(m.chunks_exact(r)) {
        if let Some(old) = save.as_mut().and_then(Iterator::next) {
            old.copy_from_slice(urow);
        }
        if is_zero(mrow) {
            // Every axpy skipped: the row stays +0.0, which moves neither
            // a sum of squares nor a maximum.
            urow.fill(0.0);
            continue;
        }
        row_times(mrow, p, urow);
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

/// Whether every entry of `row` is zero (of either sign).
#[inline(always)]
fn is_zero(row: &[f64]) -> bool {
    row.iter().all(|&x| x == 0.0)
}

/// `out = row * p` for an `r x r` row-major `p`: `Mat::matmul`'s row
/// kernel (zero entries of `row` skipped, rows of `p` added in order),
/// with each block of output columns held in registers across the `l`
/// loop.
#[inline(always)]
fn row_times(row: &[f64], p: &[f64], out: &mut [f64]) {
    let mut c0 = 0;
    while c0 < out.len() {
        c0 += match out.len() - c0 {
            w if w >= LANES => row_block::<LANES>(row, p, c0, out),
            w if w >= 8 => row_block::<8>(row, p, c0, out),
            w if w >= 4 => row_block::<4>(row, p, c0, out),
            _ => row_block::<1>(row, p, c0, out),
        };
    }
}

/// Columns `c0..c0 + W` of [`row_times`]; returns `W`.
#[inline(always)]
fn row_block<const W: usize>(row: &[f64], p: &[f64], c0: usize, out: &mut [f64]) -> usize {
    let mut acc = [0.0; W];
    // Row `l` of `p` starts at `l * r`; stepping an offset instead of
    // chunking `p` keeps an integer division out of every row.
    let mut at = c0;
    for &a in row {
        if a != 0.0 {
            for (x, &s) in acc.iter_mut().zip(&p[at..at + W]) {
                *x += a * s;
            }
        }
        at += out.len();
    }
    out[c0..c0 + W].copy_from_slice(&acc);
    W
}

/// Pass B over `rows`: scale the nonzero rows by the inverse scales,
/// check them, accumulate their Gram.
#[adatm::hot]
fn normalize_rows(u: &mut [f64], lambda: &[f64], gram: &mut [f64], rows: Option<&RowSet>) -> bool {
    let r = lambda.len();
    gram_fold(u, r, gram, &mut [], None, |row0, block, _, acc, _| {
        let mut starts = [0; BLOCK];
        let mut visit = RowIter::new(rows, row0, row0 + block.len() / r);
        let mut finite = true;
        loop {
            let n = nonzero_rows(block, r, row0, &mut visit, &mut starts);
            if n == 0 {
                return finite;
            }
            finite &= scale_rows(block, lambda, &starts[..n]);
            add_tiles(acc, r, block, &starts[..n]);
        }
    })
}

/// Multiplies the rows starting at `starts` by the inverse scales
/// `1 / lambda` (zero for a zero scale), up to 16 columns at a time, and
/// returns whether every scaled entry is finite.
#[inline(always)]
fn scale_rows(rows: &mut [f64], lambda: &[f64], starts: &[usize]) -> bool {
    let mut finite = true;
    for (c0, scales) in (0..).step_by(LANES).zip(lambda.chunks(LANES)) {
        let mut inv = [0.0; LANES];
        for (v, &s) in inv.iter_mut().zip(scales) {
            *v = if s != 0.0 { 1.0 / s } else { 0.0 };
        }
        for &s in starts {
            for (x, &v) in rows[s + c0..s + c0 + scales.len()].iter_mut().zip(&inv) {
                *x *= v;
                finite &= x.is_finite();
            }
        }
    }
    finite
}

/// The NCP update over `rows` (rank `uh.len()`), accumulating the Gram of
/// the result and saving the rows it overwrites into `save`.
#[adatm::hot]
#[allow(clippy::too_many_arguments)]
fn ncp_rows(
    u: &mut [f64],
    m: &[f64],
    h: &[f64],
    eps: f64,
    gram: &mut [f64],
    uh: &mut [f64],
    rows: Option<&RowSet>,
    save: Option<&mut [f64]>,
) -> bool {
    let r = uh.len();
    gram_fold(u, r, gram, uh, save, |row0, block, mut saved, acc, uh| {
        let mut starts = [0; BLOCK];
        let mut visit = RowIter::new(rows, row0, row0 + block.len() / r);
        let mut finite = true;
        let mut more = true;
        while more {
            let mut n = 0;
            while n < BLOCK {
                let Some(i) = visit.next() else {
                    more = false;
                    break;
                };
                let (at, s) = (i * r, (i - row0) * r);
                let (urow, mrow) = (&mut block[s..s + r], &m[at..at + r]);
                if let Some(c) = saved.as_deref_mut() {
                    c[s..s + r].copy_from_slice(urow);
                }
                // `u h` needs the whole old row, so it goes through `uh`.
                row_times(urow, h, uh);
                ncp_quotient(urow, mrow, uh, eps);
                finite &= urow.iter().fold(true, |ok, x| ok & x.is_finite());
                if !is_zero(urow) {
                    starts[n] = s;
                    n += 1;
                }
            }
            add_tiles(acc, r, block, &starts[..n]);
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

/// Runs `block(first_row, rows, saved, acc, scratch)` over the rows of `u`
/// (row length `r`) and leaves their Gram in `gram`, with the module's
/// reduction shape. `block` updates the rows it is given (saving them into
/// `saved`, the same rows of `save`, if any), adds the upper triangle of
/// their Gram into `acc` and reports whether all of them are finite. One
/// thread uses `gram` and `scratch` themselves; parallel workers each get
/// zeroed copies.
fn gram_fold<F>(
    u: &mut [f64],
    r: usize,
    gram: &mut [f64],
    scratch: &mut [f64],
    save: Option<&mut [f64]>,
    block: F,
) -> bool
where
    F: Fn(usize, &mut [f64], Option<&mut [f64]>, &mut [f64], &mut [f64]) -> bool + Sync,
{
    gram.fill(0.0);
    let finite = if parallel(u.len() / r) {
        let (rr, s, chunk) = (r * r, scratch.len(), PAR_ROW_THRESHOLD * r);
        let saves = save_chunks(save, chunk, u.len().div_ceil(chunk));
        let (acc, finite) = u
            .par_chunks_mut(chunk)
            .zip(saves.into_par_iter())
            .enumerate()
            .fold(
                || (vec![0.0; rr + s], true),
                |(mut acc, ok), (c, (rows, saved))| {
                    let (g, tmp) = acc.split_at_mut(rr);
                    let finite = block(c * PAR_ROW_THRESHOLD, rows, saved, g, tmp);
                    (acc, ok & finite)
                },
            )
            .reduce(|| (vec![0.0; rr + s], true), |(a, oa), (b, ob)| (sum(a, &b, rr), oa & ob));
        gram.copy_from_slice(&acc[..rr]);
        finite
    } else {
        block(0, u, save, gram, scratch)
    };
    mirror(gram, r);
    finite
}

/// The Gram `rows^T rows` of row-major `rows` (row length `r`) into
/// `gram`, with the module's reduction shape: [`Mat::gram`]'s kernel.
pub(crate) fn gram_into(rows: &[f64], r: usize, gram: &mut [f64]) {
    gram.fill(0.0);
    if r == 0 {
        return;
    }
    if parallel(rows.len() / r) {
        let rr = r * r;
        let acc = rows
            .par_chunks(PAR_ROW_THRESHOLD * r)
            .fold(
                || vec![0.0; rr],
                |mut acc, chunk| {
                    add_rows(&mut acc, r, chunk);
                    acc
                },
            )
            .reduce(|| vec![0.0; rr], |a, b| sum(a, &b, rr));
        gram.copy_from_slice(&acc);
    } else {
        add_rows(gram, r, rows);
    }
    mirror(gram, r);
}

/// `a[..n] += b[..n]`, elementwise: the reduction of two workers' sums.
fn sum(mut a: Vec<f64>, b: &[f64], n: usize) -> Vec<f64> {
    for (x, y) in a.iter_mut().zip(b).take(n) {
        *x += y;
    }
    a
}

/// Adds the upper triangle of the Gram of the nonzero rows of `rows`
/// into `acc`.
#[inline(always)]
fn add_rows(acc: &mut [f64], r: usize, rows: &[f64]) {
    let mut starts = [0; BLOCK];
    let mut visit = 0..rows.len() / r;
    loop {
        let n = nonzero_rows(rows, r, 0, &mut visit, &mut starts);
        if n == 0 {
            return;
        }
        add_tiles(acc, r, rows, &starts[..n]);
    }
}

/// Fills `starts` with the offsets into `block` (whose first row is row
/// `row0`) of up to [`BLOCK`] rows from `visit` that hold a nonzero
/// entry; returns how many it found, 0 once `visit` is exhausted.
#[inline(always)]
fn nonzero_rows(
    block: &[f64],
    r: usize,
    row0: usize,
    visit: &mut impl Iterator<Item = usize>,
    starts: &mut [usize; BLOCK],
) -> usize {
    let mut n = 0;
    while n < BLOCK {
        let Some(i) = visit.next() else { break };
        let s = (i - row0) * r;
        if !is_zero(&block[s..s + r]) {
            starts[n] = s;
            n += 1;
        }
    }
    n
}

/// Adds `row^T row` for the rows starting at `starts` into the upper
/// triangle of the `r x r` accumulator `acc`, one register tile at a time:
/// each entry gains `row[i] * row[j]` in row order. Diagonal tiles also
/// fill their entries below the diagonal, which [`mirror`] overwrites.
#[inline(always)]
fn add_tiles(acc: &mut [f64], r: usize, rows: &[f64], starts: &[usize]) {
    if starts.is_empty() {
        return;
    }
    for i0 in (0..r).step_by(TILE) {
        for j0 in (i0..r).step_by(TILE) {
            // `i0 <= j0`, so a tile whose columns fit has rows that fit.
            if j0 + TILE <= r {
                full_tile(acc, r, rows, starts, i0, j0);
            } else {
                edge_tile(acc, r, rows, starts, i0, j0);
            }
        }
    }
}

/// The `TILE x TILE` tile of `acc` at `(i0, j0)`, held in registers across
/// the rows.
#[inline(always)]
fn full_tile(acc: &mut [f64], r: usize, rows: &[f64], starts: &[usize], i0: usize, j0: usize) {
    let mut t = [[0.0; TILE]; TILE];
    for (a, trow) in t.iter_mut().enumerate() {
        let at = (i0 + a) * r + j0;
        trow.copy_from_slice(&acc[at..at + TILE]);
    }
    let (mut x, mut y) = ([0.0; TILE], [0.0; TILE]);
    for &s in starts {
        x.copy_from_slice(&rows[s + i0..s + i0 + TILE]);
        y.copy_from_slice(&rows[s + j0..s + j0 + TILE]);
        for (trow, &xa) in t.iter_mut().zip(&x) {
            for (v, &yb) in trow.iter_mut().zip(&y) {
                *v += xa * yb;
            }
        }
    }
    for (a, trow) in t.iter().enumerate() {
        let at = (i0 + a) * r + j0;
        acc[at..at + TILE].copy_from_slice(trow);
    }
}

/// A tile at `(i0, j0)` cut by the last column (rank not a multiple of
/// `TILE`), accumulated in memory.
fn edge_tile(acc: &mut [f64], r: usize, rows: &[f64], starts: &[usize], i0: usize, j0: usize) {
    let (rows_hi, w) = ((i0 + TILE).min(r), r - j0);
    for &s in starts {
        let row = &rows[s..s + r];
        for (i, &xi) in row.iter().enumerate().take(rows_hi).skip(i0) {
            let at = i * r + j0;
            for (v, &yj) in acc[at..at + w].iter_mut().zip(&row[j0..]) {
                *v += xi * yj;
            }
        }
    }
}

/// Copies the upper triangle of the `r x r` matrix `g` onto its lower
/// triangle.
fn mirror(g: &mut [f64], r: usize) {
    for i in 1..r {
        for j in 0..i {
            g[i * r + j] = g[j * r + i];
        }
    }
}
