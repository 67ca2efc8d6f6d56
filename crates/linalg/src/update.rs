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
/// entry is finite. `lambda` holds the norms [`solve_into`] left (not
/// negative); all-zero rows of `u` are left as they are.
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
    r == 0 || normalize_rows(u.as_mut_slice(), lambda, gram.as_mut_slice())
}

/// The NCP multiplicative update in place: each row of `u` becomes
/// `u .* max(m, 0) ./ (u h + eps)`, `gram` the Gram of the result. `uh`
/// is an `R`-length work row for `u h`; its contents are overwritten.
/// Returns whether every updated entry is finite.
///
/// # Panics
/// Panics on a shape mismatch.
#[adatm::hot]
pub fn ncp_into(u: &mut Mat, m: &Mat, h: &Mat, eps: f64, gram: &mut Mat, uh: &mut [f64]) -> bool {
    let r = u.ncols();
    assert!(
        m.nrows() == u.nrows()
            && m.ncols() == r
            && h.nrows() == r
            && h.ncols() == r
            && gram.nrows() == r
            && gram.ncols() == r
            && uh.len() == r,
        "ncp_into shape mismatch"
    );
    r == 0 || ncp_rows(u.as_mut_slice(), m.as_slice(), h.as_slice(), eps, gram.as_mut_slice(), uh)
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

/// Pass B over all rows: scale the nonzero rows by the inverse scales,
/// check them, accumulate their Gram.
#[adatm::hot]
fn normalize_rows(u: &mut [f64], lambda: &[f64], gram: &mut [f64]) -> bool {
    let r = lambda.len();
    gram_fold(u, r, gram, &mut [], |_, rows, acc, _| {
        let mut starts = [0; BLOCK];
        let mut next = 0;
        let mut finite = true;
        while next < rows.len() {
            let n = nonzero_rows(rows, r, &mut next, &mut starts);
            finite &= scale_rows(rows, lambda, &starts[..n]);
            add_tiles(acc, r, rows, &starts[..n]);
        }
        finite
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

/// The NCP update over all rows (rank `uh.len()`), accumulating the Gram
/// of the result.
#[adatm::hot]
fn ncp_rows(
    u: &mut [f64],
    m: &[f64],
    h: &[f64],
    eps: f64,
    gram: &mut [f64],
    uh: &mut [f64],
) -> bool {
    let r = uh.len();
    gram_fold(u, r, gram, uh, |row0, rows, acc, uh| {
        let m = &m[row0 * r..];
        let mut starts = [0; BLOCK];
        let mut next = 0;
        let mut finite = true;
        while next < rows.len() {
            let mut n = 0;
            while n < BLOCK && next < rows.len() {
                let (urow, mrow) = (&mut rows[next..next + r], &m[next..next + r]);
                // `u h` needs the whole old row, so it goes through `uh`.
                row_times(urow, h, uh);
                ncp_quotient(urow, mrow, uh, eps);
                finite &= urow.iter().fold(true, |ok, x| ok & x.is_finite());
                if !is_zero(urow) {
                    starts[n] = next;
                    n += 1;
                }
                next += r;
            }
            add_tiles(acc, r, rows, &starts[..n]);
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

/// Runs `block(first_row, rows, acc, scratch)` over the rows of `u` (row
/// length `r`) and leaves their Gram in `gram`, with the module's
/// reduction shape. `block` updates the rows it is given, adds the upper
/// triangle of their Gram into `acc` and reports whether all of them are
/// finite. One thread uses `gram` and `scratch` themselves; parallel
/// workers each get zeroed copies.
fn gram_fold<F>(u: &mut [f64], r: usize, gram: &mut [f64], scratch: &mut [f64], block: F) -> bool
where
    F: Fn(usize, &mut [f64], &mut [f64], &mut [f64]) -> bool + Sync,
{
    gram.fill(0.0);
    let finite = if parallel(u.len() / r) {
        let (rr, s) = (r * r, scratch.len());
        let (acc, finite) = u
            .par_chunks_mut(PAR_ROW_THRESHOLD * r)
            .enumerate()
            .fold(
                || (vec![0.0; rr + s], true),
                |(mut acc, ok), (c, rows)| {
                    let (g, tmp) = acc.split_at_mut(rr);
                    let finite = block(c * PAR_ROW_THRESHOLD, rows, g, tmp);
                    (acc, ok & finite)
                },
            )
            .reduce(|| (vec![0.0; rr + s], true), |(a, oa), (b, ob)| (sum(a, &b, rr), oa & ob));
        gram.copy_from_slice(&acc[..rr]);
        finite
    } else {
        block(0, u, gram, scratch)
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
    let mut next = 0;
    while next < rows.len() {
        let n = nonzero_rows(rows, r, &mut next, &mut starts);
        add_tiles(acc, r, rows, &starts[..n]);
    }
}

/// Fills `starts` with the offsets of up to [`BLOCK`] rows that hold a
/// nonzero entry, scanning from offset `*next` and leaving it past the
/// last row scanned; returns how many it found.
#[inline(always)]
fn nonzero_rows(rows: &[f64], r: usize, next: &mut usize, starts: &mut [usize; BLOCK]) -> usize {
    let mut n = 0;
    while n < BLOCK && *next < rows.len() {
        if !is_zero(&rows[*next..*next + r]) {
            starts[n] = *next;
            n += 1;
        }
        *next += r;
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
