//! Rank-blocked elementwise microkernels shared by every hot loop.
//!
//! All sparse kernels in this workspace spend their inner loops on length-`R`
//! row operations (`R` = CP rank): Hadamard products, axpy updates, and fused
//! multiply-accumulates against factor-matrix rows. `R` is a runtime value,
//! so a naive `zip` loop compiles to scalar code with a loop-carried trip
//! count. The helpers here re-expose the same operations through
//! const-generic blocks (16 / 8 / 4 lanes) over `chunks_exact`, which gives
//! LLVM fixed-trip inner loops it fully unrolls and autovectorizes — no
//! `unsafe`, no intrinsics, and the scalar remainder path keeps awkward
//! ranks exact.
//!
//! Every operation is elementwise (lane `i` of the output depends only on
//! lane `i` of the inputs), so blocking never changes floating-point
//! evaluation order: results are **bitwise identical** to the scalar
//! reference loops for every length, which is what the backend determinism
//! tests rely on.
//!
//! Dispatch picks the largest block not exceeding the slice length
//! (`>=16 -> 16`, `>=8 -> 8`, else `4`), so the common power-of-two ranks
//! (8, 16, 32, ...) run entirely inside exact blocks and a rank like 17
//! runs one 16-lane block plus one scalar tail element.

/// `acc[i] *= src[i]` — the Hadamard / own-factor update.
#[adatm::hot]
#[inline]
pub fn mul_assign(acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    match acc.len() {
        n if n >= 16 => mul_assign_b::<16>(acc, src),
        n if n >= 8 => mul_assign_b::<8>(acc, src),
        _ => mul_assign_b::<4>(acc, src),
    }
}

/// `acc[i] += src[i]` — reduction-set / child-sum accumulation.
#[adatm::hot]
#[inline]
pub fn add_assign(acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    match acc.len() {
        n if n >= 16 => add_assign_b::<16>(acc, src),
        n if n >= 8 => add_assign_b::<8>(acc, src),
        _ => add_assign_b::<4>(acc, src),
    }
}

/// `acc[i] += alpha * src[i]` — the row-axpy of Gram/matmul and the fused
/// order-2 MTTKRP update.
#[adatm::hot]
#[inline]
pub fn axpy(acc: &mut [f64], alpha: f64, src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    match acc.len() {
        n if n >= 16 => axpy_b::<16>(acc, alpha, src),
        n if n >= 8 => axpy_b::<8>(acc, alpha, src),
        _ => axpy_b::<4>(acc, alpha, src),
    }
}

/// `dst[i] = alpha * src[i]` — scratch seeding from a tensor value.
#[adatm::hot]
#[inline]
pub fn scale(dst: &mut [f64], alpha: f64, src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    match dst.len() {
        n if n >= 16 => scale_b::<16>(dst, alpha, src),
        n if n >= 8 => scale_b::<8>(dst, alpha, src),
        _ => scale_b::<4>(dst, alpha, src),
    }
}

/// `acc[i] += a[i] * b[i]` — the fused final MTTKRP accumulate.
#[adatm::hot]
#[inline]
pub fn muladd_assign(acc: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(acc.len(), a.len());
    debug_assert_eq!(acc.len(), b.len());
    match acc.len() {
        n if n >= 16 => muladd_assign_b::<16>(acc, a, b),
        n if n >= 8 => muladd_assign_b::<8>(acc, a, b),
        _ => muladd_assign_b::<4>(acc, a, b),
    }
}

/// `acc[i] += a[i] as f64 * b[i]` — [`muladd_assign`] over a
/// single-precision left operand, widened before the multiply. Used by
/// the pairwise-perturbation sweep, whose memoized pair intermediates
/// are stored in `f32`: they feed an approximate kernel whose intrinsic
/// error dwarfs the storage rounding, and halving the value bytes
/// halves the dominant streaming traffic on a bandwidth-bound machine.
#[adatm::hot]
#[inline]
pub fn muladd_assign_f32(acc: &mut [f64], a: &[f32], b: &[f64]) {
    debug_assert_eq!(acc.len(), a.len());
    debug_assert_eq!(acc.len(), b.len());
    match acc.len() {
        n if n >= 16 => muladd_assign_f32_b::<16>(acc, a, b),
        n if n >= 8 => muladd_assign_f32_b::<8>(acc, a, b),
        _ => muladd_assign_f32_b::<4>(acc, a, b),
    }
}

/// `acc[i] += alpha * a[i] * b[i]` — the fused order-3 MTTKRP entry
/// update (`val * u_a * u_b`), evaluated left-to-right like the unfused
/// scale-then-multiply sequence, so results are bitwise identical.
#[adatm::hot]
#[inline]
pub fn axpy2(acc: &mut [f64], alpha: f64, a: &[f64], b: &[f64]) {
    debug_assert_eq!(acc.len(), a.len());
    debug_assert_eq!(acc.len(), b.len());
    match acc.len() {
        n if n >= 16 => axpy2_b::<16>(acc, alpha, a, b),
        n if n >= 8 => axpy2_b::<8>(acc, alpha, a, b),
        _ => axpy2_b::<4>(acc, alpha, a, b),
    }
}

/// `acc[i] += alpha * a[i] * b[i] * c[i]` — the fused order-4 MTTKRP
/// entry update, left-to-right.
#[adatm::hot]
#[inline]
pub fn axpy3(acc: &mut [f64], alpha: f64, a: &[f64], b: &[f64], c: &[f64]) {
    debug_assert_eq!(acc.len(), a.len());
    debug_assert_eq!(acc.len(), b.len());
    debug_assert_eq!(acc.len(), c.len());
    match acc.len() {
        n if n >= 16 => axpy3_b::<16>(acc, alpha, a, b, c),
        n if n >= 8 => axpy3_b::<8>(acc, alpha, a, b, c),
        _ => axpy3_b::<4>(acc, alpha, a, b, c),
    }
}

#[inline(always)]
fn mul_assign_b<const B: usize>(acc: &mut [f64], src: &[f64]) {
    let mut ac = acc.chunks_exact_mut(B);
    let mut sc = src.chunks_exact(B);
    for (a, s) in ac.by_ref().zip(sc.by_ref()) {
        for i in 0..B {
            a[i] *= s[i];
        }
    }
    for (a, s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a *= *s;
    }
}

#[inline(always)]
fn add_assign_b<const B: usize>(acc: &mut [f64], src: &[f64]) {
    let mut ac = acc.chunks_exact_mut(B);
    let mut sc = src.chunks_exact(B);
    for (a, s) in ac.by_ref().zip(sc.by_ref()) {
        for i in 0..B {
            a[i] += s[i];
        }
    }
    for (a, s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a += *s;
    }
}

#[inline(always)]
fn axpy_b<const B: usize>(acc: &mut [f64], alpha: f64, src: &[f64]) {
    let mut ac = acc.chunks_exact_mut(B);
    let mut sc = src.chunks_exact(B);
    for (a, s) in ac.by_ref().zip(sc.by_ref()) {
        for i in 0..B {
            a[i] += alpha * s[i];
        }
    }
    for (a, s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
        *a += alpha * *s;
    }
}

#[inline(always)]
fn scale_b<const B: usize>(dst: &mut [f64], alpha: f64, src: &[f64]) {
    let mut dc = dst.chunks_exact_mut(B);
    let mut sc = src.chunks_exact(B);
    for (d, s) in dc.by_ref().zip(sc.by_ref()) {
        for i in 0..B {
            d[i] = alpha * s[i];
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
        *d = alpha * *s;
    }
}

#[inline(always)]
fn muladd_assign_b<const B: usize>(acc: &mut [f64], a: &[f64], b: &[f64]) {
    let mut cc = acc.chunks_exact_mut(B);
    let mut ac = a.chunks_exact(B);
    let mut bc = b.chunks_exact(B);
    for ((c, x), y) in cc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        for i in 0..B {
            c[i] += x[i] * y[i];
        }
    }
    for ((c, x), y) in cc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *c += *x * *y;
    }
}

#[inline(always)]
fn muladd_assign_f32_b<const B: usize>(acc: &mut [f64], a: &[f32], b: &[f64]) {
    let mut cc = acc.chunks_exact_mut(B);
    let mut ac = a.chunks_exact(B);
    let mut bc = b.chunks_exact(B);
    for ((c, x), y) in cc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        for i in 0..B {
            c[i] += x[i] as f64 * y[i];
        }
    }
    for ((c, x), y) in cc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *c += *x as f64 * *y;
    }
}

#[inline(always)]
fn axpy2_b<const B: usize>(acc: &mut [f64], alpha: f64, a: &[f64], b: &[f64]) {
    let mut cc = acc.chunks_exact_mut(B);
    let mut ac = a.chunks_exact(B);
    let mut bc = b.chunks_exact(B);
    for ((c, x), y) in cc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        for i in 0..B {
            c[i] += alpha * x[i] * y[i];
        }
    }
    for ((c, x), y) in cc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *c += alpha * *x * *y;
    }
}

#[inline(always)]
fn axpy3_b<const B: usize>(acc: &mut [f64], alpha: f64, a: &[f64], b: &[f64], c: &[f64]) {
    let mut oc = acc.chunks_exact_mut(B);
    let mut ac = a.chunks_exact(B);
    let mut bc = b.chunks_exact(B);
    let mut cc = c.chunks_exact(B);
    for (((o, x), y), z) in oc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()).zip(cc.by_ref()) {
        for i in 0..B {
            o[i] += alpha * x[i] * y[i] * z[i];
        }
    }
    for (((o, x), y), z) in
        oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()).zip(cc.remainder())
    {
        *o += alpha * *x * *y * *z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The awkward lengths the parity suite cares about: below one block,
    /// straddling remainders of every dispatch tier, and exact multiples.
    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 64, 67];

    fn v(len: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random values with varied magnitudes so
        // bitwise comparisons are meaningful.
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 3.5 - 1.7
            })
            .collect()
    }

    #[test]
    fn mul_assign_bitwise_matches_scalar() {
        for &n in LENS {
            let (a0, b) = (v(n, 1), v(n, 2));
            let mut want = a0.clone();
            want.iter_mut().zip(&b).for_each(|(x, y)| *x *= y);
            let mut got = a0.clone();
            mul_assign(&mut got, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn add_assign_bitwise_matches_scalar() {
        for &n in LENS {
            let (a0, b) = (v(n, 3), v(n, 4));
            let mut want = a0.clone();
            want.iter_mut().zip(&b).for_each(|(x, y)| *x += y);
            let mut got = a0.clone();
            add_assign(&mut got, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn axpy_bitwise_matches_scalar() {
        for &n in LENS {
            let (a0, b) = (v(n, 5), v(n, 6));
            let alpha = 0.37;
            let mut want = a0.clone();
            want.iter_mut().zip(&b).for_each(|(x, y)| *x += alpha * y);
            let mut got = a0.clone();
            axpy(&mut got, alpha, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn scale_bitwise_matches_scalar() {
        for &n in LENS {
            let b = v(n, 7);
            let alpha = -2.25;
            let want: Vec<f64> = b.iter().map(|y| alpha * y).collect();
            let mut got = v(n, 8);
            scale(&mut got, alpha, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn muladd_assign_bitwise_matches_scalar() {
        for &n in LENS {
            let (c0, a, b) = (v(n, 12), v(n, 13), v(n, 14));
            let mut want = c0.clone();
            want.iter_mut().zip(a.iter().zip(&b)).for_each(|(c, (x, y))| *c += x * y);
            let mut got = c0.clone();
            muladd_assign(&mut got, &a, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn muladd_assign_f32_widens_before_the_multiply() {
        for &n in LENS {
            let (c0, a64, b) = (v(n, 22), v(n, 23), v(n, 24));
            let a: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
            let mut want = c0.clone();
            want.iter_mut().zip(a.iter().zip(&b)).for_each(|(c, (&x, y))| *c += x as f64 * y);
            let mut got = c0.clone();
            muladd_assign_f32(&mut got, &a, &b);
            assert_eq!(got, want, "len {n}");
        }
    }

    #[test]
    fn fused_multi_operand_ops_bitwise_match_unfused_sequences() {
        // The fused ops must reproduce the exact rounding of the unfused
        // scale/mul_assign/add sequences they replace (left-to-right).
        for &n in LENS {
            let (a, b, c) = (v(n, 30), v(n, 31), v(n, 32));
            let alpha = 1.75;

            let mut want = vec![0.0; n];
            let mut srow = v(n, 33);
            scale(&mut srow, alpha, &a);
            mul_assign(&mut srow, &b);
            add_assign(&mut want, &srow);
            let mut got = vec![0.0; n];
            axpy2(&mut got, alpha, &a, &b);
            assert_eq!(got, want, "axpy2 len {n}");

            let mut srow3 = srow.clone();
            mul_assign(&mut srow3, &c);
            let mut want3 = vec![0.0; n];
            add_assign(&mut want3, &srow3);
            let mut got3 = vec![0.0; n];
            axpy3(&mut got3, alpha, &a, &b, &c);
            assert_eq!(got3, want3, "axpy3 len {n}");
        }
    }

    #[test]
    fn remainder_path_is_pure_tail() {
        // A 17-length op must treat element 16 exactly like a standalone
        // 1-length op would: the remainder path is the same scalar code.
        let a = v(17, 20);
        let b = v(17, 21);
        let mut full = a.clone();
        mul_assign(&mut full, &b);
        let mut tail = vec![a[16]];
        mul_assign(&mut tail, &b[16..]);
        assert_eq!(full[16].to_bits(), tail[0].to_bits());
    }
}
