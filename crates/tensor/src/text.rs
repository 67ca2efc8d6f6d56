//! Decimal text for numbers, byte for byte what `{}` prints, written
//! through one reused buffer.
//!
//! Model files and `.tns` output hold one decimal number per value, and
//! on hyper-sparse tensors the factor rows outnumber the nonzeros, so
//! formatting them through `core::fmt` costs as much as a solve.
//! [`push_f64`] appends the same bytes `format!("{x}")` gives: the
//! shortest digit string that reads back as `x` (Ryū, Adams, PLDI 2018),
//! laid out without an exponent (`0.` and zeros below one, trailing zeros
//! for large integers, `-0` for negative zero). Where two shortest strings
//! are equally near `x`, `{}` takes the larger magnitude, not the even
//! last digit Ryū's reference takes; so does this module. Non-finite
//! values are rare and go through `{}` itself.
//!
//! Writers fill one `Vec<u8>` and hand it out in [`CHUNK`]-sized pieces
//! ([`spill`], [`finish`]), so a file costs one buffer however long it is.

use std::io::{self, Write};

/// Bytes a text buffer collects before [`spill`] writes them out.
pub const CHUNK: usize = 64 * 1024;

/// Writes `buf` to `w` and empties it once it holds at least [`CHUNK`]
/// bytes; call it after each record.
pub fn spill<W: Write>(w: &mut W, buf: &mut Vec<u8>) -> io::Result<()> {
    if buf.len() >= CHUNK {
        w.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Writes what is left in `buf`, empties it and flushes `w`.
pub fn finish<W: Write>(w: &mut W, buf: &mut Vec<u8>) -> io::Result<()> {
    w.write_all(buf)?;
    buf.clear();
    w.flush()
}

/// Appends `x` in decimal, as `format!("{x}")` does.
pub fn push_u64(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut n = digits.len();
    loop {
        n -= 1;
        digits[n] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[n..]);
}

/// Appends `x` exactly as `format!("{x}")` does.
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        // `{}` writes NaN, inf and -inf; a `Vec` never fails a write.
        let _ = write!(out, "{x}");
        return;
    }
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let (mantissa, exponent) = (bits & ((1 << MANTISSA_BITS) - 1), (bits >> MANTISSA_BITS) & 0x7ff);
    if mantissa == 0 && exponent == 0 {
        out.push(b'0');
        return;
    }
    let (digits, e10) = shortest(mantissa, exponent as u32);
    // The decimal digits of `digits`, most significant first.
    let mut buf = [0u8; 17];
    let mut n = buf.len();
    let mut d = digits;
    while d > 0 {
        n -= 1;
        buf[n] = b'0' + (d % 10) as u8;
        d /= 10;
    }
    let digits = &buf[n..];
    // `x = 0.d1 d2 ... dk * 10^point`.
    let point = digits.len() as i32 + e10;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
    }
}

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;

/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;

/// Bits kept of each power of five (and of each inverse) in the tables.
const POW5_BITS: i32 = 125;

/// Entries of `POW5.0`: `5^i` for every `i` a negative binary exponent
/// needs.
const POW5_LEN: usize = 326;

/// Entries of `POW5.1`: `5^-i` for every `i` a non-negative binary
/// exponent needs.
const POW5_INV_LEN: usize = 342;

/// Little-endian 64-bit limbs of the table builder's integers: `5^341`
/// has 792 bits and `2^1023 / 5^i` at most 1024.
const LIMBS: usize = 16;

/// The power-of-five tables, computed at compile time: `.0[i]` holds the
/// top [`POW5_BITS`] bits of `5^i` (shifted up for small `i`), `.1[i]`
/// holds `floor(2^(bits(5^i) - 1 + POW5_BITS) / 5^i) + 1`.
static POW5: ([u128; POW5_LEN], [u128; POW5_INV_LEN]) = pow5_tables();

/// Builds both tables at compile time from exact big integers: `5^i` by
/// repeated multiplication, and `floor(2^1023 / 5^i)` by repeated exact
/// division (`floor(floor(a / b) / c) == floor(a / (b c))`), from which
/// each inverse is a bit window.
const fn pow5_tables() -> ([u128; POW5_LEN], [u128; POW5_INV_LEN]) {
    let mut pow5 = [0u128; POW5_LEN];
    let mut inv = [0u128; POW5_INV_LEN];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut quo = [0u64; LIMBS];
    quo[LIMBS - 1] = 1 << 63;
    let mut i = 0;
    while i < POW5_INV_LEN {
        let len = bit_len(&pow);
        if i < POW5_LEN {
            pow5[i] = if len >= POW5_BITS as usize {
                window(&pow, len - POW5_BITS as usize)
            } else {
                window(&pow, 0) << (POW5_BITS as usize - len)
            };
        }
        // floor(2^(len + 124) / 5^i) is floor(2^1023 / 5^i) shifted down.
        inv[i] = window(&quo, 1023 - (len - 1 + POW5_BITS as usize)) + 1;
        // pow *= 5
        let mut carry = 0u128;
        let mut k = 0;
        while k < LIMBS {
            let v = pow[k] as u128 * 5 + carry;
            pow[k] = v as u64;
            carry = v >> 64;
            k += 1;
        }
        // quo /= 5
        let mut rem = 0u128;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let v = (rem << 64) | quo[k] as u128;
            quo[k] = (v / 5) as u64;
            rem = v % 5;
        }
        i += 1;
    }
    (pow5, inv)
}

/// Bit length of a big integer.
const fn bit_len(x: &[u64; LIMBS]) -> usize {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return 64 * k + 64 - x[k].leading_zeros() as usize;
        }
    }
    0
}

/// `floor(x / 2^s) mod 2^128`.
const fn window(x: &[u64; LIMBS], s: usize) -> u128 {
    let (k, b) = (s / 64, s % 64);
    let low = limb(x, k) | (limb(x, k + 1) << 64);
    if b == 0 {
        low
    } else {
        (low >> b) | (limb(x, k + 2) << (128 - b))
    }
}

/// Limb `i` of `x`, zero past the top.
const fn limb(x: &[u64; LIMBS], i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// `floor(m * mul / 2^j)` for `64 < j < 128` and a product below
/// `2^(j + 64)`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Bit length of `5^e` (1 for `e = 0`), for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Whether `5^p` divides `v > 0`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest `(digits, e10)` with `digits * 10^e10` reading back as the
/// finite nonzero `f64` with these mantissa and exponent fields; the
/// nearest such decimal, ties away from zero: Ryū's `d2d`, with `{}`'s
/// tie rule in place of its round-half-even.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    // Step 1: x = m2 * 2^e2, two more bits of room for the bounds.
    let (e2, m2) = if exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2, (1 << MANTISSA_BITS) | mantissa)
    };
    // Round-to-even reading: an even mantissa owns its interval's ends.
    let accept_bounds = m2 & 1 == 0;
    // Step 2: the interval of decimals reading back as x is
    // (mm, mp) * 2^e2 around mv; the gap below is half as wide at a power
    // of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);
    // Step 3: the three values in a decimal base, 10^e10. `vm` is exact
    // when mm * 2^e2 ends in e10 decimal zeros; then `mm` itself may be
    // the answer. (Ryū also tracks whether `vr` is exact, only to round
    // an exact tie to even; `{}` rounds a tie up, which needs no tracking.)
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        let mul = POW5.1[q as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        // At most one of mv, mp, mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - POW5_BITS);
        let mul = POW5.0[i as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        if q <= 1 {
            if accept_bounds {
                // mm has a trailing zero bit exactly when mm_shift is 1.
                vm_exact = mm_shift == 1;
            } else {
                // mp = mv + 2 always has one.
                vp -= 1;
            }
        }
    }
    // Step 4: drop digits while the interval still holds a shorter
    // decimal, then round to the nearest, ties up.
    let mut removed = 0;
    let mut last_removed = 0;
    if vm_exact {
        while vp / 10 > vm / 10 {
            vm_exact &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        // An exact lower bound that is still in the interval may shed
        // its own trailing zeros.
        while vm_exact && vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    } else {
        // The common case; two digits at a time first.
        if vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // vr == vm: vr is the lower bound, which belongs to the interval only
    // when it is exact and the bounds are accepted.
    let round_up = (vr == vm && !(accept_bounds && vm_exact)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn tables_match_the_reference_entries() {
        // Entries of Ryū's published tables.
        assert_eq!(POW5.1[0], (2_305_843_009_213_693_952u128 << 64) | 1);
        assert_eq!(POW5.1[1], (1_844_674_407_370_955_161u128 << 64) | 11_068_046_444_225_730_970);
        assert_eq!(POW5.0[0], 1_152_921_504_606_846_976u128 << 64);
        assert_eq!(POW5.0[1], 1_441_151_880_758_558_720u128 << 64);
        // Small powers are exact, shifted up to 125 bits.
        let mut p = 1u128;
        for (i, &entry) in POW5.0.iter().enumerate().take(54) {
            assert_eq!(entry, p << (POW5_BITS - pow5_bits(i as i32)), "5^{i}");
            assert_eq!(entry >> 124, 1, "5^{i} is normalized");
            p *= 5;
        }
        for (i, &entry) in POW5.1.iter().enumerate() {
            assert!(entry > 1 << 124 && entry <= (1 << 125) + 1, "5^-{i}");
        }
    }

    #[test]
    fn layout_matches_display() {
        for x in [0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e-7, 123.456, 1e21, 1e22, 2.5e-300, 1e300] {
            assert_eq!(text(x), format!("{x}"));
        }
        // 1390593 / 2^16 = 21.2187652587890625 exactly: a 17-digit tie.
        assert_eq!(text(1_390_593.0 / 65_536.0), "21.218765258789063");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(text(x), format!("{x}"));
        }
    }

    #[test]
    fn integers_match_display() {
        for x in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, x);
            assert_eq!(out, x.to_string().into_bytes());
        }
    }
}
