//! The decimal writer behind model files and `.tns` output against
//! `format!("{x}")`, byte for byte.

use adatm::tensor::io::write_tns;
use adatm::tensor::text::{push_f64, CHUNK};
use adatm::SparseTensor;

/// SplitMix64: a seeded stream of well-mixed 64-bit words.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Checks `push_f64` against `{}` for `x` and `-x`, appending after
/// existing bytes as the writers do.
fn check(x: f64, out: &mut Vec<u8>) {
    for v in [x, -x] {
        out.clear();
        out.push(b'|');
        push_f64(out, v);
        let want = format!("|{v}");
        assert!(
            out == want.as_bytes(),
            "{:#018x}: wrote {:?}, `{{}}` gives {want:?}",
            v.to_bits(),
            String::from_utf8_lossy(out)
        );
    }
}

/// Values in the classes `{}` lays out differently or rounds with care:
/// zeros, subnormals, the normal range's ends, powers of ten, integers
/// around 2^53 and exact decimal ties.
fn edge_values() -> Vec<f64> {
    let mut v = vec![0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON, 1.0, 0.1, 0.5];
    v.extend([f64::NAN, f64::INFINITY]);
    // Subnormals: the smallest, the largest, and each power of two.
    v.extend([f64::from_bits(1), f64::from_bits((1 << 52) - 1)]);
    v.extend((0..52).map(|k| f64::from_bits(1 << k)));
    v.extend((0..52).map(|k| f64::from_bits((1 << k) + 1)));
    // The normal range's neighbours.
    v.extend([f64::MIN_POSITIVE.next_up(), f64::MAX.next_down()]);
    // Powers of ten, read from their decimal text.
    v.extend((-324..=308).map(|k: i32| format!("1e{k}").parse::<f64>().unwrap()));
    v.extend((-324..=308).map(|k: i32| format!("9.999999999999999e{k}").parse::<f64>().unwrap()));
    // Integers around 2^53, where the spacing becomes 2.
    let two53 = (1u64 << 53) as f64;
    for k in 0..2000u64 {
        v.extend([two53 + k as f64, two53 - k as f64, (k * 1_000_003) as f64]);
    }
    // Exact ties: 17 digits leave a removed 5 with nothing after it
    // (1390593 / 2^16 = 21.2187652587890625), and two near neighbours.
    v.extend([1_390_593.0 / 65_536.0, 0.1 + 0.2, 5e-324, (1u64 << 53) as f64 + 1.0]);
    v
}

/// `n` seeded values from three generators: raw bit patterns (every
/// exponent, subnormals and non-finite values included), unit-range
/// values like factor entries, and dyadic fractions `m / 2^k`, whose
/// exact decimal expansions hold many exact ties.
fn random_values(n: usize, seed: u64) -> impl Iterator<Item = f64> {
    let mut s = Stream(seed);
    (0..n).map(move |i| {
        let w = s.next();
        match i % 3 {
            0 => f64::from_bits(w),
            1 => (w >> 11) as f64 / (1u64 << 53) as f64 * 10f64.powi((w % 9) as i32 - 4),
            _ => (w >> (11 + w % 30)) as f64 / (1u64 << (w % 61)) as f64,
        }
    })
}

#[test]
fn writer_matches_display_on_edge_classes_and_random_values() {
    let mut out = Vec::new();
    for x in edge_values() {
        check(x, &mut out);
    }
    for x in random_values(100_000, 23) {
        check(x, &mut out);
    }
}

/// The same comparison over 10^7 values; run it in release with
/// `cargo test --release --test text -- --ignored`.
#[test]
#[ignore]
fn writer_matches_display_on_ten_million_values() {
    let mut out = Vec::new();
    for x in random_values(10_000_000, 0x5eed) {
        check(x, &mut out);
    }
}

#[test]
fn write_tns_bytes_match_display_lines() {
    // Values of every layout class, on more lines than one write chunk.
    let mut s = Stream(7);
    let n = 3 * CHUNK / 40;
    let dims = vec![5, 700, 90_000];
    let inds: Vec<Vec<u32>> =
        dims.iter().map(|&d| (0..n).map(|_| (s.next() % d as u64) as u32).collect()).collect();
    let mut vals: Vec<f64> = random_values(n, 99).filter(|v| v.is_finite()).collect();
    vals.truncate(n - 6);
    vals.extend([0.0, -0.0, 1e300, 5e-324, 123.0, -0.001]);
    let n = vals.len();
    let inds = inds.into_iter().map(|mut v| {
        v.truncate(n);
        v
    });
    let t = SparseTensor::new(dims, inds.collect(), vals);
    let mut want = String::new();
    for k in 0..t.nnz() {
        for d in 0..t.ndim() {
            want.push_str(&format!("{} ", t.mode_idx(d)[k] as u64 + 1));
        }
        want.push_str(&format!("{}\n", t.vals()[k]));
    }
    let mut got = Vec::new();
    write_tns(&t, &mut got).unwrap();
    assert!(got.len() > 2 * CHUNK, "{} bytes", got.len());
    assert!(got == want.as_bytes(), "write_tns differs from `{{}}` lines");
}
