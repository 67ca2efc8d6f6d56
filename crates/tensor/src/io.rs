//! Tensor I/O: FROSTT `.tns` text format and a compact binary format.
//!
//! The `.tns` format is the interchange format of the FROSTT collection
//! used throughout the sparse-tensor literature: one nonzero per line,
//! `N` whitespace-separated 1-based indices followed by the value; `#`
//! starts a comment. The binary format (`.adtm`) is a straightforward
//! little-endian dump used by the harness to cache generated datasets.

use crate::coo::{Idx, SparseTensor};
use crate::text;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening the binary format.
const MAGIC: &[u8; 8] = b"ADTMTNS1";

/// Upper bound on the nonzero count a binary header may claim. Headers
/// are untrusted input; anything past this is a corrupt or hostile file,
/// not a dataset this library could process.
const MAX_NNZ: u64 = 1 << 40;

/// Cap on speculative `Vec::with_capacity` reservations while reading
/// length-prefixed sections. A lying header must not be able to trigger
/// a multi-GiB allocation before a single data byte is read; vectors
/// still grow to the true size as data actually arrives.
const MAX_PREALLOC: usize = 1 << 22;

/// Errors produced by tensor I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input could not be parsed; the message describes where.
    Parse(String),
    /// The input parsed but carries a NaN or infinite value; the message
    /// names the offending line or entry.
    NonFinite(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
            IoError::NonFinite(m) => write!(f, "non-finite data: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a FROSTT `.tns` tensor from a reader.
///
/// The tensor order is inferred from the first data line; mode sizes are
/// the per-mode maxima of the (1-based) indices. Duplicate coordinates are
/// preserved (call [`SparseTensor::dedup_sum`] to canonicalize).
///
/// Lines are read into one reused buffer and their fields parsed in one
/// walk, so reading allocates nothing per line. A line of ASCII bytes
/// other than the vertical tab is split by
/// [`str::split_ascii_whitespace`], which cuts it exactly where
/// [`str::split_whitespace`] would without decoding characters; any
/// other line is split by the latter.
pub fn read_tns<R: Read>(reader: R) -> Result<SparseTensor, IoError> {
    let mut buf = BufReader::new(reader);
    let mut inds: Vec<Vec<Idx>> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    let mut raw = String::new();
    let mut lineno = 0usize;
    loop {
        raw.clear();
        if buf.read_line(&mut raw)? == 0 {
            break;
        }
        lineno += 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if inds.is_empty() {
            let n = line.split_whitespace().count().saturating_sub(1);
            if let Some(e) = field_count_error(line, lineno, n) {
                return Err(e);
            }
            inds = vec![Vec::new(); n];
            dims = vec![0; n];
        }
        // `u8::is_ascii_whitespace` lacks the vertical tab that
        // `char::is_whitespace` accepts.
        let parsed = if line.is_ascii() && !line.contains('\x0B') {
            parse_entry(line.split_ascii_whitespace(), lineno, &mut inds, &mut dims, &mut vals)
        } else {
            parse_entry(line.split_whitespace(), lineno, &mut inds, &mut dims, &mut vals)
        };
        if let Err(e) = parsed {
            // A wrong field count is reported before any bad field.
            return Err(field_count_error(line, lineno, inds.len()).unwrap_or(e));
        }
    }
    if inds.is_empty() {
        return Err(IoError::Parse("no data lines found".into()));
    }
    Ok(SparseTensor::new(dims, inds, vals))
}

/// The error for a data line that does not hold `expected` indices and a
/// value, if it does not.
fn field_count_error(line: &str, lineno: usize, expected: usize) -> Option<IoError> {
    let nfields = line.split_whitespace().count();
    if nfields < 2 {
        Some(IoError::Parse(format!("line {lineno}: too few fields")))
    } else if nfields - 1 != expected {
        let n = nfields - 1;
        Some(IoError::Parse(format!("line {lineno}: expected {expected} indices, found {n}")))
    } else {
        None
    }
}

/// Appends the entry of one data line, split into `fields`, to the
/// columns, or reports its first bad field in field order. A line with
/// the wrong field count also fails here; the caller reports that
/// instead.
fn parse_entry<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    lineno: usize,
    inds: &mut [Vec<Idx>],
    dims: &mut [usize],
    vals: &mut Vec<f64>,
) -> Result<(), IoError> {
    for ((col, dim), f) in inds.iter_mut().zip(dims.iter_mut()).zip(fields.by_ref()) {
        let one_based: u64 =
            f.parse().map_err(|_| IoError::Parse(format!("line {lineno}: bad index '{f}'")))?;
        if one_based == 0 {
            return Err(IoError::Parse(format!("line {lineno}: indices are 1-based, found 0")));
        }
        let zero_based = one_based - 1;
        if zero_based > Idx::MAX as u64 {
            return Err(IoError::Parse(format!("line {lineno}: index overflow")));
        }
        col.push(zero_based as Idx);
        *dim = (*dim).max(one_based as usize);
    }
    let (Some(field), None) = (fields.next(), fields.next()) else {
        return Err(IoError::Parse(format!("line {lineno}: wrong field count")));
    };
    let v: f64 = field.parse().map_err(|_| IoError::Parse(format!("line {lineno}: bad value")))?;
    if !v.is_finite() {
        return Err(IoError::NonFinite(format!("line {lineno}: value '{field}' is not finite")));
    }
    vals.push(v);
    Ok(())
}

/// Reads a `.tns` file from disk.
pub fn read_tns_file<P: AsRef<Path>>(path: P) -> Result<SparseTensor, IoError> {
    read_tns(File::open(path)?)
}

/// Writes a tensor in FROSTT `.tns` format (1-based indices), each
/// number as `{}` prints it, through one [`text::CHUNK`]-sized buffer.
pub fn write_tns<W: Write>(t: &SparseTensor, mut w: W) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(2 * text::CHUNK);
    for k in 0..t.nnz() {
        for d in 0..t.ndim() {
            text::push_u64(&mut buf, t.mode_idx(d)[k] as u64 + 1);
            buf.push(b' ');
        }
        text::push_f64(&mut buf, t.vals()[k]);
        buf.push(b'\n');
        text::spill(&mut w, &mut buf)?;
    }
    text::finish(&mut w, &mut buf)?;
    Ok(())
}

/// Writes a `.tns` file to disk.
pub fn write_tns_file<P: AsRef<Path>>(t: &SparseTensor, path: P) -> Result<(), IoError> {
    write_tns(t, File::create(path)?)
}

/// Writes the compact binary format.
pub fn write_binary<W: Write>(t: &SparseTensor, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(t.ndim() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    w.write_all(&(t.nnz() as u64).to_le_bytes())?;
    for d in 0..t.ndim() {
        for &i in t.mode_idx(d) {
            w.write_all(&i.to_le_bytes())?;
        }
    }
    for &v in t.vals() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the binary format to a file.
pub fn write_binary_file<P: AsRef<Path>>(t: &SparseTensor, path: P) -> Result<(), IoError> {
    write_binary(t, File::create(path)?)
}

/// Reads the compact binary format.
pub fn read_binary<R: Read>(reader: R) -> Result<SparseTensor, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Parse("bad magic: not an adatm binary tensor".into()));
    }
    let ndim = read_u32(&mut r)? as usize;
    if ndim == 0 || ndim > 1024 {
        return Err(IoError::Parse(format!("implausible order {ndim}")));
    }
    let mut dims = Vec::with_capacity(ndim);
    for d in 0..ndim {
        let dim = read_u64(&mut r)?;
        if dim == 0 || dim > Idx::MAX as u64 + 1 {
            return Err(IoError::Parse(format!("mode {d}: dimension {dim} out of range")));
        }
        dims.push(dim as usize);
    }
    let nnz64 = read_u64(&mut r)?;
    if nnz64 > MAX_NNZ {
        return Err(IoError::Parse(format!("implausible nonzero count {nnz64}")));
    }
    let nnz = nnz64 as usize;
    let mut inds = Vec::with_capacity(ndim);
    for (d, &dim) in dims.iter().enumerate() {
        let mut col = Vec::with_capacity(nnz.min(MAX_PREALLOC));
        for k in 0..nnz {
            let i = read_u32(&mut r)?;
            if i as u64 >= dim as u64 {
                return Err(IoError::Parse(format!(
                    "mode {d} entry {k}: index {i} exceeds dimension {dim}"
                )));
            }
            col.push(i);
        }
        inds.push(col);
    }
    let mut vals = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    for k in 0..nnz {
        let v = f64::from_le_bytes(read_arr::<8, _>(&mut r)?);
        if !v.is_finite() {
            return Err(IoError::NonFinite(format!("entry {k}: value {v} is not finite")));
        }
        vals.push(v);
    }
    Ok(SparseTensor::new(dims, inds, vals))
}

/// Reads the binary format from a file.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<SparseTensor, IoError> {
    read_binary(File::open(path)?)
}

fn read_arr<const K: usize, R: Read>(r: &mut R) -> Result<[u8; K], IoError> {
    let mut b = [0u8; K];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    Ok(u32::from_le_bytes(read_arr::<4, _>(r)?))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    Ok(u64::from_le_bytes(read_arr::<8, _>(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 2],
            &[(vec![0, 3, 1], 1.5), (vec![2, 0, 0], -2.0), (vec![1, 1, 1], 0.25)],
        )
    }

    #[test]
    fn tns_round_trip() {
        let t = toy();
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(&buf[..]).unwrap();
        assert_eq!(back.ndim(), 3);
        assert_eq!(back.nnz(), 3);
        assert_eq!(back.get(&[0, 3, 1]), 1.5);
        assert_eq!(back.get(&[2, 0, 0]), -2.0);
    }

    #[test]
    fn tns_parses_comments_and_blank_lines() {
        let text = "# a comment\n\n1 1 2.5 # trailing comment\n2 3 -1\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 0]), 2.5);
        assert_eq!(t.get(&[1, 2]), -1.0);
    }

    #[test]
    fn tns_rejects_zero_index() {
        let err = read_tns("0 1 2.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn tns_rejects_inconsistent_arity() {
        let err = read_tns("1 1 1 2.0\n1 1 3.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn tns_rejects_empty_input() {
        assert!(matches!(read_tns("# only comments\n".as_bytes()), Err(IoError::Parse(_))));
    }

    #[test]
    fn tns_parses_scientific_notation_and_negatives() {
        let t = read_tns("1 2 1.5e-3\n3 1 -2.25E+2\n2 2 .5\n".as_bytes()).unwrap();
        assert_eq!(t.nnz(), 3);
        assert!((t.get(&[0, 1]) - 1.5e-3).abs() < 1e-18);
        assert_eq!(t.get(&[2, 0]), -225.0);
        assert_eq!(t.get(&[1, 1]), 0.5);
    }

    #[test]
    fn tns_preserves_duplicates_for_caller_to_dedup() {
        let mut t = read_tns("1 1 2.0\n1 1 3.0\n".as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        t.dedup_sum();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(&[0, 0]), 5.0);
    }

    #[test]
    fn tns_reports_the_first_error_of_a_line_with_its_message() {
        let cases = [
            ("7\n", "line 1: too few fields"),
            ("1 1 2.0\n\n3 # c\n", "line 3: too few fields"),
            // A wrong field count wins over a bad field in the same line.
            ("1 1 1 2.0\n1 x 3.0\n", "line 2: expected 3 indices, found 2"),
            ("1 1 2.0\n1 1 2.0 5\n", "line 2: expected 2 indices, found 3"),
            ("1 y 0 2.0\n", "line 1: bad index 'y'"),
            ("1 0 y 2.0\n", "line 1: indices are 1-based, found 0"),
            ("1 4294967297 2.0\n", "line 1: index overflow"),
            // The largest index that fits `Idx` reads.
            ("4294967296 1 2.0\n", ""),
            ("1 2 x\n", "line 1: bad value"),
            // The same errors on a later line.
            ("1 1 2.0\n1 0 2.0\n", "line 2: indices are 1-based, found 0"),
            ("1 1 2.0\n1 4294967297 2.0\n", "line 2: index overflow"),
            ("1 1 2.0\n1 00000000001 2.0\n", ""),
            ("1 1 2.0\n4294967296 1 2.0\n", ""),
            ("1 1 2.0\n1 y 2.0\n", "line 2: bad index 'y'"),
            ("1 1 2.0\n1 -1 2.0\n", "line 2: bad index '-1'"),
            ("1 1 2.0\n1 2 x\n", "line 2: bad value"),
            ("1 1 2.0\n1 2\n", "line 2: expected 2 indices, found 1"),
            ("1 1 2.0\n1 2 3 4\n", "line 2: expected 2 indices, found 3"),
        ];
        for (text, want) in cases {
            match read_tns(text.as_bytes()) {
                Err(IoError::Parse(m)) => assert_eq!(m, want, "{text:?}"),
                Ok(t) => assert!(want.is_empty(), "{text:?} read as {t:?}"),
                Err(other) => panic!("{text:?}: expected a parse error, got {other}"),
            }
        }
        let err = read_tns(&b"1 1 2.0\n1 \xff 3.0\n"[..]).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "invalid UTF-8: {err}");
    }

    #[test]
    fn tns_plain_and_unicode_lines_read_alike() {
        // Fields split by a vertical tab and a form feed, by no-break
        // spaces (Unicode whitespace), a `+`-signed index, leading zeros
        // and CRLF endings.
        let text = "1 1 1 1.0\r\n2\x0B3\x0C4 2.5\r\n5\u{a0}6\u{a0}7\u{a0}3.0\n+7 1 1 4.0\n0008 8 8 -5e-1\r\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.dims(), &[8, 8, 8]);
        assert_eq!(t.mode_idx(0), &[0, 1, 4, 6, 7]);
        assert_eq!(t.mode_idx(1), &[0, 2, 5, 0, 7]);
        assert_eq!(t.mode_idx(2), &[0, 3, 6, 0, 7]);
        assert_eq!(t.vals(), &[1.0, 2.5, 3.0, 4.0, -0.5]);
        // Other Unicode whitespace and a trailing comment after plain
        // fields.
        let t = read_tns("1 1 2.0\n2\u{2003}3 4.5 # em space\n".as_bytes()).unwrap();
        assert_eq!(
            (t.mode_idx(0), t.mode_idx(1), t.vals()),
            (&[0, 1][..], &[0, 2][..], &[2.0, 4.5][..])
        );
    }

    #[test]
    fn tns_rejects_non_finite_values_naming_the_line() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let text = format!("1 1 2.0\n2 2 {bad}\n");
            let err = read_tns(text.as_bytes()).unwrap_err();
            match err {
                IoError::NonFinite(m) => assert!(m.contains("line 2"), "{bad}: {m}"),
                other => panic!("{bad}: expected NonFinite, got {other}"),
            }
        }
    }

    #[test]
    fn binary_rejects_non_finite_values_naming_the_entry() {
        let t =
            SparseTensor::from_entries(vec![2, 2], &[(vec![0, 0], 1.0), (vec![1, 1], f64::NAN)]);
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        match read_binary(&buf[..]).unwrap_err() {
            IoError::NonFinite(m) => assert!(m.contains("entry 1"), "{m}"),
            other => panic!("expected NonFinite, got {other}"),
        }
    }

    #[test]
    fn binary_rejects_giant_nnz_header_without_allocating() {
        // A header claiming u64::MAX nonzeros must fail fast on the
        // sanity cap, not attempt a multi-GiB reservation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("nonzero count")), "{err}");
    }

    #[test]
    fn binary_rejects_out_of_range_dimension() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("dimension")), "{err}");
    }

    #[test]
    fn binary_rejects_index_beyond_declared_dimension() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // index 7 in a dim-3 mode
        buf.extend_from_slice(&1.0f64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("exceeds")), "{err}");
    }

    #[test]
    fn binary_lying_nnz_with_truncated_body_errors_cleanly() {
        // Plausible-but-wrong nnz (1000) with only one entry's worth of
        // data: the reader must surface a clean I/O error, not panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&10u64.to_le_bytes());
        buf.extend_from_slice(&1000u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
    }

    #[test]
    fn binary_round_trip_exact() {
        let t = toy();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGICristretto"[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir();
        let t = toy();
        let tns = dir.join("adatm_io_test.tns");
        let bin = dir.join("adatm_io_test.adtm");
        write_tns_file(&t, &tns).unwrap();
        write_binary_file(&t, &bin).unwrap();
        let a = read_tns_file(&tns).unwrap();
        let b = read_binary_file(&bin).unwrap();
        assert_eq!(a.nnz(), t.nnz());
        assert_eq!(b, t);
        let _ = std::fs::remove_file(tns);
        let _ = std::fs::remove_file(bin);
    }
}
