//! Durable CP-ALS checkpoints: versioned, checksummed, atomically
//! rotated snapshots of the solver's full iteration state.
//!
//! A long-running decomposition job that dies at iteration 39 of 40
//! should not lose everything. This module gives the driver a
//! crash-consistent store it can write at iteration boundaries and
//! reload after a kill, with [`CpAls::resume_from`](crate::CpAls::resume_from)
//! continuing the run **bitwise-identically** to an uninterrupted one:
//! every piece of state the iteration loop reads — factors, lambdas,
//! the fit history the stall/divergence detectors look at, the
//! last-good rollback snapshot, the recovery counters that derive
//! reseed RNG streams — is captured. (The workspace has no hidden RNG
//! state: every random draw is derived deterministically from the run
//! seed plus counters, all of which are stored here.)
//!
//! # On-disk format (version 2, all little-endian)
//!
//! ```text
//! header  (24 bytes): magic "ADTMCKPT" | version u32 | payload_len u64 | crc32 u32
//! payload: rule u8 (0 = ALS, 1 = NCP)
//!          | seed u64 | next_iter u64 | rank u64 | ndim u64
//!          | per mode: nrows u64, nrows*rank f64          (factor data)
//!          | rank f64                                     (lambda)
//!          | len u64, len f64                             (fit history)
//!          | best_fit f64 | recoveries u64 | rollbacks_left u64
//!          | stall_recorded u8 | elapsed_ns u64
//!          | has_last_good u8 [ rank f64 lambda, per mode nrows*rank f64 ]
//! ```
//!
//! The CRC32 (IEEE, reflected) covers the payload; the `payload_len`
//! frame means truncation at *any* byte offset is detected as either
//! [`CheckpointError::Truncated`] or [`CheckpointError::ChecksumMismatch`]
//! — never a panic, never a silently-wrong model. The cached Gram
//! matrices are deliberately **not** stored: they are bitwise-pure
//! functions of the factors (`Mat::gram`) and are recomputed on resume.
//! The rule tag, added in version 2, keeps an NCP checkpoint from
//! resuming under ALS or the reverse; a version-1 file (no tag) is
//! rejected as [`CheckpointError::UnsupportedVersion`].
//!
//! # Durability protocol
//!
//! Each generation is written to `ckpt-<gen>.adtmc.tmp`, fully written
//! and fsynced, then renamed over the final name — a crash at any point
//! leaves either the previous generation intact or a complete new one.
//! The store keeps the last *K* generations ([`CheckpointConfig::keep`]);
//! [`CheckpointStore::load_latest`] scans generations newest-first and
//! falls back past corrupt ones, returning each skip as a typed
//! [`CheckpointWarning`]. All file I/O goes through the
//! [`CheckpointMedium`] seam so the `fault-inject` harness can inject
//! torn writes, bit flips, `ENOSPC`, and rename failures.
//!
//! # Writer thread
//!
//! The solver only stages a generation: [`CheckpointStore::start_write`]
//! copies the state into the store's one reused buffer (a bulk
//! little-endian copy per factor) and hands the buffer and the medium to
//! a writer thread, which checksums, writes, fsyncs, renames, syncs the
//! directory and prunes. At most one write is in flight: the next
//! [`CheckpointStore::start_write`] and [`CheckpointStore::join`] wait
//! for it, and the driver joins at the next due boundary and at the end
//! of the run (after the final watchdog write too). So a generation is
//! durable by the next due boundary or by the end of the run, and a
//! failed write surfaces at that join, tagged with its own iteration.
//! The driver's `PhaseTimings::checkpoint` counts its own thread's time:
//! staging plus joins. [`CheckpointStore::write`] is the same protocol
//! run to completion at once.

use crate::cpals::UpdateRule;
use adatm_linalg::Mat;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File magic for checkpoint files.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"ADTMCKPT";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Extension used for finalized checkpoint generations.
pub const CHECKPOINT_EXT: &str = "adtmc";

const HEADER_LEN: usize = 24;

/// Extra capacity reserved beyond the exact encoded size so the growing
/// fit history does not force a buffer reallocation on every write.
const HISTORY_SLACK: usize = 4096;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected). Slicing-by-16 over sixteen derived
// tables, no dependencies. Every lookup index is a byte, so it is always
// below 256.
// ---------------------------------------------------------------------

/// Bytes one slicing step folds.
const SLICE: usize = 16;

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[s][i]` advances
/// entry `i` of table `s - 1` by one more zero byte, so one lookup in
/// each table folds sixteen input bytes at once.
const fn build_crc_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut s = 1;
        while s < SLICE {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            s += 1;
        }
        i += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; SLICE] = build_crc_tables();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut blocks = bytes.chunks_exact(SLICE);
    for block in &mut blocks {
        let mut b = [0u8; SLICE];
        b.copy_from_slice(block);
        // The running CRC folds into the first four bytes; byte `k` of
        // the block is then advanced by the `15 - k` bytes after it.
        let head = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
        c = t[15][head[0] as usize]
            ^ t[14][head[1] as usize]
            ^ t[13][head[2] as usize]
            ^ t[12][head[3] as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a checkpoint could not be written, read, or resumed from.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// A filesystem operation failed. The original [`std::io::Error`] is
    /// flattened to its kind + message so this error stays `Clone` and
    /// comparable for callers.
    Io {
        /// Which operation failed (`create_dir`, `persist`, `rename`, ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The I/O error kind (e.g. [`std::io::ErrorKind::StorageFull`]).
        kind: std::io::ErrorKind,
        /// The I/O error message.
        msg: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not the one this build reads: an
    /// older format (version 1 predates the update-rule tag) or a newer
    /// one.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file is shorter than its header or declared payload.
    Truncated {
        /// Bytes the header (or declared payload) requires.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// CRC32 declared in the header.
        expected: u32,
        /// CRC32 computed over the payload.
        found: u32,
    },
    /// The payload is structurally inconsistent (a CRC-valid payload can
    /// only reach this via a hand-crafted file).
    Malformed {
        /// What was inconsistent.
        what: &'static str,
    },
    /// The checkpoint directory holds no checkpoint files.
    NoCheckpoints {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// Every generation in the directory failed to decode.
    AllCorrupt {
        /// The directory scanned.
        dir: PathBuf,
        /// How many generations were tried.
        tried: usize,
    },
    /// The checkpoint is internally consistent but does not match the
    /// tensor/options it is being resumed against.
    Mismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
}

impl CheckpointError {
    fn io(op: &'static str, path: &Path, e: &std::io::Error) -> Self {
        CheckpointError::Io { op, path: path.to_path_buf(), kind: e.kind(), msg: e.to_string() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { op, path, kind, msg } => {
                write!(f, "checkpoint {op} failed for {}: {msg} ({kind:?})", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (this build reads {CHECKPOINT_VERSION})")
            }
            CheckpointError::Truncated { expected, found } => {
                write!(f, "checkpoint truncated: need {expected} bytes, have {found}")
            }
            CheckpointError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            CheckpointError::Malformed { what } => {
                write!(f, "malformed checkpoint payload: {what}")
            }
            CheckpointError::NoCheckpoints { dir } => {
                write!(f, "no checkpoint generations in {}", dir.display())
            }
            CheckpointError::AllCorrupt { dir, tried } => {
                write!(f, "all {tried} checkpoint generations in {} are corrupt", dir.display())
            }
            CheckpointError::Mismatch { what } => {
                write!(f, "checkpoint does not match this run: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A corrupt generation skipped during [`CheckpointStore::load_latest`]'s
/// newest-first fallback scan.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointWarning {
    /// The generation file that failed to decode.
    pub path: PathBuf,
    /// Its generation number.
    pub generation: u64,
    /// Why it was rejected.
    pub error: CheckpointError,
}

// ---------------------------------------------------------------------
// Checkpoint state (owned + borrowed views)
// ---------------------------------------------------------------------

/// A decoded checkpoint: everything the CP-ALS loop needs to continue a
/// run bitwise-identically to one that was never interrupted.
#[derive(Clone, Debug, PartialEq)]
pub struct CpCheckpoint {
    /// The update rule that wrote the checkpoint; a resume under any
    /// other rule is a [`CheckpointError::Mismatch`].
    pub rule: UpdateRule,
    /// The run's initialization seed (all reseed streams derive from it).
    pub seed: u64,
    /// The next outer iteration to execute (= completed iterations).
    pub next_iter: usize,
    /// Column scales.
    pub lambda: Vec<f64>,
    /// Factor matrices, one per mode (`I_d x R`).
    pub factors: Vec<Mat>,
    /// Fit after each completed iteration (the stall/divergence
    /// detectors read this, so restoring it keeps them from
    /// mistriggering after a restart).
    pub fit_history: Vec<f64>,
    /// Best fit seen so far (`-inf` before the first fit).
    pub best_fit: f64,
    /// Recoveries applied before the checkpoint (rollback reseed streams
    /// derive from this counter).
    pub recoveries: usize,
    /// Rollback budget remaining.
    pub rollbacks_left: usize,
    /// Whether the stall detector already fired (it records once).
    pub stall_recorded: bool,
    /// Wall-clock nanoseconds spent before the checkpoint (informational).
    pub elapsed_ns: u64,
    /// The last-good rollback snapshot (lambda + factors), if one
    /// existed. Grams are recomputed from the factors on resume.
    pub last_good: Option<(Vec<f64>, Vec<Mat>)>,
}

impl CpCheckpoint {
    /// Decomposition rank.
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Mode dimensions implied by the factor shapes.
    pub fn dims(&self) -> Vec<usize> {
        self.factors.iter().map(Mat::nrows).collect()
    }

    /// Borrowing view for encoding.
    pub fn as_view(&self) -> CheckpointView<'_> {
        CheckpointView {
            rule: self.rule,
            seed: self.seed,
            next_iter: self.next_iter,
            lambda: &self.lambda,
            factors: &self.factors,
            fit_history: &self.fit_history,
            best_fit: self.best_fit,
            recoveries: self.recoveries,
            rollbacks_left: self.rollbacks_left,
            stall_recorded: self.stall_recorded,
            elapsed_ns: self.elapsed_ns,
            last_good: self.last_good.as_ref().map(|(l, f)| (l.as_slice(), f.as_slice())),
        }
    }

    /// Encodes into a fresh buffer (convenience for tests/tools; the
    /// driver reuses [`CheckpointStore`]'s buffer instead).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_into(&self.as_view(), &mut buf);
        buf
    }

    /// Decodes a checkpoint from `bytes`, verifying magic, version,
    /// length framing, and payload checksum. Never panics on arbitrary
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        decode(bytes)
    }
}

/// A borrowed view of live solver state, serialized without copying it
/// into an owned [`CpCheckpoint`] first.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointView<'a> {
    /// See [`CpCheckpoint::rule`].
    pub rule: UpdateRule,
    /// See [`CpCheckpoint::seed`].
    pub seed: u64,
    /// See [`CpCheckpoint::next_iter`].
    pub next_iter: usize,
    /// See [`CpCheckpoint::lambda`].
    pub lambda: &'a [f64],
    /// See [`CpCheckpoint::factors`].
    pub factors: &'a [Mat],
    /// See [`CpCheckpoint::fit_history`].
    pub fit_history: &'a [f64],
    /// See [`CpCheckpoint::best_fit`].
    pub best_fit: f64,
    /// See [`CpCheckpoint::recoveries`].
    pub recoveries: usize,
    /// See [`CpCheckpoint::rollbacks_left`].
    pub rollbacks_left: usize,
    /// See [`CpCheckpoint::stall_recorded`].
    pub stall_recorded: bool,
    /// See [`CpCheckpoint::elapsed_ns`].
    pub elapsed_ns: u64,
    /// See [`CpCheckpoint::last_good`].
    pub last_good: Option<(&'a [f64], &'a [Mat])>,
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// Writes fields front to back into a buffer sized for them up front.
struct Put<'a> {
    rest: &'a mut [u8],
}

impl Put<'_> {
    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> &mut [u8] {
        let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(n);
        self.rest = tail;
        head
    }

    fn u8(&mut self, v: u8) {
        self.take(1).copy_from_slice(&[v]);
    }

    fn u64(&mut self, v: u64) {
        self.take(8).copy_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `vs` as little-endian bytes, in one pass over the slice.
    fn f64s(&mut self, vs: &[f64]) {
        for (out, v) in self.take(vs.len() * 8).chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }
}

fn payload_size(view: &CheckpointView<'_>) -> usize {
    let rank = view.lambda.len();
    let factor_bytes: usize = view.factors.iter().map(|m| 8 + m.as_slice().len() * 8).sum();
    let mut n = 1 + 8 * 4 + factor_bytes + rank * 8;
    n += 8 + view.fit_history.len() * 8 + 8 + 8 + 8 + 1 + 8 + 1;
    if let Some((l, fs)) = view.last_good {
        n += l.len() * 8 + fs.iter().map(|m| m.as_slice().len() * 8).sum::<usize>();
    }
    n
}

/// Serializes `view` into `buf` (header + checksummed payload),
/// replacing its contents: [`stage_into`], then [`seal`].
pub fn encode_into(view: &CheckpointView<'_>, buf: &mut Vec<u8>) {
    stage_into(view, buf);
    seal(buf);
}

/// Stages `view` into `buf`: the header's magic, version and length and
/// the whole payload, everything but the checksum ([`seal`] adds it). The
/// buffer is resized, never shrunk in capacity, so a store reusing one
/// buffer allocates nothing here once warm.
#[adatm::hot]
pub fn stage_into(view: &CheckpointView<'_>, buf: &mut Vec<u8>) {
    debug_assert!(view.factors.iter().all(|m| m.ncols() == view.lambda.len()));
    let plen = payload_size(view);
    if buf.capacity() < HEADER_LEN + plen {
        buf.reserve(HEADER_LEN + plen + HISTORY_SLACK - buf.len());
    }
    // Only bytes past the previous length are zeroed; every byte is
    // written below.
    buf.resize(HEADER_LEN + plen, 0);
    let (header, payload) = buf.split_at_mut(HEADER_LEN);
    let mut h = Put { rest: header };
    h.take(8).copy_from_slice(CHECKPOINT_MAGIC);
    h.take(4).copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    h.u64(plen as u64);
    let mut p = Put { rest: payload };
    p.u8(match view.rule {
        UpdateRule::Als => 0,
        UpdateRule::Ncp => 1,
    });
    p.u64(view.seed);
    p.u64(view.next_iter as u64);
    p.u64(view.lambda.len() as u64);
    p.u64(view.factors.len() as u64);
    for m in view.factors {
        p.u64(m.nrows() as u64);
        p.f64s(m.as_slice());
    }
    p.f64s(view.lambda);
    p.u64(view.fit_history.len() as u64);
    p.f64s(view.fit_history);
    p.f64(view.best_fit);
    p.u64(view.recoveries as u64);
    p.u64(view.rollbacks_left as u64);
    p.u8(view.stall_recorded as u8);
    p.u64(view.elapsed_ns);
    match view.last_good {
        None => p.u8(0),
        Some((l, fs)) => {
            p.u8(1);
            p.f64s(l);
            for m in fs {
                p.f64s(m.as_slice());
            }
        }
    }
    debug_assert!(p.rest.is_empty() && h.rest.len() == 4);
}

/// Completes a buffer [`stage_into`] filled: the CRC32 of its payload
/// goes into the header's last four bytes.
pub fn seal(buf: &mut [u8]) {
    let crc = crc32(buf.split_at(HEADER_LEN).1);
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Bounds-checked cursor over the (CRC-verified) payload.
struct Cursor<'a> {
    rest: &'a [u8],
    taken: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.rest.len() < n {
            return Err(CheckpointError::Truncated {
                expected: self.taken + n,
                found: self.taken + self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        self.taken += n;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn count(&mut self, what: &'static str) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        let n = usize::try_from(v).map_err(|_| CheckpointError::Malformed { what })?;
        // Any count must be backed by at least one byte per element of
        // remaining payload; this rejects absurd values before they can
        // drive a huge allocation.
        if n > self.rest.len() {
            return Err(CheckpointError::Malformed { what });
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(*self.take(1)?.first().unwrap_or(&0))
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or(CheckpointError::Malformed { what: "vector length overflow" })?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                f64::from_le_bytes(a)
            })
            .collect())
    }
}

fn decode(bytes: &[u8]) -> Result<CpCheckpoint, CheckpointError> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated { expected: HEADER_LEN, found: bytes.len() });
    }
    let (header, body) = bytes.split_at(HEADER_LEN);
    let (magic, rest) = header.split_at(8);
    if magic != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let (vbytes, rest) = rest.split_at(4);
    let mut v4 = [0u8; 4];
    v4.copy_from_slice(vbytes);
    let version = u32::from_le_bytes(v4);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let (lbytes, cbytes) = rest.split_at(8);
    let mut l8 = [0u8; 8];
    l8.copy_from_slice(lbytes);
    let plen = usize::try_from(u64::from_le_bytes(l8))
        .map_err(|_| CheckpointError::Malformed { what: "payload length overflow" })?;
    let mut c4 = [0u8; 4];
    c4.copy_from_slice(cbytes);
    let expected_crc = u32::from_le_bytes(c4);
    if body.len() < plen {
        return Err(CheckpointError::Truncated { expected: HEADER_LEN + plen, found: bytes.len() });
    }
    let payload = body.split_at(plen).0;
    let found_crc = crc32(payload);
    if found_crc != expected_crc {
        return Err(CheckpointError::ChecksumMismatch { expected: expected_crc, found: found_crc });
    }

    let mut cur = Cursor { rest: payload, taken: 0 };
    let rule = match cur.u8()? {
        0 => UpdateRule::Als,
        1 => UpdateRule::Ncp,
        _ => return Err(CheckpointError::Malformed { what: "update rule" }),
    };
    let seed = cur.u64()?;
    let next_iter = usize::try_from(cur.u64()?)
        .map_err(|_| CheckpointError::Malformed { what: "iteration counter overflow" })?;
    let rank = cur.count("rank")?;
    let ndim = cur.count("ndim")?;
    let mut nrows = Vec::with_capacity(ndim);
    let mut factors = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let rows = cur.count("factor rows")?;
        let data = cur.f64s(
            rows.checked_mul(rank)
                .ok_or(CheckpointError::Malformed { what: "factor size overflow" })?,
        )?;
        nrows.push(rows);
        factors.push(Mat::from_vec(rows, rank, data));
    }
    let lambda = cur.f64s(rank)?;
    let fit_len = cur.count("fit history length")?;
    let fit_history = cur.f64s(fit_len)?;
    let best_fit = cur.f64()?;
    let recoveries = usize::try_from(cur.u64()?)
        .map_err(|_| CheckpointError::Malformed { what: "recovery counter overflow" })?;
    let rollbacks_left = usize::try_from(cur.u64()?)
        .map_err(|_| CheckpointError::Malformed { what: "rollback budget overflow" })?;
    let stall_recorded = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Malformed { what: "stall flag" }),
    };
    let elapsed_ns = cur.u64()?;
    let last_good = match cur.u8()? {
        0 => None,
        1 => {
            let l = cur.f64s(rank)?;
            let mut fs = Vec::with_capacity(ndim);
            for &rows in &nrows {
                let data = cur.f64s(rows * rank)?;
                fs.push(Mat::from_vec(rows, rank, data));
            }
            Some((l, fs))
        }
        _ => return Err(CheckpointError::Malformed { what: "last-good flag" }),
    };
    if !cur.rest.is_empty() {
        return Err(CheckpointError::Malformed { what: "trailing payload bytes" });
    }
    Ok(CpCheckpoint {
        rule,
        seed,
        next_iter,
        lambda,
        factors,
        fit_history,
        best_fit,
        recoveries,
        rollbacks_left,
        stall_recorded,
        elapsed_ns,
        last_good,
    })
}

// ---------------------------------------------------------------------
// Storage medium (the fault-injection seam)
// ---------------------------------------------------------------------

/// The file-I/O seam the checkpoint store writes through. The default
/// [`FsMedium`] talks to the real filesystem; the `fault-inject`
/// feature's `FaultyMedium` wraps it to inject torn writes, bit flips,
/// `ENOSPC`, and rename failures on a deterministic schedule.
pub trait CheckpointMedium: std::fmt::Debug + Send {
    /// Creates `path`, writes all of `bytes`, and flushes it to stable
    /// storage (fsync).
    fn persist(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Atomically replaces `to` with `from`, durably: once this returns,
    /// a crash leaves `to` holding the new contents.
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()>;
}

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsMedium;

impl CheckpointMedium for FsMedium {
    fn persist(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        fs::rename(from, to)?;
        // The rename lives in the directory entry: sync the directory so
        // the new generation survives a crash before older ones are
        // pruned.
        let dir = match to.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        fs::File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

/// Factory producing the medium a run's store writes through (the
/// indirection keeps [`CheckpointConfig`] `Clone` while media are
/// stateful).
#[cfg(feature = "fault-inject")]
pub type MediumFactory = std::sync::Arc<dyn Fn() -> Box<dyn CheckpointMedium> + Send + Sync>;

/// Checkpoint cadence and retention, carried by
/// [`CpAlsOptions`](crate::CpAlsOptions).
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Directory holding the generation files (created if absent).
    pub dir: PathBuf,
    /// Write every N completed iterations (`None`: no count cadence).
    pub every_iters: Option<usize>,
    /// Write when at least this much wall-clock has passed since the
    /// last write (`None`: no time cadence). When neither cadence is
    /// set, the driver writes after every iteration.
    pub every: Option<std::time::Duration>,
    /// Generations to retain (older ones are pruned after each write).
    pub keep: usize,
    /// Injected storage medium for the fault harness (`None`: real fs).
    #[cfg(feature = "fault-inject")]
    pub medium_factory: Option<MediumFactory>,
}

impl std::fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("CheckpointConfig");
        d.field("dir", &self.dir)
            .field("every_iters", &self.every_iters)
            .field("every", &self.every)
            .field("keep", &self.keep);
        #[cfg(feature = "fault-inject")]
        d.field("medium_factory", &self.medium_factory.as_ref().map(|_| "injected"));
        d.finish()
    }
}

impl CheckpointConfig {
    /// A config writing to `dir` after every iteration, keeping the last
    /// 3 generations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_iters: None,
            every: None,
            keep: 3,
            #[cfg(feature = "fault-inject")]
            medium_factory: None,
        }
    }

    /// Sets the iteration-count cadence (0 is treated as 1).
    pub fn every_iters(mut self, n: usize) -> Self {
        self.every_iters = Some(n.max(1));
        self
    }

    /// Sets the wall-clock cadence.
    pub fn every(mut self, dt: std::time::Duration) -> Self {
        self.every = Some(dt);
        self
    }

    /// Sets the number of generations to retain (minimum 1).
    pub fn keep(mut self, k: usize) -> Self {
        self.keep = k.max(1);
        self
    }

    /// Injects a storage medium for fault testing.
    #[cfg(feature = "fault-inject")]
    pub fn medium_factory(mut self, f: MediumFactory) -> Self {
        self.medium_factory = Some(f);
        self
    }

    /// Opens the store this config describes (creating the directory).
    pub fn build_store(&self) -> Result<CheckpointStore, CheckpointError> {
        #[cfg(feature = "fault-inject")]
        if let Some(factory) = &self.medium_factory {
            return Ok(CheckpointStore::with_medium(&self.dir, factory())?.keep(self.keep));
        }
        Ok(CheckpointStore::create(&self.dir)?.keep(self.keep))
    }
}

// ---------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------

/// A successfully loaded checkpoint plus the fallback trail that led to
/// it.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeOutcome {
    /// The newest decodable checkpoint.
    pub checkpoint: CpCheckpoint,
    /// The file it was read from.
    pub path: PathBuf,
    /// Its generation number.
    pub generation: u64,
    /// Newer generations that were corrupt and skipped (typed warnings,
    /// newest first). Empty when the newest generation was healthy.
    pub fallbacks: Vec<CheckpointWarning>,
}

/// A rotated, atomically written store of checkpoint generations in one
/// directory. Files are named `ckpt-<generation>.adtmc`; writes reuse
/// one serialization buffer so the steady-state iteration-boundary path
/// performs no per-checkpoint buffer allocation. Writes finish on a
/// writer thread, one at a time (see the module docs).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    next_gen: u64,
    /// The staging buffer; with the writer while a write is in flight.
    buf: Vec<u8>,
    /// The medium; with the writer while a write is in flight, and gone
    /// only if the writer died holding it.
    medium: Option<Box<dyn CheckpointMedium>>,
    /// The writer thread, started by the first write.
    writer: Option<Writer>,
    /// The write handed out and not yet joined.
    pending: Option<Ticket>,
}

/// How one checkpoint write ended, reported when it is joined.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteReport {
    /// The iteration counter the generation records
    /// ([`CpCheckpoint::next_iter`]).
    pub next_iter: usize,
    /// The generation number it was written as.
    pub generation: u64,
    /// Encoded bytes.
    pub bytes: usize,
    /// Time spent staging plus the writer's time to make it durable.
    pub elapsed: Duration,
    /// `Ok` once durable; otherwise why it is not (earlier generations
    /// are untouched).
    pub result: Result<(), CheckpointError>,
}

/// A write handed to the writer: the staged bytes, the medium, and where
/// the generation goes.
struct Job {
    buf: Vec<u8>,
    medium: Box<dyn CheckpointMedium>,
    tmp: PathBuf,
    fin: PathBuf,
    keep: usize,
}

/// A finished [`Job`]: the buffer and medium come back with the outcome.
struct Landed {
    buf: Vec<u8>,
    medium: Box<dyn CheckpointMedium>,
    result: Result<(), CheckpointError>,
    elapsed: Duration,
}

impl Job {
    /// Seals, persists (write + fsync) and renames the generation, then
    /// prunes the store's `dir` to `keep` generations. A failure removes
    /// the temp file (best-effort) and leaves earlier generations as they
    /// were.
    fn run(self, dir: &Path) -> Landed {
        let t0 = Instant::now();
        let Job { mut buf, mut medium, tmp, fin, keep } = self;
        seal(&mut buf);
        let result = medium
            .persist(&tmp, &buf)
            .map_err(|e| CheckpointError::io("persist", &tmp, &e))
            .and_then(|()| {
                medium.rename(&tmp, &fin).map_err(|e| CheckpointError::io("rename", &fin, &e))
            });
        match result {
            Ok(()) => prune(dir, keep),
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
        Landed { buf, medium, result, elapsed: t0.elapsed() }
    }
}

/// The writer thread: jobs in, finished jobs out, in order.
#[derive(Debug)]
struct Writer {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<Landed>,
    handle: JoinHandle<()>,
}

impl Writer {
    /// Starts the thread for the store over `dir`; `None` if the system
    /// cannot start one.
    fn spawn(dir: &Path) -> Option<Writer> {
        let (jobs, inbox) = mpsc::channel::<Job>();
        let (outbox, done) = mpsc::channel();
        let dir = dir.to_path_buf();
        let handle = std::thread::Builder::new()
            .name("adatm-checkpoint".into())
            .spawn(move || {
                for job in inbox {
                    if outbox.send(job.run(&dir)).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(Writer { jobs, done, handle })
    }
}

/// The write in flight: what its report will say, and its result when
/// it already ran on the caller's thread (no writer could take it).
#[derive(Debug)]
struct Ticket {
    next_iter: usize,
    generation: u64,
    bytes: usize,
    staging: Duration,
    landed: Option<(Result<(), CheckpointError>, Duration)>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("tmp", &self.tmp).field("bytes", &self.buf.len()).finish()
    }
}

impl std::fmt::Debug for Landed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Landed").field("result", &self.result).finish()
    }
}

/// Removes generations of `dir` beyond the retention count `keep`
/// (best-effort: a prune failure never fails the write that triggered
/// it).
fn prune(dir: &Path, keep: usize) {
    let Ok(gens) = scan_generations(dir) else { return };
    let n = gens.len();
    if n <= keep {
        return;
    }
    for (_, path) in gens.iter().take(n - keep) {
        let _ = fs::remove_file(path);
    }
}

fn scan_generations(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| CheckpointError::io("read_dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::io("read_dir", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("ckpt-").and_then(|s| s.strip_suffix(".adtmc")) else {
            continue;
        };
        let Ok(generation) = stem.parse::<u64>() else { continue };
        out.push((generation, entry.path()));
    }
    out.sort_unstable_by_key(|(g, _)| *g);
    Ok(out)
}

impl CheckpointStore {
    /// Opens (creating if needed) a store over `dir` with the real
    /// filesystem medium. Existing generations are preserved; new writes
    /// continue the generation sequence after the newest one found.
    pub fn create(dir: &Path) -> Result<Self, CheckpointError> {
        Self::with_medium(dir, Box::new(FsMedium))
    }

    /// Opens a store writing through an injected medium.
    pub fn with_medium(
        dir: &Path,
        medium: Box<dyn CheckpointMedium>,
    ) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| CheckpointError::io("create_dir", dir, &e))?;
        let next_gen = scan_generations(dir)?.last().map_or(0, |(g, _)| g + 1);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            keep: 3,
            next_gen,
            buf: Vec::new(),
            medium: Some(medium),
            writer: None,
            pending: None,
        })
    }

    /// Sets the retention count (minimum 1).
    pub fn keep(mut self, k: usize) -> Self {
        self.keep = k.max(1);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The generation number the next write will get.
    pub fn next_generation(&self) -> u64 {
        self.next_gen
    }

    fn paths(&self, generation: u64) -> (PathBuf, PathBuf) {
        let fin = self.dir.join(format!("ckpt-{generation:012}.adtmc"));
        let tmp = self.dir.join(format!("ckpt-{generation:012}.adtmc.tmp"));
        (tmp, fin)
    }

    /// Writes one generation and waits until it is durable (or failed):
    /// [`CheckpointStore::start_write`], then [`CheckpointStore::join`].
    /// Returns `(generation, encoded_bytes)`. A write already in flight
    /// is waited for first; its report is not returned here.
    ///
    /// A failed write leaves previous generations untouched (the temp
    /// file is removed best-effort) — the caller can treat the error as
    /// non-fatal and keep iterating.
    pub fn write(&mut self, view: &CheckpointView<'_>) -> Result<(u64, usize), CheckpointError> {
        self.start_write(view);
        match self.join() {
            Some(r) => r.result.map(|()| (r.generation, r.bytes)),
            None => Err(CheckpointError::Malformed { what: "no write in flight" }),
        }
    }

    /// Stages one generation into the reused buffer and hands it to the
    /// writer thread, which seals, persists (write + fsync), renames,
    /// syncs the directory and prunes. Waits first for the write in
    /// flight, if any, and returns its report. Where no thread can be
    /// started, the write runs to completion here instead.
    #[adatm::hot]
    pub fn start_write(&mut self, view: &CheckpointView<'_>) -> Option<WriteReport> {
        let previous = self.join();
        let t0 = Instant::now();
        let generation = self.next_gen;
        let (tmp, fin) = self.paths(generation);
        let mut ticket = Ticket {
            next_iter: view.next_iter,
            generation,
            bytes: 0,
            staging: Duration::ZERO,
            landed: None,
        };
        let Some(medium) = self.medium.take() else {
            let lost = CheckpointError::Io {
                op: "write",
                path: tmp,
                kind: std::io::ErrorKind::BrokenPipe,
                msg: "the checkpoint writer thread died holding the medium".into(),
            };
            ticket.landed = Some((Err(lost), Duration::ZERO));
            self.pending = Some(ticket);
            return previous;
        };
        let mut buf = std::mem::take(&mut self.buf);
        stage_into(view, &mut buf);
        ticket.bytes = buf.len();
        ticket.staging = t0.elapsed();
        let job = Job { buf, medium, tmp, fin, keep: self.keep };
        if self.writer.is_none() {
            self.writer = Writer::spawn(&self.dir);
        }
        let unsent = match &self.writer {
            Some(w) => w.jobs.send(job).err().map(|e| e.0),
            None => Some(job),
        };
        if let Some(job) = unsent {
            // No writer to take it: finish it on this thread.
            let landed = job.run(&self.dir);
            self.buf = landed.buf;
            self.medium = Some(landed.medium);
            ticket.landed = Some((landed.result, landed.elapsed));
        }
        self.pending = Some(ticket);
        previous
    }

    /// Waits for the write in flight, if any, and reports how it ended;
    /// `None` when nothing was in flight.
    pub fn join(&mut self) -> Option<WriteReport> {
        let ticket = self.pending.take()?;
        let (result, elapsed) = match ticket.landed {
            Some(done) => done,
            None => match self.writer.as_ref().map(|w| w.done.recv()) {
                Some(Ok(landed)) => {
                    self.buf = landed.buf;
                    self.medium = Some(landed.medium);
                    (landed.result, landed.elapsed)
                }
                _ => {
                    // The writer died with the job (a panicking medium).
                    self.writer = None;
                    let (_, fin) = self.paths(ticket.generation);
                    let lost = CheckpointError::Io {
                        op: "write",
                        path: fin,
                        kind: std::io::ErrorKind::BrokenPipe,
                        msg: "the checkpoint writer thread died".into(),
                    };
                    (Err(lost), Duration::ZERO)
                }
            },
        };
        if result.is_ok() {
            self.next_gen = ticket.generation + 1;
        }
        let elapsed = ticket.staging + elapsed;
        adatm_trace::event!(
            "checkpoint.write",
            iter: ticket.next_iter as u64,
            gen: ticket.generation,
            bytes: ticket.bytes as u64,
            elapsed_ns: elapsed.as_nanos() as u64
        );
        Some(WriteReport {
            next_iter: ticket.next_iter,
            generation: ticket.generation,
            bytes: ticket.bytes,
            elapsed,
            result,
        })
    }

    /// Loads the newest decodable generation from `dir`, falling back
    /// past corrupt ones (each skip recorded as a typed
    /// [`CheckpointWarning`]).
    pub fn load_latest(dir: &Path) -> Result<ResumeOutcome, CheckpointError> {
        // A directory that does not exist yet has no checkpoints — that
        // is a `NoCheckpoints` answer, not a filesystem failure.
        if !dir.exists() {
            return Err(CheckpointError::NoCheckpoints { dir: dir.to_path_buf() });
        }
        let mut gens = scan_generations(dir)?;
        if gens.is_empty() {
            return Err(CheckpointError::NoCheckpoints { dir: dir.to_path_buf() });
        }
        gens.reverse(); // newest first
        let tried = gens.len();
        let mut fallbacks = Vec::new();
        for (generation, path) in gens {
            let attempt = fs::read(&path)
                .map_err(|e| CheckpointError::io("read", &path, &e))
                .and_then(|bytes| decode(&bytes));
            match attempt {
                Ok(checkpoint) => {
                    adatm_trace::event!(
                        "checkpoint.resume",
                        iter: checkpoint.next_iter as u64,
                        gen: generation,
                        fallbacks: fallbacks.len() as u64
                    );
                    return Ok(ResumeOutcome { checkpoint, path, generation, fallbacks });
                }
                Err(error) => fallbacks.push(CheckpointWarning { path, generation, error }),
            }
        }
        Err(CheckpointError::AllCorrupt { dir: dir.to_path_buf(), tried })
    }

    #[cfg(test)]
    fn buf_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl Drop for CheckpointStore {
    /// Waits for the write in flight, then stops the writer thread.
    fn drop(&mut self) {
        let _ = self.join();
        if let Some(Writer { jobs, done, handle }) = self.writer.take() {
            drop((jobs, done));
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table-driven CRC the slicing-by-8 form must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_known_answer_and_the_bytewise_form() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    fn sample_checkpoint(dims: &[usize], rank: usize, seed: u64, hist: usize) -> CpCheckpoint {
        let factors: Vec<Mat> =
            dims.iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed ^ d as u64)).collect();
        let lambda: Vec<f64> = (0..rank).map(|r| 1.0 + r as f64 * 0.25).collect();
        let fit_history: Vec<f64> = (0..hist).map(|i| 0.5 + i as f64 * 1e-3).collect();
        let best_fit = fit_history.last().copied().unwrap_or(f64::NEG_INFINITY);
        CpCheckpoint {
            rule: UpdateRule::Als,
            seed,
            next_iter: hist,
            last_good: if hist > 0 { Some((lambda.clone(), factors.clone())) } else { None },
            lambda,
            factors,
            fit_history,
            best_fit,
            recoveries: 2,
            rollbacks_left: 6,
            stall_recorded: hist > 8,
            elapsed_ns: 123_456_789,
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adatm-ckpt-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_bitwise_identical() {
        for rule in [UpdateRule::Als, UpdateRule::Ncp] {
            let ck = CpCheckpoint { rule, ..sample_checkpoint(&[7, 5, 6], 3, 42, 9) };
            let bytes = ck.encode();
            let back = CpCheckpoint::decode(&bytes).unwrap();
            assert_eq!(ck, back);
        }
    }

    #[test]
    fn unknown_rule_tag_is_malformed() {
        let mut bytes = sample_checkpoint(&[3, 4], 2, 1, 2).encode();
        // The tag is the first payload byte; re-seal the CRC so the
        // decoder reaches it.
        bytes[HEADER_LEN] = 2;
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[20..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            CpCheckpoint::decode(&bytes),
            Err(CheckpointError::Malformed { what: "update rule" })
        );
    }

    #[test]
    fn version_1_files_are_unsupported() {
        // Version 1 predates the rule tag: its payload cannot say which
        // rule wrote it, so it is refused rather than guessed at.
        let mut bytes = sample_checkpoint(&[3, 3], 1, 0, 1).encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            CpCheckpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 1 })
        );
    }

    #[test]
    fn roundtrip_preserves_special_floats() {
        let mut ck = sample_checkpoint(&[4, 3], 2, 7, 0);
        ck.best_fit = f64::NEG_INFINITY;
        ck.fit_history = vec![-0.0, f64::MIN_POSITIVE, 1e308];
        ck.next_iter = 3;
        let back = CpCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.best_fit, f64::NEG_INFINITY);
        assert_eq!(back.fit_history[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(ck, back);
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let ck = sample_checkpoint(&[5, 4, 3], 2, 11, 6);
        let bytes = ck.encode();
        for cut in 0..bytes.len() {
            let err = CpCheckpoint::decode(&bytes[..cut])
                .expect_err(&format!("truncation at {cut}/{} must fail", bytes.len()));
            assert!(
                matches!(err, CheckpointError::Truncated { .. }),
                "cut {cut}: unexpected error {err:?}"
            );
        }
        assert!(CpCheckpoint::decode(&bytes).is_ok());
    }

    #[test]
    fn single_byte_corruption_is_detected_everywhere() {
        let ck = sample_checkpoint(&[4, 3], 2, 3, 4);
        let bytes = ck.encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match CpCheckpoint::decode(&bad) {
                Err(_) => {}
                Ok(decoded) => panic!("flip at byte {pos} decoded silently: {decoded:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let bytes = sample_checkpoint(&[3, 3], 1, 0, 1).encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(CpCheckpoint::decode(&bad), Err(CheckpointError::BadMagic)));
        let mut newer = bytes.clone();
        newer[8] = 99; // version LE byte 0
                       // Version is inside the header, not the payload, so this is a
                       // clean UnsupportedVersion, not a checksum failure.
        assert!(matches!(
            CpCheckpoint::decode(&newer),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn store_writes_rotate_and_reload() {
        let dir = tmp_dir("rotate");
        let mut store = CheckpointStore::create(&dir).unwrap().keep(2);
        for i in 0..5 {
            let mut ck = sample_checkpoint(&[6, 5], 2, 9, i);
            ck.next_iter = i;
            store.write(&ck.as_view()).unwrap();
        }
        let files = scan_generations(&dir).unwrap();
        assert_eq!(files.len(), 2, "retention keeps exactly K generations");
        assert_eq!(files[0].0, 3);
        assert_eq!(files[1].0, 4);
        let out = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(out.generation, 4);
        assert_eq!(out.checkpoint.next_iter, 4);
        assert!(out.fallbacks.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_generation_falls_back_with_typed_warning() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::create(&dir).unwrap();
        for i in 0..3 {
            let mut ck = sample_checkpoint(&[6, 5], 2, 9, i + 1);
            ck.next_iter = i + 1;
            store.write(&ck.as_view()).unwrap();
        }
        // Corrupt the newest generation mid-payload.
        let files = scan_generations(&dir).unwrap();
        let newest = &files.last().unwrap().1;
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(newest, &bytes).unwrap();

        let out = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!(out.generation, 1, "fell back to the previous generation");
        assert_eq!(out.checkpoint.next_iter, 2);
        assert_eq!(out.fallbacks.len(), 1);
        assert_eq!(out.fallbacks[0].generation, 2);
        assert!(matches!(out.fallbacks[0].error, CheckpointError::ChecksumMismatch { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_all_corrupt_dirs_are_typed_errors() {
        let dir = tmp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            CheckpointStore::load_latest(&dir),
            Err(CheckpointError::NoCheckpoints { .. })
        ));
        fs::write(dir.join("ckpt-000000000000.adtmc"), b"garbage").unwrap();
        assert!(matches!(
            CheckpointStore::load_latest(&dir),
            Err(CheckpointError::AllCorrupt { tried: 1, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_resumes_generation_numbering() {
        let dir = tmp_dir("resume-gen");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let ck = sample_checkpoint(&[4, 4], 2, 1, 1);
        store.write(&ck.as_view()).unwrap();
        drop(store);
        let store2 = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store2.next_generation(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_state_writes_reuse_the_buffer() {
        let dir = tmp_dir("steady");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let ck = sample_checkpoint(&[20, 18, 16], 4, 2, 10);
        store.write(&ck.as_view()).unwrap();
        let cap = store.buf_capacity();
        for _ in 0..10 {
            store.write(&ck.as_view()).unwrap();
        }
        assert_eq!(store.buf_capacity(), cap, "serialization buffer must be reused");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A medium whose persists wait for a go-ahead on a channel (and fail
    /// on request), so a test controls when a write in flight finishes.
    #[derive(Debug)]
    struct GatedMedium {
        go: std::sync::Mutex<mpsc::Receiver<bool>>,
    }

    impl CheckpointMedium for GatedMedium {
        fn persist(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            let ok = self.go.lock().expect("test medium lock").recv().unwrap_or(false);
            if !ok {
                return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "gated"));
            }
            FsMedium.persist(path, bytes)
        }

        fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
            FsMedium.rename(from, to)
        }
    }

    #[test]
    fn writes_finish_on_the_writer_and_report_at_the_join() {
        let dir = tmp_dir("writer");
        let (go, gate) = mpsc::channel();
        let medium = Box::new(GatedMedium { go: std::sync::Mutex::new(gate) });
        let mut store = CheckpointStore::with_medium(&dir, medium).unwrap();
        let mut ck = sample_checkpoint(&[6, 5], 2, 9, 3);
        assert_eq!(store.start_write(&ck.as_view()), None, "nothing was in flight");
        // Staged but held at the gate: not durable yet.
        assert!(scan_generations(&dir).unwrap().is_empty());
        go.send(true).unwrap();
        ck.next_iter = 4;
        go.send(false).unwrap();
        // The second write joins the first and reports it.
        let first = store.start_write(&ck.as_view()).expect("the first write was in flight");
        assert_eq!((first.next_iter, first.generation, first.result.clone()), (3, 0, Ok(())));
        assert_eq!(scan_generations(&dir).unwrap().len(), 1);
        let second = store.join().expect("the second write was in flight");
        assert_eq!(second.next_iter, 4);
        assert_eq!(second.generation, 1);
        assert!(matches!(second.result, Err(CheckpointError::Io { op: "persist", .. })));
        assert_eq!(store.join(), None);
        // A failed generation number is reused by the next write.
        go.send(true).unwrap();
        assert_eq!(store.write(&ck.as_view()), Ok((1, first.bytes)));
        drop(store);
        let out = CheckpointStore::load_latest(&dir).unwrap();
        assert_eq!((out.generation, out.checkpoint), (1, ck));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_store_waits_for_the_write_in_flight() {
        let dir = tmp_dir("drop");
        let (go, gate) = mpsc::channel();
        let medium = Box::new(GatedMedium { go: std::sync::Mutex::new(gate) });
        let mut store = CheckpointStore::with_medium(&dir, medium).unwrap();
        store.start_write(&sample_checkpoint(&[4, 4], 2, 1, 1).as_view());
        go.send(true).unwrap();
        drop(store);
        assert_eq!(scan_generations(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_roundtrip_arbitrary_shapes(
            dims in proptest::collection::vec(1usize..7, 1..5),
            rank in 1usize..5,
            hist in 0usize..12,
            seed in 0u64..=u64::MAX,
            with_last_good in (0u64..2).prop_map(|b| b == 1),
        ) {
            let mut ck = sample_checkpoint(&dims, rank, seed, hist);
            if !with_last_good {
                ck.last_good = None;
            }
            if seed & 1 == 1 {
                ck.rule = UpdateRule::Ncp;
            }
            let bytes = ck.encode();
            let back = CpCheckpoint::decode(&bytes).unwrap();
            prop_assert_eq!(ck, back);
        }

        #[test]
        fn prop_truncation_never_panics_and_always_errors(
            dims in proptest::collection::vec(1usize..5, 1..4),
            rank in 1usize..4,
            hist in 0usize..6,
            frac in 0.0f64..1.0,
        ) {
            let ck = sample_checkpoint(&dims, rank, 5, hist);
            let bytes = ck.encode();
            let cut = ((bytes.len() as f64) * frac) as usize;
            let cut = cut.min(bytes.len().saturating_sub(1));
            prop_assert!(CpCheckpoint::decode(&bytes[..cut]).is_err());
        }
    }
}
