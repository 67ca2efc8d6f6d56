//! The run fingerprint printed with every result, so that numbers taken
//! on different machines, thread counts or inputs are never compared as
//! if one were a change of the other.

use adatm::SparseTensor;
use std::path::Path;

/// The CPU model named by `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The type of the filesystem holding `dir`: the mount in
/// `/proc/self/mountinfo` with the longest mount point containing it.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options
        // [optional...] - fstype source super-options
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The fingerprint as one JSON object.
pub fn fingerprint(threads: usize, seed: u64, t: &SparseTensor, work: &Path) -> String {
    let fs = filesystem_of(work);
    // The benchmark writes only inside its checkout, so the work directory
    // is on tmpfs only when the checkout is.
    let work_fs =
        if fs == "tmpfs" { fs } else { format!("{fs} (fallback: checkout is not on tmpfs)") };
    let dims: Vec<String> = t.dims().iter().map(usize::to_string).collect();
    format!(
        "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"build_profile\": {}, \"threads\": {}, \"seed\": {}, \"nnz\": {}, \"dims\": [{}], \"work_fs\": {}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        json_str(&cpu_model()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        threads,
        seed,
        t.nnz(),
        dims.join(", "),
        json_str(&work_fs),
    )
}
