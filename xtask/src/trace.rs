//! NDJSON trace validation for `cargo xtask trace-check`.
//!
//! Validates a trace file captured with `adatm --trace <path>` against
//! the declared registry in `adatm-trace`'s `schema` module — the same
//! tables the static schema lint in `adatm-analyze` enforces at
//! `event!`/`span_guard!` call sites. Structural rules first (every line
//! a flat JSON object, strictly increasing `seq`, properly paired and
//! nested spans), then per-line schema rules: the event kind or span
//! name must be declared, every required field must be present, no
//! undeclared field may appear, and every value's JSON shape must match
//! the declared [`FieldType`]. Pure functions over strings, unit-tested
//! without the filesystem — same philosophy as [`crate::bench`] and
//! [`crate::lints`].

use adatm_trace::schema::{self, FieldSpec, FieldType};

/// The JSON shape of one parsed field value. Numbers keep their raw
/// text (for `seq`) plus the two shape bits the schema check needs.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JsonVal {
    Str(String),
    Num { text: String, int: bool, neg: bool },
    Bool,
}

/// Whether a parsed value satisfies a declared field type. `F64` also
/// accepts strings: the emitter degrades non-finite floats to JSON
/// strings to keep the line parseable.
fn type_matches(ty: FieldType, v: &JsonVal) -> bool {
    match ty {
        FieldType::Str => matches!(v, JsonVal::Str(_)),
        FieldType::Bool => matches!(v, JsonVal::Bool),
        FieldType::U64 => matches!(v, JsonVal::Num { int: true, neg: false, .. }),
        FieldType::I64 => matches!(v, JsonVal::Num { int: true, .. }),
        FieldType::F64 => matches!(v, JsonVal::Num { .. } | JsonVal::Str(_)),
    }
}

/// Parses one flat NDJSON line into its `(key, value)` pairs. Rejects
/// nesting, `null`, and trailing garbage — the emitter produces none of
/// those.
fn parse_flat(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };
    let parse_string = |pos: &mut usize| -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&b) = bytes.get(*pos) {
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    if let Some(&esc) = bytes.get(*pos) {
                        *pos += 1;
                        out.push(esc as char);
                    }
                }
                _ => out.push(b as char),
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(format!("not a JSON object: {line}"));
    }
    pos += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut pos);
        if bytes.get(pos) == Some(&b'}') {
            pos += 1;
            break;
        }
        if !fields.is_empty() {
            if bytes.get(pos) != Some(&b',') {
                return Err(format!("expected ',' at byte {pos}"));
            }
            pos += 1;
            skip_ws(&mut pos);
        }
        let key = parse_string(&mut pos)?;
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' after key \"{key}\""));
        }
        pos += 1;
        skip_ws(&mut pos);
        let value = match bytes.get(pos) {
            Some(b'"') => JsonVal::Str(parse_string(&mut pos)?),
            Some(b't') if line[pos..].starts_with("true") => {
                pos += 4;
                JsonVal::Bool
            }
            Some(b'f') if line[pos..].starts_with("false") => {
                pos += 5;
                JsonVal::Bool
            }
            Some(b) if b.is_ascii_digit() || *b == b'-' => {
                let start = pos;
                while bytes.get(pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    pos += 1;
                }
                let text = &line[start..pos];
                JsonVal::Num {
                    text: text.to_string(),
                    int: !text.contains(['.', 'e', 'E']),
                    neg: text.starts_with('-'),
                }
            }
            _ => return Err(format!("unsupported value for key \"{key}\"")),
        };
        fields.push((key, value));
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage after object: {}", &line[pos..]));
    }
    Ok(fields)
}

/// Checks one line's fields against a declared spec list: no undeclared
/// field, every required field present, every value shape-correct.
/// `reserved` names (emitter-injected) are skipped.
fn check_fields(
    what: &str,
    fields: &[(String, JsonVal)],
    spec: &'static [FieldSpec],
    reserved: &[&str],
    lineno: usize,
    errors: &mut Vec<String>,
) {
    for (name, value) in fields {
        if reserved.contains(&name.as_str()) {
            continue;
        }
        match spec.iter().find(|f| f.name == name) {
            None => errors.push(format!(
                "line {lineno}: {what} carries undeclared field \"{name}\" — declare it in \
                 crates/trace/src/schema.rs"
            )),
            Some(f) if !type_matches(f.ty, value) => errors
                .push(format!("line {lineno}: {what} field \"{name}\" is not a {}", f.ty.name())),
            Some(_) => {}
        }
    }
    for f in spec.iter().filter(|f| f.required) {
        if !fields.iter().any(|(name, _)| name == f.name) {
            errors.push(format!("line {lineno}: {what} is missing required field \"{}\"", f.name));
        }
    }
}

/// What a valid trace contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total event lines.
    pub events: usize,
    /// Completed span pairs.
    pub spans: usize,
    /// `cpals.iter` spans (outer CP-ALS iterations traced).
    pub iterations: usize,
    /// `planner.decision` events.
    pub decisions: usize,
}

/// Validates `ndjson` and returns a summary, or every violation found.
pub fn validate(ndjson: &str) -> Result<TraceSummary, Vec<String>> {
    let mut errors = Vec::new();
    let mut summary = TraceSummary::default();
    let mut last_seq: Option<u64> = None;
    let mut stack: Vec<(String, usize)> = Vec::new();
    for (i, line) in ndjson.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        let fields = match parse_flat(line) {
            Ok(f) => f,
            Err(e) => {
                errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(JsonVal::Str(ev)) = get("ev") else {
            errors.push(format!("line {lineno}: missing or non-string \"ev\" field"));
            continue;
        };
        let ev = ev.clone();
        match get("seq").and_then(|v| match v {
            JsonVal::Num { text, int: true, neg: false } => text.parse::<u64>().ok(),
            _ => None,
        }) {
            None => errors.push(format!("line {lineno}: missing or non-u64 \"seq\" field")),
            Some(seq) => {
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        errors.push(format!(
                            "line {lineno}: seq {seq} does not increase (previous {prev})"
                        ));
                    }
                }
                last_seq = Some(seq);
            }
        }
        summary.events += 1;
        if ev == "span_open" || ev == "span_close" {
            let Some(JsonVal::Str(name)) = get("span") else {
                errors.push(format!("line {lineno}: {ev} without \"span\" name"));
                continue;
            };
            let name = name.clone();
            let what = format!("span \"{name}\"");
            match schema::find_span(&name) {
                None => {
                    errors.push(format!(
                        "line {lineno}: undeclared span \"{name}\" — declare it in \
                         crates/trace/src/schema.rs"
                    ));
                    continue;
                }
                Some(s) => check_fields(
                    &what,
                    &fields,
                    s.fields,
                    schema::RESERVED_SPAN_FIELDS,
                    lineno,
                    &mut errors,
                ),
            }
            if ev == "span_open" {
                stack.push((name, lineno));
            } else {
                if !matches!(get("elapsed_ns"), Some(JsonVal::Num { int: true, neg: false, .. })) {
                    errors.push(format!("line {lineno}: span_close without u64 \"elapsed_ns\""));
                }
                match stack.pop() {
                    Some((open, _)) if open == name => {
                        summary.spans += 1;
                        if name == "cpals.iter" {
                            summary.iterations += 1;
                        }
                    }
                    Some((open, open_line)) => errors.push(format!(
                        "line {lineno}: span_close '{name}' does not match open \
                         '{open}' from line {open_line}"
                    )),
                    None => {
                        errors.push(format!("line {lineno}: span_close '{name}' with no open span"))
                    }
                }
            }
        } else {
            match schema::find_event(&ev) {
                None => errors.push(format!(
                    "line {lineno}: undeclared event kind \"{ev}\" — declare it in \
                     crates/trace/src/schema.rs"
                )),
                Some(e) => {
                    check_fields(
                        &format!("event \"{ev}\""),
                        &fields,
                        e.fields,
                        schema::RESERVED_EVENT_FIELDS,
                        lineno,
                        &mut errors,
                    );
                    if ev == "planner.decision" {
                        summary.decisions += 1;
                    }
                }
            }
        }
    }
    for (name, open_line) in &stack {
        errors.push(format!("span '{name}' opened at line {open_line} is never closed"));
    }
    if summary.events == 0 {
        errors.push("trace contains no events".to_string());
    }
    if errors.is_empty() {
        Ok(summary)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_open(seq: u64) -> String {
        format!(
            "{{\"ev\": \"span_open\", \"seq\": {seq}, \"span\": \"cpals.run\", \
             \"rule\": \"als\", \"backend\": \"coo\", \"rank\": 4, \"max_iters\": 10, \"ndim\": 3, \
             \"nnz\": 500}}"
        )
    }

    fn run_close(seq: u64) -> String {
        format!(
            "{{\"ev\": \"span_close\", \"seq\": {seq}, \"span\": \"cpals.run\", \
             \"rule\": \"als\", \"backend\": \"coo\", \"rank\": 4, \"max_iters\": 10, \"ndim\": 3, \
             \"nnz\": 500, \"elapsed_ns\": 99}}"
        )
    }

    fn stage(seq: u64, extra: &str) -> String {
        format!(
            "{{\"ev\": \"stage\", \"seq\": {seq}, \"iter\": 0, \"stage\": \"mttkrp\", \
             \"elapsed_ns\": 42{extra}}}"
        )
    }

    #[test]
    fn valid_trace_summarizes() {
        let trace = [
            run_open(0),
            "{\"ev\": \"span_open\", \"seq\": 1, \"span\": \"cpals.iter\", \"iter\": 0}".into(),
            "{\"ev\": \"planner.decision\", \"seq\": 2, \"label\": \"bdt\", \
             \"dispatch\": \"csf\", \"calibrated\": false, \"threads\": 8, \"candidates\": 12, \
             \"estimator_evals\": 40, \"predicted_ns\": 1.500000e6, \
             \"csf_predicted_ns\": 1.500000e6, \"coo_predicted_ns\": 2.000000e6, \
             \"pp_predicted_ns\": -1.000000e0}"
                .into(),
            stage(3, ", \"mode\": 1"),
            "{\"ev\": \"span_close\", \"seq\": 4, \"span\": \"cpals.iter\", \"iter\": 0, \
             \"elapsed_ns\": 55}"
                .into(),
            run_close(5),
        ]
        .join("\n");
        let s = validate(&trace).expect("valid trace");
        assert_eq!(s, TraceSummary { events: 6, spans: 2, iterations: 1, decisions: 1 });
    }

    #[test]
    fn rejects_non_monotone_seq() {
        let trace = [stage(5, ""), stage(5, "")].join("\n");
        let errs = validate(&trace).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("does not increase")), "{errs:?}");
    }

    #[test]
    fn rejects_mismatched_and_unclosed_spans() {
        let trace = [
            run_open(0),
            "{\"ev\": \"span_open\", \"seq\": 1, \"span\": \"cpals.iter\", \"iter\": 0}".into(),
            run_close(2),
        ]
        .join("\n");
        let errs = validate(&trace).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("does not match open 'cpals.iter'")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("never closed")), "{errs:?}");
    }

    #[test]
    fn rejects_undeclared_event_kinds_and_spans() {
        let errs = validate("{\"ev\": \"no.such.kind\", \"seq\": 0}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("undeclared event kind")), "{errs:?}");
        let errs = validate("{\"ev\": \"span_open\", \"seq\": 0, \"span\": \"nope\"}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("undeclared span")), "{errs:?}");
    }

    #[test]
    fn rejects_missing_and_undeclared_fields() {
        // `stage` without its required `elapsed_ns`.
        let errs = validate("{\"ev\": \"stage\", \"seq\": 0, \"iter\": 0, \"stage\": \"mttkrp\"}")
            .unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("missing required field \"elapsed_ns\"")),
            "{errs:?}"
        );
        // A field the registry never declared.
        let errs = validate(&stage(0, ", \"bogus\": 1")).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("undeclared field \"bogus\"")), "{errs:?}");
    }

    #[test]
    fn rejects_wrongly_shaped_values() {
        // `iter` declared u64, emitted as a string.
        let errs = validate(
            "{\"ev\": \"stage\", \"seq\": 0, \"iter\": \"zero\", \"stage\": \"m\", \
             \"elapsed_ns\": 1}",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("\"iter\" is not a u64")), "{errs:?}");
    }

    #[test]
    fn f64_fields_accept_scientific_and_nonfinite_strings() {
        // The emitter renders f64 as `{v:.6e}` and degrades non-finite
        // values to strings; both shapes must validate.
        let trace = "{\"ev\": \"drift.check\", \"seq\": 0, \"predicted_ns\": 1.000000e6, \
                     \"measured_ns\": \"NaN\", \"factor\": 1.500000e0}";
        assert!(validate(trace).is_ok());
    }

    #[test]
    fn i64_fields_accept_negative_sentinels() {
        let trace = "{\"ev\": \"recovery\", \"seq\": 0, \"iter\": 2, \"mode\": -1, \
                     \"kind\": \"nonfinite\", \"action\": \"reseed\", \"recovery_ns\": 800}";
        assert!(validate(trace).is_ok());
    }

    #[test]
    fn rejects_malformed_lines_and_empty_traces() {
        let errs = validate("not json\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not a JSON object")), "{errs:?}");
        let errs = validate("").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no events")), "{errs:?}");
        let errs = validate("{\"noev\": 1}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("\"ev\"")), "{errs:?}");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let trace = format!("{}\n\n{}\n", stage(0, ""), stage(1, ""));
        let s = validate(&trace).expect("valid");
        assert_eq!(s.events, 2);
    }
}
