//! The trace-event schema registry: the single declared source of truth
//! for every NDJSON event and span this workspace emits.
//!
//! Two enforcement points consume the same tables:
//!
//! * **Statically**, `cargo xtask analyze` (the `adatm-analyze` engine)
//!   extracts every `event!`/`span_guard!` call site in the workspace
//!   and checks its kind, field names, and inferable field types against
//!   this registry — an emitter cannot add or rename a field without
//!   declaring it here.
//! * **Dynamically**, `cargo xtask trace-check` validates a captured
//!   NDJSON file line by line against the same tables — a runtime event
//!   cannot carry an undeclared field or a wrongly-shaped value.
//!
//! The README's trace-schema table is *generated* from
//! [`markdown_table`] (between `<!-- trace-schema:begin -->` /
//! `<!-- trace-schema:end -->` markers), so the prose cannot drift from
//! the registry either; `cargo xtask analyze --fix-docs` rewrites it.

/// The JSON value shape of one event field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldType {
    /// A JSON string.
    Str,
    /// A float, rendered `{v:.6e}` (non-finite values degrade to a
    /// string so the line stays parseable JSON).
    F64,
    /// An unsigned integer.
    U64,
    /// A signed integer (sentinel `-1` conventions live here).
    I64,
    /// A boolean.
    Bool,
}

impl FieldType {
    /// Short lowercase name used in diagnostics and the generated table.
    pub fn name(self) -> &'static str {
        match self {
            FieldType::Str => "str",
            FieldType::F64 => "f64",
            FieldType::U64 => "u64",
            FieldType::I64 => "i64",
            FieldType::Bool => "bool",
        }
    }
}

/// One declared field of an event or span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldSpec {
    /// JSON key.
    pub name: &'static str,
    /// Value shape.
    pub ty: FieldType,
    /// Whether every emission must carry the field. Optional fields
    /// cover shape variants (e.g. the `stage` event's `mode` is absent
    /// for the per-iteration `fit` stage).
    pub required: bool,
}

const fn req(name: &'static str, ty: FieldType) -> FieldSpec {
    FieldSpec { name, ty, required: true }
}

const fn opt(name: &'static str, ty: FieldType) -> FieldSpec {
    FieldSpec { name, ty, required: false }
}

/// Schema of one event kind (one `ev` value).
#[derive(Clone, Copy, Debug)]
pub struct EventSchema {
    /// The `ev` discriminator.
    pub kind: &'static str,
    /// Who emits it (for the generated docs table).
    pub emitted_by: &'static str,
    /// Declared fields beyond the universal `ev`/`seq` pair.
    pub fields: &'static [FieldSpec],
}

/// Schema of one span name (emitted as paired `span_open`/`span_close`
/// events; the close additionally carries `elapsed_ns`).
#[derive(Clone, Copy, Debug)]
pub struct SpanSchema {
    /// The `span` name.
    pub name: &'static str,
    /// Who opens it (for the generated docs table).
    pub emitted_by: &'static str,
    /// Declared fields beyond `ev`/`seq`/`span` (and `elapsed_ns` on
    /// close).
    pub fields: &'static [FieldSpec],
}

use FieldType::{Bool, Str, F64, I64, U64};

/// Every declared event kind. Sorted by kind for deterministic docs.
pub const EVENTS: &[EventSchema] = &[
    EventSchema {
        kind: "admission.decision",
        emitted_by: "planner memory-budget admission",
        fields: &[
            req("decision", Str),
            req("budget_bytes", U64),
            req("resident_bytes", F64),
            req("label", Str),
        ],
    },
    EventSchema {
        kind: "backend.dispatch",
        emitted_by: "adaptive backend construction",
        fields: &[
            req("engine", Str),
            req("shape", Str),
            req("use_csf", Bool),
            req("use_coo", Bool),
            req("predicted_ns", F64),
        ],
    },
    EventSchema {
        kind: "backend.reset",
        emitted_by: "recovery-path cache flush",
        fields: &[req("backend", Str)],
    },
    EventSchema {
        kind: "backend.schedule_rebuild",
        emitted_by: "COO/CSF backends",
        fields: &[req("backend", Str), req("mode", U64), req("threads", U64)],
    },
    EventSchema {
        kind: "checkpoint.resume",
        emitted_by: "checkpoint store load/fallback scan",
        fields: &[req("iter", U64), req("gen", U64), req("fallbacks", U64)],
    },
    EventSchema {
        kind: "checkpoint.write",
        emitted_by: "CP-ALS iteration-boundary checkpoint store",
        fields: &[req("iter", U64), req("gen", U64), req("bytes", U64), req("elapsed_ns", U64)],
    },
    EventSchema {
        kind: "drift.check",
        emitted_by: "post-run prediction audit",
        fields: &[req("predicted_ns", F64), req("measured_ns", F64), req("factor", F64)],
    },
    EventSchema {
        kind: "drift.warning",
        emitted_by: "post-run prediction audit",
        fields: &[
            req("predicted_ns", F64),
            req("measured_ns", F64),
            req("ratio", F64),
            req("factor", F64),
        ],
    },
    EventSchema {
        kind: "planner.candidate",
        emitted_by: "planner, per enumerated shape",
        fields: &[
            req("rank_pos", U64),
            req("label", Str),
            req("cost_units", F64),
            req("gather_bytes", F64),
            req("fits_budget", Bool),
            req("predicted_ns", F64),
        ],
    },
    EventSchema {
        kind: "planner.decision",
        emitted_by: "planner, once per plan",
        fields: &[
            req("label", Str),
            req("dispatch", Str),
            req("calibrated", Bool),
            req("threads", U64),
            req("candidates", U64),
            req("estimator_evals", U64),
            req("predicted_ns", F64),
            req("csf_predicted_ns", F64),
            req("coo_predicted_ns", F64),
            req("pp_predicted_ns", F64),
        ],
    },
    EventSchema {
        kind: "pp.enter",
        emitted_by: "CP-ALS pairwise-perturbation controller arming",
        fields: &[req("iter", U64), req("rel_delta", F64), req("memo_bytes", U64)],
    },
    EventSchema {
        kind: "pp.exit",
        emitted_by: "CP-ALS pairwise-perturbation controller disarming",
        fields: &[req("iter", U64), req("reason", Str)],
    },
    EventSchema {
        kind: "pp.sweep",
        emitted_by: "one approximate (pairwise-perturbation) ALS sweep",
        fields: &[
            req("iter", U64),
            req("sweep_ns", U64),
            req("blocks_applied", U64),
            req("blocks_skipped", U64),
        ],
    },
    EventSchema {
        kind: "profile.error",
        emitted_by: "ADATM_PROFILE resolution",
        fields: &[req("path", Str), req("error", Str)],
    },
    EventSchema {
        kind: "profile.loaded",
        emitted_by: "ADATM_PROFILE resolution",
        fields: &[req("path", Str), req("age_s", I64), req("threads", U64)],
    },
    EventSchema {
        kind: "recovery",
        emitted_by: "RunDiagnostics::record",
        fields: &[
            req("iter", U64),
            req("mode", I64),
            req("kind", Str),
            req("action", Str),
            req("recovery_ns", U64),
        ],
    },
    EventSchema {
        kind: "stage",
        emitted_by: "every timed ALS phase",
        fields: &[
            req("iter", U64),
            opt("mode", U64),
            req("stage", Str),
            req("elapsed_ns", U64),
            opt("fit", F64),
        ],
    },
    EventSchema {
        kind: "watchdog.expired",
        emitted_by: "time-budget re-checks at stage boundaries",
        fields: &[
            req("iter", U64),
            req("mode", U64),
            req("stage", Str),
            req("budget_ns", U64),
            req("elapsed_ns", U64),
        ],
    },
];

/// Every declared span name. Sorted by name for deterministic docs.
pub const SPANS: &[SpanSchema] = &[
    SpanSchema {
        name: "cpals.iter",
        emitted_by: "one CP-ALS iteration",
        fields: &[req("iter", U64)],
    },
    SpanSchema {
        name: "cpals.mode",
        emitted_by: "one mode update within an iteration",
        fields: &[req("iter", U64), req("mode", U64)],
    },
    SpanSchema {
        name: "cpals.run",
        emitted_by: "the whole CP sweep run (`rule`: `als` or `ncp`)",
        fields: &[
            req("rule", Str),
            req("backend", Str),
            req("rank", U64),
            req("max_iters", U64),
            req("ndim", U64),
            req("nnz", U64),
        ],
    },
];

/// Field names injected by the emitter itself — no event may declare or
/// pass them.
pub const RESERVED_EVENT_FIELDS: &[&str] = &["ev", "seq"];

/// Field names injected by the emitter or the span machinery — no span
/// may declare or pass them.
pub const RESERVED_SPAN_FIELDS: &[&str] = &["ev", "seq", "span", "elapsed_ns"];

/// Looks up the schema for an event kind.
pub fn find_event(kind: &str) -> Option<&'static EventSchema> {
    EVENTS.iter().find(|e| e.kind == kind)
}

/// Looks up the schema for a span name.
pub fn find_span(name: &str) -> Option<&'static SpanSchema> {
    SPANS.iter().find(|s| s.name == name)
}

fn field_cell(fields: &[FieldSpec]) -> String {
    fields
        .iter()
        .map(|f| {
            if f.required {
                format!("`{}`:{}", f.name, f.ty.name())
            } else {
                format!("`{}`:{}?", f.name, f.ty.name())
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the registry as the README's markdown table (the content
/// between the `trace-schema` markers). `?` marks optional fields.
pub fn markdown_table() -> String {
    let mut out = String::new();
    out.push_str("| `ev` | emitted by | fields |\n|---|---|---|\n");
    for e in EVENTS {
        out.push_str(&format!("| `{}` | {} | {} |\n", e.kind, e.emitted_by, field_cell(e.fields)));
    }
    for s in SPANS {
        out.push_str(&format!(
            "| `span_open`/`span_close` `{}` | {} | `span`:str, {}; `elapsed_ns`:u64 on close |\n",
            s.name,
            s.emitted_by,
            field_cell(s.fields)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_sorted_and_unique() {
        for w in EVENTS.windows(2) {
            assert!(w[0].kind < w[1].kind, "{} !< {}", w[0].kind, w[1].kind);
        }
        for w in SPANS.windows(2) {
            assert!(w[0].name < w[1].name);
        }
    }

    #[test]
    fn field_names_are_unique_per_event() {
        for e in EVENTS {
            let mut names: Vec<_> = e.fields.iter().map(|f| f.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate field in {}", e.kind);
        }
    }

    #[test]
    fn reserved_field_names_never_declared() {
        // `ev` and `seq` are injected by the emitter; `span` and
        // `elapsed_ns` are injected by the span machinery.
        for e in EVENTS {
            for f in e.fields {
                assert!(!RESERVED_EVENT_FIELDS.contains(&f.name), "{} declares {}", e.kind, f.name);
            }
        }
        for s in SPANS {
            for f in s.fields {
                assert!(!RESERVED_SPAN_FIELDS.contains(&f.name), "{} declares {}", s.name, f.name);
            }
        }
    }

    #[test]
    fn lookups_find_declared_kinds() {
        assert!(find_event("stage").is_some());
        assert!(find_event("no.such.kind").is_none());
        assert!(find_span("cpals.iter").is_some());
        assert!(find_span("nope").is_none());
    }

    #[test]
    fn markdown_table_covers_every_kind() {
        let table = markdown_table();
        for e in EVENTS {
            assert!(table.contains(&format!("`{}`", e.kind)), "missing {}", e.kind);
        }
        for s in SPANS {
            assert!(table.contains(&format!("`{}`", s.name)), "missing {}", s.name);
        }
    }
}
