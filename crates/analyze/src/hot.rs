//! Hot-path lints: allocation freedom and unchecked indexing.
//!
//! The hot set of a crate is every function tagged `#[adatm::hot]` or
//! listed under `[hot] fns` in the crate's `analyze.toml`, closed
//! transitively over same-crate calls: if a hot function calls `foo` and
//! exactly one non-test `foo` exists in the crate, `foo` is hot too.
//! Qualified calls (`Type::method`) only propagate to a matching
//! `Type::method`, so `Vec::new` never drags an unrelated local `new`
//! into the set.
//!
//! *Allocation lint* — hot functions must not allocate: the kernels'
//! steady-state contract (see `schedule::Workspace`) is zero heap
//! traffic, and an allocation inside a rayon region also serializes on
//! the global allocator. Denied: `Vec::new`-style constructors (and
//! `Mat::zeros`/`Mat::from_vec`),
//! `with_capacity`, `collect`/`to_vec`/`to_owned`/`to_string`/`clone`,
//! `Box::new`, and the `vec!`/`format!`/print-family macros.
//!
//! *Indexing lint* — the promotion of the old advisory scan: direct
//! `expr[...]` indexing in hot functions **or** in files tagged
//! `// lint: hot-path` is a hard failure unless covered by an
//! `[allow.index]` entry, because a bounds panic aborts a rayon worker.

use crate::tree::CallSite;
use crate::{apply_allowances, CrateModel, Finding, FnInfo, LintOutcome};
use std::collections::BTreeSet;

/// Constructor paths whose tail means "fresh heap allocation" (the
/// workspace's own `Mat` constructors included).
const ALLOC_PATH_TAILS: &[&str] = &[
    "Vec::new",
    "Vec::from",
    "VecDeque::new",
    "Box::new",
    "String::new",
    "String::from",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "BTreeSet::new",
    "Mat::zeros",
    "Mat::from_vec",
];

/// Method names that allocate on the common container/str types.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string", "clone", "into_vec"];

/// Macros that allocate or drag in the formatting machinery.
const ALLOC_MACROS: &[&str] =
    &["vec", "format", "format_args", "println", "print", "eprintln", "eprint"];

/// Resolves a call site to the index of a same-crate callee, if the name
/// match is unambiguous.
fn resolve_call(call: &CallSite, model: &CrateModel) -> Option<usize> {
    let short = call.last();
    if short.is_empty() {
        return None;
    }
    let qualifier = if call.path.len() >= 2 {
        let q = &call.path[call.path.len() - 2];
        // `self::f()` / `crate::f()` behave like free calls.
        (!matches!(q.as_str(), "self" | "crate" | "super")).then_some(q.as_str())
    } else {
        None
    };
    let mut found = None;
    for (i, f) in model.fns.iter().enumerate() {
        if f.item.is_test || f.item.short_name() != short {
            continue;
        }
        let matches_qualifier = match qualifier {
            Some(q) => f.item.name == format!("{q}::{short}"),
            None => true,
        };
        if !matches_qualifier {
            continue;
        }
        if found.is_some() {
            return None; // ambiguous — do not propagate
        }
        found = Some(i);
    }
    found
}

/// Computes the transitive hot set (indices into `model.fns`).
pub fn hot_set(model: &CrateModel) -> BTreeSet<usize> {
    let mut hot = BTreeSet::new();
    let mut queue = Vec::new();
    for (i, f) in model.fns.iter().enumerate() {
        let listed =
            model.config.hot_fns.iter().any(|n| n == &f.item.name || n == f.item.short_name());
        if !f.item.is_test && (f.item.is_hot_tagged() || listed) && hot.insert(i) {
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        // The facts are cloned up front so the borrow of `model.fns[i]`
        // does not outlive the mutation of `hot` — call lists are short.
        let calls = model.fns[i].facts.calls.clone();
        for call in &calls {
            if let Some(j) = resolve_call(call, model) {
                if hot.insert(j) {
                    queue.push(j);
                }
            }
        }
    }
    hot
}

fn is_alloc_call(call: &CallSite) -> bool {
    if call.method {
        return ALLOC_METHODS.contains(&call.last());
    }
    if call.path.len() >= 2 && ALLOC_PATH_TAILS.contains(&call.tail2().as_str()) {
        return true;
    }
    call.last() == "with_capacity"
}

/// The hot-path allocation lint.
pub fn alloc_lint(model: &CrateModel) -> LintOutcome {
    let hot = hot_set(model);
    let mut raw = Vec::new();
    for &i in &hot {
        let f = &model.fns[i];
        for call in &f.facts.calls {
            if is_alloc_call(call) {
                raw.push((
                    f.allow_key(),
                    Finding {
                        lint: "alloc",
                        file: f.file.clone(),
                        line: call.line,
                        message: format!(
                            "hot fn `{}` allocates via `{}` — reuse a workspace buffer \
                             or hoist the allocation out of the hot path",
                            f.item.name,
                            call.tail2()
                        ),
                    },
                ));
            }
        }
        for m in &f.facts.macros {
            if ALLOC_MACROS.contains(&m.name()) {
                raw.push((
                    f.allow_key(),
                    Finding {
                        lint: "alloc",
                        file: f.file.clone(),
                        line: m.line,
                        message: format!(
                            "hot fn `{}` invokes `{}!` — formatting/collection macros \
                             allocate on every call",
                            f.item.name,
                            m.name()
                        ),
                    },
                ));
            }
        }
    }
    apply_allowances("alloc", raw, &model.config.allow_alloc)
}

/// Whether the indexing lint applies to this function.
fn index_scope(f: &FnInfo, hot: &BTreeSet<usize>, i: usize) -> bool {
    !f.item.is_test && (hot.contains(&i) || f.hot_file)
}

/// The hot-path indexing lint (hard-deny successor of the old advisory
/// count).
pub fn index_lint(model: &CrateModel) -> LintOutcome {
    let hot = hot_set(model);
    let mut raw = Vec::new();
    for (i, f) in model.fns.iter().enumerate() {
        if !index_scope(f, &hot, i) {
            continue;
        }
        for &line in &f.facts.index_lines {
            raw.push((
                f.allow_key(),
                Finding {
                    lint: "index",
                    file: f.file.clone(),
                    line,
                    message: format!(
                        "unchecked indexing in hot-path fn `{}` — a bounds panic here \
                         aborts a rayon worker; use a checked access or add an \
                         `[allow.index]` entry with the bounds argument",
                        f.item.name
                    ),
                },
            ));
        }
    }
    apply_allowances("index", raw, &model.config.allow_index)
}

/// `(allow key, site count)` pairs for one lint, sorted by key.
pub type LintCounts = Vec<(String, usize)>;

/// Raw (pre-allowance) counts for `--bless`: `(key, count)` per function
/// for the `index` and `alloc` lints respectively.
pub fn raw_counts(model: &CrateModel) -> (LintCounts, LintCounts) {
    let hot = hot_set(model);
    let mut index = std::collections::BTreeMap::new();
    let mut alloc = std::collections::BTreeMap::new();
    for (i, f) in model.fns.iter().enumerate() {
        if index_scope(f, &hot, i) {
            let n = f.facts.index_lines.len();
            if n > 0 {
                *index.entry(f.allow_key()).or_insert(0usize) += n;
            }
        }
        if hot.contains(&i) {
            let n = f.facts.calls.iter().filter(|c| is_alloc_call(c)).count()
                + f.facts.macros.iter().filter(|m| ALLOC_MACROS.contains(&m.name())).count();
            if n > 0 {
                *alloc.entry(f.allow_key()).or_insert(0usize) += n;
            }
        }
    }
    (index.into_iter().collect(), alloc.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_model;
    use crate::config::CrateConfig;

    fn model(src: &str) -> CrateModel {
        model_with(src, CrateConfig::default())
    }

    fn model_with(src: &str, config: CrateConfig) -> CrateModel {
        build_model("test", config, &[("lib.rs".to_string(), src.to_string())])
    }

    #[test]
    fn attr_tagged_fn_roots_the_hot_set_and_propagates() {
        let src = "
            #[adatm::hot]
            fn kernel(n: usize) { helper(n); }
            fn helper(n: usize) { let v: Vec<u32> = (0..n).collect(); drop(v); }
            fn cold() { let _x = Vec::<u8>::new(); }
        ";
        let m = model(src);
        let hot = hot_set(&m);
        assert_eq!(hot.len(), 2);
        let out = alloc_lint(&m);
        // Only `helper`'s collect fires; `cold` is not hot.
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("helper"));
        assert!(out.findings[0].message.contains("collect"));
    }

    #[test]
    fn config_listed_fn_is_a_root() {
        let cfg = CrateConfig::parse("[hot]\nfns = [\"listed\"]\n").unwrap();
        let src = "fn listed() { let _s = format!(\"x\"); }";
        let out = alloc_lint(&model_with(src, cfg));
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("format"));
    }

    #[test]
    fn ambiguous_callee_does_not_propagate() {
        let src = "
            #[adatm::hot]
            fn kernel() { helper(); }
            fn helper() {}
            mod a { pub fn helper() { let _v = vec![1]; } }
        ";
        // Two `helper` fns: no propagation, so the vec! never fires.
        let out = alloc_lint(&model(src));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn qualified_call_propagates_to_matching_method_only() {
        let src = "
            #[adatm::hot]
            fn kernel() { Ws::make(); }
            struct Ws;
            impl Ws { fn make() { let _b = Box::new(3); } }
            struct Other;
            impl Other { fn unrelated() { let _v = Vec::<u8>::new(); } }
        ";
        let out = alloc_lint(&model(src));
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("Ws::make"));
    }

    #[test]
    fn vec_new_in_hot_fn_does_not_mark_local_new_hot() {
        let src = "
            #[adatm::hot]
            fn kernel() { let _v: Vec<u8> = Vec::new(); }
            struct S;
            impl S { fn new() { let _x = vec![0u8; 4]; } }
        ";
        let out = alloc_lint(&model(src));
        // One finding for kernel's Vec::new; S::new stays cold.
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("kernel"));
    }

    #[test]
    fn mat_constructors_count_as_allocations() {
        let src = "
            #[adatm::hot]
            fn kernel(n: usize) { let _m = Mat::zeros(n, 4); let _v = Mat::from_vec(1, 1, v); }
        ";
        let out = alloc_lint(&model(src));
        assert_eq!(out.findings.len(), 2);
        assert!(out.findings.iter().any(|f| f.message.contains("Mat::zeros")));
    }

    #[test]
    fn index_lint_fires_in_hot_file_and_respects_allowance() {
        let src = "// lint: hot-path\nfn f(a: &[u32], i: usize) -> u32 { a[i] }\n";
        let out = index_lint(&model(src));
        assert_eq!(out.findings.len(), 1);

        let cfg = CrateConfig::parse(
            "[allow.index]\n\"lib.rs::f\" = { sites = 1, reason = \"i < a.len() by contract\" }\n",
        )
        .unwrap();
        let out = index_lint(&model_with(src, cfg));
        assert!(out.findings.is_empty());
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "// lint: hot-path\n#[cfg(test)]\nmod tests {\n  fn t(a: &[u32]) -> u32 { \
                   a[0] }\n}\n";
        assert!(index_lint(&model(src)).findings.is_empty());
    }

    #[test]
    fn raw_counts_report_bless_data() {
        let src = "// lint: hot-path\nfn f(a: &[u32]) -> u32 { a[0] + a[1] }\n";
        let (index, alloc) = raw_counts(&model(src));
        assert_eq!(index, vec![("lib.rs::f".to_string(), 2)]);
        assert!(alloc.is_empty());
    }
}
