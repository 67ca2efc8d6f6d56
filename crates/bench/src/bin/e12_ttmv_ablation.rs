//! E12 — vectorized (thick) vs column-at-a-time TTMV (ablation; paper
//! analogue: the claim that operating on all `R` columns at once is a
//! large constant-factor win from index-traffic amortization).

use adatm_bench::{banner, iters, rank, run_cpals, scale, standard_suite, Table};
use adatm_core::DtreeBackend;
use adatm_dtree::{EngineOptions, TreeShape};

fn main() {
    banner("E12", "thick (vectorized) vs column-at-a-time TTMV");
    let suite = standard_suite(scale());
    let (r, it) = (rank(), iters());
    let mut table =
        Table::new(&["tensor", "shape", "thick-s/iter", "colwise-s/iter", "thick-speedup"]);
    for d in suite.iter().take(4) {
        let t = &d.tensor;
        let shape = TreeShape::balanced_binary(t.ndim());
        let mut thick =
            DtreeBackend::with_options(t, &shape, r, EngineOptions { thick: true }, "thick");
        let mut thin =
            DtreeBackend::with_options(t, &shape, r, EngineOptions { thick: false }, "colwise");
        let thick_t = run_cpals(t, &mut thick, r, it).timings.mttkrp.as_secs_f64() / it as f64;
        let thin_t = run_cpals(t, &mut thin, r, it).timings.mttkrp.as_secs_f64() / it as f64;
        table.row(&[
            d.name.clone(),
            "bdt".to_string(),
            format!("{thick_t:.4}"),
            format!("{thin_t:.4}"),
            format!("{:.2}x", thin_t / thick_t),
        ]);
    }
    table.print();
    table.print_tsv();
}
