//! Tucker compression scenario: reduce a sparse multi-aspect dataset to a
//! small dense core plus orthonormal factor bases — the data-compression
//! use case of the Tucker decomposition (HOOI).
//!
//! ```text
//! cargo run --release --example tucker_compression
//! ```

use adatm::tensor::gen::zipf_tensor;
use adatm::{hooi, TuckerOptions};

fn main() -> Result<(), adatm::CpAlsError> {
    // A 4-mode measurement tensor: sensor x frequency x time x location.
    let dims = [5_000usize, 64, 2_000, 300];
    let tensor = zipf_tensor(&dims, 300_000, &[0.8, 0.3, 0.5, 0.7], 99);
    println!(
        "input: dims {:?}, nnz {}, storage {:.1} MiB",
        tensor.dims(),
        tensor.nnz(),
        tensor.storage_bytes() as f64 / (1024.0 * 1024.0)
    );

    let ranks = vec![8, 4, 8, 4];
    let res = hooi(&tensor, &TuckerOptions::new(ranks.clone()).max_iters(8).tol(1e-5).seed(1))?;
    println!(
        "HOOI: {} iterations, fit {:.4}, converged {}",
        res.iters,
        res.final_fit(),
        res.converged
    );

    // Compressed representation size: core + factors.
    let core_vals: usize = ranks.iter().product();
    let factor_vals: usize = dims.iter().zip(ranks.iter()).map(|(&d, &r)| d * r).sum();
    let compressed_bytes = (core_vals + factor_vals) * 8;
    println!(
        "compressed: core {}x{}x{}x{} + factors = {:.2} MiB ({:.1}x smaller)",
        ranks[0],
        ranks[1],
        ranks[2],
        ranks[3],
        compressed_bytes as f64 / (1024.0 * 1024.0),
        tensor.storage_bytes() as f64 / compressed_bytes as f64
    );

    // Energy captured per leading core slice of mode 0.
    let total = res.model.core_norm();
    println!(
        "core norm {:.4} (captures {:.1}% of tensor energy)",
        total,
        100.0 * (total / tensor.fro_norm()).powi(2)
    );

    // Reconstruct a few entries to show the model is usable pointwise.
    for k in [0usize, 1000, 200_000] {
        if k >= tensor.nnz() {
            continue;
        }
        let coords: Vec<usize> = (0..4).map(|d| tensor.mode_idx(d)[k] as usize).collect();
        println!(
            "  x{coords:?} = {:.4}, model = {:.4}",
            tensor.vals()[k],
            res.model.predict(&coords)
        );
    }
    Ok(())
}
