//! Golden trajectories of the CP sweep loop: fit histories pinned bit for
//! bit, so any change to the loop's floating-point operations — for ALS
//! with pairwise perturbation and checkpoints, for the NCP rule, and for
//! the dense update of a tall rank-16 mode at one and two threads — shows
//! up here. The expected bit patterns were recorded from earlier versions
//! of the solver (one loop per method; the chained, allocating dense
//! update) on a sequential COO backend, whose reduction order is fixed.
//! The dimension-tree engine's trajectories (fit history and a digest of
//! the final model) are pinned the same way at one and two threads, as
//! recorded from its per-contribution kernels.

use adatm::dtree::scatter_eligible;
use adatm::tensor::gen::{dense_low_rank, zipf_tensor};
use adatm::{ncp, CheckpointConfig, CooBackend, CpAls, CpAlsOptions, CpResult, PpConfig};
use adatm::{DtreeBackend, SparseTensor, TreeShape};

fn assert_fit_bits(what: &str, res: &CpResult, expected: &[u64]) {
    let got: Vec<u64> = res.fit_history.iter().map(|f| f.to_bits()).collect();
    assert_eq!(got, expected, "{what}: fit history diverged from the recorded trajectory");
}

#[test]
fn sweep_loop_reproduces_recorded_fit_histories_bitwise() {
    // NCP on the tensor of the cross-backend NCP trajectory test.
    let t = zipf_tensor(&[20, 25, 15, 18], 1_200, &[0.7; 4], 42);
    let opts = CpAlsOptions::new(4).max_iters(6).tol(0.0).seed(8);
    let res = ncp(&t, &mut CooBackend::with_parallel(&t, false), &opts).unwrap();
    assert_fit_bits(
        "ncp",
        &res,
        &[
            0x3f9393a51cd66a80,
            0x3f9a2fcdb1389b00,
            0x3f9cea35cbd900a0,
            0x3f9ef99009a2d660,
            0x3fa0665b1783b270,
            0x3fa10277f19c2860,
        ],
    );

    // ALS with pairwise perturbation and a checkpoint every 3 iterations
    // on a small noiseless 3-mode tensor: PP arms, sweeps, and is
    // disarmed by checkpoint writes and the forced-exact cadence.
    let t = dense_low_rank(&[12, 10, 11], 3, 0.0, 13).tensor;
    let dir = std::env::temp_dir().join(format!("adatm-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CpAlsOptions::new(3)
        .max_iters(24)
        .tol(0.0)
        .seed(7)
        .pp(PpConfig::new().tol(0.02))
        .checkpoint(CheckpointConfig::new(&dir).every_iters(3));
    let res = CpAls::new(opts).run(&t, &mut CooBackend::with_parallel(&t, false)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((res.diagnostics.pp_sweeps, res.diagnostics.pp_refreshes), (11, 7));
    assert!(res.diagnostics.clean(), "{:?}", res.diagnostics.events);
    assert_fit_bits(
        "als+pp+checkpoint",
        &res,
        &[
            0x3fea1eabda65d380,
            0x3fee3ce7c7c76b29,
            0x3fef0f0d0855a786,
            0x3fef384e908b04d7,
            0x3fef384e908b04d7,
            0x3fef53fba71dc0ea,
            0x3fef652ff9a7b3c5,
            0x3fef652ff9a7b3c5,
            0x3fef652ff9a7b3c5,
            0x3fef704883a494a1,
            0x3fef7d25e39fd352,
            0x3fef7d25e39fd352,
            0x3fef876e713177f9,
            0x3fef876e713177f9,
            0x3fef876e713177f9,
            0x3fef866a3c873164,
            0x3fef866a3c873164,
            0x3fef866a3c873164,
            0x3fef96915e0035d2,
            0x3fef96915e0035d2,
            0x3fef92bcd0ee3b39,
            0x3fefa8ab41f55899,
            0x3fefa8ab41f55899,
            0x3fefa8ab41f55899,
        ],
    );
}

#[test]
fn tall_rank16_als_reproduces_recorded_fit_histories_bitwise() {
    // Mode 0 is taller than the 4096-row threshold of the parallel dense
    // kernels, so the two-thread run takes the chunked Gram reduction
    // (whose rounding differs from the one-thread sum); its skew leaves
    // empty rows, i.e. exact zeros in the MTTKRP.
    let t = zipf_tensor(&[5000, 60, 40], 15_000, &[0.6, 0.3, 0.3], 21);
    let run = |t: &SparseTensor, threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| {
            let opts = CpAlsOptions::new(16).max_iters(8).tol(0.0).seed(3);
            CpAls::new(opts).run(t, &mut CooBackend::with_parallel(t, false)).unwrap()
        })
    };
    let res = run(&t, 1);
    assert!(res.diagnostics.clean(), "{:?}", res.diagnostics.events);
    assert_fit_bits(
        "als rank 16, 1 thread",
        &res,
        &[
            0x3f7d7e3af9c1ff80,
            0x3f83f639114bf340,
            0x3f8898a5694ca680,
            0x3f8c9c68eb8f20c0,
            0x3f8f4ebaaf62a080,
            0x3f907e0cddad23e0,
            0x3f9111ef6c20d360,
            0x3f918226acdb5160,
        ],
    );
    let res = run(&t, 2);
    assert!(res.diagnostics.clean(), "{:?}", res.diagnostics.events);
    assert_fit_bits(
        "als rank 16, 2 threads",
        &res,
        &[
            0x3f7d7e3af9c20000,
            0x3f83f639114bf300,
            0x3f8898a5694ca680,
            0x3f8c9c68eb8f20c0,
            0x3f8f4ebaaf62a080,
            0x3f907e0cddad2400,
            0x3f9111ef6c20d360,
            0x3f918226acdb5180,
        ],
    );
}

/// FNV-1a over the bits of the final model's weights and factors.
fn model_digest(res: &CpResult) -> u64 {
    let model = &res.model;
    let words = model.lambda.iter().chain(model.factors.iter().flat_map(|f| f.as_slice()));
    words.fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn dtree_als_reproduces_recorded_trajectories_bitwise() {
    // A skewed 6-mode tensor at rank 29 (register blocks of 16, 8, 4 and
    // 1 columns). Across the three shapes the tree nodes cover: sequential
    // first children over the tensor and over a value matrix, reduction
    // sets pulled through `rperm`, |delta| from 1 to 5 over the tensor's
    // scalars and 1 to 4 over value-matrix rows, scatter-eligible leaves
    // (mode 5 has 30 indices), and nodes and leaves of 4096+ elements, so
    // the two-thread runs take the scheduled kernels.
    let t = zipf_tensor(
        &[6000, 3000, 2500, 2000, 1500, 30],
        20_000,
        &[0.3, 0.5, 0.4, 0.6, 0.5, 0.8],
        5,
    );
    let rank = 29;
    let fits = [0x3e99a3f489800000, 0x3f5b73432df0d000, 0x3f5e58142e63b400, 0x3f5e58142ef7e400];
    let cases: [(&str, [u64; 2]); 3] = [
        ("((0 (1 (2 (3 4)))) 5)", [0x5452ec383aadc53c, 0x0497223b8242d57b]),
        ("((0 1 2 3) (4 5))", [0xc4e7f68aa9358be8, 0x9cb56b2c0172c203]),
        ("((0 1 2) (3 4 5))", [0x23eac6ca65eaabe8, 0x482b50ed7d4bdd28]),
    ];
    // (parent is the tensor, |delta|) pairs the shapes reach.
    let mut deltas = std::collections::BTreeSet::new();
    let (mut seq_scalar, mut seq_rows, mut big_pull, mut scatter_leaf) =
        (false, false, false, false);
    for (spec, digests) in cases {
        let shape: TreeShape = spec.parse().unwrap();
        let backend = DtreeBackend::new(&t, &shape, rank);
        let (tree, sym) = (backend.engine().tree(), backend.engine().symbolic());
        for id in 1..tree.len() {
            let (node, s) = (tree.node(id), sym.node(id));
            let parent = node.parent.unwrap();
            let parent_len = sym.node(parent).len;
            deltas.insert((parent == 0, node.delta.len()));
            seq_scalar |= s.sequential && parent == 0;
            seq_rows |= s.sequential && parent != 0;
            big_pull |= !s.sequential && s.len >= 4096;
            scatter_leaf |= node.is_leaf()
                && !s.sequential
                && parent_len >= 4096
                && scatter_eligible(s.len, parent_len);
        }
        for (threads, digest) in [1, 2].into_iter().zip(digests) {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let res = pool.install(|| {
                let opts = CpAlsOptions::new(rank).max_iters(4).tol(0.0).seed(3);
                CpAls::new(opts).run(&t, &mut DtreeBackend::new(&t, &shape, rank)).unwrap()
            });
            let what = format!("{spec}, {threads} thread(s)");
            assert!(res.diagnostics.clean(), "{what}: {:?}", res.diagnostics.events);
            assert_fit_bits(&what, &res, &fits);
            assert_eq!(model_digest(&res), digest, "{what}: final model bits diverged");
        }
    }
    for scalars in [true, false] {
        for d in 1..=4 {
            assert!(
                deltas.contains(&(scalars, d)),
                "no |delta| = {d} node (tensor parent: {scalars})"
            );
        }
    }
    assert!(seq_scalar && seq_rows && big_pull && scatter_leaf);
}
