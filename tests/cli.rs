//! Integration tests for the `adatm` CLI binary, driven through
//! `std::process` against a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn adatm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adatm"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = adatm().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("decompose"));
    assert!(text.contains("generate"));
    assert!(text.contains("EXIT CODES"), "--help must document the exit-code table");
}

#[test]
fn unknown_subcommand_exits_with_usage_code() {
    let out = adatm().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn missing_file_exits_with_io_code() {
    let out = adatm().args(["info", "/nonexistent/adatm_no_such_file.tns"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn malformed_tensor_exits_with_parse_code() {
    let dir = tmpdir("parse_err");
    let tns = dir.join("bad.tns");
    std::fs::write(&tns, "1 1 2.0\nnot a data line\n").unwrap();
    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_tensor_exits_with_nonfinite_code() {
    let dir = tmpdir("nonfinite");
    let tns = dir.join("nan.tns");
    std::fs::write(&tns, "1 1 2.0\n2 2 nan\n").unwrap();
    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_rank_decompose_exits_with_solver_input_code() {
    let dir = tmpdir("zerorank");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "10x10x10", "--nnz", "100", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    for algo in ["als", "ncp"] {
        let out = adatm()
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "0", "--iters", "2", "--backend", "coo", "--algo", algo])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_info_convert_round_trip() {
    let dir = tmpdir("roundtrip");
    let tns = dir.join("t.tns");
    let bin = dir.join("t.adtm");

    let out = adatm()
        .args([
            "generate", "--dims", "40x50x30", "--nnz", "2000", "--skew", "0.7", "--seed", "3", "-o",
        ])
        .arg(&tns)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order     : 3"), "{text}");
    assert!(text.contains("nnz       : 2000"), "{text}");

    let out = adatm().arg("convert").arg(&tns).arg(&bin).output().unwrap();
    assert!(out.status.success());
    let out = adatm().arg("info").arg(&bin).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("nnz       : 2000"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_prints_candidates() {
    let dir = tmpdir("plan");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "20x30x25x15", "--nnz", "1500", "--skew", "0.8", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .args(["plan"])
        .arg(&tns)
        .args(["--rank", "8", "--estimator", "exact"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chosen"), "{text}");
    assert!(text.contains("bdt"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_moves_off_the_flat_tree_when_factor_gathers_miss_cache() {
    // Eight uniform modes of 12.5k rows at rank 16: a flat leaf gathers
    // rows from seven factors that together overflow the cache, so the
    // model's gather-miss term must steer the plan to a memoizing tree.
    let dir = tmpdir("plan8d");
    let tns = dir.join("t.tns");
    let dims = ["12500"; 8].join("x");
    let gen = adatm()
        .args(["generate", "--dims", &dims, "--nnz", "15000", "--seed", "1", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    assert!(gen.success());
    let out = adatm().arg("plan").arg(&tns).env_remove("ADATM_PROFILE").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gather-MiB/it"), "{text}");
    let chosen = text.lines().next().and_then(|l| l.split("chosen: ").nth(1)).unwrap_or("");
    assert!(!chosen.is_empty(), "{text}");
    assert_ne!(chosen, "(0 1 2 3 4 5 6 7)", "chose the flat tree:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_als_writes_factors() {
    let dir = tmpdir("als");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "25x20x15", "--nnz", "1000", "--seed", "5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let factors = dir.join("factors");
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "4", "--iters", "5", "--backend", "bdt", "--out"])
        .arg(&factors)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(factors.join("lambda.txt").exists());
    for d in 0..3 {
        let f = factors.join(format!("factor_{d}.txt"));
        assert!(f.exists());
        let lines = std::fs::read_to_string(&f).unwrap().lines().count();
        assert_eq!(lines, [25, 20, 15][d]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_with_explicit_shape() {
    let dir = tmpdir("shape");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "15x20x10x12", "--nnz", "800", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "3", "--iters", "3", "--shape", "((0 2) (1 3))"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("fit"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_ncp_and_cpopt_run() {
    let dir = tmpdir("algos");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "12x15x10", "--nnz", "500", "--skew", "0.5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    for algo in ["ncp", "cpopt", "complete"] {
        let out = adatm()
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "3", "--iters", "5", "--algo", algo, "--backend", "coo"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains(algo));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_tucker_runs() {
    let dir = tmpdir("tucker");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "20x15x12", "--nnz", "600", "--skew", "0.6", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--algo", "tucker", "--ranks", "3x3x3", "--iters", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tucker"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_shape_is_rejected() {
    let dir = tmpdir("badshape");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "10x10x10", "--nnz", "100", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "2", "--shape", "(0 1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_flags_are_a_usage_error_outside_als_and_ncp() {
    let dir = tmpdir("sweepflags");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "12x15x10", "--nnz", "500", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let ckpt = dir.join("ckpt");
    for (algo, flag, value) in [
        ("cpopt", "--checkpoint-dir", ckpt.to_str().unwrap()),
        ("complete", "--pp-tol", "0.02"),
        ("tucker", "--drift-factor", "3"),
    ] {
        let out = adatm()
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "3", "--iters", "2", "--backend", "coo", "--algo", algo, flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{algo} {flag}: flag must not be ignored");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag), "{algo}: names the flag");
    }
    assert!(!ckpt.exists(), "a rejected run must not create the checkpoint store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_ncp_checkpoints_with_pp_and_resumes() {
    let dir = tmpdir("ncpckpt");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "12x15x10", "--nnz", "500", "--skew", "0.5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let ckpt = dir.join("ckpt");
    let run = |iters: &str, resume: bool| {
        let mut cmd = adatm();
        cmd.arg("decompose").arg(&tns).args([
            "--rank",
            "3",
            "--iters",
            iters,
            "--tol",
            "0",
            "--algo",
            "ncp",
            "--backend",
            "coo",
            "--pp-tol",
            "0.02",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
        ]);
        cmd.arg(&ckpt);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().unwrap()
    };
    let out = run("4", false);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ncp: 4 iters"));
    assert!(std::fs::read_dir(&ckpt).unwrap().count() > 0, "ncp must write checkpoints");
    let out = run("6", true);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resume:") && stdout.contains("iteration 4"), "{stdout}");
    assert!(stdout.contains("ncp: 6 iters"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_an_ncp_checkpoint_without_algo_ncp_exits_with_checkpoint_code() {
    let dir = tmpdir("ncprule");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "12x15x10", "--nnz", "500", "--skew", "0.5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let ckpt = dir.join("ckpt");
    let decompose = |extra: &[&str]| {
        let mut cmd = adatm();
        cmd.arg("decompose").arg(&tns).args(["--rank", "3", "--iters", "4", "--tol", "0"]);
        cmd.args(extra).arg("--checkpoint-dir").arg(&ckpt);
        cmd.output().unwrap()
    };
    let out = decompose(&["--algo", "ncp", "--checkpoint-every", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The default algorithm is ALS: the NCP checkpoint must be refused.
    let out = decompose(&["--resume"]);
    assert_eq!(out.status.code(), Some(8), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ncp") && stderr.contains("als"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ncp_negative_value_exits_with_solver_input_code() {
    let dir = tmpdir("ncpneg");
    let tns = dir.join("neg.tns");
    std::fs::write(&tns, "1 1 1 2.0\n2 2 2 -1.0\n3 1 2 0.5\n").unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "2", "--iters", "2", "--algo", "ncp", "--backend", "coo"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("nonnegative"));
    let _ = std::fs::remove_dir_all(&dir);
}
