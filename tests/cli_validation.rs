//! `transpim-sim` rejects inputs it cannot price with one diagnostic line
//! and exit status 1, instead of panicking or printing a meaningless
//! result.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_transpim-sim")).args(args).output().expect("run transpim-sim")
}

/// Exit status 1 and exactly one `error: ...` line on stderr containing
/// `needle`; nothing on stdout.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one diagnostic line, got: {stderr}");
    assert!(lines[0].starts_with("error: "), "{stderr}");
    assert!(lines[0].contains(needle), "expected '{needle}' in: {stderr}");
    assert!(out.stdout.is_empty(), "no report on failure");
}

fn workload_file(name: &str, heads: usize, d_model: usize, seq_len: usize) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let json = format!(
        r#"{{"name":"bad","model":{{"name":"bad","encoder_layers":1,"decoder_layers":0,
        "d_model":{d_model},"heads":{heads},"d_ff":3072,"cross_attention":false}},
        "seq_len":{seq_len},"decode_len":0,"batch":1}}"#
    );
    std::fs::write(&path, json).expect("write workload file");
    format!("file:{}", path.display())
}

#[test]
fn zero_acus_per_bank_is_rejected() {
    assert_rejected(&sim(&["--workload", "imdb", "--p-sub", "0"]), "acu.p_sub");
    assert_rejected(&sim(&["--workload", "imdb", "--p-add", "0", "--all"]), "acu.p_add");
}

#[test]
fn zero_heads_in_a_workload_file_is_rejected() {
    let w = workload_file("zero-heads.json", 0, 768, 128);
    assert_rejected(&sim(&["--workload", &w]), "heads");
}

#[test]
fn heads_that_do_not_divide_d_model_are_rejected() {
    let w = workload_file("uneven-heads.json", 5, 768, 128);
    assert_rejected(&sim(&["--workload", &w, "--dataflow", "layer"]), "divisible");
}

#[test]
fn valid_overrides_still_run() {
    let out = sim(&["--workload", "imdb", "--p-sub", "8", "--p-add", "2", "--stacks", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Token-TransPIM"));
}

#[test]
fn sizes_that_overflow_u32_indices_are_rejected() {
    // 2^24 stacks of 256 banks wrap the bank count to 0; one more stack
    // wraps it to 256.
    assert_rejected(&sim(&["--stacks", "16777216"]), "bank count 4294967296");
    assert_rejected(&sim(&["--stacks", "16777217"]), "bank count 4294967552");
    // Sequence lengths past u32 would be truncated by the sharding.
    assert_rejected(&sim(&["--seq-len", "4294967296"]), "seq_len 4294967296");
    assert_rejected(&sim(&["--seq-len", "4294967297"]), "seq_len 4294967297");
}

#[test]
fn sizes_that_overflow_u64_work_counts_are_rejected() {
    // 3·L·D² multiplies for the Q/K/V projections: 1.2e22, past u64.
    let w = workload_file("huge-projection.json", 1, 1_000_000, 4_000_000_000);
    for dataflow in ["token", "layer"] {
        assert_rejected(
            &sim(&["--workload", &w, "--dataflow", dataflow]),
            "3·seq_len·d_model²·batch overflows u64",
        );
    }
}

#[test]
fn decode_loops_whose_op_count_overflows_u64_are_rejected_at_once() {
    // lm at u32::MAX generated tokens performs 9.1e23 ops. Pricing it would
    // not finish, so it must be refused before compiling; a run that is
    // still going after the deadline is killed and fails the test.
    let mut child = Command::new(env!("CARGO_BIN_EXE_transpim-sim"))
        .args(["--workload", "lm", "--decode", "4294967295"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run transpim-sim");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll transpim-sim").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill transpim-sim");
            panic!("--decode 4294967295 was not rejected within 20 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect transpim-sim output");
    assert_rejected(&out, "total ops overflows u64");
}

#[test]
fn capacity_warning_is_one_line_with_single_spaces() {
    let out = sim(&["--workload", "imdb", "--stacks", "1", "--seq-len", "100000"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let warning: Vec<&str> = stderr.lines().filter(|l| l.starts_with("warning: ")).collect();
    assert_eq!(warning.len(), 1, "{stderr}");
    assert!(warning[0].contains("MiB bank (weights"), "{stderr}");
    assert!(warning[0].ends_with("add stacks or shorten the sequence"), "{stderr}");
}
