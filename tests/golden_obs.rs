//! End-to-end byte identity of the observability documents.
//!
//! Runs `transpim-sim` with `--trace` and `--metrics` on small shapes and
//! compares both files byte for byte with the committed documents under
//! `tests/golden/`. The cases cover span, counter, instant and metadata
//! records, ring/tree hop detail, per-resource occupancy counters, the
//! fault track, and both metrics formats (JSON and CSV).
//!
//! After an intentional format change, regenerate the documents with
//! `TRANSPIM_BLESS_GOLDEN=1 cargo test --test golden_obs` and review the
//! diff.

use std::path::{Path, PathBuf};
use std::process::Command;

struct Case {
    /// File stem under `tests/golden/`.
    name: &'static str,
    /// CLI arguments; `{golden}` expands to the golden directory.
    args: &'static [&'static str],
    /// Extension of the metrics document (`json` or `csv`).
    metrics_ext: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "imdb-1layer.token-transpim",
        args: &[
            "--workload",
            "file:{golden}/imdb-1layer.workload.json",
            "--dataflow",
            "token",
            "--arch",
            "transpim",
        ],
        metrics_ext: "json",
    },
    Case {
        name: "imdb-1layer.token-transpim.faults",
        args: &[
            "--workload",
            "file:{golden}/imdb-1layer.workload.json",
            "--dataflow",
            "token",
            "--arch",
            "transpim",
            "--faults",
            "{golden}/imdb-1layer.faults.json",
        ],
        metrics_ext: "json",
    },
    Case {
        name: "lm-decode4.layer-transpim-nb",
        args: &[
            "--workload",
            "lm",
            "--decode",
            "4",
            "--dataflow",
            "layer",
            "--arch",
            "transpim-nb",
        ],
        metrics_ext: "csv",
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Run one case and return `(trace, metrics)` document bytes.
fn run_case(case: &Case) -> (Vec<u8>, Vec<u8>) {
    let golden = golden_dir();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_obs");
    std::fs::create_dir_all(&out).expect("create scratch directory");
    let trace = out.join(format!("{}.trace.json", case.name));
    let metrics = out.join(format!("{}.metrics.{}", case.name, case.metrics_ext));
    let args = case.args.iter().map(|a| a.replace("{golden}", &golden.to_string_lossy()));
    let status = Command::new(env!("CARGO_BIN_EXE_transpim-sim"))
        .args(args)
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run transpim-sim");
    assert!(
        status.status.success(),
        "{}: transpim-sim failed: {}",
        case.name,
        String::from_utf8_lossy(&status.stderr)
    );
    (std::fs::read(&trace).expect("read trace"), std::fs::read(&metrics).expect("read metrics"))
}

fn check_case(case: &Case) {
    let (trace, metrics) = run_case(case);
    let golden = golden_dir();
    let docs = [
        (golden.join(format!("{}.trace.json", case.name)), trace),
        (golden.join(format!("{}.metrics.{}", case.name, case.metrics_ext)), metrics),
    ];
    for (path, bytes) in docs {
        if std::env::var_os("TRANSPIM_BLESS_GOLDEN").is_some() {
            std::fs::write(&path, &bytes).expect("write golden document");
            continue;
        }
        let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if want != bytes {
            let at = want.iter().zip(&bytes).position(|(a, b)| a != b).unwrap_or(want.len());
            panic!(
                "{} differs from the regenerated document at byte {at} \
                 (golden {} bytes, regenerated {} bytes)",
                path.display(),
                want.len(),
                bytes.len()
            );
        }
    }
}

#[test]
fn imdb_token_transpim_documents_match_golden() {
    check_case(&CASES[0]);
}

#[test]
fn imdb_token_transpim_faults_documents_match_golden() {
    check_case(&CASES[1]);
}

#[test]
fn lm_decode_layer_transpim_nb_documents_match_golden() {
    check_case(&CASES[2]);
}
