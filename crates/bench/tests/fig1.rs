//! `fig1` honours the shared `--threads` and `--checkpoint` flags: its
//! output does not depend on the worker count, and a checkpointed run
//! writes its checkpoint log and resumes from it — whole, torn by a crash
//! or left over in the old JSON-document format — to the same output.

use sfi_campaign::journal::{frame, replay_bytes};
use sfi_campaign::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn fig1(extra: &[&str]) -> String {
    let bin = env!("CARGO_BIN_EXE_fig1");
    let output = Command::new(bin)
        .args(["--fast", "--trials", "2", "--points", "3"])
        .args(extra)
        .output()
        .unwrap_or_else(|err| panic!("cannot run {bin}: {err}"));
    assert!(
        output.status.success(),
        "fig1 {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn fig1_output_does_not_depend_on_the_thread_count() {
    assert_eq!(fig1(&["--threads", "1"]), fig1(&["--threads", "3"]));
}

fn checkpoint_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sfi-fig1-{tag}-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The records of a checkpoint log, asserting it has no torn tail.
fn log_records(path: &PathBuf) -> Vec<Json> {
    let (records, warning) = replay_bytes(&std::fs::read(path).expect("log exists"));
    assert_eq!(warning, None, "the log is whole");
    records
}

#[test]
fn fig1_writes_and_resumes_from_its_checkpoint() {
    let path = checkpoint_path("checkpoint");
    let checkpoint = path.to_str().expect("temp path is UTF-8");

    let fresh = fig1(&["--checkpoint", checkpoint]);
    assert!(path.exists(), "fig1 --checkpoint must write {checkpoint}");
    let resumed = fig1(&["--checkpoint", checkpoint]);
    assert_eq!(fresh, resumed);
    std::fs::remove_file(&path).ok();
}

#[test]
fn fig1_resumes_from_a_log_torn_inside_its_last_record() {
    let clean = fig1(&[]);
    let path = checkpoint_path("torn");
    let checkpoint = path.to_str().expect("temp path is UTF-8");
    assert_eq!(fig1(&["--checkpoint", checkpoint]), clean);
    let whole = std::fs::read(&path).expect("log exists");
    let records = log_records(&path);
    assert_eq!(
        records.len(),
        1 + 3 * 3,
        "a header and three 3-point sweeps"
    );
    let last = frame(records.last().unwrap()).len();
    for k in [1, 4, 8, 9, last / 2, last - 1] {
        std::fs::write(&path, &whole[..whole.len() - k]).expect("tears the log");
        assert_eq!(
            fig1(&["--checkpoint", checkpoint]),
            clean,
            "{k} bytes torn off"
        );
        assert_eq!(
            log_records(&path).len(),
            records.len(),
            "the torn cell is logged again"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn fig1_replaces_an_old_json_document_checkpoint() {
    let clean = fig1(&[]);
    let path = checkpoint_path("old");
    let checkpoint = path.to_str().expect("temp path is UTF-8");
    fig1(&["--checkpoint", checkpoint]);
    let header = log_records(&path).remove(0);

    // The old format: one JSON document of this very campaign (same
    // fingerprint) whose cells, if trusted, would change the output.
    let bogus_cell = Json::obj([
        ("cell", Json::Num(0.0)),
        ("stopped_early", Json::Bool(false)),
        (
            "trials",
            Json::Arr(vec![
                Json::Arr(vec![
                    Json::Bool(false),
                    Json::Bool(false),
                    Json::Null,
                    Json::Num(999.0),
                    Json::Num(1.0),
                ]);
                2
            ]),
        ),
    ]);
    let field = |key: &str| header.get(key).expect("header field").clone();
    let document = Json::obj([
        ("cells", Json::Arr(vec![bogus_cell])),
        ("fingerprint", field("fingerprint")),
        ("name", field("name")),
        ("seed", field("seed")),
        ("version", field("version")),
    ]);
    std::fs::write(&path, document.to_string()).expect("writes the old checkpoint");

    assert_eq!(fig1(&["--checkpoint", checkpoint]), clean);
    let records = log_records(&path);
    assert_eq!(records[0], header, "a fresh log replaced the document");
    std::fs::remove_file(&path).ok();
}
