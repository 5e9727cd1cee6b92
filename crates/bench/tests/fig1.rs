//! `fig1` honours the shared `--threads` and `--checkpoint` flags: its
//! output does not depend on the worker count, and a checkpointed run
//! writes its checkpoint and resumes from it to the same output.

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

#[test]
fn fig1_writes_and_resumes_from_its_checkpoint() {
    let path =
        std::env::temp_dir().join(format!("sfi-fig1-checkpoint-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let checkpoint = path.to_str().expect("temp path is UTF-8");

    let fresh = fig1(&["--checkpoint", checkpoint]);
    assert!(path.exists(), "fig1 --checkpoint must write {checkpoint}");
    let resumed = fig1(&["--checkpoint", checkpoint]);
    assert_eq!(fresh, resumed);
    std::fs::remove_file(&path).ok();
}
