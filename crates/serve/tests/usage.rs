//! Usage-text drift tests: `--help` of both serve binaries must exit 0
//! and mention every flag (and subcommand) the argument parsers accept,
//! so the USAGE strings cannot silently fall behind the parsers.

use std::process::Command;

fn help_output(bin: &str) -> String {
    let output = Command::new(bin)
        .arg("--help")
        .output()
        .unwrap_or_else(|err| panic!("cannot run {bin} --help: {err}"));
    assert!(
        output.status.success(),
        "{bin} --help must exit 0, got {:?}",
        output.status
    );
    let text = String::from_utf8(output.stdout).expect("help is UTF-8");
    assert!(!text.is_empty(), "{bin} --help must print the usage text");
    text
}

#[test]
fn sfi_serve_help_mentions_every_accepted_flag() {
    // Keep in sync with the `match argv[i].as_str()` arms in
    // crates/serve/src/bin/sfi-serve.rs.
    let flags = [
        "--addr",
        "--fast",
        "--threads",
        "--max-concurrent-jobs",
        "--max-queued-per-client",
        "--max-running-per-client",
        "--result-cap-bytes",
        "--cache-dir",
        "--checkpoint-dir",
        "--state-dir",
        "--drain-timeout",
        "--conn-timeout",
        "--max-connections",
        "--drain-on-stdin",
        "--metrics-addr",
        "--event-buffer",
        "--help",
    ];
    let help = help_output(env!("CARGO_BIN_EXE_sfi-serve"));
    for flag in flags {
        assert!(help.contains(flag), "sfi-serve --help must mention {flag}");
    }
}

#[test]
fn sfi_client_help_mentions_every_command_and_flag() {
    // Keep in sync with the command dispatch and the per-command flag
    // loops in crates/serve/src/bin/sfi-client.rs.
    let commands = [
        "ping", "submit", "demo", "status", "stream", "result", "cancel", "poff", "metrics",
        "events", "trace", "drain", "shutdown",
    ];
    let flags = [
        "--addr",
        "--priority",
        "--client",
        "--key",
        "--freq",
        "--vdd",
        "--noise",
        "--resolution",
        "--trials",
        "--seed",
        "--model",
        "--dmem",
        "--name",
        "--limit",
        "--job",
        "--chrome",
    ];
    let help = help_output(env!("CARGO_BIN_EXE_sfi-client"));
    for command in commands {
        assert!(
            help.contains(command),
            "sfi-client --help must mention the {command} command"
        );
    }
    for flag in flags {
        assert!(help.contains(flag), "sfi-client --help must mention {flag}");
    }
    for priority in ["low", "normal", "high"] {
        assert!(
            help.contains(priority),
            "sfi-client --help must name the {priority} priority class"
        );
    }
}
