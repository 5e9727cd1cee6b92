//! Markdown-driven ISA conformance suite.
//!
//! The tables under `docs/conformance/*.md` are the executable
//! specification of the instruction set: each row gives a fragment of
//! text assembly, its expected encoding, an optional architectural
//! pre-state and the expected post-state after running it on the
//! cycle-accurate core.  This harness parses every table, assembles the
//! `asm` column with `sfi_asm`, checks the encoding bit-for-bit in both
//! directions (`to_words` and `Program::from_words`), executes the
//! program and checks every `expect` assignment.
//!
//! The row format is documented in `docs/conformance/README.md`; the
//! completeness tests at the bottom guarantee that every mnemonic and
//! every `InstructionKind` of the ISA appears in at least one row, so a
//! new instruction cannot be added without also specifying it here.

use sfi_cpu::{Core, RunConfig, RunOutcome};
use sfi_isa::{InstructionKind, Program, Reg, MNEMONICS};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Data memory, in words, every conformance row runs with.
const DMEM_WORDS: usize = 16;
/// Watchdog budget: generous for straight-line rows, small enough that
/// the deliberate-infinite-loop rows finish quickly.
const MAX_CYCLES: u64 = 10_000;
/// Pipeline-refill penalty per taken branch or jump, copied from the README
/// (`cycles=` depends on it) as an oracle for `sfi_isa::BRANCH_PENALTY_CYCLES`.
const BRANCH_PENALTY: u64 = 2;

fn conformance_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/conformance")
}

/// One `key=value` assignment from a `setup` or `expect` cell.
#[derive(Debug, Clone)]
enum Assign {
    Reg(u8, u32),
    Flag(bool),
    Mem(u32, u32),
    Pc(u32),
    Cycles(u64),
    Outcome(String),
}

#[derive(Debug)]
struct Row {
    /// `file.md:line` of the table row, for failure messages.
    at: String,
    asm: String,
    words: Vec<u32>,
    setup: Vec<Assign>,
    expect: Vec<Assign>,
}

/// Parses a decimal, `0x` hexadecimal or negative-decimal integer into
/// its 32-bit two's-complement bit pattern.
fn parse_u32(text: &str) -> Result<u32, String> {
    let parse = |t: &str| -> Result<u64, String> {
        if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad hex '{text}'"))
        } else {
            t.parse().map_err(|_| format!("bad integer '{text}'"))
        }
    };
    if let Some(rest) = text.strip_prefix('-') {
        let magnitude = parse(rest)?;
        if magnitude > 1 << 31 {
            return Err(format!("'{text}' does not fit in 32 bits"));
        }
        Ok((magnitude as u32).wrapping_neg())
    } else {
        let value = parse(text)?;
        u32::try_from(value).map_err(|_| format!("'{text}' does not fit in 32 bits"))
    }
}

fn parse_assign(item: &str, is_expect: bool) -> Result<Assign, String> {
    let (key, value) = item
        .split_once('=')
        .ok_or_else(|| format!("'{item}' is not a key=value assignment"))?;
    if let Some(index) = key.strip_prefix("mem[").and_then(|k| k.strip_suffix(']')) {
        return Ok(Assign::Mem(parse_u32(index)?, parse_u32(value)?));
    }
    if let Some(n) = key.strip_prefix('r') {
        if let Ok(n) = n.parse::<u8>() {
            if n >= 32 {
                return Err(format!("register r{n} out of range"));
            }
            return Ok(Assign::Reg(n, parse_u32(value)?));
        }
    }
    match key {
        "flag" => match value {
            "0" => Ok(Assign::Flag(false)),
            "1" => Ok(Assign::Flag(true)),
            other => Err(format!("flag must be 0 or 1, got '{other}'")),
        },
        "pc" if is_expect => Ok(Assign::Pc(parse_u32(value)?)),
        "cycles" if is_expect => value
            .parse()
            .map(Assign::Cycles)
            .map_err(|_| format!("bad cycle count '{value}'")),
        "outcome" if is_expect => match value {
            "finished" | "watchdog" | "memory_fault" | "invalid_pc" => {
                Ok(Assign::Outcome(value.to_string()))
            }
            other => Err(format!("unknown outcome '{other}'")),
        },
        other => Err(format!("unknown key '{other}'")),
    }
}

/// Strips a backtick-quoted cell down to its content.
fn unquote(cell: &str) -> Result<&str, String> {
    let cell = cell.trim();
    cell.strip_prefix('`')
        .and_then(|c| c.strip_suffix('`'))
        .ok_or_else(|| format!("cell '{cell}' must be backtick-quoted"))
}

fn parse_state_cell(cell: &str, is_expect: bool) -> Result<Vec<Assign>, String> {
    let cell = cell.trim();
    if cell.is_empty() || cell == "—" || cell == "-" {
        return Ok(Vec::new());
    }
    unquote(cell)?
        .split_whitespace()
        .map(|item| parse_assign(item, is_expect))
        .collect()
}

/// Extracts the conformance rows of one markdown file.
fn parse_file(path: &Path) -> Vec<Row> {
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
    let mut rows = Vec::new();
    for (index, line) in source.lines().enumerate() {
        let at = format!("{name}:{}", index + 1);
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        // Header and separator rows of the table itself.
        if cells.first() == Some(&"asm")
            || cells.iter().all(|c| c.chars().all(|ch| "-: ".contains(ch)))
        {
            continue;
        }
        assert_eq!(
            cells.len(),
            4,
            "{at}: expected | asm | words | setup | expect |"
        );
        let asm = unquote(cells[0])
            .unwrap_or_else(|e| panic!("{at}: {e}"))
            .split(" / ")
            .collect::<Vec<_>>()
            .join("\n");
        let words = unquote(cells[1])
            .unwrap_or_else(|e| panic!("{at}: {e}"))
            .split_whitespace()
            .map(|w| parse_u32(w).unwrap_or_else(|e| panic!("{at}: {e}")))
            .collect();
        let setup = parse_state_cell(cells[2], false).unwrap_or_else(|e| panic!("{at}: {e}"));
        let expect = parse_state_cell(cells[3], true).unwrap_or_else(|e| panic!("{at}: {e}"));
        rows.push(Row {
            at,
            asm: format!("{asm}\n"),
            words,
            setup,
            expect,
        });
    }
    rows
}

/// Loads every table under `docs/conformance/`, requiring each file to
/// contribute at least one row.
fn all_rows() -> Vec<Row> {
    let dir = conformance_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the README plus at least four class tables in {}",
        dir.display()
    );
    let mut rows = Vec::new();
    for path in &paths {
        let file_rows = parse_file(path);
        assert!(
            !file_rows.is_empty(),
            "{} contains no conformance rows — table format drift?",
            path.display()
        );
        rows.extend(file_rows);
    }
    rows
}

/// Assembles and encodes one row, checking the `words` column in both
/// directions.  Returns the program.
fn check_encoding(row: &Row) -> Program {
    let assembly = sfi_asm::assemble(&row.asm).unwrap_or_else(|e| {
        panic!(
            "{}: does not assemble:\n{}",
            row.at,
            e.render("row", &row.asm)
        )
    });
    let words = assembly.program.to_words();
    assert_eq!(
        words,
        row.words,
        "{}: encoding mismatch for `{}` (expected the table's words column)",
        row.at,
        row.asm.trim()
    );
    let decoded = Program::from_words(&row.words)
        .unwrap_or_else(|e| panic!("{}: words column does not decode: {e}", row.at));
    assert_eq!(
        decoded, assembly.program,
        "{}: decode(words) disagrees with the assembled program",
        row.at
    );
    assembly.program
}

/// Runs one row's program and checks every `expect` assignment.
fn check_execution(row: &Row, program: &Program) {
    let mut core = Core::new(program.clone(), DMEM_WORDS);
    for assign in &row.setup {
        match *assign {
            Assign::Reg(n, value) => core.state_mut().set_reg(Reg(n), value),
            Assign::Flag(value) => core.state_mut().flag = value,
            Assign::Mem(index, value) => core
                .memory_mut()
                .store_word(4 * index, value)
                .unwrap_or_else(|e| panic!("{}: setup mem[{index}]: {e:?}", row.at)),
            _ => unreachable!("setup cells only parse registers, flag and memory"),
        }
    }
    let outcome = core.run(&RunConfig {
        max_cycles: MAX_CYCLES,
        fi_window: None,
    });
    let mut outcome_checked = false;
    for assign in &row.expect {
        match assign {
            Assign::Reg(n, value) => assert_eq!(
                core.state().reg(Reg(*n)),
                *value,
                "{}: r{n} after `{}`",
                row.at,
                row.asm.trim()
            ),
            Assign::Flag(value) => assert_eq!(
                core.state().flag,
                *value,
                "{}: flag after `{}`",
                row.at,
                row.asm.trim()
            ),
            Assign::Mem(index, value) => {
                let got = core
                    .memory()
                    .load_word(4 * index)
                    .unwrap_or_else(|e| panic!("{}: expect mem[{index}]: {e:?}", row.at));
                assert_eq!(
                    got,
                    *value,
                    "{}: mem[{index}] after `{}`",
                    row.at,
                    row.asm.trim()
                );
            }
            Assign::Pc(value) => assert_eq!(
                core.state().pc,
                *value,
                "{}: final pc after `{}`",
                row.at,
                row.asm.trim()
            ),
            Assign::Cycles(value) => assert_eq!(
                outcome.cycles(),
                *value,
                "{}: cycle count after `{}`",
                row.at,
                row.asm.trim()
            ),
            Assign::Outcome(name) => {
                outcome_checked = true;
                let got = match outcome {
                    RunOutcome::Finished { .. } => "finished",
                    RunOutcome::Watchdog { .. } => "watchdog",
                    RunOutcome::MemoryFault { .. } => "memory_fault",
                    RunOutcome::InvalidPc { .. } => "invalid_pc",
                };
                assert_eq!(got, name, "{}: outcome of `{}`", row.at, row.asm.trim());
            }
        }
    }
    if !outcome_checked {
        assert!(
            outcome.finished(),
            "{}: `{}` must finish normally (add outcome=... to expect otherwise), got {outcome:?}",
            row.at,
            row.asm.trim()
        );
    }
}

#[test]
fn every_conformance_row_assembles_encodes_and_executes_as_specified() {
    assert_eq!(BRANCH_PENALTY, sfi_isa::BRANCH_PENALTY_CYCLES);
    let rows = all_rows();
    assert!(
        rows.len() >= 40,
        "suspiciously few conformance rows: {}",
        rows.len()
    );
    for row in &rows {
        let program = check_encoding(row);
        check_execution(row, &program);
    }
}

#[test]
fn every_mnemonic_appears_in_at_least_one_conformance_row() {
    let mut seen = BTreeSet::new();
    for row in &all_rows() {
        let program = check_encoding(row);
        for instruction in program.instructions() {
            seen.insert(instruction.mnemonic());
        }
    }
    let missing: Vec<&str> = MNEMONICS
        .iter()
        .copied()
        .filter(|m| !seen.contains(m))
        .collect();
    assert!(
        missing.is_empty(),
        "instructions with no conformance row: {missing:?}"
    );
}

#[test]
fn every_instruction_kind_appears_in_at_least_one_conformance_row() {
    let mut seen = BTreeSet::new();
    for row in &all_rows() {
        let program = check_encoding(row);
        for instruction in program.instructions() {
            seen.insert(format!("{:?}", instruction.kind()));
        }
    }
    for kind in [
        InstructionKind::Alu,
        InstructionKind::Load,
        InstructionKind::Store,
        InstructionKind::Branch,
        InstructionKind::Jump,
        InstructionKind::Nop,
    ] {
        assert!(
            seen.contains(&format!("{kind:?}")),
            "no conformance row covers InstructionKind::{kind:?}"
        );
    }
}
