//! Static verification of guest programs, in the style of an eBPF verifier.
//!
//! The fault-injection statistics are conditioned on instruction class and
//! program behaviour, so every trial's validity rests on the guest
//! [`Program`] being well-formed. A malformed program discovered
//! *dynamically* burns a watchdog budget per trial and reports NaN metrics;
//! this crate discovers the same defects *statically*, once, before a
//! program reaches the scheduler, and reports them as typed diagnostics.
//!
//! The analyzer runs a fixed pass pipeline over the program:
//!
//! 1. **CFG construction** — basic blocks with `target = pc + 1 + offset`
//!    branch semantics; out-of-range targets are rejected ([`Rule::V001`]).
//! 2. **Reachability** — unreachable blocks are dead code ([`Rule::V003`]);
//!    a program whose exit (`pc == len`, the only normal termination) is
//!    unreachable can never finish ([`Rule::V002`]).
//! 3. **Register dataflow** — a forward definitely-initialized analysis.
//!    Reads of registers never written anywhere are errors ([`Rule::V004`]);
//!    reads that merely may happen before the first write are warnings
//!    ([`Rule::V005`]), because registers architecturally reset to zero.
//! 4. **Flag dataflow** — conditional branches must be dominated by a
//!    `l.sf*` flag definition on every path ([`Rule::V006`]).
//! 5. **Constant-address memory checks** — a local constant propagation
//!    resolves statically-known load/store addresses and checks them
//!    against the declared data-memory size and word alignment
//!    ([`Rule::V007`]).
//! 6. **Loop detection and watchdog estimate** — back edges mark the
//!    program as looping; loop-free programs get a conservative
//!    worst-case cycle bound (every control transfer taken, each paying
//!    [`sfi_isa::BRANCH_PENALTY_CYCLES`]).
//! 7. **Instruction-mix statistics** — an [`InstructionMix`] over
//!    reachable code, each instruction counted once (the paper's Table 1
//!    compute/control weights, derived statically).
//!
//! Every diagnostic carries a [`Span`] of program counters, a
//! [`Severity`], and a stable [`Rule`] code (`V001`…) that wire clients
//! and CI can match on.
//!
//! # Never-panics contract
//!
//! [`verify`] is total: for **any** decodable program and **any**
//! [`VerifyConfig`] — empty programs, self-branches, offsets at the
//! encoding extremes, degenerate or reversed fault windows, zero-sized
//! data memories — it returns a [`Report`] and never panics or overflows.
//! It runs on the untrusted submission path, so a crash here is a
//! denial-of-service primitive; the contract is enforced by the fuzz suite
//! in `tests/fuzz_verify.rs`.
//!
//! # Example
//!
//! ```
//! use sfi_isa::{Instruction, Program, Reg};
//! use sfi_verify::{verify, Rule, VerifyConfig};
//!
//! // `l.bf` branches far outside the two-instruction program.
//! let program = Program::new(vec![
//!     Instruction::Sfeq { ra: Reg(0), rb: Reg(0) },
//!     Instruction::Bf { offset: 100 },
//! ]);
//! let report = verify(&program, &VerifyConfig::new(64));
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].rule, Rule::V001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfg;
mod dataflow;

use sfi_isa::{InstructionMix, Program};
use std::fmt;
use std::ops::Range;

/// How serious a finding is.
///
/// Severity policy: anything that makes trial statistics meaningless or
/// lets a program escape its declared resources is an **error** (the serve
/// submission gate rejects it); stylistic or fragile-but-well-defined
/// constructs are **warnings** (CI still refuses them for the built-in
/// kernels, but submitted programs run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but well-defined behaviour.
    Warning,
    /// The program is broken; running it cannot produce meaningful trials.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of an analyzer rule.
///
/// Codes are append-only: a rule keeps its code forever so wire clients
/// and CI can match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Branch or jump target outside the program.
    V001,
    /// The program exit (`pc == len`) is unreachable from entry.
    V002,
    /// Unreachable (dead) code.
    V003,
    /// Read of a register that is never written anywhere in the program.
    V004,
    /// Read of a register that may not have been written yet on some path.
    V005,
    /// Conditional branch whose flag may be undefined on some path.
    V006,
    /// Constant-address load/store out of bounds or misaligned.
    V007,
    /// Declared fault-injection window invalid or covering no reachable code.
    V008,
    /// Empty program.
    V009,
}

impl Rule {
    /// All rules, in code order.
    pub const ALL: [Rule; 9] = [
        Rule::V001,
        Rule::V002,
        Rule::V003,
        Rule::V004,
        Rule::V005,
        Rule::V006,
        Rule::V007,
        Rule::V008,
        Rule::V009,
    ];

    /// The stable rule code, e.g. `"V001"`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::V001 => "V001",
            Rule::V002 => "V002",
            Rule::V003 => "V003",
            Rule::V004 => "V004",
            Rule::V005 => "V005",
            Rule::V006 => "V006",
            Rule::V007 => "V007",
            Rule::V008 => "V008",
            Rule::V009 => "V009",
        }
    }

    /// Short human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::V001 => "dangling-branch-target",
            Rule::V002 => "exit-unreachable",
            Rule::V003 => "unreachable-code",
            Rule::V004 => "never-written-register",
            Rule::V005 => "maybe-uninitialized-read",
            Rule::V006 => "branch-without-flag",
            Rule::V007 => "oob-constant-address",
            Rule::V008 => "fi-window-invalid",
            Rule::V009 => "empty-program",
        }
    }

    /// The fixed severity of findings under this rule.
    pub fn severity(self) -> Severity {
        match self {
            Rule::V003 | Rule::V005 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A half-open range of program counters a diagnostic refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// First program counter covered.
    pub start: u32,
    /// One past the last program counter covered.
    pub end: u32,
}

impl Span {
    /// A span covering the single instruction at `pc`.
    pub fn at(pc: u32) -> Self {
        Span {
            start: pc,
            end: pc + 1,
        }
    }

    /// A span covering `start..end`.
    pub fn range(start: u32, end: u32) -> Self {
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end <= self.start + 1 {
            write!(f, "pc {}", self.start)
        } else {
            write!(f, "pc {}..{}", self.start, self.end)
        }
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// The program counters the finding refers to.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(rule: Rule, span: Span, message: String) -> Self {
        Diagnostic {
            rule,
            span,
            message,
        }
    }

    /// The severity of this finding (fixed per rule).
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {}] {}: {}",
            self.severity(),
            self.rule.code(),
            self.rule.name(),
            self.span,
            self.message
        )
    }
}

/// What the analyzer should verify the program against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Declared data-memory size in 32-bit words; constant addresses are
    /// checked against `dmem_words * 4` bytes.
    pub dmem_words: usize,
    /// Declared fault-injection window (instruction addresses), if any.
    pub fi_window: Option<Range<u32>>,
}

impl VerifyConfig {
    /// A configuration checking against `dmem_words` words of data memory.
    pub fn new(dmem_words: usize) -> Self {
        VerifyConfig {
            dmem_words,
            fi_window: None,
        }
    }

    /// Also checks that `fi_window` is valid and covers reachable code.
    pub fn with_fi_window(mut self, fi_window: Range<u32>) -> Self {
        self.fi_window = Some(fi_window);
        self
    }
}

/// The result of verifying one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// All findings, ordered by span start then rule code.
    pub diagnostics: Vec<Diagnostic>,
    /// Instruction-mix statistics over reachable instructions.
    pub mix: InstructionMix,
    /// Total number of instructions in the program.
    pub instructions: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Number of basic blocks reachable from entry.
    pub reachable_blocks: usize,
    /// Number of instructions inside reachable blocks.
    pub reachable_instructions: usize,
    /// Whether the reachable control-flow graph contains a cycle.
    pub has_loops: bool,
    /// Conservative worst-case cycle count for loop-free programs (every
    /// control transfer taken, branch penalty included); `None` when the
    /// program loops or cannot exit, in which case only the dynamic
    /// watchdog bounds execution.
    pub max_straightline_cycles: Option<u64>,
}

impl Report {
    /// Number of error-level findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-level findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Whether any error-level finding was reported.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the program verified without any finding at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings under one rule.
    pub fn findings(&self, rule: Rule) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }
}

/// Runs the full pass pipeline over `program`.
pub fn verify(program: &Program, config: &VerifyConfig) -> Report {
    let mut diagnostics = Vec::new();
    let n = program.len() as u32;

    if program.is_empty() {
        diagnostics.push(Diagnostic::new(
            Rule::V009,
            Span::range(0, 0),
            "the program contains no instructions".to_string(),
        ));
        return Report {
            diagnostics,
            mix: InstructionMix::default(),
            instructions: 0,
            blocks: 0,
            reachable_blocks: 0,
            reachable_instructions: 0,
            has_loops: false,
            max_straightline_cycles: Some(0),
        };
    }

    let cfg = cfg::build(program, &mut diagnostics);

    for block in cfg.blocks.iter().filter(|b| !b.reachable) {
        diagnostics.push(Diagnostic::new(
            Rule::V003,
            Span::range(block.start, block.end),
            format!(
                "dead code: no control-flow path from entry reaches {}",
                Span::range(block.start, block.end)
            ),
        ));
    }

    if !cfg.exit_reachable {
        diagnostics.push(Diagnostic::new(
            Rule::V002,
            Span::range(0, n),
            format!(
                "the program can never terminate normally: no reachable path \
                 falls through to pc {n} (the only normal exit)"
            ),
        ));
    }

    dataflow::check(program, &cfg, config.dmem_words, &mut diagnostics);

    if let Some(window) = &config.fi_window {
        check_fi_window(window, n, &cfg, &mut diagnostics);
    }

    let mut mix = InstructionMix::default();
    let mut reachable_instructions = 0usize;
    for block in cfg.blocks.iter().filter(|b| b.reachable) {
        for pc in block.start..block.end {
            mix.add(&program.instructions()[pc as usize], 1);
            reachable_instructions += 1;
        }
    }

    let max_straightline_cycles = if cfg.has_loops || !cfg.exit_reachable {
        None
    } else {
        Some(cfg::longest_path_cycles(program, &cfg))
    };

    diagnostics.sort_by_key(|d| (d.span.start, d.rule));

    Report {
        diagnostics,
        mix,
        instructions: program.len(),
        blocks: cfg.blocks.len(),
        reachable_blocks: cfg.blocks.iter().filter(|b| b.reachable).count(),
        reachable_instructions,
        has_loops: cfg.has_loops,
        max_straightline_cycles,
    }
}

fn check_fi_window(window: &Range<u32>, n: u32, cfg: &cfg::Cfg, diags: &mut Vec<Diagnostic>) {
    let span = Span::range(window.start.min(n), window.end.min(n));
    if window.start >= window.end {
        diags.push(Diagnostic::new(
            Rule::V008,
            span,
            format!(
                "fi_window {}..{} is empty; no instruction can ever be faulted",
                window.start, window.end
            ),
        ));
        return;
    }
    if window.end > n {
        diags.push(Diagnostic::new(
            Rule::V008,
            span,
            format!(
                "fi_window {}..{} extends past the end of the program ({n} instructions)",
                window.start, window.end
            ),
        ));
        return;
    }
    let covers_reachable = cfg
        .blocks
        .iter()
        .filter(|b| b.reachable)
        .any(|b| b.start < window.end && window.start < b.end);
    if !covers_reachable {
        diags.push(Diagnostic::new(
            Rule::V008,
            span,
            format!(
                "fi_window {}..{} covers no reachable instruction; every trial \
                 would be a guaranteed no-fault run",
                window.start, window.end
            ),
        ));
    }
}
