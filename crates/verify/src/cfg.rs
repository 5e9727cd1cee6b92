//! Basic-block control-flow graph construction, reachability, loop
//! detection and the worst-case cycle bound for loop-free programs.

use crate::{Diagnostic, Rule, Span};
use sfi_isa::{Instruction, InstructionKind, Program, BRANCH_PENALTY_CYCLES};

/// Sentinel successor index for the program exit (`pc == len`).
pub(crate) const EXIT: usize = usize::MAX;

/// A maximal straight-line run of instructions.
#[derive(Debug)]
pub(crate) struct Block {
    /// First program counter of the block.
    pub start: u32,
    /// One past the last program counter of the block.
    pub end: u32,
    /// Successor block indices ([`EXIT`] for the program exit).
    pub succs: Vec<usize>,
    /// Whether the block is reachable from entry.
    pub reachable: bool,
}

/// The control-flow graph of one program.
#[derive(Debug)]
pub(crate) struct Cfg {
    /// Blocks in address order (block 0 is the entry).
    pub blocks: Vec<Block>,
    /// Whether any reachable block has an exit edge.
    pub exit_reachable: bool,
    /// Whether the reachable subgraph contains a cycle.
    pub has_loops: bool,
}

impl Cfg {
    /// Index of the block starting at `pc` (which must be a leader).
    fn block_at(&self, pc: u32) -> usize {
        self.blocks
            .binary_search_by_key(&pc, |b| b.start)
            .expect("edge targets are block leaders")
    }
}

/// Builds the CFG, recording out-of-range targets as [`Rule::V001`].
///
/// Modelling choices for the two dynamic control instructions:
/// `l.jal` is treated as a call — both its target and its fall-through
/// (the return point) are successors; `l.jr` is treated as a return — its
/// only successor is the program exit. This matches the call/return idiom
/// the ISA supports (`l.jal` writes `r9`, `l.jr r9` returns) and keeps the
/// definitely-initialized analysis sound for it: the callee can only add
/// register definitions, never remove them.
pub(crate) fn build(program: &Program, diags: &mut Vec<Diagnostic>) -> Cfg {
    let instrs = program.instructions();
    let n = instrs.len();

    // Pass 1: leaders. Every branch/jump target and every instruction
    // after a control transfer starts a block; so does the entry.
    let mut leader = vec![false; n];
    leader[0] = true;
    for (pc, instr) in instrs.iter().enumerate() {
        if let Some(offset) = instr.relative_offset() {
            let target = pc as i64 + 1 + i64::from(offset);
            if (0..n as i64).contains(&target) {
                leader[target as usize] = true;
            } else if target != n as i64 {
                diags.push(Diagnostic::new(
                    Rule::V001,
                    Span::at(pc as u32),
                    format!(
                        "`{instr}` at pc {pc} targets {target}, outside the program \
                         (valid targets are 0..={n}; {n} is the exit)"
                    ),
                ));
            }
        }
        let is_control = matches!(
            instr.kind(),
            InstructionKind::Branch | InstructionKind::Jump
        );
        if is_control && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }

    // Pass 2: block extents.
    let mut blocks = Vec::new();
    let mut start = 0u32;
    for (pc, &leads) in leader.iter().enumerate().skip(1) {
        if leads {
            blocks.push(Block {
                start,
                end: pc as u32,
                succs: Vec::new(),
                reachable: false,
            });
            start = pc as u32;
        }
    }
    blocks.push(Block {
        start,
        end: n as u32,
        succs: Vec::new(),
        reachable: false,
    });

    let mut cfg = Cfg {
        blocks,
        exit_reachable: false,
        has_loops: false,
    };

    // Pass 3: edges. Out-of-range targets (already diagnosed) get no edge.
    for idx in 0..cfg.blocks.len() {
        let last_pc = cfg.blocks[idx].end - 1;
        let last = instrs[last_pc as usize];
        let mut succs = Vec::new();
        let add = |succs: &mut Vec<usize>, cfg: &Cfg, target: i64| {
            if target == n as i64 {
                succs.push(EXIT);
            } else if (0..n as i64).contains(&target) {
                succs.push(cfg.block_at(target as u32));
            }
        };
        let fall = i64::from(last_pc) + 1;
        match last {
            Instruction::Bf { offset } | Instruction::Bnf { offset } => {
                add(&mut succs, &cfg, fall);
                add(&mut succs, &cfg, fall + i64::from(offset));
            }
            Instruction::J { offset } => {
                add(&mut succs, &cfg, fall + i64::from(offset));
            }
            Instruction::Jal { offset } => {
                add(&mut succs, &cfg, fall + i64::from(offset));
                add(&mut succs, &cfg, fall);
            }
            Instruction::Jr { .. } => succs.push(EXIT),
            _ => add(&mut succs, &cfg, fall),
        }
        succs.dedup();
        cfg.blocks[idx].succs = succs;
    }

    // Pass 4: reachability (iterative DFS from the entry block).
    let mut stack = vec![0usize];
    cfg.blocks[0].reachable = true;
    while let Some(idx) = stack.pop() {
        for s in cfg.blocks[idx].succs.clone() {
            if s == EXIT {
                cfg.exit_reachable = true;
            } else if !cfg.blocks[s].reachable {
                cfg.blocks[s].reachable = true;
                stack.push(s);
            }
        }
    }

    // Pass 5: back-edge detection over the reachable subgraph
    // (iterative three-color DFS).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; cfg.blocks.len()];
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = Color::Gray;
    while let Some(&(idx, next)) = stack.last() {
        if next < cfg.blocks[idx].succs.len() {
            stack.last_mut().expect("stack is non-empty").1 += 1;
            let s = cfg.blocks[idx].succs[next];
            if s == EXIT {
                continue;
            }
            match color[s] {
                Color::White => {
                    color[s] = Color::Gray;
                    stack.push((s, 0));
                }
                Color::Gray => cfg.has_loops = true,
                Color::Black => {}
            }
        } else {
            color[idx] = Color::Black;
            stack.pop();
        }
    }

    cfg
}

/// Worst-case cycle count over the (acyclic, exiting) reachable CFG:
/// longest entry→exit path where every instruction costs one cycle and
/// every control transfer additionally pays [`BRANCH_PENALTY_CYCLES`].
///
/// Only meaningful when [`Cfg::has_loops`] is false and
/// [`Cfg::exit_reachable`] is true.
pub(crate) fn longest_path_cycles(program: &Program, cfg: &Cfg) -> u64 {
    fn block_cycles(program: &Program, block: &Block) -> u64 {
        (block.start..block.end)
            .map(|pc| {
                let kind = program.instructions()[pc as usize].kind();
                match kind {
                    InstructionKind::Branch | InstructionKind::Jump => 1 + BRANCH_PENALTY_CYCLES,
                    _ => 1,
                }
            })
            .sum()
    }

    // Memoized longest path to exit per block; the graph is a DAG.
    fn longest_from(
        program: &Program,
        cfg: &Cfg,
        idx: usize,
        memo: &mut [Option<Option<u64>>],
    ) -> Option<u64> {
        if let Some(cached) = memo[idx] {
            return cached;
        }
        let own = block_cycles(program, &cfg.blocks[idx]);
        let mut best: Option<u64> = None;
        for &s in &cfg.blocks[idx].succs {
            let tail = if s == EXIT {
                Some(0)
            } else {
                longest_from(program, cfg, s, memo)
            };
            if let Some(t) = tail {
                best = Some(best.map_or(t, |b: u64| b.max(t)));
            }
        }
        // Blocks from which the exit is unreachable contribute nothing.
        let result = best.map(|b| b + own);
        memo[idx] = Some(result);
        result
    }

    let mut memo = vec![None; cfg.blocks.len()];
    longest_from(program, cfg, 0, &mut memo).unwrap_or(0)
}
