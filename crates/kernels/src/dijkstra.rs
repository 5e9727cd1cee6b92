//! The Dijkstra shortest-path benchmark (all-pairs over a small graph).
//!
//! Heavily control oriented: the kernel is dominated by comparisons,
//! branches and memory accesses, with multiplications only in address
//! arithmetic — the benchmark with the narrowest transition region in the
//! paper (Fig. 6(d)).

use crate::data::random_graph;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Infinity marker used for unreachable distances.
pub const UNREACHABLE: u32 = 0x7FFF_FFFF;

/// All-pairs shortest paths on a small weighted graph via repeated
/// Dijkstra runs (O(n²) selection, no priority queue).
#[derive(Debug, Clone)]
pub struct DijkstraBenchmark {
    nodes: usize,
    /// The row-major adjacency matrix: the input word image.
    adjacency: Vec<u32>,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<Vec<u32>>,
}

impl DijkstraBenchmark {
    const ADJ_BASE: u32 = 0;

    /// Creates the benchmark for a random connected graph of `nodes` nodes
    /// (the paper uses 10).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is smaller than 2 or larger than 32.
    pub fn new(nodes: usize, seed: u64) -> Self {
        assert!(
            (2..=32).contains(&nodes),
            "node count must be in 2..=32, got {nodes}"
        );
        let adjacency = random_graph(nodes, 50, seed).concat();
        let (program, fi_window) = Self::build_program(nodes);
        DijkstraBenchmark {
            nodes,
            adjacency,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn dist_base(&self) -> u32 {
        Self::ADJ_BASE + (4 * self.nodes * self.nodes) as u32
    }

    /// Byte address of the per-run visited flags (scratch storage used by
    /// the kernel, exposed for inspection in tests and tools).
    pub fn visited_base(&self) -> u32 {
        self.dist_base() + (4 * self.nodes * self.nodes) as u32
    }

    /// The golden all-pairs shortest-distance matrix, row major.
    pub fn golden_distances(&self) -> &[u32] {
        self.golden.get_or_init(|| {
            let n = self.nodes;
            let mut all = vec![UNREACHABLE; n * n];
            for source in 0..n {
                let mut dist = vec![UNREACHABLE; n];
                let mut visited = vec![false; n];
                dist[source] = 0;
                for _ in 0..n {
                    let mut best = UNREACHABLE;
                    let mut u = 0;
                    for (i, &d) in dist.iter().enumerate() {
                        if !visited[i] && d < best {
                            best = d;
                            u = i;
                        }
                    }
                    visited[u] = true;
                    if dist[u] == UNREACHABLE {
                        continue;
                    }
                    for v in 0..n {
                        let w = self.adjacency[u * n + v];
                        if w != 0 {
                            let candidate = dist[u].wrapping_add(w);
                            if candidate < dist[v] {
                                dist[v] = candidate;
                            }
                        }
                    }
                }
                all[source * n..(source + 1) * n].copy_from_slice(&dist);
            }
            all
        })
    }

    fn build_program(n: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let adj_base = Reg(1);
        let n_reg = Reg(2);
        let dist_base = Reg(3);
        let visited_base = Reg(4);
        let source = Reg(5);
        let i = Reg(6);
        let addr = Reg(7);
        let addr2 = Reg(8);
        let iter = Reg(9);
        let best = Reg(10);
        let best_u = Reg(11);
        let val = Reg(12);
        let one = Reg(13);
        let weight = Reg(15);
        let du = Reg(16);
        let cand = Reg(17);
        let dv = Reg(18);
        let inf = Reg(31);

        // Prologue.
        p.push(Instruction::Addi {
            rd: adj_base,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: n_reg,
            ra: Reg(0),
            imm: n as i16,
        });
        p.load_immediate(dist_base, (4 * n * n) as u32);
        p.load_immediate(visited_base, (8 * n * n) as u32);
        p.load_immediate(inf, UNREACHABLE);
        p.push(Instruction::Addi {
            rd: one,
            ra: Reg(0),
            imm: 1,
        });
        let kernel_start = p.here();

        p.push(Instruction::Addi {
            rd: source,
            ra: Reg(0),
            imm: 0,
        });
        let source_loop = p.label();
        // Initialise dist[source][*] = INF, visited[*] = 0.
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let init_loop = p.label();
        p.push(Instruction::Mul {
            rd: addr,
            ra: source,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: i,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: dist_base,
        });
        p.push(Instruction::Sw {
            ra: addr,
            rb: inf,
            offset: 0,
        });
        p.push(Instruction::Slli {
            rd: addr2,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr2,
            ra: addr2,
            rb: visited_base,
        });
        p.push(Instruction::Sw {
            ra: addr2,
            rb: Reg(0),
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(init_loop);
        // dist[source][source] = 0.
        p.push(Instruction::Mul {
            rd: addr,
            ra: source,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: source,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: dist_base,
        });
        p.push(Instruction::Sw {
            ra: addr,
            rb: Reg(0),
            offset: 0,
        });

        // Main loop: n rounds of select-minimum + relax.
        p.push(Instruction::Addi {
            rd: iter,
            ra: Reg(0),
            imm: 0,
        });
        let main_loop = p.label();
        // Find the unvisited node with the smallest distance.
        p.push(Instruction::Or {
            rd: best,
            ra: inf,
            rb: Reg(0),
        });
        p.push(Instruction::Addi {
            rd: best_u,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let find_loop = p.label();
        p.push(Instruction::Slli {
            rd: addr2,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr2,
            ra: addr2,
            rb: visited_base,
        });
        p.push(Instruction::Lwz {
            rd: val,
            ra: addr2,
            offset: 0,
        });
        p.push(Instruction::Sfne {
            ra: val,
            rb: Reg(0),
        });
        let find_skip = p.forward_label();
        p.branch_if_flag(find_skip);
        p.push(Instruction::Mul {
            rd: addr,
            ra: source,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: i,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: dist_base,
        });
        p.push(Instruction::Lwz {
            rd: val,
            ra: addr,
            offset: 0,
        });
        p.push(Instruction::Sfltu { ra: val, rb: best });
        p.branch_if_not_flag(find_skip);
        p.push(Instruction::Or {
            rd: best,
            ra: val,
            rb: Reg(0),
        });
        p.push(Instruction::Or {
            rd: best_u,
            ra: i,
            rb: Reg(0),
        });
        p.bind(find_skip);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(find_loop);
        // Mark the selected node visited.
        p.push(Instruction::Slli {
            rd: addr2,
            ra: best_u,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr2,
            ra: addr2,
            rb: visited_base,
        });
        p.push(Instruction::Sw {
            ra: addr2,
            rb: one,
            offset: 0,
        });
        // Relax all its neighbours (skip if it is unreachable).
        p.push(Instruction::Sfeq { ra: best, rb: inf });
        let relax_end = p.forward_label();
        p.branch_if_flag(relax_end);
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let relax_loop = p.label();
        p.push(Instruction::Mul {
            rd: addr,
            ra: best_u,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: i,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: adj_base,
        });
        p.push(Instruction::Lwz {
            rd: weight,
            ra: addr,
            offset: 0,
        });
        p.push(Instruction::Sfeq {
            ra: weight,
            rb: Reg(0),
        });
        let relax_skip = p.forward_label();
        p.branch_if_flag(relax_skip);
        // dist[source][best_u] + w vs dist[source][i]
        p.push(Instruction::Mul {
            rd: addr,
            ra: source,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: best_u,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: dist_base,
        });
        p.push(Instruction::Lwz {
            rd: du,
            ra: addr,
            offset: 0,
        });
        p.push(Instruction::Add {
            rd: cand,
            ra: du,
            rb: weight,
        });
        p.push(Instruction::Mul {
            rd: addr,
            ra: source,
            rb: n_reg,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: i,
        });
        p.push(Instruction::Slli {
            rd: addr,
            ra: addr,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: addr,
            ra: addr,
            rb: dist_base,
        });
        p.push(Instruction::Lwz {
            rd: dv,
            ra: addr,
            offset: 0,
        });
        p.push(Instruction::Sfltu { ra: cand, rb: dv });
        p.branch_if_not_flag(relax_skip);
        p.push(Instruction::Sw {
            ra: addr,
            rb: cand,
            offset: 0,
        });
        p.bind(relax_skip);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(relax_loop);
        p.bind(relax_end);
        p.push(Instruction::Addi {
            rd: iter,
            ra: iter,
            imm: 1,
        });
        p.push(Instruction::Sfltu {
            ra: iter,
            rb: n_reg,
        });
        p.branch_if_flag(main_loop);
        // Next source.
        p.push(Instruction::Addi {
            rd: source,
            ra: source,
            imm: 1,
        });
        p.push(Instruction::Sfltu {
            ra: source,
            rb: n_reg,
        });
        p.branch_if_flag(source_loop);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for DijkstraBenchmark {
    fn name(&self) -> &'static str {
        "dijkstra"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        2 * self.nodes * self.nodes + self.nodes + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::ADJ_BASE, &self.adjacency)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden_distances();
        let got = memory
            .read_block(self.dist_base(), self.nodes * self.nodes)
            .ok()?;
        let mismatches = golden.iter().zip(&got).filter(|(g, o)| g != o).count();
        Some(mismatches as f64 / golden.len() as f64)
    }

    fn error_metric(&self) -> &'static str {
        "mismatch in min. distance"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &DijkstraBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_matches_golden() {
        let bench = DijkstraBenchmark::new(10, 21);
        let core = run(&bench);
        assert_eq!(bench.output_error(core.memory()), 0.0);
        let got = core.memory().read_block(bench.dist_base(), 100).unwrap();
        assert_eq!(got, bench.golden_distances());
        // The distance matrix of a connected graph has zero diagonal and
        // positive off-diagonal entries.
        for s in 0..10 {
            assert_eq!(got[s * 10 + s], 0);
        }
        assert!(got.iter().filter(|&&d| d > 0).count() >= 90);
    }

    #[test]
    fn control_oriented_character() {
        let bench = DijkstraBenchmark::new(10, 4);
        let core = run(&bench);
        let mix = core.stats().mix(core.program());
        let comparisons: u64 = AluClass::ALL
            .into_iter()
            .filter(|c| c.is_set_flag())
            .map(|c| mix.class_count(c))
            .sum();
        assert!(
            mix.control_fraction() > 0.15,
            "dijkstra is control oriented"
        );
        assert!(
            comparisons > mix.class_count(AluClass::Mul),
            "comparisons dominate multiplications"
        );
        assert!(core.stats().cycles > 20_000);
    }

    #[test]
    fn corrupted_distance_detected() {
        let bench = DijkstraBenchmark::new(5, 8);
        let mut core = run(&bench);
        let base = bench.dist_base();
        let golden = core.memory().load_word(base + 4).unwrap();
        core.memory_mut().store_word(base + 4, golden + 1).unwrap();
        let err = bench.output_error(core.memory());
        assert!((err - 1.0 / 25.0).abs() < 1e-12);
        assert_eq!(bench.error_metric(), "mismatch in min. distance");
        assert_eq!(bench.name(), "dijkstra");
    }

    #[test]
    fn smaller_graphs_also_work() {
        for n in [2, 3, 6] {
            let bench = DijkstraBenchmark::new(n, 5);
            let core = run(&bench);
            assert_eq!(bench.output_error(core.memory()), 0.0, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn oversized_graph_panics() {
        DijkstraBenchmark::new(64, 0);
    }
}
