//! The k-means clustering benchmark.
//!
//! Mixed compute/control: squared-distance computations use
//! multiplications, the assignment and centroid-update steps are loop and
//! branch heavy, and centroid averaging uses software division.

use crate::data::random_points;
use crate::Benchmark;
use sfi_cpu::Memory;
use sfi_isa::program::ProgramBuilder;
use sfi_isa::{Instruction, Program, Reg};
use std::ops::Range;
use std::sync::OnceLock;

/// Lloyd's k-means over 2-D integer points.
#[derive(Debug, Clone)]
pub struct KMeansBenchmark {
    points: Vec<(u32, u32)>,
    /// The points as consecutive (x, y) words: the input word image.
    input: Vec<u32>,
    clusters: usize,
    iterations: usize,
    program: Program,
    fi_window: Range<u32>,
    /// The golden output, computed on first use.
    golden: OnceLock<Vec<u32>>,
}

impl KMeansBenchmark {
    const POINTS_BASE: u32 = 0;

    /// Creates the benchmark with `n` points, `k` clusters and a fixed
    /// number of Lloyd iterations (the paper uses 8 points in 2-D).
    ///
    /// # Panics
    ///
    /// Panics if `n`, `k` or `iterations` is zero, or `k > n`.
    pub fn new(n: usize, k: usize, iterations: usize, seed: u64) -> Self {
        assert!(
            n > 0 && k > 0 && iterations > 0 && k <= n,
            "invalid k-means configuration"
        );
        let points = random_points(n, k, 1 << 8, seed);
        let (program, fi_window) = Self::build_program(n, k, iterations);
        KMeansBenchmark {
            input: points.iter().flat_map(|&(x, y)| [x, y]).collect(),
            points,
            clusters: k,
            iterations,
            program,
            fi_window,
            golden: OnceLock::new(),
        }
    }

    fn centroid_base(&self) -> u32 {
        Self::POINTS_BASE + 8 * self.points.len() as u32
    }

    fn assignment_base(&self) -> u32 {
        self.centroid_base() + 8 * self.clusters as u32
    }

    /// The golden (fault-free) final cluster assignment of every point.
    pub fn golden_assignments(&self) -> &[u32] {
        self.golden.get_or_init(|| {
            let n = self.points.len();
            let k = self.clusters;
            let mut centroids: Vec<(u32, u32)> = (0..k).map(|c| self.points[c]).collect();
            let mut assignments = vec![0u32; n];
            for _ in 0..self.iterations {
                // Assignment step.
                for (i, &(px, py)) in self.points.iter().enumerate() {
                    let mut best = u32::MAX;
                    let mut best_c = 0u32;
                    for (c, &(cx, cy)) in centroids.iter().enumerate() {
                        let dx = px.wrapping_sub(cx);
                        let dy = py.wrapping_sub(cy);
                        let dist = dx.wrapping_mul(dx).wrapping_add(dy.wrapping_mul(dy));
                        if dist < best {
                            best = dist;
                            best_c = c as u32;
                        }
                    }
                    assignments[i] = best_c;
                }
                // Update step (integer mean, floor division).
                for (c, centroid) in centroids.iter_mut().enumerate() {
                    let members: Vec<&(u32, u32)> = self
                        .points
                        .iter()
                        .zip(&assignments)
                        .filter(|(_, &a)| a == c as u32)
                        .map(|(p, _)| p)
                        .collect();
                    if !members.is_empty() {
                        let sx: u32 = members.iter().map(|p| p.0).sum();
                        let sy: u32 = members.iter().map(|p| p.1).sum();
                        *centroid = (sx / members.len() as u32, sy / members.len() as u32);
                    }
                }
            }
            assignments
        })
    }

    fn build_program(n: usize, k: usize, iterations: usize) -> (Program, Range<u32>) {
        let mut p = ProgramBuilder::new();
        let points_base = Reg(1);
        let n_reg = Reg(2);
        let k_reg = Reg(3);
        let centroid_base = Reg(4);
        let assign_base = Reg(5);
        let iter = Reg(6);
        let i = Reg(7);
        let pt_ptr = Reg(8);
        let px = Reg(9);
        let py = Reg(10);
        let best = Reg(11);
        let best_c = Reg(12);
        let c = Reg(13);
        let ptr = Reg(14);
        let cx = Reg(15);
        let cy = Reg(16);
        let sum_x = Reg(17);
        let sum_y = Reg(18);
        let count = Reg(19);
        let qx = Reg(20);
        let qy = Reg(21);
        let iter_bound = Reg(22);
        let t1 = Reg(23);
        let t2 = Reg(24);

        // Prologue: base addresses, sizes and initial centroids (= the
        // first k points).
        p.push(Instruction::Addi {
            rd: points_base,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: n_reg,
            ra: Reg(0),
            imm: n as i16,
        });
        p.push(Instruction::Addi {
            rd: k_reg,
            ra: Reg(0),
            imm: k as i16,
        });
        p.push(Instruction::Addi {
            rd: centroid_base,
            ra: Reg(0),
            imm: (8 * n) as i16,
        });
        p.push(Instruction::Addi {
            rd: assign_base,
            ra: Reg(0),
            imm: (8 * n + 8 * k) as i16,
        });
        p.push(Instruction::Addi {
            rd: iter_bound,
            ra: Reg(0),
            imm: iterations as i16,
        });
        for cluster in 0..k {
            p.push(Instruction::Lwz {
                rd: t1,
                ra: points_base,
                offset: (8 * cluster) as i16,
            });
            p.push(Instruction::Sw {
                ra: centroid_base,
                rb: t1,
                offset: (8 * cluster) as i16,
            });
            p.push(Instruction::Lwz {
                rd: t1,
                ra: points_base,
                offset: (8 * cluster + 4) as i16,
            });
            p.push(Instruction::Sw {
                ra: centroid_base,
                rb: t1,
                offset: (8 * cluster + 4) as i16,
            });
        }
        p.push(Instruction::Addi {
            rd: iter,
            ra: Reg(0),
            imm: 0,
        });
        let kernel_start = p.here();

        let iter_loop = p.label();
        // ---------------- assignment step ----------------
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let assign_loop = p.label();
        p.push(Instruction::Slli {
            rd: pt_ptr,
            ra: i,
            shamt: 3,
        });
        p.push(Instruction::Add {
            rd: pt_ptr,
            ra: pt_ptr,
            rb: points_base,
        });
        p.push(Instruction::Lwz {
            rd: px,
            ra: pt_ptr,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: py,
            ra: pt_ptr,
            offset: 4,
        });
        p.load_immediate(best, u32::MAX);
        p.push(Instruction::Addi {
            rd: best_c,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: c,
            ra: Reg(0),
            imm: 0,
        });
        let dist_loop = p.label();
        p.push(Instruction::Slli {
            rd: ptr,
            ra: c,
            shamt: 3,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: centroid_base,
        });
        p.push(Instruction::Lwz {
            rd: cx,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: cy,
            ra: ptr,
            offset: 4,
        });
        p.push(Instruction::Sub {
            rd: t1,
            ra: px,
            rb: cx,
        });
        p.push(Instruction::Mul {
            rd: t1,
            ra: t1,
            rb: t1,
        });
        p.push(Instruction::Sub {
            rd: t2,
            ra: py,
            rb: cy,
        });
        p.push(Instruction::Mul {
            rd: t2,
            ra: t2,
            rb: t2,
        });
        p.push(Instruction::Add {
            rd: t1,
            ra: t1,
            rb: t2,
        });
        p.push(Instruction::Sfltu { ra: t1, rb: best });
        let not_better = p.forward_label();
        p.branch_if_not_flag(not_better);
        p.push(Instruction::Or {
            rd: best,
            ra: t1,
            rb: Reg(0),
        });
        p.push(Instruction::Or {
            rd: best_c,
            ra: c,
            rb: Reg(0),
        });
        p.bind(not_better);
        p.push(Instruction::Addi {
            rd: c,
            ra: c,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: c, rb: k_reg });
        p.branch_if_flag(dist_loop);
        p.push(Instruction::Slli {
            rd: ptr,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: assign_base,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: best_c,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(assign_loop);

        // ---------------- update step ----------------
        p.push(Instruction::Addi {
            rd: c,
            ra: Reg(0),
            imm: 0,
        });
        let update_loop = p.label();
        p.push(Instruction::Addi {
            rd: sum_x,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: sum_y,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: count,
            ra: Reg(0),
            imm: 0,
        });
        p.push(Instruction::Addi {
            rd: i,
            ra: Reg(0),
            imm: 0,
        });
        let sum_loop = p.label();
        p.push(Instruction::Slli {
            rd: ptr,
            ra: i,
            shamt: 2,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: assign_base,
        });
        p.push(Instruction::Lwz {
            rd: t1,
            ra: ptr,
            offset: 0,
        });
        p.push(Instruction::Sfeq { ra: t1, rb: c });
        let skip_point = p.forward_label();
        p.branch_if_not_flag(skip_point);
        p.push(Instruction::Slli {
            rd: pt_ptr,
            ra: i,
            shamt: 3,
        });
        p.push(Instruction::Add {
            rd: pt_ptr,
            ra: pt_ptr,
            rb: points_base,
        });
        p.push(Instruction::Lwz {
            rd: px,
            ra: pt_ptr,
            offset: 0,
        });
        p.push(Instruction::Lwz {
            rd: py,
            ra: pt_ptr,
            offset: 4,
        });
        p.push(Instruction::Add {
            rd: sum_x,
            ra: sum_x,
            rb: px,
        });
        p.push(Instruction::Add {
            rd: sum_y,
            ra: sum_y,
            rb: py,
        });
        p.push(Instruction::Addi {
            rd: count,
            ra: count,
            imm: 1,
        });
        p.bind(skip_point);
        p.push(Instruction::Addi {
            rd: i,
            ra: i,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: i, rb: n_reg });
        p.branch_if_flag(sum_loop);
        // Skip the centroid update for empty clusters.
        p.push(Instruction::Sfeq {
            ra: count,
            rb: Reg(0),
        });
        let skip_update = p.forward_label();
        p.branch_if_flag(skip_update);
        // Software division: qx = sum_x / count, qy = sum_y / count.
        p.push(Instruction::Addi {
            rd: qx,
            ra: Reg(0),
            imm: 0,
        });
        let divx_loop = p.label();
        p.push(Instruction::Sfgeu {
            ra: sum_x,
            rb: count,
        });
        let divx_done = p.forward_label();
        p.branch_if_not_flag(divx_done);
        p.push(Instruction::Sub {
            rd: sum_x,
            ra: sum_x,
            rb: count,
        });
        p.push(Instruction::Addi {
            rd: qx,
            ra: qx,
            imm: 1,
        });
        p.jump(divx_loop);
        p.bind(divx_done);
        p.push(Instruction::Addi {
            rd: qy,
            ra: Reg(0),
            imm: 0,
        });
        let divy_loop = p.label();
        p.push(Instruction::Sfgeu {
            ra: sum_y,
            rb: count,
        });
        let divy_done = p.forward_label();
        p.branch_if_not_flag(divy_done);
        p.push(Instruction::Sub {
            rd: sum_y,
            ra: sum_y,
            rb: count,
        });
        p.push(Instruction::Addi {
            rd: qy,
            ra: qy,
            imm: 1,
        });
        p.jump(divy_loop);
        p.bind(divy_done);
        p.push(Instruction::Slli {
            rd: ptr,
            ra: c,
            shamt: 3,
        });
        p.push(Instruction::Add {
            rd: ptr,
            ra: ptr,
            rb: centroid_base,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: qx,
            offset: 0,
        });
        p.push(Instruction::Sw {
            ra: ptr,
            rb: qy,
            offset: 4,
        });
        p.bind(skip_update);
        p.push(Instruction::Addi {
            rd: c,
            ra: c,
            imm: 1,
        });
        p.push(Instruction::Sfltu { ra: c, rb: k_reg });
        p.branch_if_flag(update_loop);

        // ---------------- iteration control ----------------
        p.push(Instruction::Addi {
            rd: iter,
            ra: iter,
            imm: 1,
        });
        p.push(Instruction::Sfltu {
            ra: iter,
            rb: iter_bound,
        });
        p.branch_if_flag(iter_loop);
        let kernel_end = p.here();
        (p.build(), kernel_start..kernel_end)
    }
}

impl Benchmark for KMeansBenchmark {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn fi_window(&self) -> Range<u32> {
        self.fi_window.clone()
    }

    fn dmem_words(&self) -> usize {
        2 * self.points.len() + 2 * self.clusters + self.points.len() + 8
    }

    fn initialize(&self, memory: &mut Memory) {
        memory
            .write_block(Self::POINTS_BASE, &self.input)
            .expect("data memory large enough");
    }

    fn try_output_error(&self, memory: &Memory) -> Option<f64> {
        let golden = self.golden_assignments();
        let got = memory
            .read_block(self.assignment_base(), self.points.len())
            .ok()?;
        let mismatches = golden.iter().zip(&got).filter(|(g, o)| g != o).count();
        Some(mismatches as f64 / self.points.len() as f64)
    }

    fn error_metric(&self) -> &'static str {
        "cluster membership mismatch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfi_cpu::{Core, RunConfig};
    use sfi_isa::AluClass;

    fn run(bench: &KMeansBenchmark) -> Core {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let outcome = core.run(&RunConfig::default());
        assert!(outcome.finished(), "outcome: {outcome:?}");
        core
    }

    #[test]
    fn fault_free_run_matches_golden() {
        let bench = KMeansBenchmark::new(8, 2, 12, 9);
        let core = run(&bench);
        assert_eq!(bench.output_error(core.memory()), 0.0);
        let assignments = core
            .memory()
            .read_block(bench.assignment_base(), 8)
            .unwrap();
        assert_eq!(assignments, bench.golden_assignments());
        // The clustered workload must actually use both clusters.
        assert!(assignments.contains(&0));
        assert!(assignments.contains(&1));
    }

    #[test]
    fn mixed_compute_and_control() {
        let bench = KMeansBenchmark::new(8, 2, 12, 2);
        let core = run(&bench);
        let mix = core.stats().mix(core.program());
        assert!(
            mix.class_count(AluClass::Mul) > 0,
            "distance computation uses multiplications"
        );
        assert!(
            mix.control_fraction() > 0.1,
            "k-means has significant control flow"
        );
        // Far fewer multiplications than matmul relative to cycle count
        // (the paper explains k-means' lower FI rate this way).
        assert!((mix.class_count(AluClass::Mul) as f64) < 0.05 * core.stats().cycles as f64);
    }

    #[test]
    fn corrupted_assignment_detected() {
        let bench = KMeansBenchmark::new(8, 2, 4, 1);
        let mut core = run(&bench);
        let base = bench.assignment_base();
        let golden = core.memory().load_word(base).unwrap();
        core.memory_mut().store_word(base, golden ^ 1).unwrap();
        let err = bench.output_error(core.memory());
        assert!((err - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(bench.error_metric(), "cluster membership mismatch");
        assert_eq!(bench.name(), "kmeans");
    }

    #[test]
    #[should_panic(expected = "invalid k-means configuration")]
    fn invalid_configuration_panics() {
        KMeansBenchmark::new(4, 8, 1, 0);
    }
}
