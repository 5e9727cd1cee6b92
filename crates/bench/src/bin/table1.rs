//! Table 1: overview of benchmark properties (type, compute/control
//! weight, size, kernel cycles, output error metric), from one fault-free
//! ISS run per benchmark with fault injection confined to the kernel
//! window. Column meanings are listed in the README.

use sfi_bench::{print_header, ExperimentArgs};
use sfi_cpu::{Core, RunConfig};
use sfi_isa::AluClass;
use sfi_kernels::{extended_suite, paper_suite};

fn main() {
    let args = ExperimentArgs::from_env();
    print_header("Table 1: benchmark properties", &args);

    let suite = if args.extended {
        extended_suite(1)
    } else {
        paper_suite(1)
    };
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>10}  output error metric",
        "benchmark", "compute", "control", "kernel cyc", "mul/kcyc"
    );
    for bench in suite {
        let mut core = Core::new(bench.program().clone(), bench.dmem_words());
        bench.initialize(core.memory_mut());
        let _ = core.run(&RunConfig {
            fi_window: Some(bench.fi_window()),
            ..RunConfig::default()
        });
        let stats = core.stats();
        let mix = stats.mix(core.program());
        println!(
            "{:<16} {:>9.1}% {:>9.1}% {:>12} {:>10.1}  {}",
            bench.name(),
            100.0 * mix.compute_fraction(),
            100.0 * mix.control_fraction(),
            stats.kernel_cycles,
            mix.class_count(AluClass::Mul) as f64 * 1000.0 / stats.cycles as f64,
            bench.error_metric()
        );
    }
}
