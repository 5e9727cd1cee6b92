//! Table 2: overview of the timing-error models and their features.

fn main() {
    println!("=== Table 2: timing error models & features ===");
    println!();
    println!(
        "{:<6} {:<40} {:<12} {:<9} {:<10} {:<17} {:<17}",
        "model",
        "fault injection technique",
        "timing data",
        "multi-Vdd",
        "Vdd noise",
        "gate-level aware",
        "instruction aware"
    );
    let rows = [
        ("A", "fixed probability", "none", "no", "no", "no", "no"),
        (
            "B",
            "fixed period violation",
            "STA",
            "yes",
            "no",
            "partially",
            "no",
        ),
        (
            "B+",
            "modulated period violation",
            "STA",
            "yes",
            "yes",
            "partially",
            "no",
        ),
        (
            "C",
            "probabilistic period violation (CDFs)",
            "DTA",
            "yes",
            "yes",
            "yes",
            "yes",
        ),
    ];
    for (m, tech, data, vdd, noise, gate, instr) in rows {
        println!("{m:<6} {tech:<40} {data:<12} {vdd:<9} {noise:<10} {gate:<17} {instr:<17}");
    }
    println!();
    println!(
        "Implementations: sfi_fault::{{FixedProbabilityModel, StaWithNoiseModel (B at sigma 0, B+), StatisticalDtaModel}}"
    );
}
