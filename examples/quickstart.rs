//! Quickstart: compile a small CNN for a resource-constrained PIM chip
//! and inspect what the compiler decided.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use compass::{CompileOptions, Compiler, GaParams};
use pim_arch::ChipSpec;
use pim_model::zoo;
use pim_sim::ChipSimulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A network from the zoo (or build your own with
    //    pim_model::NetworkBuilder — see examples/custom_network.rs).
    let network = zoo::tiny_cnn();
    println!("network: {} ({} nodes)", network.name(), network.len());

    // 2. A chip. Chip-S is the paper's smallest configuration:
    //    16 cores x 9 crossbars = 1.125 MiB of weights at 4-bit.
    let chip = ChipSpec::chip_s();
    println!("chip:    {chip}");

    // 3. Compile with the COMPASS genetic algorithm.
    let compiler = Compiler::new(chip.clone());
    let options = CompileOptions::new().with_batch_size(8).with_ga(GaParams::fast()).with_seed(42);
    let compiled = compiler.compile(&network, &options)?;

    println!("\n{compiled}\n");
    for plan in compiled.partitions() {
        println!(
            "partition {}: {} layer slices, {} xbars ({} replicated), {} entries, {} exits",
            plan.index,
            plan.slices.len(),
            plan.slices.iter().map(|s| s.crossbars).sum::<usize>(),
            plan.replicated_crossbars(),
            plan.entries.len(),
            plan.exits.len(),
        );
    }

    // 4. Run the compiled programs through the cycle-approximate chip
    //    simulator (includes the in-line DRAM energy model).
    let report = ChipSimulator::new(chip).run(compiled.programs(), 8)?;
    println!("\nsimulated: {report}");
    println!(
        "analytical estimate was {:.1} inf/s; simulator measured {:.1} inf/s",
        compiled.estimate().throughput_ips(),
        report.throughput_ips()
    );
    Ok(())
}
