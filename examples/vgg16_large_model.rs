//! The paper's headline scenario: a network ~60x larger than the chip.
//!
//! VGG16 needs 65.97 MiB of 4-bit weights; Chip-S holds 1.125 MiB.
//! Prior PIM compilers simply cannot map it. This example shows the
//! whole COMPASS story end to end: decomposition, the validity map,
//! GA partitioning, and the weight-replacement execution schedule.
//!
//! ```bash
//! cargo run --release --example vgg16_large_model
//! ```

use compass::{decompose, CompileOptions, Compiler, GaParams, ValidityMap};
use pim_arch::ChipSpec;
use pim_isa::InstructionStats;
use pim_model::{stats::NetworkStats, zoo};
use pim_sim::ChipSimulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = zoo::vgg16();
    let chip = ChipSpec::chip_s();
    let stats = NetworkStats::of(&network, chip.precision);
    println!(
        "VGG16: {:.2} MiB of weights vs {:.3} MiB on-chip ({}x over capacity)",
        stats.total_weight_mib(),
        chip.capacity_mib(),
        (stats.total_weight_mib() / chip.capacity_mib()).round()
    );

    // Decomposition + validity map (paper Fig. 4 / Fig. 5).
    let seq = decompose(&network, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    println!(
        "decomposed into M = {} partition units; {:.1}% of (start,end) spans are valid",
        seq.len(),
        validity.valid_fraction() * 100.0
    );

    // Compile with COMPASS.
    let batch = 16;
    let compiled = Compiler::new(chip.clone()).compile(
        &network,
        &CompileOptions::new().with_batch_size(batch).with_ga(GaParams::fast()).with_seed(11),
    )?;
    println!(
        "\nCOMPASS chose {} partitions (weights rewritten {} times per batch of {batch})",
        compiled.partitions().len(),
        compiled.partitions().len(),
    );

    // Aggregate the generated instruction streams.
    let total: InstructionStats = {
        let mut acc = InstructionStats::default();
        for program in compiled.programs() {
            let s = program.stats();
            acc.mvmul += s.mvmul;
            acc.send += s.send;
            acc.recv += s.recv;
            acc.load_weight += s.load_weight;
            acc.store_data += s.store_data;
            acc.weight_load_bytes += s.weight_load_bytes;
            acc.data_store_bytes += s.data_store_bytes;
            acc.data_load_bytes += s.data_load_bytes;
            acc.mvm_waves += s.mvm_waves;
            acc.mvm_activations += s.mvm_activations;
        }
        acc
    };
    println!(
        "schedule: {} MVMUL instrs, {} send/recv pairs, {:.1} MiB weight traffic, {:.1} MiB activation traffic per batch",
        total.mvmul,
        total.send,
        total.weight_load_bytes as f64 / (1 << 20) as f64,
        (total.data_load_bytes + total.data_store_bytes) as f64 / (1 << 20) as f64,
    );

    let report = ChipSimulator::new(chip).run(compiled.programs(), batch)?;
    println!(
        "\nsimulated: {:.1} inf/s, {:.2} mJ per inference, {:.1} ms end-to-end batch latency",
        report.throughput_ips(),
        report.energy_per_inference_uj() / 1000.0,
        report.latency_ms()
    );
    if let Some(dram) = report.dram_energy {
        println!("DRAM (in-line model): {dram}");
    }
    Ok(())
}
