//! Criterion micro-benchmarks for the simulation substrates: the
//! LPDDR3 DRAM model (every request issues at t=0, so one
//! `service_pending` drain serves them all), the event-driven chip
//! simulator, and the analytical estimator that the GA calls in its
//! inner loop.

use compass::estimate::Estimator;
use compass::plan::GroupPlan;
use compass::replication::optimize_group;
use compass::{baselines, decompose, CompileOptions, Compiler, GaParams, Strategy, ValidityMap};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_arch::ChipSpec;
use pim_dram::{DramConfig, DramSimulator, Request, RequestKind};
use pim_model::zoo;
use pim_sim::ChipSimulator;
use std::hint::black_box;

fn bench_dram_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_sequential_read");
    for kib in [64usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(kib), &kib, |b, &kib| {
            b.iter(|| {
                let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
                sim.enqueue(Request::new(0, 0, RequestKind::Read, kib * 1024));
                sim.service_pending()
            })
        });
    }
    group.finish();
}

fn bench_dram_random(c: &mut Criterion) {
    c.bench_function("dram_random_reads/1024x64B", |b| {
        b.iter(|| {
            let mut sim = DramSimulator::new(DramConfig::lpddr3_1600());
            let mut state = 0x9e3779b9u64;
            for _ in 0..1024 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % (256 << 20)) & !63;
                sim.enqueue(Request::new(0, addr, RequestKind::Read, 64));
            }
            sim.service_pending()
        })
    });
}

fn bench_chip_simulator(c: &mut Criterion) {
    let chip = ChipSpec::chip_s();
    let compiled = Compiler::new(chip.clone())
        .compile(
            &zoo::resnet18(),
            &CompileOptions::new()
                .with_strategy(Strategy::Greedy)
                .with_batch_size(8)
                .with_ga(GaParams::fast())
                .with_seed(1),
        )
        .expect("compiles");
    let mut group = c.benchmark_group("chip_simulator/resnet18-S-8");
    group.bench_function("with_dram_replay", |b| {
        let sim = ChipSimulator::new(chip.clone());
        b.iter(|| sim.run(black_box(compiled.programs()), 8).unwrap().makespan_ns)
    });
    group.bench_function("timing_only", |b| {
        let sim = ChipSimulator::new(chip.clone()).with_dram_replay(false);
        b.iter(|| sim.run(black_box(compiled.programs()), 8).unwrap().makespan_ns)
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let group = baselines::greedy(&validity);
    let mut plans = GroupPlan::build(&net, &seq, &group);
    optimize_group(&mut plans, &chip);
    c.bench_function("estimator/resnet18-S-8", |b| {
        let estimator = Estimator::new(&chip);
        b.iter(|| estimator.estimate_group(black_box(&plans), 8).batch_latency_ns)
    });
}

criterion_group!(
    benches,
    bench_dram_sequential,
    bench_dram_random,
    bench_chip_simulator,
    bench_estimator,
);
criterion_main!(benches);
