//! Calendar-queue ↔ reference-heap equivalence.
//!
//! PR 5 replaced the engine's binary-heap event queue with a two-tier
//! calendar queue. The heap survives as the *reference
//! implementation* (`pim-engine`'s `reference-queue` feature); this
//! suite runs whole simulations on both queues and demands
//! **byte-identical serialized [`pim_sim::SimReport`]s** — the
//! strongest statement that the calendar queue preserves exact
//! `(time, seq)` dispatch order, across:
//!
//! * both timing modes (`analytic`, `closed-loop`) × both CI
//!   topologies (`single`, `ring:2`) — the four env matrix legs,
//! * the interleaved schedule mode (multi-stage in flight, mid-run
//!   `add_component` core spawns with same-instant follow-up events),
//! * FR-FCFS DRAM reordering (same-instant service-order sensitivity).

use compass::{CompileOptions, Compiler, GaParams, Strategy};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_sim::{ChipLoad, ChipSimulator, SystemSimulator};

fn compiled_programs(batch: usize) -> compass::CompiledModel {
    let chip = ChipSpec::chip_s();
    Compiler::new(chip)
        .compile(
            &pim_model::zoo::tiny_cnn(),
            &CompileOptions::new()
                .with_strategy(Strategy::Greedy)
                .with_batch_size(batch)
                .with_ga(GaParams::fast())
                .with_seed(11),
        )
        .expect("compiles")
}

/// Serialized report of a single-chip run on either queue.
fn chip_report(timing: TimingMode, schedule: ScheduleMode, reference: bool) -> String {
    let compiled = compiled_programs(2);
    let sim = ChipSimulator::new(ChipSpec::chip_s())
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .with_reference_queue(reference);
    let rounds = match schedule {
        ScheduleMode::Barrier => 1,
        ScheduleMode::Interleaved => 4,
    };
    let report = sim.run_batches(compiled.programs(), rounds, 2).expect("simulates");
    serde_json::to_string(&report).expect("serializes")
}

/// Serialized report of a 2-chip pipelined system run on either queue.
fn system_report(timing: TimingMode, reference: bool) -> String {
    let compiled = compiled_programs(2);
    let loads = [
        ChipLoad::new(compiled.programs()).with_handoff(1, 4096),
        ChipLoad::new(compiled.programs()),
    ];
    let report = SystemSimulator::new(ChipSpec::chip_s(), Topology::ring(2))
        .with_timing_mode(timing)
        .with_reference_queue(reference)
        .run(&loads, 3, 2)
        .expect("simulates");
    serde_json::to_string(&report).expect("serializes")
}

#[test]
fn single_chip_analytic_reports_are_byte_identical() {
    let a = chip_report(TimingMode::Analytic, ScheduleMode::Barrier, false);
    let b = chip_report(TimingMode::Analytic, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (analytic, single)");
}

#[test]
fn single_chip_closed_loop_reports_are_byte_identical() {
    let a = chip_report(TimingMode::ClosedLoop, ScheduleMode::Barrier, false);
    let b = chip_report(TimingMode::ClosedLoop, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (closed-loop, single)");
}

#[test]
fn ring2_analytic_reports_are_byte_identical() {
    let a = system_report(TimingMode::Analytic, false);
    let b = system_report(TimingMode::Analytic, true);
    assert_eq!(a, b, "calendar vs reference queue (analytic, ring:2)");
}

#[test]
fn ring2_closed_loop_reports_are_byte_identical() {
    let a = system_report(TimingMode::ClosedLoop, false);
    let b = system_report(TimingMode::ClosedLoop, true);
    assert_eq!(a, b, "calendar vs reference queue (closed-loop, ring:2)");
}

#[test]
fn interleaved_schedule_reports_are_byte_identical() {
    // Interleaving keeps several stages in flight: mid-run core spawns
    // (`EngineCtx::add_component`) plus same-instant cross-stage
    // events — the dispatch pattern most sensitive to queue order.
    for timing in [TimingMode::Analytic, TimingMode::ClosedLoop] {
        let a = chip_report(timing, ScheduleMode::Interleaved, false);
        let b = chip_report(timing, ScheduleMode::Interleaved, true);
        assert_eq!(a, b, "calendar vs reference queue (interleaved, {timing})");
    }
}

#[test]
fn dram_reorder_reports_are_byte_identical() {
    // FR-FCFS reordering groups same-instant accesses: the service
    // order depends directly on the queue's same-instant FIFO
    // guarantee.
    let run = |reference: bool| {
        let compiled = compiled_programs(4);
        let report = ChipSimulator::new(ChipSpec::chip_s())
            .with_timing_mode(TimingMode::ClosedLoop)
            .with_dram_channels(2)
            .with_dram_reorder(true)
            .with_reference_queue(reference)
            .run(compiled.programs(), 4)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(run(false), run(true), "calendar vs reference queue (FR-FCFS)");
}

/// Sharded ↔ single-threaded equivalence (PR 6).
///
/// One engine thread per chip with the interconnect as the
/// conservative-lookahead boundary must produce **byte-identical**
/// serialized reports to the single-threaded engine, across
/// topologies × timing modes × schedule modes, with a hand-off chain
/// keeping cross-shard traffic live every round.
#[cfg(feature = "sharded")]
mod sharded {
    use super::*;

    fn compiled_with_seed(batch: usize, seed: u64) -> compass::CompiledModel {
        Compiler::new(ChipSpec::chip_s())
            .compile(
                &pim_model::zoo::tiny_cnn(),
                &CompileOptions::new()
                    .with_strategy(Strategy::Greedy)
                    .with_batch_size(batch)
                    .with_ga(GaParams::fast())
                    .with_seed(seed),
            )
            .expect("compiles")
    }

    fn report(
        topology: Topology,
        timing: TimingMode,
        schedule: ScheduleMode,
        sharded: bool,
        seed: u64,
    ) -> String {
        report_with_replay(topology, timing, schedule, sharded, seed, true)
    }

    /// [`report`] with the analytic-mode DRAM replay switched by
    /// `replay`.
    fn report_with_replay(
        topology: Topology,
        timing: TimingMode,
        schedule: ScheduleMode,
        sharded: bool,
        seed: u64,
        replay: bool,
    ) -> String {
        let compiled = compiled_with_seed(2, seed);
        let chips = topology.chips();
        // Hand-off chain: every chip feeds its successor, so shard
        // boundaries carry traffic every round.
        let loads: Vec<ChipLoad<'_>> = (0..chips)
            .map(|c| {
                let load = ChipLoad::new(compiled.programs());
                if c + 1 < chips {
                    load.with_handoff(c + 1, 4096)
                } else {
                    load
                }
            })
            .collect();
        let report = SystemSimulator::new(ChipSpec::chip_s(), topology)
            .with_timing_mode(timing)
            .with_schedule_mode(schedule)
            .with_dram_replay(replay)
            .with_sharded(sharded)
            .run(&loads, 3, 2)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    }

    #[test]
    fn sharded_reports_match_single_threaded_across_the_matrix() {
        for topology in [Topology::ring(2), Topology::ring(4), Topology::fully_connected(4)] {
            for timing in [TimingMode::Analytic, TimingMode::ClosedLoop] {
                for schedule in ScheduleMode::ALL {
                    let single = report(topology.clone(), timing, schedule, false, 11);
                    let sharded = report(topology.clone(), timing, schedule, true, 11);
                    assert_eq!(
                        single, sharded,
                        "sharded vs single ({topology}, {timing}, {schedule})"
                    );
                }
            }
            // Analytic with replay off: the only layout with three
            // components per chip.
            let run = |sharded: bool| {
                report_with_replay(
                    topology.clone(),
                    TimingMode::Analytic,
                    ScheduleMode::Barrier,
                    sharded,
                    11,
                    false,
                )
            };
            assert_eq!(run(false), run(true), "sharded vs single ({topology}, replay off)");
        }
    }

    /// Degenerate-window shapes for the dynamic-lookahead protocol:
    /// the horizon is now derived from each shard's actual inbound
    /// links and in-flight transfers, so the cases that stress it are
    /// the ones where those quantities are lopsided.
    #[test]
    fn degenerate_windows_stay_byte_identical() {
        // (a) Heterogeneous link latencies: one fast edge (40 ns) and
        // one slow edge (600 ns) on the same ring, so per-destination
        // horizons differ by over an order of magnitude.
        let mut skewed = Topology::ring(4);
        skewed.links[0].spec.latency_ns = 40.0;
        skewed.links[1].spec.latency_ns = 600.0;
        assert_eq!(
            report(skewed.clone(), TimingMode::Analytic, ScheduleMode::Interleaved, false, 11),
            report(skewed, TimingMode::Analytic, ScheduleMode::Interleaved, true, 11),
            "heterogeneous link latencies"
        );
        // (b) A chip that receives no hand-offs at all: its shard has
        // no inbound producer, so its horizon is unbounded and it runs
        // each round in a single window.
        let compiled = compiled_with_seed(2, 11);
        let loads = [
            ChipLoad::new(compiled.programs()).with_handoff(1, 4096),
            ChipLoad::new(compiled.programs()),
            ChipLoad::new(compiled.programs()),
        ];
        let run = |sharded: bool| {
            let report = SystemSimulator::new(ChipSpec::chip_s(), Topology::fully_connected(3))
                .with_sharded(sharded)
                .run(&loads, 2, 2)
                .expect("simulates");
            serde_json::to_string(&report).expect("serializes")
        };
        assert_eq!(run(false), run(true), "chip without inbound hand-offs");
        // (c) Round-count clamps: zero rounds (clamped up to one) and
        // a single round exercise start-up and tear-down with no
        // steady state in between.
        for rounds in [0usize, 1] {
            let run = |sharded: bool| {
                let report = SystemSimulator::new(ChipSpec::chip_s(), Topology::ring(2))
                    .with_sharded(sharded)
                    .run(
                        &[
                            ChipLoad::new(compiled.programs()).with_handoff(1, 4096),
                            ChipLoad::new(compiled.programs()),
                        ],
                        rounds,
                        1,
                    )
                    .expect("simulates");
                serde_json::to_string(&report).expect("serializes")
            };
            assert_eq!(run(false), run(true), "round clamp (rounds = {rounds})");
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_across_seeds() {
        for seed in [11u64, 23] {
            let run = || {
                report(
                    Topology::ring(4),
                    TimingMode::Analytic,
                    ScheduleMode::Interleaved,
                    true,
                    seed,
                )
            };
            assert_eq!(run(), run(), "seed {seed}: repeated sharded runs must be byte-identical");
        }
    }
}

#[test]
fn env_selected_leg_is_byte_identical() {
    // Whatever PIM_TIMING_MODE / PIM_TOPOLOGY the CI matrix selects,
    // the two queues agree on it.
    let timing = TimingMode::from_env();
    let topology = Topology::from_env();
    let compiled = compiled_programs(2);
    let loads: Vec<ChipLoad<'_>> =
        (0..topology.chips()).map(|_| ChipLoad::new(compiled.programs())).collect();
    let run = |reference: bool| {
        let report = SystemSimulator::new(ChipSpec::chip_s(), topology.clone())
            .with_timing_mode(timing)
            .with_reference_queue(reference)
            .run(&loads, 2, 2)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(run(false), run(true), "calendar vs reference queue ({timing}, {topology})");
}
