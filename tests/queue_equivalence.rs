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
//! * multi-chip hand-off chains (ring:2, ring:4, fc:4 × timing ×
//!   schedule, plus a DRAM-replay-off leg) and lopsided multi-chip
//!   loads: skewed link latencies, equal-instant link contention,
//!   long-idle consumers, zero-latency links and deadlocks.

use compass::{CompileOptions, Compiler, GaParams, Strategy};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_isa::{ChipProgram, CoreId, Instruction, Tag};
use pim_sim::{ChipLoad, ChipSimulator, SimError, SimReport, SystemSimulator};

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

/// `waves` MVM waves on four cores of a `cores`-core chip.
fn mvm_program(cores: usize, waves: usize) -> ChipProgram {
    let mut program = ChipProgram::new(cores);
    for c in 0..4 {
        program.core_mut(CoreId(c)).push(Instruction::Mvmul { waves, activations: 64, node: 0 });
    }
    program
}

/// Runs `loads` for `rounds` rounds on both queues, demands
/// byte-identical serialized reports (or the same error), and returns
/// the calendar queue's result.
fn on_both_queues(
    sim: &SystemSimulator,
    loads: &[ChipLoad<'_>],
    rounds: usize,
    what: &str,
) -> Result<SimReport, SimError> {
    let run = |reference: bool| sim.clone().with_reference_queue(reference).run(loads, rounds, 1);
    let (calendar, reference) = (run(false), run(true));
    let bytes = |result: &Result<SimReport, SimError>| {
        result.as_ref().map(|r| serde_json::to_string(r).expect("serializes")).map_err(Clone::clone)
    };
    assert_eq!(bytes(&calendar), bytes(&reference), "calendar vs reference queue ({what})");
    calendar
}

/// A hand-off chain on `topology`: every chip runs the compiled
/// workload and feeds its successor, so the interconnect carries
/// traffic every round.
fn chain_report(
    topology: Topology,
    timing: TimingMode,
    schedule: ScheduleMode,
    replay: bool,
) -> SimReport {
    let compiled = compiled_programs(2);
    let chips = topology.chips();
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
    let what = format!("{topology}, {timing}, {schedule}, replay {replay}");
    let sim = SystemSimulator::new(ChipSpec::chip_s(), topology)
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .with_dram_replay(replay);
    on_both_queues(&sim, &loads, 3, &what).expect("simulates")
}

#[test]
fn hand_off_chains_are_byte_identical_across_the_matrix() {
    for topology in [Topology::ring(2), Topology::ring(4), Topology::fully_connected(4)] {
        for timing in [TimingMode::Analytic, TimingMode::ClosedLoop] {
            for schedule in ScheduleMode::ALL {
                chain_report(topology.clone(), timing, schedule, true);
            }
        }
        // Analytic with replay off: the only layout with three
        // components per chip.
        chain_report(topology, TimingMode::Analytic, ScheduleMode::Barrier, false);
    }
}

/// Lopsided multi-chip loads: skewed link latencies, chips with no
/// inbound traffic, round clamps, equal-instant contention on shared
/// links, a consumer idle for most of the run, zero-latency links and
/// a deadlocked chip.
#[test]
fn degenerate_multi_chip_loads_are_byte_identical() {
    // Heterogeneous link latencies: one fast edge (40 ns) and one slow
    // edge (600 ns) on the same ring.
    let mut skewed = Topology::ring(4);
    skewed.links[0].spec.latency_ns = 40.0;
    skewed.links[1].spec.latency_ns = 600.0;
    chain_report(skewed, TimingMode::Analytic, ScheduleMode::Interleaved, true);

    let chip = ChipSpec::chip_s();
    let compiled = compiled_programs(2);
    // A chip that receives no hand-offs at all.
    let loads = [
        ChipLoad::new(compiled.programs()).with_handoff(1, 4096),
        ChipLoad::new(compiled.programs()),
        ChipLoad::new(compiled.programs()),
    ];
    let fc3 = SystemSimulator::new(chip.clone(), Topology::fully_connected(3));
    on_both_queues(&fc3, &loads, 2, "chip without inbound hand-offs").expect("simulates");
    // Round clamps: zero rounds (clamped up to one) and a single round
    // have start-up and tear-down with no steady state in between.
    let ring2 = SystemSimulator::new(chip.clone(), Topology::ring(2));
    let pipeline = [
        ChipLoad::new(compiled.programs()).with_handoff(1, 4096),
        ChipLoad::new(compiled.programs()),
    ];
    for rounds in [0usize, 1] {
        on_both_queues(&ring2, &pipeline, rounds, &format!("rounds = {rounds}"))
            .expect("simulates");
    }

    // A two-chip MVM pipeline with a per-round hand-off.
    let stage = mvm_program(chip.cores, 200);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    on_both_queues(&ring2, &loads, 3, "mvm pipeline").expect("simulates");

    // Multi-hop routes relayed through an intermediate chip, shared-link
    // queueing, an idle chip, and two symmetric producers shipping at
    // identical instants.
    let stage = mvm_program(chip.cores, 10);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(2, 1 << 20),
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(2, 1 << 20),
        ChipLoad::new(std::slice::from_ref(&stage)),
        ChipLoad::new(&[]),
    ];
    let ring4 = SystemSimulator::new(chip.clone(), Topology::ring(4));
    let report = on_both_queues(&ring4, &loads, 2, "multi-hop contention").expect("simulates");
    let wait: f64 = report.links.as_ref().expect("link section").iter().map(|l| l.wait_ns).sum();
    assert!(wait > 0.0, "the symmetric producers contend for the shared link");

    // A consumer idle for most of the run: its whole load gates on
    // hand-offs from a slow producer.
    let slow = mvm_program(chip.cores, 5_000);
    let light = mvm_program(chip.cores, 1);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&slow)).with_handoff(1, 65_536),
        ChipLoad::new(std::slice::from_ref(&light)),
    ];
    let report = on_both_queues(&ring2, &loads, 3, "long-idle consumer").expect("simulates");
    let consumer = &report.chips.as_ref().expect("chip section")[1];
    assert_eq!(consumer.rounds, 3, "every late hand-off was delivered");
    assert!(consumer.handoff_wait_ns > 0.0, "the consumer really did sit idle");

    // Zero-latency links: hand-offs land at the producer's own instant.
    let mut instant = Topology::ring(2);
    for link in &mut instant.links {
        link.spec.latency_ns = 0.0;
    }
    let stage = mvm_program(chip.cores, 5);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    let zero = SystemSimulator::new(chip.clone(), instant);
    on_both_queues(&zero, &loads, 1, "zero-latency links").expect("simulates");

    // A deadlocked chip: both queues diagnose the same blocked core.
    let mut bad = ChipProgram::new(chip.cores);
    bad.core_mut(CoreId(2)).push(Instruction::Recv { from: CoreId(0), bytes: 64, tag: Tag(404) });
    let loads =
        [ChipLoad::new(std::slice::from_ref(&stage)), ChipLoad::new(std::slice::from_ref(&bad))];
    let err = on_both_queues(&ring2, &loads, 1, "deadlock").expect_err("deadlocks");
    assert_eq!(err, SimError::Deadlock { core: CoreId(2), tag: Tag(404) });
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
