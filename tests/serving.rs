//! Open-loop serving invariants.
//!
//! Pins the serving-frontend contract: a Poisson-driven ring:2 run
//! reports tail percentiles and goodput, is byte-deterministic per
//! seed, batching policies trade queueing delay against round count,
//! admission control drops overload instead of queueing unboundedly,
//! the SLO accounting separates goodput from raw throughput, and the
//! calendar queue serves every traffic × policy × topology point
//! byte-identically to the reference heap.

use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_isa::{ChipProgram, CoreId, Instruction};
use pim_sim::{
    BatchPolicy, ChipLoad, RequestTrace, ServingConfig, SimReport, SystemSimulator, TrafficModel,
    TrafficSpec,
};

fn mvm_program(cores: usize, waves: usize) -> ChipProgram {
    let mut program = ChipProgram::new(cores);
    for c in 0..4 {
        program.core_mut(CoreId(c)).push(Instruction::Mvmul { waves, activations: 64, node: 0 });
    }
    program
}

/// A 2-chip ring pipeline: chip 0 runs a stage and hands off to
/// chip 1, per round.
fn ring2_run(serving: &ServingConfig, waves: usize) -> SimReport {
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, waves);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    SystemSimulator::new(chip, Topology::ring(2)).run_serving(&loads, serving).expect("serves")
}

fn poisson(rate_per_s: f64, seed: u64, requests: usize) -> TrafficSpec {
    TrafficSpec::Synthetic { model: TrafficModel::Poisson { rate_per_s }, seed, requests }
}

#[test]
fn ring2_poisson_run_reports_percentiles_and_goodput() {
    let config = ServingConfig::new(poisson(2e5, 42, 40));
    let report = ring2_run(&config, 50);
    let serving = report.serving.as_ref().expect("serving section present");
    assert_eq!(serving.requests, 40);
    assert_eq!(serving.dropped, 0);
    assert_eq!(serving.rounds, 40, "immediate dispatch forms one round per request");
    assert!(serving.p50_ns > 0.0);
    assert!(serving.p50_ns <= serving.p99_ns, "percentiles are monotone");
    assert!(serving.p99_ns <= serving.p999_ns, "percentiles are monotone");
    assert!(serving.goodput_rps > 0.0);
    assert_eq!(serving.records.len(), 40);
    assert_eq!(report.batch, 40, "batch reflects the served requests");
    // The per-request timeline is causally ordered.
    for r in &serving.records {
        assert!(r.start_ns >= r.arrival_ns, "no request starts before it arrives");
        assert!(r.finish_ns > r.start_ns);
    }
    // Both chips executed every round.
    let chips = report.chips.as_ref().expect("multi-chip section");
    assert_eq!(chips[0].rounds, 40);
    assert_eq!(chips[1].rounds, 40);
}

#[test]
fn serving_is_byte_deterministic_per_seed() {
    let config = ServingConfig::new(poisson(3e5, 7, 24));
    let a = serde_json::to_string(&ring2_run(&config, 20)).unwrap();
    let b = serde_json::to_string(&ring2_run(&config, 20)).unwrap();
    assert_eq!(a, b, "same seed, same bytes");
    let other = ServingConfig::new(poisson(3e5, 8, 24));
    let c = serde_json::to_string(&ring2_run(&other, 20)).unwrap();
    assert_ne!(a, c, "a different seed reshapes the arrival stream");
}

#[test]
fn mmpp_bursts_fatten_the_tail() {
    // Same mean rate: the bursty source must queue harder at the tail
    // than the memoryless one.
    let mmpp = TrafficModel::Mmpp {
        calm_rate_per_s: 4e4,
        burst_rate_per_s: 1.2e6,
        mean_calm_s: 2e-3,
        mean_burst_s: 4e-4,
    };
    let requests = 120;
    let bursty = ServingConfig::new(TrafficSpec::Synthetic { model: mmpp, seed: 5, requests });
    let steady = ServingConfig::new(poisson(mmpp.mean_rate_per_s(), 5, requests));
    let bursty_run = ring2_run(&bursty, 100);
    let steady_run = ring2_run(&steady, 100);
    let p99 = |r: &SimReport| r.serving.as_ref().unwrap().p99_ns;
    assert!(
        p99(&bursty_run) > p99(&steady_run),
        "MMPP p99 ({} ns) must exceed Poisson p99 ({} ns) at equal mean load",
        p99(&bursty_run),
        p99(&steady_run)
    );
}

#[test]
fn max_size_batching_trades_queueing_for_rounds() {
    // Underloaded on purpose (arrivals far slower than service): the
    // immediate policy then serves each request nearly on arrival,
    // while max-size batching makes early requests wait for the batch
    // to fill — the policy's cost, isolated from backlog queueing.
    let traffic = poisson(1e5, 11, 32);
    let immediate = ring2_run(&ServingConfig::new(traffic.clone()), 10);
    let batched = ring2_run(&ServingConfig::new(traffic).with_policy(BatchPolicy::MaxSize(8)), 10);
    let imm = immediate.serving.as_ref().unwrap();
    let bat = batched.serving.as_ref().unwrap();
    assert_eq!(imm.rounds, 32);
    assert_eq!(bat.rounds, 32 / 8, "batching collapses rounds");
    assert_eq!(bat.requests, 32, "every request is still served");
    assert!(
        bat.mean_queue_ns > imm.mean_queue_ns,
        "waiting for a full batch queues longer ({} vs {} ns)",
        bat.mean_queue_ns,
        imm.mean_queue_ns
    );
}

#[test]
fn deadline_policy_bounds_the_wait_for_stragglers() {
    // Two requests: one at t=0, one far later. A pure max-size-2
    // policy holds the first hostage until the second arrives; the
    // deadline cuts a partial batch after the timeout.
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![0.0, 5e6] });
    let hostage =
        ring2_run(&ServingConfig::new(trace.clone()).with_policy(BatchPolicy::MaxSize(2)), 10);
    let bounded = ring2_run(
        &ServingConfig::new(trace)
            .with_policy(BatchPolicy::Deadline { max_size: 2, timeout_ns: 1e4 }),
        10,
    );
    let h = hostage.serving.as_ref().unwrap();
    let b = bounded.serving.as_ref().unwrap();
    assert_eq!(h.rounds, 1, "max-size waits for the straggler");
    assert_eq!(b.rounds, 2, "the deadline flushes a partial batch");
    // The first request's latency collapses from ~5 ms to ~the
    // timeout plus service.
    assert!(h.records[0].latency_ns() > 5e6);
    assert!(
        b.records[0].latency_ns() < 1e6,
        "deadline-bounded latency was {} ns",
        b.records[0].latency_ns()
    );
}

#[test]
fn full_queues_drop_instead_of_queueing_unboundedly() {
    // A tight burst against a long service time and a 4-slot queue:
    // admission control must shed load, and the books must balance.
    let arrivals_ns: Vec<f64> = (0..32).map(|i| i as f64).collect();
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns });
    let config = ServingConfig::new(trace).with_queue_capacity(4).with_max_inflight(1);
    let report = ring2_run(&config, 2_000);
    let serving = report.serving.as_ref().unwrap();
    assert!(serving.dropped > 0, "the overload must shed");
    assert_eq!(serving.requests + serving.dropped, 32, "served + dropped = offered");
    assert_eq!(serving.records.len(), serving.requests);
}

#[test]
fn slo_violations_split_goodput_from_throughput() {
    let traffic = poisson(2e5, 19, 24);
    let lax = ring2_run(&ServingConfig::new(traffic.clone()).with_slo_ns(1e12), 200);
    let strict = ring2_run(&ServingConfig::new(traffic).with_slo_ns(1.0), 200);
    let lax_s = lax.serving.as_ref().unwrap();
    let strict_s = strict.serving.as_ref().unwrap();
    assert_eq!(lax_s.slo_violations, 0);
    assert!(lax_s.goodput_rps > 0.0);
    assert_eq!(strict_s.slo_violations, strict_s.requests, "a 1 ns SLO fails everything");
    assert_eq!(strict_s.goodput_rps, 0.0);
    // Identical traffic and system: the SLO only reclassifies.
    assert_eq!(lax_s.p99_ns, strict_s.p99_ns);
}

#[test]
fn serving_rejects_nonsense_configs() {
    use pim_sim::SimError;
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, 10);
    let loads = [
        ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
        ChipLoad::new(std::slice::from_ref(&stage)),
    ];
    let sim = SystemSimulator::new(chip.clone(), Topology::ring(2));
    let traffic = poisson(1e5, 1, 4);
    let zero_queue = ServingConfig::new(traffic.clone()).with_queue_capacity(0);
    assert!(matches!(sim.run_serving(&loads, &zero_queue), Err(SimError::InvalidServing(_))));
    let zero_inflight = ServingConfig::new(traffic.clone()).with_max_inflight(0);
    assert!(matches!(sim.run_serving(&loads, &zero_inflight), Err(SimError::InvalidServing(_))));
    let zero_batch = ServingConfig::new(traffic.clone()).with_policy(BatchPolicy::MaxSize(0));
    assert!(matches!(sim.run_serving(&loads, &zero_batch), Err(SimError::InvalidServing(_))));
    // Deadlines must be finite, non-negative waits.
    for timeout_ns in [f64::INFINITY, -1.0, f64::NAN] {
        let policy = BatchPolicy::Deadline { max_size: 4, timeout_ns };
        let config = ServingConfig::new(traffic.clone()).with_policy(policy);
        assert!(
            matches!(sim.run_serving(&loads, &config), Err(SimError::InvalidServing(_))),
            "deadline {timeout_ns} ns"
        );
    }
    // Arrival models need non-negative rates and positive dwell means.
    let mmpp = |calm_rate_per_s: f64, mean_burst_s: f64| TrafficModel::Mmpp {
        calm_rate_per_s,
        burst_rate_per_s: 1e5,
        mean_calm_s: 1e-3,
        mean_burst_s,
    };
    for model in [
        TrafficModel::Poisson { rate_per_s: -1.0 },
        TrafficModel::Poisson { rate_per_s: f64::NAN },
        mmpp(-1.0, 1e-3),
        mmpp(f64::NAN, 1e-3),
        mmpp(1e5, 0.0),
        mmpp(1e5, -1e-3),
        mmpp(1e5, f64::NAN),
    ] {
        let config = ServingConfig::new(TrafficSpec::Synthetic { model, seed: 1, requests: 4 });
        assert!(
            matches!(sim.run_serving(&loads, &config), Err(SimError::InvalidServing(_))),
            "{model:?}"
        );
    }
    // An SLO must be a positive latency.
    for slo_ns in [f64::NAN, 0.0, -5.0] {
        let config = ServingConfig::new(traffic.clone()).with_slo_ns(slo_ns);
        assert!(
            matches!(sim.run_serving(&loads, &config), Err(SimError::InvalidServing(_))),
            "SLO {slo_ns} ns"
        );
    }
    // An all-idle system has nothing to serve on.
    let idle = [ChipLoad::new(&[]), ChipLoad::new(&[])];
    assert!(matches!(
        sim.run_serving(&idle, &ServingConfig::new(traffic)),
        Err(SimError::InvalidServing(_))
    ));
}

#[test]
fn empty_traffic_serves_nothing_gracefully() {
    let config = ServingConfig::new(poisson(0.0, 3, 100));
    let report = ring2_run(&config, 10);
    let serving = report.serving.as_ref().unwrap();
    assert_eq!(serving.requests, 0);
    assert_eq!(serving.rounds, 0);
    assert_eq!(serving.p999_ns, 0.0, "empty buffer reports zero percentiles");
    assert_eq!(report.makespan_ns, 0.0);
}

/// A `chips`-long hand-off chain on `topology`, every chip active,
/// served on the calendar queue or the reference heap.
fn chain_run(
    topology: Topology,
    serving: &ServingConfig,
    waves: usize,
    timing: TimingMode,
    schedule: ScheduleMode,
    reference: bool,
) -> SimReport {
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, waves);
    let chips = topology.chips();
    let loads: Vec<ChipLoad<'_>> = (0..chips)
        .map(|c| {
            let load = ChipLoad::new(std::slice::from_ref(&stage));
            if c + 1 < chips {
                load.with_handoff(c + 1, 4096)
            } else {
                load
            }
        })
        .collect();
    SystemSimulator::new(chip, topology)
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .with_reference_queue(reference)
        .run_serving(&loads, serving)
        .expect("serves")
}

/// Serves `serving` on both queues and demands byte-identical
/// serialized reports; returns the calendar queue's report.
fn on_both_queues(
    topology: Topology,
    serving: &ServingConfig,
    waves: usize,
    timing: TimingMode,
    schedule: ScheduleMode,
) -> SimReport {
    let run =
        |reference: bool| chain_run(topology.clone(), serving, waves, timing, schedule, reference);
    let (calendar, reference) = (run(false), run(true));
    assert_eq!(
        serde_json::to_string(&calendar).expect("serializes"),
        serde_json::to_string(&reference).expect("serializes"),
        "calendar vs reference queue ({topology}, {timing}, {schedule}, {:?})",
        serving.policy
    );
    calendar
}

fn bursty() -> TrafficModel {
    TrafficModel::Mmpp {
        calm_rate_per_s: 8e4,
        burst_rate_per_s: 9e5,
        mean_calm_s: 1e-3,
        mean_burst_s: 3e-4,
    }
}

/// Poisson, MMPP, and replayed-trace sources for one seed.
fn sources(seed: u64) -> Vec<TrafficSpec> {
    vec![
        poisson(2.5e5, seed, 30),
        TrafficSpec::Synthetic { model: bursty(), seed, requests: 30 },
        TrafficSpec::Trace(RequestTrace::synthesize(
            TrafficModel::Poisson { rate_per_s: 3e5 },
            seed ^ 0x5eed,
            24,
        )),
    ]
}

fn policies() -> [BatchPolicy; 3] {
    [
        BatchPolicy::Immediate,
        BatchPolicy::MaxSize(4),
        BatchPolicy::Deadline { max_size: 6, timeout_ns: 2e4 },
    ]
}

#[test]
fn serving_reports_match_the_reference_queue_across_the_matrix() {
    // Analytic barrier runs cover every topology, seed, source and
    // policy; the closed-loop and interleaved legs run ring:2 on one
    // seed.
    let mut legs = Vec::new();
    for topology in [Topology::ring(2), Topology::fully_connected(4)] {
        for seed in [3u64, 17, 29] {
            legs.push((topology.clone(), seed, TimingMode::Analytic, ScheduleMode::Barrier));
        }
    }
    legs.push((Topology::ring(2), 3, TimingMode::ClosedLoop, ScheduleMode::Barrier));
    legs.push((Topology::ring(2), 3, TimingMode::Analytic, ScheduleMode::Interleaved));
    for (topology, seed, timing, schedule) in legs {
        for source in sources(seed) {
            for policy in policies() {
                let config = ServingConfig::new(source.clone()).with_policy(policy);
                on_both_queues(topology.clone(), &config, 40, timing, schedule);
            }
        }
    }
    // Zero-latency links: hand-offs land at the producer's own instant.
    let mut instant = Topology::ring(2);
    for link in &mut instant.links {
        link.spec.latency_ns = 0.0;
    }
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns: vec![0.0, 100.0, 250.0] });
    let config = ServingConfig::new(trace);
    on_both_queues(instant, &config, 5, TimingMode::Analytic, ScheduleMode::Barrier);
}

#[test]
fn backpressure_agrees_with_the_reference_queue() {
    // A tight burst against a long service time, a 3-slot queue and
    // one round in flight: admission control must shed the same
    // requests at the same instants on both queues.
    let arrivals_ns: Vec<f64> = (0..40).map(|i| 25.0 * i as f64).collect();
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns });
    let config = ServingConfig::new(trace).with_queue_capacity(3).with_max_inflight(1);
    let report = on_both_queues(
        Topology::ring(2),
        &config,
        1_500,
        TimingMode::Analytic,
        ScheduleMode::Barrier,
    );
    let serving = report.serving.as_ref().expect("serving section present");
    assert!(serving.dropped > 0, "the overload must shed");
    assert_eq!(serving.requests + serving.dropped, 40, "served + dropped = offered");
}
