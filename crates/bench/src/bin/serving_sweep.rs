//! **Extension**: open-loop serving sweep.
//!
//! Compiles each workload onto a 2-chip ring pipeline, then drives it
//! with open-loop request traffic instead of a fixed round count:
//! Poisson and bursty MMPP arrivals through the batching-policy zoo
//! (immediate dispatch, max-batch-size, batch-vs-deadline). Every
//! point reports the tail — p50/p99/p999 latency, queueing delay,
//! drops — and SLO goodput, and emits one `serving:*` perf-trajectory
//! record carrying **p99 latency in `makespan_ns`** and **goodput in
//! `throughput_ips`** (the gate's makespan direction — lower is
//! better — matches tail latency exactly).
//!
//! Arrival rates are calibrated against the pipeline's own simulated
//! round time (a fixed utilization, not a fixed req/s), so every
//! workload queues meaningfully without saturating. The calibration
//! and the arrival streams are seeded and simulated, so records are
//! byte-deterministic and the gate stays exact.
//!
//! Flags:
//!
//! * `--quick` — greedy partitioning, squeezenet only (the CI
//!   bench-smoke configuration);
//! * `--paper` — the paper's GA hyper-parameters;
//! * `--shard` — skip the sweep and measure the serving **engine**
//!   instead: single-threaded vs sharded wall clock over a rate ×
//!   topology grid (`serving:abs:shard:*` / `serving:gate:shard:*`,
//!   parallelism-stamped; needs `--features sharded`, and prints a
//!   skip note without it). Every measured pair is first asserted
//!   byte-identical, so the trajectory can never drift away from the
//!   oracle it is timing;
//! * `--min-shard-speedup <x>` — with `--shard`, fail unless every
//!   grid point's sharded engine beats the single-threaded one by
//!   `x` (halved under `--quick`; skipped with a note when the host
//!   has fewer hardware threads than the topology has chips);
//! * `--json <path>` — merge this run's `serving:*` records into
//!   `path` (`BENCH_ci.json` in CI).

use std::process::ExitCode;

use compass::{Strategy, SystemStrategy};
use compass_bench::{
    append_records, arg_value, has_flag, print_table, run_system_config, system_loads, BenchMode,
    BenchRecord,
};
use pim_arch::{ChipClass, ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_sim::{
    BatchPolicy, ServingConfig, ServingReport, SystemSimulator, TrafficModel, TrafficSpec,
};

/// One traffic × batching point of the sweep.
struct SweepPoint {
    /// Stable suffix of the record name, e.g. `"poisson-immediate"`.
    key: &'static str,
    traffic: TrafficModel,
    policy: BatchPolicy,
}

/// The sweep's traffic/policy grid, rate-calibrated so the Poisson
/// points offer `util` of the pipeline's service capacity.
fn sweep_points(service_ns: f64, batch: usize) -> Vec<SweepPoint> {
    let util = 0.6;
    let rate_per_s = util / (service_ns * 1e-9);
    let poisson = TrafficModel::Poisson { rate_per_s };
    // Bursts at 3x service capacity against long calm valleys, same
    // order of mean load as the Poisson points.
    let mmpp = TrafficModel::Mmpp {
        calm_rate_per_s: 0.3 * rate_per_s / util,
        burst_rate_per_s: 3.0 * rate_per_s / util,
        mean_calm_s: 8.0 * service_ns * 1e-9,
        mean_burst_s: 2.0 * service_ns * 1e-9,
    };
    vec![
        SweepPoint { key: "poisson-immediate", traffic: poisson, policy: BatchPolicy::Immediate },
        SweepPoint { key: "poisson-batch", traffic: poisson, policy: BatchPolicy::MaxSize(batch) },
        SweepPoint {
            key: "poisson-deadline",
            traffic: poisson,
            policy: BatchPolicy::Deadline { max_size: batch, timeout_ns: service_ns / 2.0 },
        },
        SweepPoint { key: "mmpp-immediate", traffic: mmpp, policy: BatchPolicy::Immediate },
    ]
}

fn main() -> ExitCode {
    let mode = BenchMode::from_args();
    let quick = has_flag("--quick");
    if has_flag("--shard") {
        #[cfg(feature = "sharded")]
        return engine::trajectory(quick);
        #[cfg(not(feature = "sharded"))]
        {
            println!("shard scaling skipped (build with --features sharded to measure)");
            return ExitCode::SUCCESS;
        }
    }
    let strategy = if quick { Strategy::Greedy } else { Strategy::Compass };
    let nets: &[&str] = if quick { &["squeezenet"] } else { &["squeezenet", "resnet18"] };
    let requests = if quick { 96 } else { 256 };
    let batch = 4;
    let topology = Topology::ring(2);

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut rows = Vec::new();
    for net in nets {
        // Compile once per network and reuse the planned loads for
        // every traffic point; the closed-loop 2-round run doubles as
        // the service-time probe for rate calibration.
        let planned = run_system_config(
            net,
            ChipClass::S,
            strategy,
            SystemStrategy::LayerPipeline,
            &topology,
            batch,
            2,
            mode,
            TimingMode::Analytic,
            ScheduleMode::Barrier,
        );
        let loads = system_loads(&planned.schedule);
        let service_ns = planned.report.makespan_ns / 2.0;
        let sim = SystemSimulator::new(ChipSpec::preset(ChipClass::S), topology.clone());
        for point in sweep_points(service_ns, batch) {
            let traffic = TrafficSpec::Synthetic { model: point.traffic, seed: 2025, requests };
            let config =
                ServingConfig::new(traffic).with_policy(point.policy).with_slo_ns(5.0 * service_ns);
            let label = format!("{net}-S-{topology}-{}", point.key);
            let report =
                sim.run_serving(&loads, &config).unwrap_or_else(|e| panic!("serving:{label}: {e}"));
            let serving = report.serving.expect("serving runs carry a serving section");
            records.push(BenchRecord {
                name: format!("serving:{label}:{strategy}"),
                makespan_ns: serving.p99_ns,
                throughput_ips: serving.goodput_rps,
                host_parallelism: None,
            });
            rows.push(summary_row(&label, &serving));
        }
    }

    print_table(
        &format!(
            "Open-loop serving sweep (ring:2 layer pipeline, batch {batch}, {requests} requests)"
        ),
        &[
            "Config",
            "Served",
            "Dropped",
            "Rounds",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "Mean queue (us)",
            "Goodput (req/s)",
        ],
        &rows,
    );

    if let Some(path) = arg_value("--json") {
        let count = records.len();
        append_records(&path, records);
        println!("\nwrote {count} perf records to {path}");
    }
    ExitCode::SUCCESS
}

fn summary_row(label: &str, s: &ServingReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{}", s.requests),
        format!("{}", s.dropped),
        format!("{}", s.rounds),
        format!("{:.1}", s.p50_ns / 1000.0),
        format!("{:.1}", s.p99_ns / 1000.0),
        format!("{:.1}", s.p999_ns / 1000.0),
        format!("{:.1}", s.mean_queue_ns / 1000.0),
        format!("{:.1}", s.goodput_rps),
    ]
}

/// `--shard`: serving-engine trajectory — wall clocks of the serving
/// engine itself rather than the simulated tail.
#[cfg(feature = "sharded")]
mod engine {
    use super::*;
    use compass::{CompileOptions, CompiledModel, Compiler, GaParams};
    use pim_sim::ChipLoad;
    use std::time::Instant;

    /// Compiles the shared tiny-CNN engine workload (same recipe as
    /// `engine_hotpath`'s shard bench, so the two trajectories time
    /// comparable graphs).
    fn compile_workload() -> CompiledModel {
        Compiler::new(ChipSpec::chip_s())
            .compile(
                &pim_model::zoo::tiny_cnn(),
                &CompileOptions::new()
                    .with_strategy(Strategy::Greedy)
                    .with_batch_size(4)
                    .with_ga(GaParams::fast())
                    .with_seed(11),
            )
            .expect("compiles")
    }

    /// Every chip runs the compiled workload and hands off to its
    /// successor, so shard boundaries carry traffic every round.
    fn chain_loads(compiled: &CompiledModel, chips: usize) -> Vec<ChipLoad<'_>> {
        (0..chips)
            .map(|c| {
                let load = ChipLoad::new(compiled.programs());
                if c + 1 < chips {
                    load.with_handoff(c + 1, 65_536)
                } else {
                    load
                }
            })
            .collect()
    }

    /// Poisson serving config at `util` of the chain's measured
    /// per-round service capacity.
    fn serving_config(service_ns: f64, util: f64, requests: usize) -> ServingConfig {
        let traffic = TrafficSpec::Synthetic {
            model: TrafficModel::Poisson { rate_per_s: util / (service_ns * 1e-9) },
            seed: 2025,
            requests,
        };
        ServingConfig::new(traffic)
            .with_policy(BatchPolicy::MaxSize(4))
            .with_slo_ns(8.0 * service_ns)
    }

    /// Best-of-`runs` wall time, ns (lower is the least-disturbed
    /// run).
    fn min_wall_ns<F: Fn() -> f64>(runs: usize, f: F) -> f64 {
        (0..runs).map(|_| f()).fold(f64::MAX, f64::min)
    }

    /// Probes the chain's round time with a closed-loop 2-round run
    /// (same calibration trick as the tail sweep).
    fn probe_service_ns(topology: &Topology, loads: &[ChipLoad<'_>]) -> f64 {
        let sim = SystemSimulator::new(ChipSpec::chip_s(), topology.clone());
        sim.run(loads, 2, 4).expect("probe simulates").makespan_ns / 2.0
    }

    /// One grid point's single-threaded vs sharded serving wall clock.
    struct Scaling {
        /// Stable record key, e.g. `"ring2-u90"`.
        key: String,
        /// Chip (= shard thread) count.
        chips: usize,
        /// Best single-threaded wall time, ns.
        single_ns: f64,
        /// Best sharded wall time, ns.
        sharded_ns: f64,
    }

    impl Scaling {
        /// Single-threaded wall time over sharded wall time.
        fn speedup(&self) -> f64 {
            self.single_ns / self.sharded_ns
        }
    }

    /// Measures the rate grid on one topology: asserts the sharded
    /// report byte-identical to the oracle at every point, then times
    /// both engines.
    fn measure_topology(
        topology: Topology,
        label: &str,
        requests: usize,
        runs: usize,
    ) -> Vec<Scaling> {
        use pim_sim::EngineMode;

        let compiled = compile_workload();
        let chips = topology.chips();
        let loads = chain_loads(&compiled, chips);
        let service_ns = probe_service_ns(&topology, &loads);
        [(0.5, "u50"), (0.9, "u90")]
            .iter()
            .map(|&(util, rate_key)| {
                let config = serving_config(service_ns, util, requests);
                let run = |sharded: bool| {
                    SystemSimulator::new(ChipSpec::chip_s(), topology.clone())
                        .with_sharded(sharded)
                        .run_serving(&loads, &config)
                        .expect("serving simulates")
                };
                // Identity first: the trajectory only times engines
                // that agree byte-for-byte.
                let oracle = run(false);
                let sharded = run(true);
                assert!(
                    matches!(sharded.engine, Some(EngineMode::Sharded { .. })),
                    "{label}-{rate_key}: sharded run fell back to {:?}",
                    sharded.engine
                );
                assert!(
                    oracle == sharded,
                    "{label}-{rate_key}: sharded serving report diverged from the oracle"
                );
                let wall = |sharded: bool| {
                    let start = Instant::now();
                    std::hint::black_box(run(sharded).makespan_ns);
                    start.elapsed().as_secs_f64() * 1e9
                };
                Scaling {
                    key: format!("{label}-{rate_key}"),
                    chips,
                    single_ns: min_wall_ns(runs, || wall(false)),
                    sharded_ns: min_wall_ns(runs, || wall(true)),
                }
            })
            .collect()
    }

    /// The serving-engine trajectory behind `--shard`.
    pub fn trajectory(quick: bool) -> ExitCode {
        let (requests, runs) = if quick { (128, 2) } else { (512, 3) };

        // Shard scaling: rate × topology grid, byte-identity asserted
        // per point before timing. Shard speedup is a function of the
        // measuring host's core count, so every record carries a
        // parallelism stamp and the baseline gate only compares
        // records measured at matching parallelism.
        let mut scalings = measure_topology(Topology::ring(2), "ring2", requests, runs);
        scalings.extend(measure_topology(Topology::fully_connected(4), "fc4", requests, runs));
        print_table(
            "Sharded serving scaling (wall ms, single-threaded vs one thread per chip)",
            &["grid point", "single", "sharded", "speedup"],
            &scalings
                .iter()
                .map(|s| {
                    vec![
                        s.key.clone(),
                        format!("{:.1}", s.single_ns / 1e6),
                        format!("{:.1}", s.sharded_ns / 1e6),
                        format!("{:.2}x", s.speedup()),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let mut records: Vec<BenchRecord> = Vec::new();
        for s in &scalings {
            let record = |name: String, makespan_ns: f64, throughput_ips: f64| {
                BenchRecord { name, makespan_ns, throughput_ips, host_parallelism: None }
                    .measured_on_this_host()
            };
            records.push(record(
                format!("serving:abs:shard:{}:single", s.key),
                s.single_ns,
                1e9 / s.single_ns,
            ));
            records.push(record(
                format!("serving:abs:shard:{}:sharded", s.key),
                s.sharded_ns,
                1e9 / s.sharded_ns,
            ));
            records.push(record(
                format!("serving:gate:shard:{}", s.key),
                1.0 / s.speedup(),
                s.speedup(),
            ));
        }

        if let Some(path) = arg_value("--json") {
            let count = records.len();
            append_records(&path, records);
            println!("\nwrote {count} perf records to {path}");
        }

        let min_shard: f64 = arg_value("--min-shard-speedup")
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --min-shard-speedup {v:?}: {e}")))
            .unwrap_or(0.0);
        if min_shard > 0.0 {
            let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let floor = min_shard * if quick { 0.5 } else { 1.0 };
            for s in &scalings {
                if parallelism < s.chips {
                    println!(
                        "note: shard gate for {} skipped ({parallelism} hardware threads < {} chips)",
                        s.key, s.chips
                    );
                } else if s.speedup() < floor {
                    eprintln!(
                        "serving_sweep: shard speedup {:.2}x on {} below required {floor:.2}x",
                        s.speedup(),
                        s.key
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    }
}
