//! `serve-ring2`: resnet18 compiled during set-up with
//! `Strategy::Greedy`, planned onto `Topology::ring(2)` as a
//! `LayerPipeline` at batch 4, and served open loop by `run_serving`
//! on the single-threaded engine.
//!
//! Traffic is Poisson at 0.8 of the calibrated capacity: the service
//! time is the makespan of a 2-round `run` divided by 2, and the rate
//! is 0.8 × 4 / service time. Batches are cut by
//! `BatchPolicy::Deadline { max_size: 4, timeout_ns: service / 2 }`
//! and the SLO is 5× the service time. Rounds are appended live by the
//! admission frontend, the two chips exchange hand-offs over the
//! interconnect, and DRAM uses analytic timing with replay.
//!
//! Each call serves 4,096 requests. At 16,384 a call took 5–7 s and
//! ~650 MB, past the host's shared last-level cache, and its host time
//! swung by more than a quarter between runs of the same code; at
//! 4,096 a 40 s run makes 25–35 calls, so their median rides out the
//! host's shorter slow spells. The traced run still serves 16,384 requests
//! once, so `serve.growth_16k` shows how host cost per request grows.

use crate::measure::{self, timed, Setups};
use crate::outcome::{Outcome, PROBE};
use crate::stage::{check_compiled, replay_compile, report_compiles, validity_map};
use crate::trace::Tracer;
use compass::{
    plan_system, CompileOptions, CompiledModel, Compiler, ScheduleMode, Strategy, SystemSchedule,
    SystemStrategy, SystemTarget, TimingMode,
};
use pim_arch::{ChipSpec, Topology};
use pim_model::{zoo, Network};
use pim_sim::{
    BatchPolicy, ChipLoad, RequestTrace, ServingConfig, ServingReport, SimReport, SystemSimulator,
    TrafficModel, TrafficSpec,
};
use std::time::Instant;

const BATCH: usize = 4;
const REQUESTS: usize = 4_096;
/// Requests of the traced run's single long call.
const LONG_REQUESTS: usize = 16_384;
const UTILIZATION: f64 = 0.8;
const SLO_SERVICES: f64 = 5.0;
const CALIBRATION_ROUNDS: usize = 2;
/// Traffic seeds a run cycles through, so the simulated metrics rest on
/// `TRAFFICS × REQUESTS` requests.
const TRAFFICS: usize = 16;

struct Setup {
    network: Network,
    compiled: CompiledModel,
    schedule: SystemSchedule,
    /// The calibration run: `CALIBRATION_ROUNDS` closed rounds.
    calibration: SimReport,
    /// One serving set-up per traffic seed; the traced run uses the
    /// first.
    configs: Vec<ServingConfig>,
}

fn topology() -> Topology {
    Topology::ring(2)
}

fn target() -> SystemTarget {
    SystemTarget::new(topology(), SystemStrategy::LayerPipeline)
}

fn options(seed: u64) -> CompileOptions {
    CompileOptions::new()
        .with_batch_size(BATCH)
        .with_strategy(Strategy::Greedy)
        .with_seed(seed)
        .with_timing_mode(TimingMode::Analytic)
        .with_schedule_mode(ScheduleMode::Barrier)
        .with_system_target(target())
}

fn simulator(replay: bool) -> SystemSimulator {
    SystemSimulator::new(ChipSpec::chip_s(), topology())
        .with_timing_mode(TimingMode::Analytic)
        .with_schedule_mode(ScheduleMode::Barrier)
        .with_dram_replay(replay)
}

/// The planned per-chip loads. (`compass_bench::system_loads` does the
/// same, but depending on that crate would turn on `pim-engine`'s
/// `reference-queue` feature in the measured build.)
fn loads(schedule: &SystemSchedule) -> Vec<ChipLoad<'_>> {
    schedule
        .chips
        .iter()
        .map(|c| {
            c.handoffs.iter().fold(ChipLoad::new(&c.programs), |load, &(dst, bytes)| {
                load.with_handoff(dst, bytes)
            })
        })
        .collect()
}

fn calibrate(schedule: &SystemSchedule) -> Result<SimReport, String> {
    simulator(true)
        .run(&loads(schedule), CALIBRATION_ROUNDS, schedule.samples_per_round)
        .map_err(|e| format!("calibration run: {e}"))
}

fn setup(seed: u64) -> Result<Setup, String> {
    let chip = ChipSpec::chip_s();
    let network = zoo::resnet18();
    let options = options(seed);
    let compiled =
        Compiler::new(chip.clone()).compile(&network, &options).map_err(|e| e.to_string())?;
    let schedule =
        plan_system(&network, &compiled, &chip, &target(), BATCH, options.chunks_per_sample)
            .map_err(|e| e.to_string())?;
    let calibration = calibrate(&schedule)?;
    let service_ns = calibration.makespan_ns / CALIBRATION_ROUNDS as f64;
    let rate_per_s = UTILIZATION * BATCH as f64 / (service_ns * 1e-9);
    let configs = (0..TRAFFICS as u64)
        .map(|k| {
            let traffic = TrafficSpec::Synthetic {
                model: TrafficModel::Poisson { rate_per_s },
                seed: seed.wrapping_mul(TRAFFICS as u64).wrapping_add(k),
                requests: REQUESTS,
            };
            ServingConfig::new(traffic)
                .with_policy(BatchPolicy::Deadline {
                    max_size: BATCH,
                    timeout_ns: service_ns / 2.0,
                })
                .with_queue_capacity(1024)
                .with_max_inflight(2)
                .with_slo_ns(SLO_SERVICES * service_ns)
        })
        .collect();
    Ok(Setup { network, compiled, schedule, calibration, configs })
}

/// The serving section of a run, checked: every offered request is
/// served or dropped, the percentiles are ordered, and no request's
/// latency is below its queueing delay.
fn check(report: &SimReport, offered: usize) -> Result<&ServingReport, String> {
    let s = report.serving.as_ref().ok_or("serving run without a serving section")?;
    if s.requests + s.dropped != offered {
        return Err(format!("{} served + {} dropped of {offered} offered", s.requests, s.dropped));
    }
    if !(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns) {
        return Err(format!("percentiles out of order: {} {} {}", s.p50_ns, s.p99_ns, s.p999_ns));
    }
    if let Some(r) = s.records.iter().find(|r| r.latency_ns() < r.queue_ns()) {
        return Err(format!("request at {} ns finished before its round started", r.arrival_ns));
    }
    Ok(s)
}

/// Runs the workload: the untraced end-to-end loop, or the traced loop
/// when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let build = || setup(seed);
    let (setup, mut setups) = Setups::first(seconds, build)?;
    let mut out = Outcome::default();
    let checked =
        check_compiled(&setup.compiled, &validity_map(&setup.network, &ChipSpec::chip_s()));
    out.attempt("set-up compile", checked);
    let offered = setup
        .configs
        .iter()
        .map(|c| c.traffic.arrivals().map(|a| a.len()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if trace {
        traced(&mut out, &setup, seed, seconds, offered[0]);
        return Ok(out);
    }

    let sim = simulator(true);
    let loads = loads(&setup.schedule);
    let mut call_ms = Vec::new();
    // Requests served per host second, one rate per call.
    let mut call_rps = Vec::new();
    // Calls cycle through the traffic seeds; every call must reproduce
    // the report of the first call on the same traffic.
    let mut first: Vec<Option<SimReport>> = vec![None; TRAFFICS];
    let mut calls = 0;
    let start = Instant::now();
    while calls < TRAFFICS || start.elapsed().as_secs_f64() < seconds {
        setups.catch_up(build)?;
        let k = calls % TRAFFICS;
        calls += 1;
        let (result, secs) = timed(|| sim.run_serving(&loads, &setup.configs[k]));
        let checked = result.map_err(|e| e.to_string()).and_then(|report| {
            let requests = check(&report, offered[k])?.requests;
            match &first[k] {
                None => first[k] = Some(report),
                Some(f) if *f == report => {}
                Some(_) => return Err("a repeated serving run produced a different report".into()),
            }
            Ok(requests)
        });
        if let Some(requests) = out.attempt("run_serving", checked) {
            call_ms.push(secs * 1e3);
            call_rps.push(requests as f64 / secs);
        }
    }

    let sorted = measure::sorted(&call_ms);
    let p50 = measure::percentile(&sorted, 0.5);
    let tail = measure::tail(&sorted);
    let host_rps = measure::median(&call_rps);
    out.host("serve_ms.p50", p50, "ms", &format!("per run_serving call, n={}", tail.n));
    let note = format!("p{} of n={}", tail.q * 100.0, tail.n);
    out.host("serve_ms.tail", tail.value, "ms", &note);
    out.host("serve_host_rps", host_rps, "req/s", "median over calls of served / host s");
    out.set("call_ms.p50", p50);
    out.set("call_ms.tail", tail.value);
    out.set("host_throughput", host_rps);
    // Simulated metrics: means over the traffic seeds.
    let served: Vec<(&SimReport, &ServingReport)> =
        first.iter().flatten().filter_map(|r| r.serving.as_ref().map(|s| (r, s))).collect();
    if served.len() == TRAFFICS {
        let p99_ms =
            measure::mean(&served.iter().map(|(_, s)| s.p99_ns * 1e-6).collect::<Vec<_>>());
        let goodput = measure::mean(&served.iter().map(|(_, s)| s.goodput_rps).collect::<Vec<_>>());
        // Energy per served request (µJ) times the p99 latency (ms).
        let edp = measure::mean(
            &served
                .iter()
                .map(|(r, s)| r.energy.total_uj() / s.requests.max(1) as f64 * s.p99_ns * 1e-6)
                .collect::<Vec<_>>(),
        );
        out.sim("serve_p99_ms", p99_ms, "ms-sim");
        out.sim("serve_goodput_rps", goodput, "req/s-sim");
        out.sim("serve_edp", edp, "nJ.s");
        out.set("sim_ips", goodput);
        out.set("sim_edp", edp);
    }
    out.finish_end_to_end(setups.finish(build)?);
    Ok(out)
}

/// Serves [`LONG_REQUESTS`] of the same traffic in one untraced call
/// and returns its host µs per served request.
fn long_call(sim: &SystemSimulator, loads: &[ChipLoad<'_>], setup: &Setup) -> Result<f64, String> {
    let mut config = setup.configs[0].clone();
    if let TrafficSpec::Synthetic { requests, .. } = &mut config.traffic {
        *requests = LONG_REQUESTS;
    }
    let offered = config.traffic.arrivals().map_err(|e| e.to_string())?.len();
    let (report, secs) = timed(|| sim.run_serving(loads, &config));
    let report = report.map_err(|e| e.to_string())?;
    let served = check(&report, offered)?.requests;
    Ok(secs * 1e6 / served.max(1) as f64)
}

/// The traced run: the set-up compile again stage by stage (checked
/// against the set-up's `Compiler::compile`) and the calibration run
/// under `sim.run`; then per call the arrivals (`serve.arrivals`) and
/// `run_serving` on them (`sim.serve`), the same call untraced, which
/// must agree, and a replay-off probe; last, one untraced call of
/// [`LONG_REQUESTS`] requests for `serve.growth_16k`.
fn traced(out: &mut Outcome, setup: &Setup, seed: u64, seconds: f64, offered: usize) {
    let mut t = Tracer::default();
    let chip = ChipSpec::chip_s();
    let staged =
        replay_compile(&mut t, "resnet18", &setup.network, &chip, &options(seed), &setup.compiled);
    let staged: Vec<_> = out.attempt("staged compile", staged).into_iter().collect();
    let calibration = t.span("sim.run", "calibration", |_| calibrate(&setup.schedule));
    let calibration = calibration.and_then(|c| {
        if c == setup.calibration {
            Ok(())
        } else {
            Err("the calibration run changed".to_string())
        }
    });
    out.attempt("calibration run", calibration);
    let calibrated_ips = (setup.schedule.samples_per_round * CALIBRATION_ROUNDS) as f64
        / (setup.calibration.makespan_ns * 1e-9);
    let over_sim: Vec<f64> =
        staged.iter().map(|s| s.estimate.throughput_ips() / calibrated_ips).collect();
    report_compiles(out, &t, &staged, 0, &over_sim);
    let sim_ms = t.mean_ms("sim.run", None);
    out.layer("sim.run.ms", sim_ms, "ms");

    let (sim, probe) = (simulator(true), simulator(false));
    let loads = loads(&setup.schedule);
    let mut first: Option<SimReport> = None;
    let mut rss_kb_per_request = 0.0;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut reference_s = Vec::new();
    let mut calls = 0;
    let start = Instant::now();
    while calls == 0 || start.elapsed().as_secs_f64() < seconds {
        calls += 1;
        let hwm_before = measure::peak_rss_kb().unwrap_or(0);
        let before = Instant::now();
        let arrivals = t.span("serve.arrivals", "", |_| setup.configs[0].traffic.arrivals());
        let Some(arrivals) = out.attempt("arrivals", arrivals.map_err(|e| e.to_string())) else {
            continue;
        };
        let mut replay = setup.configs[0].clone();
        replay.traffic = TrafficSpec::Trace(RequestTrace { arrivals_ns: arrivals });
        let report = t.span("sim.serve", "", |_| sim.run_serving(&loads, &replay));
        traced_s += before.elapsed().as_secs_f64();
        let hwm_after = measure::peak_rss_kb().unwrap_or(0);

        let (reference, secs) = timed(|| sim.run_serving(&loads, &setup.configs[0]));
        untraced_s += secs;
        reference_s.push(secs);
        let _ = t.span(PROBE, "", |_| probe.run_serving(&loads, &replay));
        let checked = report.map_err(|e| e.to_string()).and_then(|report| {
            check(&report, offered)?;
            if reference.as_ref().ok() != Some(&report) {
                return Err("replayed arrivals served differently from the synthetic spec".into());
            }
            Ok(report)
        });
        if let Some(report) = out.attempt("run_serving", checked) {
            if first.is_none() {
                let served = report.serving.as_ref().map_or(0, |s| s.requests);
                rss_kb_per_request =
                    hwm_after.saturating_sub(hwm_before) as f64 / served.max(1) as f64;
                first = Some(report);
            }
        }
    }

    let serve_ms = t.mean_ms("sim.serve", None);
    out.host("serve.arrivals.ms", t.mean_ms("serve.arrivals", None), "ms", "");
    out.host("sim.serve.ms", serve_ms, "ms", "");
    let replay_ms = serve_ms - t.mean_ms(PROBE, None);
    out.layer("dram.replay.ms", replay_ms, "ms");
    out.layer("serve.rss_kb_per_request", rss_kb_per_request, "KB");
    let served = first.as_ref().and_then(|r| r.serving.as_ref()).map_or(0, |s| s.requests);
    let us_per_request = measure::median(&reference_s) * 1e6 / served.max(1) as f64;
    if let Some(long_us) = out.attempt("long run_serving", long_call(&sim, &loads, setup)) {
        out.host("serve.host_us_per_request", us_per_request, "us", "untraced, median");
        let note = format!("{LONG_REQUESTS} requests, one untraced call");
        out.host("serve.host_us_per_request.long", long_us, "us", &note);
        out.layer("serve.growth_16k", long_us / us_per_request, "ratio");
    }
    if let Some(report) = &first {
        let serving = report.serving.as_ref().expect("checked above");
        let rounds = serving.rounds as f64;
        let per_round: usize = setup
            .schedule
            .chips
            .iter()
            .flat_map(|c| c.programs.iter().map(|p| p.total_instructions()))
            .sum();
        out.layer("sim.host_us_per_round", serve_ms * 1e3 / rounds, "us");
        out.host("serve.host_us_per_round", serve_ms * 1e3 / rounds, "us", "run_serving");
        out.layer(
            "sim.instructions_per_host_s",
            per_round as f64 * rounds / (serve_ms * 1e-3),
            "1/s",
        );
        out.layer_sim("serve.requests", serving.requests as f64, "count");
        out.layer_sim("serve.dropped", serving.dropped as f64, "count");
        out.layer_sim("serve.rounds", rounds, "count");
        out.layer_sim("serve.batch_mean", serving.requests as f64 / rounds, "req/round");
        out.layer_sim("serve.queue_ms.mean", serving.mean_queue_ns * 1e-6, "ms-sim");
        let links = report.links.as_deref().unwrap_or_default();
        let bytes: u64 = links.iter().map(|l| l.bytes).sum();
        let busy_ns: f64 = links.iter().map(|l| l.busy_ns).sum();
        let wait_ns: f64 = links.iter().map(|l| l.wait_ns).sum();
        let handoff_wait_ns: f64 =
            report.chips.as_deref().unwrap_or_default().iter().map(|c| c.handoff_wait_ns).sum();
        out.layer_sim("interconnect.bytes", bytes as f64, "bytes");
        out.layer_sim("interconnect.busy_ratio", busy_ns / report.makespan_ns, "ratio");
        out.layer_sim("interconnect.wait_ms", wait_ns * 1e-6, "ms-sim");
        out.layer_sim("chips.handoff_wait_ms", handoff_wait_ns * 1e-6, "ms-sim");
    }
    let replay_s = replay_ms * 1e-3 * t.durations("sim.serve", None).len() as f64;
    out.finish_layers(&t, "sim.serve", replay_s, traced_s, untraced_s);
}
