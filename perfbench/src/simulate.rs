//! `simulate-closedloop`: resnet34 and vgg16 on Chip-S at batch 8,
//! compiled once during set-up with `Strategy::Greedy`, then
//! `SystemSimulator::run` called again and again on a single chip with
//! closed-loop DRAM timing, interleaved stage scheduling and 8 rounds.
//!
//! No GA runs, and greedy partitions keep the simulated program the
//! same whatever the search does: host time goes to the engine, the
//! stage task graph and the in-loop DRAM controllers.

use crate::measure::{self, geomean, timed, Setups};
use crate::outcome::{Outcome, PROBE};
use crate::stage::{check_compiled, replay_compile, report_compiles, validity_map};
use crate::trace::Tracer;
use compass::{CompileOptions, CompiledModel, Compiler, ScheduleMode, Strategy, TimingMode};
use pim_arch::{ChipSpec, Topology};
use pim_model::{zoo, Network};
use pim_sim::{ChipLoad, SimReport, SystemSimulator};
use std::time::Instant;

const BATCH: usize = 8;
const ROUNDS: usize = 8;

/// A network compiled during set-up.
struct Workload {
    name: &'static str,
    network: Network,
    compiled: CompiledModel,
}

fn options(seed: u64) -> CompileOptions {
    CompileOptions::new()
        .with_batch_size(BATCH)
        .with_strategy(Strategy::Greedy)
        .with_seed(seed)
        .with_timing_mode(TimingMode::ClosedLoop)
        .with_schedule_mode(ScheduleMode::Interleaved)
}

fn simulator(replay: bool) -> SystemSimulator {
    SystemSimulator::new(ChipSpec::chip_s(), Topology::single())
        .with_timing_mode(TimingMode::ClosedLoop)
        .with_schedule_mode(ScheduleMode::Interleaved)
        .with_dram_replay(replay)
}

fn setup(seed: u64) -> Result<Vec<Workload>, String> {
    let chip = ChipSpec::chip_s();
    let mut workloads = Vec::new();
    for (name, network) in [("resnet34", zoo::resnet34()), ("vgg16", zoo::vgg16())] {
        let compiled = Compiler::new(chip.clone())
            .compile(&network, &options(seed))
            .map_err(|e| format!("{name}: {e}"))?;
        workloads.push(Workload { name, network, compiled });
    }
    Ok(workloads)
}

fn run_once(sim: &SystemSimulator, w: &Workload) -> Result<SimReport, String> {
    sim.run(&[ChipLoad::new(w.compiled.programs())], ROUNDS, BATCH).map_err(|e| e.to_string())
}

/// Simulated inferences per second of a run.
fn sim_ips(report: &SimReport) -> f64 {
    (BATCH * ROUNDS) as f64 / (report.makespan_ns * 1e-9)
}

/// Simulated energy per inference (µJ) times time per round (ms), in
/// nJ·s.
fn sim_edp(report: &SimReport) -> f64 {
    report.energy.total_uj() / (BATCH * ROUNDS) as f64 * report.makespan_ns * 1e-6 / ROUNDS as f64
}

/// Runs the workload: the untraced end-to-end loop, or the traced loop
/// when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let build = || setup(seed);
    let (workloads, mut setups) = Setups::first(seconds, build)?;
    let mut out = Outcome::default();
    let chip = ChipSpec::chip_s();
    for w in &workloads {
        let checked = check_compiled(&w.compiled, &validity_map(&w.network, &chip));
        out.attempt(&format!("{} set-up compile", w.name), checked);
    }
    if trace {
        traced(&mut out, &workloads, seed, seconds);
        return Ok(out);
    }

    let sim = simulator(true);
    let mut call_ms: Vec<Vec<f64>> = vec![Vec::new(); workloads.len()];
    // The first run's serialized report per network; every later run on
    // the same loads must serialize byte-identical.
    let mut first: Vec<Option<(String, SimReport)>> = vec![None; workloads.len()];
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        for (i, w) in workloads.iter().enumerate() {
            setups.catch_up(build)?;
            let (result, secs) = timed(|| run_once(&sim, w));
            let checked = result.and_then(|report| {
                let bytes = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                match &first[i] {
                    None => first[i] = Some((bytes, report)),
                    Some((f, _)) if *f == bytes => {}
                    Some(_) => return Err("a repeated run serialized differently".into()),
                }
                Ok(())
            });
            if out.attempt(w.name, checked).is_some() {
                call_ms[i].push(secs * 1e3);
            }
        }
    }

    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    for (w, ms) in workloads.iter().zip(&call_ms) {
        let sorted = measure::sorted(ms);
        let tail = measure::tail(&sorted);
        let p50 = measure::percentile(&sorted, 0.5);
        out.host(format!("sim_ms.p50.{}", w.name), p50, "ms", &format!("n={}", tail.n));
        let note = format!("p{} of n={}", tail.q * 100.0, tail.n);
        out.host(format!("sim_ms.tail.{}", w.name), tail.value, "ms", &note);
        p50s.push(p50);
        tails.push(tail.value);
    }
    let reports: Vec<&SimReport> = first.iter().flatten().map(|(_, r)| r).collect();
    for (w, r) in workloads.iter().zip(&reports) {
        out.sim(format!("sim_makespan_ms.{}", w.name), r.makespan_ns * 1e-6, "ms-sim");
    }
    let p50 = geomean(&p50s);
    let tail = geomean(&tails);
    // A pass over both networks at their median call times.
    let instructions: usize = workloads.iter().map(|w| total_instructions(w) * ROUNDS).sum();
    let throughput = instructions as f64 / (p50s.iter().sum::<f64>() * 1e-3);
    let ips = geomean(&reports.iter().map(|r| sim_ips(r)).collect::<Vec<_>>());
    let edp = geomean(&reports.iter().map(|r| sim_edp(r)).collect::<Vec<_>>());
    out.host("sim_ms.p50", p50, "ms", "geomean over networks");
    out.host("sim_ms.tail", tail, "ms", "geomean over networks");
    let note = "instructions x rounds / sum of median call times";
    out.host("sim.instructions_per_host_s", throughput, "1/s", note);
    out.sim("sim_ips.geomean", ips, "inf/s");
    out.sim("sim_edp.geomean", edp, "nJ.s");
    out.set("call_ms.p50", p50);
    out.set("call_ms.tail", tail);
    out.set("host_throughput", throughput);
    out.set("sim_ips", ips);
    out.set("sim_edp", edp);
    out.finish_end_to_end(setups.finish(build)?);
    Ok(out)
}

fn total_instructions(w: &Workload) -> usize {
    w.compiled.programs().iter().map(|p| p.total_instructions()).sum()
}

/// The traced run: the set-up compiles again stage by stage (checked
/// against the set-up's `Compiler::compile`), then each network's run
/// timed without spans, under a `sim.run` span, and with DRAM replay
/// off (the probe; closed-loop timing ignores the switch, so it should
/// cost nothing).
fn traced(out: &mut Outcome, workloads: &[Workload], seed: u64, seconds: f64) {
    let mut t = Tracer::default();
    let chip = ChipSpec::chip_s();
    let mut staged_all = Vec::new();
    for w in workloads {
        let staged = replay_compile(&mut t, w.name, &w.network, &chip, &options(seed), &w.compiled);
        staged_all.extend(out.attempt(&format!("{} staged compile", w.name), staged));
    }

    let (sim, probe) = (simulator(true), simulator(false));
    let mut first: Vec<Option<SimReport>> = vec![None; workloads.len()];
    let (mut untraced_s, mut instructions) = (0.0, 0usize);
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        passes += 1;
        for (i, w) in workloads.iter().enumerate() {
            let (_, secs) = timed(|| run_once(&sim, w));
            untraced_s += secs;
            let report = t.span("sim.run", w.name, |_| run_once(&sim, w));
            let _ = t.span(PROBE, w.name, |_| run_once(&probe, w));
            if let Some(report) = out.attempt(w.name, report) {
                instructions += total_instructions(w) * ROUNDS;
                first[i].get_or_insert(report);
            }
        }
    }

    let reports: Vec<&SimReport> = first.iter().flatten().collect();
    let over_sim: Vec<f64> = staged_all
        .iter()
        .zip(&reports)
        .map(|(s, r)| s.estimate.throughput_ips() / sim_ips(r))
        .collect();
    report_compiles(out, &t, &staged_all, 0, &over_sim);
    for w in workloads {
        out.host(format!("sim.run.ms.{}", w.name), t.mean_ms("sim.run", Some(w.name)), "ms", "");
    }
    let sim_ms = t.mean_ms("sim.run", None);
    let sim_s: f64 = t.durations("sim.run", None).iter().sum();
    out.layer("sim.run.ms", sim_ms, "ms");
    out.layer("sim.host_us_per_round", sim_ms * 1e3 / ROUNDS as f64, "us");
    out.layer("sim.instructions_per_host_s", instructions as f64 / sim_s, "1/s");
    let replay_ms = sim_ms - t.mean_ms(PROBE, None);
    out.layer("dram.replay.ms", replay_ms, "ms");

    let channels: Vec<_> = reports.iter().flat_map(|r| r.dram_channels.iter().flatten()).collect();
    let requests: u64 = channels.iter().map(|c| c.requests).sum();
    // A request spans many bursts, so hits are counted per column
    // access (`ChannelStats::row_hit_rate`), not per request.
    let row_hits: u64 = channels.iter().map(|c| c.row_hits).sum();
    let accesses: u64 = channels.iter().map(|c| c.row_hits + c.activates).sum();
    let utilization: Vec<f64> = channels.iter().map(|c| c.utilization()).collect();
    out.layer_sim("dram.requests", requests as f64, "count");
    out.layer_sim("dram.row_hit_ratio", row_hits as f64 / accesses.max(1) as f64, "ratio");
    out.layer_sim("dram.utilization", measure::mean(&utilization), "ratio");

    // Closed-loop controllers are always on the critical path and the
    // replay switch is inert, so no DRAM time is split out of the runs.
    out.finish_layers(&t, "sim.run", 0.0, sim_s, untraced_s);
}
