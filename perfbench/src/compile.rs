//! `compile-paper`: the paper's compile grid — vgg16, resnet18 and
//! squeezenet on Chip-S, Chip-M and Chip-L — compiled with
//! `Strategy::Compass` and `GaParams::paper()` at batch 8 (analytic
//! timing, barrier schedule). Each compiled plan is simulated once on
//! `ChipSimulator` with DRAM replay on for its quality metrics.
//!
//! The timed call is `Compiler::compile`; the GA dominates it, so a
//! change to the search loop shows here and almost nowhere else.
//!
//! Compile time and plan quality depend on the GA seed, so the grid is
//! swept repeatedly, each pass with a fresh seed derived from the run's
//! seed — except the second pass, which repeats the first's seed and
//! must reproduce its simulated plans bit for bit.

use crate::measure::{self, geomean, timed, Setups};
use crate::outcome::{Outcome, PROBE};
use crate::stage::{check_compiled, replay_compile, report_compiles, validity_map};
use crate::trace::Tracer;
use compass::{
    CompileOptions, Compiler, GaParams, ScheduleMode, Strategy, TimingMode, ValidityMap,
};
use pim_arch::ChipSpec;
use pim_model::{zoo, Network};
use pim_sim::{ChipSimulator, SimReport};
use std::time::Instant;

const BATCH: usize = 8;

/// GA seeds whose plans the simulated quality metrics cover. Every run
/// sweeps at least these (plus the repeat pass), so the metrics are the
/// same for the same run seed however fast the host is.
const QUALITY_SEEDS: usize = 8;

/// One grid point with what its output checks need.
struct Config {
    label: String,
    network: Network,
    chip: ChipSpec,
    validity: ValidityMap,
}

/// The GA seed of pass `pass` in a run seeded with `seed` (passes 0
/// and 1 share one).
fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(pass.saturating_sub(1) as u64)
}

fn options(seed: u64) -> CompileOptions {
    CompileOptions::new()
        .with_batch_size(BATCH)
        .with_strategy(Strategy::Compass)
        .with_ga(GaParams::paper())
        .with_seed(seed)
        .with_timing_mode(TimingMode::Analytic)
        .with_schedule_mode(ScheduleMode::Barrier)
}

fn simulator(chip: &ChipSpec, replay: bool) -> ChipSimulator {
    ChipSimulator::new(chip.clone())
        .with_timing_mode(TimingMode::Analytic)
        .with_schedule_mode(ScheduleMode::Barrier)
        .with_dram_replay(replay)
}

fn setup() -> Result<Vec<Config>, String> {
    let chips = [("S", ChipSpec::chip_s()), ("M", ChipSpec::chip_m()), ("L", ChipSpec::chip_l())];
    let mut grid = Vec::new();
    for (chip_name, chip) in chips {
        let networks = [
            ("vgg16", zoo::vgg16()),
            ("resnet18", zoo::resnet18()),
            ("squeezenet", zoo::squeezenet()),
        ];
        for (net_name, network) in networks {
            let validity = validity_map(&network, &chip);
            let label = format!("{net_name}/Chip-{chip_name}");
            grid.push(Config { label, network, chip: chip.clone(), validity });
        }
    }
    Ok(grid)
}

/// Simulated throughput (inf/s) and EDP per inference (µJ·ms = nJ·s)
/// of one plan simulation.
fn quality(report: &SimReport) -> (f64, f64) {
    (report.throughput_ips(), report.edp_per_inference())
}

/// Runs the workload: the untraced end-to-end loop, or the traced
/// stage-by-stage loop when `trace` is set.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (grid, mut setups) = Setups::first(seconds, setup)?;
    if trace {
        return Ok(traced(&grid, seed, seconds));
    }
    let mut out = Outcome::default();
    let mut compile_ms = Vec::new();
    // Units compiled per host second, one rate per grid pass.
    let mut pass_rates = Vec::new();
    // Simulated quality (inf/s, nJ·s) of the plans of the first
    // QUALITY_SEEDS seeds, and of each grid point's first-pass plan,
    // which the second pass must reproduce bit for bit.
    let mut plans = Vec::new();
    let mut first: Vec<(f64, f64)> = vec![(0.0, 0.0); grid.len()];
    let mut passes = 0;
    let start = Instant::now();
    while passes <= QUALITY_SEEDS || start.elapsed().as_secs_f64() < seconds {
        let pass = passes;
        passes += 1;
        let options = options(pass_seed(seed, pass));
        let (mut units, mut compile_s) = (0usize, 0.0);
        for (i, cfg) in grid.iter().enumerate() {
            setups.catch_up(setup)?;
            let compiler = Compiler::new(cfg.chip.clone());
            let (result, secs) = timed(|| compiler.compile(&cfg.network, &options));
            let result = result.map_err(|e| e.to_string()).and_then(|c| {
                check_compiled(&c, &cfg.validity)?;
                Ok(c)
            });
            let Some(compiled) = out.attempt(&cfg.label, result) else { continue };
            compile_ms.push(secs * 1e3);
            units += compiled.unit_count();
            compile_s += secs;

            let simulated = simulator(&cfg.chip, true)
                .run(compiled.programs(), BATCH)
                .map_err(|e| e.to_string())
                .and_then(|report| {
                    let q = quality(&report);
                    let bits = |q: (f64, f64)| (q.0.to_bits(), q.1.to_bits());
                    match pass {
                        0 => first[i] = q,
                        1 if bits(first[i]) != bits(q) => {
                            return Err("the same GA seed gave a different simulated plan".into())
                        }
                        _ => {}
                    }
                    Ok(q)
                });
            let label = format!("{} plan simulation", cfg.label);
            if let Some(q) = out.attempt(&label, simulated) {
                if pass != 1 && pass <= QUALITY_SEEDS {
                    plans.push(q);
                }
            }
        }
        if compile_s > 0.0 {
            pass_rates.push(units as f64 / compile_s);
        }
    }

    let sorted = measure::sorted(&compile_ms);
    let p50 = measure::percentile(&sorted, 0.5);
    let tail = measure::tail(&sorted);
    let units_per_s = measure::median(&pass_rates);
    let ips = geomean(&plans.iter().map(|q| q.0).collect::<Vec<_>>());
    let edp = geomean(&plans.iter().map(|q| q.1).collect::<Vec<_>>());

    out.host("compile_ms.p50", p50, "ms", &format!("n={}", tail.n));
    let tail_note = format!("p{} of n={}", tail.q * 100.0, tail.n);
    out.host("compile_ms.tail", tail.value, "ms", &tail_note);
    let note = "median over passes of units / compile time";
    out.host("compile_units_per_s", units_per_s, "units/s", note);
    out.sim("plan_sim_ips.geomean", ips, "inf/s");
    out.sim("plan_sim_edp.geomean", edp, "nJ.s");
    out.host("grid_passes", passes as f64, "count", "the second repeats the first's seed");
    out.set("call_ms.p50", p50);
    out.set("call_ms.tail", tail.value);
    out.set("host_throughput", units_per_s);
    out.set("sim_ips", ips);
    out.set("sim_edp", edp);
    out.finish_end_to_end(setups.finish(setup)?);
    Ok(out)
}

/// The traced run: each grid point is compiled by `Compiler::compile`
/// untimed by spans (the reference), then stage by stage under spans,
/// and the two must agree; the plan is simulated with DRAM replay on
/// (`sim.run`) and off (the probe).
fn traced(grid: &[Config], seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::default();
    let mut first_pass = Vec::new();
    let mut over_sim = Vec::new();
    let mut untraced_s = 0.0;
    let mut instructions = 0usize;
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let options = options(pass_seed(seed, passes));
        passes += 1;
        for cfg in grid {
            let compiler = Compiler::new(cfg.chip.clone());
            let (reference, secs) = timed(|| compiler.compile(&cfg.network, &options));
            untraced_s += secs;
            let staged = reference.map_err(|e| e.to_string()).and_then(|reference| {
                replay_compile(&mut t, &cfg.label, &cfg.network, &cfg.chip, &options, &reference)
            });
            let Some(staged) = out.attempt(&cfg.label, staged) else { continue };

            let sim = simulator(&cfg.chip, true);
            let (_, secs) = timed(|| sim.run(&staged.programs, BATCH));
            untraced_s += secs;
            let report = t.span("sim.run", &cfg.label, |_| sim.run(&staged.programs, BATCH));
            let _ = t.span(PROBE, &cfg.label, |_| {
                simulator(&cfg.chip, false).run(&staged.programs, BATCH)
            });
            let report = report.map_err(|e| e.to_string());
            let Some(report) = out.attempt(&format!("{} plan simulation", cfg.label), report)
            else {
                continue;
            };
            instructions += staged.programs.iter().map(|p| p.total_instructions()).sum::<usize>();
            if passes == 1 {
                over_sim.push(staged.estimate.throughput_ips() / report.throughput_ips());
                first_pass.push(staged);
            }
        }
    }

    report_compiles(&mut out, &t, &first_pass, GaParams::paper().population, &over_sim);
    out.host(
        "core.ga.ms",
        t.mean_ms("core.partition", None),
        "ms",
        "FitnessContext::new + ga::run",
    );
    let sim_ms = t.mean_ms("sim.run", None);
    let replay_ms = sim_ms - t.mean_ms(PROBE, None);
    let sim_s: f64 = t.durations("sim.run", None).iter().sum();
    out.layer("sim.run.ms", sim_ms, "ms");
    out.layer("sim.host_us_per_round", sim_ms * 1e3, "us");
    out.layer("sim.instructions_per_host_s", instructions as f64 / sim_s, "1/s");
    out.layer("dram.replay.ms", replay_ms, "ms");
    let replay_s = replay_ms * 1e-3 * t.durations("sim.run", None).len() as f64;
    let traced_s = t.root_total(&[PROBE]);
    out.finish_layers(&t, "sim.run", replay_s, traced_s, untraced_s);
    out
}
