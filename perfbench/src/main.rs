//! End-to-end and per-layer benchmark of the COMPASS pipeline
//! (`Compiler::compile` → `plan_system` → `ChipSimulator::run` /
//! `SystemSimulator::run` / `run_serving`).
//!
//! ```text
//! compass-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `compile-paper`, `simulate-closedloop`, `serve-ring2`
//! (see `README.md`). The load is closed loop: one caller makes the
//! next call only when the previous one returns, for `--seconds`
//! seconds (at least one full pass). `--seed` sets every GA and
//! traffic seed. With `--trace 0` the run measures the end-to-end
//! metrics; with `--trace 1` a separate traced run records spans
//! around each call into a layer's public functions, prints the
//! per-layer metrics and writes the spans to
//! `perfbench/out/trace-<workload>.json`.
//!
//! Every metric is printed as a `metric` line for people; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics named in `BENCHMARK.json`.

mod compile;
mod measure;
mod outcome;
mod serve;
mod simulate;
mod stage;
mod trace;

use outcome::{Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Checked command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "compile-paper" => compile::run(args.seed, args.seconds, args.trace),
        "simulate-closedloop" => simulate::run(args.seed, args.seconds, args.trace),
        "serve-ring2" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other} (compile-paper, simulate-closedloop, serve-ring2)"
        )),
    }
}

/// The final JSON line: every metric of `names` in order, a missing
/// one (a layer the workload does not exercise) as 0.
fn json_line(out: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.json.get(*name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    Ok(line)
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(workload: &str, spans: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, spans)?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &out.shown {
        let kind = if m.simulated { "sim" } else { "host" };
        println!("metric {:<34} {:>18.6} {:<10} {kind:<4} {}", m.name, m.value, m.unit, m.note);
    }
    if let Some(spans) = &out.spans {
        if let Err(e) = write_spans(&args.workload, spans) {
            eprintln!("error: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match json_line(&out, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
