//! The benchmark sets timing, schedule, topology and engine explicitly,
//! so the `PIM_*` variables the CI matrix sets must not move any
//! simulated metric.

use std::process::Command;

/// Variables the library's env-reading entry points understand, set to
/// non-default values.
const PIM_ENV: [(&str, &str); 4] = [
    ("PIM_TIMING_MODE", "closed-loop"),
    ("PIM_TOPOLOGY", "ring:4"),
    ("PIM_SHARDED", "1"),
    ("PIM_SCHEDULE_MODE", "interleaved"),
];

/// Runs one short untraced pass of `workload` and returns its simulated
/// metrics: the `sim` rows of the report plus the JSON line's `sim_*`
/// values, as printed.
fn simulated_metrics(workload: &str, env: &[(&str, &str)]) -> Vec<String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_compass-perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "0"]);
    for (key, _) in PIM_ENV {
        cmd.env_remove(key);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut metrics: Vec<String> = stdout
        .lines()
        .filter(|l| l.split_whitespace().nth(4) == Some("sim"))
        .map(str::to_string)
        .collect();
    let json = stdout.lines().last().expect("a result line");
    assert!(json.contains("\"correct\": true"), "{workload}: {json}");
    for key in ["\"sim_ips\"", "\"sim_edp\""] {
        let at = json.find(key).unwrap_or_else(|| panic!("{workload}: no {key} in {json}"));
        metrics.push(json[at..].split('}').next().expect("metric object").to_string());
    }
    assert!(metrics.len() > 2, "{workload}: no simulated rows in\n{stdout}");
    metrics
}

fn assert_env_invariant(workload: &str) {
    let clean = simulated_metrics(workload, &[]);
    let with_env = simulated_metrics(workload, &PIM_ENV);
    assert_eq!(clean, with_env, "{workload}: PIM_* variables changed simulated metrics");
}

#[test]
fn compile_paper_ignores_pim_env() {
    assert_env_invariant("compile-paper");
}

#[test]
fn simulate_closedloop_ignores_pim_env() {
    assert_env_invariant("simulate-closedloop");
}

#[test]
fn serve_ring2_ignores_pim_env() {
    assert_env_invariant("serve-ring2");
}
