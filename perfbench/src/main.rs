//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <engine|service|typed|wire> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test [--seconds S]
//! ```
//!
//! One run builds its inputs from the seed, sets up the workload several
//! times (the median is `setup_s`), measures for the given seconds, checks
//! every output against a std-sorted copy of its input, and prints one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer breakdown and
//! writes a Chrome trace under `perfbench/out/`. `METHOD.md` explains the
//! workloads and which metric each layer should move.

mod engine;
mod service;
mod stats;
mod trace;
mod typed;
mod wire;

use stats::{Metric, Outcome};
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2006;

/// Every workload, in the order the self-test runs them.
const WORKLOADS: [&str; 4] = ["engine", "service", "typed", "wire"];

/// Settings of one run, shared by every workload.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Deliberately corrupt one output before it is checked, to show that
    /// the check counts it (self-test only).
    pub corrupt: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <engine|service|typed|wire> [--seed N] [--seconds S] \
     [--trace 0|1] [--corrupt]\n       perfbench --self-test [--seconds S]"
        .into()
}

fn main() -> ExitCode {
    match parse_and_run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn parse_and_run(args: Vec<String>) -> Result<(), String> {
    let mut workload = None;
    let mut params = Params {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut self_test = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--corrupt" => params.corrupt = true,
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if self_test {
        return self_test_all(params.seconds.min(2.0));
    }
    let workload = workload.ok_or_else(usage)?;
    let outcome = match workload.as_str() {
        "engine" => engine::run(&params),
        "service" => service::run(&params),
        "typed" => typed::run(&params),
        "wire" => wire::run(&params),
        other => return Err(format!("unknown workload {other:?}\n{}", usage())),
    }?;
    report(&workload, &params, &outcome)
}

/// Print the host-class header, the notes, a readable metric table and the
/// JSON result line.
fn report(workload: &str, params: &Params, outcome: &Outcome) -> Result<(), String> {
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={}",
        params.seed, params.seconds, params.trace as u8
    );
    println!(
        "# host cores={} arch={} os={} rustc=\"{}\" profile={}",
        stats::host_cores(),
        std::env::consts::ARCH,
        std::env::consts::OS,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# failed_frac = {} ({} of {} operations)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("#   {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", bad.name, bad.value));
    }
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!("{}", result_json(outcome));
    Ok(())
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Smoke-run every workload in a process of its own and check the result
/// against `BENCHMARK.json`: every named metric printed, finite and in its
/// unit, no failures on this code, and a deliberately corrupted output
/// counted as failed.
fn self_test_all(seconds: f64) -> Result<(), String> {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = serde_json::from_str(&spec).map_err(|e| format!("{spec_path}: {e}"))?;
    let named = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(String::from);
                field("name")
                    .zip(field("unit").or_else(|| Some(String::new())))
                    .ok_or_else(|| format!("malformed entry in {key}"))
            })
            .collect()
    };
    let end_to_end = named("end_to_end")?;
    let per_layer = named("per_layer")?;
    let workloads = named("workloads")?;
    let mut failures = Vec::new();
    for (workload, _) in &workloads {
        if !WORKLOADS.contains(&workload.as_str()) {
            failures.push(format!("BENCHMARK.json names unknown workload {workload}"));
            continue;
        }
        for (trace, corrupt, expected) in [
            ("0", false, &end_to_end),
            ("1", false, &per_layer),
            ("0", true, &end_to_end),
        ] {
            let label = format!("{workload} trace={trace} corrupt={corrupt}");
            match smoke(workload, seconds, trace, corrupt) {
                Ok(result) => {
                    failures.extend(check_result(&label, &result, expected, corrupt));
                }
                Err(err) => failures.push(format!("{label}: {err}")),
            }
            println!("self-test: {label} done");
        }
    }
    if failures.is_empty() {
        println!("self-test: ok ({} workloads)", workloads.len());
        Ok(())
    } else {
        Err(format!("self-test failed:\n  {}", failures.join("\n  ")))
    }
}

/// One smoke run in a child process; returns its parsed result line.
fn smoke(
    workload: &str,
    seconds: f64,
    trace: &str,
    corrupt: bool,
) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &DEFAULT_SEED.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().map_err(|e| format!("spawn failed: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("printed nothing")?;
    serde_json::from_str(last).map_err(|e| format!("last line is not JSON: {e}"))
}

/// Problems with one smoke result.
fn check_result(
    label: &str,
    result: &serde_json::Value,
    expected: &[(String, String)],
    corrupt: bool,
) -> Vec<String> {
    let mut problems = Vec::new();
    let num = |k: &str| result.get(k).and_then(|v| v.as_f64());
    let (attempted, failed) = (
        num("attempted").unwrap_or(0.0),
        num("failed").unwrap_or(-1.0),
    );
    if attempted < 1.0 {
        problems.push(format!("{label}: attempted {attempted} < 1"));
    }
    let failed_frac = failed / attempted.max(1.0);
    if corrupt && failed_frac <= 0.0 {
        problems.push(format!(
            "{label}: corrupted output did not raise failed_frac"
        ));
    }
    if !corrupt && failed != 0.0 {
        problems.push(format!("{label}: {failed} operations failed"));
    }
    let correct = matches!(result.get("correct"), Some(serde_json::Value::Bool(true)));
    if correct == corrupt {
        problems.push(format!("{label}: correct is {correct}"));
    }
    for (name, unit) in expected {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(|v| v.as_f64());
        let got_unit = m.and_then(|m| m.get("unit")).and_then(|v| v.as_str());
        match (value, got_unit) {
            (Some(v), Some(u)) if v.is_finite() && u == unit && !u.is_empty() => {}
            _ => problems.push(format!(
                "{label}: metric {name} missing, not finite or not in {unit:?} ({value:?} {got_unit:?})"
            )),
        }
    }
    problems
}
