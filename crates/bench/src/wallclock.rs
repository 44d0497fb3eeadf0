//! E21 — the wall-clock harness for the cost-accounting engine.
//!
//! Everything else in this crate reports *simulated* time; this module
//! times the **host wall clock**, because the work batched accounting and
//! zero-fill elision save is invisible to the cost model by design —
//! results, counters and simulated times are byte-identical either way,
//! which the scenario re-asserts while it measures.
//!
//! * **matrix-sequential** — a service-shaped stream of many small sorts
//!   on one sequential processor: the reference cost model
//!   ([`AccountingMode::PerAccess`] with the default refill on every
//!   arena take) versus the batched accounting plus zero-fill elision.
//!   This is where the accounting acceptance claim lives (≥ 1.5× against
//!   the same-binary reference): the sequential path is dominated by
//!   per-access accounting, and the batched path charges whole
//!   cache-tile runs with one probe.
//!
//! `repro --scenario wallclock --json BENCH_WALL.json` emits the rows as
//! the `wallclock` section of the report — the perf-trajectory file the
//! CI regression gate (`repro --scenario wallclock --check-baseline`)
//! compares every future run against.

use abisort::{GpuAbiSorter, SortConfig};
use serde::Serialize;
use std::time::Instant;
use stream_arch::{AccountingMode, GpuProfile, StreamProcessor};

/// One wall-clock comparison row.
#[derive(Clone, Debug, Serialize)]
pub struct WallClockRow {
    /// Scenario id (`matrix-sequential`).
    pub scenario: String,
    /// Case label within the scenario (size, distribution, job count …).
    pub case: String,
    /// Elements processed by one measured run.
    pub elements: usize,
    /// Host wall-clock time of the baseline engine (ms).
    pub baseline_ms: f64,
    /// Host wall-clock time of the current engine (ms).
    pub current_ms: f64,
    /// `baseline_ms / current_ms`.
    pub speedup: f64,
    /// Simulated time of the measured work (identical under both engines;
    /// 0 where the scenario has no single simulated duration).
    pub sim_ms: f64,
}

fn row(
    scenario: &str,
    case: String,
    elements: usize,
    baseline_ms: f64,
    current_ms: f64,
    sim_ms: f64,
) -> WallClockRow {
    WallClockRow {
        scenario: scenario.into(),
        case,
        elements,
        baseline_ms,
        current_ms,
        speedup: if current_ms > 0.0 {
            baseline_ms / current_ms
        } else {
            0.0
        },
        sim_ms,
    }
}

/// Milliseconds of wall clock spent in `f`.
fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let started = Instant::now();
    let r = f();
    (started.elapsed().as_secs_f64() * 1e3, r)
}

/// The accounting matrix: many sequential sorts on one pooled processor —
/// the reference per-access cost model with the default arena refill
/// versus the batched accounting with zero-fill elision.
///
/// Every cell runs the identical job stream under both engines and
/// asserts byte-identical outputs, counters (including cache statistics)
/// and simulated times before reporting the wall-clock ratio; this is the
/// E21 live-identity check for the accounting tentpole.
pub fn matrix_sequential() -> Vec<WallClockRow> {
    matrix_sequential_cases(&[(256usize, 400usize), (1024, 200), (4096, 60), (16384, 20)])
}

/// [`matrix_sequential`] over explicit `(n, jobs)` cases (the debug smoke
/// tests run a tiny matrix; the identity assertions are the payload).
pub fn matrix_sequential_cases(cases: &[(usize, usize)]) -> Vec<WallClockRow> {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut rows = Vec::new();
    for &(n, jobs) in cases {
        let inputs: Vec<Vec<stream_arch::Value>> =
            (0..jobs).map(|j| workloads::uniform(n, j as u64)).collect();
        let run_all = |proc: &mut StreamProcessor| {
            let mut sim_ms = 0.0;
            let mut outputs = Vec::with_capacity(inputs.len());
            let mut counters = stream_arch::Counters::new();
            for input in &inputs {
                let run = sorter.sort_run(proc, input).expect("sort failed");
                sim_ms += run.sim_time.total_ms;
                counters += &run.counters;
                outputs.push(run.output);
            }
            (sim_ms, outputs, counters)
        };

        // One untimed pass per configuration: first-touch page faults on
        // the fresh inputs and the arena's initial allocations are
        // one-time costs; the service regime being measured is the steady
        // state. The two engines are then timed in interleaved
        // repetitions, so slow host-load drift hits both sides of the
        // ratio alike instead of whichever engine happened to run later.
        let mut batched = StreamProcessor::new(GpuProfile::geforce_7800());
        batched.set_accounting_mode(AccountingMode::Batched);
        batched.arena().set_enabled(true);
        batched.arena().set_elision(true);
        run_all(&mut batched);

        let mut reference = StreamProcessor::new(GpuProfile::geforce_7800());
        reference.set_accounting_mode(AccountingMode::PerAccess);
        reference.arena().set_enabled(true);
        reference.arena().set_elision(false);
        run_all(&mut reference);

        let mut current_ms = f64::INFINITY;
        let mut baseline_ms = f64::INFINITY;
        let mut on = None;
        let mut off = None;
        for _ in 0..5 {
            let (c, r_on) = time_ms(|| run_all(&mut batched));
            current_ms = current_ms.min(c);
            on = Some(r_on);
            let (b, r_off) = time_ms(|| run_all(&mut reference));
            baseline_ms = baseline_ms.min(b);
            off = Some(r_off);
        }
        let (sim_on, out_on, counters_on) = on.expect("at least one repetition");
        let (sim_off, out_off, counters_off) = off.expect("at least one repetition");

        // Live byte-identity: the engines must be indistinguishable in
        // everything but wall-clock time.
        assert_eq!(out_on, out_off, "batched accounting changed outputs");
        assert_eq!(
            counters_on, counters_off,
            "batched accounting changed counters"
        );
        assert_eq!(sim_on, sim_off, "batched accounting changed simulated time");
        rows.push(row(
            "matrix-sequential",
            format!("{jobs} sorts of n={n}"),
            n * jobs,
            baseline_ms,
            current_ms,
            sim_on,
        ));
    }
    rows
}

/// Geometric-mean speedup of the given rows (the acceptance aggregate of
/// the matrix scenarios).
pub fn geometric_mean_speedup(rows: &[WallClockRow]) -> f64 {
    let positive: Vec<f64> = rows
        .iter()
        .map(|r| r.speedup)
        .filter(|&s| s > 0.0)
        .collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|s| s.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// Render the wall-clock rows as a report table.
pub fn render_wallclock(rows: &[WallClockRow]) -> String {
    let mut out = String::from(
        "E21 — wall-clock: batched accounting + zero-fill elision vs the per-access reference\n",
    );
    out.push_str(&format!(
        "{:>18} | {:>26} | {:>13} | {:>12} | {:>8} | {:>10}\n",
        "scenario", "case", "baseline [ms]", "current [ms]", "speedup", "sim [ms]"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>18} | {:>26} | {:>13.1} | {:>12.1} | {:>7.2}x | {:>10.2}\n",
            r.scenario, r.case, r.baseline_ms, r.current_ms, r.speedup, r.sim_ms
        ));
    }
    let sequential: Vec<WallClockRow> = rows
        .iter()
        .filter(|r| r.scenario == "matrix-sequential")
        .cloned()
        .collect();
    if !sequential.is_empty() {
        out.push_str(&format!(
            "matrix-sequential geometric-mean speedup: {:.2}x (acceptance floor: 1.5x \
             same-binary)\n",
            geometric_mean_speedup(&sequential)
        ));
    }
    out
}

// --- The perf-regression gate ----------------------------------------------

/// One `(scenario, case)` comparison of the wall-clock regression gate.
#[derive(Clone, Debug, Serialize)]
pub struct BaselineCheck {
    /// Scenario id of the compared row.
    pub scenario: String,
    /// Case label of the compared row.
    pub case: String,
    /// Speedup recorded in the committed baseline.
    pub baseline_speedup: f64,
    /// Speedup measured by this run.
    pub current_speedup: f64,
    /// The lowest speedup this run may show before the gate fails
    /// (`baseline · (1 − tolerance)`).
    pub floor: f64,
    /// Whether this row passed.
    pub ok: bool,
}

/// The logical cores the committed baseline was measured on, from its
/// `host` header (absent in pre-header baselines).
///
/// Engine-vs-engine speedups are only band-comparable on the same host
/// class, so the gate's caller enforces the tolerance only when this matches the current
/// host and downgrades to an advisory report otherwise (the absolute
/// acceptance floors still gate unconditionally).
pub fn baseline_host_cores(baseline_json: &str) -> Option<usize> {
    let doc = serde_json::from_str(baseline_json).ok()?;
    let cores = doc.get("host")?.get("cores")?.as_f64()?;
    (cores > 0.0).then_some(cores as usize)
}

/// Compare freshly measured wall-clock rows against a committed
/// `BENCH_WALL.json` baseline: every baseline row must be present in the
/// current run (same scenario and case — run the gate with the flags the
/// baseline was produced with) and must not have lost more than
/// `tolerance` (a fraction, e.g. `0.25`) of its speedup.
///
/// Returns one [`BaselineCheck`] per baseline row, or an error when the
/// baseline cannot be parsed or a row disappeared. Wall-clock ratios are
/// noisy in absolute terms, but the *ratio of two engines measured in the
/// same process* is stable enough that a 25% band holds comfortably on
/// the baseline's machine class; see [`baseline_host_cores`] for the
/// host-class guard the caller applies.
pub fn check_against_baseline(
    current: &[WallClockRow],
    baseline_json: &str,
    tolerance: f64,
) -> Result<Vec<BaselineCheck>, String> {
    let doc = serde_json::from_str(baseline_json).map_err(|e| format!("bad baseline: {e}"))?;
    let rows = doc
        .get("wallclock")
        .and_then(|w| w.as_array())
        .ok_or_else(|| "baseline has no `wallclock` rows".to_string())?;
    if rows.is_empty() {
        return Err("baseline `wallclock` section is empty".to_string());
    }
    let mut checks = Vec::with_capacity(rows.len());
    for row in rows {
        let field = |name: &str| -> Result<&serde_json::Value, String> {
            row.get(name)
                .ok_or_else(|| format!("baseline row is missing `{name}`"))
        };
        let scenario = field("scenario")?
            .as_str()
            .ok_or("`scenario` is not a string")?
            .to_string();
        let case = field("case")?
            .as_str()
            .ok_or("`case` is not a string")?
            .to_string();
        let baseline_speedup = field("speedup")?
            .as_f64()
            .ok_or("`speedup` is not a number")?;
        let fresh = current
            .iter()
            .find(|r| r.scenario == scenario && r.case == case)
            .ok_or_else(|| {
                format!(
                    "baseline row `{scenario} / {case}` was not produced by this run \
                     (run the gate with the same flags the baseline used)"
                )
            })?;
        let floor = baseline_speedup * (1.0 - tolerance);
        checks.push(BaselineCheck {
            scenario,
            case,
            baseline_speedup,
            current_speedup: fresh.speedup,
            floor,
            ok: fresh.speedup >= floor,
        });
    }
    Ok(checks)
}

/// Render the gate's verdict as a report table.
pub fn render_baseline_checks(checks: &[BaselineCheck], tolerance: f64) -> String {
    let mut out = format!(
        "E21 regression gate — speedup vs committed baseline (tolerance {:.0}%)\n",
        tolerance * 100.0
    );
    out.push_str(&format!(
        "{:>18} | {:>26} | {:>8} | {:>8} | {:>8} | {}\n",
        "scenario", "case", "baseline", "current", "floor", "verdict"
    ));
    for c in checks {
        out.push_str(&format!(
            "{:>18} | {:>26} | {:>7.2}x | {:>7.2}x | {:>7.2}x | {}\n",
            c.scenario,
            c.case,
            c.baseline_speedup,
            c.current_speedup,
            c.floor,
            if c.ok { "ok" } else { "REGRESSED" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_sequential_rows_are_identity_checked_and_positive() {
        // Debug-mode smoke on a tiny matrix: the byte-identity assertions
        // (per-access + refill vs batched + elision) inside
        // matrix_sequential_cases are the real payload of this test.
        let rows = matrix_sequential_cases(&[(256, 6), (1024, 2)]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.baseline_ms > 0.0 && r.current_ms > 0.0);
            assert!(r.sim_ms > 0.0);
        }
    }

    #[test]
    fn geometric_mean_is_the_geometric_mean() {
        let rows = vec![
            super::row("s", "a".into(), 1, 8.0, 2.0, 0.0), // 4x
            super::row("s", "b".into(), 1, 1.0, 1.0, 0.0), // 1x
        ];
        assert!((geometric_mean_speedup(&rows) - 2.0).abs() < 1e-12);
    }

    /// A baseline document in the exact shape `repro --json` commits.
    fn baseline_doc(rows: &[WallClockRow]) -> String {
        let report = crate::Report {
            wallclock: rows.to_vec(),
            ..Default::default()
        };
        report.to_json()
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = vec![
            super::row("matrix-sequential", "a".into(), 1, 10.0, 2.5, 0.0), // 4x
            super::row("matrix-sequential", "b".into(), 1, 12.0, 1.0, 0.0), // 12x
        ];
        let doc = baseline_doc(&baseline);
        // Current run: first row dropped to 3.2x (within 25% of 4x),
        // second dropped to 8x (beyond 25% of 12x → floor 9x).
        let current = vec![
            super::row("matrix-sequential", "a".into(), 1, 8.0, 2.5, 0.0),
            super::row("matrix-sequential", "b".into(), 1, 8.0, 1.0, 0.0),
        ];
        let checks = check_against_baseline(&current, &doc, 0.25).unwrap();
        assert_eq!(checks.len(), 2);
        let a = checks.iter().find(|c| c.case == "a").unwrap();
        let b = checks.iter().find(|c| c.case == "b").unwrap();
        assert!(a.ok, "3.2x against a 3x floor must pass: {a:?}");
        assert!(!b.ok, "8x against a 9x floor must fail: {b:?}");
        assert!(render_baseline_checks(&checks, 0.25).contains("REGRESSED"));
    }

    #[test]
    fn baseline_host_cores_reads_the_header() {
        let with_host = crate::Report {
            host: crate::HostInfo {
                cores: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(baseline_host_cores(&with_host.to_json()), Some(4));
        // A zero/absent host header means "unknown class" (pre-header
        // baselines serialize cores: 0 via Default).
        let without = crate::Report::default();
        assert_eq!(baseline_host_cores(&without.to_json()), None);
        assert_eq!(baseline_host_cores("{}"), None);
        assert_eq!(baseline_host_cores("not json"), None);
    }

    #[test]
    fn gate_rejects_missing_rows_and_bad_baselines() {
        let baseline = vec![super::row(
            "matrix-sequential",
            "a".into(),
            1,
            10.0,
            2.5,
            0.0,
        )];
        let doc = baseline_doc(&baseline);
        // The row the baseline expects is absent from the current run.
        let err = check_against_baseline(&[], &doc, 0.25).unwrap_err();
        assert!(err.contains("was not produced"), "{err}");
        // Unparseable / shapeless baselines are errors, not passes.
        assert!(check_against_baseline(&[], "{not json", 0.25).is_err());
        assert!(check_against_baseline(&[], "{}", 0.25).is_err());
        let empty = baseline_doc(&[]);
        assert!(check_against_baseline(&[], &empty, 0.25).is_err());
    }
}
