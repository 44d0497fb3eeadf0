//! `repro` — regenerate the paper's tables and figures on the simulator.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- [OPTIONS]
//!
//! OPTIONS:
//!   --all                 run every experiment (default if nothing else is given)
//!   --table 2|3           the timing tables (E8 / E9)
//!   --figures             the layout figures 4–7 (E4–E7) and Figure 1
//!   --experiment NAME     data-dependence | transfer | stream-ops | work |
//!                         scaling | ablation | pram | terasort | padding |
//!                         service | sharded | wallclock | netsoak |
//!                         crashsoak | typed
//!   --scenario NAME       alias of --experiment (e.g. --scenario service)
//!   --max-log-n K         cap the table sizes at 2^K (default 20; use 16
//!                         for a quick run)
//!   --dump-plan N         print the launch plan the sorter records for an
//!                         N-element sort (the operator DAG: stages, nodes,
//!                         named buffer reads/writes; see docs/PLANNER.md)
//!                         and exit
//!   --json PATH           additionally write all collected results as JSON
//!   --trace PATH          enable structured tracing for the whole run and
//!                         write the collected spans as Chrome trace_event
//!                         JSON to PATH (load in chrome://tracing or
//!                         https://ui.perfetto.dev; see
//!                         docs/OBSERVABILITY.md)
//!   --check-baseline PATH perf-regression gate: after running the
//!                         wallclock scenario, compare each row's speedup
//!                         against the committed BENCH_WALL.json at PATH
//!                         and exit non-zero if any row regressed beyond
//!                         the tolerance (run with the same flags the
//!                         baseline was produced with; enforced only when
//!                         the host matches the baseline's recorded core
//!                         count, advisory otherwise)
//!   --baseline-tolerance P allowed relative speedup loss for the gate,
//!                         in percent (default 25)
//! ```

use bench::extended::{render_padding, render_pram, render_terasort};
use bench::report::{
    render_ablation, render_data_dependence, render_scaling, render_stream_ops,
    render_timing_table, render_transfer, render_work,
};
use bench::{experiments, extended, Report};

/// The names `--experiment` / `--scenario` accept.
const EXPERIMENTS: [&str; 15] = [
    "data-dependence",
    "transfer",
    "stream-ops",
    "work",
    "scaling",
    "ablation",
    "pram",
    "terasort",
    "padding",
    "service",
    "sharded",
    "wallclock",
    "netsoak",
    "crashsoak",
    "typed",
];

#[derive(Debug)]
struct Options {
    all: bool,
    table2: bool,
    table3: bool,
    figures: bool,
    experiments: Vec<String>,
    max_log_n: u32,
    json: Option<String>,
    trace: Option<String>,
    check_baseline: Option<String>,
    baseline_tolerance: f64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        all: false,
        table2: false,
        table3: false,
        figures: false,
        experiments: Vec::new(),
        max_log_n: 20,
        json: None,
        trace: None,
        check_baseline: None,
        baseline_tolerance: 0.25,
    };
    let mut args = std::env::args().skip(1);
    let mut any = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => {
                opts.all = true;
                any = true;
            }
            "--table" => {
                match args.next().as_deref() {
                    Some("2") => opts.table2 = true,
                    Some("3") => opts.table3 = true,
                    other => {
                        eprintln!("unknown table {other:?} (expected 2 or 3)");
                        std::process::exit(2);
                    }
                }
                any = true;
            }
            "--figures" | "--figure" => {
                opts.figures = true;
                any = true;
            }
            "--experiment" | "--scenario" => {
                let name = args.next().unwrap_or_default();
                if !EXPERIMENTS.contains(&name.as_str()) {
                    eprintln!(
                        "unknown experiment {name:?} (expected one of: {})",
                        EXPERIMENTS.join(" | ")
                    );
                    std::process::exit(2);
                }
                opts.experiments.push(name);
                any = true;
            }
            "--max-log-n" => {
                opts.max_log_n = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-log-n requires an integer argument");
            }
            "--dump-plan" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--dump-plan requires an element count");
                let sorter = abisort::GpuAbiSorter::new(abisort::SortConfig::default());
                match sorter.describe_plan(n) {
                    Some(text) => print!("{text}"),
                    None => println!("no stream program runs for n={n} (already sorted)"),
                }
                std::process::exit(0);
            }
            "--json" => {
                opts.json = Some(args.next().expect("--json requires a path"));
            }
            "--trace" => {
                opts.trace = Some(args.next().expect("--trace requires a path"));
            }
            "--check-baseline" => {
                opts.check_baseline = Some(args.next().expect("--check-baseline requires a path"));
                // The gate compares wallclock rows, so make sure they run.
                if !opts.experiments.iter().any(|e| e == "wallclock") {
                    opts.experiments.push("wallclock".into());
                }
                any = true;
            }
            "--baseline-tolerance" => {
                let pct: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--baseline-tolerance requires a number (percent)");
                assert!(
                    (0.0..100.0).contains(&pct),
                    "--baseline-tolerance must be in [0, 100)"
                );
                opts.baseline_tolerance = pct / 100.0;
            }
            "--help" | "-h" => {
                println!("see the module documentation at the top of repro.rs");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        opts.all = true;
    }
    opts
}

fn print_figures() {
    use abisort::stream_sort::layout_plan::{figure_table_overlapped, figure_table_sequential};
    println!("Figure 4 — output stream layout, j = 4, n = 2^4");
    println!("{}", figure_table_sequential(4, 4).render());
    println!("Figure 5 — output stream layout, j = 4, n = 2^5 (two trees)");
    println!("{}", figure_table_sequential(4, 5).render());
    println!("Figure 6 — overlapped stages (Section 5.4), j = 4, n = 2^5");
    println!("{}", figure_table_overlapped(4, 5, 0).render());
    println!("Figure 7 — last 4 stages replaced by the fixed merge (Section 7.2), j = 6");
    println!("{}", figure_table_overlapped(6, 6, 4).render());
}

fn main() {
    let opts = parse_args();
    if opts.trace.is_some() {
        stream_arch::telemetry::TraceSink::global().set_enabled(true);
    }
    let mut report = Report {
        host: bench::HostInfo::detect(),
        ..Default::default()
    };
    let wants = |name: &str| opts.all || opts.experiments.iter().any(|e| e == name);

    if opts.all || opts.figures {
        print_figures();
    }

    if opts.all || opts.table2 {
        eprintln!(
            "running Table 2 (GeForce 6800 profile), n up to 2^{} …",
            opts.max_log_n
        );
        report.table2 = experiments::table2_geforce_6800(opts.max_log_n);
        println!(
            "{}",
            render_timing_table(
                "Table 2 — GeForce 6800 Ultra / Athlon-XP 3000+ (simulated)",
                &report.table2,
                true
            )
        );
        println!(
            "{}",
            bench::chart::timing_chart(
                "Table 2 companion chart (time in ms)",
                &report.table2,
                true
            )
        );
    }
    if opts.all || opts.table3 {
        eprintln!(
            "running Table 3 (GeForce 7800 profile), n up to 2^{} …",
            opts.max_log_n
        );
        report.table3 = experiments::table3_geforce_7800(opts.max_log_n);
        println!(
            "{}",
            render_timing_table(
                "Table 3 — GeForce 7800 GTX / Athlon-64 4200+ (simulated)",
                &report.table3,
                false
            )
        );
        println!(
            "{}",
            bench::chart::timing_chart(
                "Table 3 companion chart (time in ms)",
                &report.table3,
                false
            )
        );
    }
    if wants("data-dependence") {
        let n = 1 << opts.max_log_n.min(18);
        eprintln!("running data-dependence experiment (n = {n}) …");
        report.data_dependence = experiments::data_dependence(n);
        println!("{}", render_data_dependence(&report.data_dependence));
    }
    if wants("transfer") {
        eprintln!("running transfer-overhead experiment …");
        report.transfer = experiments::transfer_overhead(1 << 20);
        println!("{}", render_transfer(&report.transfer));
    }
    if wants("stream-ops") {
        let logs: Vec<u32> = (10..=opts.max_log_n.min(18)).step_by(2).collect();
        eprintln!("running stream-operation-count experiment …");
        report.stream_ops = experiments::stream_operation_counts(&logs);
        println!("{}", render_stream_ops(&report.stream_ops));
    }
    if wants("work") {
        let logs: Vec<u32> = (10..=opts.max_log_n.min(18)).step_by(2).collect();
        eprintln!("running work-complexity experiment …");
        report.work = experiments::work_complexity(&logs);
        println!("{}", render_work(&report.work));
    }
    if wants("scaling") {
        let n = 1 << opts.max_log_n.min(17);
        eprintln!("running p-scaling experiment (n = {n}) …");
        report.scaling = experiments::scaling_with_units(n, &[1, 2, 4, 8, 16, 24, 32, 64, 128]);
        println!("{}", render_scaling(&report.scaling, n));
    }
    if wants("ablation") {
        let n = 1 << opts.max_log_n.min(17);
        eprintln!("running ablation experiment (n = {n}) …");
        report.ablation = experiments::ablation(n);
        println!("{}", render_ablation(&report.ablation, n));
    }
    if wants("pram") {
        let logs: Vec<u32> = (10..=opts.max_log_n.min(16)).step_by(2).collect();
        eprintln!("running PRAM-sorter experiment …");
        report.pram = extended::pram_comparison(&logs);
        println!("{}", render_pram(&report.pram));
    }
    if wants("terasort") {
        let records = 1usize << opts.max_log_n.min(17);
        eprintln!("running out-of-core pipeline experiment ({records} records) …");
        report.terasort = extended::terasort_pipelines(records, records / 8);
        println!("{}", render_terasort(&report.terasort));
    }
    if wants("padding") {
        let log_n = opts.max_log_n.min(16);
        eprintln!("running padding-overhead experiment (base 2^{log_n}) …");
        report.padding = extended::padding_overhead(log_n);
        println!("{}", render_padding(&report.padding));
    }
    if wants("service") {
        let jobs = if opts.max_log_n >= 18 { 400 } else { 160 };
        eprintln!("running sorting-service scenario ({jobs} jobs) …");
        report.service = bench::service::service_scenario(jobs);
        println!("{}", bench::service::render_service(&report.service));
    }
    if wants("sharded") {
        if opts.max_log_n > 20 {
            eprintln!(
                "sharded scenario caps the job at 2^20 (requested 2^{})",
                opts.max_log_n
            );
        }
        let n = 1usize << opts.max_log_n.min(20);
        eprintln!("running sharded-scaling experiment E20 (n = {n}) …");
        report.sharded = bench::sharded::sharded_scaling(n);
        println!("{}", bench::sharded::render_sharded(&report.sharded));
        // The fairness half: multi-slot reservations interleaving with
        // small jobs (the preset's jobs are sharded-scale, so this part
        // only runs at release-grade sizes).
        if opts.max_log_n >= 17 {
            eprintln!("running sharded-reservation fairness mix …");
            report.sharded_service = vec![bench::sharded::sharded_mix_row(10)];
            println!(
                "{}",
                bench::service::render_service(&report.sharded_service)
            );
        }
    }

    if wants("wallclock") {
        eprintln!("running wall-clock engine comparison E21 (this times real host work) …");
        report.wallclock = bench::wallclock::matrix_sequential();
        println!("{}", bench::wallclock::render_wallclock(&report.wallclock));
    }

    if wants("netsoak") {
        let (clients, jobs_per_client) = if opts.max_log_n >= 18 {
            (8, 40)
        } else {
            (4, 12)
        };
        eprintln!(
            "running networked soak E22 ({clients} clients × {jobs_per_client} jobs over \
             loopback; this times real host work) …"
        );
        report.netsoak = vec![bench::netsoak::netsoak(clients, jobs_per_client)];
        println!("{}", bench::netsoak::render_netsoak(&report.netsoak));
    }

    if wants("crashsoak") {
        let (rounds, jobs_per_round, overhead_jobs) = if opts.max_log_n >= 18 {
            (6, 40, 200)
        } else {
            (3, 16, 60)
        };
        eprintln!(
            "running crash soak E23 ({rounds} induced crashes × {jobs_per_round} jobs through \
             the write-ahead log; this times real host work) …"
        );
        report.crashsoak = vec![bench::crashsoak::crash_soak(
            rounds,
            jobs_per_round,
            overhead_jobs,
        )];
        println!("{}", bench::crashsoak::render_crashsoak(&report.crashsoak));
    }

    if wants("typed") {
        eprintln!(
            "running typed-query scenario E24 (codec layer: sorts, top-k, order-by, \
             percentiles) …"
        );
        report.typed = bench::typed::typed_scenario(opts.max_log_n);
        println!("{}", bench::typed::render_typed(&report.typed));
    }

    if let Some(path) = &opts.json {
        std::fs::write(path, report.to_json()).expect("failed to write JSON report");
        eprintln!("wrote JSON report to {path}");
    }

    if let Some(path) = &opts.trace {
        let sink = stream_arch::telemetry::TraceSink::global();
        sink.set_enabled(false);
        let events = sink.take_events();
        let n = events.len();
        std::fs::write(path, stream_arch::telemetry::chrome_trace_json(&events))
            .expect("failed to write trace JSON");
        eprintln!(
            "wrote Chrome trace ({n} spans) to {path} — load in chrome://tracing or Perfetto"
        );
    }

    if let Some(path) = &opts.check_baseline {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("failed to read baseline {path}: {e}"));
        // Speedup bands are only meaningful on the machine class the
        // baseline was measured on. On a different host the gate
        // still runs and prints the comparison, but does not fail the
        // build — the absolute acceptance floors cover that case.
        let enforced = match bench::wallclock::baseline_host_cores(&baseline) {
            Some(cores) if cores == report.host.cores => true,
            Some(cores) => {
                eprintln!(
                    "perf-regression gate: baseline was measured on {cores} cores, this host \
                     has {} — reporting only, not enforcing (the acceptance-floor tests still \
                     gate; re-commit a baseline from this machine class to re-arm the gate)",
                    report.host.cores
                );
                false
            }
            None => {
                eprintln!(
                    "perf-regression gate: baseline has no host header — reporting only, not \
                     enforcing"
                );
                false
            }
        };
        match bench::wallclock::check_against_baseline(
            &report.wallclock,
            &baseline,
            opts.baseline_tolerance,
        ) {
            Ok(checks) => {
                println!(
                    "{}",
                    bench::wallclock::render_baseline_checks(&checks, opts.baseline_tolerance)
                );
                let regressed: Vec<_> = checks.iter().filter(|c| !c.ok).collect();
                if !regressed.is_empty() && enforced {
                    eprintln!(
                        "perf-regression gate FAILED: {} of {} rows regressed beyond {:.0}% \
                         versus {path}",
                        regressed.len(),
                        checks.len(),
                        opts.baseline_tolerance * 100.0
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "perf-regression gate {}: {} rows compared against {path} ({} regressed, \
                     tolerance {:.0}%)",
                    if enforced {
                        "passed"
                    } else {
                        "reported (advisory)"
                    },
                    checks.len(),
                    regressed.len(),
                    opts.baseline_tolerance * 100.0
                );
            }
            Err(e) => {
                eprintln!("perf-regression gate could not run: {e}");
                std::process::exit(1);
            }
        }
    }
}
