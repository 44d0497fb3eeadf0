//! `engine`: a closed loop of `GpuAbiSorter::sort_run` on one warm
//! Sequential `StreamProcessor` (GeForce 7800 profile, default
//! `SortConfig`) at n = 2^14. Every host microsecond is spent in `abisort`
//! and `stream_arch`; service, codecs, wire and WAL are bypassed.

use crate::stats::{self, ms_since, ratio, Outcome, PER_LAYER};
use crate::trace::{self, Tracer, OP};
use crate::Params;
use abisort::{GpuAbiSorter, SortConfig};
use std::time::Instant;
use stream_arch::{Counters, ExecMode, GpuProfile, StreamProcessor, Value};
use workloads::Distribution;

const N: usize = 1 << 14;
/// Inputs rotated through: two of each distribution.
const INPUTS: usize = 8;
const DISTRIBUTIONS: [Distribution; 4] = [
    Distribution::Uniform,
    Distribution::Reverse,
    Distribution::NearlySorted { swaps: 64 },
    Distribution::FewDistinct { distinct: 16 },
];
const SETUP_REPS: usize = 5;
/// Tail percentile (see METHOD.md).
const TAIL_Q: f64 = 0.99;

struct Setup {
    proc: StreamProcessor,
    sorter: GpuAbiSorter,
    inputs: Vec<Vec<Value>>,
    expected: Vec<Vec<Value>>,
}

/// A processor and sorter brought to the warm state the loop measures:
/// the first sort records the launch plan and fills the arena.
fn warm(first: &[Value]) -> Result<(StreamProcessor, GpuAbiSorter), String> {
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    let sorter = GpuAbiSorter::new(SortConfig::default());
    sorter
        .sort_run(&mut proc, first)
        .map_err(|e| format!("warm-up sort failed: {e}"))?;
    Ok((proc, sorter))
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let inputs: Vec<Vec<Value>> = (0..INPUTS)
        .map(|k| {
            workloads::generate(
                DISTRIBUTIONS[k % 4],
                N,
                stats::derive_seed(p.seed, k as u64),
            )
        })
        .collect();
    let expected = inputs.iter().map(|v| stats::std_sorted(v)).collect();
    let (warmed, setup_s) = stats::timed_setup(SETUP_REPS, |_| warm(&inputs[0]));
    let (proc, sorter) = warmed?;
    let mut s = Setup {
        proc,
        sorter,
        inputs,
        expected,
    };
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut sim_ms = Vec::new();
    let untraced_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    stats::run_for(untraced_s, |i| {
        let k = i as usize % INPUTS;
        let started = Instant::now();
        let run = s.sorter.sort_run(&mut s.proc, &s.inputs[k]);
        let ms = ms_since(started);
        out.attempted += 1;
        match run {
            Ok(mut run) => {
                if p.corrupt && i == 0 {
                    run.output.swap(0, N - 1);
                }
                if !stats::same_records(&run.output, &s.expected[k]) {
                    out.failed += 1;
                }
                latencies.push(ms);
                sim_ms.push(run.sim_time.total_ms);
            }
            Err(_) => out.failed += 1,
        }
    });
    if !p.trace {
        let elements = (latencies.len() * N) as u64;
        out.metrics = stats::closed_loop_metrics(
            setup_s,
            &latencies,
            elements,
            &sim_ms,
            TAIL_Q,
            &mut out.notes,
        );
        return Ok(out);
    }

    // Traced half: the same loop with a root span per sort and a layer span
    // around `sort_run`; the executor's own `launch` spans nest inside it.
    let mut tracer = Tracer::start();
    let mut counters = Counters::new();
    let mut ops = 0u64;
    stats::run_for(p.seconds / 2.0, |i| {
        let k = i as usize % INPUTS;
        let run = {
            let _op = trace::span(OP, i);
            let _span = trace::span("abisort.sort_run", i);
            s.sorter.sort_run(&mut s.proc, &s.inputs[k])
        };
        tracer.collect(i);
        out.attempted += 1;
        ops += 1;
        match run {
            Ok(run) => {
                if !stats::same_records(&run.output, &s.expected[k]) {
                    out.failed += 1;
                }
                counters += &run.counters;
            }
            Err(_) => out.failed += 1,
        }
    });
    let overhead = ratio(
        stats::median(tracer.op_us()) / 1e3,
        stats::median(&latencies),
    );
    let launch = tracer.layer("stream_arch.launch");
    let sort_run = tracer.layer("abisort.sort_run");
    let coverage = tracer.coverage_ratio();
    out.notes.push(tracer.finish("engine", p.seed));
    let per_op = |x: u64| ratio(x as f64, ops as f64);
    out.metrics = stats::complete(
        &PER_LAYER,
        vec![
            ("stream_arch.launches_per_op", per_op(counters.launches)),
            ("stream_arch.steps_per_op", per_op(counters.steps)),
            (
                "stream_arch.instances_per_op",
                per_op(counters.kernel_instances),
            ),
            (
                "stream_arch.comparisons_per_op",
                per_op(counters.comparisons),
            ),
            (
                "stream_arch.bytes_moved_per_op",
                per_op(counters.traffic_bytes()),
            ),
            ("stream_arch.cache_hit_ratio", counters.cache.hit_rate()),
            ("stream_arch.host_us_per_launch", launch.mean_us()),
            (
                "stream_arch.host_ns_per_instance",
                ratio(launch.total_us * 1e3, launch.instances),
            ),
            (
                "stream_arch.parallel_over_sequential",
                parallel_over_sequential(&mut s)?,
            ),
            ("abisort.sort_run_host_ms", sort_run.mean_us() / 1e3),
            (
                "abisort.sort_run_self_host_ms",
                ratio(sort_run.self_us, sort_run.count as f64) / 1e3,
            ),
            ("abisort.cached_plans", s.sorter.cached_plans() as f64),
            (
                "loadgen.failed_frac",
                ratio(out.failed as f64, out.attempted as f64),
            ),
            ("trace.overhead_ratio", overhead),
            ("trace.coverage_ratio", coverage),
        ],
    );
    out.notes.push(
        "stream_arch.bytes_moved_per_op is computed from the stream-memory counters \
         (block fills read + bytes written), not measured on hardware"
            .into(),
    );
    Ok(out)
}

/// Host time of the same inputs under `ExecMode::Parallel` over
/// `ExecMode::Sequential`: medians of interleaved, untraced sorts.
fn parallel_over_sequential(s: &mut Setup) -> Result<f64, String> {
    let mut parallel = StreamProcessor::with_mode(GpuProfile::geforce_7800(), ExecMode::Parallel);
    let failed = |e: stream_arch::StreamError| format!("parallel comparison sort failed: {e}");
    s.sorter
        .sort_run(&mut parallel, &s.inputs[0])
        .map_err(failed)?;
    let (mut par_ms, mut seq_ms) = (Vec::new(), Vec::new());
    for input in &s.inputs {
        par_ms.push(
            s.sorter
                .sort_run(&mut parallel, input)
                .map_err(failed)?
                .wall_time,
        );
        seq_ms.push(
            s.sorter
                .sort_run(&mut s.proc, input)
                .map_err(failed)?
                .wall_time,
        );
    }
    let ms = |d: Vec<std::time::Duration>| -> Vec<f64> {
        d.iter().map(|d| d.as_secs_f64() * 1e3).collect()
    };
    Ok(ratio(
        stats::median(&ms(par_ms)),
        stats::median(&ms(seq_ms)),
    ))
}
