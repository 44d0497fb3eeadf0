//! Sample statistics, the metric record every workload returns, and the
//! host facts (cores, RSS) a result is only meaningful next to.

use std::time::Instant;

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (a sort, a `process` call, a typed submission,
    /// a wire job).
    pub attempted: u64,
    /// Operations rejected, timed out, late or wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

/// Every end-to-end metric, in print order, with its unit. A `--trace 0`
/// run prints all of them (`BENCHMARK.json` names the same set).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("throughput_melem_s", "Melem/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sim_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("max_rate_ops_s", "1/s"),
];

/// Every per-layer metric with its unit. A `--trace 1` run prints all of
/// them; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("stream_arch.launches_per_op", "count"),
    ("stream_arch.steps_per_op", "count"),
    ("stream_arch.instances_per_op", "count"),
    ("stream_arch.comparisons_per_op", "count"),
    ("stream_arch.bytes_moved_per_op", "B"),
    ("stream_arch.cache_hit_ratio", "ratio"),
    ("stream_arch.host_us_per_launch", "us"),
    ("stream_arch.host_ns_per_instance", "ns"),
    ("stream_arch.parallel_over_sequential", "ratio"),
    ("abisort.sort_run_host_ms", "ms"),
    ("abisort.sort_run_self_host_ms", "ms"),
    ("abisort.cached_plans", "count"),
    ("sortsvc.service.process_host_ms", "ms"),
    ("sortsvc.service.batch_exec_host_ms", "ms"),
    ("sortsvc.service.plan_assemble_host_ms", "ms"),
    ("sortsvc.batch.jobs_per_batch", "count"),
    ("sortsvc.batch.occupancy", "ratio"),
    ("sortsvc.policy.gpu_job_share", "ratio"),
    ("sortsvc.queue.rejected_frac", "ratio"),
    ("baselines.cpu.sort_host_us_per_job", "us"),
    ("sortsvc.keys.encode_host_ns_per_key", "ns"),
    ("sortsvc.keys.decode_host_ns_per_key", "ns"),
    ("sortsvc.keys.distinct_ratio", "ratio"),
    ("sortsvc.net.ping_rtt_host_us", "us"),
    ("sortsvc.net.payload_codec_host_ns_per_byte", "ns"),
    ("sortsvc.net.frames_per_job", "count"),
    ("sortsvc.net.bytes_per_job", "B"),
    ("sortsvc.net.residency_host_ms", "ms"),
    ("sortsvc.net.jobs_per_micro_batch", "count"),
    ("sortsvc.wal.append_host_us_per_job", "us"),
    ("sortsvc.wal.sync_host_ms", "ms"),
    ("sortsvc.wal.bytes_per_job", "B"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.failed_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Lay `measured` out over the full `names` list in its order, with the
/// list's units; names a workload did not measure read 0.
pub fn complete(names: &[(&'static str, &'static str)], measured: Vec<(&str, f64)>) -> Vec<Metric> {
    for (name, _) in &measured {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's metric list"
        );
    }
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            unit,
        })
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Note line for a tail latency taken at percentile `q` (each workload
/// fixes its `q`, see METHOD.md), with the samples behind it and the
/// neighbouring percentiles.
pub fn describe_tail(xs: &[f64], q: f64) -> String {
    format!(
        "latency_tail_ms = {:.4} ms at p{} ({} samples, {:.0} beyond); \
         p90 {:.4}, p95 {:.4}, p99 {:.4}, p99.9 {:.4} ms",
        quantile(xs, q),
        q * 100.0,
        xs.len(),
        xs.len() as f64 * (1.0 - q),
        quantile(xs, 0.9),
        quantile(xs, 0.95),
        quantile(xs, 0.99),
        quantile(xs, 0.999),
    )
}

/// End-to-end metrics of a closed loop with one client. Throughput counts
/// only time spent inside the system (output checks excluded). The highest
/// rate a single closed-loop client sustains without a backlog is its
/// completion rate, so `max_rate_ops_s` equals `throughput_ops_s` here.
pub fn closed_loop_metrics(
    setup_s: f64,
    latencies_ms: &[f64],
    elements: u64,
    sim_ms: &[f64],
    tail_q: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let busy_s = latencies_ms.iter().sum::<f64>() / 1e3;
    let ops_s = ratio(latencies_ms.len() as f64, busy_s);
    notes.push(describe_tail(latencies_ms, tail_q));
    complete(
        &END_TO_END,
        vec![
            ("setup_s", setup_s),
            ("throughput_ops_s", ops_s),
            ("throughput_melem_s", ratio(elements as f64, busy_s) / 1e6),
            ("latency_p50_ms", median(latencies_ms)),
            ("latency_tail_ms", quantile(latencies_ms, tail_q)),
            ("sim_ms_per_op", mean(sim_ms)),
            ("peak_rss_mb", peak_rss_mb()),
            ("max_rate_ops_s", ops_s),
        ],
    )
}

/// Byte-for-byte equality of two record sequences (`Value` has a total
/// order, so a correct sort has exactly one answer).
pub fn same_records(got: &[stream_arch::Value], want: &[stream_arch::Value]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.key.to_bits() == w.key.to_bits() && g.id == w.id)
}

/// The std-sorted copy of `values`, the reference every output is checked
/// against.
pub fn std_sorted(values: &[stream_arch::Value]) -> Vec<stream_arch::Value> {
    let mut sorted = values.to_vec();
    sorted.sort();
    sorted
}

/// Run `op(i)` for i = 0, 1, … until `seconds` have passed.
pub fn run_for(seconds: f64, mut op: impl FnMut(u64)) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        op(i);
        i += 1;
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `build` `reps` times and keep the last result; the set-up time is
/// the median of the repetitions, so one slow repetition does not move it.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(build(rep));
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repetition"), median(&secs))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host CPUs this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// SplitMix64: derives independent per-input seeds from the run seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
