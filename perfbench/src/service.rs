//! `service`: a closed loop of `SortService::process` (default
//! `ServiceConfig`, two device slots) over seeded 256-job slices of
//! `RequestMix::small_job_heavy`. One operation is one call. Admission,
//! fair queueing, coalescing, policy and assembly run on every call; most
//! jobs go to the CPU quicksort baseline and the rest coalesce into
//! segmented GPU launches.

use crate::stats::{self, ms_since, ratio, Outcome, PER_LAYER};
use crate::trace::{self, Tracer, OP};
use crate::Params;
use baselines::cpu::CpuSorter;
use sortsvc::{Engine, ServiceConfig, ServiceReport, SortJob, SortService};
use std::collections::HashMap;
use std::time::Instant;
use stream_arch::Value;
use workloads::RequestMix;

const JOBS_PER_CALL: usize = 256;
const SETUP_REPS: usize = 9;
/// Tail percentile (see METHOD.md).
const TAIL_Q: f64 = 0.95;
/// Traced calls whose CPU-routed jobs are replayed through `CpuSorter`.
const CPU_REPLAY_CALLS: u64 = 16;

/// Call `k`'s jobs and their std-sorted inputs (indexed by job id). Every
/// call gets a fresh slice: whether a call holds a GPU batch (the slow
/// calls) varies from slice to slice, so rotating a few fixed slices would
/// make throughput depend on the seed.
fn slice(seed: u64, k: u64) -> (Vec<SortJob>, Vec<Vec<Value>>) {
    let mix = RequestMix::small_job_heavy(JOBS_PER_CALL);
    let jobs = SortJob::from_requests(mix.generate(stats::derive_seed(seed, k)));
    let expected = jobs.iter().map(|j| stats::std_sorted(&j.values)).collect();
    (jobs, expected)
}

/// A calibrated service that has served one call.
fn warm(first: &[SortJob]) -> Result<SortService, String> {
    let service = SortService::new(ServiceConfig::default());
    service
        .process(first.to_vec())
        .map_err(|e| format!("warm-up process call failed: {e}"))?;
    Ok(service)
}

/// True when every job of the call completed with its exact sorted output.
fn call_ok(report: &ServiceReport, expected: &[Vec<Value>]) -> bool {
    report.rejected.is_empty()
        && report.results.len() == expected.len()
        && report.results.iter().all(|r| {
            expected
                .get(r.id as usize)
                .is_some_and(|want| stats::same_records(&r.output, want))
        })
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    // The warm-up slice is the same for every seed, so set-up time does not
    // depend on whether a seed's first slice holds a GPU batch.
    let (first, _) = slice(crate::DEFAULT_SEED, 0);
    let (service, setup_s) = stats::timed_setup(SETUP_REPS, |_| warm(&first));
    let service = service?;
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut sim_ms = Vec::new();
    let mut elements = 0u64;
    let untraced_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    stats::run_for(untraced_s, |i| {
        let (jobs, expected) = slice(p.seed, i + 1);
        let started = Instant::now();
        let report = service.process(jobs);
        let ms = ms_since(started);
        out.attempted += 1;
        match report {
            Ok(mut report) => {
                if p.corrupt && i == 0 {
                    report.results.pop();
                }
                if !call_ok(&report, &expected) {
                    out.failed += 1;
                }
                latencies.push(ms);
                sim_ms.push(report.metrics.makespan_ms);
                elements += report.metrics.elements_sorted;
            }
            Err(_) => out.failed += 1,
        }
    });
    if !p.trace {
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

    let mut tracer = Tracer::start();
    let mut layers = ServiceLayers::default();
    let first_traced = out.attempted + 1;
    stats::run_for(p.seconds / 2.0, |i| {
        let (jobs, expected) = slice(p.seed, first_traced + i);
        let inputs: HashMap<u64, Vec<Value>> = if i < CPU_REPLAY_CALLS {
            jobs.iter().map(|j| (j.id, j.values.clone())).collect()
        } else {
            HashMap::new()
        };
        let (report, ms) = {
            let _op = trace::span(OP, i);
            let _span = trace::span("sortsvc.service.process", i);
            let started = Instant::now();
            (service.process(jobs), ms_since(started))
        };
        tracer.collect(i);
        out.attempted += 1;
        match report {
            Ok(report) => {
                if !call_ok(&report, &expected) {
                    out.failed += 1;
                }
                layers.absorb(&report, ms);
                if i < CPU_REPLAY_CALLS {
                    layers.replay_cpu(&report, |id| &inputs[&id]);
                }
            }
            Err(_) => out.failed += 1,
        }
    });
    let overhead = ratio(
        stats::median(tracer.op_us()) / 1e3,
        stats::median(&latencies),
    );
    let mut measured = layers.metrics();
    measured.extend(launch_metrics(&tracer));
    measured.extend([
        (
            "loadgen.failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
        ),
        ("trace.overhead_ratio", overhead),
        ("trace.coverage_ratio", tracer.coverage_ratio()),
    ]);
    out.notes.push(tracer.finish("service", p.seed));
    out.metrics = stats::complete(&PER_LAYER, measured);
    Ok(out)
}

/// Host time per executor launch and per kernel instance, from the
/// `launch` spans the slot workers recorded.
pub fn launch_metrics(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    let launch = tracer.layer("stream_arch.launch");
    vec![
        ("stream_arch.host_us_per_launch", launch.mean_us()),
        (
            "stream_arch.host_ns_per_instance",
            ratio(launch.total_us * 1e3, launch.instances),
        ),
    ]
}

/// Service-layer totals over the traced `process` calls.
#[derive(Default)]
pub struct ServiceLayers {
    calls: u64,
    process_ms: f64,
    exec_ms: f64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    gpu_jobs: u64,
    batches: u64,
    occupied: f64,
    capacity: f64,
    cpu_us: Vec<f64>,
}

impl ServiceLayers {
    /// Fold in one call that took `process_ms` of host time.
    pub fn absorb(&mut self, report: &ServiceReport, process_ms: f64) {
        let m = &report.metrics;
        self.calls += 1;
        self.process_ms += process_ms;
        self.exec_ms += critical_exec_ms(report);
        self.submitted += m.jobs_submitted as u64;
        self.completed += m.jobs_completed as u64;
        self.rejected += m.jobs_rejected as u64;
        self.gpu_jobs += (m.gpu_jobs + m.sharded_jobs) as u64;
        self.batches += m.batches as u64;
        for b in &report.batches {
            self.occupied += b.occupancy * b.capacity as f64;
            self.capacity += b.capacity as f64;
        }
    }

    /// Re-sort every CPU-routed job of `report` through the CPU baseline
    /// directly, timing each (`input` maps a job id to its input records).
    pub fn replay_cpu<'a>(&mut self, report: &ServiceReport, input: impl Fn(u64) -> &'a [Value]) {
        for r in report
            .results
            .iter()
            .filter(|r| r.engine == Engine::CpuQuicksort)
        {
            let values = input(r.id);
            let started = Instant::now();
            std::hint::black_box(CpuSorter.sort(std::hint::black_box(values)));
            self.cpu_us.push(ms_since(started) * 1e3);
        }
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let calls = self.calls as f64;
        let process = ratio(self.process_ms, calls);
        let exec = ratio(self.exec_ms, calls);
        vec![
            ("sortsvc.service.process_host_ms", process),
            ("sortsvc.service.batch_exec_host_ms", exec),
            ("sortsvc.service.plan_assemble_host_ms", process - exec),
            (
                "sortsvc.batch.jobs_per_batch",
                ratio(self.completed as f64, self.batches as f64),
            ),
            (
                "sortsvc.batch.occupancy",
                ratio(self.occupied, self.capacity),
            ),
            (
                "sortsvc.policy.gpu_job_share",
                ratio(self.gpu_jobs as f64, self.completed as f64),
            ),
            (
                "sortsvc.queue.rejected_frac",
                ratio(self.rejected as f64, self.submitted as f64),
            ),
            (
                "baselines.cpu.sort_host_us_per_job",
                stats::mean(&self.cpu_us),
            ),
        ]
    }
}

/// Host time of a call's batch execution: slots run in parallel, so it is
/// the largest per-slot sum of batch wall times.
fn critical_exec_ms(report: &ServiceReport) -> f64 {
    let wall: HashMap<usize, f64> = report
        .results
        .iter()
        .map(|r| (r.batch, r.batch_wall_ms))
        .collect();
    let mut per_slot: HashMap<usize, f64> = HashMap::new();
    for b in &report.batches {
        *per_slot.entry(b.slot).or_default() += wall.get(&b.id).copied().unwrap_or(0.0);
    }
    per_slot.values().copied().fold(0.0, f64::max)
}
