//! `wire`: an open loop over one loopback connection into a `SortServer`
//! with the durability tier on (default WAL: fsync on segment rotation).
//! Jobs come from `RequestMix::connection_driven`. The generator (this
//! thread) and the client's reader thread are the two client threads. A
//! fixed nominal rate runs first, timed from each job's scheduled send
//! time; then bursts offered faster than the server can drain them
//! measure the highest rate it sustains.

use crate::stats::{self, ms_since, ratio, Outcome, END_TO_END, PER_LAYER};
use crate::trace::{self, Tracer, CAT};
use crate::Params;
use sortsvc::net::frame::{PayloadEncoding, ResultPayload, SubmitPayload};
use sortsvc::net::{JobReply, JobTicket, HEADER_LEN, JOB_HEADER_LEN, RAW_RECORD_LEN};
use sortsvc::wal::{encode_event, AdmittedJob, Wal, WalConfig, WalEvent};
use sortsvc::{ServerConfig, ServerStats, SortClient, SortServer};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use stream_arch::telemetry;
use stream_arch::Value;
use workloads::RequestMix;

/// Distinct jobs cycled through; large enough that the share of jobs big
/// enough for the GPU engine (which sets p99) barely varies by seed.
const POOL_JOBS: usize = 2048;
/// Offered load of the fixed-rate phase (jobs/s). About 6% of
/// `connection_driven` jobs are large enough for the simulated GPU engine
/// (~20 ms of host time each) and the dispatcher runs micro-batches one at
/// a time; at this rate few jobs queue behind another's GPU sort, which
/// keeps p99 a property of the engine rather than of coincidences.
const NOMINAL_RATE: f64 = 100.0;
/// Share of the run spent at the nominal rate; the bursts follow.
const NOMINAL_SHARE: f64 = 0.65;
/// Passes of bursts over the pool; the first only warms the server.
const BURST_PASSES: usize = 3;
/// Jobs per capacity burst: sent back to back, kept below the server's
/// default `max_pending_jobs` (1024) so none is turned away. A pass of
/// bursts covers the pool exactly once: drain time is dominated by the few
/// GPU-sized jobs, so every seed must drain the same, whole pool.
const BURST_JOBS: usize = 512;
/// A reply later than this after its scheduled send counts as failed.
const LATE_MS: f64 = 1000.0;
/// How long a phase waits for outstanding replies after its last send.
const DRAIN: Duration = Duration::from_secs(5);
const SETUP_REPS: usize = 5;
/// Records in the set-up round trip's job.
const WARM_JOB_LEN: usize = 1024;
/// Tail percentile (see METHOD.md).
const TAIL_Q: f64 = 0.99;

/// The seeded jobs and their std-sorted answers.
struct Pool {
    jobs: Vec<Vec<Value>>,
    expected: Vec<Vec<Value>>,
    /// Next job to send.
    next: usize,
}

impl Pool {
    fn new(seed: u64) -> Self {
        let jobs: Vec<Vec<Value>> = RequestMix::connection_driven(POOL_JOBS)
            .generate(stats::derive_seed(seed, 0))
            .into_iter()
            .map(|r| r.values)
            .collect();
        let expected = jobs.iter().map(|v| stats::std_sorted(v)).collect();
        Pool {
            jobs,
            expected,
            next: 0,
        }
    }
}

/// A durable server and one warm client connection to it.
struct Setup {
    server: Option<SortServer>,
    client: Option<SortClient>,
    dir: PathBuf,
}

impl Setup {
    fn client(&mut self) -> &mut SortClient {
        self.client.as_mut().expect("client lives until teardown")
    }

    fn stats(&self) -> ServerStats {
        self.server
            .as_ref()
            .expect("server lives until teardown")
            .stats()
    }

    /// Close the connection, shut the server down (joining its threads,
    /// which flushes their spans) and remove the log directory.
    fn teardown(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Start a server on a fresh log directory, connect, and run one job
/// through decode, WAL, service and reply. The warm-up job is the same for
/// every seed: a seed's own jobs range from 64 to 16384 records, and a
/// GPU-sized one would triple the set-up time.
fn setup(rep: usize) -> Result<Setup, String> {
    let dir = trace::out_dir().join(format!("wal-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let config = ServerConfig::default().with_durability_dir(&dir);
    let server = SortServer::start("127.0.0.1:0", config).map_err(|e| format!("server: {e}"))?;
    let client = SortClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut s = Setup {
        server: Some(server),
        client: Some(client),
        dir,
    };
    let warm = workloads::uniform(WARM_JOB_LEN, crate::DEFAULT_SEED);
    let expected = stats::std_sorted(&warm);
    let ticket = s.client().submit(warm).map_err(|e| e.to_string())?;
    s.client().flush().map_err(|e| e.to_string())?;
    let reply = ticket
        .wait_timeout(Duration::from_secs(30))
        .map_err(|e| format!("warm-up job: {e}"))?;
    match reply.sorted() {
        Some(sorted) if stats::same_records(&sorted, &expected) => Ok(s),
        _ => Err("warm-up job came back wrong".into()),
    }
}

/// One job in flight.
struct Pending {
    ticket: JobTicket,
    job: usize,
    scheduled: Instant,
}

/// What one fixed-rate phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    failed: u64,
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    elements: u64,
    /// Wire bytes of all frames sent and received (computed from the
    /// frame layout).
    wire_bytes: u64,
    /// First send to last completion.
    span_s: f64,
    /// `(wire job id, latency ms)` of every completed job.
    completions: Vec<(u64, f64)>,
    /// Pool index of every job sent, in send order.
    sent_jobs: Vec<usize>,
}

impl Phase {
    fn completed(&self) -> f64 {
        self.latencies.len() as f64
    }

    fn rate(&self) -> f64 {
        ratio(self.completed(), self.span_s)
    }
}

/// Send jobs at `rate` for `seconds`, each at its scheduled instant, and
/// wait for every reply (up to [`DRAIN`] after the last send).
fn open_loop(
    s: &mut Setup,
    pool: &mut Pool,
    rate: f64,
    seconds: f64,
    late_fails: bool,
    corrupt: bool,
) -> Phase {
    let mut phase = Phase::default();
    let total = (rate * seconds).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let scheduled_at = |i: u64| start + interval.mul_f64(i as f64);
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    let mut last_done = start;
    let mut corrupt_next = corrupt;
    let mut finish = |phase: &mut Phase, p: Pending, reply: JobReply, pool: &Pool| {
        let now = Instant::now();
        last_done = now;
        let ms = now.duration_since(p.scheduled).as_secs_f64() * 1e3;
        let ok = match reply {
            JobReply::Sorted(mut values) => {
                if corrupt_next {
                    corrupt_next = false;
                    values.reverse();
                }
                stats::same_records(&values, &pool.expected[p.job])
            }
            JobReply::Rejected { .. } => false,
        };
        if !ok || (late_fails && ms > LATE_MS) {
            phase.failed += 1;
        }
        if ok {
            phase.latencies.push(ms);
            phase.completions.push((p.ticket.job_id(), ms));
            let len = pool.jobs[p.job].len();
            phase.elements += len as u64;
            phase.wire_bytes += 2 * (HEADER_LEN + JOB_HEADER_LEN + len * RAW_RECORD_LEN) as u64;
        }
    };
    let mut sent = 0u64;
    loop {
        let now = Instant::now();
        if sent < total && now >= scheduled_at(sent) {
            let scheduled = scheduled_at(sent);
            phase
                .lateness
                .push(now.duration_since(scheduled).as_secs_f64() * 1e3);
            let job = pool.next % POOL_JOBS;
            pool.next += 1;
            let values = pool.jobs[job].clone();
            let started = Instant::now();
            let client = s.client();
            let submitted = client
                .submit(values)
                .and_then(|t| client.flush().map(|()| t));
            sent += 1;
            match submitted {
                Ok(ticket) => {
                    telemetry::record_host_span(
                        CAT,
                        "sortsvc.net.submit",
                        started,
                        &[("op", ticket.job_id() as f64)],
                    );
                    phase.sent_jobs.push(job);
                    outstanding.push_back(Pending {
                        ticket,
                        job,
                        scheduled,
                    });
                }
                Err(_) => phase.failed += 1,
            }
            continue;
        }
        let drain_deadline = scheduled_at(total) + DRAIN;
        if sent == total && (outstanding.is_empty() || now >= drain_deadline) {
            break;
        }
        let wake = if sent < total {
            scheduled_at(sent)
        } else {
            drain_deadline
        };
        match outstanding.front() {
            Some(front) => match front
                .ticket
                .wait_timeout(wake.saturating_duration_since(now))
            {
                Ok(reply) => {
                    let p = outstanding.pop_front().expect("front exists");
                    finish(&mut phase, p, reply, pool);
                }
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break, // connection gone: the rest count as missing
            },
            None => std::thread::sleep(wake.saturating_duration_since(now)),
        }
        let mut still = VecDeque::with_capacity(outstanding.len());
        for p in outstanding.drain(..) {
            match p.ticket.poll() {
                Some(reply) => finish(&mut phase, p, reply, pool),
                None => still.push_back(p),
            }
        }
        outstanding = still;
    }
    phase.failed += outstanding.len() as u64;
    phase.sent = sent;
    phase.span_s = last_done.duration_since(start).as_secs_f64();
    phase
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut pool = Pool::new(p.seed);
    let (setup, setup_s) = stats::timed_setup(SETUP_REPS, setup);
    let mut s = setup?;
    let mut out = Outcome::default();
    let nominal_s = if p.trace {
        p.seconds / 2.0
    } else {
        p.seconds * NOMINAL_SHARE
    };
    let nominal = open_loop(&mut s, &mut pool, NOMINAL_RATE, nominal_s, true, p.corrupt);
    out.attempted += nominal.sent;
    out.failed += nominal.failed;
    if p.trace {
        return traced(p, s, pool, out, &nominal);
    }
    let sim_ms = s.stats().service.execution.mean_ms;

    // Capacity: bursts offered at once drain at the highest rate the
    // server sustains; any slower offered rate leaves no backlog. The first
    // pass over the pool warms the server's large-batch path (its first
    // bursts drain up to 40% slower) and is not counted.
    let burst_rate = BURST_JOBS as f64 * 1e3;
    let per_pass = POOL_JOBS / BURST_JOBS;
    let mut drain_rates = Vec::new();
    let (mut drained, mut drain_s) = (0.0, 0.0);
    for burst in 0..BURST_PASSES * per_pass {
        if burst % per_pass == 0 {
            pool.next = 0;
        }
        let phase = open_loop(&mut s, &mut pool, burst_rate, 1e-3, false, false);
        out.attempted += phase.sent;
        out.failed += phase.failed;
        drain_rates.push(phase.rate());
        if burst >= per_pass {
            drained += phase.completed();
            drain_s += phase.span_s;
        }
    }
    let max_rate = ratio(drained, drain_s);
    out.notes.push(format!(
        "capacity bursts of {BURST_JOBS} jobs drained at {:?} jobs/s (first pass uncounted)",
        drain_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    s.teardown();

    out.notes
        .push(stats::describe_tail(&nominal.latencies, TAIL_Q));
    out.notes.push(format!(
        "nominal phase: {NOMINAL_RATE} jobs/s offered, generator late p99 {:.3} ms",
        stats::quantile(&nominal.lateness, 0.99)
    ));
    out.metrics = stats::complete(
        &END_TO_END,
        vec![
            ("setup_s", setup_s),
            ("throughput_ops_s", nominal.rate()),
            (
                "throughput_melem_s",
                ratio(nominal.elements as f64, nominal.span_s) / 1e6,
            ),
            ("latency_p50_ms", stats::median(&nominal.latencies)),
            (
                "latency_tail_ms",
                stats::quantile(&nominal.latencies, TAIL_Q),
            ),
            ("sim_ms_per_op", sim_ms),
            ("peak_rss_mb", stats::peak_rss_mb()),
            ("max_rate_ops_s", max_rate),
        ],
    );
    Ok(out)
}

/// The traced half: the nominal rate again with the sink on, then probes
/// of the ping round trip, the payload codecs and the write-ahead log.
fn traced(
    p: &Params,
    mut s: Setup,
    mut pool: Pool,
    mut out: Outcome,
    untraced: &Phase,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::start();
    let before = s.stats();
    let phase = open_loop(
        &mut s,
        &mut pool,
        NOMINAL_RATE,
        p.seconds / 2.0,
        true,
        false,
    );
    let after = s.stats();
    out.attempted += phase.sent;
    out.failed += phase.failed;
    let ping_us = ping_rtt_us(&mut s)?;
    s.teardown();
    let events = tracer.collect(0);

    // Per-job coverage: the client's submit span plus the server's
    // residency span, over the job's scheduled-send-to-reply latency.
    let mut submit_us: HashMap<u64, f64> = HashMap::new();
    let mut residency_us: HashMap<u64, f64> = HashMap::new();
    for ev in &events {
        match (ev.cat, ev.name.as_str()) {
            (CAT, "sortsvc.net.submit") => {
                if let Some(op) = trace::arg(ev, "op") {
                    submit_us.insert(op as u64, ev.dur_us);
                }
            }
            ("wire", "job-residency") => {
                if let Some(job) = trace::arg(ev, "job") {
                    residency_us.insert(job as u64, ev.dur_us);
                }
            }
            _ => {}
        }
    }
    for (id, ms) in &phase.completions {
        if let (Some(sub), Some(res)) = (submit_us.get(id), residency_us.get(id)) {
            tracer.push_coverage(((sub + res) / 1e3 / ms).min(1.0));
        }
    }

    let jobs = (after.service.jobs_completed - before.service.jobs_completed) as f64;
    let frames =
        (after.frames_received + after.frames_sent) - (before.frames_received + before.frames_sent);
    let batches = (after.micro_batches - before.micro_batches) as f64;
    let (wal_us, sync_ms, wal_bytes) = wal_replay(&pool, &phase.sent_jobs)?;
    let overhead = ratio(
        stats::median(&phase.latencies),
        stats::median(&untraced.latencies),
    );
    let mut measured = crate::service::launch_metrics(&tracer);
    measured.extend([
        ("sortsvc.net.ping_rtt_host_us", ping_us),
        (
            "sortsvc.net.payload_codec_host_ns_per_byte",
            payload_codec_ns_per_byte(&pool),
        ),
        ("sortsvc.net.frames_per_job", ratio(frames as f64, jobs)),
        (
            "sortsvc.net.bytes_per_job",
            ratio(phase.wire_bytes as f64, phase.completed()),
        ),
        (
            "sortsvc.net.residency_host_ms",
            tracer.layer("wire.job-residency").mean_us() / 1e3,
        ),
        ("sortsvc.net.jobs_per_micro_batch", ratio(jobs, batches)),
        ("sortsvc.wal.append_host_us_per_job", wal_us),
        ("sortsvc.wal.sync_host_ms", sync_ms),
        ("sortsvc.wal.bytes_per_job", wal_bytes),
        (
            "loadgen.late_p99_ms",
            stats::quantile(&phase.lateness, 0.99),
        ),
        (
            "loadgen.failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
        ),
        ("trace.overhead_ratio", overhead),
        ("trace.coverage_ratio", tracer.coverage_ratio()),
    ]);
    out.notes.push(tracer.finish("wire", p.seed));
    out.notes.push(
        "sortsvc.net.bytes_per_job and sortsvc.wal.bytes_per_job are computed from the \
         frame and record layouts"
            .into(),
    );
    out.metrics = stats::complete(&PER_LAYER, measured);
    Ok(out)
}

/// Median `PING` → `PONG` round trip over the benchmark connection.
fn ping_rtt_us(s: &mut Setup) -> Result<f64, String> {
    const PINGS: usize = 50;
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let client = s.client();
        let before = client.pongs();
        let started = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        while client.pongs() == before {
            if started.elapsed() > Duration::from_secs(5) {
                return Err("no PONG within 5 s".into());
            }
            std::thread::yield_now();
        }
        rtts.push(ms_since(started) * 1e3);
    }
    Ok(stats::median(&rtts))
}

/// Host ns per payload byte to encode and decode one job's `SUBMIT` and
/// `RESULT` payloads with the frame codecs.
fn payload_codec_ns_per_byte(pool: &Pool) -> f64 {
    let (mut ns, mut bytes) = (0.0, 0usize);
    for (job, values) in pool.jobs.iter().enumerate().take(64) {
        let submit = SubmitPayload {
            job_id: job as u64,
            tenant: 0,
            encoding: PayloadEncoding::RawLe,
            values: values.clone(),
        };
        let result = ResultPayload {
            job_id: job as u64,
            encoding: PayloadEncoding::RawLe,
            values: values.clone(),
        };
        let started = Instant::now();
        let sub_bytes = submit.encode().expect("raw payloads always encode");
        let res_bytes = result.encode().expect("raw payloads always encode");
        let decoded = SubmitPayload::decode(std::hint::black_box(&sub_bytes))
            .and_then(|_| ResultPayload::decode(std::hint::black_box(&res_bytes)));
        ns += ms_since(started) * 1e6;
        assert!(decoded.is_ok(), "payload codec round trip failed");
        bytes += sub_bytes.len() + res_bytes.len();
    }
    ratio(ns, bytes as f64)
}

/// Replay the traced phase's jobs into a scratch log: admission plus
/// completion per job, then a few fsyncs, each after one more job.
/// Returns (µs per job, ms per sync, record bytes per job).
fn wal_replay(pool: &Pool, sent: &[usize]) -> Result<(f64, f64, f64), String> {
    let dir = trace::out_dir().join(format!("wal-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = |e: sortsvc::WalError| format!("wal replay: {e}");
    let mut wal = Wal::open(&dir, WalConfig::default()).map_err(err)?.wal;
    let record = |id: usize, job: usize| AdmittedJob {
        job_id: id as u64,
        tenant: 0,
        arrival_ms: id as f64,
        hint: None,
        values: pool.jobs[job].clone(),
    };
    let (mut append_us, mut bytes) = (Vec::new(), 0usize);
    for (id, &job) in sent.iter().enumerate() {
        let record = record(id, job);
        bytes += encode_event(&WalEvent::Completed {
            job_id: record.job_id,
        })
        .len();
        bytes += encode_event(&WalEvent::Admitted(record.clone())).len();
        let started = Instant::now();
        wal.append_admitted(&record).map_err(err)?;
        wal.append_completed(record.job_id).map_err(err)?;
        append_us.push(ms_since(started) * 1e3);
    }
    let mut sync_ms = Vec::new();
    for k in 0..5 {
        let record = record(sent.len() + k, k);
        wal.append_admitted(&record).map_err(err)?;
        wal.append_completed(record.job_id).map_err(err)?;
        let started = Instant::now();
        wal.sync().map_err(err)?;
        sync_ms.push(ms_since(started));
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        stats::mean(&append_us),
        stats::median(&sync_ms),
        ratio(bytes as f64, sent.len() as f64),
    ))
}
