//! `typed`: a closed loop of `TypedSortClient::submit_keys::<f64>` at
//! n = 4096, about half the keys distinct, with −0.0, ±∞ and NaN mixed in.
//! Codec encode, dedup and decode are about half of each call; each job
//! runs alone, below the CPU/GPU crossover, so the coalescer runs without
//! batching and the stream engine is bypassed.

use crate::service::{launch_metrics, ServiceLayers};
use crate::stats::{self, ms_since, ratio, Outcome, PER_LAYER};
use crate::trace::{self, Tracer, OP};
use crate::Params;
use sortsvc::{EncodedBatch, ServiceConfig, SortJob, TypedSortClient};
use std::time::Instant;

const N: usize = 4096;
/// Keys are drawn with replacement from a pool this large, which leaves
/// about half of the 4096 keys distinct.
const POOL: usize = 2560;
const KEYSETS: usize = 8;
const SPECIALS: [f64; 5] = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
const SETUP_REPS: usize = 9;
/// Tail percentile (see METHOD.md).
const TAIL_Q: f64 = 0.9;

/// One seeded key set: pool values in [-1e6, 1e6) plus every special.
fn keyset(seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut next = move || {
        state = stats::derive_seed(state, 0);
        state
    };
    let pool: Vec<f64> = SPECIALS
        .iter()
        .copied()
        .chain(
            (SPECIALS.len()..POOL).map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 2e6 - 1e6),
        )
        .collect();
    let mut keys: Vec<f64> = (0..N)
        .map(|_| pool[(next() % POOL as u64) as usize])
        .collect();
    for (j, &special) in SPECIALS.iter().enumerate() {
        keys[(next() as usize) % N] = special;
        keys[j] = special;
    }
    keys
}

fn bits(keys: &[f64]) -> Vec<u64> {
    keys.iter().map(|k| k.to_bits()).collect()
}

/// A client around a calibrated service that has served one submission.
fn warm(first: &[f64]) -> Result<TypedSortClient, String> {
    let client = TypedSortClient::new(ServiceConfig::default());
    client
        .submit_keys(first)
        .map_err(|e| format!("warm-up submission failed: {e}"))?;
    Ok(client)
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let keysets: Vec<Vec<f64>> = (0..KEYSETS)
        .map(|k| keyset(stats::derive_seed(p.seed, k as u64)))
        .collect();
    // Bit patterns of each key set sorted by `f64::total_cmp`.
    let expected: Vec<Vec<u64>> = keysets
        .iter()
        .map(|keys| {
            let mut sorted = keys.clone();
            sorted.sort_by(f64::total_cmp);
            bits(&sorted)
        })
        .collect();
    let (client, setup_s) = stats::timed_setup(SETUP_REPS, |_| warm(&keysets[0]));
    let client = client?;
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut sim_ms = Vec::new();
    let untraced_s = if p.trace { p.seconds / 2.0 } else { p.seconds };
    stats::run_for(untraced_s, |i| {
        let k = i as usize % KEYSETS;
        let started = Instant::now();
        let result = client.submit_keys(&keysets[k]);
        let ms = ms_since(started);
        out.attempted += 1;
        match result {
            Ok(mut result) => {
                if p.corrupt && i == 0 {
                    result.keys.swap(0, N - 1);
                }
                if bits(&result.keys) != expected[k] {
                    out.failed += 1;
                }
                latencies.push(ms);
                sim_ms.push(result.report.metrics.makespan_ms);
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

    // Traced half: `submit_keys` taken apart into its public steps, so the
    // codec and the service each get a span.
    let service = client.service();
    let mut tracer = Tracer::start();
    let mut layers = ServiceLayers::default();
    let (mut distinct, mut total) = (0usize, 0usize);
    stats::run_for(p.seconds / 2.0, |i| {
        let k = i as usize % KEYSETS;
        let keys = &keysets[k];
        let (decoded, report, process_ms) = {
            let _op = trace::span(OP, i);
            let mut batch = {
                let _span = trace::span("sortsvc.keys.encode", i);
                EncodedBatch::new(keys)
            };
            distinct += batch.distinct();
            total += batch.total();
            let job = SortJob::new(0, 0, batch.take_values());
            let (report, process_ms) = {
                let _span = trace::span("sortsvc.service.process", i);
                let started = Instant::now();
                (service.process(vec![job]), ms_since(started))
            };
            let decoded = report
                .as_ref()
                .ok()
                .and_then(|r| r.results.first())
                .map(|r| {
                    let _span = trace::span("sortsvc.keys.decode", i);
                    batch.decode_sorted(&r.output)
                });
            (decoded, report, process_ms)
        };
        tracer.collect(i);
        out.attempted += 1;
        match (decoded, report) {
            (Some(decoded), Ok(report)) => {
                if bits(&decoded) != expected[k] {
                    out.failed += 1;
                }
                layers.absorb(&report, process_ms);
                if (i as usize) < KEYSETS {
                    let values = EncodedBatch::new(keys).take_values();
                    layers.replay_cpu(&report, |_| &values);
                }
            }
            _ => out.failed += 1,
        }
    });
    let encode = tracer.layer("sortsvc.keys.encode");
    let decode = tracer.layer("sortsvc.keys.decode");
    let keys = ratio(total as f64, encode.count as f64);
    let overhead = ratio(
        stats::median(tracer.op_us()) / 1e3,
        stats::median(&latencies),
    );
    let mut measured = layers.metrics();
    measured.extend(launch_metrics(&tracer));
    measured.extend([
        (
            "sortsvc.keys.encode_host_ns_per_key",
            ratio(encode.mean_us() * 1e3, keys),
        ),
        (
            "sortsvc.keys.decode_host_ns_per_key",
            ratio(decode.mean_us() * 1e3, keys),
        ),
        (
            "sortsvc.keys.distinct_ratio",
            ratio(distinct as f64, total as f64),
        ),
        (
            "loadgen.failed_frac",
            ratio(out.failed as f64, out.attempted as f64),
        ),
        ("trace.overhead_ratio", overhead),
        ("trace.coverage_ratio", tracer.coverage_ratio()),
    ]);
    out.notes.push(tracer.finish("typed", p.seed));
    out.metrics = stats::complete(&PER_LAYER, measured);
    Ok(out)
}
