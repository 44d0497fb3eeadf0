//! Outside-in layer tracing for the `--trace 1` run.
//!
//! The benchmark opens one host span around every call it makes into a
//! layer, through the same `stream_arch::telemetry` sink that production
//! code records its `launch`, `submit-decode`, `micro-batch` and
//! `job-residency` spans into. Every benchmark span carries an `op`
//! argument naming the operation it belongs to; a closed-loop operation is
//! wrapped in a root span named `op`. Self time comes from nesting on each
//! thread: a span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::path::PathBuf;
use stream_arch::telemetry::{self, HostSpan, TraceEvent, TraceSink, HOST_PID};

/// Span category of the benchmark's own layer spans.
pub const CAT: &str = "perfbench";

/// Name of the root span wrapping one closed-loop operation.
pub const OP: &str = "op";

/// Operations whose spans are kept for the Chrome trace file; later ones
/// are only folded into the per-layer totals, which keeps memory bounded.
const KEEP_OPS: u64 = 8;

/// Open a benchmark span for one layer call of operation `op`.
pub fn span(name: &'static str, op: u64) -> Option<HostSpan> {
    telemetry::host_span(CAT, name).map(|s| s.arg("op", op as f64))
}

/// Host time attributed to one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
    /// Sum of the spans' `instances` argument (kernel instances of a
    /// launch span).
    pub instances: f64,
}

impl LayerTime {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_us, self.count as f64)
    }
}

/// Collects spans while the traced phase runs.
pub struct Tracer {
    kept: Vec<TraceEvent>,
    layers: BTreeMap<String, LayerTime>,
    coverage: Vec<f64>,
    op_us: Vec<f64>,
}

impl Tracer {
    /// Turn the process-wide sink on (discarding anything recorded before).
    pub fn start() -> Self {
        let sink = TraceSink::global();
        sink.set_enabled(true);
        drop(sink.take_events());
        Tracer {
            kept: Vec::new(),
            layers: BTreeMap::new(),
            coverage: Vec::new(),
            op_us: Vec::new(),
        }
    }

    /// Drain the sink and fold its spans into the totals. `op` is the
    /// operation the spans belong to; the first [`KEEP_OPS`] are kept for
    /// the trace file.
    pub fn collect(&mut self, op: u64) -> Vec<TraceEvent> {
        let events = TraceSink::global().take_events();
        let selfs = self_times(&events);
        for (ev, self_us) in events.iter().zip(&selfs) {
            if ev.pid != HOST_PID {
                continue;
            }
            let layer = self.layers.entry(layer_key(ev)).or_default();
            layer.count += 1;
            layer.total_us += ev.dur_us;
            layer.self_us += self_us;
            layer.instances += arg(ev, "instances").unwrap_or(0.0);
            if ev.cat == CAT && ev.name == OP && ev.dur_us > 0.0 {
                self.coverage.push(1.0 - self_us / ev.dur_us);
                self.op_us.push(ev.dur_us);
            }
        }
        if op < KEEP_OPS {
            self.kept.extend(events.iter().cloned());
        }
        events
    }

    /// Totals of one layer (`stream_arch.launch`, a benchmark span name, or
    /// a production span as `cat.name`).
    pub fn layer(&self, key: &str) -> LayerTime {
        self.layers.get(key).copied().unwrap_or_default()
    }

    /// Record the coverage of one operation computed by the caller (used
    /// where an operation's spans live on several threads).
    pub fn push_coverage(&mut self, coverage: f64) {
        self.coverage.push(coverage);
    }

    /// Mean share of an operation's time covered by layer spans.
    pub fn coverage_ratio(&self) -> f64 {
        crate::stats::mean(&self.coverage)
    }

    /// Durations (µs) of the `op` root spans.
    pub fn op_us(&self) -> &[f64] {
        &self.op_us
    }

    /// Turn the sink off and write the kept spans as Chrome trace JSON.
    /// Returns the note line naming the file.
    pub fn finish(self, workload: &str, seed: u64) -> String {
        let sink = TraceSink::global();
        sink.set_enabled(false);
        drop(sink.take_events());
        let dir = out_dir();
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, telemetry::chrome_trace_json(&self.kept)));
        match written {
            Ok(()) => format!("trace file {} ({} spans)", path.display(), self.kept.len()),
            Err(err) => format!("trace file {} not written: {err}", path.display()),
        }
    }
}

/// Scratch directory for trace files and write-ahead-log replays.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A numeric span argument.
pub fn arg(ev: &TraceEvent, key: &str) -> Option<f64> {
    ev.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// The layer a span is booked to: every executor launch is one layer;
/// benchmark spans by name; other production spans as `cat.name`.
fn layer_key(ev: &TraceEvent) -> String {
    match ev.cat {
        "launch" | "epoch" => "stream_arch.launch".into(),
        CAT => ev.name.clone(),
        cat => format!("{cat}.{}", ev.name),
    }
}

/// Self time of every span: its duration minus the time covered by its
/// direct children on the same thread.
fn self_times(events: &[TraceEvent]) -> Vec<f64> {
    let mut selfs: Vec<f64> = events.iter().map(|e| e.dur_us.max(0.0)).collect();
    let mut tracks: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        tracks.entry((ev.pid, ev.tid)).or_default().push(i);
    }
    for indices in tracks.values_mut() {
        // Parents first: earlier start, and at equal starts the longer span.
        indices.sort_by(|&a, &b| {
            events[a]
                .ts_us
                .total_cmp(&events[b].ts_us)
                .then(events[b].dur_us.total_cmp(&events[a].dur_us))
        });
        let mut open: Vec<(f64, usize)> = Vec::new();
        for &i in indices.iter() {
            let ev = &events[i];
            let end = ev.ts_us + ev.dur_us.max(0.0);
            while open
                .last()
                .is_some_and(|&(open_end, _)| open_end <= ev.ts_us)
            {
                open.pop();
            }
            if let Some(&(parent_end, parent)) = open.last() {
                selfs[parent] -= end.min(parent_end) - ev.ts_us;
            }
            open.push((end, i));
        }
    }
    selfs.iter().map(|s| s.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, ts_us: f64, dur_us: f64) -> TraceEvent {
        TraceEvent {
            pid: HOST_PID,
            tid,
            name: "x".into(),
            cat: CAT,
            ts_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ a [10,40) ⊃ b [20,30); c [50,60); other thread d.
        let events = vec![
            ev(1, 0.0, 100.0),
            ev(1, 10.0, 30.0),
            ev(1, 20.0, 10.0),
            ev(1, 50.0, 10.0),
            ev(2, 0.0, 100.0),
        ];
        assert_eq!(self_times(&events), vec![60.0, 20.0, 10.0, 10.0, 100.0]);
    }
}
