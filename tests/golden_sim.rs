//! Golden snapshot of the reproduction's simulated outputs.
//!
//! A fixed corpus of sorts is run on the simulated GeForce 7800 under
//! both host execution modes, and everything the cost model produces is
//! rendered as JSON: an FNV-1a hash of each output, the full [`Counters`]
//! record including texture-cache statistics, and the [`SimTime`]
//! breakdown, plus every column of the paper's Tables 2 and 3 at the
//! smallest paper length. The text is compared byte for byte with the
//! committed `tests/golden_sim.json`.
//!
//! Host-side engine changes must leave the snapshot untouched; a
//! deliberate cost-model change regenerates it and says so. On a
//! mismatch the test writes what it produced to
//! `$CARGO_TARGET_TMPDIR/golden_sim.json` — review the diff and copy it
//! over the committed file to regenerate.

use abisort::{GpuAbiSorter, SortConfig};
use bench::experiments::{table2_geforce_6800, table3_geforce_7800, TimingRow};
use stream_arch::{Counters, ExecMode, GpuProfile, SimTime, StreamProcessor, Value};
use workloads::Distribution;

const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Parallel];
const SIZES: [usize; 4] = [16, 256, 1024, 4096];
const SEED: u64 = 2006;
/// Tables 2 and 3 start at n = 2^15; this caps them at their first row.
const TABLE_MAX_LOG_N: u32 = 15;

fn configs() -> [(&'static str, SortConfig); 2] {
    [
        ("default", SortConfig::default()),
        ("unoptimized", SortConfig::unoptimized()),
    ]
}

fn distributions() -> [Distribution; 4] {
    [
        Distribution::Uniform,
        Distribution::Reverse,
        Distribution::NearlySorted { swaps: 64 },
        Distribution::FewDistinct { distinct: 16 },
    ]
}

fn processor(mode: ExecMode) -> StreamProcessor {
    StreamProcessor::with_mode(GpuProfile::geforce_7800(), mode)
}

/// FNV-1a over every value's key bits and id (little-endian).
fn fnv(values: &[Value]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v
            .key
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(v.id.to_le_bytes())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"launches\": {}, \"steps\": {}, \"kernel_instances\": {}, \
         \"stream_reads\": {}, \"stream_writes\": {}, \"gathers\": {}, \
         \"iter_reads\": {}, \"comparisons\": {}, \"bytes_written\": {}, \
         \"bytes_read\": {}, \"cache\": {{\"accesses\": {}, \"hits\": {}, \
         \"misses\": {}, \"fill_bytes\": {}}}, \"transfer_bytes\": {}}}",
        c.launches,
        c.steps,
        c.kernel_instances,
        c.stream_reads,
        c.stream_writes,
        c.gathers,
        c.iter_reads,
        c.comparisons,
        c.bytes_written,
        c.bytes_read,
        c.cache.accesses,
        c.cache.hits,
        c.cache.misses,
        c.cache.fill_bytes,
        c.transfer_bytes
    )
}

/// `{:?}` prints the shortest decimal that parses back to the same `f64`,
/// so the text comparison is an exact comparison.
fn sim_time_json(t: &SimTime) -> String {
    let b = &t.breakdown;
    format!(
        "{{\"total_ms\": {:?}, \"op_overhead_ms\": {:?}, \"compute_ms\": {:?}, \
         \"memory_ms\": {:?}, \"transfer_ms\": {:?}}}",
        t.total_ms, b.op_overhead_ms, b.compute_ms, b.memory_ms, b.transfer_ms
    )
}

fn run_json(label: &str, output: &[Value], counters: &Counters, sim: &SimTime) -> String {
    format!(
        "{{{label}, \"len\": {}, \"output_fnv\": \"{}\", \"counters\": {}, \"sim_time\": {}}}",
        output.len(),
        fnv(output),
        counters_json(counters),
        sim_time_json(sim)
    )
}

fn table_json(rows: &[TimingRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "{{\"n\": {}, \"cpu_ms\": [{:?}, {:?}], \"gpusort_ms\": {:?}, \
                 \"abisort_rowwise_ms\": {}, \"abisort_zorder_ms\": {:?}}}",
                r.n,
                r.cpu_ms.0,
                r.cpu_ms.1,
                r.gpusort_ms,
                r.abisort_rowwise_ms
                    .map_or_else(|| "null".to_string(), |ms| format!("{ms:?}")),
                r.abisort_zorder_ms
            )
        })
        .collect()
}

fn sort_runs() -> Vec<String> {
    let mut records = Vec::new();
    for mode in MODES {
        for (config_name, config) in configs() {
            let sorter = GpuAbiSorter::new(config);
            let mut proc = processor(mode);
            for n in SIZES {
                for dist in distributions() {
                    let input = workloads::generate(dist, n, SEED);
                    let run = sorter.sort_run(&mut proc, &input).unwrap();
                    let label = format!(
                        "\"mode\": \"{mode:?}\", \"config\": \"{config_name}\", \"n\": {n}, \
                         \"distribution\": \"{}\"",
                        dist.name()
                    );
                    records.push(run_json(&label, &run.output, &run.counters, &run.sim_time));
                }
            }
        }
    }
    records
}

/// Blocks sorted in alternating directions: the `merge_blocks_run`
/// precondition.
fn alternating_blocks(n: usize, block: usize) -> Vec<Value> {
    let mut values = workloads::uniform(n, SEED);
    for (i, chunk) in values.chunks_mut(block).enumerate() {
        if i % 2 == 0 {
            chunk.sort();
        } else {
            chunk.sort_by(|x, y| y.cmp(x));
        }
    }
    values
}

fn service_shape_runs() -> Vec<(&'static str, Vec<String>)> {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let segmented_input = workloads::uniform(16 * 64, SEED);
    let top_k_input = workloads::uniform(4096, SEED);
    let merge_input = alternating_blocks(1024, 128);
    let (mut segments, mut top_k, mut merges) = (Vec::new(), Vec::new(), Vec::new());
    for mode in MODES {
        let mut proc = processor(mode);
        let run = sorter
            .sort_segments_run(&mut proc, &segmented_input, 64)
            .unwrap();
        let label = format!("\"mode\": \"{mode:?}\", \"n\": 1024, \"segment_len\": 64");
        segments.push(run_json(&label, &run.output, &run.counters, &run.sim_time));

        let run = sorter.top_k_run(&mut proc, &top_k_input, 10).unwrap();
        let label = format!("\"mode\": \"{mode:?}\", \"n\": 4096, \"k\": 10");
        top_k.push(run_json(&label, &run.output, &run.counters, &run.sim_time));

        let run = sorter
            .merge_blocks_run(&mut proc, &merge_input, 128)
            .unwrap();
        let label = format!("\"mode\": \"{mode:?}\", \"n\": 1024, \"block_len\": 128");
        merges.push(run_json(&label, &run.output, &run.counters, &run.sim_time));
    }
    vec![
        ("sort_segments_run", segments),
        ("top_k_run", top_k),
        ("merge_blocks_run", merges),
    ]
}

fn snapshot() -> String {
    let mut sections = vec![("sort_run", sort_runs())];
    sections.extend(service_shape_runs());
    sections.push((
        "table2_geforce_6800",
        table_json(&table2_geforce_6800(TABLE_MAX_LOG_N)),
    ));
    sections.push((
        "table3_geforce_7800",
        table_json(&table3_geforce_7800(TABLE_MAX_LOG_N)),
    ));
    let body: Vec<String> = sections
        .iter()
        .map(|(name, records)| format!("  \"{name}\": [\n    {}\n  ]", records.join(",\n    ")))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[test]
fn simulated_outputs_match_the_committed_golden_snapshot() {
    let actual = snapshot();
    let golden = include_str!("golden_sim.json");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_sim.json");
        std::fs::write(&path, &actual).unwrap();
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(
                || "a trailing line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "simulated outputs diverge from tests/golden_sim.json at {line}; \
             the regenerated snapshot is at {}",
            path.display()
        );
    }
}
