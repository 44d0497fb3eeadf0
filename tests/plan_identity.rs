//! Identity and snapshot properties of the launch-graph planner:
//!
//! * **Staged == eager, byte for byte.** Replaying a sorter's cached,
//!   stage-partitioned [`SortPlan`] ("staged") must be indistinguishable
//!   from a fresh sorter that records the plan as it runs ("eager") —
//!   output bytes, every counter (including per-unit cache statistics),
//!   and simulated time — under both execution modes × both accounting
//!   modes, for full sorts, segmented batch sorts, and block merges. Plan
//!   caching is a wall-clock-only optimization.
//! * **Plans are cached per problem shape**, and clones of a sorter share
//!   the cache.
//! * **The plan dump is pinned** against a committed golden snapshot
//!   (`tests/golden_plan_n64.txt`), so accidental changes to the recorded
//!   launch graph — stage boundaries, buffer refs, Table-1 blocks — show
//!   up as a reviewable diff.

use abisort::stream_sort::SortPlan;
use abisort::{GpuAbiSorter, SortConfig};
use stream_arch::{AccountingMode, Counters, ExecMode, GpuProfile, StreamProcessor, Value};
use workloads::Distribution;

fn processor(mode: ExecMode, accounting: AccountingMode) -> StreamProcessor {
    let mut proc = StreamProcessor::with_mode(GpuProfile::geforce_7800(), mode);
    proc.set_accounting_mode(accounting);
    proc
}

/// Blocks sorted in alternating directions: the `merge_blocks_run`
/// precondition.
fn alternating_blocks(n: usize, block: usize) -> Vec<Value> {
    let mut values = workloads::uniform(n, 5);
    for (i, chunk) in values.chunks_mut(block).enumerate() {
        if i % 2 == 0 {
            chunk.sort();
        } else {
            chunk.sort_by(|x, y| y.cmp(x));
        }
    }
    values
}

const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Parallel];
const ACCOUNTING: [AccountingMode; 2] = [AccountingMode::Batched, AccountingMode::PerAccess];

type RunRecord = (Vec<Value>, Counters, f64);

/// Runs `shape` once on `cached` to record its plan (if it runs one), then
/// returns `(staged, eager)`: a replay of that cached plan, and the first
/// run of a fresh sorter on a fresh processor, which records the plan as
/// it runs.
fn staged_and_eager(
    cached: &GpuAbiSorter,
    proc: &mut StreamProcessor,
    mode: ExecMode,
    accounting: AccountingMode,
    shape: impl Fn(&GpuAbiSorter, &mut StreamProcessor) -> RunRecord,
) -> (RunRecord, RunRecord) {
    shape(cached, proc);
    let plans = cached.cached_plans();
    let staged = shape(cached, proc);
    assert_eq!(cached.cached_plans(), plans, "a replay records nothing");
    let fresh = GpuAbiSorter::new(SortConfig::default());
    let eager = shape(&fresh, &mut processor(mode, accounting));
    (staged, eager)
}

/// Full sorts: a cached-plan replay must produce byte-identical run
/// records to a fresh recording under every engine combination, including
/// sizes below the Section 7 optimization cutoff and non-power-of-two
/// lengths.
#[test]
fn staged_sort_runs_are_byte_identical_to_eager_sort_runs() {
    for mode in MODES {
        for accounting in ACCOUNTING {
            let cached = GpuAbiSorter::new(SortConfig::default());
            let mut proc = processor(mode, accounting);
            for (n, dist) in [
                (8usize, Distribution::Uniform),
                (257, Distribution::Sorted),
                (2048, Distribution::FewDistinct { distinct: 4 }),
            ] {
                let input = workloads::generate(dist, n, 23);
                let (staged, eager) =
                    staged_and_eager(&cached, &mut proc, mode, accounting, |sorter, proc| {
                        let run = sorter.sort_run(proc, &input).unwrap();
                        (run.output, run.counters, run.sim_time.total_ms)
                    });
                let label = format!("{mode:?}/{accounting:?} {} n={n}", dist.name());
                assert_eq!(staged.0, eager.0, "output diverged: {label}");
                assert_eq!(staged.1, eager.1, "counters diverged: {label}");
                assert_eq!(staged.2, eager.2, "simulated time diverged: {label}");
            }
            assert!(cached.cached_plans() > 0, "the sorts must record plans");
        }
    }
}

/// Segmented batch sorts and block merges — the service paths — replayed
/// from the cache against a fresh recording, under every engine
/// combination.
#[test]
fn staged_segment_and_block_merge_runs_match_eager() {
    let segmented_input = workloads::uniform(16 * 64, 9);
    let merge_input = alternating_blocks(1024, 128);
    for mode in MODES {
        for accounting in ACCOUNTING {
            let cached = GpuAbiSorter::new(SortConfig::default());
            let mut proc = processor(mode, accounting);
            let label = format!("{mode:?}/{accounting:?}");

            let (staged, eager) =
                staged_and_eager(&cached, &mut proc, mode, accounting, |sorter, proc| {
                    let run = sorter
                        .sort_segments_run(proc, &segmented_input, 64)
                        .unwrap();
                    (run.output, run.counters, run.sim_time.total_ms)
                });
            assert_eq!(staged, eager, "segmented sort diverged: {label}");

            let (staged, eager) =
                staged_and_eager(&cached, &mut proc, mode, accounting, |sorter, proc| {
                    let run = sorter.merge_blocks_run(proc, &merge_input, 128).unwrap();
                    (run.output, run.counters, run.sim_time.total_ms)
                });
            assert_eq!(staged, eager, "block merge diverged: {label}");
            assert!(
                cached.cached_plans() > 0,
                "the service paths must record plans"
            );
        }
    }
}

/// Each problem shape is recorded once and replayed afterwards.
#[test]
fn plans_are_cached_per_shape() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    assert_eq!(sorter.cached_plans(), 0);
    let mut proc = processor(ExecMode::Sequential, AccountingMode::Batched);
    for _ in 0..3 {
        sorter
            .sort_run(&mut proc, &workloads::uniform(256, 2))
            .unwrap();
    }
    assert_eq!(sorter.cached_plans(), 1, "one shape, one cached plan");
    sorter
        .sort_run(&mut proc, &workloads::uniform(512, 3))
        .unwrap();
    assert_eq!(sorter.cached_plans(), 2, "a new shape records a new plan");
    // Non-power-of-two lengths pad onto an existing shape.
    sorter
        .sort_run(&mut proc, &workloads::uniform(300, 4))
        .unwrap();
    assert_eq!(sorter.cached_plans(), 2, "padded shapes share their plan");

    // Clones share the cache (the service hands one sorter to many slots).
    assert_eq!(sorter.clone().cached_plans(), 2);
}

/// The recorded plan for the default configuration at n = 64 is pinned
/// against the committed golden dump (regenerate with
/// `cargo run -p bench --bin repro -- --dump-plan 64`).
#[test]
fn plan_dump_matches_the_committed_golden_snapshot() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let dump = sorter
        .describe_plan(64)
        .expect("n=64 runs a stream program");
    let golden = include_str!("golden_plan_n64.txt");
    assert_eq!(
        dump, golden,
        "launch plan changed; review the diff and regenerate \
         tests/golden_plan_n64.txt with repro --dump-plan 64"
    );
}

/// The dump's own accounting is consistent: the header's node/stage totals
/// match the body, and the key round-trips through the public helpers.
#[test]
fn plan_dump_header_matches_its_body() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let key = sorter.sort_plan_key(4096).unwrap();
    let plan = SortPlan::record(key);
    assert_eq!(plan.key(), key);
    let text = plan.describe();
    assert!(text.contains(&format!(
        "{} nodes in {} stages, {} kernel instances",
        plan.num_nodes(),
        plan.num_stages(),
        plan.total_instances()
    )));
    let stage_lines = text.lines().filter(|l| l.starts_with("stage ")).count();
    assert_eq!(stage_lines, plan.num_stages());
    // No stream program for degenerate inputs.
    assert!(sorter.sort_plan_key(1).is_none());
    assert!(sorter.describe_plan(0).is_none());
}
