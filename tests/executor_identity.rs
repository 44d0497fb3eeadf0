//! Property tests for the execution engine:
//!
//! * [`ExecMode::Parallel`] agrees with [`ExecMode::Sequential`] on output
//!   bytes, all work counters, and the returned error (cache statistics
//!   and simulated time additionally match whenever the profile has a
//!   single unit, where the chunk schedules coincide), across launch
//!   shapes including 0/1-instance and error-aborted launches;
//! * repeated parallel runs are deterministic;
//! * batched accounting is byte-identical to the per-access reference
//!   under both modes;
//! * the stream arena reaches a steady state: repeated sorts on one
//!   pooled processor stop allocating — the (type, capacity-class) bin
//!   count and pooled-buffer count do not grow, and every subsequent run
//!   is served from the pool.

use abisort::{GpuAbiSorter, SortConfig};
use proptest::prelude::*;
use stream_arch::{
    AccountingMode, Counters, ExecMode, GatherView, GpuProfile, Layout, ReadView, SimTime, Stream,
    StreamProcessor, WriteView,
};
use workloads::Distribution;

/// A launch shape: how many instances, over how many simulated units, and
/// whether the kernel is poisoned to fail at a given instance.
#[derive(Clone, Debug)]
struct Shape {
    instances: usize,
    units: usize,
    launches: usize,
    fail_at: Option<usize>,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        // Instance counts from the 0/1-instance degenerate shapes up to a
        // few thousand, around and well above the unit counts below.
        prop_oneof![
            3 => 0usize..200,
            1 => Just(0usize),
            1 => Just(1usize),
            1 => Just(16usize),
            1 => Just(17usize),
            2 => 257usize..2000,
            1 => Just(1024usize),
        ],
        prop_oneof![
            1 => Just(1usize),
            1 => Just(3usize),
            1 => Just(8usize),
            1 => Just(16usize),
        ],
        1usize..4,
        // A failure selector folded onto the instance range below (None =
        // clean launch).
        prop_oneof![
            3 => Just(None),
            2 => (0usize..1 << 16).prop_map(Some),
        ],
    )
        .prop_map(|(instances, units, launches, fail_pick)| Shape {
            instances,
            units,
            launches,
            fail_at: fail_pick.and_then(|p| (instances > 0).then(|| p % instances)),
        })
}

/// Outcome of running one shape under one execution mode: everything that
/// must be reproducible.
#[derive(Debug, PartialEq)]
struct Outcome {
    output: Vec<u32>,
    counters: Counters,
    sim_time: SimTime,
    errors: Vec<Option<String>>,
}

/// Run `shape.launches` launches of a kernel that reads, gathers and
/// writes — and, when poisoned, gathers out of bounds at `fail_at`.
fn run_shape(shape: &Shape, mode: ExecMode) -> Outcome {
    run_shape_accounted(shape, mode, AccountingMode::Batched)
}

/// [`run_shape`] under an explicit accounting mode.
fn run_shape_accounted(shape: &Shape, mode: ExecMode, accounting: AccountingMode) -> Outcome {
    let mut proc =
        StreamProcessor::with_mode(GpuProfile::geforce_6800().with_units(shape.units), mode);
    proc.set_accounting_mode(accounting);
    let n = shape.instances;
    let input = Stream::from_vec("in", (0..n as u32).collect(), Layout::ZOrder);
    let lookup = Stream::from_vec("lut", (0..n.max(1) as u32).rev().collect(), Layout::Linear);
    let mut out: Stream<u32> = Stream::new("out", n, Layout::ZOrder);
    let mut errors = Vec::new();
    for _ in 0..shape.launches {
        let read = ReadView::contiguous(&input, 0, n, 1).unwrap();
        let gather = GatherView::new(&lookup);
        let write = WriteView::contiguous(&mut out, 0, n, 1).unwrap();
        let fail_at = shape.fail_at;
        let lut_len = lookup.len();
        let result = proc.launch("shape", n, |ctx| {
            let i = ctx.instance_index();
            let v = read.get(ctx, 0);
            // A poisoned instance gathers past the end; everything else
            // does a legal data-dependent gather.
            let idx = if fail_at == Some(i) { lut_len + 7 } else { i };
            let g = gather.gather(ctx, idx);
            ctx.count_comparisons(1);
            write.set(ctx, 0, v.wrapping_mul(3).wrapping_add(g));
        });
        errors.push(result.err().map(|e| format!("{e:?}")));
        proc.record_step();
    }
    Outcome {
        output: out.as_slice().to_vec(),
        counters: proc.counters(),
        sim_time: proc.simulated_time(),
        errors,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel == sequential on everything the chunk schedule cannot
    /// change: output bytes, launches/steps, instances, comparisons, and
    /// the returned error (always the error of the smallest failing
    /// instance). On single-unit profiles the schedules coincide, so
    /// cache statistics and simulated time must match too.
    #[test]
    fn pooled_engine_matches_the_sequential_reference(shape in shape_strategy()) {
        let par = run_shape(&shape, ExecMode::Parallel);
        let seq = run_shape(&shape, ExecMode::Sequential);
        prop_assert_eq!(&par.errors, &seq.errors);
        prop_assert_eq!(par.counters.launches, seq.counters.launches);
        prop_assert_eq!(par.counters.steps, seq.counters.steps);
        prop_assert_eq!(par.counters.kernel_instances, seq.counters.kernel_instances);
        if shape.fail_at.is_none() {
            // Error-free launches execute every instance in both modes, so
            // the work counters and output coincide exactly. (An aborted
            // sequential launch stops at the failing instance while the
            // other parallel units still run their chunks.)
            prop_assert_eq!(&par.output, &seq.output);
            prop_assert_eq!(par.counters.comparisons, seq.counters.comparisons);
            prop_assert_eq!(par.counters.stream_reads, seq.counters.stream_reads);
            prop_assert_eq!(par.counters.stream_writes, seq.counters.stream_writes);
            prop_assert_eq!(par.counters.gathers, seq.counters.gathers);
        }
        if shape.units == 1 {
            prop_assert_eq!(&par.counters, &seq.counters);
            prop_assert_eq!(&par.sim_time, &seq.sim_time);
        }
    }

    /// The parallel mode is deterministic run to run.
    #[test]
    fn pooled_engine_is_deterministic(shape in shape_strategy()) {
        let first = run_shape(&shape, ExecMode::Parallel);
        let second = run_shape(&shape, ExecMode::Parallel);
        prop_assert_eq!(first, second);
    }

    /// Batched accounting == per-access accounting, byte for byte, under
    /// every execution mode: output bytes, all counters (including the
    /// per-unit cache statistics merged into them), simulated time and
    /// returned errors. This is the E21 identity assertion for the
    /// block-accumulation cost model, over shapes including 0/1-instance
    /// and error-aborted launches.
    #[test]
    fn batched_accounting_is_byte_identical_to_per_access(shape in shape_strategy()) {
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let batched = run_shape_accounted(&shape, mode, AccountingMode::Batched);
            let reference = run_shape_accounted(&shape, mode, AccountingMode::PerAccess);
            prop_assert_eq!(&batched.output, &reference.output);
            prop_assert_eq!(&batched.counters, &reference.counters);
            prop_assert_eq!(&batched.sim_time, &reference.sim_time);
            prop_assert_eq!(&batched.errors, &reference.errors);
        }
    }
}

/// Sort-level accounting identity: full GPU-ABiSort runs (which exercise
/// the bulk view accessors, the vectorized copy launch and the gather
/// paths) produce byte-identical records under both accounting modes,
/// across distributions and under arena reuse.
#[test]
fn batched_sort_runs_are_byte_identical_to_per_access_sort_runs() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut batched = StreamProcessor::new(GpuProfile::geforce_7800());
    batched.set_accounting_mode(AccountingMode::Batched);
    let mut reference = StreamProcessor::new(GpuProfile::geforce_7800());
    reference.set_accounting_mode(AccountingMode::PerAccess);
    for dist in [
        Distribution::Uniform,
        Distribution::Sorted,
        Distribution::FewDistinct { distinct: 4 },
    ] {
        for n in [257usize, 1000, 2048] {
            let input = workloads::generate(dist, n, 23);
            let a = sorter.sort_run(&mut batched, &input).unwrap();
            let b = sorter.sort_run(&mut reference, &input).unwrap();
            assert_eq!(a.output, b.output, "{} n={n}", dist.name());
            assert_eq!(a.counters, b.counters, "{} n={n}", dist.name());
            assert_eq!(
                a.sim_time.total_ms,
                b.sim_time.total_ms,
                "{} n={n}",
                dist.name()
            );
        }
    }
}

/// Arena steady state: after the first sort warmed the pool, repeated
/// sorts of the same size must not grow the (type, class) bin census and
/// must stop allocating (misses stay flat while hits grow).
#[test]
fn arena_reaches_steady_state_across_repeated_sorts() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    proc.arena().set_enabled(true);
    let input = workloads::uniform(1000, 3);

    // Warm-up: the first run allocates every class once.
    sorter.sort_run(&mut proc, &input).unwrap();
    let warm_classes = proc.arena_ref().class_count();
    let warm_buffers = proc.arena_ref().pooled_buffers();
    let warm_misses = proc.arena_ref().stats().misses;
    assert!(warm_classes > 0, "the sort must use the arena");
    assert!(warm_buffers > 0, "the run must recycle its streams");

    for round in 0..10 {
        let run = sorter.sort_run(&mut proc, &input).unwrap();
        assert_eq!(run.output.len(), input.len());
        assert_eq!(
            proc.arena_ref().class_count(),
            warm_classes,
            "allocation-class count grew in round {round}"
        );
        assert_eq!(
            proc.arena_ref().pooled_buffers(),
            warm_buffers,
            "pooled-buffer count grew in round {round}"
        );
        assert_eq!(
            proc.arena_ref().stats().misses,
            warm_misses,
            "round {round} had to allocate instead of reusing"
        );
    }
    let stats = proc.arena_ref().stats();
    assert!(stats.hits >= 10 * 7, "reuse hits: {stats:?}");

    // The arena's effect is wall-clock only: a pooling-off processor
    // produces the identical run record.
    let mut cold = StreamProcessor::new(GpuProfile::geforce_7800());
    cold.arena().set_enabled(false);
    let a = sorter.sort_run(&mut proc, &input).unwrap();
    let b = sorter.sort_run(&mut cold, &input).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.sim_time.total_ms, b.sim_time.total_ms);
}

/// The batched service path reuses arena buffers across batches on one
/// pooled processor, and stays byte-identical to the pooling-off run.
#[test]
fn segmented_batches_reuse_the_arena_across_submissions() {
    let sorter = GpuAbiSorter::new(SortConfig::default());
    let mut proc = StreamProcessor::new(GpuProfile::geforce_7800());
    proc.arena().set_enabled(true);
    let input = workloads::uniform(16 * 64, 9);

    sorter.sort_segments_run(&mut proc, &input, 64).unwrap();
    let warm_classes = proc.arena_ref().class_count();
    let warm_misses = proc.arena_ref().stats().misses;
    for _ in 0..5 {
        sorter.sort_segments_run(&mut proc, &input, 64).unwrap();
        assert_eq!(proc.arena_ref().class_count(), warm_classes);
        assert_eq!(proc.arena_ref().stats().misses, warm_misses);
    }
}
