//! The stream processor: launches kernels over substreams and accounts for
//! their cost.
//!
//! A [`StreamProcessor`] owns
//!
//! * a [`GpuProfile`] (the hardware being simulated),
//! * one texture cache per processor unit,
//! * the accumulated [`Counters`],
//! * and a [`StreamArena`] recycling stream backing buffers across runs.
//!
//! [`StreamProcessor::launch`] executes one *stream operation*: it runs the
//! kernel closure once per instance, on the calling thread. The
//! [`ExecMode`] decides only how instances map onto the simulated units:
//! all on unit 0 ([`ExecMode::Sequential`]), or in contiguous chunks over
//! the profile's `p` units, each with its own texture cache
//! ([`ExecMode::Parallel`]). The units' chunks run one after another in
//! unit order, so counters, per-unit cache statistics and error selection
//! are a function of the unit→chunk assignment alone. The paper's `p` is a
//! property of the simulated machine and is charged in simulated time;
//! host threads would have to pay for themselves, and measured on 1- and
//! 2-core hosts they did not.
//!
//! The processor enforces the hardware restrictions of Sections 3.2, 6.1
//! and 7.1: maximum stream size, per-instance output budget, and (via
//! [`StreamProcessor::check_distinct_io`]) distinctness of input and output
//! streams.

use crate::arena::StreamArena;
use crate::cache::CacheSim;
use crate::error::{Result, StreamError};
use crate::kernel::{AccountingMode, KernelCtx};
use crate::metrics::{Counters, SimTime};
use crate::profile::GpuProfile;
use crate::stream::Stream;
use crate::telemetry;
use crate::value::StreamElement;

/// How the kernel instances of a launch map onto the simulated units.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// All instances run on unit 0, in instance order. The default:
    /// fully deterministic and easiest to debug.
    Sequential,
    /// Instances are distributed over the profile's `units` in contiguous
    /// chunks, one per unit, each unit charging its own texture cache.
    /// The chunks execute in unit order on the calling thread.
    Parallel,
}

/// The simulated stream processor.
pub struct StreamProcessor {
    profile: GpuProfile,
    mode: ExecMode,
    accounting: AccountingMode,
    caches: Vec<CacheSim>,
    counters: Counters,
    arena: StreamArena,
}

impl StreamProcessor {
    /// Create a processor for the given hardware profile
    /// ([`ExecMode::Sequential`], [`AccountingMode::Batched`]).
    pub fn new(profile: GpuProfile) -> Self {
        Self::with_mode(profile, ExecMode::Sequential)
    }

    /// Create a processor with an explicit execution mode.
    pub fn with_mode(profile: GpuProfile, mode: ExecMode) -> Self {
        let caches = (0..profile.units)
            .map(|_| CacheSim::new(profile.cache))
            .collect();
        StreamProcessor {
            profile,
            mode,
            accounting: AccountingMode::Batched,
            caches,
            counters: Counters::new(),
            arena: StreamArena::new(),
        }
    }

    /// The hardware profile being simulated.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Change the execution mode.
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// How kernel-side accesses are charged to the cost model (batched
    /// block accumulation by default; see [`AccountingMode`]).
    pub fn accounting_mode(&self) -> AccountingMode {
        self.accounting
    }

    /// Change the accounting mode. Counters, cache statistics and simulated
    /// times are byte-identical under both modes; only the host wall-clock
    /// cost of the accounting differs (E21 measures the difference).
    pub fn set_accounting_mode(&mut self, mode: AccountingMode) {
        self.accounting = mode;
    }

    /// The processor's buffer arena. Drivers allocate their intermediate
    /// streams from it and recycle them at the end of a run, so a service
    /// executing thousands of sorts on one pooled processor stops churning
    /// the allocator.
    pub fn arena(&mut self) -> &mut StreamArena {
        &mut self.arena
    }

    /// Read-only view of the buffer arena (for inspecting reuse
    /// statistics).
    pub fn arena_ref(&self) -> &StreamArena {
        &self.arena
    }

    /// Accumulated counters, with the per-unit cache statistics merged in.
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        let mut cache = crate::cache::CacheStats::default();
        for unit_cache in &self.caches {
            cache.merge(unit_cache.stats());
        }
        c.cache = cache;
        c
    }

    /// Reset all counters and cache contents.
    pub fn reset(&mut self) {
        self.counters = Counters::new();
        for cache in &mut self.caches {
            cache.reset();
        }
    }

    /// Return the accumulated counters (cache statistics merged in) and
    /// reset the processor in one step.
    ///
    /// This is the reuse hook for processor pooling: a service that keeps
    /// one processor per device slot takes the counters after every batch,
    /// so the next batch starts from a clean record and no metrics bleed
    /// between tenants or batches.
    pub fn take_counters(&mut self) -> Counters {
        let c = self.counters();
        self.reset();
        c
    }

    /// Simulated running time of everything executed since the last reset.
    pub fn simulated_time(&self) -> SimTime {
        self.profile.simulate(&self.counters())
    }

    /// Record that the launches issued since the previous step boundary
    /// together form one stream operation on hardware with multi-block
    /// substreams (Section 5.4). Algorithms that never call this get
    /// `steps == 0`, and the cost model falls back to counting launches.
    pub fn record_step(&mut self) {
        self.counters.steps += 1;
    }

    /// Charge a host↔device round-trip transfer of `bytes` bytes in each
    /// direction (Section 8).
    pub fn charge_transfer(&mut self, round_trip_bytes: u64) {
        self.counters.transfer_bytes += round_trip_bytes;
    }

    /// Validate that a stream of `len` elements of type `T` fits within the
    /// profile's 2D stream size limit (Section 3.2).
    pub fn check_stream_size<T: StreamElement>(&self, len: usize) -> Result<()> {
        let max = self.profile.max_stream_elements();
        if len > max {
            return Err(StreamError::StreamTooLarge {
                elements: len,
                max_elements: max,
            });
        }
        Ok(())
    }

    /// Validate that the input/gather stream ids and output stream ids of a
    /// stream operation are distinct, as required by the paper's GPUs
    /// (Section 6.1). Profiles with `distinct_io == false` (the idealized
    /// machine) skip the check.
    pub fn check_distinct_io(&self, inputs: &[(u64, &str)], outputs: &[(u64, &str)]) -> Result<()> {
        if !self.profile.distinct_io {
            return Ok(());
        }
        for &(in_id, in_name) in inputs {
            for &(out_id, _) in outputs {
                if in_id == out_id {
                    return Err(StreamError::InputOutputAliasing {
                        stream: in_name.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Validate that multi-block substreams are supported before using one
    /// (Section 5.4).
    pub fn check_multi_block(&self, num_blocks: usize) -> Result<()> {
        if num_blocks > 1 && !self.profile.multi_block_substreams {
            return Err(StreamError::MultiBlockUnsupported);
        }
        Ok(())
    }

    /// Execute a pure copy stream operation: `block.1 / per_instance`
    /// kernel instances each forward `per_instance` elements of
    /// `block` from `src` to the same positions of `dst`.
    ///
    /// This is the shape of GPU-ABiSort's copy-back (Section 6.1), which
    /// follows every phase and carries roughly half of all simulated
    /// traffic. Under [`AccountingMode::Batched`] the whole operation is
    /// vectorized: every unit's chunk is charged as one block (reads,
    /// writes, cache-tile runs — byte-identical to the per-element kernel,
    /// including the per-unit cache assignment of [`ExecMode::Parallel`])
    /// and the data moves in one `memcpy`. Under
    /// [`AccountingMode::PerAccess`] it runs as a regular per-element
    /// kernel launch — the reference engine.
    pub fn launch_copy<T: StreamElement>(
        &mut self,
        name: &str,
        src: &Stream<T>,
        dst: &mut Stream<T>,
        block: (usize, usize),
        per_instance: usize,
    ) -> Result<()> {
        // Hard preconditions (a release-build caller passing an uneven
        // block would otherwise get a silently truncated copy).
        assert!(
            per_instance > 0 && block.1.is_multiple_of(per_instance),
            "copy block length must be a multiple of per_instance"
        );
        let blocks = crate::stream::BlockSet::contiguous(block.0, block.1);
        let instances = block.1 / per_instance;

        if self.accounting != AccountingMode::Batched {
            let read = crate::kernel::ReadView::new(src, blocks.clone(), per_instance)?;
            let write = crate::kernel::WriteView::new(dst, blocks, per_instance)?;
            return self.launch(name, instances, |ctx| {
                for slot in 0..per_instance {
                    let v = read.get(ctx, slot);
                    write.set(ctx, slot, v);
                }
            });
        }

        src.check_blocks(&blocks)?;
        dst.check_blocks(&blocks)?;
        self.counters.launches += 1;
        self.counters.kernel_instances += instances as u64;
        if instances == 0 {
            return Ok(());
        }
        // The per-instance output budget check of the per-element engine,
        // which aborts after the first instance exceeded it (with that
        // instance's charges recorded).
        let max_output_bytes = self.profile.max_kernel_output_bytes;
        let budget_error = per_instance * T::BYTES > max_output_bytes;

        // Per-unit chunking identical to `launch`, so the per-unit cache
        // statistics of `ExecMode::Parallel` are reproduced exactly.
        let (chunk, active) = self.unit_chunks(instances);
        let (src_id, layout) = (src.cache_tag(), src.layout());
        for unit in 0..active {
            let i0 = unit * chunk;
            let i1 = ((unit + 1) * chunk).min(instances);
            let count = if budget_error {
                // Each unit aborts its chunk after its own first instance,
                // exactly like `run_chunk` under the per-element engine.
                per_instance
            } else {
                (i1 - i0) * per_instance
            };
            let mut ctx = KernelCtx::new(
                unit,
                &mut self.counters,
                Some(&mut self.caches[unit]),
                max_output_bytes,
                true,
            );
            ctx.charge_copy_block(src_id, layout, block.0 + i0 * per_instance, count, T::BYTES);
            ctx.flush();
        }
        if budget_error {
            // The per-element reference still *writes* each unit's first
            // instance before the budget check aborts it — reproduce those
            // partial writes so the stream contents stay byte-identical
            // across accounting modes even on this error path.
            for unit in 0..active {
                let i0 = unit * chunk;
                let e0 = block.0 + i0 * per_instance;
                dst.as_mut_slice()[e0..e0 + per_instance]
                    .copy_from_slice(&src.as_slice()[e0..e0 + per_instance]);
            }
            return Err(StreamError::KernelOutputTooLarge {
                bytes: per_instance * T::BYTES,
                max_bytes: max_output_bytes,
            });
        }
        let copied = instances * per_instance;
        dst.as_mut_slice()[block.0..block.0 + copied]
            .copy_from_slice(&src.as_slice()[block.0..block.0 + copied]);
        Ok(())
    }

    /// Execute one stream operation: run `kernel` for `instances` kernel
    /// instances.
    ///
    /// The kernel closure receives a [`KernelCtx`] carrying the instance
    /// index; stream access goes through the views of [`crate::kernel`]
    /// captured in the closure's environment. Constraint violations
    /// detected during execution (gather out of bounds, output overflow,
    /// per-instance output budget exceeded, …) abort the launch and are
    /// returned as errors.
    ///
    /// Instance `i` of a parallel launch always runs on unit
    /// `i / ⌈instances / min(p, instances)⌉`; units run their chunks in
    /// unit order, each to its end or its first error, and the launch
    /// returns the error of the lowest failing unit. That assignment alone
    /// decides counters, per-unit cache statistics and error selection.
    pub fn launch<F>(&mut self, name: &str, instances: usize, kernel: F) -> Result<()>
    where
        F: Fn(&mut KernelCtx<'_>),
    {
        // Telemetry gate: one relaxed atomic load when tracing is off.
        if !telemetry::enabled() {
            return self.launch_untraced(name, instances, kernel);
        }
        let started = std::time::Instant::now();
        let result = self.launch_untraced(name, instances, kernel);
        telemetry::record_host_span("launch", name, started, &[("instances", instances as f64)]);
        result
    }

    /// [`StreamProcessor::launch`] minus the telemetry hook: semantically
    /// identical (same counters, same results, same errors), never
    /// recorded in a trace even when the sink is enabled.
    ///
    /// This exists as the compiled-out control for the tracing-overhead
    /// acceptance test; production callers use [`StreamProcessor::launch`].
    pub fn launch_untraced<F>(&mut self, _name: &str, instances: usize, kernel: F) -> Result<()>
    where
        F: Fn(&mut KernelCtx<'_>),
    {
        self.counters.launches += 1;
        self.counters.kernel_instances += instances as u64;
        if instances == 0 {
            return Ok(());
        }
        let max_output_bytes = self.profile.max_kernel_output_bytes;
        let batched = self.accounting == AccountingMode::Batched;
        let (chunk, active) = self.unit_chunks(instances);
        let mut first_error = None;
        for unit in 0..active {
            let start = unit * chunk;
            let end = ((unit + 1) * chunk).min(instances);
            let r = run_chunk(
                unit,
                start,
                end,
                &kernel,
                &mut self.counters,
                &mut self.caches[unit],
                max_output_bytes,
                batched,
            );
            if first_error.is_none() {
                first_error = r.err();
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// `(chunk, active)` for a launch of `instances > 0` instances: the
    /// instances per unit and the number of units that receive work. Under
    /// [`ExecMode::Parallel`] a chunk is `⌈instances / min(units,
    /// instances)⌉` instances.
    fn unit_chunks(&self, instances: usize) -> (usize, usize) {
        match self.mode {
            ExecMode::Sequential => (instances, 1),
            ExecMode::Parallel => {
                let units = self.profile.units.max(1).min(instances);
                let chunk = instances.div_ceil(units);
                (chunk, instances.div_ceil(chunk))
            }
        }
    }
}

/// Run instances `[start, end)` on one simulated unit.
///
/// One [`KernelCtx`] serves the whole chunk: per-instance state is reset by
/// `begin_instance`, while the batched accounting accumulates across
/// instances (a cache-tile run of a linear view usually continues straight
/// into the next instance's elements) and is flushed exactly once per exit
/// path, so an aborted chunk still charges everything the failing instance
/// touched — identical to the per-access model.
#[allow(clippy::too_many_arguments)]
fn run_chunk<F>(
    unit: usize,
    start: usize,
    end: usize,
    kernel: &F,
    local: &mut Counters,
    cache: &mut CacheSim,
    max_output_bytes: usize,
    batched: bool,
) -> Result<()>
where
    F: Fn(&mut KernelCtx<'_>),
{
    let mut ctx = KernelCtx::new(unit, local, Some(cache), max_output_bytes, batched);
    for instance in start..end {
        ctx.begin_instance(instance);
        kernel(&mut ctx);
        if ctx.bytes_pushed > ctx.max_output_bytes {
            let bytes = ctx.bytes_pushed;
            ctx.flush();
            return Err(StreamError::KernelOutputTooLarge {
                bytes,
                max_bytes: max_output_bytes,
            });
        }
        if let Some(e) = ctx.error.take() {
            ctx.flush();
            return Err(e);
        }
    }
    ctx.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ReadView, WriteView};
    use crate::layout::Layout;
    use crate::stream::{BlockSet, Stream};
    use crate::value::Value;

    fn doubling_op(proc_: &mut StreamProcessor, input: &Stream<u32>, output: &mut Stream<u32>) {
        let n = input.len();
        let read = ReadView::contiguous(input, 0, n, 1).unwrap();
        let write = WriteView::contiguous(output, 0, n, 1).unwrap();
        proc_
            .launch("double", n, |ctx| {
                let v = read.get(ctx, 0);
                write.set(ctx, 0, v * 2);
            })
            .unwrap();
    }

    #[test]
    fn sequential_launch_runs_all_instances() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(4));
        let input = Stream::from_vec("in", (0u32..100).collect(), Layout::Linear);
        let mut output: Stream<u32> = Stream::new("out", 100, Layout::Linear);
        doubling_op(&mut p, &input, &mut output);
        assert_eq!(output.as_slice()[7], 14);
        assert_eq!(output.as_slice()[99], 198);
        let c = p.counters();
        assert_eq!(c.launches, 1);
        assert_eq!(c.kernel_instances, 100);
        assert_eq!(c.stream_reads, 100);
        assert_eq!(c.stream_writes, 100);
    }

    #[test]
    fn parallel_launch_matches_sequential_results_and_counts() {
        let input = Stream::from_vec("in", (0u32..10_000).collect(), Layout::ZOrder);

        let mut seq = StreamProcessor::new(GpuProfile::idealized(8));
        let mut out_seq: Stream<u32> = Stream::new("out", 10_000, Layout::ZOrder);
        doubling_op(&mut seq, &input, &mut out_seq);

        let mut par = StreamProcessor::with_mode(GpuProfile::idealized(8), ExecMode::Parallel);
        let mut out_par: Stream<u32> = Stream::new("out", 10_000, Layout::ZOrder);
        doubling_op(&mut par, &input, &mut out_par);

        assert_eq!(out_seq.as_slice(), out_par.as_slice());
        let cs = seq.counters();
        let cp = par.counters();
        assert_eq!(cs.stream_reads, cp.stream_reads);
        assert_eq!(cs.stream_writes, cp.stream_writes);
        assert_eq!(cs.kernel_instances, cp.kernel_instances);
    }

    #[test]
    fn parallel_launch_handles_tiny_and_uneven_instance_counts() {
        // Shapes around the unit count: 0 instances (early return), 1, one
        // fewer/more than the unit count, and a count that leaves the last
        // unit empty under ceil-division (instances=9, units=8 → chunk=2 →
        // 5 active units).
        for instances in [0usize, 1, 7, 8, 9, 17] {
            let input = Stream::from_vec("in", (0..instances as u32).collect(), Layout::Linear);
            let mut par = StreamProcessor::with_mode(GpuProfile::idealized(8), ExecMode::Parallel);
            let mut out_par: Stream<u32> = Stream::new("out", instances, Layout::Linear);
            let mut seq = StreamProcessor::new(GpuProfile::idealized(8));
            let mut out_seq: Stream<u32> = Stream::new("out", instances, Layout::Linear);
            if instances == 0 {
                par.launch("empty", 0, |_ctx| {}).unwrap();
                seq.launch("empty", 0, |_ctx| {}).unwrap();
            } else {
                doubling_op(&mut par, &input, &mut out_par);
                doubling_op(&mut seq, &input, &mut out_seq);
            }
            assert_eq!(out_par.as_slice(), out_seq.as_slice(), "n={instances}");
            let cp = par.counters();
            let cs = seq.counters();
            assert_eq!(cp.launches, cs.launches);
            assert_eq!(cp.kernel_instances, cs.kernel_instances);
            assert_eq!(cp.stream_reads, cs.stream_reads);
            assert_eq!(cp.stream_writes, cs.stream_writes);
        }
    }

    #[test]
    fn output_budget_enforced() {
        // The GeForce profiles allow 16 x 32 bit = 64 bytes per instance;
        // pushing 9 Values (72 bytes) must fail.
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut out: Stream<Value> = Stream::new("out", 16, Layout::Linear);
        let write = WriteView::contiguous(&mut out, 0, 16, 9).unwrap();
        let err = p
            .launch("too-big", 1, |ctx| {
                for slot in 0..9 {
                    write.set(ctx, slot, Value::new(slot as f32, 0));
                }
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::KernelOutputTooLarge { .. }));
    }

    #[test]
    fn output_budget_allows_eight_pairs() {
        // 8 value/pointer pairs = 64 bytes = exactly the limit (Section 7.1).
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let mut out: Stream<Value> = Stream::new("out", 16, Layout::Linear);
        let write = WriteView::contiguous(&mut out, 0, 16, 8).unwrap();
        p.launch("local-sort", 2, |ctx| {
            for slot in 0..8 {
                write.set(
                    ctx,
                    slot,
                    Value::new(slot as f32, ctx.instance_index() as u32),
                );
            }
        })
        .unwrap();
    }

    #[test]
    fn gather_error_aborts_launch() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(1));
        let small = Stream::from_vec("small", vec![1u32, 2], Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", 4, Layout::Linear);
        let gather = crate::kernel::GatherView::new(&small);
        let write = WriteView::contiguous(&mut out, 0, 4, 1).unwrap();
        let err = p
            .launch("oob", 4, |ctx| {
                let v = gather.gather(ctx, 10 + ctx.instance_index());
                write.set(ctx, 0, v);
            })
            .unwrap_err();
        assert!(matches!(err, StreamError::GatherOutOfBounds { .. }));
    }

    #[test]
    fn error_selection_is_deterministic_across_modes() {
        // The first failing instance is `ok` (the gather stream length).
        // Under Parallel every later unit fails too; the launch must still
        // return exactly the lowest failing unit's error, as Sequential
        // does.
        for (instances, ok) in [(16usize, 5usize), (1024, 600)] {
            let small = Stream::from_vec("small", (0..ok as u32).collect(), Layout::Linear);
            let run = |mode: ExecMode| {
                let mut p = StreamProcessor::with_mode(GpuProfile::idealized(4), mode);
                let mut out: Stream<u32> = Stream::new("out", instances, Layout::Linear);
                let gather = crate::kernel::GatherView::new(&small);
                let write = WriteView::contiguous(&mut out, 0, instances, 1).unwrap();
                p.launch("oob-tail", instances, |ctx| {
                    let v = gather.gather(ctx, ctx.instance_index());
                    write.set(ctx, 0, v);
                })
                .unwrap_err()
            };
            let seq = run(ExecMode::Sequential);
            let par = run(ExecMode::Parallel);
            assert_eq!(
                seq,
                StreamError::GatherOutOfBounds {
                    stream_len: ok,
                    index: ok
                },
                "instances={instances}"
            );
            assert_eq!(seq, par, "instances={instances}");
        }
    }

    #[test]
    fn distinct_io_check() {
        let p = StreamProcessor::new(GpuProfile::geforce_6800());
        let a: Stream<u32> = Stream::new("a", 4, Layout::Linear);
        let b: Stream<u32> = Stream::new("b", 4, Layout::Linear);
        assert!(p
            .check_distinct_io(&[(a.id(), a.name())], &[(b.id(), b.name())])
            .is_ok());
        let err = p
            .check_distinct_io(&[(a.id(), a.name())], &[(a.id(), a.name())])
            .unwrap_err();
        assert!(matches!(err, StreamError::InputOutputAliasing { .. }));

        let ideal = StreamProcessor::new(GpuProfile::idealized(1));
        assert!(ideal
            .check_distinct_io(&[(a.id(), a.name())], &[(a.id(), a.name())])
            .is_ok());
    }

    #[test]
    fn stream_size_limit_enforced() {
        let p = StreamProcessor::new(GpuProfile::geforce_6800());
        assert!(p.check_stream_size::<Value>(2048 * 2048).is_ok());
        let err = p.check_stream_size::<Value>(2048 * 2048 + 1).unwrap_err();
        assert!(matches!(err, StreamError::StreamTooLarge { .. }));
    }

    #[test]
    fn multi_block_support_check() {
        let multi = StreamProcessor::new(GpuProfile::geforce_6800());
        assert!(multi.check_multi_block(4).is_ok());
        let single = StreamProcessor::new(GpuProfile::geforce_6800().with_multi_block(false));
        assert!(single.check_multi_block(1).is_ok());
        assert_eq!(
            single.check_multi_block(2).unwrap_err(),
            StreamError::MultiBlockUnsupported
        );
    }

    #[test]
    fn steps_and_reset() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(1));
        let input = Stream::from_vec("in", (0u32..4).collect(), Layout::Linear);
        let mut out: Stream<u32> = Stream::new("out", 4, Layout::Linear);
        doubling_op(&mut p, &input, &mut out);
        doubling_op(&mut p, &input, &mut out);
        p.record_step();
        let c = p.counters();
        assert_eq!(c.launches, 2);
        assert_eq!(c.steps, 1);
        assert!(p.simulated_time().total_ms > 0.0);
        p.reset();
        assert_eq!(p.counters(), Counters::new());
    }

    #[test]
    fn multi_block_write_through_launch() {
        let mut p = StreamProcessor::new(GpuProfile::idealized(1));
        let mut out: Stream<u32> = Stream::new("out", 8, Layout::Linear);
        let blocks = BlockSet::multi(vec![(4, 2), (0, 2)]).unwrap();
        let write = WriteView::new(&mut out, blocks, 1).unwrap();
        p.launch("scatter-free", 4, |ctx| {
            write.set(ctx, 0, ctx.instance_index() as u32 + 1);
        })
        .unwrap();
        assert_eq!(out.as_slice(), &[3, 4, 0, 0, 1, 2, 0, 0]);
    }

    #[test]
    fn launch_copy_is_byte_identical_across_accounting_modes() {
        let src = Stream::from_vec("src", (0u32..512).collect(), Layout::ZOrder);
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let run = |accounting: AccountingMode| {
                let mut p = StreamProcessor::with_mode(GpuProfile::geforce_6800(), mode);
                p.set_accounting_mode(accounting);
                let mut dst: Stream<u32> = Stream::new("dst", 512, Layout::ZOrder);
                let r = p.launch_copy("copy", &src, &mut dst, (32, 256), 2);
                assert!(r.is_ok());
                (dst.as_slice().to_vec(), p.counters(), p.simulated_time())
            };
            let batched = run(AccountingMode::Batched);
            let reference = run(AccountingMode::PerAccess);
            assert_eq!(batched, reference, "{mode:?}");
            // The copied block landed; everything else stayed default.
            assert_eq!(&batched.0[32..288], src.range(32, 256));
            assert!(batched.0[..32].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn launch_copy_budget_error_is_byte_identical_across_accounting_modes() {
        // A per-instance element count whose bytes exceed the output
        // budget: the launch errors, but each active unit's first instance
        // still ran (and wrote) under the per-element reference — the
        // vectorized path must reproduce the partial writes, the charges
        // and the error exactly.
        let mut profile = GpuProfile::geforce_6800();
        profile.max_kernel_output_bytes = 4; // one u32
        let src = Stream::from_vec("src", (1u32..=64).collect(), Layout::Linear);
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let run = |accounting: AccountingMode| {
                let mut p = StreamProcessor::with_mode(profile.clone(), mode);
                p.set_accounting_mode(accounting);
                let mut dst: Stream<u32> = Stream::new("dst", 64, Layout::Linear);
                let err = p
                    .launch_copy("copy", &src, &mut dst, (0, 64), 2)
                    .unwrap_err();
                (dst.as_slice().to_vec(), p.counters(), err)
            };
            let batched = run(AccountingMode::Batched);
            let reference = run(AccountingMode::PerAccess);
            assert_eq!(batched, reference, "{mode:?}");
            assert!(matches!(
                batched.2,
                StreamError::KernelOutputTooLarge { bytes: 8, .. }
            ));
            // The first instance's pair was written before the abort.
            assert_eq!(&batched.0[..2], &[1, 2]);
        }
    }

    #[test]
    fn take_counters_returns_totals_and_resets_for_reuse() {
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        let input = Stream::from_vec("in", (0u32..64).collect(), Layout::ZOrder);
        let mut out: Stream<u32> = Stream::new("out", 64, Layout::ZOrder);
        doubling_op(&mut p, &input, &mut out);
        p.record_step();
        p.charge_transfer(128);

        let taken = p.take_counters();
        assert_eq!(taken.launches, 1);
        assert_eq!(taken.steps, 1);
        assert_eq!(taken.kernel_instances, 64);
        assert_eq!(taken.transfer_bytes, 128);
        assert!(taken.cache.accesses > 0, "cache stats must be merged in");

        // The pooled processor is now clean: no metric bleed into the next
        // batch, and a second take returns zeros.
        assert_eq!(p.counters(), Counters::new());
        assert_eq!(p.simulated_time().total_ms, 0.0);
        assert_eq!(p.take_counters(), Counters::new());

        // A batch executed after the take is accounted from zero.
        doubling_op(&mut p, &input, &mut out);
        assert_eq!(p.counters().launches, 1);
    }

    #[test]
    fn transfer_charge_appears_in_sim_time() {
        let mut p = StreamProcessor::new(GpuProfile::geforce_6800());
        p.charge_transfer(2 * 8 * (1 << 20));
        let t = p.simulated_time();
        assert!(t.breakdown.transfer_ms > 50.0);
    }
}
