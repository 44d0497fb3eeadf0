//! E21 companion bench — host wall-clock of the execution modes.
//!
//! The `repro --scenario wallclock` harness produces the reported
//! before/after table; this criterion target keeps the host cost of a
//! sort under continuous measurement (and under `-- --test` smoke in CI):
//! [`ExecMode::Sequential`] with the stream arena on and off, and
//! [`ExecMode::Parallel`].

use abisort::{GpuAbiSorter, SortConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use stream_arch::{ExecMode, GpuProfile, StreamProcessor};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("wallclock_engines");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let n = 1usize << 12;
    let input = workloads::uniform(n, 7);
    let sorter = GpuAbiSorter::new(SortConfig::default());

    // Long-lived processors: the arena's recycled buffers persist across
    // iterations, exactly like a service slot worker.
    let mut sequential = StreamProcessor::new(GpuProfile::geforce_7800());
    group.bench_function(BenchmarkId::new("engine", "sequential"), |b| {
        b.iter(|| sorter.sort_run(&mut sequential, &input).unwrap())
    });

    let mut no_arena = StreamProcessor::new(GpuProfile::geforce_7800());
    no_arena.arena().set_enabled(false);
    group.bench_function(BenchmarkId::new("engine", "sequential_no_arena"), |b| {
        b.iter(|| sorter.sort_run(&mut no_arena, &input).unwrap())
    });

    let mut parallel = StreamProcessor::with_mode(GpuProfile::geforce_7800(), ExecMode::Parallel);
    group.bench_function(BenchmarkId::new("engine", "parallel"), |b| {
        b.iter(|| sorter.sort_run(&mut parallel, &input).unwrap())
    });

    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
