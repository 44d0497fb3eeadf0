//! GPU-ABiSort: adaptive bitonic sorting expressed as a stream program
//! (Sections 5–7 of the paper).
//!
//! The implementation follows the paper's layering:
//!
//! * [`layout_plan`] — *where* every phase of every merge stage writes its
//!   node pairs (Table 1), the partially-overlapped stage schedule of
//!   Section 5.4, and the generators for the layout figures (Figures 4–7);
//! * [`kernels`] — the kernel programs (Listings 3 and 4, plus the
//!   Section 7 kernels: local odd-even sort, tree build, in-order
//!   traversal, fixed 16-element bitonic merge) and the copy-back /
//!   initialization kernels required by the GPU restrictions of Section 6.1;
//! * [`merge`] — the `GPUABiMerge` sub-routine (Listing 5): one recursion
//!   level of the sort, executed either with sequential phases
//!   (`O(log² n)` stream operations per level) or with overlapped stages
//!   (`O(log n)` per level, Section 5.4);
//! * [`plan`] — the launch-graph planner: the sort's kernel launches
//!   recorded as an operator DAG over named buffers, partitioned into
//!   stages, cached per problem shape, and executed one launch per node
//!   (see `docs/PLANNER.md`);
//! * [`sort`] — the `GPUABiSort` main routine (Listing 2) plus the
//!   Section 7 optimizations, wrapped in the [`sort::GpuAbiSorter`] API.

pub mod kernels;
pub mod layout_plan;
pub mod merge;
pub mod plan;
pub mod sort;

pub use plan::{BufferId, BufferRef, Op, PlanBuffers, PlanKey, SortPlan};
pub use sort::{GpuAbiSorter, SegmentedRun, SortRun, TopKRun};
