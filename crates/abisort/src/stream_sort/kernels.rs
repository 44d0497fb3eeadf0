//! The kernel programs of GPU-ABiSort and their launch wrappers.
//!
//! Each kernel comes in two forms:
//!
//! * a **bound form** (`bind_*` returning a `*Bound` struct) that performs
//!   the hardware validation and binds the input/gather/output substream
//!   views *without launching*;
//! * a **launch wrapper** (the original free function) that binds and
//!   launches in one call, used by tests and by the planner's
//!   interpreter.
//!
//! The kernels correspond to the paper's pseudo code and Section 7
//! descriptions:
//!
//! | function              | paper reference                                  |
//! |-----------------------|--------------------------------------------------|
//! | [`extract_roots_and_spares`] | Listing 5, initialization of stage 0 phase 0 |
//! | [`phase0`]             | Listing 3 (`phase0` kernel)                      |
//! | [`phase_i`]            | Listing 4 (`phaseI` kernel)                      |
//! | [`copy_back`]          | Section 6.1 (write-back to the permanent input stream) |
//! | [`commit_level`]       | Listing 2, `bitonicTrees[n..2n−1].value = GPUABiMerge(…)` |
//! | [`local_sort8`]        | Section 7.1, odd-even transition sort of 8 pairs |
//! | [`build_trees16`]      | Section 7.1 / 7.2, conversion of sorted 16-blocks to bitonic trees |
//! | [`traverse16`]         | Section 7.2, in-order traversal producing 16-value bitonic sequences |
//! | [`fixed_merge16`]      | Section 7.2, non-adaptive bitonic merge of 16 values |
//!
//! All kernels follow the convention of Listings 3/4 for the sort
//! direction: `reverseSortDir = isOdd(instance_index / numInstancesPerTree)`,
//! which makes the simultaneously merged trees alternate between ascending
//! and descending order so that the next recursion level again receives
//! bitonic inputs.

use crate::tree::fixed_children;
use stream_arch::{
    GatherView, IterStream, KernelCtx, Node, ReadView, Result, Stream, StreamProcessor, Value,
    WriteView, NULL_INDEX,
};

/// `isOdd(instance / numInstancesPerTree)` — the alternating sort direction
/// of Listings 3/4, expressed as "is this tree sorted ascending?".
#[inline]
fn ascending_for(instance: usize, instances_per_tree: usize) -> bool {
    (instance / instances_per_tree).is_multiple_of(2)
}

/// The comparison of Listings 3/4: `(p > q) != reverseSortDir`, i.e. the
/// pair is out of order with respect to the tree's sort direction.
#[inline]
fn out_of_order(ctx: &mut KernelCtx<'_>, p: &Value, q: &Value, ascending: bool) -> bool {
    ctx.count_comparisons(1);
    p.gt(q) == ascending
}

/// Bound form of [`extract_roots_and_spares`]: views and derived counts,
/// ready to run.
pub struct ExtractRootsSparesBound<'a> {
    gather: GatherView<'a, Node>,
    out: WriteView<'a, Node>,
    n: usize,
    num_trees: usize,
    pairs_per_tree: usize,
}

/// Validate and bind [`extract_roots_and_spares`] without launching.
pub fn bind_extract_roots_and_spares<'a>(
    proc: &StreamProcessor,
    trees_in: &'a Stream<Node>,
    trees_out: &'a mut Stream<Node>,
    n: usize,
    j: u32,
) -> Result<ExtractRootsSparesBound<'a>> {
    let num_trees = n >> j;
    let pairs_per_tree = 1usize << (j - 1);
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name())],
        &[(trees_out.id(), trees_out.name())],
    )?;
    let gather = GatherView::new(trees_in);
    let out = WriteView::contiguous(trees_out, 0, 2 * num_trees, 1)?;
    Ok(ExtractRootsSparesBound {
        gather,
        out,
        n,
        num_trees,
        pairs_per_tree,
    })
}

impl ExtractRootsSparesBound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "extract-roots-spares";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        2 * self.num_trees
    }

    /// One kernel instance (the body of Listing 5's initialization).
    ///
    /// Instances [0, numTrees) emit the spare values, instances
    /// [numTrees, 2·numTrees) the root nodes, so that a single linear write
    /// produces the layout stage 0 phase 0 expects.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let i = ctx.instance_index();
        if i < self.num_trees {
            let spare_pos = self.n + (2 * i + 2) * self.pairs_per_tree - 1;
            let spare = self.gather.gather(ctx, spare_pos);
            self.out.set(ctx, 0, Node::leaf(spare.value));
        } else {
            let t = i - self.num_trees;
            let root_pos = self.n + (2 * t + 1) * self.pairs_per_tree - 1;
            let root = self.gather.gather(ctx, root_pos);
            self.out.set(ctx, 0, root);
        }
    }
}

/// Initialization of the merge at recursion level `j` (Listing 5, before
/// the stage loop): for each of the `numTrees` input bitonic trees, gather
/// its root and spare node from the in-order-stored input half of the node
/// stream and write them to the locations stage 0 phase 0 reads from
/// (spare values to elements `[0, numTrees)`, root nodes to
/// `[numTrees, 2·numTrees)`).
pub fn extract_roots_and_spares(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    n: usize,
    j: u32,
) -> Result<()> {
    let b = bind_extract_roots_and_spares(proc, trees_in, trees_out, n, j)?;
    proc.launch(ExtractRootsSparesBound::NAME, b.instances(), |ctx| {
        b.run(ctx)
    })
}

/// Bound form of [`phase0`].
pub struct Phase0Bound<'a> {
    root_in: ReadView<'a, Node>,
    spare_in: ReadView<'a, Node>,
    node_out: WriteView<'a, Node>,
    pq: WriteView<'a, u32>,
    len: usize,
    instances_per_tree: usize,
}

/// Validate and bind [`phase0`] without launching.
pub fn bind_phase0<'a>(
    proc: &StreamProcessor,
    trees_in: &'a Stream<Node>,
    trees_out: &'a mut Stream<Node>,
    pq_out: &'a mut Stream<u32>,
    pq_out_offset: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<Phase0Bound<'a>> {
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name())],
        &[
            (trees_out.id(), trees_out.name()),
            (pq_out.id(), pq_out.name()),
        ],
    )?;
    let root_in = ReadView::contiguous(trees_in, len, len, 1)?;
    let spare_in = ReadView::contiguous(trees_in, 0, len, 1)?;
    let node_out = WriteView::contiguous(trees_out, 0, 2 * len, 2)?;
    let pq = WriteView::contiguous(pq_out, pq_out_offset, 2 * len, 2)?;
    Ok(Phase0Bound {
        root_in,
        spare_in,
        node_out,
        pq,
        len,
        instances_per_tree,
    })
}

impl Phase0Bound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "phase0";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.len
    }

    /// One kernel instance (the body of Listing 3).
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let ascending = ascending_for(ctx.instance_index(), self.instances_per_tree);
        let mut root = self.root_in.get(ctx, 0);
        let mut spare_value = self.spare_in.get(ctx, 0).value;
        if out_of_order(ctx, &root.value, &spare_value, ascending) {
            std::mem::swap(&mut root.value, &mut spare_value);
            std::mem::swap(&mut root.left, &mut root.right);
        }
        self.pq.pair(ctx, root.left, root.right);
        self.node_out
            .pair(ctx, Node::leaf(root.value), Node::leaf(spare_value));
    }
}

/// The phase 0 kernel (Listing 3): one instance per bitonic (sub)tree.
///
/// Reads the subtree's root node and spare value, performs phase 0 of the
/// simplified adaptive min/max determination (Section 4.2), pushes the new
/// `(p, q)` node indices for phase 1, and writes the updated root and spare
/// *values* to elements `[0, 2·len)` of the node output stream.
#[allow(clippy::too_many_arguments)]
pub fn phase0(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    pq_out: &mut Stream<u32>,
    pq_out_offset: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<()> {
    let b = bind_phase0(
        proc,
        trees_in,
        trees_out,
        pq_out,
        pq_out_offset,
        len,
        instances_per_tree,
    )?;
    proc.launch(Phase0Bound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Bound form of [`phase_i`].
pub struct PhaseIBound<'a> {
    pq_read: ReadView<'a, u32>,
    gather: GatherView<'a, Node>,
    node_out: WriteView<'a, Node>,
    pq_write: WriteView<'a, u32>,
    index_generator: IterStream,
    len: usize,
    instances_per_tree: usize,
}

/// Validate and bind [`phase_i`] without launching.
#[allow(clippy::too_many_arguments)]
pub fn bind_phase_i<'a>(
    proc: &StreamProcessor,
    trees_in: &'a Stream<Node>,
    trees_out: &'a mut Stream<Node>,
    pq_in: &'a Stream<u32>,
    pq_in_offset: usize,
    pq_out: &'a mut Stream<u32>,
    pq_out_offset: usize,
    out_block: (usize, usize),
    next_block_start: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<PhaseIBound<'a>> {
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name()), (pq_in.id(), pq_in.name())],
        &[
            (trees_out.id(), trees_out.name()),
            (pq_out.id(), pq_out.name()),
        ],
    )?;
    let pq_read = ReadView::contiguous(pq_in, pq_in_offset, 2 * len, 2)?;
    let gather = GatherView::new(trees_in);
    let node_out = WriteView::contiguous(trees_out, out_block.0, out_block.1, 2)?;
    let pq_write = WriteView::contiguous(pq_out, pq_out_offset, 2 * len, 2)?;
    // The iterator stream yields the element indices the *next* phase will
    // write to (Section 5.2), so child pointers can be redirected there.
    let index_generator = IterStream::range(next_block_start, 2 * len, 2);
    Ok(PhaseIBound {
        pq_read,
        gather,
        node_out,
        pq_write,
        index_generator,
        len,
        instances_per_tree,
    })
}

impl PhaseIBound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "phaseI";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.len
    }

    /// One kernel instance (the body of Listing 4).
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let ascending = ascending_for(ctx.instance_index(), self.instances_per_tree);
        let (p_idx, q_idx) = self.pq_read.pair(ctx);
        let mut p = self.gather.gather(ctx, p_idx as usize);
        let mut q = self.gather.gather(ctx, q_idx as usize);
        if out_of_order(ctx, &p.value, &q.value, ascending) {
            std::mem::swap(&mut p.value, &mut q.value);
            std::mem::swap(&mut p.left, &mut q.left);
            self.pq_write.pair(ctx, p.right, q.right);
            let (np, nq) = self.index_generator.pair(ctx);
            p.right = np;
            q.right = nq;
        } else {
            self.pq_write.pair(ctx, p.left, q.left);
            let (np, nq) = self.index_generator.pair(ctx);
            p.left = np;
            q.left = nq;
        }
        self.node_out.pair(ctx, p, q);
    }
}

/// The phase `i > 0` kernel (Listing 4): one instance per `(p, q)` node
/// pair.
///
/// Recovers the `(p, q)` indices from the pq-index stream, gathers the two
/// nodes, performs one phase of the simplified adaptive min/max
/// determination, updates the child pointers that will be replaced in the
/// next phase using the iterator stream, and writes the modified node pair
/// linearly to its Table-1 output block.
#[allow(clippy::too_many_arguments)]
pub fn phase_i(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    pq_in: &Stream<u32>,
    pq_in_offset: usize,
    pq_out: &mut Stream<u32>,
    pq_out_offset: usize,
    out_block: (usize, usize),
    next_block_start: usize,
    len: usize,
    instances_per_tree: usize,
) -> Result<()> {
    let b = bind_phase_i(
        proc,
        trees_in,
        trees_out,
        pq_in,
        pq_in_offset,
        pq_out,
        pq_out_offset,
        out_block,
        next_block_start,
        len,
        instances_per_tree,
    )?;
    proc.launch(PhaseIBound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Copy the node pairs just written to the output stream back to the
/// permanent input stream (Section 6.1: "After each step of the algorithm,
/// all nodes that have just been written to the output stream are simply
/// copied back to the input stream").
pub fn copy_back(
    proc: &mut StreamProcessor,
    trees_out: &Stream<Node>,
    trees_in: &mut Stream<Node>,
    block: (usize, usize),
) -> Result<()> {
    debug_assert_eq!(block.1 % 2, 0);
    proc.check_distinct_io(
        &[(trees_out.id(), trees_out.name())],
        &[(trees_in.id(), trees_in.name())],
    )?;
    // A pure block forward: the executor's vectorized copy launch charges
    // it wholesale (and runs it as the per-element reference kernel under
    // per-access accounting).
    proc.launch_copy("copy-back", trees_out, trees_in, block, 2)
}

/// Bound form of [`commit_level`].
pub struct CommitLevelBound<'a> {
    src: ReadView<'a, Node>,
    dst: WriteView<'a, Node>,
    n: usize,
}

/// Validate and bind [`commit_level`] without launching.
pub fn bind_commit_level<'a>(
    proc: &StreamProcessor,
    trees_in: &'a Stream<Node>,
    trees_out: &'a mut Stream<Node>,
    n: usize,
) -> Result<CommitLevelBound<'a>> {
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name())],
        &[(trees_out.id(), trees_out.name())],
    )?;
    let src = ReadView::contiguous(trees_in, 0, n, 2)?;
    let dst = WriteView::contiguous(trees_out, n, n, 2)?;
    Ok(CommitLevelBound { src, dst, n })
}

impl CommitLevelBound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "commit-level";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.n / 2
    }

    /// One kernel instance: re-tree two in-order values.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let (a, b) = self.src.pair(ctx);
        let base = ctx.instance_index() * 2;
        self.dst.write_all(
            ctx,
            &[
                in_order_node(a.value, self.n, base),
                in_order_node(b.value, self.n, base + 1),
            ],
        );
    }
}

/// End-of-level commit (Listing 2): reinterpret the in-order value sequence
/// produced by the final merge stage (elements `[0, n)` of the node stream)
/// as the input bitonic trees of the next recursion level by writing the
/// values into the second half `[n, 2n)` with the fixed in-order child
/// indices.
pub fn commit_level(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    trees_out: &mut Stream<Node>,
    n: usize,
) -> Result<()> {
    let b = bind_commit_level(proc, trees_in, trees_out, n)?;
    proc.launch(CommitLevelBound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Bound form of [`local_sort8`].
pub struct LocalSort8Bound<'a> {
    src: ReadView<'a, Value>,
    dst: WriteView<'a, Value>,
    n: usize,
}

/// Validate and bind [`local_sort8`] without launching.
pub fn bind_local_sort8<'a>(
    proc: &StreamProcessor,
    source: &'a Stream<Value>,
    sorted: &'a mut Stream<Value>,
    n: usize,
) -> Result<LocalSort8Bound<'a>> {
    assert!(
        n.is_multiple_of(8),
        "local sort requires a multiple of 8 elements"
    );
    proc.check_distinct_io(
        &[(source.id(), source.name())],
        &[(sorted.id(), sorted.name())],
    )?;
    let src = ReadView::contiguous(source, 0, n, 8)?;
    let dst = WriteView::contiguous(sorted, 0, n, 8)?;
    Ok(LocalSort8Bound { src, dst, n })
}

impl LocalSort8Bound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "local-sort-8";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.n / 8
    }

    /// One kernel instance: odd-even transition sort of 8 pairs.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let ascending = ctx.instance_index().is_multiple_of(2);
        let mut v = [Value::default(); 8];
        self.src.read_into(ctx, &mut v);
        // Odd-even transition sort: 8 passes of alternating adjacent
        // compare-exchanges (the comparison order that "allows for better
        // SIMD optimizations", Section 7.1).
        for pass in 0..8 {
            let start = pass % 2;
            let mut i = start;
            while i + 1 < 8 {
                if out_of_order(ctx, &v[i], &v[i + 1], ascending) {
                    v.swap(i, i + 1);
                }
                i += 2;
            }
        }
        self.dst.write_all(ctx, &v);
    }
}

/// The Section 7.1 local sort: each instance reads 8 value/pointer pairs
/// and sorts them with an odd-even transition sort, ascending for even
/// block indices and descending for odd ones, so that consecutive blocks
/// form bitonic 16-sequences.
///
/// 8 pairs × 8 bytes = 64 bytes is exactly the per-instance output limit of
/// the paper's GPUs (16 × 32 bit), which is why the local sort stops at 8.
pub fn local_sort8(
    proc: &mut StreamProcessor,
    source: &Stream<Value>,
    sorted: &mut Stream<Value>,
    n: usize,
) -> Result<()> {
    let b = bind_local_sort8(proc, source, sorted, n)?;
    proc.launch(LocalSort8Bound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Bound form of [`build_trees16`].
pub struct BuildTrees16Bound<'a> {
    src: ReadView<'a, Value>,
    dst: WriteView<'a, Node>,
    n: usize,
}

/// Validate and bind [`build_trees16`] without launching.
pub fn bind_build_trees16<'a>(
    proc: &StreamProcessor,
    values: &'a Stream<Value>,
    trees_out: &'a mut Stream<Node>,
    n: usize,
) -> Result<BuildTrees16Bound<'a>> {
    assert!(
        n.is_multiple_of(4),
        "tree building requires a multiple of 4 elements"
    );
    proc.check_distinct_io(
        &[(values.id(), values.name())],
        &[(trees_out.id(), trees_out.name())],
    )?;
    let src = ReadView::contiguous(values, 0, n, 4)?;
    let dst = WriteView::contiguous(trees_out, n, n, 4)?;
    Ok(BuildTrees16Bound { src, dst, n })
}

impl BuildTrees16Bound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "build-trees-16";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.n / 4
    }

    /// One kernel instance: emit 4 in-order tree nodes.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.instance_index() * 4;
        let mut values = [Value::default(); 4];
        self.src.read_into(ctx, &mut values);
        let mut nodes = [Node::default(); 4];
        for (slot, value) in values.into_iter().enumerate() {
            nodes[slot] = in_order_node(value, self.n, base + slot);
        }
        self.dst.write_all(ctx, &nodes);
    }
}

/// Convert sorted/merged 16-value blocks into in-order-stored bitonic trees
/// of 16 nodes in the input half `[n, 2n)` of the node stream
/// (Section 7.1 / 7.2). Each instance emits 4 nodes (4 × 16 bytes = the
/// per-instance output limit).
pub fn build_trees16(
    proc: &mut StreamProcessor,
    values: &Stream<Value>,
    trees_out: &mut Stream<Node>,
    n: usize,
) -> Result<()> {
    let b = bind_build_trees16(proc, values, trees_out, n)?;
    proc.launch(BuildTrees16Bound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Where the 16-element groups of the Section 7.2 fixed merge find their
/// subtree roots and spare nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GroupSource {
    /// The groups are the input bitonic trees themselves (recursion level
    /// `j = 4`, where no adaptive stages run before the fixed merge):
    /// group `g`'s root is the in-order-stored node `n + 16g + 7` and its
    /// spare `n + 16g + 15`.
    InputTrees {
        /// Total number of elements `n` (the input half starts at `n`).
        n: usize,
    },
    /// The groups are the subtrees left over after the truncated adaptive
    /// merge (levels `j ≥ 5`): group `g`'s root was written by phase 1 of
    /// the last executed stage at element `roots_start + g`, and its spare
    /// value by phase 0 at element `g`.
    WorkspaceSubtrees {
        /// First element of the block holding the group roots.
        roots_start: usize,
    },
}

impl GroupSource {
    #[inline]
    fn root_index(&self, group: usize) -> usize {
        match *self {
            GroupSource::InputTrees { n } => n + 16 * group + 7,
            GroupSource::WorkspaceSubtrees { roots_start } => roots_start + group,
        }
    }

    #[inline]
    fn spare_index(&self, group: usize) -> usize {
        match *self {
            GroupSource::InputTrees { n } => n + 16 * group + 15,
            GroupSource::WorkspaceSubtrees { .. } => group,
        }
    }
}

/// In-order traversal of a subtree of the given height (≤ 3 here),
/// collecting values through gather reads only.
fn in_order_collect(
    ctx: &mut KernelCtx<'_>,
    gather: &GatherView<'_, Node>,
    node_idx: usize,
    height: u32,
    out: &mut [Value; 8],
    pos: &mut usize,
) {
    let node = gather.gather(ctx, node_idx);
    if height > 1 {
        in_order_collect(ctx, gather, node.left as usize, height - 1, out, pos);
    }
    out[*pos] = node.value;
    *pos += 1;
    if height > 1 {
        in_order_collect(ctx, gather, node.right as usize, height - 1, out, pos);
    }
}

/// Bound form of [`traverse16`].
pub struct Traverse16Bound<'a> {
    gather: GatherView<'a, Node>,
    dst: WriteView<'a, Value>,
    groups: usize,
    source: GroupSource,
}

/// Validate and bind [`traverse16`] without launching.
pub fn bind_traverse16<'a>(
    proc: &StreamProcessor,
    trees_in: &'a Stream<Node>,
    values_out: &'a mut Stream<Value>,
    groups: usize,
    source: GroupSource,
) -> Result<Traverse16Bound<'a>> {
    proc.check_distinct_io(
        &[(trees_in.id(), trees_in.name())],
        &[(values_out.id(), values_out.name())],
    )?;
    let gather = GatherView::new(trees_in);
    let dst = WriteView::contiguous(values_out, 0, groups * 16, 8)?;
    Ok(Traverse16Bound {
        gather,
        dst,
        groups,
        source,
    })
}

impl Traverse16Bound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "traverse-16";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.groups * 2
    }

    /// One kernel instance: extract half of a 16-value bitonic sequence.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let group = ctx.instance_index() / 2;
        let upper_half = ctx.instance_index() % 2 == 1;
        let root = self.gather.gather(ctx, self.source.root_index(group));
        let mut out = [Value::default(); 8];
        let mut pos = 0;
        if !upper_half {
            // Lower half: in-order of the root's left subtree, then the
            // root value itself.
            in_order_collect(ctx, &self.gather, root.left as usize, 3, &mut out, &mut pos);
            out[7] = root.value;
        } else {
            // Upper half: in-order of the root's right subtree, then the
            // spare value.
            in_order_collect(
                ctx,
                &self.gather,
                root.right as usize,
                3,
                &mut out,
                &mut pos,
            );
            out[7] = self
                .gather
                .gather(ctx, self.source.spare_index(group))
                .value;
        }
        self.dst.write_all(ctx, &out);
    }
}

/// The Section 7.2 in-order traversal: extract the 16-value bitonic
/// sequence of every remaining 16-node subtree into a plain value stream so
/// that the non-adaptive merge can read it linearly. Two instances per
/// group; each gathers 8–9 nodes and outputs 8 values (the per-instance
/// output limit).
pub fn traverse16(
    proc: &mut StreamProcessor,
    trees_in: &Stream<Node>,
    values_out: &mut Stream<Value>,
    groups: usize,
    source: GroupSource,
) -> Result<()> {
    let b = bind_traverse16(proc, trees_in, values_out, groups, source)?;
    proc.launch(Traverse16Bound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// Bound form of [`fixed_merge16`].
pub struct FixedMerge16Bound<'a> {
    gather: GatherView<'a, Value>,
    dst: WriteView<'a, Value>,
    groups: usize,
    groups_per_tree: usize,
}

/// Validate and bind [`fixed_merge16`] without launching.
pub fn bind_fixed_merge16<'a>(
    proc: &StreamProcessor,
    values_in: &'a Stream<Value>,
    values_out: &'a mut Stream<Value>,
    groups: usize,
    groups_per_tree: usize,
) -> Result<FixedMerge16Bound<'a>> {
    proc.check_distinct_io(
        &[(values_in.id(), values_in.name())],
        &[(values_out.id(), values_out.name())],
    )?;
    let gather = GatherView::new(values_in);
    let dst = WriteView::contiguous(values_out, 0, groups * 16, 8)?;
    Ok(FixedMerge16Bound {
        gather,
        dst,
        groups,
        groups_per_tree,
    })
}

impl FixedMerge16Bound<'_> {
    /// The launch name of this kernel.
    pub const NAME: &'static str = "fixed-merge-16";

    /// Number of kernel instances the launch covers.
    pub fn instances(&self) -> usize {
        self.groups * 2
    }

    /// One kernel instance: merge half of a 16-value bitonic sequence.
    pub fn run(&self, ctx: &mut KernelCtx<'_>) {
        let group = ctx.instance_index() / 2;
        let upper_half = ctx.instance_index() % 2 == 1;
        let ascending = (group / self.groups_per_tree).is_multiple_of(2);

        // Load the whole 16-value bitonic sequence.
        let mut v = [Value::default(); 16];
        self.gather.gather_range(ctx, group * 16, &mut v);
        // First compare-exchange distance 8; afterwards the lower and upper
        // halves are independent, so the instance keeps only its half.
        for i in 0..8 {
            if out_of_order(ctx, &v[i], &v[i + 8], ascending) {
                v.swap(i, i + 8);
            }
        }
        let mut h = [Value::default(); 8];
        let offset = if upper_half { 8 } else { 0 };
        h.copy_from_slice(&v[offset..offset + 8]);
        // Remaining bitonic merge network on 8 values: distances 4, 2, 1.
        for step in [4usize, 2, 1] {
            let mut block = 0;
            while block < 8 {
                for i in block..block + step {
                    if out_of_order(ctx, &h[i], &h[i + step], ascending) {
                        h.swap(i, i + step);
                    }
                }
                block += 2 * step;
            }
        }
        self.dst.write_all(ctx, &h);
    }
}

/// The Section 7.2 non-adaptive bitonic merge of 16-value bitonic
/// sequences. Two instances per sequence: one outputs the merged lower
/// half, the other the merged upper half (respecting the per-instance
/// output limit). The merge direction alternates per destination tree so
/// the next recursion level again receives bitonic inputs.
pub fn fixed_merge16(
    proc: &mut StreamProcessor,
    values_in: &Stream<Value>,
    values_out: &mut Stream<Value>,
    groups: usize,
    groups_per_tree: usize,
) -> Result<()> {
    let b = bind_fixed_merge16(proc, values_in, values_out, groups, groups_per_tree)?;
    proc.launch(FixedMerge16Bound::NAME, b.instances(), |ctx| b.run(ctx))
}

/// The node stored at local in-order position `local` of the input half
/// `[n, 2n)`: fixed child indices for internal nodes, the leaf sentinel for
/// leaves and for the overall spare node (position `n − 1`), whose child
/// pointers are never dereferenced.
#[inline]
fn in_order_node(value: Value, n: usize, local: usize) -> Node {
    let global = n + local;
    let (left, right) = fixed_children(global);
    if left as usize == global || local == n - 1 {
        Node::leaf(value)
    } else {
        Node::new(value, left, right)
    }
}

/// Host-side initialization of the input half of a node stream with the
/// source values and the fixed in-order child indices (the initialization
/// loop of Listing 2). Corresponds to the application writing its data into
/// GPU memory, so it is not charged as kernel work.
pub fn init_input_trees(trees: &mut Stream<Node>, values: &[Value]) {
    let n = values.len();
    for (i, &value) in values.iter().enumerate() {
        trees.set(n + i, in_order_node(value, n, i));
    }
}

/// Host-side read-back of the sorted result from the input half of the node
/// stream (in-order storage makes this a plain copy of the value fields).
/// Reads through the borrowed [`Stream::range`] view — no intermediate
/// node copy.
pub fn read_back_values(trees: &Stream<Node>, n: usize) -> Vec<Value> {
    trees.range(n, n).iter().map(|node| node.value).collect()
}

/// The `NULL_INDEX` sentinel re-exported for tests that inspect kernels'
/// node output.
pub const LEAF_SENTINEL: u32 = NULL_INDEX;

#[cfg(test)]
mod tests {
    use super::*;
    use stream_arch::{GpuProfile, Layout};

    fn processor() -> StreamProcessor {
        StreamProcessor::new(GpuProfile::geforce_6800())
    }

    fn value_stream(name: &str, values: &[Value]) -> Stream<Value> {
        Stream::from_vec(name, values.to_vec(), Layout::ZOrder)
    }

    #[test]
    fn local_sort8_sorts_blocks_with_alternating_directions() {
        let n = 64;
        let input = workloads::uniform(n, 5);
        let src = value_stream("src", &input);
        let mut dst: Stream<Value> = Stream::new("dst", n, Layout::ZOrder);
        let mut p = processor();
        local_sort8(&mut p, &src, &mut dst, n).unwrap();
        let out = dst.as_slice();
        for block in 0..n / 8 {
            let slice = &out[block * 8..block * 8 + 8];
            if block % 2 == 0 {
                assert!(slice.windows(2).all(|w| w[0] <= w[1]), "block {block}");
            } else {
                assert!(slice.windows(2).all(|w| w[0] >= w[1]), "block {block}");
            }
            // Each block is a permutation of its input block.
            assert!(crate::verify::is_permutation(
                slice,
                &input[block * 8..block * 8 + 8]
            ));
        }
        let c = p.counters();
        assert_eq!(c.launches, 1);
        assert_eq!(c.kernel_instances, (n / 8) as u64);
    }

    #[test]
    fn build_trees16_produces_in_order_trees_with_fixed_children() {
        let n = 32;
        let values = workloads::uniform(n, 7);
        let src = value_stream("vals", &values);
        let mut trees: Stream<Node> = Stream::new("trees", 2 * n, Layout::ZOrder);
        let mut p = processor();
        build_trees16(&mut p, &src, &mut trees, n).unwrap();
        for (i, value) in values.iter().enumerate().take(n) {
            let node = trees.get(n + i);
            assert_eq!(node.value, *value);
            let (l, r) = fixed_children(n + i);
            if l as usize == n + i || i == n - 1 {
                assert_eq!(node.left, NULL_INDEX);
            } else {
                assert_eq!((node.left, node.right), (l, r));
            }
        }
    }

    #[test]
    fn init_and_read_back_roundtrip() {
        let n = 16;
        let values = workloads::uniform(n, 3);
        let mut trees: Stream<Node> = Stream::new("trees", 2 * n, Layout::ZOrder);
        init_input_trees(&mut trees, &values);
        assert_eq!(read_back_values(&trees, n), values);
    }

    #[test]
    fn extract_places_roots_and_spares_for_stage0() {
        let n = 16;
        let j = 2; // trees of 4 nodes: roots at n+1, n+5, …; spares at n+3, n+7, …
        let values = workloads::uniform(n, 9);
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        init_input_trees(&mut a, &values);
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut p = processor();
        extract_roots_and_spares(&mut p, &a, &mut b, n, j).unwrap();
        let num_trees = n >> j;
        for t in 0..num_trees {
            assert_eq!(
                b.get(num_trees + t).value,
                values[4 * t + 1],
                "root of tree {t}"
            );
            assert_eq!(b.get(t).value, values[4 * t + 3], "spare of tree {t}");
        }
    }

    #[test]
    fn phase0_swaps_out_of_order_root_and_spare() {
        // Two trees so both sort directions are exercised.
        let n = 8;
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        // Stage 0 of level j=2: len = numTrees = 2. Roots at [2,4), spares at [0,2).
        a.set(2, Node::new(Value::new(5.0, 0), 40, 41));
        a.set(3, Node::new(Value::new(1.0, 1), 42, 43));
        a.set(0, Node::leaf(Value::new(3.0, 2))); // spare of tree 0
        a.set(1, Node::leaf(Value::new(4.0, 3))); // spare of tree 1
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut pq: Stream<u32> = Stream::new("pq", 2 * n, Layout::Linear);
        let mut p = processor();
        phase0(&mut p, &a, &mut b, &mut pq, 0, 2, 1).unwrap();
        // Tree 0 (ascending): root 5.0 > spare 3.0 → swapped, children reversed.
        assert_eq!(b.get(0).value.key, 3.0);
        assert_eq!(b.get(1).value.key, 5.0);
        assert_eq!((pq.get(0), pq.get(1)), (41, 40));
        // Tree 1 (descending): root 1.0 < spare 4.0 → out of order for a
        // descending merge → swapped as well.
        assert_eq!(b.get(2).value.key, 4.0);
        assert_eq!(b.get(3).value.key, 1.0);
        assert_eq!((pq.get(2), pq.get(3)), (43, 42));
        assert_eq!(p.counters().comparisons, 2);
    }

    #[test]
    fn copy_back_restores_the_written_block() {
        let n = 8;
        let mut a: Stream<Node> = Stream::new("a", n, Layout::ZOrder);
        let mut b: Stream<Node> = Stream::new("b", n, Layout::ZOrder);
        for i in 0..n {
            b.set(i, Node::leaf(Value::new(i as f32, i as u32)));
        }
        let mut p = processor();
        copy_back(&mut p, &b, &mut a, (2, 4)).unwrap();
        assert_eq!(a.get(2).value.key, 2.0);
        assert_eq!(a.get(5).value.key, 5.0);
        assert_eq!(a.get(0).value.key, 0.0 * 0.0);
        assert_eq!(a.get(6).value, Value::default());
    }

    #[test]
    fn commit_level_rebuilds_in_order_trees() {
        let n = 16;
        let sorted = {
            let mut v = workloads::uniform(n, 13);
            v.sort();
            v
        };
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        for (i, &v) in sorted.iter().enumerate() {
            a.set(i, Node::leaf(v));
        }
        let mut b: Stream<Node> = Stream::new("b", 2 * n, Layout::ZOrder);
        let mut p = processor();
        commit_level(&mut p, &a, &mut b, n).unwrap();
        assert_eq!(read_back_values(&b, n), sorted);
        // Child indices are the fixed in-order ones.
        let root = b.get(n + n / 2 - 1);
        let (l, r) = fixed_children(n + n / 2 - 1);
        assert_eq!((root.left, root.right), (l, r));
    }

    #[test]
    fn traverse16_and_fixed_merge16_sort_bitonic_16_blocks() {
        // Build input trees over two bitonic 16-sequences and run the j=4
        // fixed-merge path (no adaptive stages).
        let n = 32;
        let mut input = Vec::new();
        for block in 0..2 {
            let mut b = workloads::uniform(16, block as u64);
            let half = 8;
            b[..half].sort();
            b[half..].sort_by(|a, b| b.cmp(a));
            input.extend(b);
        }
        let mut a: Stream<Node> = Stream::new("a", 2 * n, Layout::ZOrder);
        init_input_trees(&mut a, &input);
        let mut seqs: Stream<Value> = Stream::new("seqs", n, Layout::ZOrder);
        let mut merged: Stream<Value> = Stream::new("merged", n, Layout::ZOrder);
        let mut p = processor();
        let groups = n / 16;
        traverse16(&mut p, &a, &mut seqs, groups, GroupSource::InputTrees { n }).unwrap();
        // The traversal of in-order-stored trees reproduces the sequences.
        assert_eq!(seqs.as_slice(), &input[..]);
        fixed_merge16(&mut p, &seqs, &mut merged, groups, 1).unwrap();
        let out = merged.as_slice();
        // Group 0 ascending, group 1 descending (alternating trees).
        assert!(out[..16].windows(2).all(|w| w[0] <= w[1]));
        assert!(out[16..].windows(2).all(|w| w[0] >= w[1]));
        assert!(crate::verify::is_permutation(&out[..16], &input[..16]));
        assert!(crate::verify::is_permutation(&out[16..], &input[16..]));
    }

    #[test]
    fn fixed_merge16_final_level_is_fully_ascending() {
        let n = 16;
        let input = workloads::bitonic(16, 3);
        let src = value_stream("src", &input);
        let mut dst: Stream<Value> = Stream::new("dst", n, Layout::ZOrder);
        let mut p = processor();
        fixed_merge16(&mut p, &src, &mut dst, 1, 1).unwrap();
        assert!(crate::verify::is_sorted(dst.as_slice()));
        assert!(crate::verify::is_permutation(dst.as_slice(), &input));
    }

    #[test]
    fn kernel_output_budgets_are_respected() {
        // All Section 7 kernels stay within the 16 × 32-bit per-instance
        // output budget of the GeForce profile — the launches above would
        // have failed otherwise. This test asserts the budget is actually
        // the paper's value so a profile change cannot silently relax it.
        assert_eq!(GpuProfile::geforce_6800().max_kernel_output_bytes, 64);
        assert_eq!(GpuProfile::geforce_7800().max_kernel_output_bytes, 64);
    }
}
