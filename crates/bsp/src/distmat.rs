//! 2D block-distributed sparse matrices and the distributed SpMSpV.
//!
//! §IV-A of the paper: CombBLAS distributes an `n1 × n2` matrix over a
//! `p_r × p_c` grid; process `P(i,j)` stores submatrix `A_{i,j}` in DCSC.
//! The 2D SpMV has two communication phases [26]: **expand** (allgather of
//! frontier slices along each process *column*) and **fold** (personalized
//! all-to-all of partial products along each process *row*).
//!
//! The simulator executes the same plan: the frontier is sliced per block
//! column, each block runs the local semiring product — threads from
//! `mcm-par` stand in for both process-level and OpenMP parallelism — and
//! each block row merges its partials with the semiring "addition".
//! Communication is charged from the actual per-rank volumes.
//!
//! ## SpMSpV plans
//!
//! The MS-BFS hot loop calls the distributed product once per iteration per
//! phase. A [`SpmvPlan`] keeps one
//! [`SpmvWorkspace`](mcm_sparse::workspace::SpmvWorkspace) and one output
//! [`SpVec`] per block, plus the per-block-column frontier-slice buffers, so
//! every allocation made by the expand and local-multiply stages is reused
//! across iterations: in steady state an iteration's SpMSpV performs no
//! sparse-accumulator or slice allocation at all. [`DistMatrix::spmspv`]
//! and [`DistMatrix::spmspv_monoid`] remain as one-shot wrappers that build
//! a throwaway plan.
//!
//! Block-level and intra-block parallelism compose adaptively: with at
//! least as many blocks as worker threads the blocks themselves run in
//! parallel (serial kernel inside each); on small grids the blocks run in
//! sequence and each product uses the chunked intra-block parallel kernel,
//! whose output is bit-identical to the serial one.

use crate::comm::{Communicator, EngineComm};
use crate::ctx::DistCtx;
use crate::timers::Kernel;
use mcm_sparse::permute::Permutation;
use mcm_sparse::triples::{block_offsets, block_owner};
use mcm_sparse::workspace::{SpmvWorkspace, WorkspaceStats};
use mcm_sparse::{CscView, Dcsc, SpVec, Triples, Vidx};
use std::sync::Mutex;

/// Fold semantics of the engine-mesh product: semiring selection
/// (`spmspv`) or commutative-monoid accumulation (`spmspv_monoid`).
enum MeshFold<'f, U> {
    Select(&'f (dyn Fn(&U, &U) -> bool + Sync)),
    Monoid(&'f (dyn Fn(&mut U, U) + Sync)),
}

/// Wire format of the engine-mesh SpMSpV: expand payloads (block-local
/// column index + frontier value) and fold payloads (block-local row
/// index + partial product).
#[derive(Clone)]
enum Wire<T, U> {
    X(Vidx, T),
    Y(Vidx, U),
}

/// Per-rank outcome of one engine-mesh product session, carrying the
/// observed volumes the cost mirror charges from.
struct MeshOut<U> {
    entries: Vec<(Vidx, U)>,
    flops: u64,
    slice_nnz: u64,
    sent_pairs: u64,
    recv_pairs: u64,
}

/// Per-block reusable state of a [`SpmvPlan`].
#[derive(Debug)]
struct PlanBlock<U: Copy> {
    ws: SpmvWorkspace<U>,
    out: SpVec<U>,
}

impl<U: Copy> PlanBlock<U> {
    fn new() -> Self {
        Self { ws: SpmvWorkspace::new(), out: SpVec::new(0) }
    }
}

/// Reusable buffers for [`DistMatrix::spmspv_with_plan`] /
/// [`DistMatrix::spmspv_monoid_with_plan`]: one SpMSpV workspace and output
/// vector per grid block, plus the frontier-slice buffers of the expand
/// phase. Create once, pass to every distributed product against matrices
/// on the same grid — buffers grow to the high-water mark and are then
/// reused, so steady-state iterations allocate nothing in the kernel layer.
#[derive(Debug)]
pub struct SpmvPlan<T, U: Copy> {
    blocks: Vec<PlanBlock<U>>,
    slices: Vec<SpVec<T>>,
}

impl<T, U: Copy> Default for SpmvPlan<T, U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, U: Copy> SpmvPlan<T, U> {
    /// An empty plan; buffers materialize on first use.
    pub fn new() -> Self {
        Self { blocks: Vec::new(), slices: Vec::new() }
    }

    fn ensure(&mut self, nblocks: usize, pc: usize) {
        if self.blocks.len() < nblocks {
            self.blocks.resize_with(nblocks, PlanBlock::new);
        }
        if self.slices.len() < pc {
            self.slices.resize_with(pc, || SpVec::new(0));
        }
    }

    /// Aggregated workspace reuse counters over all blocks.
    pub fn stats(&self) -> WorkspaceStats {
        let mut total = WorkspaceStats::default();
        for b in &self.blocks {
            total.merge(&b.ws.stats);
        }
        total
    }
}

/// A sparse matrix distributed over a 2D process grid in DCSC blocks.
///
/// # Example
///
/// ```
/// use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
/// use mcm_sparse::{SpVec, Triples};
///
/// let t = Triples::from_edges(4, 4, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
/// let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1)); // 2x2 grid
/// let a = DistMatrix::from_triples(&ctx, &t);
/// let x = SpVec::from_pairs(4, vec![(0, 0u32), (2, 2)]);
/// let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| inc < acc);
/// assert_eq!(y.entries(), &[(0, 0), (2, 2)]);
/// assert!(ctx.timers.seconds(Kernel::SpMV) > 0.0); // modeled time accrued
/// ```
#[derive(Clone, Debug)]
pub struct DistMatrix {
    nrows: usize,
    ncols: usize,
    pr: usize,
    pc: usize,
    /// Global row index where each block row starts (`len == pr + 1`).
    row_off: Vec<usize>,
    /// Global column index where each block column starts (`len == pc + 1`).
    col_off: Vec<usize>,
    /// Row-major `pr × pc` DCSC blocks with block-local coordinates.
    blocks: Vec<Dcsc>,
    nnz: usize,
}

impl DistMatrix {
    /// Distributes `t` over the grid of `ctx` (balanced block distribution
    /// in both dimensions, as CombBLAS does). Converts `t` to CSC once
    /// (sorting and deduplicating) and scatters the view.
    pub fn from_triples(ctx: &DistCtx, t: &Triples) -> Self {
        Self::with_grid_csc(
            &t.to_csc().view(),
            ctx.machine.grid.pr,
            ctx.machine.grid.pc,
            None,
            None,
        )
    }

    /// Distributes the graph behind `v` over an explicit `pr × pc` grid,
    /// with the relabeling fused into the scatter: entry `(i, j)` lands as
    /// `(rowp(i), colp(j))`, so no permuted copy of the graph is ever
    /// materialized.
    pub fn with_grid_csc(
        v: &CscView<'_>,
        pr: usize,
        pc: usize,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> Self {
        Self::scatter(v, pr, pc, rowp, colp, false).0
    }

    /// Builds `A` and `Aᵀ` together from one scatter pass over `v` —
    /// permutation lookups and block routing are paid once for both
    /// orientations. Used by the matching pipeline, which needs the
    /// transpose for every row-proposing initializer.
    pub fn with_grid_csc_pair(
        v: &CscView<'_>,
        pr: usize,
        pc: usize,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> (Self, Self) {
        let (a, at) = Self::scatter(v, pr, pc, rowp, colp, true);
        (a, at.expect("scatter builds the transpose on request"))
    }

    /// The one assembly body: `A` (and `Aᵀ` when `with_t`) of the relabeled
    /// view on a `pr × pc` grid.
    ///
    /// On a 1×1 grid (the shared-memory backend) no pair list ever exists:
    /// the unpermuted case compacts the view straight into DCSC
    /// ([`Dcsc::from_csc_view`]), the permuted case streams mapped pairs
    /// through the two-pass counting builder ([`Dcsc::from_pair_iter`]),
    /// and `Aᵀ` is derived by counting transpose over the compacted
    /// nonzeros — bit-identical (the transpose of a canonical DCSC is the
    /// canonical DCSC of the swapped pairs). Multi-block grids scatter into
    /// per-block pair buffers and compact each block in parallel.
    fn scatter(
        v: &CscView<'_>,
        pr: usize,
        pc: usize,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
        with_t: bool,
    ) -> (Self, Option<Self>) {
        let (n1, n2) = (v.nrows(), v.ncols());
        if pr == 1 && pc == 1 {
            let a_block = if rowp.is_none() && colp.is_none() {
                Dcsc::from_csc_view(v)
            } else {
                Dcsc::from_pair_iter(n1, n2, || {
                    v.iter().map(|(i, j)| {
                        (rowp.map_or(i, |p| p.apply(i)), colp.map_or(j, |p| p.apply(j)))
                    })
                })
            };
            let at = with_t.then(|| Self::from_blocks(n2, n1, 1, 1, vec![a_block.transposed()]));
            return (Self::from_blocks(n1, n2, 1, 1, vec![a_block]), at);
        }
        let row_off = block_offsets(n1, pr);
        let col_off = block_offsets(n2, pc);
        let t_row_off = block_offsets(n2, pr);
        let t_col_off = block_offsets(n1, pc);
        let cap = v.nnz() / (pr * pc) + 8;
        let new_parts = |n: usize| -> Vec<Vec<(Vidx, Vidx)>> {
            (0..n).map(|_| Vec::with_capacity(cap)).collect()
        };
        let mut parts = new_parts(pr * pc);
        let mut t_parts = new_parts(if with_t { pr * pc } else { 0 });
        for (i, j) in v.iter() {
            let pi = rowp.map_or(i, |p| p.apply(i));
            let pj = colp.map_or(j, |p| p.apply(j));
            let bi = block_owner(&row_off, pi as usize);
            let bj = block_owner(&col_off, pj as usize);
            parts[bi * pc + bj].push((pi - row_off[bi] as Vidx, pj - col_off[bj] as Vidx));
            if with_t {
                let tbi = block_owner(&t_row_off, pj as usize);
                let tbj = block_owner(&t_col_off, pi as usize);
                t_parts[tbi * pc + tbj]
                    .push((pj - t_row_off[tbi] as Vidx, pi - t_col_off[tbj] as Vidx));
            }
        }
        let build = |off_r: &[usize], off_c: &[usize], parts: &[Vec<(Vidx, Vidx)>]| -> Vec<Dcsc> {
            mcm_par::par_map_range(parts.len(), mcm_par::max_threads(), |b| {
                let (bi, bj) = (b / pc, b % pc);
                Dcsc::from_unsorted_pairs(
                    off_r[bi + 1] - off_r[bi],
                    off_c[bj + 1] - off_c[bj],
                    &parts[b],
                )
            })
        };
        let a = Self::from_blocks(n1, n2, pr, pc, build(&row_off, &col_off, &parts));
        let at = with_t
            .then(|| Self::from_blocks(n2, n1, pr, pc, build(&t_row_off, &t_col_off, &t_parts)));
        (a, at)
    }

    /// Wraps row-major `pr × pc` blocks of an `nrows × ncols` matrix under
    /// the balanced block distribution.
    fn from_blocks(nrows: usize, ncols: usize, pr: usize, pc: usize, blocks: Vec<Dcsc>) -> Self {
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        let (row_off, col_off) = (block_offsets(nrows, pr), block_offsets(ncols, pc));
        Self { nrows, ncols, pr, pc, row_off, col_off, blocks, nnz }
    }

    /// Global row count.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Grid shape `(pr, pc)`.
    #[inline]
    pub fn grid(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// The DCSC block at grid position `(bi, bj)`.
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &Dcsc {
        &self.blocks[bi * self.pc + bj]
    }

    /// Fraction of blocks that are hypersparse (`nnz < ncols`); grows with
    /// the grid and motivates DCSC (storage ablation).
    pub fn hypersparse_fraction(&self) -> f64 {
        let h = self.blocks.iter().filter(|b| b.is_hypersparse()).count();
        h as f64 / self.blocks.len() as f64
    }

    /// Expand phase: slices the frontier into the plan's per-block-column
    /// buffers (reused across calls) and returns the modeled allgather
    /// bottleneck volume.
    fn expand_into_slices<T: Copy>(&self, xs: &[(Vidx, T)], slices: &mut [SpVec<T>]) -> u64 {
        let mut expand_max = 0u64;
        for bj in 0..self.pc {
            let lo = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj]);
            let hi = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj + 1]);
            let off = self.col_off[bj] as Vidx;
            expand_max = expand_max.max(2 * (hi - lo) as u64);
            let slice = &mut slices[bj];
            slice.reset(self.col_off[bj + 1] - self.col_off[bj]);
            for &(j, v) in &xs[lo..hi] {
                slice.push(j - off, v);
            }
        }
        expand_max
    }

    /// Distributed semiring SpMSpV: `y = A ⊗ x` where `x` is a sparse vector
    /// over the columns and `y` over the rows.
    ///
    /// One-shot wrapper over [`DistMatrix::spmspv_with_plan`] with a
    /// throwaway plan; iteration loops should hold their own [`SpmvPlan`].
    ///
    /// * `mul(j, xj)` — semiring multiply, receives the **global** column
    ///   index (BFS rewrites the parent to `j` here). Evaluated once per
    ///   matched column; its value is cloned per traversed edge.
    /// * `take_incoming(acc, inc)` — semiring addition as a selection.
    ///
    /// Charges to `kernel`: expand allgather (bottleneck grid column), local
    /// multiply (`γ · max-block-flops / t`), fold alltoallv (bottleneck grid
    /// row). Deterministic: candidates arrive per row in ascending global
    /// column order, exactly like the serial kernel.
    pub fn spmspv<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        let mut plan = SpmvPlan::new();
        self.spmspv_with_plan(ctx, kernel, &mut plan, x, mul, take_incoming)
    }

    /// [`DistMatrix::spmspv`] with caller-owned reusable buffers: the plan's
    /// per-block workspaces, output vectors, and frontier slices persist
    /// across calls, so repeated products (the MS-BFS iteration loop)
    /// allocate nothing in the kernel layer once warm.
    pub fn spmspv_with_plan<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        let nblocks = self.pr * self.pc;
        plan.ensure(nblocks, self.pc);
        let SpmvPlan { blocks: states, slices } = plan;

        // ---- Expand: slice the frontier per block column. ----------------
        let expand_max = self.expand_into_slices(x.entries(), slices);
        ctx.charge_allgather(kernel, self.pr, expand_max);

        // ---- Local multiply: every block, reusing its workspace. ----------
        // With enough blocks to occupy the machine, parallelize across
        // blocks (serial kernel inside each). On small grids, run blocks in
        // sequence and let each product use the intra-block chunked kernel —
        // bit-identical output either way.
        let workers = mcm_par::max_threads();
        let slices = &*slices;
        let flops_per_block: Vec<u64> = if nblocks >= workers {
            mcm_par::par_for_each_mut(&mut states[..nblocks], workers, |b, st| {
                let bj = b % self.pc;
                let off = self.col_off[bj] as Vidx;
                st.ws.spmspv_into(
                    &self.blocks[b],
                    &slices[bj],
                    |lj, v| mul(lj + off, v),
                    |acc, inc| take_incoming(acc, inc),
                    &mut st.out,
                )
            })
        } else {
            states[..nblocks]
                .iter_mut()
                .enumerate()
                .map(|(b, st)| {
                    let bj = b % self.pc;
                    let off = self.col_off[bj] as Vidx;
                    st.ws.spmspv_parallel_into(
                        &self.blocks[b],
                        &slices[bj],
                        workers,
                        |lj, v| mul(lj + off, v),
                        |acc, inc| take_incoming(acc, inc),
                        &mut st.out,
                    )
                })
                .collect()
        };
        let max_flops = flops_per_block.iter().copied().max().unwrap_or(0);
        ctx.charge_compute(kernel, max_flops);

        // ---- Fold: merge partials along each block row. -------------------
        // Per-row candidates must arrive in ascending global column order
        // (matching serial semantics for order-sensitive combiners): extend
        // in ascending bj order, then a stable by-row sort.
        struct FoldOut<U> {
            entries: Vec<(Vidx, U)>,
            max_send: u64,
            max_recv: u64,
        }

        let states = &states[..nblocks];
        let folded: Vec<FoldOut<U>> = mcm_par::par_map_range(self.pr, workers, |bi| {
            let parts = &states[bi * self.pc..(bi + 1) * self.pc];
            let block_rows = self.row_off[bi + 1] - self.row_off[bi];
            let max_send = parts.iter().map(|st| 2 * st.out.nnz() as u64).max().unwrap_or(0);
            let mut merged: Vec<(Vidx, U)> =
                Vec::with_capacity(parts.iter().map(|st| st.out.nnz()).sum());
            for st in parts {
                merged.extend(st.out.iter().map(|(i, v)| (i, *v)));
            }
            // Stable by-row sort keeps ascending-bj (hence ascending
            // global column) arrival order per row.
            merged.sort_by_key(|&(i, _)| i);
            // Receiver volumes come from the PRE-merge partials: the
            // wire carries every block's candidate, and the receiving
            // rank folds duplicates only after they arrive.
            let mut recv = vec![0u64; self.pc];
            for &(i, _) in &merged {
                recv[crate::collectives::balanced_owner(block_rows.max(1), self.pc, i as usize)] +=
                    2;
            }
            let max_recv = recv.into_iter().max().unwrap_or(0);
            let mut out: Vec<(Vidx, U)> = Vec::with_capacity(merged.len());
            for (i, v) in merged {
                match out.last_mut() {
                    Some((last, acc)) if *last == i => {
                        if take_incoming(acc, &v) {
                            *acc = v;
                        }
                    }
                    _ => out.push((i, v)),
                }
            }
            // Globalize row indices.
            let off = self.row_off[bi] as Vidx;
            let entries = out.into_iter().map(|(i, v)| (i + off, v)).collect();
            FoldOut { entries, max_send, max_recv }
        });

        let fold_bottleneck = folded.iter().map(|f| f.max_send.max(f.max_recv)).max().unwrap_or(0);
        ctx.charge_alltoallv(kernel, self.pc, fold_bottleneck);

        let mut entries = Vec::with_capacity(folded.iter().map(|f| f.entries.len()).sum());
        for f in folded {
            entries.extend(f.entries);
        }
        SpVec::from_sorted_pairs(self.nrows, entries)
    }

    /// Bottom-up ("pull") frontier expansion — the direction-optimizing
    /// counterpart of [`DistMatrix::spmspv`], per the paper's §VII future
    /// work ("the bottom-up BFS in distributed memory", after Beamer's
    /// direction-optimizing BFS).
    ///
    /// `self` must be the **transpose** `Aᵀ` (an `n2 × n1` matrix whose
    /// columns are the rows of `A`). Instead of scanning the frontier
    /// columns' adjacency, every *candidate* (unvisited) row scans its own
    /// adjacency and stops at the first frontier member — a large win when
    /// the frontier covers much of the graph, because most rows stop after
    /// O(1) probes.
    ///
    /// Within a block, adjacency is scanned in ascending column order, and
    /// blocks merge in ascending block-row order, so with the `minParent`
    /// semiring the early exit is *exact*: the result is bit-identical to
    /// the top-down product. (Randomized semirings get a valid but possibly
    /// different parent choice; MCM correctness does not depend on which.)
    ///
    /// Charges to `kernel`: an allgather of the frontier slice along each
    /// grid column (bitmap + values — the frontier is dense here, which is
    /// precisely when bottom-up is chosen), the scanned-edge compute at the
    /// bottleneck block, and the candidate-merge alltoallv along grid rows.
    #[allow(clippy::too_many_arguments)] // mirrors the kernel's real parameter surface
    pub fn bottom_up_spmspv<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        candidates: &[Vidx],
        frontier: &[Option<T>],
        frontier_nnz: usize,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Sync,
        U: Send,
    {
        // In Aᵀ terms: nrows = n2 (A's columns = frontier side),
        // ncols = n1 (A's rows = candidate side).
        assert_eq!(frontier.len(), self.nrows, "frontier must cover A's columns");
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));

        // ---- Frontier replication along each grid column. -----------------
        // Every process needs the frontier slice matching its block's
        // A-column range: a bitmap word per 64 columns plus the values.
        let mut expand_max = 0u64;
        for bi in 0..self.pr {
            let range = self.row_off[bi + 1] - self.row_off[bi];
            let slice_nnz = frontier[self.row_off[bi]..self.row_off[bi + 1]]
                .iter()
                .filter(|v| v.is_some())
                .count() as u64;
            expand_max = expand_max.max(range as u64 / 64 + 2 * slice_nnz);
        }
        // The slice for block row bi is replicated across that grid row's
        // pc ranks (on the square grids the paper uses, pr == pc).
        ctx.charge_allgather(kernel, self.pc, expand_max);
        let _ = frontier_nnz;

        // ---- Per-block candidate scans with early exit. --------------------
        struct BlockOut<U> {
            bi: usize,
            /// (global candidate index, chosen value)
            hits: Vec<(Vidx, U)>,
            flops: u64,
        }
        let outs: Vec<BlockOut<U>> =
            mcm_par::par_map_range(self.pr * self.pc, mcm_par::max_threads(), |b| {
                let (bi, bj) = (b / self.pc, b % self.pc);
                let block = &self.blocks[b];
                let col_lo = self.col_off[bj];
                let col_hi = self.col_off[bj + 1];
                let lo = candidates.partition_point(|&r| (r as usize) < col_lo);
                let hi = candidates.partition_point(|&r| (r as usize) < col_hi);
                let row_base = self.row_off[bi] as Vidx;
                let mut hits = Vec::new();
                let mut flops = 0u64;
                for &r in &candidates[lo..hi] {
                    let local = (r as usize - col_lo) as Vidx;
                    for &li in block.col(local as usize) {
                        flops += 1;
                        let gcol = li + row_base; // a column of A
                        if let Some(v) = &frontier[gcol as usize] {
                            hits.push((r, mul(gcol, v)));
                            break; // early exit: first frontier neighbour
                        }
                    }
                }
                BlockOut { bi, hits, flops }
            });
        let max_flops = outs.iter().map(|o| o.flops).max().unwrap_or(0);
        ctx.charge_compute(kernel, max_flops);

        // ---- Merge candidate hits across block rows (grid-row reduce). ----
        let max_hits = outs.iter().map(|o| 2 * o.hits.len() as u64).max().unwrap_or(0);
        ctx.charge_alltoallv(kernel, self.pr, max_hits);
        let mut ordered: Vec<BlockOut<U>> = outs;
        ordered.sort_by_key(|o| o.bi); // ascending A-column ranges
        let mut merged: Vec<(Vidx, U)> = Vec::new();
        for out in ordered {
            for (r, v) in out.hits {
                merged.push((r, v));
            }
        }
        merged.sort_by_key(|&(r, _)| r); // stable: keeps ascending-bi arrival
        let mut result: Vec<(Vidx, U)> = Vec::with_capacity(merged.len());
        for (r, v) in merged {
            match result.last_mut() {
                Some((last, acc)) if *last == r => {
                    if take_incoming(acc, &v) {
                        *acc = v;
                    }
                }
                _ => result.push((r, v)),
            }
        }
        SpVec::from_sorted_pairs(self.ncols, result)
    }

    /// Distributed SpMSpV over a general *monoid* addition (`combine`
    /// folds a candidate into the accumulator — must be commutative and
    /// associative, e.g. `+` for the counting semirings the maximal-matching
    /// initializers use for dynamic degree updates). Same communication plan
    /// and charging as [`DistMatrix::spmspv`]; one-shot wrapper over
    /// [`DistMatrix::spmspv_monoid_with_plan`].
    pub fn spmspv_monoid<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        let mut plan = SpmvPlan::new();
        self.spmspv_monoid_with_plan(ctx, kernel, &mut plan, x, mul, combine)
    }

    /// [`DistMatrix::spmspv_monoid`] with caller-owned reusable buffers
    /// (see [`DistMatrix::spmspv_with_plan`]).
    pub fn spmspv_monoid_with_plan<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        let nblocks = self.pr * self.pc;
        plan.ensure(nblocks, self.pc);
        let SpmvPlan { blocks: states, slices } = plan;

        let expand_max = self.expand_into_slices(x.entries(), slices);
        ctx.charge_allgather(kernel, self.pr, expand_max);

        let workers = mcm_par::max_threads();
        let slices = &*slices;
        let flops_per_block: Vec<u64> =
            mcm_par::par_for_each_mut(&mut states[..nblocks], workers, |b, st| {
                let bj = b % self.pc;
                let off = self.col_off[bj] as Vidx;
                st.ws.spmspv_monoid_into(
                    &self.blocks[b],
                    &slices[bj],
                    |lj, v| mul(lj + off, v),
                    |acc, inc| combine(acc, inc),
                    &mut st.out,
                )
            });
        let max_flops = flops_per_block.iter().copied().max().unwrap_or(0);
        ctx.charge_compute(kernel, max_flops);

        let states = &states[..nblocks];
        let folded: Vec<(Vec<(Vidx, U)>, u64)> = mcm_par::par_map_range(self.pr, workers, |bi| {
            let parts = &states[bi * self.pc..(bi + 1) * self.pc];
            let block_rows = self.row_off[bi + 1] - self.row_off[bi];
            let max_send = parts.iter().map(|st| 2 * st.out.nnz() as u64).max().unwrap_or(0);
            let mut merged: Vec<(Vidx, U)> =
                Vec::with_capacity(parts.iter().map(|st| st.out.nnz()).sum());
            for st in parts {
                merged.extend(st.out.iter().map(|(i, v)| (i, *v)));
            }
            merged.sort_by_key(|&(i, _)| i);
            // Pre-merge receive volumes, as in `spmspv`'s fold.
            let mut recv = vec![0u64; self.pc];
            for &(i, _) in &merged {
                recv[crate::collectives::balanced_owner(block_rows.max(1), self.pc, i as usize)] +=
                    2;
            }
            let max_recv = recv.into_iter().max().unwrap_or(0);
            let mut out: Vec<(Vidx, U)> = Vec::with_capacity(merged.len());
            for (i, v) in merged {
                match out.last_mut() {
                    Some((last, acc)) if *last == i => combine(acc, v),
                    _ => out.push((i, v)),
                }
            }
            let off = self.row_off[bi] as Vidx;
            let entries: Vec<(Vidx, U)> = out.into_iter().map(|(i, v)| (i + off, v)).collect();
            (entries, max_send.max(max_recv))
        });

        let fold_bottleneck = folded.iter().map(|(_, s)| *s).max().unwrap_or(0);
        ctx.charge_alltoallv(kernel, self.pc, fold_bottleneck);

        let mut entries = Vec::with_capacity(folded.iter().map(|(e, _)| e.len()).sum());
        for (e, _) in folded {
            entries.extend(e);
        }
        SpVec::from_sorted_pairs(self.nrows, entries)
    }

    /// Shared-memory-backend SpMSpV: one **fused** product over the single
    /// physical block, with expand/fold volumes accounted at the logical
    /// `lpr × lpc` grid.
    ///
    /// Where [`DistMatrix::spmspv_with_plan`] materializes per-block-column
    /// frontier slices (expand) and per-block partial vectors that are
    /// concatenated, sorted, and deduplicated (fold), this path writes every
    /// contribution **directly into the destination's region of one shared
    /// sparse accumulator** — the fused expand/fold of the shared backend:
    /// no slice copies, no partial buffers, no merge sort. The α–β–γ
    /// charges are identical to the distributed execution's because the
    /// fused kernel counts, in-line, exactly the per-logical-block volumes
    /// the split execution would ship (see
    /// [`SpmvWorkspace::spmspv_fused_into`]); results are bit-identical by
    /// grid independence (per-row candidates fold in ascending global
    /// column order in both).
    ///
    /// `self` must live on a 1×1 (single physical block) grid.
    #[allow(clippy::too_many_arguments)] // mirrors spmspv_with_plan + the logical grid
    pub(crate) fn spmspv_shared<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        lpr: usize,
        lpc: usize,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        assert_eq!((self.pr, self.pc), (1, 1), "shared kernel needs a single physical block");
        plan.ensure(1, 1);
        let lrow_off = block_offsets(self.nrows, lpr);
        let lcol_off = block_offsets(self.ncols, lpc);

        // Logical expand: the bottleneck frontier slice along a grid column
        // (no slice is materialized — the fused kernel reads `x` in place).
        ctx.charge_allgather(kernel, lpr, logical_expand_max(x.entries(), &lcol_off));

        let mut y = SpVec::new(0);
        let vols = plan.blocks[0].ws.spmspv_fused_into(
            &self.blocks[0],
            x,
            &lrow_off,
            &lcol_off,
            |bi, li| {
                let rows = (lrow_off[bi + 1] - lrow_off[bi]).max(1);
                crate::collectives::balanced_owner(rows, lpc, li)
            },
            |j, v| mul(j, v),
            |acc, inc| take_incoming(acc, inc),
            &mut y,
        );
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, lpc, vols.fold_bottleneck);
        y
    }

    /// Monoid counterpart of [`DistMatrix::spmspv_shared`] (mirrors
    /// [`DistMatrix::spmspv_monoid_with_plan`]'s charges).
    #[allow(clippy::too_many_arguments)] // mirrors spmspv_monoid_with_plan + the logical grid
    pub(crate) fn spmspv_monoid_shared<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        lpr: usize,
        lpc: usize,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        assert_eq!((self.pr, self.pc), (1, 1), "shared kernel needs a single physical block");
        plan.ensure(1, 1);
        let lrow_off = block_offsets(self.nrows, lpr);
        let lcol_off = block_offsets(self.ncols, lpc);

        ctx.charge_allgather(kernel, lpr, logical_expand_max(x.entries(), &lcol_off));

        let mut y = SpVec::new(0);
        let vols = plan.blocks[0].ws.spmspv_monoid_fused_into(
            &self.blocks[0],
            x,
            &lrow_off,
            &lcol_off,
            |bi, li| {
                let rows = (lrow_off[bi + 1] - lrow_off[bi]).max(1);
                crate::collectives::balanced_owner(rows, lpc, li)
            },
            |j, v| mul(j, v),
            |acc, inc| combine(acc, inc),
            &mut y,
        );
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, lpc, vols.fold_bottleneck);
        y
    }

    /// Engine-backend SpMSpV: the same expand → multiply → fold plan as
    /// [`DistMatrix::spmspv_with_plan`], executed as one real session on
    /// the [`EngineComm`] channel mesh with rank `(bi, bj)` owning plan
    /// block `(bi, bj)` — the frontier allgathers along each grid column
    /// and partials fold along each grid row, exactly the CombBLAS 2D
    /// pattern the simulator models. Bit-identical to the simulator
    /// (candidates fold per row in ascending global column order) and
    /// charge-mirrored from the observed per-rank volumes.
    pub(crate) fn spmspv_mesh<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.mesh_product(eng, kernel, plan, x, &mul, MeshFold::Select(&take_incoming))
    }

    /// Engine-backend counterpart of [`DistMatrix::spmspv_monoid_with_plan`]
    /// (see [`DistMatrix::spmspv_mesh`]).
    pub(crate) fn spmspv_monoid_mesh<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.mesh_product(eng, kernel, plan, x, &mul, MeshFold::Monoid(&combine))
    }

    fn mesh_product<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<T, U>,
        x: &SpVec<T>,
        mul: &(dyn Fn(Vidx, &T) -> U + Sync),
        fold: MeshFold<'_, U>,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        let (pr, pc) = (self.pr, self.pc);
        let grid = &eng.ctx().machine.grid;
        assert_eq!((grid.pr, grid.pc), (pr, pc), "matrix grid must match the engine mesh");
        let nblocks = pr * pc;
        let p = nblocks;
        plan.ensure(nblocks, pc);

        // Owner distribution of the frontier: block column bj's x-range is
        // sub-split across that grid column's pr ranks, so the expand
        // allgather moves exactly the volume the cost model charges.
        let xs = x.entries();
        let mut piece_data: Vec<Vec<Wire<T, U>>> = (0..p).map(|_| Vec::new()).collect();
        for bj in 0..pc {
            let lo = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj]);
            let hi = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj + 1]);
            let off = self.col_off[bj] as Vidx;
            let offs = block_offsets(hi - lo, pr);
            for bi in 0..pr {
                let seg = &xs[lo + offs[bi]..lo + offs[bi + 1]];
                piece_data[bi * pc + bj] = seg.iter().map(|&(j, v)| Wire::X(j - off, v)).collect();
            }
        }
        type PieceSlot<T, U> = Mutex<Option<Vec<Wire<T, U>>>>;
        let pieces: Vec<PieceSlot<T, U>> =
            piece_data.into_iter().map(|d| Mutex::new(Some(d))).collect();

        // 1:1 rank ↔ plan block — the mesh *is* the matrix grid, so every
        // rank reuses "its" workspace and output buffer across calls.
        let slots: Vec<Mutex<&mut PlanBlock<U>>> =
            plan.blocks[..nblocks].iter_mut().map(Mutex::new).collect();

        let threads = eng.ctx().threads();
        let row_off = &self.row_off;
        let col_off = &self.col_off;
        let blocks = &self.blocks;
        let fold = &fold;

        let results: Vec<MeshOut<U>> = eng.session::<Wire<T, U>, _, _>(|mut comm| {
            let q = comm.rank();
            let (bi, bj) = (q / pc, q % pc);

            // -- Expand: allgather frontier pieces along this grid column.
            // Group order is ascending bi and pieces are consecutive
            // subranges, so concatenation rebuilds the sorted slice.
            let mine = pieces[q].lock().unwrap().take().expect("frontier piece consumed twice");
            let col_group: Vec<usize> = (0..pr).map(|i| i * pc + bj).collect();
            let gathered = comm.allgatherv(&col_group, mine);
            let mut slice_entries: Vec<(Vidx, T)> = Vec::new();
            for msg in gathered {
                for w in msg {
                    match w {
                        Wire::X(lj, v) => slice_entries.push((lj, v)),
                        Wire::Y(..) => unreachable!("fold payload during expand"),
                    }
                }
            }
            let slice_nnz = slice_entries.len() as u64;
            let slice = SpVec::from_sorted_pairs(col_off[bj + 1] - col_off[bj], slice_entries);

            // -- Local multiply into this rank's plan block.
            let mut guard = slots[q].lock().unwrap();
            let st = &mut **guard;
            let off = col_off[bj] as Vidx;
            let block = &blocks[q];
            let flops = match fold {
                MeshFold::Select(take) => {
                    if threads > 1 {
                        st.ws.spmspv_parallel_into(
                            block,
                            &slice,
                            threads,
                            |lj, v| mul(lj + off, v),
                            |acc, inc| take(acc, inc),
                            &mut st.out,
                        )
                    } else {
                        st.ws.spmspv_into(
                            block,
                            &slice,
                            |lj, v| mul(lj + off, v),
                            |acc, inc| take(acc, inc),
                            &mut st.out,
                        )
                    }
                }
                MeshFold::Monoid(comb) => st.ws.spmspv_monoid_into(
                    block,
                    &slice,
                    |lj, v| mul(lj + off, v),
                    |acc, inc| comb(acc, inc),
                    &mut st.out,
                ),
            };

            // -- Fold: route partials to their row owners along this grid
            // row; group order (ascending bj) plus the stable by-row sort
            // keeps per-row candidates in ascending global column order.
            let block_rows = (row_off[bi + 1] - row_off[bi]).max(1);
            let mut sends: Vec<Vec<Wire<T, U>>> = (0..pc).map(|_| Vec::new()).collect();
            for (i, v) in st.out.iter() {
                let owner = crate::collectives::balanced_owner(block_rows, pc, i as usize);
                sends[owner].push(Wire::Y(i, *v));
            }
            let sent_pairs = st.out.nnz() as u64;
            drop(guard);
            let row_group: Vec<usize> = (0..pc).map(|j| bi * pc + j).collect();
            let recvd = comm.alltoallv(&row_group, sends);
            let mut merged: Vec<(Vidx, U)> = Vec::new();
            for msg in recvd {
                for w in msg {
                    match w {
                        Wire::Y(i, v) => merged.push((i, v)),
                        Wire::X(..) => unreachable!("expand payload during fold"),
                    }
                }
            }
            let recv_pairs = merged.len() as u64;
            merged.sort_by_key(|&(i, _)| i);
            let mut folded: Vec<(Vidx, U)> = Vec::with_capacity(merged.len());
            for (i, v) in merged {
                match folded.last_mut() {
                    Some((last, acc)) if *last == i => match fold {
                        MeshFold::Select(take) => {
                            if take(acc, &v) {
                                *acc = v;
                            }
                        }
                        MeshFold::Monoid(comb) => comb(acc, v),
                    },
                    _ => folded.push((i, v)),
                }
            }
            let roff = row_off[bi] as Vidx;
            let entries: Vec<(Vidx, U)> = folded.into_iter().map(|(i, v)| (i + roff, v)).collect();
            MeshOut { entries, flops, slice_nnz, sent_pairs, recv_pairs }
        });

        // Mirror the simulator's charges from the observed volumes (the
        // exact formulas of `spmspv_with_plan`, computed per rank here:
        // send/recv pairs are 2 words each, slices 2 words per entry).
        let expand_max = results.iter().map(|r| 2 * r.slice_nnz).max().unwrap_or(0);
        let max_flops = results.iter().map(|r| r.flops).max().unwrap_or(0);
        let fold_bottleneck =
            results.iter().map(|r| (2 * r.sent_pairs).max(2 * r.recv_pairs)).max().unwrap_or(0);
        let ctx = eng.ctx_mut();
        ctx.charge_allgather(kernel, pr, expand_max);
        ctx.charge_compute(kernel, max_flops);
        ctx.charge_alltoallv(kernel, pc, fold_bottleneck);

        // Rank order is row-major over the grid and outputs are globalized
        // per block row, so rank-order concatenation is globally ascending.
        let mut entries = Vec::with_capacity(results.iter().map(|r| r.entries.len()).sum());
        for r in results {
            entries.extend(r.entries);
        }
        SpVec::from_sorted_pairs(self.nrows, entries)
    }
}

/// Bottleneck expand volume of a frontier against logical column-block
/// offsets: `max_bj 2 · |{entries in block bj}|`, identical to what
/// `expand_into_slices` reports without building the slices.
fn logical_expand_max<T>(xs: &[(Vidx, T)], lcol_off: &[usize]) -> u64 {
    let mut expand_max = 0u64;
    for w in lcol_off.windows(2) {
        let lo = xs.partition_point(|&(j, _)| (j as usize) < w[0]);
        let hi = xs.partition_point(|&(j, _)| (j as usize) < w[1]);
        expand_max = expand_max.max(2 * (hi - lo) as u64);
    }
    expand_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn fig2_triples() -> Triples {
        Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        )
    }

    fn serial_reference(t: &Triples, x: &SpVec<(Vidx, Vidx)>) -> SpVec<(Vidx, Vidx)> {
        let a = Dcsc::from_triples(t);
        mcm_sparse::spmspv(&a, x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0).y
    }

    #[test]
    fn distributed_matches_serial_on_all_grids() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let want = serial_reference(&t, &x);
        for dim in 1..=4 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn plan_reuse_matches_one_shot_across_iterations() {
        // The same plan serves many products (different frontiers) with
        // identical results, and its workspaces report steady-state reuse.
        let t = fig2_triples();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let mut plan: SpmvPlan<(Vidx, Vidx), (Vidx, Vidx)> = SpmvPlan::new();
        let frontiers = [
            SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]),
            SpVec::from_pairs(5, vec![(2, (2, 2))]),
            SpVec::from_pairs(5, vec![(0, (0, 0)), (3, (3, 3))]),
        ];
        for x in &frontiers {
            let via_plan = a.spmspv_with_plan(
                &mut ctx,
                Kernel::SpMV,
                &mut plan,
                x,
                |j, &(_, r)| (j, r),
                |acc, inc| inc.0 < acc.0,
            );
            let one_shot =
                a.spmspv(&mut ctx, Kernel::SpMV, x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            assert_eq!(via_plan, one_shot);
        }
        let stats = plan.stats();
        assert!(stats.calls >= 3);
        assert!(stats.reuse_hits > 0, "later iterations must reuse warm buffers");
    }

    #[test]
    fn blocks_partition_nnz() {
        let t = fig2_triples();
        let a = DistMatrix::with_grid_csc(&t.to_csc().view(), 3, 2, None, None);
        assert_eq!(a.nnz(), 9);
        let sum: usize = (0..3)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| a.block(i, j).nnz())
            .sum();
        assert_eq!(sum, 9);
    }

    #[test]
    fn charges_grow_with_grid() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, 0u32), (1, 1), (4, 4)]);
        let run = |dim: usize| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let _ = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| inc < acc);
            ctx.timers.seconds(Kernel::SpMV)
        };
        // On one process the latency terms vanish; on a 2x2 grid they don't.
        assert!(run(2) > run(1));
    }

    #[test]
    fn empty_frontier_yields_empty_result() {
        let t = fig2_triples();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let x: SpVec<u32> = SpVec::new(5);
        let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |_, _| false);
        assert!(y.is_empty());
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn bottom_up_matches_top_down_under_min_parent() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        // Dense frontier map over the 5 columns.
        let mut fmap: Vec<Option<(Vidx, Vidx)>> = vec![None; 5];
        for (j, &v) in x.iter() {
            fmap[j as usize] = Some(v);
        }
        for dim in 1..=3 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let top =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            let at = DistMatrix::from_triples(&ctx, &t.transposed());
            let candidates: Vec<Vidx> = (0..4).collect(); // all rows unvisited
            let bottom = at.bottom_up_spmspv(
                &mut ctx,
                Kernel::SpMV,
                &candidates,
                &fmap,
                x.nnz(),
                |j, &(_, r)| (j, r),
                |acc: &(Vidx, Vidx), inc| inc.0 < acc.0,
            );
            assert_eq!(bottom, top, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn bottom_up_respects_candidate_subset() {
        let t = fig2_triples();
        let mut fmap: Vec<Option<u32>> = vec![None; 5];
        fmap[0] = Some(7); // only c1 in frontier
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        // Only rows r2 (adjacent to c1) and r3 (not adjacent) are candidates.
        let y = at.bottom_up_spmspv(
            &mut ctx,
            Kernel::SpMV,
            &[1, 2],
            &fmap,
            1,
            |j, &v| (j, v),
            |_, _| false,
        );
        assert_eq!(y.entries(), &[(1, (0, 7))]);
    }

    #[test]
    fn bottom_up_early_exit_saves_flops() {
        // Full frontier: every candidate stops at its first neighbour, so
        // scanned edges = number of candidates (rows with any neighbour).
        let t = fig2_triples();
        let fmap: Vec<Option<u32>> = (0..5).map(Some).collect();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(1, 1));
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        let before = ctx.timers.seconds(Kernel::SpMV);
        let _ = at.bottom_up_spmspv(
            &mut ctx,
            Kernel::SpMV,
            &[0, 1, 2, 3],
            &fmap,
            5,
            |j, &v| (j, v),
            |_, _| false,
        );
        // With gamma = 8 ns and 4 single-probe candidates on one process:
        // exactly 4 probes charged (p = 1: no comm terms).
        let scanned = (ctx.timers.seconds(Kernel::SpMV) - before) / ctx.cost.gamma;
        assert!((scanned - 4.0).abs() < 1e-6, "scanned {scanned} edges, expected 4");
    }

    #[test]
    fn monoid_matches_serial_counting() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (4, ())]);
        let a_serial = Dcsc::from_triples(&t);
        let want = mcm_sparse::spmspv_monoid(&a_serial, &x, |_, _| 1u32, |a, b| *a += b).y;
        for dim in 1..=3 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y = a.spmspv_monoid(&mut ctx, Kernel::Init, &x, |_, _| 1u32, |a, b| *a += b);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn hypersparse_fraction_increases_with_grid() {
        // A sparse-ish random-ish structure: diagonal of a 64x64.
        let t = Triples::from_edges(64, 64, (0..64).map(|i| (i as Vidx, i as Vidx)).collect());
        let small = DistMatrix::with_grid_csc(&t.to_csc().view(), 2, 2, None, None);
        let large = DistMatrix::with_grid_csc(&t.to_csc().view(), 16, 16, None, None);
        assert!(large.hypersparse_fraction() >= small.hypersparse_fraction());
    }

    #[test]
    fn mesh_product_matches_simulator_bit_for_bit() {
        // The engine mesh runs real ranks over real channels; the result —
        // including tie-breaks of the order-sensitive min-column semiring —
        // must equal the simulator's on every square grid, for both the
        // select and monoid folds, at 1 and 2 intra-rank threads.
        let t = fig2_triples();
        let x: SpVec<(Vidx, Vidx)> =
            SpVec::from_pairs(5, vec![(0, (0, 0)), (2, (2, 2)), (3, (3, 3)), (4, (4, 4))]);
        let cnt = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (3, ()), (4, ())]);
        for dim in 1..=3usize {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let want =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            let want_cnt =
                a.spmspv_monoid(&mut ctx, Kernel::Init, &cnt, |_, _| 1u32, |a, b| *a += b);
            for threads in [1usize, 2] {
                let mut eng = EngineComm::new(dim * dim, threads);
                let mut plan = SpmvPlan::new();
                let got = a.spmspv_mesh(
                    &mut eng,
                    Kernel::SpMV,
                    &mut plan,
                    &x,
                    |j, &(_, r)| (j, r),
                    |acc, inc| inc.0 < acc.0,
                );
                assert_eq!(got, want, "grid {dim}x{dim} threads {threads}");
                // Plan buffers reused across engine calls, still identical.
                let again = a.spmspv_mesh(
                    &mut eng,
                    Kernel::SpMV,
                    &mut plan,
                    &x,
                    |j, &(_, r)| (j, r),
                    |acc, inc| inc.0 < acc.0,
                );
                assert_eq!(again, want, "grid {dim}x{dim} threads {threads} (reused plan)");

                let mut cnt_plan = SpmvPlan::new();
                let got_cnt = a.spmspv_monoid_mesh(
                    &mut eng,
                    Kernel::Init,
                    &mut cnt_plan,
                    &cnt,
                    |_, _| 1u32,
                    |a, b| *a += b,
                );
                assert_eq!(got_cnt, want_cnt, "monoid grid {dim}x{dim} threads {threads}");
            }
        }
    }

    #[test]
    fn mesh_product_mirrors_simulator_charges() {
        // Same volumes → same modeled charges: the engine backend's SpMV
        // accounting must agree with the simulator's per kernel call.
        let t = fig2_triples();
        let x: SpVec<(Vidx, Vidx)> =
            SpVec::from_pairs(5, vec![(0, (0, 0)), (2, (2, 2)), (4, (4, 4))]);
        for dim in [2usize, 3] {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let before = ctx.timers.seconds(Kernel::SpMV);
            let _ =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            let sim_cost = ctx.timers.seconds(Kernel::SpMV) - before;

            let mut eng = EngineComm::new(dim * dim, 1);
            let mut plan = SpmvPlan::new();
            let _ = a.spmspv_mesh(
                &mut eng,
                Kernel::SpMV,
                &mut plan,
                &x,
                |j, &(_, r)| (j, r),
                |acc, inc| inc.0 < acc.0,
            );
            let eng_cost = eng.ctx().timers.seconds(Kernel::SpMV);
            assert!(
                (sim_cost - eng_cost).abs() < 1e-15,
                "grid {dim}x{dim}: sim {sim_cost} vs engine {eng_cost}"
            );
        }
    }
}
