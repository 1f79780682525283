//! Shared-memory execution backend: collectives as shared-arena exchanges.
//!
//! The third [`Communicator`]: where the engine backend runs `p` real ranks
//! that ship message buffers through a thread-per-rank channel mesh,
//! [`SharedComm`] exploits the fact that on one node all "ranks" share an
//! address space — so a collective does not need channels, copies, or
//! per-message allocation at all. Each collective becomes a two-phase
//! exchange against shared state with precomputed per-rank offsets, closed
//! by an epoch barrier:
//!
//! * **SpMSpV (the hot path)** — the expand and fold halves are *fused with
//!   the communication epoch*. The generation-stamped sparse accumulator of
//!   [`mcm_sparse::workspace::SpmvWorkspace`] **is** the shared arena: row
//!   `i`'s slot is the destination rank's receive region for row `i`
//!   (logical block-row offsets are the precomputed per-rank offsets), and
//!   a logical rank's "message" — a partial-product entry bound for the
//!   fold — is written **directly into that region** instead of being
//!   materialized in a send buffer, shipped, merged, and sorted. The SPA's
//!   epoch stamp is the barrier: bumping the generation opens the next
//!   exchange in O(1), and a slot whose stamp predates the current epoch is
//!   *by definition* not yet written this epoch, which is exactly the
//!   visibility rule a barriered exchange provides. Zero copies through
//!   channels, zero per-message allocation, no post-exchange merge sort —
//!   the fold's duplicate resolution happens at write time, in ascending
//!   global column order, so results are bit-identical to the simulator
//!   and engine backends (grid independence). See
//!   [`mcm_sparse::workspace::SpmvWorkspace::spmspv_fused_into`].
//! * **alltoallv / allgatherv / allreduce / bcast** — in one address space
//!   the "exchange" phase of the two-phase protocol is the identity (the
//!   payload is already where the receiver can see it); what remains is the
//!   rank-offset transpose `sends[src][dst] → recvd[dst][src]`, which is a
//!   move of the existing buffers, not a copy. These delegate to the
//!   [`DistCtx`] routing (the same move-transpose) while the α–β–γ model
//!   charges the logical grid's volumes.
//! * **RMA epochs** — windows are plain vectors in the shared address
//!   space; an exposure epoch drives origin op-streams against them
//!   directly ([`SimWindow`] semantics), under the simtest [`Schedule`]'s
//!   adversarial interleaving when installed. The decision stream is the
//!   same one the simulator consumes, so replay seeds and trace-hash
//!   certificates remain valid across backends.
//!
//! ### Cost accounting
//!
//! `SharedComm::new(p, threads)` accounts a logical `√p × √p` grid with
//! `threads` workers per rank — every collective charges exactly what the
//! simulator charges for the same exchange, and the fused SpMSpV recovers
//! the per-logical-block expand/fold volumes in-line from its single
//! traversal (see [`FusedVolumes`](mcm_sparse::workspace::FusedVolumes)).
//! Modeled per-kernel times and call counts are therefore **identical** to
//! the simulator's at the same `p` and `t`; what changes is the wall-clock
//! cost of getting them, which is what `mcm-bench`'s `engine_e2e` measures.
//! Physical execution uses a single 1×1 block ([`Communicator::exec_grid`]),
//! the layout that makes the arena contiguous.

use crate::comm::{
    interleave_tasks, record_rma_epoch, Communicator, CountingWin, ReduceOp, RmaTask,
};
use crate::ctx::DistCtx;
use crate::distmat::{DistMatrix, SpmvPlan};
use crate::machine::MachineConfig;
use crate::sched::{FaultPlan, Schedule, SimWindow};
use crate::timers::Kernel;
use mcm_sparse::{DenseVec, SpVec, Vidx};

/// The shared-memory backend: logical `√p × √p` cost accounting over a
/// single-address-space execution where collectives are shared-arena
/// exchanges and SpMSpV is fused with its communication epoch.
///
/// # Example
///
/// ```
/// use mcm_bsp::comm::{Communicator, ReduceOp};
/// use mcm_bsp::shared::SharedComm;
/// use mcm_bsp::Kernel;
///
/// let mut shm = SharedComm::new(4, 1);
/// assert_eq!(shm.exec_grid(), (1, 1)); // physical: one block
/// assert_eq!(shm.p(), 4); // logical: 2×2 accounting
/// let total = shm.allreduce(Kernel::Other, &[1, 2, 3, 4], ReduceOp::Sum);
/// assert_eq!(total, 10);
/// ```
pub struct SharedComm {
    ctx: DistCtx,
}

impl SharedComm {
    /// A shared-memory backend accounting `p` logical ranks (must be a
    /// perfect square — the 2D grid) with `threads` workers per rank.
    pub fn new(p: usize, threads: usize) -> Self {
        let dim = (p as f64).sqrt().round() as usize;
        assert!(dim * dim == p && p >= 1, "shared backend needs a square rank count, got {p}");
        assert!(threads >= 1, "at least one worker thread per rank");
        Self { ctx: DistCtx::new(MachineConfig::hybrid(dim, threads)) }
    }

    /// Installs a simtest schedule: RMA epochs run under deterministic
    /// adversarial interleaving, consuming the same decision stream the
    /// simulator consumes (replay seeds and trace hashes carry over).
    pub fn with_schedule(mut self, sched: Schedule) -> Self {
        self.ctx.sched = Some(sched);
        self
    }
}

impl Communicator for SharedComm {
    fn ctx(&self) -> &DistCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut DistCtx {
        &mut self.ctx
    }

    fn exec_grid(&self) -> (usize, usize) {
        (1, 1)
    }

    fn alltoallv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        sends: Vec<Vec<Vec<T>>>,
    ) -> Vec<Vec<Vec<T>>> {
        // One address space: the exchange is the rank-offset move-transpose
        // the simulator already performs — no copies, no channels. The
        // charge is the logical grid's bottleneck volume.
        self.ctx.alltoallv(kernel, words_per_elem, sends)
    }

    fn allgatherv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        contribs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        self.ctx.allgatherv(kernel, words_per_elem, contribs)
    }

    fn allreduce(&mut self, kernel: Kernel, per_rank: &[u64], op: ReduceOp) -> u64 {
        self.ctx.allreduce(kernel, per_rank, op)
    }

    fn bcast<T: Send + Clone>(&mut self, kernel: Kernel, root: usize, data: Vec<T>) -> Vec<T> {
        self.ctx.bcast(kernel, root, data)
    }

    fn spmspv<T, U>(
        &mut self,
        a: &DistMatrix,
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
        let _span = mcm_obs::kernel_span("spmspv", kernel.name());
        let g = &self.ctx.machine.grid;
        let (lpr, lpc) = (g.pr, g.pc);
        a.spmspv_shared(&mut self.ctx, kernel, lpr, lpc, plan, x, mul, take_incoming)
    }

    fn spmspv_monoid<T, U>(
        &mut self,
        a: &DistMatrix,
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
        let _span = mcm_obs::kernel_span("spmspv_monoid", kernel.name());
        let g = &self.ctx.machine.grid;
        let (lpr, lpc) = (g.pr, g.pc);
        a.spmspv_monoid_shared(&mut self.ctx, kernel, lpr, lpc, plan, x, mul, combine)
    }

    fn rma_epoch<W: RmaTask + Send>(
        &mut self,
        kernel: Kernel,
        wins: Vec<&mut DenseVec>,
        tasks: &mut [W],
    ) -> u64 {
        let _span = mcm_obs::kernel_span("rma_epoch", kernel.name());
        // Windows are plain shared vectors; the epoch drives origin streams
        // against them in place. Same decision stream as the simulator, so
        // adversarial arrival orders replay identically.
        match self.ctx.sched.take() {
            Some(mut sched) => {
                let (steps, ops) = {
                    let mut win = SimWindow::new(wins, sched.fault());
                    let mut cwin = CountingWin { inner: &mut win, ops: 0 };
                    let steps = interleave_tasks(&mut cwin, &mut sched, tasks);
                    (steps, cwin.ops)
                };
                self.ctx.sched = Some(sched);
                record_rma_epoch("shared", ops);
                steps
            }
            None => {
                let mut win = SimWindow::new(wins, FaultPlan::default());
                let mut cwin = CountingWin { inner: &mut win, ops: 0 };
                for t in tasks.iter_mut() {
                    while t.step(&mut cwin) {}
                }
                record_rma_epoch("shared", cwin.ops);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_sparse::Triples;

    #[test]
    fn shared_collectives_match_simulator() {
        for p in [1usize, 4, 9] {
            let dim = (p as f64).sqrt() as usize;
            let sends: Vec<Vec<Vec<u32>>> = (0..p)
                .map(|src| (0..p).map(|dst| vec![(src * 10 + dst) as u32]).collect())
                .collect();
            let mut sim = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let mut shm = SharedComm::new(p, 1);
            assert_eq!(
                sim.alltoallv(Kernel::Invert, 2, sends.clone()),
                shm.alltoallv(Kernel::Invert, 2, sends),
                "p = {p}"
            );
            assert_eq!(
                sim.timers.seconds(Kernel::Invert),
                shm.ctx().timers.seconds(Kernel::Invert),
                "p = {p}: charges must match"
            );
        }
    }

    #[test]
    fn fused_spmspv_matches_simulator_charges_exactly() {
        // Same logical grid, different physical execution: the fused
        // single-block product must return the identical vector AND charge
        // the identical modeled time as the block-split simulator product.
        let t = Triples::from_edges(
            9,
            9,
            vec![
                (0, 0),
                (1, 0),
                (2, 4),
                (3, 2),
                (4, 4),
                (4, 7),
                (5, 1),
                (6, 8),
                (7, 5),
                (8, 8),
                (8, 0),
                (2, 2),
            ],
        );
        for p in [1usize, 4, 9] {
            let dim = (p as f64).sqrt() as usize;
            let mut sim = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let mut shm = SharedComm::new(p, 1);
            let v = t.to_csc();
            let a_sim = DistMatrix::with_grid_csc(&v.view(), dim, dim, None, None);
            let a_shm = DistMatrix::with_grid_csc(&v.view(), 1, 1, None, None);
            let x = SpVec::from_pairs(9, vec![(0, 0u32), (2, 2), (4, 4), (8, 8)]);
            let mut plan_sim = SpmvPlan::new();
            let mut plan_shm = SpmvPlan::new();
            let ys = sim.spmspv(
                &a_sim,
                Kernel::SpMV,
                &mut plan_sim,
                &x,
                |j, _| j,
                |acc: &Vidx, inc| inc < acc,
            );
            let yh = shm.spmspv(
                &a_shm,
                Kernel::SpMV,
                &mut plan_shm,
                &x,
                |j, _| j,
                |acc: &Vidx, inc| inc < acc,
            );
            assert_eq!(ys, yh, "p = {p}");
            assert_eq!(
                sim.timers.seconds(Kernel::SpMV),
                shm.ctx().timers.seconds(Kernel::SpMV),
                "p = {p}: fused volumes must reproduce the split execution's charges"
            );
            assert_eq!(
                sim.timers.calls(Kernel::SpMV),
                shm.ctx().timers.calls(Kernel::SpMV),
                "p = {p}"
            );
        }
    }
}
