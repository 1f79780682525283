//! # mcm-bsp — distributed-memory runtime simulator
//!
//! The paper runs on a Cray XC30 with MPI + OpenMP. Rust's MPI bindings are
//! thin and its RMA support weak (the calibration band for this
//! reproduction), so this crate substitutes the *machine*: a deterministic
//! bulk-synchronous simulator of a 2D `p_r × p_c` process grid.
//!
//! Three ideas (see DESIGN.md §2 and §7):
//!
//! 1. **Real data, simulated placement.** Matrices are physically split into
//!    the same 2D blocks CombBLAS would use ([`DistMatrix`]), and every
//!    kernel executes per-block exactly the local computation a real rank
//!    would run (parallelized with mcm-par for wall-clock speed, standing in
//!    for the paper's per-socket OpenMP threading). Results are bit-real, so
//!    correctness of the matching algorithms is fully testable.
//! 2. **α–β–γ cost model.** Every communication step charges modeled time
//!    from the same latency/bandwidth formulas the paper's §IV-B analysis
//!    uses (ring allgather, personalized all-to-all, RMA triplets), and every
//!    local kernel charges `γ · flops / t` where `t` is the simulated
//!    threads-per-process. A superstep's modeled elapsed time is the *maximum
//!    over ranks*, as on a real bulk-synchronous machine.
//! 3. **Per-kernel timers.** Modeled time accrues into [`Kernel`] categories
//!    (SpMV, Invert, Prune, Augment, ...) so the runtime-breakdown figure
//!    (Fig. 5) can be regenerated.

// Index loops over parallel arrays are the clearest style in these kernels.
#![allow(clippy::needless_range_loop)]
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod ctx;
pub mod distmat;
pub mod engine;
pub mod machine;
pub mod rma;
pub mod sched;
pub mod shared;
pub mod timers;

pub use collectives::{balanced_owner, per_rank_counts};
pub use comm::{AtomicWin, Backend, Communicator, EngineComm, ReduceOp, RmaTask, RmaWin};
pub use cost::CostModel;
pub use ctx::DistCtx;
pub use distmat::{DistMatrix, SpmvPlan};
pub use machine::{MachineConfig, ProcGrid};
pub use rma::{RmaTally, RmaWindow, TalliedWin};
pub use sched::{FaultPlan, SchedConfig, Schedule, SimWindow};
pub use shared::SharedComm;
pub use timers::{Kernel, Timers};
