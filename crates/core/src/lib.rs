//! # mcm-core — distributed maximum cardinality matching (the paper's contribution)
//!
//! Implements Azad & Buluç (IPDPS 2016): the matrix-algebraic MS-BFS
//! maximum-cardinality-matching algorithm (`MCM-DIST`, Algorithm 2), its
//! primitives (Table I), both augmentation kernels (Algorithms 3 and 4),
//! the maximal-matching initializers of their companion work [21], and the
//! serial baselines used for correctness and context (§VI-E).
//!
//! Quick start:
//!
//! ```
//! use mcm_bsp::{DistCtx, MachineConfig};
//! use mcm_sparse::Triples;
//! use mcm_core::{maximum_matching, McmOptions};
//!
//! // A tiny bipartite graph as an edge list (rows x columns).
//! let g = Triples::from_edges(3, 3, vec![(0, 0), (0, 1), (1, 0), (2, 2)]);
//! let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 2)); // 2x2 grid, 2 threads
//! let result = maximum_matching(&mut ctx, &g, &McmOptions::default());
//! assert_eq!(result.matching.cardinality(), 3);
//! ```

// Index loops over parallel arrays are the clearest style in these kernels.
#![allow(clippy::needless_range_loop)]
pub mod auction;
pub mod augment;
pub mod btf;
pub mod cover;
pub mod dm;
pub mod gather;
pub mod matching;
pub mod maximal;
pub mod mcm;
pub mod portfolio;
pub mod ppf;
pub mod primitives;
pub mod semirings;
pub mod serial;
pub mod simtest;
pub mod verify;
pub mod vertex;
pub mod weighted;

pub use matching::Matching;
pub use mcm::{
    maximum_matching, maximum_matching_pooled, maximum_matching_view, McmOptions, McmResult,
    McmStats, SolverPool,
};
pub use portfolio::{MatchingAlgo, PortfolioOptions, SelectorStats};
pub use semirings::SemiringKind;
pub use vertex::Vertex;
pub use weighted::{auction_mwm, auction_mwm_par, matching_weight, WeightedResult};
