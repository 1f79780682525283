//! The algorithm portfolio: one front door over the three first-class
//! engines — MS-BFS (the paper's MCM-DIST), parallel Pothen–Fan
//! ([`crate::ppf`]) and the ε-scaled auction ([`crate::auction`]) — plus
//! the `auto` selector that picks an engine from cheap measured graph
//! statistics (DESIGN.md §15).
//!
//! The selector reads three numbers off one O(nnz) pass over the
//! deduplicated graph: density, side ratio and degree skew. All three are
//! label-permutation-invariant (they depend only on the degree multisets
//! and the dimensions), so `auto` is deterministic and cannot be steered
//! by vertex relabeling — properties pinned by `tests/algo_portfolio.rs`.
//! The placement heuristic: dense blocks go to the auction (per-bidder
//! parallelism and Naparstek–Leshem's expected-time analysis favour
//! crowded random instances), heavy degree skew or a strongly rectangular
//! shape goes to Pothen–Fan (lookahead DFS drains hub-dominated and
//! deficient instances in few phases), and everything else takes MS-BFS,
//! the paper's engine. Every run is differential-tested against the
//! serial oracles regardless of the pick.

use crate::auction::{auction, AuctionOptions};
use crate::matching::Matching;
use crate::mcm::{maximum_matching_pooled, McmOptions, McmResult, McmStats, SolverPool};
use crate::ppf::{ppf, PpfOptions};
use crate::weighted::{auction_mwm_par, WeightedResult};
use mcm_bsp::{Backend, Communicator, DistCtx, EngineComm, MachineConfig, SharedComm, Timers};
use mcm_sparse::{CscView, WCsc};
use std::fmt;
use std::str::FromStr;

/// Which matching engine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchingAlgo {
    /// The paper's distributed MS-BFS (MCM-DIST) on a `Communicator`.
    MsBfs,
    /// Parallel Pothen–Fan lookahead-DFS ([`crate::ppf`]).
    Ppf,
    /// ε-scaled per-bidder auction ([`crate::auction`]).
    Auction,
    /// Pick one of the above from measured graph stats.
    Auto,
}

impl MatchingAlgo {
    /// Every concrete engine (excludes `Auto`).
    pub const CONCRETE: [MatchingAlgo; 3] =
        [MatchingAlgo::MsBfs, MatchingAlgo::Ppf, MatchingAlgo::Auction];

    /// The CLI / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            MatchingAlgo::MsBfs => "msbfs",
            MatchingAlgo::Ppf => "ppf",
            MatchingAlgo::Auction => "auction",
            MatchingAlgo::Auto => "auto",
        }
    }
}

impl fmt::Display for MatchingAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MatchingAlgo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "msbfs" => Ok(MatchingAlgo::MsBfs),
            "ppf" => Ok(MatchingAlgo::Ppf),
            "auction" => Ok(MatchingAlgo::Auction),
            "auto" => Ok(MatchingAlgo::Auto),
            other => Err(format!("unknown algorithm '{other}' (expected msbfs|ppf|auction|auto)")),
        }
    }
}

/// Cheap measured statistics the `auto` selector decides by. Computed in
/// one pass over the deduplicated CSC; invariant under row/column
/// relabeling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectorStats {
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Distinct edges.
    pub nnz: usize,
    /// `nnz / (nrows · ncols)`; 0 on degenerate shapes.
    pub density: f64,
    /// `max(nrows, ncols) / min(nrows, ncols)`; 1 on degenerate shapes.
    pub side_ratio: f64,
    /// `max degree / mean nonzero-side degree`, the worse of the two
    /// orientations; 1 on empty graphs.
    pub degree_skew: f64,
}

impl SelectorStats {
    /// Density above which the auction engine is preferred.
    pub const DENSE: f64 = 0.05;
    /// Degree skew above which Pothen–Fan is preferred.
    pub const SKEWED: f64 = 8.0;
    /// Side ratio above which Pothen–Fan is preferred.
    pub const RECTANGULAR: f64 = 4.0;
    /// Degree skew **below** which a dense instance is routed to PPF
    /// instead of the auction. Crown-like shapes — dense, square, and
    /// degree-uniform (crown(n) has every degree n−1, skew exactly 1) —
    /// are drained by PPF's greedy + lookahead in one `O(nnz)` phase,
    /// while the auction runs price dynamics over all n² edges:
    /// BENCH_algo.json has the density rule losing ~40× on crown_256.
    /// The auction's home turf, crowded *random* instances, sits well
    /// above this bound (a binomial degree distribution puts the max
    /// degree at ≥ 2× the mean at these sizes).
    pub const UNIFORM: f64 = 1.25;

    /// Measures the selector inputs in one pass over the graph.
    pub fn measure(a: &CscView<'_>) -> SelectorStats {
        let (n1, n2) = (a.nrows(), a.ncols());
        let mut nnz = 0usize;
        let mut max_col = 0usize;
        let mut row_deg = vec![0usize; n1];
        for c in 0..n2 {
            let col = a.col(c);
            nnz += col.len();
            max_col = max_col.max(col.len());
            for &r in col {
                row_deg[r as usize] += 1;
            }
        }
        let max_row = row_deg.iter().copied().max().unwrap_or(0);
        let skew = |max_deg: usize, n: usize| -> f64 {
            if nnz == 0 || n == 0 {
                1.0
            } else {
                max_deg as f64 / (nnz as f64 / n as f64)
            }
        };
        SelectorStats {
            nrows: n1,
            ncols: n2,
            nnz,
            density: if n1 == 0 || n2 == 0 { 0.0 } else { nnz as f64 / (n1 as f64 * n2 as f64) },
            side_ratio: if n1 == 0 || n2 == 0 {
                1.0
            } else {
                n1.max(n2) as f64 / n1.min(n2) as f64
            },
            degree_skew: skew(max_row, n1).max(skew(max_col, n2)),
        }
    }

    /// The selector decision; always a concrete engine, never `Auto`.
    /// Shape rules run before the density rule: a strongly rectangular
    /// graph has a high `nnz/(n1·n2)` purely because its small side is
    /// small, and skewed-degree instances are PPF's home turf even when
    /// crowded. The density rule itself carries a uniformity guard
    /// ([`Self::UNIFORM`]): dense but degree-uniform instances (crowns,
    /// complete blocks) are price-war fuel for the auction and trivial
    /// for PPF, so only dense instances with genuine degree variance go
    /// to the auction.
    pub fn choose(&self) -> MatchingAlgo {
        if self.nnz == 0 {
            MatchingAlgo::MsBfs
        } else if self.degree_skew >= Self::SKEWED || self.side_ratio >= Self::RECTANGULAR {
            MatchingAlgo::Ppf
        } else if self.density >= Self::DENSE {
            if self.degree_skew <= Self::UNIFORM {
                MatchingAlgo::Ppf // crown guard: dense + uniform
            } else {
                MatchingAlgo::Auction
            }
        } else {
            MatchingAlgo::MsBfs
        }
    }
}

/// Options of [`solve`].
#[derive(Clone, Copy, Debug)]
pub struct PortfolioOptions {
    /// Engine to run; `Auto` measures [`SelectorStats`] and picks.
    pub algo: MatchingAlgo,
    /// Machine for the MS-BFS engine.
    pub backend: Backend,
    /// Worker threads for the PPF / auction engines.
    pub threads: usize,
    /// MS-BFS tunables (ignored by PPF / auction).
    pub mcm: McmOptions,
    /// Deterministic order-perturbation seed for PPF / auction (the
    /// simtest schedule analogue); `0` keeps natural order.
    pub seed: u64,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        Self {
            algo: MatchingAlgo::Auto,
            backend: Backend::default(),
            threads: 1,
            mcm: McmOptions::default(),
            seed: 0,
        }
    }
}

/// Resolves `Auto` to a concrete engine for this graph (measures only
/// when needed); returns the engine together with the measured stats.
pub fn resolve_algo(v: &CscView<'_>, algo: MatchingAlgo) -> (MatchingAlgo, Option<SelectorStats>) {
    match algo {
        MatchingAlgo::Auto => {
            let s = SelectorStats::measure(v);
            (s.choose(), Some(s))
        }
        concrete => (concrete, None),
    }
}

/// Runs the portfolio on the graph behind `v`: resolves `Auto`,
/// dispatches the engine, and stamps `McmStats::algo`/`algo_auto` plus
/// the `mcm_algo_runs_total{algo,selector}` metric.
///
/// `warm` (a valid matching of `v`) seeds MS-BFS and Pothen–Fan; the
/// auction cannot reuse a stale matching and re-solves cold. `pool`
/// keeps the MS-BFS buffers warm across calls. Returns the modeled
/// α–β–γ timers of the MS-BFS backend next to the result (empty for the
/// shared-memory engines, which have no cost model).
pub fn solve(
    v: &CscView<'_>,
    warm: Option<Matching>,
    pool: &mut SolverPool,
    opts: &PortfolioOptions,
) -> (McmResult, Timers) {
    let was_auto = opts.algo == MatchingAlgo::Auto;
    let (algo, _) = resolve_algo(v, opts.algo);
    mcm_obs::counter_add(
        "mcm_algo_runs_total",
        &[("algo", algo.name()), ("selector", if was_auto { "auto" } else { "explicit" })],
        1,
    );
    fn ms_bfs<C: Communicator>(
        mut comm: C,
        v: &CscView<'_>,
        warm: Option<Matching>,
        pool: &mut SolverPool,
        opts: &McmOptions,
    ) -> (McmResult, Timers) {
        let r = maximum_matching_pooled(&mut comm, v, warm, opts, pool);
        (r, comm.ctx().timers.clone())
    }
    let (mut result, timers) = match algo {
        MatchingAlgo::MsBfs => match opts.backend {
            Backend::Sim { grid, threads } => {
                let ctx = DistCtx::new(MachineConfig::hybrid(grid, threads));
                ms_bfs(ctx, v, warm, pool, &opts.mcm)
            }
            Backend::Engine { p, threads } => {
                ms_bfs(EngineComm::new(p, threads), v, warm, pool, &opts.mcm)
            }
            Backend::Shared { p, threads } => {
                ms_bfs(SharedComm::new(p, threads), v, warm, pool, &opts.mcm)
            }
        },
        MatchingAlgo::Ppf => {
            let ppf_opts = PpfOptions { threads: opts.threads, fairness: true, seed: opts.seed };
            let r = ppf(&v.to_csc(), warm, &ppf_opts);
            let stats = McmStats {
                algo: "ppf",
                phases: r.stats.phases,
                augmentations: r.stats.paths,
                ..Default::default()
            };
            (McmResult { matching: r.matching, stats }, Timers::new())
        }
        MatchingAlgo::Auction => {
            let auction_opts = AuctionOptions {
                threads: opts.threads,
                seed: opts.seed,
                ..AuctionOptions::default()
            };
            let r = auction(&v.to_csc(), &auction_opts);
            let stats = McmStats {
                algo: "auction",
                phases: r.stats.scales,
                iterations: r.stats.rounds,
                augmentations: r.matching.cardinality(),
                ..Default::default()
            };
            (McmResult { matching: r.matching, stats }, Timers::new())
        }
        MatchingAlgo::Auto => unreachable!("resolve_algo returns concrete engines"),
    };
    result.stats.algo_auto = was_auto;
    (result, timers)
}

/// The weighted front door: maximum *weight* matching through the
/// portfolio. The weighted domain has one engine today — the parallel
/// ε-scaled auction ([`crate::weighted::auction_mwm_par`]) — so no
/// selector runs; `opts.threads` and `opts.seed` carry over exactly as
/// for the cardinality auction. Stamps the shared
/// `mcm_algo_runs_total{algo="wauction"}` counter and the
/// `mcm_matching_weight` gauge.
pub fn solve_weighted(a: &WCsc, opts: &PortfolioOptions) -> WeightedResult {
    mcm_obs::counter_add(
        "mcm_algo_runs_total",
        &[("algo", "wauction"), ("selector", "explicit")],
        1,
    );
    let r = auction_mwm_par(
        a,
        &AuctionOptions { threads: opts.threads, seed: opts.seed, ..AuctionOptions::default() },
    );
    mcm_obs::gauge_set("mcm_matching_weight", &[], r.weight);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::permute::SplitMix64;
    use mcm_sparse::{Triples, Vidx};

    fn measure(t: &Triples) -> SelectorStats {
        SelectorStats::measure(&t.to_csc().view())
    }

    fn solve_cold(t: &Triples, opts: &PortfolioOptions) -> McmResult {
        solve(&t.to_csc().view(), None, &mut SolverPool::new(), opts).0
    }

    #[test]
    fn parse_and_display_round_trip() {
        for algo in
            [MatchingAlgo::MsBfs, MatchingAlgo::Ppf, MatchingAlgo::Auction, MatchingAlgo::Auto]
        {
            assert_eq!(algo.name().parse::<MatchingAlgo>().unwrap(), algo);
            assert_eq!(format!("{algo}"), algo.name());
        }
        assert!("frobnicate".parse::<MatchingAlgo>().is_err());
        assert!("MSBFS".parse::<MatchingAlgo>().is_err(), "names are case-sensitive");
    }

    #[test]
    fn selector_routes_the_intended_shapes() {
        // Dense with genuine degree variance → auction. A 10-cycle of
        // degree-2 columns plus one degree-5 hub column: density 0.23,
        // skew ≈ 2.2 — above UNIFORM, below SKEWED.
        let mut dense = Triples::new(10, 10);
        for j in 0..10u32 {
            dense.push(j, j);
            dense.push((j + 1) % 10, j);
        }
        for r in 2..5u32 {
            dense.push(r, 0);
        }
        let s = measure(&dense);
        assert!(s.density >= SelectorStats::DENSE, "density {}", s.density);
        assert!(
            s.degree_skew > SelectorStats::UNIFORM && s.degree_skew < SelectorStats::SKEWED,
            "skew {}",
            s.degree_skew
        );
        assert_eq!(s.choose(), MatchingAlgo::Auction);

        // Dense but degree-uniform (complete block, skew exactly 1) →
        // ppf via the crown guard.
        let mut block = Triples::new(8, 8);
        for r in 0..8u32 {
            for c in 0..8u32 {
                block.push(r, c);
            }
        }
        let s = measure(&block);
        assert!(s.degree_skew <= SelectorStats::UNIFORM);
        assert_eq!(s.choose(), MatchingAlgo::Ppf);

        // Hub-dominated sparse graph → ppf.
        let mut hub = Triples::new(64, 64);
        for c in 0..64u32 {
            hub.push(0, c);
        }
        for i in 1..64u32 {
            hub.push(i, i);
        }
        let s = measure(&hub);
        assert!(s.degree_skew >= SelectorStats::SKEWED, "skew {}", s.degree_skew);
        assert_eq!(s.choose(), MatchingAlgo::Ppf);

        // Strongly rectangular sparse graph → ppf.
        let mut rect = Triples::new(8, 64);
        for c in 0..64u32 {
            rect.push(c % 8, c);
        }
        assert_eq!(measure(&rect).choose(), MatchingAlgo::Ppf);

        // Balanced sparse graph → msbfs; empty graph → msbfs.
        let mut plain = Triples::new(64, 64);
        for i in 0..64u32 {
            plain.push(i, i);
            plain.push((i + 1) % 64, i);
        }
        assert_eq!(measure(&plain).choose(), MatchingAlgo::MsBfs);
        assert_eq!(measure(&Triples::new(64, 64)).choose(), MatchingAlgo::MsBfs);
    }

    #[test]
    fn every_engine_agrees_with_the_oracle() {
        let mut rngv = SplitMix64::new(0x60_7F);
        for _ in 0..12 {
            let n1 = 4 + (rngv.next_u64() % 24) as usize;
            let n2 = 4 + (rngv.next_u64() % 24) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..2 * n1.max(n2) {
                t.push(rngv.below(n1 as u64) as Vidx, rngv.below(n2 as u64) as Vidx);
            }
            let want = hopcroft_karp(&t.to_csc(), None).cardinality();
            for algo in MatchingAlgo::CONCRETE {
                let r = solve_cold(&t, &PortfolioOptions { algo, ..PortfolioOptions::default() });
                assert_eq!(r.matching.cardinality(), want, "algo {algo}");
                assert_eq!(r.stats.algo, algo.name());
                assert!(!r.stats.algo_auto);
            }
            let auto = solve_cold(&t, &PortfolioOptions::default());
            assert_eq!(auto.matching.cardinality(), want);
            assert!(auto.stats.algo_auto);
            assert_ne!(auto.stats.algo, "auto", "auto must resolve to a concrete engine");
        }
    }
}
