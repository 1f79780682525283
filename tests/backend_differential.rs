//! Backend differential: full MCM-DIST on the cost-model simulator vs the
//! real thread-per-rank mesh engine vs the fused shared-memory arena,
//! across the `mcm-gen` suite — all initializers × both augmentation
//! kernels × p ∈ {1, 4, 9}.
//!
//! The comm trait layer (`mcm_bsp::comm`, DESIGN.md §12) promises that one
//! generic pipeline runs identically on every backend: same cardinality,
//! and in fact the *identical matching*, since every collective is
//! deterministic, the engine's RMA epochs service vertex-disjoint paths,
//! and SharedComm replays the simulator's decision stream (DESIGN.md
//! §14). All sides are additionally Berge-certified and checked maximum
//! against serial Hopcroft–Karp.
//!
//! `MCM_TEST_SEED=<seed>` (decimal or `0x` hex) replays a sweep exactly;
//! `MCM_ENGINE_TEST_THREADS=<t>` sets the engine's per-rank thread count
//! (CI runs t ∈ {1, 2}); `MCM_TEST_ALGOS=<a,b>` restricts the
//! cross-algorithm matrix to a comma-separated subset (the CI algo
//! dimension).

use mcm_bsp::{Backend, DistCtx, EngineComm, MachineConfig, SharedComm};
use mcm_core::augment::AugmentMode;
use mcm_core::maximal::Initializer;
use mcm_core::mcm::{maximum_matching, maximum_matching_pooled, McmOptions, SolverPool};
use mcm_core::portfolio::{solve, MatchingAlgo, PortfolioOptions};
use mcm_core::serial::hopcroft_karp;
use mcm_core::verify;
use mcm_gen::simtest_suite;

/// Default suite seed, overridable via `MCM_TEST_SEED`.
fn seed(default: u64) -> u64 {
    let Ok(raw) = std::env::var("MCM_TEST_SEED") else { return default };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| panic!("MCM_TEST_SEED={raw} is not a u64"))
}

/// Engine worker threads per rank, overridable via `MCM_ENGINE_TEST_THREADS`.
fn engine_threads() -> usize {
    std::env::var("MCM_ENGINE_TEST_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

#[test]
fn all_three_backends_produce_identical_matchings_across_the_suite() {
    let cases = simtest_suite(seed(0xD1FF_BACC));
    let threads = engine_threads();
    let inits = [
        Initializer::None,
        Initializer::Greedy,
        Initializer::KarpSipser,
        Initializer::DynamicMindegree,
    ];
    let augments = [AugmentMode::LevelParallel, AugmentMode::PathParallel];
    let mut runs = 0usize;
    for (name, t) in &cases {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for dim in [1usize, 2, 3] {
            let p = dim * dim;
            for init in inits {
                for augment in augments {
                    let opts = McmOptions { init, augment, ..McmOptions::default() };
                    let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
                    let sim = maximum_matching(&mut ctx, t, &opts);
                    let eng = maximum_matching(&mut EngineComm::new(p, threads), t, &opts);
                    let shr = maximum_matching(&mut SharedComm::new(p, threads), t, &opts);
                    let tag =
                        format!("{name} p={p} threads={threads} init={init:?} augment={augment:?}");
                    assert_eq!(
                        sim.matching.cardinality(),
                        eng.matching.cardinality(),
                        "cardinality diverged: {tag}"
                    );
                    assert_eq!(sim.matching, eng.matching, "sim/engine matching diverged: {tag}");
                    assert_eq!(sim.matching, shr.matching, "sim/shared matching diverged: {tag}");
                    assert_eq!(eng.matching.cardinality(), want, "not maximum: {tag}");
                    verify::verify(&a, &sim.matching)
                        .unwrap_or_else(|e| panic!("simulator Berge failed: {tag}: {e}"));
                    verify::verify(&a, &eng.matching)
                        .unwrap_or_else(|e| panic!("engine Berge failed: {tag}: {e}"));
                    verify::verify(&a, &shr.matching)
                        .unwrap_or_else(|e| panic!("shared Berge failed: {tag}: {e}"));
                    runs += 1;
                }
            }
        }
    }
    // 9 cases × 3 grids × 4 initializers × 2 kernels, each run three times.
    assert_eq!(runs, cases.len() * 3 * inits.len() * augments.len());
}

/// Algorithms the cross-algorithm matrix sweeps, overridable via
/// `MCM_TEST_ALGOS=msbfs,ppf` (the CI matrix's algo dimension).
fn matrix_algos() -> Vec<MatchingAlgo> {
    match std::env::var("MCM_TEST_ALGOS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|e| panic!("MCM_TEST_ALGOS={raw} is invalid: {e}"))
            })
            .collect(),
        Err(_) => MatchingAlgo::CONCRETE.to_vec(),
    }
}

#[test]
fn cross_algorithm_matrix_agrees_with_the_oracle() {
    // The full algo × backend × p matrix of the portfolio (DESIGN.md §15):
    //
    //  - `msbfs` runs on all three comm backends (sim | engine | shared);
    //    the trait-layer contract says all three produce the *identical*
    //    matching, which the sim row certifies against.
    //  - `ppf` and `auction` are shared-memory engines, so the backend
    //    dimension maps to their worker-thread count: t ∈ {1, p}. The
    //    auction resolves ties in a deterministic resolution order, so its
    //    matching must be identical across thread counts; PPF commits
    //    vertex-disjoint paths whose *set* may differ per interleaving, so
    //    only cardinality is compared.
    //
    // Every cell is checked against serial Hopcroft–Karp and
    // Berge-certified. Failures print the suite seed for exact replay.
    let suite_seed = seed(0xD1FF_BACC);
    let cases = simtest_suite(suite_seed);
    let algos = matrix_algos();
    let mut runs = 0usize;
    for (name, t) in &cases {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for dim in [1usize, 2, 3] {
            let p = dim * dim;
            for &algo in &algos {
                let tag = format!(
                    "{name} algo={algo} p={p} (replay: MCM_TEST_SEED={suite_seed:#x}, \
                     see EXPERIMENTS.md)"
                );
                match algo {
                    MatchingAlgo::MsBfs => {
                        let backends = [
                            Backend::Sim { grid: dim, threads: 1 },
                            Backend::Engine { p, threads: 1 },
                            Backend::Shared { p, threads: 1 },
                        ];
                        let results: Vec<_> = backends
                            .iter()
                            .map(|&backend| {
                                let opts = PortfolioOptions {
                                    algo,
                                    backend,
                                    ..PortfolioOptions::default()
                                };
                                solve(&a.view(), None, &mut SolverPool::new(), &opts).0
                            })
                            .collect();
                        for (r, backend) in results.iter().zip(backends) {
                            assert_eq!(r.stats.algo, "msbfs", "{tag}");
                            assert_eq!(
                                r.matching.cardinality(),
                                want,
                                "not maximum on {backend:?}: {tag}"
                            );
                            assert_eq!(
                                r.matching, results[0].matching,
                                "{backend:?} diverged from sim: {tag}"
                            );
                            verify::verify(&a, &r.matching).unwrap_or_else(|e| {
                                panic!("Berge failed on {backend:?}: {tag}: {e}")
                            });
                            runs += 1;
                        }
                    }
                    MatchingAlgo::Ppf | MatchingAlgo::Auction => {
                        let results: Vec<_> = [1usize, p]
                            .iter()
                            .map(|&threads| {
                                let opts = PortfolioOptions {
                                    algo,
                                    threads,
                                    seed: suite_seed ^ p as u64,
                                    ..PortfolioOptions::default()
                                };
                                solve(&a.view(), None, &mut SolverPool::new(), &opts).0
                            })
                            .collect();
                        for (r, threads) in results.iter().zip([1usize, p]) {
                            assert_eq!(r.stats.algo, algo.name(), "{tag}");
                            assert_eq!(
                                r.matching.cardinality(),
                                want,
                                "not maximum at threads={threads}: {tag}"
                            );
                            verify::verify(&a, &r.matching).unwrap_or_else(|e| {
                                panic!("Berge failed at threads={threads}: {tag}: {e}")
                            });
                            runs += 1;
                        }
                        if algo == MatchingAlgo::Auction {
                            // Deterministic resolution order ⇒ the matching
                            // itself is thread-count invariant.
                            assert_eq!(
                                results[0].matching, results[1].matching,
                                "auction matching changed with thread count: {tag}"
                            );
                        }
                    }
                    MatchingAlgo::Auto => unreachable!("matrix sweeps concrete engines"),
                }
            }
        }
    }
    let per_algo_cells: usize =
        algos.iter().map(|a| if *a == MatchingAlgo::MsBfs { 3 } else { 2 }).sum();
    assert_eq!(runs, cases.len() * 3 * per_algo_cells);
}

#[test]
fn engine_backend_warm_start_matches_simulator() {
    // The dyn fallback path hands a *stale* matching to either backend:
    // warm starts must agree too.
    let cases = simtest_suite(seed(0xD1FF_BACC));
    let threads = engine_threads();
    let (name, t) = &cases[0];
    let a = t.to_csc();
    let opts = McmOptions { permute_seed: None, ..McmOptions::default() };

    // A deliberately suboptimal warm start: greedy on the serial sim.
    let stale = {
        let mut ctx = DistCtx::serial();
        let am = mcm_bsp::DistMatrix::from_triples(&ctx, t);
        mcm_core::maximal::greedy(&mut ctx, &am)
    };

    let v = a.view();
    let warm = Some(stale);
    let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
    let sim = maximum_matching_pooled(&mut ctx, &v, warm.clone(), &opts, &mut SolverPool::new());
    let mut comm = EngineComm::new(4, threads);
    let eng = maximum_matching_pooled(&mut comm, &v, warm.clone(), &opts, &mut SolverPool::new());
    let mut shc = SharedComm::new(4, threads);
    let shr = maximum_matching_pooled(&mut shc, &v, warm, &opts, &mut SolverPool::new());
    assert_eq!(sim.matching, eng.matching, "warm-started {name} diverged (engine)");
    assert_eq!(sim.matching, shr.matching, "warm-started {name} diverged (shared)");
    verify::verify(&a, &eng.matching).unwrap();
    verify::verify(&a, &shr.matching).unwrap();
    assert_eq!(eng.matching.cardinality(), hopcroft_karp(&a, None).cardinality());
}
