//! Portfolio lockdown (DESIGN.md §15): the `auto` selector's measured
//! stats are deterministic and relabeling-invariant, its pick is exactly
//! one concrete engine's result, the ε-scaled auction converges on the
//! price-war adversaries, and every engine is Berge-certified through
//! `verify::is_maximum_from`.

use mcm_core::auction::{auction, AuctionOptions};
use mcm_core::portfolio::{self, MatchingAlgo, PortfolioOptions, SelectorStats};
use mcm_core::serial::hopcroft_karp;
use mcm_core::verify;
use mcm_core::{McmResult, SolverPool};
use mcm_gen::hard::{chain, star};
use mcm_gen::simtest_suite;
use mcm_sparse::permute::{random_relabel, SplitMix64};
use mcm_sparse::{Triples, Vidx};

fn measure(t: &Triples) -> SelectorStats {
    SelectorStats::measure(&t.to_csc().view())
}

fn resolve_algo(t: &Triples, algo: MatchingAlgo) -> (MatchingAlgo, Option<SelectorStats>) {
    portfolio::resolve_algo(&t.to_csc().view(), algo)
}

fn solve(t: &Triples, opts: &PortfolioOptions) -> McmResult {
    portfolio::solve(&t.to_csc().view(), None, &mut SolverPool::new(), opts).0
}

fn random_bipartite(n1: usize, n2: usize, edges: usize, seed: u64) -> Triples {
    let mut rng = SplitMix64::new(seed);
    let mut t = Triples::with_capacity(n1, n2, edges);
    for _ in 0..edges {
        t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
    }
    t
}

#[test]
fn selector_stats_are_deterministic_and_permutation_invariant() {
    // The selector decides from degree multisets and dimensions only, so
    // re-measuring must be bit-identical and relabeling rows/columns must
    // change nothing — the auto pick cannot depend on vertex order.
    let mut rng = SplitMix64::new(0x005E_1EC7);
    for case in 0..8 {
        let n1 = 4 + rng.below(40) as usize;
        let n2 = 4 + rng.below(40) as usize;
        let t = random_bipartite(n1, n2, 3 * (n1 + n2), rng.next_u64());
        let s = measure(&t);
        assert_eq!(s, measure(&t), "case {case}: re-measure diverged");
        for perm_seed in [1u64, 0xFEED, 0xABCDEF] {
            let (pt, _, _) = random_relabel(&t, perm_seed);
            let ps = measure(&pt);
            assert_eq!(s, ps, "case {case} seed {perm_seed:#x}: stats moved under relabeling");
            assert_eq!(s.choose(), ps.choose(), "case {case}: pick moved under relabeling");
        }
    }
}

/// A dense square band (uniform degrees) plus one hub column touching
/// every row: density ≈ 0.24, degree skew ≈ 4 — dense and genuinely
/// skewed, the shape the density rule still sends to the auction.
fn banded_hub(n: usize) -> Triples {
    let mut t = Triples::new(n, n);
    for i in 0..n {
        for d in 0..5 {
            t.push(i as Vidx, ((i + d) % n) as Vidx);
        }
        if i % n != 0 && !(n - 4..n).contains(&i) {
            t.push(i as Vidx, 0); // hub column
        }
    }
    t
}

#[test]
fn auto_pick_is_exactly_one_concrete_engines_result() {
    // `auto` must not blend engines: its matching is identical to running
    // the resolved concrete engine directly with the same options.
    let cases = [
        random_bipartite(24, 24, 60, 0xA0), // balanced sparse → msbfs
        star(4, 64),                        // skew/rectangular → ppf
        banded_hub(24),                     // dense + skewed → auction
        mcm_gen::hard::crown(16),           // dense + uniform → ppf (crown guard)
    ];
    for (i, t) in cases.iter().enumerate() {
        let (picked, stats) = resolve_algo(t, MatchingAlgo::Auto);
        assert!(stats.is_some(), "auto must measure");
        let auto_r = solve(t, &PortfolioOptions::default());
        let conc_r = solve(t, &PortfolioOptions { algo: picked, ..PortfolioOptions::default() });
        assert_eq!(auto_r.stats.algo, picked.name(), "case {i}: label mismatch");
        assert!(auto_r.stats.algo_auto, "case {i}: auto flag missing");
        assert!(!conc_r.stats.algo_auto, "case {i}: explicit run flagged auto");
        assert_eq!(auto_r.matching, conc_r.matching, "case {i}: auto != {picked}");
    }
}

#[test]
fn crown_blind_spot_stays_fixed() {
    // Regression for the selector's crown blind spot: crowns are dense
    // *and* degree-uniform, so the plain density rule routed them to the
    // auction, whose price wars lost ~40x wall clock on crown_256
    // (BENCH_algo.json). The uniformity guard must send every crown to
    // PPF while leaving genuinely skewed dense instances on the auction.
    for n in [8, 16, 64, 128] {
        let t = mcm_gen::hard::crown(n);
        let (picked, stats) = resolve_algo(&t, MatchingAlgo::Auto);
        let s = stats.expect("auto must measure");
        assert!(s.density >= SelectorStats::DENSE, "crown({n}) density {}", s.density);
        assert!(s.degree_skew <= SelectorStats::UNIFORM, "crown({n}) skew {}", s.degree_skew);
        assert_eq!(picked, MatchingAlgo::Ppf, "crown({n}) fell back into the auction price war");
    }
    let (picked, stats) = resolve_algo(&banded_hub(24), MatchingAlgo::Auto);
    let s = stats.expect("auto must measure");
    assert!(
        s.degree_skew > SelectorStats::UNIFORM && s.degree_skew < SelectorStats::SKEWED,
        "banded_hub skew {} left the guarded band — rebuild the fixture",
        s.degree_skew
    );
    assert_eq!(picked, MatchingAlgo::Auction, "dense + skewed must still use the auction");
}

#[test]
fn eps_scaling_converges_on_price_war_instances() {
    // The auction's adversaries: stars make every alternative equally
    // good (price wars), long alternating chains make eviction cascades
    // ripple end to end. Scaled ε must still land on the HK cardinality
    // with a Berge certificate, and must beat a fixed fine ε on rounds.
    for (name, t) in [
        ("star(1,16)", star(1, 16)),
        ("star(4,32)", star(4, 32)),
        ("chain(32)", chain(32)),
        ("crown(12)", mcm_gen::hard::crown(12)),
    ] {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        let r = auction(&a, &AuctionOptions::default());
        assert_eq!(r.matching.cardinality(), want, "{name}: auction not maximum");
        verify::verify(&a, &r.matching).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            verify::is_maximum_from(&a, &r.matching, &r.matching.unmatched_cols()),
            "{name}: Berge certificate failed"
        );
    }

    // The crowded star is the Θ(1/ε) war: fixed fine ε creeps one bid
    // per round, scaling resolves the war coarsely first.
    let a = star(4, 32).to_csc();
    let scaled = auction(&a, &AuctionOptions::default());
    let fine = 1.0 / 128.0;
    let fixed = auction(
        &a,
        &AuctionOptions { eps_start: fine, eps_final: Some(fine), ..AuctionOptions::default() },
    );
    assert_eq!(scaled.matching.cardinality(), fixed.matching.cardinality());
    assert!(scaled.stats.scales > 1, "scaling never engaged");
    assert!(
        scaled.stats.rounds < fixed.stats.rounds,
        "scaling did not beat fixed ε: {} >= {}",
        scaled.stats.rounds,
        fixed.stats.rounds
    );
}

#[test]
fn every_engine_is_berge_certified_from_its_unmatched_columns() {
    // `is_maximum_from` is the cheap certificate (alternating BFS from
    // the free columns): it must accept every engine's output on the
    // curated suite and reject a deliberately truncated matching.
    let cases = simtest_suite(0xBE49E);
    for (name, t) in &cases {
        let a = t.to_csc();
        let want = hopcroft_karp(&a, None).cardinality();
        for algo in MatchingAlgo::CONCRETE {
            let r = solve(t, &PortfolioOptions { algo, ..PortfolioOptions::default() });
            assert_eq!(r.matching.cardinality(), want, "{name}/{algo} not maximum");
            assert!(
                verify::is_maximum_from(&a, &r.matching, &r.matching.unmatched_cols()),
                "{name}/{algo}: certificate rejected a maximum matching"
            );
        }
        if want > 0 {
            // Negative control: the empty matching on a matchable graph
            // must be rejected from its (all-free) columns.
            let empty = mcm_core::Matching::empty(t.nrows(), t.ncols());
            assert!(
                !verify::is_maximum_from(&a, &empty, &empty.unmatched_cols()),
                "{name}: certificate accepted the empty matching"
            );
        }
    }
}

#[test]
fn broken_auction_bid_update_loses_cardinality() {
    // The injected fault drops evicted bidders (a lost wakeup in the bid
    // update). On the alternating chain the eviction cascade is load-
    // bearing, so the fault must strand the tail — and the clean engine
    // must not. `detect_injected_auction_fault` in simtest_sweep.rs
    // drives the same fault through the seeded-schedule harness.
    let a = chain(8).to_csc();
    let clean = auction(&a, &AuctionOptions::default());
    assert_eq!(clean.matching.cardinality(), 8);
    assert!(clean.stats.evictions > 0, "chain must exercise the eviction path");
    let broken =
        auction(&a, &AuctionOptions { fault_lost_bidder: true, ..AuctionOptions::default() });
    assert!(
        broken.matching.cardinality() < 8,
        "lost-bidder fault was not observable on the eviction cascade"
    );
}
