//! Golden pins: exact modeled cost, run counters and matchings of fixed
//! solves, recorded so that a change to matrix assembly or to the driver
//! that moves any of them fails here rather than only in the figure CSVs.
//!
//! Each case renders its observables as text (modeled seconds as `f64`
//! bits, so equality is exact) and compares against the recorded string.

use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig, ProcGrid, Timers};
use mcm_core::maximal::Initializer;
use mcm_core::mcm::{maximum_matching, McmOptions, McmStats};
use mcm_core::Matching;
use mcm_dyn::{DynMatching, DynOptions, Update};
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{SpVec, Triples, Vidx, NIL};
use std::fmt::Write;

/// FNV-1a over the column mates (`NIL` included), so the hash pins the
/// exact matching, not just its cardinality.
fn matching_hash(m: &Matching) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in 0..m.n2() as Vidx {
        for b in m.mate_c.get(c).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn timers_text(t: &Timers) -> String {
    let mut s = String::new();
    for k in Kernel::ALL {
        writeln!(s, "  {} {:#018x} {}", k.name(), t.seconds(k).to_bits(), t.calls(k)).unwrap();
    }
    s
}

fn stats_text(s: &McmStats) -> String {
    format!(
        "  phases {} iterations {} augmentations {} init {} bottom_up {} spmv_calls {} spmv_hits {}\n",
        s.phases,
        s.iterations,
        s.augmentations,
        s.init_cardinality,
        s.bottom_up_iterations,
        s.spmv_workspace_calls,
        s.spmv_workspace_hits
    )
}

fn check(got: &str, want: &str) {
    assert!(got == want, "golden mismatch; got:\n{got}\nwant:\n{want}");
}

/// Solves `t` with `opts` on a `dim × dim` simulated grid and
/// renders timers, counters and the matching.
fn solve_text(t: &Triples, dim: usize, opts: &McmOptions) -> String {
    let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
    let r = maximum_matching(&mut ctx, t, opts);
    format!(
        "p {} card {} hash {:#018x}\n{}{}",
        dim * dim,
        r.matching.cardinality(),
        matching_hash(&r.matching),
        stats_text(&r.stats),
        timers_text(&ctx.timers)
    )
}

/// An unsorted edge list with duplicate edges on a non-square shape.
fn messy_triples() -> Triples {
    let (n1, n2) = (53usize, 47usize);
    let mut rng = SplitMix64::new(0x0601_1DE4);
    let mut edges = Vec::new();
    for _ in 0..260 {
        let e = (rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
        edges.push(e);
        if rng.below(4) == 0 {
            edges.push(e); // duplicate
        }
    }
    Triples::from_edges(n1, n2, edges)
}

#[test]
fn g500_scale10_on_the_simulator_at_p_1_4_9() {
    let t = rmat(RmatParams::g500(10), 7);
    let got: String =
        [1, 2, 3].iter().map(|&dim| solve_text(&t, dim, &McmOptions::default())).collect();
    check(&got, G500_S10);
}

#[test]
fn unsorted_duplicated_triples_on_a_3x2_grid() {
    let t = messy_triples();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(1, 1));
    ctx.machine.grid = ProcGrid { pr: 3, pc: 2 };
    let a = DistMatrix::from_triples(&ctx, &t);
    let mut got = format!("grid {:?} nnz {}\n", a.grid(), a.nnz());
    for bi in 0..3 {
        for bj in 0..2 {
            let b = a.block(bi, bj);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (i, j) in b.iter() {
                for x in [i, j] {
                    h = (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            writeln!(
                got,
                "  block ({bi},{bj}) {}x{} nnz {} hash {h:#018x}",
                b.nrows(),
                b.ncols(),
                b.nnz()
            )
            .unwrap();
        }
    }
    let x = SpVec::from_sorted_pairs(
        t.ncols(),
        (0..t.ncols() as Vidx).step_by(3).map(|j| (j, j)).collect(),
    );
    let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| inc < acc);
    writeln!(
        got,
        "  spmspv nnz {} first {:?}",
        y.nnz(),
        y.entries().iter().take(4).collect::<Vec<_>>()
    )
    .unwrap();
    got.push_str(&timers_text(&ctx.timers));
    check(&got, MESSY_3X2);
}

#[test]
fn unsorted_duplicated_triples_solved_at_p4() {
    // Default options, then without an initializer so the phase loop
    // does the work.
    let t = messy_triples();
    let got = solve_text(&t, 2, &McmOptions::default())
        + &solve_text(&t, 2, &McmOptions { init: Initializer::None, ..Default::default() });
    check(&got, MESSY_P4);
}

#[test]
fn warm_start_through_the_dynamic_fallback() {
    let t = rmat(RmatParams::g500(8), 3);
    let mut dm = DynMatching::from_triples(
        &t,
        DynOptions { fallback_threshold: 0.0, full_verify: true, ..DynOptions::default() },
    );
    // Delete a slice of matched edges and insert fresh ones: every batch
    // exceeds the zero threshold and takes the warm-started MS-BFS path.
    let mut rng = SplitMix64::new(0xFA11);
    let mut got = String::new();
    for batch in 0..3 {
        let m = dm.matching().clone();
        let mut ops = Vec::new();
        for c in (batch as Vidx..m.n2() as Vidx).step_by(11) {
            let r = m.mate_c.get(c);
            if r != NIL {
                ops.push(Update::Delete(r, c));
            }
        }
        for _ in 0..20 {
            ops.push(Update::Insert(rng.below(256) as Vidx, rng.below(256) as Vidx));
        }
        let rep = dm.apply_batch(&ops);
        let s = dm.stats();
        writeln!(
            got,
            "batch {batch} fallback {} card {} hash {:#018x} spmv_calls {} spmv_hits {}",
            rep.fallback,
            dm.cardinality(),
            matching_hash(dm.matching()),
            s.fallback_spmv_calls,
            s.fallback_spmv_hits
        )
        .unwrap();
    }
    check(&got, WARM_FALLBACK);
}

const G500_S10: &str = concat!(
    "p 1 card 746 hash 0xa3b4aae45dfe861b\n",
    "  phases 5 iterations 47 augmentations 34 init 712 bottom_up 0 spmv_calls 47 spmv_hits 46\n",
    "  SpMV 0x3f212c6f970912f2 141\n",
    "  Invert 0x3ecd0a96a0afa73c 112\n",
    "  Prune 0x3eb215f988e4e2e6 18\n",
    "  Select 0x3eed33ed6d5644b6 244\n",
    "  Augment 0x3f133ba4a46d3aca 92\n",
    "  Init 0x3f42ea6eda647633 40\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x0000000000000000 47\n",
    "p 4 card 746 hash 0xa3b4aae45dfe861b\n",
    "  phases 5 iterations 47 augmentations 34 init 712 bottom_up 0 spmv_calls 188 spmv_hits 184\n",
    "  SpMV 0x3f3a10b392a544d9 141\n",
    "  Invert 0x3f3a32d7d4cee008 112\n",
    "  Prune 0x3f007b00040f61d0 18\n",
    "  Select 0x3ed78f35340bc2a1 244\n",
    "  Augment 0x3f283a44b09a4d5a 4\n",
    "  Init 0x3f37b0b1f5414658 40\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x3f328e1980262276 47\n",
    "p 9 card 746 hash 0xa3b4aae45dfe861b\n",
    "  phases 5 iterations 47 augmentations 34 init 712 bottom_up 0 spmv_calls 423 spmv_hits 414\n",
    "  SpMV 0x3f42b3834714330c 141\n",
    "  Invert 0x3f49a686df4f27d1 112\n",
    "  Prune 0x3f1075295e037c9d 18\n",
    "  Select 0x3ecf660802e9fb70 244\n",
    "  Augment 0x3f20b697bd5ca889 4\n",
    "  Init 0x3f35e327685ff6f3 40\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x3f4284a323974516 47\n",
);
const MESSY_3X2: &str = concat!(
    "grid (3, 2) nnz 246\n",
    "  block (0,0) 18x24 nnz 49 hash 0x87cdb81edfece5a5\n",
    "  block (0,1) 18x23 nnz 43 hash 0x281cd919fe18e0dd\n",
    "  block (1,0) 18x24 nnz 47 hash 0xa128b8e21fe6b63e\n",
    "  block (1,1) 18x23 nnz 41 hash 0x26745216cc4a605c\n",
    "  block (2,0) 17x24 nnz 34 hash 0x180d89ee9af3e276\n",
    "  block (2,1) 17x23 nnz 32 hash 0x268643df377dfcd7\n",
    "  spmspv nnz 46 first [(0, 12), (1, 6), (2, 9), (3, 21)]\n",
    "  SpMV 0x3edf30581db4820e 3\n",
    "  Invert 0x0000000000000000 0\n",
    "  Prune 0x0000000000000000 0\n",
    "  Select 0x0000000000000000 0\n",
    "  Augment 0x0000000000000000 0\n",
    "  Init 0x0000000000000000 0\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x0000000000000000 0\n",
);
const MESSY_P4: &str = concat!(
    "p 4 card 46 hash 0xc11ae09a9d2ec492\n",
    "  phases 1 iterations 1 augmentations 0 init 46 bottom_up 0 spmv_calls 4 spmv_hits 0\n",
    "  SpMV 0x3ed57dda652a95f0 3\n",
    "  Invert 0x3edc8571c4687a3d 2\n",
    "  Prune 0x0000000000000000 0\n",
    "  Select 0x0000000000000000 5\n",
    "  Augment 0x0000000000000000 0\n",
    "  Init 0x3f1aaa1cc0f84faa 40\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x3ed9443882ed1e96 1\n",
    "p 4 card 46 hash 0x40a135c236ac2cd0\n",
    "  phases 5 iterations 6 augmentations 46 init 0 bottom_up 0 spmv_calls 24 spmv_hits 20\n",
    "  SpMV 0x3f02a18fa9a31e76 18\n",
    "  Invert 0x3f12465c386db848 20\n",
    "  Prune 0x3eee57fc37c0d8f0 8\n",
    "  Select 0x3e8a70de534bc642 34\n",
    "  Augment 0x3f0d21f138df3c08 4\n",
    "  Init 0x0000000000000000 0\n",
    "  Gather 0x0000000000000000 0\n",
    "  Other 0x3f02f32a6231d6f1 6\n",
);
const WARM_FALLBACK: &str = concat!(
    "batch 0 fallback true card 206 hash 0xffeac94751448b81 spmv_calls 41 spmv_hits 40\n",
    "batch 1 fallback true card 210 hash 0x857c54c0e074fab6 spmv_calls 65 spmv_hits 64\n",
    "batch 2 fallback true card 211 hash 0xb4d031107d46927f spmv_calls 105 spmv_hits 104\n",
);
