//! End-to-end wall-clock of the execution backends: full MCM-DIST on the
//! real thread-per-rank `EngineComm` mesh and on the fused shared-memory
//! `SharedComm` arena across a core sweep (1/2/4/8), against the serial
//! cost-model simulator and serial Hopcroft–Karp on the same graph. The
//! modeled-time story lives in the figure binaries; this bench answers
//! the sharded-serving question — what a warm recompute actually costs
//! on real cores (`mcmd --backend engine|shared`, DESIGN.md §12, §14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_bsp::{DistCtx, EngineComm, MachineConfig, SharedComm};
use mcm_core::serial::hopcroft_karp;
use mcm_core::{maximum_matching_view, McmOptions};
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

/// Total-core sweep → (ranks, threads-per-rank): square rank counts only,
/// threads soak up the non-square factors.
const CORES: [(usize, usize, usize); 4] = [(1, 1, 1), (2, 1, 2), (4, 4, 1), (8, 4, 2)];

fn bench_engine_e2e(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(12), 7);
    let opts = McmOptions::default();
    let mut group = c.benchmark_group("engine_e2e");
    group.throughput(Throughput::Elements(t.len() as u64));

    let csc = t.to_csc();
    group.bench_function(BenchmarkId::new("serial_hk", "g500_s12"), |b| {
        b.iter(|| black_box(hopcroft_karp(&csc, None).cardinality()))
    });

    group.bench_function(BenchmarkId::new("simulator", "g500_s12"), |b| {
        b.iter(|| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
            black_box(maximum_matching_view(&mut ctx, &csc.view(), &opts).matching.cardinality())
        })
    });

    for &(cores, p, threads) in &CORES {
        group.bench_function(BenchmarkId::new("engine", cores), |b| {
            b.iter(|| {
                let mut comm = EngineComm::new(p, threads);
                black_box(
                    maximum_matching_view(&mut comm, &csc.view(), &opts).matching.cardinality(),
                )
            })
        });
    }

    // SharedComm executes fused in one address space; the relabeling
    // permutation only hurts locality there, so the shared rows run the
    // same configuration `mcmd --backend shared` uses for recomputes.
    let shared_opts = McmOptions { permute_seed: None, ..McmOptions::default() };
    for &(cores, p, threads) in &CORES {
        group.bench_function(BenchmarkId::new("shared", cores), |b| {
            b.iter(|| {
                let mut comm = SharedComm::new(p, threads);
                let r = maximum_matching_view(&mut comm, &csc.view(), &shared_opts);
                black_box(r.matching.cardinality())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_e2e);
criterion_main!(benches);
