//! Observability overhead on the `engine_e2e` sweep (DESIGN.md §13).
//!
//! Three questions, answered in `BENCH_obs.json`:
//!
//! 1. `disabled/<cores>` vs `enabled/<cores>` — what the *enabled*
//!    recorder (tracing + metrics + trace collection) costs on a full
//!    MCM-DIST engine run. This is the price of `--breakdown`.
//! 2. `site/*` — the per-call-site cost of the *disabled* path: one
//!    `Relaxed` load for a span open, one for a counter helper. The <2%
//!    disabled-overhead gate in `tests/obs.rs` multiplies this by the
//!    instrumentation-site count of a real run (taken from an enabled
//!    run's event count) and divides by the run's wall time — the
//!    compiled-in-but-off overhead cannot be measured differentially
//!    because the baseline without instrumentation no longer exists.
//! 3. `events/collected` — events one enabled engine run records
//!    (iterations encode the count), so the JSON documents the
//!    site-count side of the gate arithmetic too.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcm_bsp::EngineComm;
use mcm_core::{maximum_matching_view, McmOptions};
use mcm_gen::rmat::{rmat, RmatParams};
use std::hint::black_box;

/// Same total-core sweep as `engine_e2e`: (cores, ranks, threads/rank).
const CORES: [(usize, usize, usize); 4] = [(1, 1, 1), (2, 1, 2), (4, 4, 1), (8, 4, 2)];

fn bench_obs_overhead(c: &mut Criterion) {
    let t = rmat(RmatParams::g500(12), 7);
    let a = t.to_csc();
    let opts = McmOptions::default();
    let engine_run = |p: usize, threads: usize| {
        maximum_matching_view(&mut EngineComm::new(p, threads), &a.view(), &opts)
    };
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(t.len() as u64));

    mcm_obs::enable_all(false);
    for &(cores, p, threads) in &CORES {
        group.bench_function(BenchmarkId::new("disabled", cores), |b| {
            b.iter(|| black_box(engine_run(p, threads).matching.cardinality()))
        });
    }

    for &(cores, p, threads) in &CORES {
        group.bench_function(BenchmarkId::new("enabled", cores), |b| {
            b.iter(|| {
                mcm_obs::enable_all(true);
                let card = engine_run(p, threads).matching.cardinality();
                mcm_obs::enable_all(false);
                // Collection is part of the enabled price.
                black_box(mcm_obs::take_trace().events.len());
                black_box(card)
            })
        });
    }
    group.finish();

    // Disabled-path per-site cost: the whole point of the design is that
    // these are one Relaxed atomic load each.
    let mut sites = c.benchmark_group("site");
    mcm_obs::enable_all(false);
    sites.bench_function("disabled_span", |b| {
        b.iter(|| black_box(mcm_obs::span(black_box("bench_site"))))
    });
    sites.bench_function("disabled_counter", |b| {
        b.iter(|| mcm_obs::counter_add(black_box("bench_site_total"), &[], 1))
    });
    sites.finish();

    // Event volume of one enabled run, recorded as iteration throughput so
    // the JSON carries the site count the overhead gate reasons from.
    mcm_obs::enable_all(true);
    drop(mcm_obs::take_trace());
    let (_, p, threads) = CORES[3];
    engine_run(p, threads);
    let events = mcm_obs::take_trace().events.len() as u64;
    mcm_obs::enable_all(false);
    let mut vol = c.benchmark_group("events");
    vol.throughput(Throughput::Elements(events));
    vol.bench_function("collected", |b| b.iter(|| black_box(events)));
    vol.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
