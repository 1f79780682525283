//! `mcm-perfbench`: the workspace's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmat-solve --seed 1 --seconds 30 --trace 0 [--smoke]
//! ```
//!
//! Every workload serves both users of the system on graphs generated
//! from `--seed`:
//!
//! * **solve** — a certified maximum matching of an MCSB graph, as
//!   `mcm match --load g.mcsb --algo dist --backend shared` computes it;
//! * **serve** — the `mcmd --listen` daemon over loopback, with two
//!   closed-loop connections of updates, `query` and `sync`.
//!
//! The workloads differ in graph family and in how the run's seconds are
//! split between the two; see `WORKLOADS`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` runs the same work with spans around
//! each layer's public calls and reports the per-layer metrics. The last
//! line of standard output is the result object; the lines before it
//! (prefixed `#`) record the seed, the host, the inputs and every metric
//! with its unit and sample count. `--smoke` shrinks every input so the
//! whole pipeline runs in seconds.

mod graph;
mod report;
mod serve;
mod solve;
mod trace;

use graph::{GraphFile, GraphSpec};
use report::{mean_of_medians, Metrics, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;

/// A workload: which graphs are solved and served, and the share of the
/// measured seconds spent solving.
struct Workload {
    name: &'static str,
    solve: GraphSpec,
    /// Graphs solved per run, each from its own seed derived from the
    /// run's seed; the solve figures average over them.
    solve_graphs: usize,
    serve: GraphSpec,
    solve_share: f64,
}

const WORKLOADS: [Workload; 3] = [
    // Low diameter, power-law degrees: distribute and init dominate the
    // solve, with few wide-frontier BFS iterations.
    Workload {
        name: "rmat-solve",
        solve: GraphSpec::Rmat { scale: 18, edge_factor: 16 },
        solve_graphs: 3,
        serve: GraphSpec::Rmat { scale: 16, edge_factor: 16 },
        solve_share: 0.5,
    },
    // High diameter: the MS-BFS phase loop does most of the solve, over
    // about a thousand thin-frontier iterations, averaged over ten graphs
    // because the iteration count varies from graph to graph. The daemon
    // serves a whole lattice: it has a perfect matching, so every matched
    // delete is repaired along an alternating path, and its cost does not
    // hinge on how many vertices a random drop leaves unmatched.
    Workload {
        name: "road-solve",
        solve: GraphSpec::Road { side: 512, drop: 0.10 },
        solve_graphs: 10,
        serve: GraphSpec::Road { side: 512, drop: 0.0 },
        solve_share: 0.5,
    },
    // The serving layers under churn, with reads alongside writes; the
    // solves are of graphs the daemon serves.
    Workload {
        name: "churn-serve",
        solve: GraphSpec::Rmat { scale: 16, edge_factor: 16 },
        solve_graphs: 4,
        serve: GraphSpec::Rmat { scale: 16, edge_factor: 16 },
        solve_share: 0.25,
    },
];

/// The same families at a size that runs end to end in about a second.
fn smoke(spec: GraphSpec) -> GraphSpec {
    match spec {
        GraphSpec::Rmat { edge_factor, .. } => GraphSpec::Rmat { scale: 10, edge_factor },
        GraphSpec::Road { drop, .. } => GraphSpec::Road { side: 32, drop },
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Length of one solve-then-serve slice of the measured seconds.
const SLICE_SECONDS: u64 = 5;
/// Syncs a full-size run collects at least, so that about 75 lie beyond
/// the reported p95 and 15 beyond the recorded p99; the last slice serves
/// up to a quarter of the serve budget longer to reach them.
const MIN_SYNCS: usize = 1500;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Per-input seeds derived from the run's seed (SplitMix64 finalizer).
fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add((k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computed (not measured) bytes of the A and Aᵀ arrays the solve builds
/// on its single shared-memory block: DCSC with `u32` column ids and row
/// indices and `usize` column pointers, for each orientation.
fn dcsc_pair_bytes(file: &mcm_store::McsbFile) -> u64 {
    let v = file.view();
    let nzc = (0..v.ncols()).filter(|&j| !v.col(j).is_empty()).count();
    let mut row_seen = vec![false; v.nrows()];
    v.iter().for_each(|(i, _)| row_seen[i as usize] = true);
    let nzr = row_seen.iter().filter(|&&s| s).count();
    let dcsc = |nzc: usize| (nzc * 4 + (nzc + 1) * 8 + v.nnz() * 4) as u64;
    dcsc(nzc) + dcsc(nzr)
}

/// `a / b`, or 0 when nothing was attempted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
}

fn run(args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let w = args.workload;
    let size = |s: GraphSpec| if args.smoke { smoke(s) } else { s };
    let (solve_spec, serve_spec) = (size(w.solve), size(w.serve));
    let budget = Duration::from_secs(args.seconds);
    let solve_budget = budget.mul_f64(w.solve_share);
    let serve_budget = budget - solve_budget;
    let min_syncs = if args.smoke { 1 } else { MIN_SYNCS };
    // The measured seconds alternate between solving and serving in
    // slices, so both see the same stretch of machine time; each slice
    // serves its own graph.
    let slices = (args.seconds / SLICE_SECONDS).max(1) as usize;

    // Inputs: graph k of a family comes from the k-th seed derived from
    // the run's seed, so a workload that solves and serves one family
    // serves graphs it also solves. Generated once, untimed.
    let mut inputs = Inputs(Vec::new());
    let mut input = |spec: GraphSpec, k: u64| -> Result<usize, String> {
        if let Some(i) = inputs.0.iter().position(|f| f.0 == spec && f.1 == k) {
            return Ok(i);
        }
        let i = inputs.0.len();
        let path = work.join(format!("{}-{}-{}-{i}.mcsb", w.name, args.seed, std::process::id()));
        let f = spec.write_mcsb(&path, derive(args.seed, k)).map_err(|e| e.to_string())?;
        inputs.0.push((spec, k, path, f));
        Ok(i)
    };
    // The traced run serves one graph (see below).
    let served = if args.trace { 1 } else { slices };
    let solve_ids =
        (0..w.solve_graphs as u64).map(|k| input(solve_spec, k)).collect::<Result<Vec<_>, _>>()?;
    let serve_ids =
        (0..served as u64).map(|k| input(serve_spec, k)).collect::<Result<Vec<_>, _>>()?;
    let paths: Vec<PathBuf> = solve_ids.iter().map(|&i| inputs.0[i].2.clone()).collect();
    let serve_paths: Vec<PathBuf> = serve_ids.iter().map(|&i| inputs.0[i].2.clone()).collect();

    let (nproc, cpu) = report::host();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host nproc {nproc} cpu {cpu}");
    for (i, (spec, _, path, f)) in inputs.0.iter().enumerate() {
        let pair = dcsc_pair_bytes(&serve::load(path)?);
        println!(
            "# input {i}: {} {}x{} nnz {} mcsb_bytes {} a_at_computed_bytes {pair}",
            spec.describe(),
            f.nrows,
            f.ncols,
            f.nnz,
            f.bytes
        );
    }
    println!("# solved inputs {solve_ids:?}, served inputs {serve_ids:?}");

    let record = format!("{solve_spec:?} x{}", w.solve_graphs);
    let mut m = Metrics::default();
    let mut failures = Vec::new();
    let mut attempted = 0;
    if !args.trace {
        // Set-up of both services: open + checksum of the solve input,
        // and of the daemon's input with its initial solve and start.
        let mut setup = Samples::default();
        for k in 0..SETUP_ROUNDS {
            let t = Instant::now();
            let file = serve::load(&paths[k % paths.len()])?;
            let (server, _) = serve::start(&serve_paths[k % serve_paths.len()])?;
            setup.push(t.elapsed().as_secs_f64());
            drop(file);
            server.shutdown();
        }
        let slice = budget / slices as u32;
        let mut solves = solve::SolvePhase::new(paths.len());
        let mut served = serve::DaemonReport::default();
        for (k, path) in serve_paths.iter().enumerate() {
            solves.run_for(&paths, slice.mul_f64(w.solve_share), None)?;
            let (server, m0) = serve::start(path)?;
            let base = serve::Base::new(path, &m0)?;
            let mut daemon = serve::Daemon::connect(server, &base, derive(args.seed, k as u64))?;
            // The last slice serves on until the run has its syncs.
            let (need, extra) = if k + 1 == slices {
                (min_syncs.saturating_sub(served.clients.sync_ms.len()), serve_budget / 4)
            } else {
                (0, Duration::ZERO)
            };
            daemon.serve_for(slice.mul_f64(1.0 - w.solve_share), need, extra);
            served.absorb(daemon.finish());
        }
        attempted += solves.attempted;
        failures.extend(solves.failures.iter().cloned());
        check_counts_across_runs(work, args, &record, &solves.counts)?;
        let c = &served.clients;
        attempted += c.attempted;
        failures.extend(c.failures.iter().cloned());
        println!(
            "# daemon: {slices} graphs, {} updates ok in {:.3} s, {:.1} updates per batch",
            c.ok_updates,
            c.window_secs,
            served.mean_batch()
        );
        if c.sync_ms.beyond(0.99) < 10 {
            println!("# warning: only {} syncs beyond p99", c.sync_ms.beyond(0.99));
        }

        m.add("setup_s", setup.median(), "s", setup.len());
        m.add(
            "solve_s",
            mean_of_medians(&solves.secs),
            "s",
            solves.secs.iter().map(Samples::len).sum(),
        );
        // VmHWM of a run that solves scale-18 graphs lands 91 or ~120 MiB
        // depending on which allocator arenas the solve's threads draw
        // from, so it is recorded, not compared.
        m.note("peak_rss_mb", report::peak_rss_mb(), "MiB", 1);
        m.add("updates_per_s", c.ok_updates as f64 / c.window_secs, "1/s", c.update_us.len());
        m.add("update_p50_us", c.update_us.median(), "us", c.update_us.len());
        // Round-trip tails of microsecond requests are set by the
        // scheduler on a small box, not by the daemon: recorded only.
        m.note("update_p99_us", c.update_us.quantile(0.99), "us", c.update_us.len());
        m.add("visible_p50_ms", c.sync_ms.median(), "ms", c.sync_ms.len());
        // p99 of ~1500 syncs rests on ~15 samples and swings with the
        // scheduler; p95 rests on ~75 and is the reported tail.
        m.add("visible_p95_ms", c.sync_ms.quantile(0.95), "ms", c.sync_ms.len());
        m.note("visible_p99_ms", c.sync_ms.quantile(0.99), "ms", c.sync_ms.len());
        m.add("query_p50_us", c.query_us.median(), "us", c.query_us.len());
        m.note("query_p99_us", c.query_us.quantile(0.99), "us", c.query_us.len());
    } else {
        let mut trace = Trace::new();
        let mut solves = solve::SolvePhase::new(paths.len());
        solves.run_for(&paths, solve_budget, Some(&mut trace))?;
        attempted += solves.attempted;
        failures.extend(solves.failures.iter().cloned());
        check_counts_across_runs(work, args, &record, &solves.counts)?;

        // The daemon forms its batches first; the replay then uses their
        // mean size.
        let serve_path = &serve_paths[0];
        let (server, m0) = serve::start(serve_path)?;
        let base = serve::Base::new(serve_path, &m0)?;
        let stream_seed = derive(args.seed, 0);
        let mut daemon = serve::Daemon::connect(server, &base, stream_seed)?;
        daemon.serve_for(serve_budget / 2, 1, Duration::ZERO);
        let d = daemon.finish();
        attempted += d.clients.attempted;
        failures.extend(d.clients.failures.iter().cloned());
        let batch = (d.mean_batch().round() as usize).max(1);
        let csc = serve::load(serve_path)?.to_csc();
        let r = serve::replay(csc, &base, stream_seed, batch, serve_budget / 2, &mut trace);
        attempted += r.batches + 1;
        failures.extend(r.failures.iter().cloned());
        trace
            .write_jsonl(&work.join(format!("trace-{}-{}.jsonl", w.name, args.seed)))
            .map_err(|e| e.to_string())?;

        let layer = |name: &str| -> Vec<Samples> {
            solves.layers.iter().map(|l| l.get(name).cloned().unwrap_or_default()).collect()
        };
        let mean = |name: &str| mean_of_medians(&layer(name));
        let n = |name: &str| layer(name).iter().map(Samples::len).sum::<usize>();
        let (sum, kernels) = solve::summed(&solves.counts);
        let untraced = mean_of_medians(&solves.secs);
        m.add("store.open_s", mean("store.open"), "s", n("store.open"));
        m.add("store.verify_s", mean("store.verify"), "s", n("store.verify"));
        m.add("bsp.distribute_s", mean("bsp.distribute"), "s", n("bsp.distribute"));
        m.add("core.init_s", mean("core.init"), "s", n("core.init"));
        m.add(
            "core.init_match_frac",
            ratio(sum.init_cardinality as f64, sum.cardinality as f64),
            "ratio",
            1,
        );
        m.add("core.phases_s", mean("core.phases"), "s", n("core.phases"));
        m.add("sparse.spmspv_s", mean("sparse.spmspv"), "s", n("sparse.spmspv"));
        // Select, Invert, Prune, Augment and the allreduce: the phase loop
        // minus its SpMSpV iterations.
        let rest = mean("core.phases") - mean("sparse.spmspv");
        m.add("core.phase_rest_s", rest, "s", n("core.phases"));
        m.add("core.certify_s", mean("core.certify"), "s", n("core.certify"));
        m.add("core.phases", sum.phases as f64, "count", 1);
        m.add("core.bfs_iterations", sum.iterations as f64, "count", 1);
        m.add("core.augmentations", sum.augmentations as f64, "count", 1);
        m.add(
            "sparse.workspace_hit_frac",
            ratio(sum.spmv_hits as f64, sum.spmv_calls as f64),
            "ratio",
            1,
        );
        for (k, secs, calls) in kernels {
            m.add(format!("bsp.modeled.{}_s", k.name()), secs, "s", 1);
            m.add(format!("bsp.calls.{}", k.name()), calls as f64, "count", 1);
        }
        m.add("serve.parse_us", ratio(r.parse_secs * 1e6, r.lines as f64), "us", r.lines as usize);
        m.add("dyn.apply_ms", r.apply_ms.median(), "ms", r.apply_ms.len());
        m.add("dyn.publish_ms", r.publish_ms.median(), "ms", r.publish_ms.len());
        m.add("dyn.setup_solve_s", r.setup_solve_s, "s", 1);
        m.add("dyn.batch_size", r.batch_size as f64, "count", r.batches as usize);
        let batches = r.batches as f64;
        m.add(
            "dyn.local_searches",
            ratio(r.local_searches as f64, batches),
            "count",
            r.batches as usize,
        );
        m.add("dyn.repair_hit_frac", ratio(r.repaired as f64, r.local_searches as f64), "ratio", 1);
        m.add(
            "dyn.matched_delete_frac",
            ratio(r.matched_deletes as f64, r.deletes as f64),
            "ratio",
            1,
        );
        m.add("dyn.cert_seeds", ratio(r.cert_seeds as f64, batches), "count", r.batches as usize);
        m.add("dyn.fallbacks", r.fallbacks as f64, "count", 1);
        let covered = solves.covered_secs + r.covered_secs;
        let traced = solves.traced_secs + r.traced_secs;
        m.add("trace.coverage_frac", ratio(covered, traced), "ratio", 1);
        m.add("trace.overhead_frac", mean("solve") / untraced - 1.0, "ratio", n("solve"));
    }

    Ok(Outcome { metrics: m, attempted, failures })
}

/// The generated input files of a run, removed when the run ends, also
/// when it ends with an error.
struct Inputs(Vec<(GraphSpec, u64, PathBuf, GraphFile)>);

impl Drop for Inputs {
    fn drop(&mut self) {
        for (_, _, path, _) in &self.0 {
            std::fs::remove_file(path).ok();
        }
    }
}

/// The exact counts of a seed's solves must repeat across runs: the first
/// run of a seed records them next to the inputs, later runs compare.
fn check_counts_across_runs(
    work: &std::path::Path,
    args: &Args,
    record: &str,
    counts: &[solve::Counts],
) -> Result<(), String> {
    let path = work.join(format!("counts-{}-{}.txt", args.workload.name, args.seed));
    // The record is keyed by the inputs it describes: a record of other
    // inputs (another size or graph count) is replaced, not compared.
    let inputs = format!("{record}\n");
    let now = format!("{counts:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before.strip_prefix(&inputs) == Some(now.as_str()) => Ok(()),
        Ok(before) if before.starts_with(&inputs) => Err(format!(
            "counts changed across runs of seed {}:\nbefore {}now    {now}",
            args.seed,
            &before[inputs.len()..]
        )),
        _ => std::fs::write(&path, inputs + &now).map_err(|e| e.to_string()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcm-perfbench: {e}");
            eprintln!(
                "usage: mcm-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--smoke]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Inputs, span logs and count records stay inside the benchmark's
    // directory (ignored by git).
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("mcm-perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &work) {
        Ok(out) => {
            out.metrics.print_table();
            for f in &out.failures {
                eprintln!("mcm-perfbench: FAILED: {f}");
            }
            let failed = out.failures.len() as u64;
            println!("{}", out.metrics.result_json(failed == 0, out.attempted, failed));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mcm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
