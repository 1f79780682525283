//! The certified solve: `McsbFile::open` + `verify_payload`, MCM-DIST on
//! the shared-memory backend (4 logical ranks, 2 threads each, default
//! options) from the mapped view, then `validate_view` and the Berge
//! certificate `is_maximum_view`.
//!
//! The untimed path calls the same entry point `mcm match --load g.mcsb
//! --algo dist --backend shared` uses. The traced path composes the
//! identical solve from the public call of each layer and records a span
//! around each call.

use crate::report::Samples;
use crate::trace::Trace;
use mcm_bsp::{Communicator, DistMatrix, Kernel, SharedComm, Timers};
use mcm_core::mcm::{maximum_matching_view, run_phases};
use mcm_core::verify::is_maximum_view;
use mcm_core::{Matching, McmOptions, McmStats};
use mcm_sparse::permute::{relabel_permutations, Permutation};
use mcm_sparse::{CscView, Vidx, NIL};
use mcm_store::McsbFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Logical ranks and threads per rank of the shared-memory backend.
const RANKS: usize = 4;
const THREADS: usize = 2;

/// The counts of one solve that must repeat exactly for a given input.
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    pub phases: usize,
    pub iterations: usize,
    pub augmentations: usize,
    pub init_cardinality: usize,
    pub cardinality: usize,
    pub spmv_calls: u64,
    pub spmv_hits: u64,
    /// The α–β–γ model's per-kernel seconds and call counts.
    pub modeled: Timers,
}

impl Counts {
    fn new(stats: &McmStats, cardinality: usize, modeled: &Timers) -> Self {
        Counts {
            phases: stats.phases,
            iterations: stats.iterations,
            augmentations: stats.augmentations,
            init_cardinality: stats.init_cardinality,
            cardinality,
            spmv_calls: stats.spmv_workspace_calls,
            spmv_hits: stats.spmv_workspace_hits,
            modeled: modeled.clone(),
        }
    }
}

/// Result of one solve: wall seconds from the loaded view to the
/// certified matching, its counts, and whether the certificate held.
pub struct Solve {
    pub secs: f64,
    pub counts: Counts,
    pub certified: Result<(), String>,
}

fn certify(v: &CscView<'_>, m: &Matching) -> Result<(), String> {
    m.validate_view(v)?;
    if !is_maximum_view(v, m) {
        return Err(format!(
            "matching of cardinality {} admits an augmenting path",
            m.cardinality()
        ));
    }
    Ok(())
}

/// One untraced certified solve of `v`.
pub fn solve(v: &CscView<'_>) -> Solve {
    let t = Instant::now();
    let mut comm = SharedComm::new(RANKS, THREADS);
    let r = maximum_matching_view(&mut comm, v, &McmOptions::default());
    let certified = certify(v, &r.matching);
    let secs = t.elapsed().as_secs_f64();
    Solve {
        secs,
        counts: Counts::new(&r.stats, r.matching.cardinality(), &comm.ctx().timers),
        certified,
    }
}

/// Maps a matching on relabeled vertices back to the input's labels.
fn unpermute(m: &Matching, rowp: &Permutation, colp: &Permutation) -> Matching {
    let (rinv, cinv) = (rowp.inverse(), colp.inverse());
    let mut out = Matching::empty(m.n1(), m.n2());
    for jp in 0..m.n2() as Vidx {
        let ip = m.mate_c.get(jp);
        if ip != NIL {
            out.add(rinv.apply(ip), cinv.apply(jp));
        }
    }
    out
}

/// One traced solve of the MCSB file at `path`: the solve of [`solve`],
/// composed from each layer's public call, preceded by the load.
/// Returns the solve's counts, the summed SpMSpV iteration seconds, and
/// the root span's index in `trace`.
pub fn solve_traced(
    path: &Path,
    trace: &mut Trace,
    request: u64,
) -> Result<(Solve, f64, usize), String> {
    let root = trace.open("solve", None, request);
    let r = Some(root);
    let file =
        trace.span("store.open", r, request, || McsbFile::open(path)).map_err(|e| e.to_string())?;
    trace.span("store.verify", r, request, || file.verify_payload()).map_err(|e| e.to_string())?;
    let v = file.view();
    let t = Instant::now();
    let opts = McmOptions::default();
    let mut comm = SharedComm::new(RANKS, THREADS);
    let (a, at, perms) = trace.span("bsp.distribute", r, request, || {
        let perms = opts.permute_seed.map(|s| relabel_permutations(v.nrows(), v.ncols(), s));
        let (rowp, colp) = (perms.as_ref().map(|p| &p.0), perms.as_ref().map(|p| &p.1));
        let (epr, epc) = comm.exec_grid();
        let (a, at) = DistMatrix::with_grid_csc_pair(&v, epr, epc, rowp, colp);
        (a, at, perms)
    });
    let mut m =
        trace.span("core.init", r, request, || opts.init.run(&mut comm, &a, &at, opts.seed));
    let mut stats =
        McmStats { init_cardinality: m.cardinality(), algo: "msbfs", ..Default::default() };
    trace.span("core.phases", r, request, || {
        run_phases(&mut comm, &a, Some(&at), &mut m, &opts, &mut stats)
    });
    let m = trace.span("core.unpermute", r, request, || match &perms {
        Some((rowp, colp)) => unpermute(&m, rowp, colp),
        None => m,
    });
    let valid = trace.span("core.validate", r, request, || m.validate_view(&v));
    let maximum = trace.span("core.certify", r, request, || is_maximum_view(&v, &m));
    let secs = t.elapsed().as_secs_f64();
    trace.close(root);
    let certified = valid.and_then(|()| {
        maximum.then_some(()).ok_or_else(|| "traced solve is not maximum".to_string())
    });
    let spmspv = stats.spmv_iteration_ns.iter().sum::<u64>() as f64 * 1e-9;
    let counts = Counts::new(&stats, m.cardinality(), &comm.ctx().timers);
    Ok((Solve { secs, counts, certified }, spmspv, root))
}

/// What the solve phase of a run measured.
#[derive(Default)]
pub struct SolvePhase {
    /// Untraced solve seconds, one entry per graph.
    pub secs: Vec<Samples>,
    /// The first solve's counts, per graph.
    pub counts: Vec<Counts>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Traced runs only: per graph, seconds per layer span name (plus
    /// `sparse.spmspv` and the traced `solve` total).
    pub layers: Vec<BTreeMap<&'static str, Samples>>,
    /// Traced runs only: summed layer seconds and summed traced totals.
    pub covered_secs: f64,
    pub traced_secs: f64,
    /// The graph the next solve takes.
    next: usize,
}

impl SolvePhase {
    /// Checks a solve's counts against the graph's first solve (graphs are
    /// first solved in order); a mismatch means the input or schedule is
    /// not what the names claim.
    fn record_counts(&mut self, g: usize, c: Counts) -> Result<(), String> {
        match self.counts.get(g) {
            None => {
                self.counts.push(c);
                Ok(())
            }
            Some(first) if *first == c => Ok(()),
            Some(first) => {
                Err(format!("nondeterministic solve of graph {g}: first {first:?}, later {c:?}"))
            }
        }
    }

    fn record_solve(&mut self, g: usize, s: Solve) -> Result<(), String> {
        self.attempted += 1;
        if let Err(e) = s.certified {
            self.failures.push(format!("graph {g}: {e}"));
        }
        self.secs[g].push(s.secs);
        self.record_counts(g, s.counts)
    }

    pub fn new(graphs: usize) -> Self {
        SolvePhase {
            secs: vec![Samples::default(); graphs],
            layers: vec![BTreeMap::new(); graphs],
            ..Default::default()
        }
    }

    /// Solves the graphs in `files` round-robin, resuming where the last
    /// call stopped, until `budget` has passed and every graph was solved.
    /// With a trace, each solve is preceded by the traced composition on
    /// the same graph, so layer spans and untraced times come from the
    /// same run.
    pub fn run_for(
        &mut self,
        files: &[PathBuf],
        budget: Duration,
        mut trace: Option<&mut Trace>,
    ) -> Result<(), String> {
        // `mcm match` runs with the metrics registry off; a daemon started
        // earlier in this process (`mcmd` keeps it on) must not leave it on.
        mcm_obs::enable_metrics(false);
        let start = Instant::now();
        loop {
            let g = self.next;
            self.next = (g + 1) % files.len();
            if let Some(trace) = trace.as_deref_mut() {
                self.run_traced(g, &files[g], trace)?;
            }
            let file = McsbFile::open(&files[g]).map_err(|e| e.to_string())?;
            let s = solve(&file.view());
            let last = s.secs;
            self.record_solve(g, s)?;

            // Stop when one more solve would more likely overrun the
            // budget than fit in it.
            let done = start.elapsed() + Duration::from_secs_f64(last / 2.0) >= budget;
            if done && self.secs.iter().all(|s| s.len() > 0) {
                return Ok(());
            }
        }
    }

    fn run_traced(&mut self, g: usize, path: &Path, trace: &mut Trace) -> Result<(), String> {
        let request = self.attempted;
        let (s, spmspv, root) = solve_traced(path, trace, request)?;
        let layers = &mut self.layers[g];
        for span in trace.spans().iter().filter(|s| s.parent == Some(root)) {
            layers.entry(span.name).or_default().push(span.secs());
        }
        let total = trace.spans()[root].secs();
        self.covered_secs += total - trace.self_secs(root);
        self.traced_secs += total;
        layers.entry("sparse.spmspv").or_default().push(spmspv);
        layers.entry("solve").or_default().push(s.secs);
        // The traced composition must be the same solve: certified, with
        // the same counts.
        self.attempted += 1;
        if let Err(e) = &s.certified {
            self.failures.push(format!("graph {g} (traced): {e}"));
        }
        self.record_counts(g, s.counts)
    }
}

/// Sums the counts over graphs: the exact figures a perf-only change
/// must leave unchanged.
pub fn summed(counts: &[Counts]) -> (Counts, Vec<(Kernel, f64, u64)>) {
    let mut sum = counts[0].clone();
    for c in &counts[1..] {
        sum.phases += c.phases;
        sum.iterations += c.iterations;
        sum.augmentations += c.augmentations;
        sum.init_cardinality += c.init_cardinality;
        sum.cardinality += c.cardinality;
        sum.spmv_calls += c.spmv_calls;
        sum.spmv_hits += c.spmv_hits;
    }
    let kernels = Kernel::ALL
        .iter()
        .map(|&k| {
            let secs = counts.iter().map(|c| c.modeled.seconds(k)).sum();
            let calls = counts.iter().map(|c| c.modeled.calls(k)).sum();
            (k, secs, calls)
        })
        .collect();
    (sum, kernels)
}
