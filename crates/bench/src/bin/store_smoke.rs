//! `store_smoke` — the CI acceptance check for the out-of-core chain
//! (DESIGN.md §18): stream-generate a scale-16 G500 RMAT graph into MCSB,
//! mmap it, assert the load stayed out-of-core (resident-set growth a
//! small fraction of the on-disk size), solve through the shared-memory
//! backend from the borrowed view, and Berge-certify the result.
//!
//! Exits non-zero on any failed step. `--scale n` overrides the size.

use mcm_core::verify::is_maximum_view;
use mcm_core::McmOptions;
use mcm_gen::RmatParams;
use mcm_store::{McsbFile, McsbStreamWriter};
use std::process::ExitCode;

fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse::<u64>().ok().map(|kb| kb * 1024)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: u32 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let p = RmatParams { edge_factor: 16, ..RmatParams::g500(scale) };
    let path = std::env::temp_dir().join(format!("mcm_store_smoke_{}.mcsb", std::process::id()));

    // Stream-generate: the full edge list never materializes.
    let mut w = McsbStreamWriter::create(&path, p.n(), p.n(), false).expect("create writer");
    let mut push_err = None;
    mcm_gen::stream_edges(&p, 7, |chunk| {
        if push_err.is_none() {
            push_err = w.push_edges(chunk).err();
        }
    });
    if let Some(e) = push_err {
        eprintln!("store_smoke: stream write failed: {e}");
        return ExitCode::FAILURE;
    }
    let summary = w.finish(mcm_par::max_threads()).expect("finish");
    eprintln!(
        "store_smoke: wrote scale-{scale} MCSB: {} nnz, {} bytes",
        summary.nnz, summary.bytes
    );

    // Mmap-load and check the residency claim: opening + building the view
    // touches the header and colptr pages only, so RSS growth must stay a
    // small fraction of the on-disk size (budget: 1/4, generous vs. the
    // ~3% a scale-16 colptr section actually is).
    let rss_before = vm_rss_bytes();
    let file = McsbFile::open(&path).expect("mmap open");
    let v = file.view();
    if let (Some(before), Some(after)) = (rss_before, vm_rss_bytes()) {
        let delta = after.saturating_sub(before);
        let budget = summary.bytes / 4;
        if file.is_mapped() && delta > budget {
            eprintln!(
                "store_smoke: FAIL: mmap load grew RSS by {delta} bytes (> {budget} = file/4)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "store_smoke: load rss delta {delta} bytes ({:.1}% of file, mapped={})",
            100.0 * delta as f64 / summary.bytes as f64,
            file.is_mapped()
        );
    } else {
        eprintln!("store_smoke: /proc/self/status unavailable; skipping RSS assertion");
    }

    // Solve from the borrowed view and certify maximality.
    let mut comm = mcm_bsp::SharedComm::new(4, mcm_par::max_threads());
    let res = mcm_core::mcm::maximum_matching_view(&mut comm, &v, &McmOptions::default());
    if !is_maximum_view(&v, &res.matching) {
        eprintln!("store_smoke: FAIL: Berge certificate rejected the matching");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "store_smoke: OK: cardinality {} of {} columns, Berge-certified",
        res.matching.cardinality(),
        v.ncols()
    );
    std::fs::remove_file(&path).ok();
    ExitCode::SUCCESS
}
