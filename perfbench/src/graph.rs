//! Workload inputs: each graph is generated from the run's seed and
//! written to an MCSB file, which is all the measured program sees.

use mcm_gen::RmatParams;
use mcm_store::{McsbStreamWriter, StoreError};
use std::path::Path;

/// The graph family of a workload, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphSpec {
    /// Graph500 RMAT (a=.57, b=c=.19, d=.05) at `scale` with `edge_factor`
    /// samples per vertex, deduplicated.
    Rmat { scale: u32, edge_factor: usize },
    /// `road_grid(side, side, drop, seed)`: a 4-neighbour lattice with a
    /// fraction of its edges removed.
    Road { side: usize, drop: f64 },
}

/// What writing a workload graph produced.
#[derive(Clone, Copy, Debug)]
pub struct GraphFile {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: u64,
    pub bytes: u64,
}

impl GraphSpec {
    /// One-line description for the run record.
    pub fn describe(&self) -> String {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => {
                format!("g500 RMAT scale {scale} edge factor {edge_factor}")
            }
            GraphSpec::Road { side, drop } => format!("road_grid {side}x{side} drop {drop}"),
        }
    }

    /// Generates the graph from `seed` straight into an MCSB file at `path`.
    pub fn write_mcsb(&self, path: &Path, seed: u64) -> Result<GraphFile, StoreError> {
        match *self {
            GraphSpec::Rmat { scale, edge_factor } => {
                let p = RmatParams { edge_factor, ..RmatParams::g500(scale) };
                let mut w = McsbStreamWriter::create(path, p.n(), p.n(), false)?;
                let mut err = None;
                mcm_gen::stream_edges(&p, seed, |chunk| {
                    if err.is_none() {
                        err = w.push_edges(chunk).err();
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
                let s = w.finish(mcm_par::max_threads())?;
                Ok(GraphFile { nrows: p.n(), ncols: p.n(), nnz: s.nnz, bytes: s.bytes })
            }
            GraphSpec::Road { side, drop } => {
                let a = mcm_gen::mesh::road_grid(side, side, drop, seed).to_csc();
                let bytes = mcm_store::write_csc_file(path, &a)?;
                Ok(GraphFile { nrows: a.nrows(), ncols: a.ncols(), nnz: a.nnz() as u64, bytes })
            }
        }
    }
}
