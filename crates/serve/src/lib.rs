//! # mcm-serve — the concurrent matching service
//!
//! Turns the `mcm-dyn` incremental engine into a daemon thousands of
//! clients can hit at once, std-only:
//!
//! * [`proto`] — the `mcmd` line protocol (plain text or JSONL), shared
//!   by the stdin loop and the socket path, plus [`proto::LineFramer`],
//!   the partial-line/pipelining-tolerant byte-to-line layer whose EOF
//!   check reports a truncated tail as a structured error;
//! * [`server`] — `mcmd --listen`: a non-blocking acceptor, a worker
//!   thread per connection, a single writer thread applying admitted
//!   updates in bounded batches (size + latency watermarks, `busy`
//!   backpressure), and **lock-free-published snapshots** so
//!   `query`/`state`/`stats` never block behind a repair (or each
//!   other). A snapshot carries scalars only (cardinality, nnz, epoch,
//!   counters, weight), so publishing one is O(1) per batch;
//!   `snapshot <path>` is a writer barrier like `sync`, and the only
//!   request that copies the graph. Serves either engine: maximum
//!   cardinality or, with `mcmd --weighted`, maximum weight
//!   (`insert u v [w]`, weight-carrying `query`/`stats`);
//! * [`swap`] — [`SwapCell`], the wait-free-read `Arc` publication cell
//!   behind the snapshot path (external reader counting, no read-side
//!   locks);
//! * [`load`] — the closed-/open-loop load harness behind `serve_load`
//!   and the CI smoke job (p50/p99/p999 per verb, sustained updates/sec,
//!   zero-corruption accounting).
//!
//! DESIGN.md §16 describes the serving architecture and its contracts.

pub mod load;
pub mod proto;
pub mod server;
pub mod swap;

pub use load::{run_load, LoadConfig, LoadMode, LoadReport, VerbReport};
pub use proto::{parse_command, verb_of, Command, FrameError, LineFramer};
pub use server::{
    format_stats_line, format_wstats_line, ApplyHook, Engine, Published, Server, ServerConfig, Snap,
};
pub use swap::SwapCell;
