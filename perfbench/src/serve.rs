//! The daemon: an in-process `Server::start(DynMatching::from_csc(..))`
//! with the default `ServerConfig` and `DynOptions`, driven over loopback
//! by closed-loop clients, and the traced in-process replay of the same
//! request stream.

use crate::report::Samples;
use crate::trace::Trace;
use mcm_core::Matching;
use mcm_dyn::{DynMatching, DynOptions, Update};
use mcm_serve::{parse_command, Command, Server, ServerConfig, SwapCell};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Csc, Vidx, NIL};
use mcm_store::McsbFile;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections, each one thread of the benchmark.
pub const CONNECTIONS: usize = 2;
/// Deleted edges a connection keeps outstanding: it deletes below
/// `LOW`, re-inserts at `HIGH`, and picks at random in between, so the
/// graph stays within `CONNECTIONS * HIGH` edges of the base.
const LOW: usize = 32;
const HIGH: usize = 96;

/// Opens the MCSB file and checks its payload.
pub fn load(path: &Path) -> Result<McsbFile, String> {
    let file = McsbFile::open(path).map_err(|e| e.to_string())?;
    file.verify_payload().map_err(|e| e.to_string())?;
    Ok(file)
}

/// The daemon's set-up, as a user pays it: open + checksum, the initial
/// solve, and `Server::start` until it accepts connections. Also returns
/// the initial matching, for the clients' request streams.
pub fn start(path: &Path) -> Result<(Server, Matching), String> {
    let file = load(path)?;
    let dm = DynMatching::from_csc(file.to_csc(), DynOptions::default());
    let m = dm.matching().clone();
    let server = Server::start(dm, ServerConfig::default()).map_err(|e| e.to_string())?;
    Ok((server, m))
}

type Edges = Vec<(Vidx, Vidx)>;

/// The graph and initial matching the daemon started from, split into
/// the edge pools each connection draws its updates from.
pub struct Base {
    pub nnz: usize,
    pub cardinality: usize,
    /// Per connection: edges of the initial matching, and other edges.
    pools: Vec<(Edges, Edges)>,
}

impl Base {
    pub fn new(path: &Path, m: &Matching) -> Result<Self, String> {
        let file = McsbFile::open(path).map_err(|e| e.to_string())?;
        let mut pools = vec![(Vec::new(), Vec::new()); CONNECTIONS];
        let (mut k_matched, mut k_other) = (0, 0);
        for (r, c) in file.view().iter() {
            if m.mate_c.get(c) == r && r != NIL {
                pools[k_matched % CONNECTIONS].0.push((r, c));
                k_matched += 1;
            } else {
                pools[k_other % CONNECTIONS].1.push((r, c));
                k_other += 1;
            }
        }
        Ok(Base { nnz: file.nnz(), cardinality: m.cardinality(), pools })
    }

    /// A matching of any graph between base-minus-outstanding-deletes and
    /// the base has a cardinality in this range.
    fn cardinality_range(&self) -> std::ops::RangeInclusive<usize> {
        self.cardinality.saturating_sub(CONNECTIONS * HIGH)..=self.cardinality
    }
}

/// One request of the workload's cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Delete(Vidx, Vidx),
    Insert(Vidx, Vidx),
    Query,
    Sync,
}

impl Request {
    pub fn line(&self) -> String {
        match self {
            Request::Delete(r, c) => format!("delete {r} {c}\n"),
            Request::Insert(r, c) => format!("insert {r} {c}\n"),
            Request::Query => "query\n".to_string(),
            Request::Sync => "sync\n".to_string(),
        }
    }
}

/// A connection's request stream: 16-request cycles of 13 updates, 2
/// `query` and 1 `sync`. Updates delete live edges of the connection's
/// own pools, alternating between edges of the initial matching and
/// other edges, and re-insert the oldest deleted edge, so no update is a
/// no-op and the graph stays near the base.
pub struct Stream {
    rng: SplitMix64,
    matched: Edges,
    other: Edges,
    /// Deleted edges, oldest first, tagged with their pool.
    deleted: VecDeque<(Vidx, Vidx, bool)>,
    k: u64,
    deletes: u64,
}

impl Stream {
    pub fn new(base: &Base, conn: usize, seed: u64) -> Self {
        let (matched, other) = base.pools[conn].clone();
        Stream {
            rng: SplitMix64::new(
                seed ^ (0xC0FFEE + conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            matched,
            other,
            deleted: VecDeque::new(),
            k: 0,
            deletes: 0,
        }
    }

    /// Edges this stream has deleted and not re-inserted.
    pub fn outstanding(&self) -> usize {
        self.deleted.len()
    }

    pub fn next_request(&mut self) -> Request {
        let pos = self.k % 16;
        self.k += 1;
        match pos {
            4 | 10 => return Request::Query,
            15 => return Request::Sync,
            _ => {}
        }
        let n = self.deleted.len();
        let pools_empty = self.matched.is_empty() && self.other.is_empty();
        let delete = !pools_empty && (n < LOW || (n < HIGH && self.rng.next_u64() & 1 == 0));
        if delete {
            self.deletes += 1;
            let from_matched = !self.matched.is_empty()
                && (self.deletes.is_multiple_of(2) || self.other.is_empty());
            let pool = if from_matched { &mut self.matched } else { &mut self.other };
            let (r, c) = pool.swap_remove(self.rng.below(pool.len() as u64) as usize);
            self.deleted.push_back((r, c, from_matched));
            Request::Delete(r, c)
        } else {
            let (r, c, from_matched) =
                self.deleted.pop_front().expect("a stream with empty pools has deleted edges");
            if from_matched { &mut self.matched } else { &mut self.other }.push((r, c));
            Request::Insert(r, c)
        }
    }
}

/// What the clients saw.
#[derive(Default)]
pub struct ClientReport {
    pub update_us: Samples,
    pub query_us: Samples,
    pub sync_ms: Samples,
    pub ok_updates: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Seconds the clients were driving the daemon.
    pub window_secs: f64,
    /// Edges deleted and not re-inserted when the clients stopped.
    pub outstanding: usize,
}

impl ClientReport {
    fn absorb(&mut self, other: ClientReport) {
        self.update_us.extend(&other.update_us);
        self.query_us.extend(&other.query_us);
        self.sync_ms.extend(&other.sync_ms);
        self.ok_updates += other.ok_updates;
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.window_secs += other.window_secs;
        self.outstanding += other.outstanding;
    }
}

/// One client connection with its request stream and what it saw.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    stream: Stream,
    rep: ClientReport,
    last_seq: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, stream: Stream) -> std::io::Result<Conn> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = sock.try_clone()?;
        let reader = BufReader::new(sock);
        Ok(Conn { writer, reader, stream, rep: ClientReport::default(), last_seq: 0 })
    }

    /// Sends one request, times its round trip and checks the answer's
    /// shape. Returns false when the daemon did not answer.
    fn request(&mut self, range: &std::ops::RangeInclusive<usize>) -> (Request, bool) {
        let req = self.stream.next_request();
        let rep = &mut self.rep;
        rep.attempted += 1;
        let mut line = String::new();
        let t = Instant::now();
        let answered = self
            .writer
            .write_all(req.line().as_bytes())
            .and_then(|()| self.reader.read_line(&mut line))
            .is_ok_and(|n| n > 0);
        let secs = t.elapsed().as_secs_f64();
        if !answered {
            rep.failures.push(format!("unanswered {req:?}"));
            return (req, false);
        }
        let resp = line.trim_end();
        let shape_ok = match req {
            Request::Delete(..) | Request::Insert(..) => {
                rep.update_us.push(secs * 1e6);
                rep.ok_updates += u64::from(resp == "ok");
                resp == "ok"
            }
            Request::Query => {
                rep.query_us.push(secs * 1e6);
                let card = resp.strip_prefix("matching ").and_then(|n| n.parse::<usize>().ok());
                card.is_some_and(|c| range.contains(&c))
            }
            Request::Sync => {
                rep.sync_ms.push(secs * 1e3);
                let f: Vec<&str> = resp.split(' ').collect();
                let seq = f.get(2).and_then(|s| s.parse::<u64>().ok());
                let ok = f.len() == 5
                    && f[0] == "synced"
                    && f[1] == "seq"
                    && f[3] == "cardinality"
                    && seq.is_some_and(|s| s >= self.last_seq)
                    && f[4].parse::<usize>().is_ok_and(|c| range.contains(&c));
                if ok {
                    self.last_seq = seq.expect("checked above");
                }
                ok
            }
        };
        if !shape_ok {
            rep.failures.push(format!("{req:?} answered {resp:?}"));
        }
        (req, true)
    }

    /// Runs whole cycles until `deadline` has passed and the shared sync
    /// count reached `min_syncs`, or `hard_deadline` passed.
    fn serve(
        &mut self,
        range: &std::ops::RangeInclusive<usize>,
        deadline: Instant,
        hard_deadline: Instant,
        syncs: &AtomicUsize,
        min_syncs: usize,
    ) {
        loop {
            let (req, answered) = self.request(range);
            if !answered {
                return;
            }
            if req == Request::Sync {
                let total = syncs.fetch_add(1, Ordering::Relaxed) + 1;
                let now = Instant::now();
                if now >= hard_deadline || (now >= deadline && total >= min_syncs) {
                    return;
                }
            }
        }
    }
}

/// What one or more daemon runs measured.
#[derive(Default)]
pub struct DaemonReport {
    pub clients: ClientReport,
    /// Updates the engines applied, and the batches they formed.
    pub updates: usize,
    pub batches: usize,
}

impl DaemonReport {
    pub fn absorb(&mut self, other: DaemonReport) {
        self.clients.absorb(other.clients);
        self.updates += other.updates;
        self.batches += other.batches;
    }

    pub fn mean_batch(&self) -> f64 {
        self.updates as f64 / self.batches.max(1) as f64
    }
}

/// A running daemon with its closed-loop client connections, driven in
/// measurement windows that can alternate with other work.
pub struct Daemon<'a> {
    server: Server,
    base: &'a Base,
    conns: Vec<Conn>,
    syncs: AtomicUsize,
    window_secs: f64,
}

impl<'a> Daemon<'a> {
    pub fn connect(server: Server, base: &'a Base, seed: u64) -> Result<Self, String> {
        let conns = (0..CONNECTIONS)
            .map(|c| Conn::connect(server.local_addr(), Stream::new(base, c, seed)))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon { server, base, conns, syncs: AtomicUsize::new(0), window_secs: 0.0 })
    }

    /// Drives every connection for at least `budget`, and on until this
    /// daemon's syncs reach `min_syncs`, for at most `extra` longer.
    pub fn serve_for(&mut self, budget: Duration, min_syncs: usize, extra: Duration) {
        let start = Instant::now();
        let (deadline, hard_deadline) = (start + budget, start + budget + extra);
        let range = self.base.cardinality_range();
        let syncs = &self.syncs;
        std::thread::scope(|s| {
            for conn in self.conns.iter_mut() {
                let range = &range;
                s.spawn(move || conn.serve(range, deadline, hard_deadline, syncs, min_syncs));
            }
        });
        self.window_secs += start.elapsed().as_secs_f64();
    }

    /// Shuts the daemon down and checks the engine it returns: the full
    /// Berge certificate, and the edge count the clients' updates imply.
    pub fn finish(self) -> DaemonReport {
        let mut out = DaemonReport::default();
        out.clients.window_secs = self.window_secs;
        for c in self.conns {
            out.clients.outstanding += c.stream.outstanding();
            out.clients.absorb(c.rep);
        }
        let dm = self.server.shutdown().expect_card();
        out.clients.attempted += 1;
        if let Err(e) = dm.verify_full() {
            out.clients.failures.push(format!("final verify_full: {e}"));
        }
        let want_nnz = self.base.nnz - out.clients.outstanding;
        if dm.graph().nnz() != want_nnz {
            out.clients
                .failures
                .push(format!("final nnz {} but updates imply {want_nnz}", dm.graph().nnz()));
        }
        out.updates = dm.stats().updates;
        out.batches = dm.stats().batches;
        out
    }
}

/// What the traced replay measured.
#[derive(Default)]
pub struct ReplayReport {
    pub setup_solve_s: f64,
    pub batch_size: usize,
    pub parse_secs: f64,
    pub lines: u64,
    pub apply_ms: Samples,
    pub publish_ms: Samples,
    pub batches: u64,
    pub deletes: u64,
    pub matched_deletes: u64,
    pub local_searches: u64,
    pub repaired: u64,
    pub cert_seeds: u64,
    pub fallbacks: u64,
    pub covered_secs: f64,
    pub traced_secs: f64,
    pub failures: Vec<String>,
}

/// Replays the connections' request streams in-process, interleaved a
/// cycle at a time, in batches of `batch` updates: each batch's lines go
/// through `parse_command`, its updates through `apply_batch`, and the
/// result is published with `snapshot_state` + `SwapCell::store`, each
/// call inside its own span.
pub fn replay(
    csc: Csc,
    base: &Base,
    seed: u64,
    batch: usize,
    budget: Duration,
    trace: &mut Trace,
) -> ReplayReport {
    let mut rep = ReplayReport { batch_size: batch, ..Default::default() };
    let t = Instant::now();
    let setup = trace.open("dyn.setup_solve", None, u64::MAX);
    let mut dm = DynMatching::from_csc(csc, DynOptions::default());
    trace.close(setup);
    rep.setup_solve_s = t.elapsed().as_secs_f64();
    let cell = SwapCell::new(Arc::new(dm.snapshot_state()));
    let mut streams: Vec<Stream> = (0..CONNECTIONS).map(|c| Stream::new(base, c, seed)).collect();
    let mut pending: VecDeque<String> = VecDeque::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let request = rep.batches;
        let root = trace.open("batch", None, request);
        // Gather the lines that carry the next `batch` updates.
        let mut lines = Vec::new();
        let mut updates = 0;
        while updates < batch {
            if pending.is_empty() {
                for s in streams.iter_mut() {
                    pending.extend((0..16).map(|_| s.next_request().line()));
                }
            }
            let line = pending.pop_front().expect("refilled above");
            updates += usize::from(line.starts_with("delete") || line.starts_with("insert"));
            lines.push(line);
        }
        let parse = trace.open("serve.parse", Some(root), request);
        let parsed: Vec<_> = lines.iter().map(|l| parse_command(l)).collect();
        trace.close(parse);
        rep.lines += lines.len() as u64;
        let mut ups: Vec<Update> = Vec::with_capacity(batch);
        for p in parsed {
            match p {
                Ok(Some(Command::Insert(r, c, _))) => ups.push(Update::Insert(r, c)),
                Ok(Some(Command::Delete(r, c))) => ups.push(Update::Delete(r, c)),
                Ok(Some(Command::Query | Command::Sync)) => {}
                other => rep.failures.push(format!("replay parse: {other:?}")),
            }
        }
        let apply = trace.open("dyn.apply", Some(root), request);
        let br = dm.apply_batch(&ups);
        trace.close(apply);
        let publish = trace.open("dyn.publish", Some(root), request);
        cell.store(Arc::new(dm.snapshot_state()));
        trace.close(publish);
        trace.close(root);

        let secs = |id: usize| trace.spans()[id].secs();
        rep.parse_secs += secs(parse);
        rep.apply_ms.push(secs(apply) * 1e3);
        rep.publish_ms.push(secs(publish) * 1e3);
        rep.covered_secs += secs(parse) + secs(apply) + secs(publish);
        rep.traced_secs += secs(root);
        rep.batches += 1;
        rep.deletes += br.deletes as u64;
        rep.matched_deletes += br.matched_deletes as u64;
        rep.local_searches += br.local_searches as u64;
        rep.repaired += br.repaired as u64;
        rep.cert_seeds += br.cert_seeds as u64;
        rep.fallbacks += u64::from(br.fallback);
        if br.applied != ups.len() {
            rep.failures.push(format!("replay batch applied {} of {}", br.applied, ups.len()));
        }
    }
    if let Err(e) = dm.verify_full() {
        rep.failures.push(format!("replay verify_full: {e}"));
    }
    rep
}
