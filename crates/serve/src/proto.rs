//! The `mcmd` wire protocol: one command per line, shared by the stdin
//! loop and the socket daemon.
//!
//! Two spellings are accepted and can be mixed freely on one stream:
//!
//! * plain text — `insert 3 5`, `delete 3 5`, `query`, `state`, `sync`,
//!   `stats`, `metrics`, `snapshot out.mtx`, `quit`, `shutdown`; blank
//!   lines and `#` comments ignored;
//! * JSONL — `{"op": "insert", "u": 3, "v": 5}` and friends. The parser
//!   is deliberately a tokenizer, not a JSON library (the workspace has
//!   no serde and the grammar is a handful of fixed shapes): structural
//!   punctuation is stripped and `u`/`v`/`w`/`path` keys are honoured,
//!   so key order does not matter.
//!
//! `insert` optionally carries an edge weight — `insert 3 5 2.5` or
//! `{"op": "insert", "u": 3, "v": 5, "w": 2.5}` — for daemons running
//! the weighted engine (`mcmd --weighted`). A missing weight means 1.0
//! there, so unweighted clients interoperate unchanged; re-inserting a
//! live edge with a new weight re-weights it.
//!
//! Row/column indices are 0-based, matching the rest of the workspace
//! (`mcm-sparse` converts at the Matrix Market boundary only).
//!
//! [`LineFramer`] is the byte-to-line layer both paths read through: it
//! tolerates partial lines (a read boundary mid-line), pipelined bursts
//! (many lines per read), and `\r\n`, and its [`LineFramer::finish`]
//! reports an unterminated tail at EOF as a structured
//! [`FrameError::TruncatedTail`] instead of silently dropping (or worse,
//! executing) a half-received command.

use mcm_sparse::Vidx;

/// One parsed `mcmd` command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Stage edge (row, col) for insertion, optionally weighted.
    /// `None` means "not spelled out" — 1.0 to a weighted engine.
    Insert(Vidx, Vidx, Option<f64>),
    /// Stage edge (row, col) for deletion.
    Delete(Vidx, Vidx),
    /// Report the matching cardinality (socket mode: from the published
    /// snapshot, never blocking behind a repair).
    Query,
    /// Report the writer sequence number, overlay epoch, cardinality and
    /// live edge count of the published snapshot.
    State,
    /// Barrier: ack once every update admitted before it has been
    /// applied and published.
    Sync,
    /// Report cumulative engine statistics.
    Stats,
    /// Dump the metrics registry in Prometheus text exposition,
    /// terminated by a `# EOF` line.
    Metrics,
    /// Barrier like `Sync`, then write the graph as of that point as
    /// Matrix Market to the path.
    Snapshot(String),
    /// Close this session (stdin: flush and exit; socket: this
    /// connection only — the daemon keeps serving).
    Quit,
    /// Gracefully stop the whole daemon: drain admitted updates, publish,
    /// then exit. In stdin mode equivalent to `quit`.
    Shutdown,
}

/// Parses one input line. `Ok(None)` for blank lines and `#` comments;
/// `Err` carries a message suitable for an `error <msg>` response line.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    // Strip JSON structure; what remains is whitespace-separated tokens
    // in both spellings.
    let norm: String =
        trimmed
            .chars()
            .map(|ch| {
                if matches!(ch, '{' | '}' | '[' | ']' | '"' | '\'' | ',' | ':') {
                    ' '
                } else {
                    ch
                }
            })
            .collect();
    let toks: Vec<&str> = norm.split_whitespace().collect();
    let verb_pos = toks
        .iter()
        .position(|t| {
            matches!(
                t.to_ascii_lowercase().as_str(),
                "insert"
                    | "delete"
                    | "query"
                    | "state"
                    | "sync"
                    | "stats"
                    | "metrics"
                    | "snapshot"
                    | "quit"
                    | "exit"
                    | "shutdown"
            )
        })
        .ok_or_else(|| format!("unrecognized command: {trimmed}"))?;
    let verb = toks[verb_pos].to_ascii_lowercase();
    match verb.as_str() {
        "query" => Ok(Some(Command::Query)),
        "state" => Ok(Some(Command::State)),
        "sync" => Ok(Some(Command::Sync)),
        "stats" => Ok(Some(Command::Stats)),
        "metrics" => Ok(Some(Command::Metrics)),
        "quit" | "exit" => Ok(Some(Command::Quit)),
        "shutdown" => Ok(Some(Command::Shutdown)),
        "snapshot" => {
            let path = value_after_key(&toks, "path")
                .or_else(|| toks.get(verb_pos + 1).copied())
                .filter(|p| !p.eq_ignore_ascii_case("path"))
                .ok_or_else(|| "snapshot needs a path".to_string())?;
            Ok(Some(Command::Snapshot(path.to_string())))
        }
        verb @ ("insert" | "delete") => {
            let (u, v) = match (keyed_index(&toks, "u"), keyed_index(&toks, "v")) {
                (Some(u), Some(v)) => (u, v),
                _ => positional_pair(&toks, verb_pos)
                    .ok_or_else(|| format!("{verb} needs two vertex indices: {trimmed}"))?,
            };
            if verb == "insert" {
                let w = match value_after_key(&toks, "w") {
                    Some(t) => {
                        Some(t.parse::<f64>().map_err(|_| format!("bad insert weight: {t}"))?)
                    }
                    None => positional_weight(&toks, verb_pos),
                };
                if w.is_some_and(|w| !w.is_finite()) {
                    return Err(format!("insert weight must be finite: {trimmed}"));
                }
                Ok(Some(Command::Insert(u, v, w)))
            } else {
                Ok(Some(Command::Delete(u, v)))
            }
        }
        _ => unreachable!("position() only matches the verbs above"),
    }
}

/// The metrics label for a command (one latency histogram per verb).
pub fn verb_of(cmd: &Command) -> &'static str {
    match cmd {
        Command::Insert(..) => "insert",
        Command::Delete(..) => "delete",
        Command::Query => "query",
        Command::State => "state",
        Command::Sync => "sync",
        Command::Stats => "stats",
        Command::Metrics => "metrics",
        Command::Snapshot(..) => "snapshot",
        Command::Quit => "quit",
        Command::Shutdown => "shutdown",
    }
}

/// The token following key `k` (for JSONL `"u": 3` / `"path": "x"` pairs).
fn value_after_key<'a>(toks: &[&'a str], k: &str) -> Option<&'a str> {
    toks.iter().position(|t| t.eq_ignore_ascii_case(k)).and_then(|i| toks.get(i + 1)).copied()
}

fn keyed_index(toks: &[&str], k: &str) -> Option<Vidx> {
    value_after_key(toks, k).and_then(|t| t.parse::<Vidx>().ok())
}

/// The first two integer tokens after the verb (plain-text spelling).
fn positional_pair(toks: &[&str], verb_pos: usize) -> Option<(Vidx, Vidx)> {
    let mut ints = toks[verb_pos + 1..].iter().filter_map(|t| t.parse::<Vidx>().ok());
    Some((ints.next()?, ints.next()?))
}

/// The third numeric token after the verb, if any — the plain-text
/// spelling of an insert weight (`insert 3 5 2.5`). Keys like `u`/`v`
/// don't parse as numbers, so JSONL lines without a `w` key yield none.
fn positional_weight(toks: &[&str], verb_pos: usize) -> Option<f64> {
    toks[verb_pos + 1..].iter().filter_map(|t| t.parse::<f64>().ok()).nth(2)
}

/// Framing failure surfaced by [`LineFramer::finish`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended mid-line; the unterminated bytes are carried so
    /// the caller can report (never execute) them.
    TruncatedTail(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedTail(tail) => {
                write!(f, "truncated line at EOF (missing newline): {tail:?}")
            }
        }
    }
}

/// Incremental byte-stream-to-line decoder for one connection (or stdin).
///
/// Feed whatever each read returned via [`push`](LineFramer::push); it
/// yields every newline-terminated line seen so far and buffers the rest.
/// Call [`finish`](LineFramer::finish) at EOF to learn whether the
/// stream ended cleanly.
#[derive(Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    lines_seen: u64,
}

impl LineFramer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lines completed so far (1-based numbering for error reporting).
    pub fn lines_seen(&self) -> u64 {
        self.lines_seen
    }

    /// Feeds freshly read bytes; returns each completed line with its
    /// terminator (and any trailing `\r`) stripped. Invalid UTF-8 is
    /// replaced rather than rejected — the tokenizer will surface it as
    /// an unrecognized command.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<String> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(rel) = self.buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + rel;
            let line = &self.buf[start..end];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            out.push(String::from_utf8_lossy(line).into_owned());
            self.lines_seen += 1;
            start = end + 1;
        }
        self.buf.drain(..start);
        out
    }

    /// EOF check: `Ok` for a cleanly terminated stream, otherwise the
    /// unterminated tail as a structured error. Resets the buffer either
    /// way, so a framer can be reused after reporting.
    pub fn finish(&mut self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let tail = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        Err(FrameError::TruncatedTail(tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_commands_parse() {
        assert_eq!(parse_command("insert 3 5").unwrap(), Some(Command::Insert(3, 5, None)));
        assert_eq!(parse_command("  delete 0 12 ").unwrap(), Some(Command::Delete(0, 12)));
        assert_eq!(parse_command("query").unwrap(), Some(Command::Query));
        assert_eq!(parse_command("state").unwrap(), Some(Command::State));
        assert_eq!(parse_command("sync").unwrap(), Some(Command::Sync));
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(
            parse_command("snapshot /tmp/x.mtx").unwrap(),
            Some(Command::Snapshot("/tmp/x.mtx".into()))
        );
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("exit").unwrap(), Some(Command::Quit));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
    }

    #[test]
    fn weighted_inserts_parse_in_both_spellings() {
        assert_eq!(
            parse_command("insert 3 5 2.5").unwrap(),
            Some(Command::Insert(3, 5, Some(2.5)))
        );
        assert_eq!(
            parse_command("insert 3 5 -4").unwrap(),
            Some(Command::Insert(3, 5, Some(-4.0)))
        );
        assert_eq!(
            parse_command(r#"{"op": "insert", "u": 3, "v": 5, "w": 2.5}"#).unwrap(),
            Some(Command::Insert(3, 5, Some(2.5)))
        );
        // Key order does not matter, including `w` before the verb.
        assert_eq!(
            parse_command(r#"{"w": 7, "v": 5, "u": 3, "op": "insert"}"#).unwrap(),
            Some(Command::Insert(3, 5, Some(7.0)))
        );
        assert!(parse_command("insert 3 5 nan").is_err(), "non-finite weights are rejected");
        assert!(parse_command(r#"{"op":"insert","u":3,"v":5,"w":"x"}"#).is_err());
    }

    #[test]
    fn jsonl_commands_parse_in_any_key_order() {
        assert_eq!(
            parse_command(r#"{"op": "insert", "u": 3, "v": 5}"#).unwrap(),
            Some(Command::Insert(3, 5, None))
        );
        assert_eq!(
            parse_command(r#"{"v": 5, "u": 3, "op": "delete"}"#).unwrap(),
            Some(Command::Delete(3, 5))
        );
        assert_eq!(parse_command(r#"{"op": "query"}"#).unwrap(), Some(Command::Query));
        assert_eq!(parse_command(r#"{"op": "metrics"}"#).unwrap(), Some(Command::Metrics));
        assert_eq!(parse_command(r#"{"op": "sync"}"#).unwrap(), Some(Command::Sync));
        assert_eq!(
            parse_command(r#"{"op": "snapshot", "path": "out.mtx"}"#).unwrap(),
            Some(Command::Snapshot("out.mtx".into()))
        );
    }

    #[test]
    fn blanks_and_comments_are_skipped() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# warmup done").unwrap(), None);
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(parse_command("frobnicate 1 2").is_err());
        assert!(parse_command("insert 1").is_err());
        assert!(parse_command("insert x y").is_err());
        assert!(parse_command("snapshot").is_err());
    }

    #[test]
    fn framer_reassembles_partial_lines_and_splits_pipelined_bursts() {
        let mut f = LineFramer::new();
        assert_eq!(f.push(b"ins"), Vec::<String>::new());
        assert_eq!(f.push(b"ert 1 2\nquery\ndel"), vec!["insert 1 2", "query"]);
        assert_eq!(f.push(b"ete 1 2\r\n"), vec!["delete 1 2"]);
        assert_eq!(f.lines_seen(), 3);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn framer_reports_a_truncated_tail_instead_of_dropping_it() {
        let mut f = LineFramer::new();
        assert_eq!(f.push(b"insert 1 2\ninsert 3"), vec!["insert 1 2"]);
        match f.finish() {
            Err(FrameError::TruncatedTail(tail)) => assert_eq!(tail, "insert 3"),
            other => panic!("expected TruncatedTail, got {other:?}"),
        }
        // The framer is reusable after reporting.
        assert_eq!(f.finish(), Ok(()));
        assert_eq!(f.push(b"query\n"), vec!["query"]);
    }
}
