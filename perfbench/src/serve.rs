//! The server under test and the load generator that drives it.
//!
//! The server is `pgr serve`, run as a child process from this binary
//! (`perfbench pgr serve …` dispatches straight into the CLI). The load
//! generator is a closed loop: each connection claims whole rounds of
//! requests, keeps up to `depth` of them pipelined, and checks every
//! response against the library's answer for the same input. The loop
//! runs in epochs; between two epochs every connection waits at a
//! barrier while the host reference is timed, so the reference never
//! competes with requests in flight.

use crate::fixture::{Outcome, Passes};
use crate::util::{ms, span, HostClock, Report, NOMINAL_REF_MS};
use pgr_bytecode::{write_program_tagged, ImageKind, Program};
use pgr_registry::{base64_encode, GrammarId, Registry, ResponseLine};
use pgr_telemetry::json::{self, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// A running `pgr serve` child with one grammar in its registry.
pub struct Server {
    child: Option<Child>,
    pub socket: PathBuf,
    pub id: GrammarId,
    dir: PathBuf,
}

impl Server {
    /// Store `pgrg` in a fresh registry under `dir`, start the server
    /// and wait until it accepts connections.
    pub fn start(dir: &Path, pgrg: &[u8], workers: usize, threads: usize) -> Server {
        std::fs::create_dir_all(dir).expect("server work directory");
        let registry = dir.join("registry");
        let id = span("registry.store", || {
            Registry::open(&registry)
                .and_then(|r| r.store_bytes(pgrg, "lcc"))
                .expect("registry stores the grammar")
                .id
        });
        let socket = dir.join("pgr.sock");
        let exe = std::env::current_exe().expect("own executable");
        let child = Command::new(exe)
            .arg("pgr")
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--registry")
            .arg(&registry)
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--threads")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pgr serve");
        let mut server = Server {
            child: Some(child),
            socket,
            id,
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(&server.socket).is_ok() {
                break;
            }
            let exited = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            assert!(exited.is_none(), "pgr serve exited at start: {exited:?}");
            assert!(Instant::now() < deadline, "pgr serve did not come up");
            std::thread::sleep(Duration::from_millis(1));
        }
        server
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server running").id()
    }

    /// One request on a fresh connection.
    fn call(&self, line: &str) -> std::io::Result<String> {
        let mut stream = UnixStream::connect(&self.socket)?;
        stream.write_all(format!("{line}\n").as_bytes())?;
        let mut out = String::new();
        BufReader::new(stream).read_line(&mut out)?;
        Ok(out)
    }

    /// The server's `stats` snapshot, if it answers.
    pub fn stats(&self) -> Option<Value> {
        let line = self.call(r#"{"op":"stats"}"#).ok()?;
        json::parse(&line).ok()
    }

    /// Ask the server to shut down and wait for it to exit. Returns
    /// whether it acknowledged and exited cleanly; if it did not
    /// acknowledge, it is killed.
    pub fn stop(mut self) -> bool {
        let acked = self
            .call(r#"{"op":"shutdown"}"#)
            .is_ok_and(|down| down.contains("\"shutdown\":true"));
        let mut child = self.child.take().expect("server running");
        if !acked {
            let _ = child.kill();
        }
        let clean = child.wait().is_ok_and(|status| status.success());
        let _ = std::fs::remove_dir_all(&self.dir);
        acked && clean
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// One request and the exact response line (trace id removed) the
/// library gives for the same input; `None` for `stats`.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: &'static str,
    pub line: String,
    pub expected: Option<String>,
}

/// Request lines and expected responses for a set of inputs, built from
/// the library's own results.
pub struct Catalog {
    pub compress: Vec<Req>,
    pub decompress: Vec<Req>,
    pub run: Vec<Req>,
}

fn image_b64(program: &Program, kind: ImageKind, id: Option<&GrammarId>) -> String {
    base64_encode(&write_program_tagged(
        program,
        kind,
        id.map(GrammarId::as_bytes),
    ))
}

impl Catalog {
    /// `programs`/`canonical`/`passes` describe the compressed inputs;
    /// `runs` are compressed images with their library outcome.
    pub fn build(
        id: &GrammarId,
        programs: &[&Program],
        canonical: &[Program],
        passes: &Passes,
        runs: &[(&Program, &Outcome)],
    ) -> Catalog {
        let hex = id.to_hex();
        let compress = programs
            .iter()
            .zip(&passes.images)
            .zip(&passes.per_program_stats)
            .map(|((p, cp), s)| Req {
                kind: "compress",
                line: format!(
                    r#"{{"op":"compress","grammar":"{hex}","image":"{}"}}"#,
                    image_b64(p, ImageKind::Uncompressed, None)
                ),
                expected: Some(
                    ResponseLine::ok()
                        .str_field("grammar", &hex)
                        .str_field(
                            "image",
                            &image_b64(&cp.program, ImageKind::Compressed, Some(id)),
                        )
                        .num_field("original_bytes", s.original_code as u64)
                        .num_field("compressed_bytes", s.compressed_code as u64)
                        .num_field("fallback_segments", s.fallback_segments as u64)
                        .bool_field("clamped", false)
                        .finish(),
                ),
            })
            .collect();
        let decompress = passes
            .images
            .iter()
            .zip(canonical)
            .map(|(cp, canon)| Req {
                kind: "decompress",
                line: format!(
                    r#"{{"op":"decompress","image":"{}"}}"#,
                    image_b64(&cp.program, ImageKind::Compressed, Some(id))
                ),
                expected: Some(
                    ResponseLine::ok()
                        .str_field("grammar", &hex)
                        .str_field("image", &image_b64(canon, ImageKind::Uncompressed, None))
                        .num_field("bytes", canon.code_size() as u64)
                        .finish(),
                ),
            })
            .collect();
        let run = runs
            .iter()
            .map(|(image, out)| Req {
                kind: "run",
                line: format!(
                    r#"{{"op":"run","image":"{}"}}"#,
                    image_b64(image, ImageKind::Compressed, Some(id))
                ),
                expected: Some(
                    ResponseLine::ok()
                        .int_field("exit_code", i64::from(out.exit))
                        .str_field("output", &base64_encode(&out.output))
                        .num_field("steps", out.steps)
                        .finish(),
                ),
            })
            .collect();
        Catalog {
            compress,
            decompress,
            run,
        }
    }
}

pub fn stats_req() -> Req {
    Req {
        kind: "stats",
        line: r#"{"op":"stats"}"#.to_string(),
        expected: None,
    }
}

/// What the closed loop saw: client latencies per op kind, operation
/// accounting, and check failures.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Host-corrected client latency per op kind (see [`HostClock`]).
    pub latency_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Measured client latency per op kind.
    pub raw_latency_ms: BTreeMap<&'static str, Vec<f64>>,
    /// `(attempted, failed)` per op kind.
    pub ops: BTreeMap<&'static str, (u64, u64)>,
    pub mismatches: Vec<String>,
    pub failures: Vec<String>,
    pub rounds: u64,
    /// Host reference times, one before the first epoch and one after
    /// each epoch.
    pub refs_ms: Vec<f64>,
    /// Measured time of the epochs, barrier waits included and
    /// reference passes excluded.
    pub elapsed: Duration,
    /// The same time, host-corrected epoch by epoch.
    pub corrected_s: f64,
    /// `(epoch, kind, measured latency)` of each answered request.
    samples: Vec<(usize, &'static str, f64)>,
}

impl LoopOutcome {
    fn merge(&mut self, other: LoopOutcome) {
        for (k, (a, f)) in other.ops {
            let e = self.ops.entry(k).or_default();
            e.0 += a;
            e.1 += f;
        }
        self.mismatches.extend(other.mismatches);
        self.failures.extend(other.failures);
        self.rounds += other.rounds;
        self.samples.extend(other.samples);
    }

    pub fn all_latencies(&self) -> Vec<f64> {
        self.latency_ms.values().flatten().copied().collect()
    }

    pub fn requests(&self) -> u64 {
        self.ops.values().map(|(a, _)| a).sum()
    }

    /// Count one operation of `kind`.
    fn count(&mut self, kind: &'static str, failed: bool) {
        let e = self.ops.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(failed);
    }

    /// Fold the accounting and checks into the run's report.
    pub fn account(&self, report: &mut Report) {
        for (kind, &(a, f)) in &self.ops {
            for i in 0..a {
                report.op(kind, i < f);
            }
        }
        for m in &self.mismatches {
            report.check(false, || m.clone());
        }
        for (i, f) in self.failures.iter().enumerate().take(5) {
            eprintln!("failed request {i}: {f}");
        }
    }
}

/// Classify a response against its request: `false` for an operation
/// failure (in-band error, `overloaded`). An `ok` response that differs
/// from the library's answer is a mismatch, which fails the run's
/// checks instead.
fn judge(req: &Req, resp: &str, out: &mut LoopOutcome) -> bool {
    let resp = resp.trim_end_matches('\n');
    if !resp.starts_with(r#"{"ok":true"#) {
        let head: String = resp.chars().take(200).collect();
        out.failures.push(format!("{}: {head}", req.kind));
        return false;
    }
    match &req.expected {
        Some(expected) => {
            // Every success line ends with `,"trace":"<16 hex>"}`.
            let stripped = resp
                .len()
                .checked_sub(28)
                .filter(|&cut| resp[cut..].starts_with(r#","trace":""#) && resp.ends_with("\"}"))
                .map(|cut| format!("{}}}", &resp[..cut]));
            if stripped.as_deref() != Some(expected.as_str()) {
                let head: String = resp.chars().take(120).collect();
                out.mismatches.push(format!(
                    "{} response differs from the library's: {head}…",
                    req.kind
                ));
            }
        }
        None => {
            let doc = json::parse(resp);
            let ok = doc
                .as_ref()
                .ok()
                .and_then(|d| d.get("metrics"))
                .and_then(|m| m.get("counters"))
                .is_some();
            if !ok {
                out.mismatches.push("stats response lacks metrics".into());
            }
        }
    }
    true
}

type Conn = (UnixStream, BufReader<UnixStream>);

/// Run one round on a connection, keeping up to `depth` requests in
/// flight. Returns the measured latency of each answered request. A
/// transport error fails every request of the round not yet answered
/// and drops the connection; the next round reconnects. Nothing is
/// retried.
fn run_round(
    conn: &mut Option<Conn>,
    socket: &Path,
    depth: usize,
    reqs: &[Req],
    out: &mut LoopOutcome,
) -> Vec<(&'static str, f64)> {
    let mut latencies = Vec::with_capacity(reqs.len());
    if conn.is_none() {
        match UnixStream::connect(socket) {
            Ok(s) => {
                let r = BufReader::new(s.try_clone().expect("clone socket"));
                *conn = Some((s, r));
            }
            Err(e) => out.failures.push(format!("connect: {e}")),
        }
    }
    let (mut sent, mut done) = (0usize, 0usize);
    let mut started: VecDeque<Instant> = VecDeque::new();
    let mut line = String::new();
    if let Some((writer, reader)) = conn.as_mut() {
        'round: while done < reqs.len() {
            while sent < reqs.len() && sent - done < depth {
                started.push_back(Instant::now());
                let write = writer
                    .write_all(reqs[sent].line.as_bytes())
                    .and_then(|_| writer.write_all(b"\n"));
                if let Err(e) = write {
                    out.failures.push(format!("write: {e}"));
                    break 'round;
                }
                sent += 1;
            }
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 && line.ends_with('\n') => {
                    let t0 = started.pop_front().expect("a request is in flight");
                    let latency = t0.elapsed().as_secs_f64() * 1e3;
                    let req = &reqs[done];
                    let ok = judge(req, &line, out);
                    out.count(req.kind, !ok);
                    if ok {
                        latencies.push((req.kind, latency));
                    }
                    done += 1;
                }
                Ok(_) => {
                    out.failures.push("connection closed mid-response".into());
                    break;
                }
                Err(e) => {
                    out.failures.push(format!("read: {e}"));
                    break;
                }
            }
        }
    }
    if done < reqs.len() {
        for req in &reqs[done..] {
            out.count(req.kind, true);
        }
        *conn = None;
    }
    latencies
}

/// What the connections share in a closed loop.
struct Shared<'a> {
    socket: &'a Path,
    depth: usize,
    epoch_rounds: u64,
    next_round: AtomicU64,
    barrier: Barrier,
    stop: AtomicBool,
    make_round: &'a (dyn Fn(u64) -> Vec<Req> + Sync),
}

/// The connection that times the host reference between epochs and
/// decides when to stop.
struct Leader {
    clock: HostClock,
    epoch_ms: Vec<f64>,
    t0: Instant,
    seconds: f64,
}

/// Run one connection: in each epoch, claim and run whole rounds until
/// the epoch's rounds are all claimed, then wait for every connection
/// to finish its rounds; the leader then times the host reference.
fn connection(shared: &Shared<'_>, mut leader: Option<&mut Leader>) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut conn: Option<Conn> = None;
    for epoch in 0.. {
        let start = Instant::now();
        let limit = (epoch as u64 + 1) * shared.epoch_rounds;
        loop {
            let round = shared.next_round.fetch_add(1, Ordering::SeqCst);
            if round >= limit {
                break;
            }
            out.rounds += 1;
            let reqs = (shared.make_round)(round);
            let latencies = run_round(&mut conn, shared.socket, shared.depth, &reqs, &mut out);
            out.samples
                .extend(latencies.into_iter().map(|(kind, raw)| (epoch, kind, raw)));
        }
        shared.barrier.wait();
        // No request is in flight until the next wait returns.
        if let Some(leader) = leader.as_deref_mut() {
            leader.epoch_ms.push(ms(start.elapsed()));
            leader.clock.reference();
            shared.next_round.store(limit, Ordering::SeqCst);
            let done = leader.t0.elapsed().as_secs_f64() >= leader.seconds;
            shared.stop.store(done, Ordering::SeqCst);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    out
}

/// Drive `conns` connections in a closed loop, in epochs of
/// `epoch_rounds` whole rounds, until `seconds` have passed (at least
/// one epoch is always run); each connection keeps up to `depth`
/// requests pipelined. Round `r`'s requests are `make_round(r)`
/// whichever connection runs it. Connection 0 runs on the calling
/// thread, so the load uses `conns` threads in all. Each epoch's
/// latencies are corrected by the mean of the host references taken
/// just before and just after it.
pub fn closed_loop(
    socket: &Path,
    conns: usize,
    depth: usize,
    epoch_rounds: u64,
    seconds: f64,
    make_round: &(dyn Fn(u64) -> Vec<Req> + Sync),
) -> LoopOutcome {
    let shared = Shared {
        socket,
        depth,
        epoch_rounds,
        next_round: AtomicU64::new(0),
        barrier: Barrier::new(conns),
        stop: AtomicBool::new(false),
        make_round,
    };
    let mut leader = Leader {
        clock: HostClock::new(),
        epoch_ms: Vec::new(),
        t0: Instant::now(),
        seconds,
    };
    let total = Mutex::new(LoopOutcome::default());
    std::thread::scope(|scope| {
        for _ in 1..conns {
            scope.spawn(|| {
                let out = connection(&shared, None);
                total.lock().unwrap().merge(out);
            });
        }
        let out = connection(&shared, Some(&mut leader));
        total.lock().unwrap().merge(out);
    });
    let mut total = total.into_inner().unwrap();
    let refs = leader.clock.refs_ms;
    let factor: Vec<f64> = refs
        .windows(2)
        .map(|w| NOMINAL_REF_MS / ((w[0] + w[1]) / 2.0))
        .collect();
    for &(epoch, kind, raw) in &total.samples {
        total.raw_latency_ms.entry(kind).or_default().push(raw);
        total
            .latency_ms
            .entry(kind)
            .or_default()
            .push(raw * factor[epoch]);
    }
    total.elapsed = Duration::from_secs_f64(leader.epoch_ms.iter().sum::<f64>() / 1e3);
    total.corrected_s = leader
        .epoch_ms
        .iter()
        .zip(&factor)
        .map(|(ms, f)| ms * f / 1e3)
        .sum();
    total.refs_ms = refs;
    total
}

/// Server-side figures read from a `stats` snapshot.
pub struct ServerStats {
    /// Mean server-side latency per op kind, in ms (histogram sum/count).
    pub mean_ms: BTreeMap<&'static str, f64>,
    pub batch_size_mean: f64,
    pub batch_wait_us_mean: f64,
    pub tier2_deopts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
}

fn hist_mean(doc: &Value, name: &str) -> f64 {
    let h = doc
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name));
    let count = h.and_then(|h| h.get("count")).and_then(Value::as_f64);
    let sum = h.and_then(|h| h.get("sum")).and_then(Value::as_f64);
    match (sum, count) {
        (Some(s), Some(c)) if c > 0.0 => s / c,
        _ => 0.0,
    }
}

fn counter(doc: &Value, name: &str) -> u64 {
    doc.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

impl ServerStats {
    pub fn of(doc: &Value) -> ServerStats {
        let mut mean_ms = BTreeMap::new();
        for op in ["compress", "decompress", "run"] {
            let name = format!("serve.request.{op}.micros");
            mean_ms.insert(op, hist_mean(doc, &name) / 1e3);
        }
        ServerStats {
            mean_ms,
            batch_size_mean: hist_mean(doc, "serve.batch.size"),
            batch_wait_us_mean: hist_mean(doc, "serve.batch.wait_micros"),
            tier2_deopts: counter(doc, "vm.tier2.deopts"),
            cache_hits: counter(doc, "cache.hits"),
            cache_misses: counter(doc, "cache.misses"),
            rejected: counter(doc, "serve.rejected.overload"),
        }
    }
}
