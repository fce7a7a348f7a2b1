//! The admission-controlled simulation server.
//!
//! One blocking accept loop hands each data connection to a dedicated
//! session thread; a second listener (the *control socket*) answers
//! `Stats` and `Shutdown` without competing with trace uploads. All
//! sessions share one [`Store`]: the run ledger doubles as a response
//! cache — a (trace, policy, config) pair already in the ledger is
//! answered without simulating — and uploaded traces land in the
//! content-addressed archive keyed by the FNV-1a hash of their `CHRP`
//! bytes (the hash `trace_tool hash` prints), so clients can re-run them
//! with [`crate::wire::Request::RunArchived`] without re-uploading.
//!
//! Admission control happens **before** any trace bytes travel: `Submit`
//! declares its encoded and decoded sizes, and the server answers
//! [`Response::Busy`] instead of buffering when the declared cost would
//! push admitted bytes past `--mem-budget`. Like the scheduler's budget
//! (`chirp_sim::sched`), one request is always admitted when nothing is
//! in flight, so a single oversized trace degrades to serial service
//! rather than livelock.

use crate::wire::{
    self, err, read_request, write_response, Request, Response, VerdictReply, WireError,
};
use chirp_sim::sched::{run_unit_groups, WorkItem};
use chirp_sim::store_cache::{record_from_run, run_from_record, run_key};
use chirp_sim::{run_policy_group, BenchRun, PolicyKind, SimConfig};
use chirp_store::archive::ArchiveOutcome;
use chirp_store::{fnv64, hex16, EncodedTrace, Store, StoreError, TraceArchive};
use chirp_telemetry::{Gauge, Registry};
use chirp_trace::{peek_record_count, read_trace_packed, Category, PackedTrace};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Address to bind the data listener on. Port 0 picks an ephemeral
    /// port; the bound address is reported by [`ServerHandle::addr`].
    pub bind: SocketAddr,
    /// `chirp-store` directory backing the ledger cache and trace
    /// archive (created if absent).
    pub store: PathBuf,
    /// Worker threads per simulation request.
    pub threads: usize,
    /// Admission budget: cap on bytes of trace work admitted across
    /// sessions (`None` = unbounded). Cost of a request = declared
    /// encoded bytes + the packed-trace estimate for its record count.
    pub mem_budget: Option<u64>,
    /// Backoff hint carried by `Busy` responses.
    pub retry_after_ms: u32,
    /// Simulator configuration shared by every request — part of ledger
    /// identity, so it must match the harness config for cache interop.
    pub sim: SimConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            store: PathBuf::from("results/serve-store"),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            mem_budget: None,
            retry_after_ms: 50,
            sim: SimConfig::default(),
        }
    }
}

/// Errors starting or stopping the server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io {
        /// What the server was doing.
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// The backing store could not be opened.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "serve i/o ({context}): {source}"),
            ServeError::Store(e) => write!(f, "serve store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ServeError {
    move |source| ServeError::Io { context, source }
}

/// Idle-read timeout on session sockets: long enough that it only fires
/// between frames on an idle connection, short enough that sessions
/// notice a shutdown promptly.
const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// State shared by the accept loop, the control loop and every session.
struct Shared {
    config: ServeConfig,
    store: Mutex<Store>,
    metrics: Registry,
    /// Bytes of trace work currently admitted; guarded by a mutex so
    /// check-and-reserve is atomic. The registry gauge mirrors it for
    /// `Stats`.
    admitted: Mutex<u64>,
    in_flight: Arc<Gauge>,
    stop: AtomicBool,
}

impl Shared {
    /// Tries to admit a request costing `cost` bytes. The *alone* rule
    /// mirrors the scheduler's: when nothing is in flight the request is
    /// admitted even over budget, so progress is guaranteed.
    fn admit(&self, cost: u64) -> Result<AdmitGuard<'_>, (u64, u64)> {
        let mut admitted = self.admitted.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(budget) = self.config.mem_budget {
            if *admitted > 0 && admitted.saturating_add(cost) > budget {
                return Err((*admitted, budget));
            }
        }
        *admitted += cost;
        self.in_flight.set(*admitted as i64);
        Ok(AdmitGuard { shared: self, cost })
    }

    fn release(&self, cost: u64) {
        let mut admitted = self.admitted.lock().unwrap_or_else(|e| e.into_inner());
        *admitted = admitted.saturating_sub(cost);
        self.in_flight.set(*admitted as i64);
    }
}

/// Releases an admission reservation on every exit path — success,
/// protocol error, or panic in the simulator.
struct AdmitGuard<'a> {
    shared: &'a Shared,
    cost: u64,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.shared.release(self.cost);
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process-exit
/// path); tests and the binary should shut down or join explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    control_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Address of the data listener (submit/run/stats requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the control listener (stats/shutdown).
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Asks the server to stop and waits for the accept loop, the control
    /// loop and every in-flight session to finish.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Blocking accepts only notice the flag when a connection lands;
        // self-connect to wake both listeners.
        let _ = TcpStream::connect(self.addr);
        let _ = TcpStream::connect(self.control_addr);
        self.join_threads();
        Ok(())
    }

    /// Waits until the server exits on its own (a client sent `Shutdown`
    /// on the control socket). Used by the `chirp-serve` binary.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.control.take() {
            let _ = h.join();
        }
    }
}

/// Starts the server described by `config`. Returns once both listeners
/// are bound; all request handling happens on background threads.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, ServeError> {
    let listener = TcpListener::bind(config.bind).map_err(io_err("bind data listener"))?;
    let addr = listener.local_addr().map_err(io_err("read data listener addr"))?;
    // Control listener binds an ephemeral port on the same interface.
    let control_bind = SocketAddr::new(addr.ip(), 0);
    let control_listener =
        TcpListener::bind(control_bind).map_err(io_err("bind control listener"))?;
    let control_addr = control_listener.local_addr().map_err(io_err("read control addr"))?;

    let store = Store::open(&config.store)?;
    let metrics = Registry::new();
    // Pre-register the cache counters so a fresh server's Stats shows
    // them at zero instead of omitting them until the first request.
    metrics.counter("ledger_hits");
    metrics.counter("ledger_misses");
    let in_flight = metrics.gauge("in_flight_bytes");
    let shared = Arc::new(Shared {
        config,
        store: Mutex::new(store),
        metrics,
        admitted: Mutex::new(0),
        in_flight,
        stop: AtomicBool::new(false),
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let control = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || control_loop(&control_listener, &shared, addr))
    };

    Ok(ServerHandle { addr, control_addr, shared, accept: Some(accept), control: Some(control) })
}

/// Accepts data connections until the stop flag is set, then joins every
/// session thread so shutdown drains in-flight requests.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.metrics.counter("sessions_total").inc();
                let shared = Arc::clone(shared);
                sessions.push(std::thread::spawn(move || session(stream, &shared)));
                // Opportunistically reap finished sessions so a
                // long-lived server does not accumulate handles.
                sessions.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure (e.g. aborted handshake).
            }
        }
    }
    for h in sessions {
        let _ = h.join();
    }
}

/// Serves `Stats`/`Shutdown`/`Ping` on the control listener. A
/// `Shutdown` request acknowledges, sets the stop flag and wakes the
/// data accept loop with a self-connection.
fn control_loop(listener: &TcpListener, shared: &Arc<Shared>, data_addr: SocketAddr) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((mut stream, _)) = listener.accept() else { continue };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        loop {
            match read_request(&mut stream) {
                Ok(Some(Request::Ping)) => {
                    if write_response(&mut stream, &Response::Pong).is_err() {
                        break;
                    }
                }
                Ok(Some(Request::Stats)) => {
                    let text = stats_text(shared);
                    if write_response(&mut stream, &Response::StatsReply(text)).is_err() {
                        break;
                    }
                }
                Ok(Some(Request::Shutdown)) => {
                    let _ = write_response(&mut stream, &Response::ShutdownAck);
                    shared.stop.store(true, Ordering::SeqCst);
                    let _ = TcpStream::connect(data_addr);
                    return;
                }
                Ok(Some(_)) => {
                    let resp = error_response(
                        err::BAD_REQUEST,
                        "only ping/stats/shutdown on the control socket".into(),
                    );
                    if write_response(&mut stream, &resp).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// The `Stats` reply: the metrics registry followed by a ledger summary
/// rendered through `chirp-query`, so the service reports exactly the
/// numbers the query CLI would return for the same store.
fn stats_text(shared: &Shared) -> String {
    let mut text = shared.metrics.render_text();
    let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
    text.push_str(&chirp_query::ledger_overview(&store.ledger));
    text
}

fn error_response(code: u16, message: String) -> Response {
    Response::Error { code, message }
}

/// One client session on the data socket: a request/response loop that
/// lives until the client disconnects or violates the protocol.
fn session(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(SESSION_READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    loop {
        let req = match read_request(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle between frames: re-check the stop flag and wait on.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        shared.metrics.counter("requests_total").inc();
        let started = Instant::now();
        let keep_going = match req {
            Request::Ping => write_response(&mut stream, &Response::Pong).is_ok(),
            Request::Stats => {
                let text = stats_text(shared);
                write_response(&mut stream, &Response::StatsReply(text)).is_ok()
            }
            Request::Shutdown => {
                let resp = error_response(
                    err::BAD_REQUEST,
                    "shutdown is accepted on the control socket only".into(),
                );
                write_response(&mut stream, &resp).is_ok()
            }
            Request::TraceChunk(_) | Request::TraceEnd => {
                shared.metrics.counter("protocol_errors").inc();
                let resp =
                    error_response(err::PROTOCOL, "trace frames outside a submit stream".into());
                let _ = write_response(&mut stream, &resp);
                false
            }
            Request::Submit { name, category, seed, policies, trace_bytes, records, telemetry } => {
                handle_submit(
                    &mut stream,
                    shared,
                    SubmitHeader {
                        name,
                        category,
                        seed,
                        policies,
                        trace_bytes,
                        records,
                        telemetry,
                    },
                )
            }
            Request::RunArchived { hash, name, category, seed, policies, telemetry } => {
                let resp = run_archived(
                    shared,
                    hash,
                    RunSpec::parse(shared, &name, &category, seed, &policies, telemetry),
                );
                write_response(&mut stream, &resp).is_ok()
            }
        };
        shared.metrics.histogram("request_us").record(started.elapsed().as_micros() as u64);
        if !keep_going {
            return;
        }
    }
}

/// The declared fields of a `Submit` request.
struct SubmitHeader {
    name: String,
    category: String,
    seed: u64,
    policies: Vec<String>,
    trace_bytes: u64,
    records: u64,
    telemetry: bool,
}

/// A validated run request: parsed policies plus identity fields.
struct RunSpec {
    name: String,
    category: Category,
    seed: u64,
    labels: Vec<String>,
    policies: Vec<PolicyKind>,
    telemetry: bool,
}

impl RunSpec {
    /// Validates names against the policy registry and the category
    /// label set; `Err` is a ready-to-send error response.
    fn parse(
        shared: &Shared,
        name: &str,
        category: &str,
        seed: u64,
        labels: &[String],
        telemetry: bool,
    ) -> Result<RunSpec, Response> {
        if name.is_empty() {
            return Err(error_response(
                err::BAD_REQUEST,
                "benchmark name must be non-empty".into(),
            ));
        }
        if labels.is_empty() {
            return Err(error_response(err::BAD_REQUEST, "at least one policy required".into()));
        }
        let Some(category) = Category::ALL.into_iter().find(|c| c.label() == category) else {
            let known: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
            return Err(error_response(
                err::BAD_REQUEST,
                format!("unknown category {category:?} (known: {})", known.join(", ")),
            ));
        };
        let mut policies = Vec::with_capacity(labels.len());
        for label in labels {
            match PolicyKind::parse(label) {
                Some(kind) => policies.push(kind),
                None => {
                    shared.metrics.counter("unknown_policy").inc();
                    return Err(error_response(
                        err::UNKNOWN_POLICY,
                        format!("unknown policy {label:?}"),
                    ));
                }
            }
        }
        Ok(RunSpec {
            name: name.to_string(),
            category,
            seed,
            labels: labels.to_vec(),
            policies,
            telemetry,
        })
    }
}

/// Handles one `Submit`: admission, chunk ingestion, archive, simulate,
/// verdict. Returns false when the session must close (protocol error).
fn handle_submit(stream: &mut TcpStream, shared: &Arc<Shared>, header: SubmitHeader) -> bool {
    shared.metrics.counter("submits").inc();
    // Validate before admitting: a rejected request reserves nothing and
    // the client never streams (it waits for Go).
    let spec = match RunSpec::parse(
        shared,
        &header.name,
        &header.category,
        header.seed,
        &header.policies,
        header.telemetry,
    ) {
        Ok(spec) => spec,
        Err(resp) => return write_response(stream, &resp).is_ok(),
    };
    if header.trace_bytes == 0 || header.trace_bytes > u64::from(u32::MAX) {
        let resp = error_response(
            err::BAD_REQUEST,
            format!("declared trace size {} out of range", header.trace_bytes),
        );
        return write_response(stream, &resp).is_ok();
    }

    // Admission before transfer: encoded bytes buffered + decoded trace.
    let cost = header.trace_bytes + PackedTrace::estimate_bytes(header.records as usize);
    let guard = match shared.admit(cost) {
        Ok(guard) => guard,
        Err((in_flight_bytes, budget_bytes)) => {
            shared.metrics.counter("busy_rejections").inc();
            let resp = Response::Busy {
                retry_after_ms: shared.config.retry_after_ms,
                in_flight_bytes,
                budget_bytes,
            };
            return write_response(stream, &resp).is_ok();
        }
    };
    if write_response(stream, &Response::Go).is_err() {
        return false;
    }

    // Ingest the declared chunk stream.
    let mut buf: Vec<u8> = Vec::with_capacity(header.trace_bytes as usize);
    loop {
        match read_request(stream) {
            Ok(Some(Request::TraceChunk(chunk))) => {
                if buf.len() as u64 + chunk.len() as u64 > header.trace_bytes {
                    shared.metrics.counter("protocol_errors").inc();
                    let resp =
                        error_response(err::PROTOCOL, "chunk stream exceeds declared size".into());
                    let _ = write_response(stream, &resp);
                    return false;
                }
                buf.extend_from_slice(&chunk);
            }
            Ok(Some(Request::TraceEnd)) => break,
            Ok(Some(_)) => {
                shared.metrics.counter("protocol_errors").inc();
                let resp =
                    error_response(err::PROTOCOL, "expected trace chunks after submit".into());
                let _ = write_response(stream, &resp);
                return false;
            }
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return false;
                }
                continue;
            }
            Ok(None) | Err(_) => return false,
        }
    }
    if buf.len() as u64 != header.trace_bytes {
        let resp = error_response(
            err::BAD_REQUEST,
            format!("declared {} trace bytes, received {}", header.trace_bytes, buf.len()),
        );
        return write_response(stream, &resp).is_ok();
    }
    shared.metrics.counter("trace_bytes_received").add(buf.len() as u64);

    // Cross-check the declaration admission was based on before decoding:
    // the trace's own header must claim the records the request did. A
    // trace that decodes holds exactly its header's count, so this is the
    // only count check needed.
    if let Ok(records) = peek_record_count(&buf) {
        if records != header.records {
            let resp = error_response(
                err::BAD_REQUEST,
                format!("declared {} records, trace header says {records}", header.records),
            );
            return write_response(stream, &resp).is_ok();
        }
    }
    let trace = match read_trace_packed(&buf) {
        Ok(trace) => trace,
        Err(e) => {
            shared.metrics.counter("bad_traces").inc();
            let resp = error_response(err::BAD_TRACE, format!("trace bytes do not decode: {e}"));
            return write_response(stream, &resp).is_ok();
        }
    };
    // Archive by content hash so the upload is replayable via
    // RunArchived; then simulate.
    let hash = fnv64(&buf);
    let resp = match archive_upload(shared, hash, buf) {
        Err(e) => {
            shared.metrics.counter("internal_errors").inc();
            error_response(err::INTERNAL, format!("archive upload: {e}"))
        }
        Ok(()) => match run_policies(shared, &spec, hash, trace) {
            Ok(reply) => Response::Verdict(reply),
            Err(resp) => resp,
        },
    };
    drop(guard);
    write_response(stream, &resp).is_ok()
}

/// Stores uploaded `CHRP` bytes in the archive under their content hash
/// (idempotent: a hash already present is left untouched).
fn archive_upload(shared: &Shared, hash: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
    let records = peek_record_count(&bytes).unwrap_or(0);
    let mut store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
    if store.archive.entry_meta(hash).is_some() {
        store.archive.record_hit();
        return Ok(());
    }
    let encoded = EncodedTrace { checksum: fnv64(&bytes), records, bytes };
    let path = store.archive.trace_path(hash);
    TraceArchive::store_file(&path, &encoded)?;
    store.archive.commit(hash, &encoded, ArchiveOutcome::MissGenerated)?;
    shared.metrics.counter("traces_archived").inc();
    Ok(())
}

/// Handles one `RunArchived`: admission sized from the manifest, then
/// the shared resolve/simulate path.
fn run_archived(shared: &Arc<Shared>, hash: u64, spec: Result<RunSpec, Response>) -> Response {
    let spec = match spec {
        Ok(spec) => spec,
        Err(resp) => return resp,
    };
    shared.metrics.counter("archived_runs").inc();
    let (path, meta) = {
        let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        match store.archive.entry_meta(hash) {
            Some(meta) => (store.archive.trace_path(hash), meta),
            None => {
                return error_response(
                    err::NOT_FOUND,
                    format!("no archived trace with hash {}", hex16(hash)),
                )
            }
        }
    };
    // Read + validate outside the store lock (the archive's own locking
    // discipline), peeking the record count for admission sizing.
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            shared.metrics.counter("internal_errors").inc();
            return error_response(err::INTERNAL, format!("read archived trace: {e}"));
        }
    };
    if bytes.len() as u64 != meta.bytes || fnv64(&bytes) != meta.checksum {
        shared.metrics.counter("internal_errors").inc();
        return error_response(err::INTERNAL, "archived trace fails its checksum".into());
    }
    let records = peek_record_count(&bytes).unwrap_or(0);
    let cost = meta.bytes + PackedTrace::estimate_bytes(records as usize);
    let guard = match shared.admit(cost) {
        Ok(guard) => guard,
        Err((in_flight_bytes, budget_bytes)) => {
            shared.metrics.counter("busy_rejections").inc();
            return Response::Busy {
                retry_after_ms: shared.config.retry_after_ms,
                in_flight_bytes,
                budget_bytes,
            };
        }
    };
    let trace = match read_trace_packed(&bytes) {
        Ok(trace) => trace,
        Err(e) => {
            shared.metrics.counter("internal_errors").inc();
            return error_response(err::INTERNAL, format!("archived trace undecodable: {e}"));
        }
    };
    drop(bytes);
    let resp = match run_policies(shared, &spec, hash, trace) {
        Ok(reply) => Response::Verdict(reply),
        Err(resp) => resp,
    };
    drop(guard);
    resp
}

/// Resolves one run request: ledger hits answer without simulating;
/// the rest go through the scheduler and are recorded for next time.
fn run_policies(
    shared: &Shared,
    spec: &RunSpec,
    hash: u64,
    trace: PackedTrace,
) -> Result<VerdictReply, Response> {
    let sim_config = &shared.config.sim;
    let instructions = trace.len();
    let keys: Vec<u64> =
        spec.policies.iter().map(|p| run_key(sim_config, p, &spec.name, instructions)).collect();

    // Ledger probe under the store lock — cheap, no simulation inside.
    let mut resolved: Vec<Option<BenchRun>> = {
        let store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        keys.iter().map(|&key| store.ledger.get(key).and_then(run_from_record)).collect()
    };
    let from_ledger: Vec<bool> = resolved.iter().map(Option::is_some).collect();
    let ledger_hits = from_ledger.iter().filter(|&&hit| hit).count();
    shared.metrics.counter("ledger_hits").add(ledger_hits as u64);

    let missing: Vec<usize> = (0..spec.policies.len()).filter(|&i| resolved[i].is_none()).collect();
    shared.metrics.counter("ledger_misses").add(missing.len() as u64);
    if !missing.is_empty() {
        shared.metrics.counter("simulated_pairs").add(missing.len() as u64);
        let est = trace.resident_bytes();
        let slot = Mutex::new(Some(trace));
        let work = [WorkItem { bench: 0, policies: missing.clone() }];
        // The whole missing lineup forms one group: one shared front-end
        // pass over the trace, one tiny replay back-end per policy
        // (`run_policy_group`; single-policy groups take the plain
        // columnar loop). Bit-identical to per-policy `run_columnar`.
        let outcome = run_unit_groups(
            &work,
            shared.config.threads,
            est,
            None,
            missing.len().max(1),
            |_item| {
                Ok(slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("single work item fetches once"))
            },
            |_, positions, trace| {
                let kinds: Vec<&PolicyKind> =
                    positions.iter().map(|&pos| &spec.policies[work[0].policies[pos]]).collect();
                run_policy_group(sim_config, &kinds, spec.seed, trace, true)
                    .into_iter()
                    .map(|result| BenchRun {
                        benchmark: spec.name.clone(),
                        category: spec.category,
                        result,
                    })
                    .collect::<Vec<_>>()
            },
        );
        let (mut results, _) = match outcome {
            Ok(v) => v,
            Err(e) => {
                shared.metrics.counter("internal_errors").inc();
                return Err(error_response(err::INTERNAL, format!("simulation failed: {e}")));
            }
        };
        let fresh = results.pop().expect("one work item yields one result row");
        let mut store = shared.store.lock().unwrap_or_else(|e| e.into_inner());
        for (&i, run) in missing.iter().zip(fresh) {
            let record = record_from_run(&run, sim_config, &spec.policies[i]);
            if let Err(e) = store.ledger.append(keys[i], record) {
                shared.metrics.counter("internal_errors").inc();
                return Err(error_response(err::INTERNAL, format!("ledger append: {e}")));
            }
            resolved[i] = Some(run);
        }
    }

    let runs: Vec<BenchRun> =
        resolved.into_iter().map(|r| r.expect("all policies resolved")).collect();
    let mut verdicts = Vec::with_capacity(runs.len());
    let mut best = 0usize;
    for (i, run) in runs.iter().enumerate() {
        let r = &run.result;
        if r.mpki() < runs[best].result.mpki() {
            best = i;
        }
        verdicts.push(wire::PolicyVerdict {
            policy: spec.labels[i].clone(),
            from_ledger: from_ledger[i],
            instructions: r.instructions,
            cycles: r.cycles,
            hits: r.l2_tlb.hits,
            misses: r.l2_tlb.misses,
            dead_evictions: r.l2_tlb.dead_evictions,
            cold_fills: r.l2_tlb.cold_fills,
            l2_accesses: r.l2_accesses,
            prediction_table_accesses: r.prediction_table_accesses,
            l2_accesses_total: r.l2_accesses_total,
            efficiency: r.efficiency,
            mpki: r.mpki(),
        });
    }
    Ok(VerdictReply {
        name: spec.name.clone(),
        content_hash: hash,
        trace_records: instructions as u64,
        verdicts,
        best_policy: spec.labels[best].clone(),
        summary: spec.telemetry.then(|| shared.metrics.render_text()),
    })
}
