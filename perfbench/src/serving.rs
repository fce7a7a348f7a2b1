//! `serve_mixed`: an in-process `chirp-serve` driven by a closed loop of
//! client sessions, and the short serving probe the batch workloads run.

use crate::batch::{mpki_reduction_pct, pace_note, push_scheduler};
use crate::oracle::{same_verdict, verdict_matches};
use crate::pace::Pace;
use crate::report::{median, percentile, windowed_p99, Outcome, WINDOWS};
use crate::spans::{self, Recorder, Span};
use crate::{inputs, probes, RunArgs};
use chirp_serve::wire::{PolicyVerdict, VerdictReply};
use chirp_serve::{serve, Client, ServeConfig, ServerHandle, SubmitOutcome};
use chirp_sim::{run_policy_group, PolicyKind, RunResult, SimConfig};
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{write_trace_packed, PackedTrace};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Busy answers a request may receive before it counts as dropped.
const MAX_BUSY_RETRIES: u32 = 100;

/// Latency recorded for a failed or dropped request: beyond any limit.
const FAILED_MS: f64 = f64::INFINITY;

/// Length of one slice of the timed loop: after each, the sessions pause
/// while the reference kernel runs.
const SLICE: Duration = Duration::from_millis(500);

/// Requests after which the timed loop reads the process's memory
/// high-water mark. The server's ledger keeps every fresh run in memory,
/// so the mark keeps growing with the requests served; read at a fixed
/// count, it does not depend on how many a run fits in its time (a 30 s
/// run serves 7000–10000).
const RSS_AT_REQUESTS: usize = 2000;

/// A pre-encoded upload.
struct PoolEntry {
    spec: BenchmarkSpec,
    trace: PackedTrace,
    bytes: Vec<u8>,
}

/// Generates and encodes one upload per spec.
fn make_pool(specs: &[BenchmarkSpec], n: usize) -> Vec<PoolEntry> {
    specs
        .iter()
        .map(|spec| {
            let trace = spec.generate_packed(n);
            let bytes = write_trace_packed(&trace);
            PoolEntry { spec: spec.clone(), trace, bytes }
        })
        .collect()
}

/// The policy set a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    /// The 6-policy paper lineup: a factored group on the server.
    Paper6,
    /// `chirp` alone: the fused single-policy `run_columnar` path.
    Chirp,
}

impl Class {
    fn kinds(self) -> Vec<PolicyKind> {
        match self {
            Class::Paper6 => PolicyKind::paper_lineup(),
            Class::Chirp => vec![PolicyKind::parse("chirp").expect("chirp is a registered policy")],
        }
    }

    fn names(self) -> Vec<String> {
        self.kinds().iter().map(|k| k.name().to_string()).collect()
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    class: Class,
    fresh: bool,
    micros: f64,
    /// Completion, seconds since the loop's epoch.
    end_s: f64,
    /// The slice of a paced loop it completed in (0 otherwise).
    slice: usize,
    ok: bool,
    /// (benchmark × policy) instructions the server simulated for it.
    simulated_instr: u64,
}

/// How long a closed loop runs.
enum Length<'p> {
    /// Until this instant.
    Until(Instant),
    /// This many requests per session.
    Requests(usize),
    /// Until this instant, in slices with the reference kernel run
    /// between them (see [`Gate`]).
    Paced(&'p mut Pace, Instant),
}

/// When a session stops issuing requests.
#[derive(Clone, Copy)]
enum Stop<'a> {
    /// At this instant (the request in flight completes).
    At(Instant),
    /// After this many requests.
    After(usize),
    /// When the gate says so; the gate also pauses it between slices.
    Gated(&'a Gate),
}

/// Pauses a paced closed loop between requests: at the end of every
/// slice each session stops after its request in flight, the reference
/// kernel runs on the quiet host, and the sessions go on.
struct Gate {
    epoch: Instant,
    /// Nanoseconds after `epoch` at which the current slice ends.
    pause_at_ns: AtomicU64,
    /// The current slice.
    slice: AtomicUsize,
    /// Set at the last pause: the sessions end.
    stop: AtomicBool,
    /// Requests completed so far.
    completed: AtomicUsize,
    /// Sessions plus the pacing thread; passed twice per pause.
    barrier: Barrier,
}

impl Gate {
    fn new(sessions: usize) -> Gate {
        Gate {
            epoch: Instant::now(),
            pause_at_ns: AtomicU64::new(u64::MAX),
            slice: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
            barrier: Barrier::new(sessions + 1),
        }
    }

    fn since_epoch_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Called by a session between requests: sits out a due pause;
    /// false once the loop has ended.
    fn between_requests(&self) -> bool {
        if self.since_epoch_ns() >= self.pause_at_ns.load(Ordering::Acquire) {
            self.barrier.wait();
            self.barrier.wait();
        }
        !self.stop.load(Ordering::Acquire)
    }

    /// The pacing thread, once the sessions have started: runs slices
    /// until `deadline`, running the kernel after each. Returns each
    /// slice's active seconds and the memory high-water mark read at the
    /// first pause after [`RSS_AT_REQUESTS`] requests.
    fn drive(&self, pace: &mut Pace, deadline: Instant) -> (Vec<f64>, Option<f64>) {
        let mut active = Vec::new();
        let mut rss = None;
        let mut resumed = Instant::now();
        self.pause_at_ns.store(self.since_epoch_ns() + SLICE.as_nanos() as u64, Ordering::Release);
        loop {
            let due = Duration::from_nanos(self.pause_at_ns.load(Ordering::Acquire));
            std::thread::sleep(due.saturating_sub(self.epoch.elapsed()));
            self.barrier.wait();
            let paused = Instant::now();
            active.push(paused.duration_since(resumed).as_secs_f64());
            if rss.is_none() && self.completed.load(Ordering::Acquire) >= RSS_AT_REQUESTS {
                rss = Some(crate::report::peak_rss_mib());
            }
            pace.measure();
            let done = paused >= deadline;
            if done {
                self.stop.store(true, Ordering::Release);
            } else {
                self.slice.fetch_add(1, Ordering::AcqRel);
                self.pause_at_ns
                    .store(self.since_epoch_ns() + SLICE.as_nanos() as u64, Ordering::Release);
            }
            resumed = Instant::now();
            self.barrier.wait();
            if done {
                return (active, rss);
            }
        }
    }
}

/// What a closed-loop run produced.
struct LoopOut {
    samples: Vec<Sample>,
    /// Every fresh verdict with the pool entry and class it answered.
    fresh: Vec<(usize, Class, VerdictReply)>,
    failures: Vec<String>,
    wall: Duration,
    attempts: u64,
    busy: u64,
    spans: Vec<Vec<Span>>,
    /// Active seconds of each slice of a paced loop.
    slice_secs: Vec<f64>,
    /// A paced loop's memory high-water mark after
    /// [`RSS_AT_REQUESTS`] requests, in MiB, if it served that many.
    rss_mib: Option<f64>,
}

impl LoopOut {
    /// Seconds the sessions were issuing requests: the slices of a paced
    /// loop, without its pauses; the whole loop otherwise.
    fn active_secs(&self) -> f64 {
        if self.slice_secs.is_empty() {
            self.wall.as_secs_f64()
        } else {
            self.slice_secs.iter().sum()
        }
    }

    fn empty() -> LoopOut {
        LoopOut {
            samples: Vec::new(),
            fresh: Vec::new(),
            failures: Vec::new(),
            wall: Duration::ZERO,
            attempts: 0,
            busy: 0,
            spans: Vec::new(),
            slice_secs: Vec::new(),
            rss_mib: None,
        }
    }
}

/// A small deterministic generator (SplitMix64) for request choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Per-session request state.
struct History {
    /// (name, pool entry, class, first verdicts) of every fresh request.
    seen: Vec<(String, usize, Class, Vec<PolicyVerdict>)>,
    fresh_count: usize,
}

/// Runs `sessions` closed-loop client sessions against `addr`. One
/// request in four is fresh: a benchmark name the server has not seen,
/// so its ledger lookup misses and the server simulates it. Fresh
/// requests walk the pool, whose content set-up has already archived.
/// The other three repeat one of the session's earlier requests and
/// must be answered by the ledger with identical numbers. Each fresh
/// request picks `Paper6` or `Chirp` with equal odds; a repeat keeps its
/// original class.
fn run_loop(
    addr: SocketAddr,
    pool: &[PoolEntry],
    sessions: usize,
    mut length: Length<'_>,
    seed: u64,
    traced: bool,
    tag: char,
) -> Result<LoopOut, String> {
    let sessions = sessions.max(1);
    let mut clients = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        clients.push(Client::connect(addr).map_err(|e| e.to_string())?);
    }
    let gate = Gate::new(sessions);
    let stop = match length {
        Length::Until(deadline) => Stop::At(deadline),
        Length::Requests(count) => Stop::After(count),
        Length::Paced(..) => Stop::Gated(&gate),
    };
    let barrier = Barrier::new(sessions + 1);
    let epoch = Instant::now();
    let mut started = Instant::now();
    let mut pacing = (Vec::new(), None);
    let per_session: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(s, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let rec = Recorder::new(epoch, traced);
                    session(client, addr, pool, (s, sessions, tag), stop, seed, rec)
                })
            })
            .collect();
        started = Instant::now();
        barrier.wait();
        if let Length::Paced(pace, deadline) = &mut length {
            pacing = gate.drive(pace, *deadline);
        }
        handles.into_iter().map(|h| h.join().expect("client session panicked")).collect()
    });
    let mut out = LoopOut::empty();
    out.wall = started.elapsed();
    (out.slice_secs, out.rss_mib) = pacing;
    for s in per_session {
        out.samples.extend(s.samples);
        out.fresh.extend(s.fresh);
        out.failures.extend(s.failures);
        out.attempts += s.attempts;
        out.busy += s.busy;
        out.spans.extend(s.spans);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn session(
    mut client: Client,
    addr: SocketAddr,
    pool: &[PoolEntry],
    (s, sessions, tag): (usize, usize, char),
    stop: Stop<'_>,
    seed: u64,
    mut rec: Recorder,
) -> LoopOut {
    let mut rng = Rng(seed ^ (s as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut history = History { seen: Vec::new(), fresh_count: 0 };
    let mut out = LoopOut::empty();
    for r in 0.. {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::After(count) if r >= count => break,
            Stop::Gated(gate) if !gate.between_requests() => break,
            _ => {}
        }
        let fresh = r % 4 == 0 || history.seen.is_empty();
        let (name, entry, class, earlier) = if fresh {
            let k = history.fresh_count;
            history.fresh_count += 1;
            let entry = (s + sessions * k) % pool.len();
            let class = if rng.next() & 1 == 0 { Class::Paper6 } else { Class::Chirp };
            (format!("{}@{tag}{s}.{k}", pool[entry].spec.name), entry, class, None)
        } else {
            let j = (rng.next() % history.seen.len() as u64) as usize;
            let (name, entry, class, _) = &history.seen[j];
            (name.clone(), *entry, *class, Some(j))
        };
        let upload = &pool[entry];
        let names = class.names();
        let class_tag = match (fresh, class) {
            (true, Class::Paper6) => 0,
            (true, Class::Chirp) => 1,
            (false, Class::Paper6) => 2,
            (false, Class::Chirp) => 3,
        };
        let id = ((s as u64) << 32) | r as u64;
        let request = rec.begin("serve.request", class_tag, None, id);
        let begun = Instant::now();
        let mut busy = 0u32;
        let reply = loop {
            out.attempts += 1;
            let attempt = rec.begin("serve.attempt", class_tag, request, id);
            let answer = client.submit_bytes(
                &name,
                upload.spec.category.label(),
                upload.spec.seed,
                &names,
                false,
                &upload.bytes,
            );
            rec.end(attempt);
            match answer {
                Ok(SubmitOutcome::Verdict(reply)) => break Ok(reply),
                Ok(SubmitOutcome::Busy { retry_after_ms, .. }) => {
                    out.busy += 1;
                    busy += 1;
                    if busy > MAX_BUSY_RETRIES {
                        break Err(format!("{name}: dropped after {busy} busy answers"));
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                Err(e) => {
                    // The session may be unusable after an error; start a
                    // new one for the next request.
                    if let Ok(fresh_client) = Client::connect(addr) {
                        client = fresh_client;
                    }
                    break Err(format!("{name}: {e}"));
                }
            }
        };
        let micros = begun.elapsed().as_secs_f64() * 1e6;
        rec.end(request);
        let checked = reply.and_then(|reply| {
            check_reply(&reply, &names, fresh, earlier.map(|j| history.seen[j].3.as_slice()))
                .map_err(|e| format!("{name}: {e}"))
                .map(|()| reply)
        });
        let ok = checked.is_ok();
        let simulated_instr =
            if fresh && ok { (upload.trace.len() * names.len()) as u64 } else { 0 };
        match checked {
            Ok(reply) if fresh => {
                history.seen.push((name, entry, class, reply.verdicts.clone()));
                out.fresh.push((entry, class, reply));
            }
            Ok(_) => {}
            Err(e) => out.failures.push(e),
        }
        let end_s = rec.now_s();
        let slice = match stop {
            Stop::Gated(gate) => {
                gate.completed.fetch_add(1, Ordering::AcqRel);
                gate.slice.load(Ordering::Acquire)
            }
            _ => 0,
        };
        out.samples.push(Sample { class, fresh, micros, end_s, slice, ok, simulated_instr });
    }
    out.spans = vec![rec.spans];
    out
}

/// Checks a verdict's shape and origin; a repeat must also report
/// exactly the numbers of its first answer.
fn check_reply(
    reply: &VerdictReply,
    names: &[String],
    fresh: bool,
    earlier: Option<&[PolicyVerdict]>,
) -> Result<(), String> {
    if reply.verdicts.len() != names.len()
        || reply.verdicts.iter().zip(names).any(|(v, n)| v.policy != *n)
    {
        return Err("verdict policies differ from the request".into());
    }
    if reply.verdicts.iter().any(|v| v.from_ledger == fresh) {
        return Err(format!(
            "expected every answer {}",
            if fresh { "simulated" } else { "from the ledger" }
        ));
    }
    if let Some(first) = earlier {
        if first.len() != reply.verdicts.len()
            || first.iter().zip(&reply.verdicts).any(|(a, b)| !same_verdict(a, b))
        {
            return Err("ledger answer differs from the first answer".into());
        }
    }
    Ok(())
}

/// Starts a server over a new store at `store` with one simulation
/// thread per request.
fn start_server(store: &Path, sim: &SimConfig) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        bind: SocketAddr::from(([127, 0, 0, 1], 0)),
        store: store.to_path_buf(),
        threads: 1,
        mem_budget: None,
        retry_after_ms: 50,
        sim: *sim,
    };
    serve(config).map_err(|e| e.to_string())
}

/// Uploads every pool trace once (as a `chirp`-only run under a set-up
/// name), so the archive holds the pool's content before the timed
/// phase. Archiving new content syncs a file to disk; left in the timed
/// phase, those first uploads would put disk-flush latency at the very
/// top of the latency distribution, where it swung p99 by a third
/// between runs.
fn warm_archive(addr: SocketAddr, pool: &[PoolEntry]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for entry in pool {
        let spec = &entry.spec;
        let name = format!("{}@setup", spec.name);
        match client.submit_bytes(
            &name,
            spec.category.label(),
            spec.seed,
            &Class::Chirp.names(),
            false,
            &entry.bytes,
        ) {
            Ok(SubmitOutcome::Verdict(_)) => {}
            Ok(SubmitOutcome::Busy { .. }) => return Err(format!("{name}: busy during set-up")),
            Err(e) => return Err(format!("{name}: {e}")),
        }
    }
    Ok(())
}

/// Reads counter `name` from the server's `Stats` text.
fn stat(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)?.strip_prefix(' ')?.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// Checks every fresh verdict against `run_policy_group` on the same
/// trace (memoised per pool entry and class) and returns the paper-lineup
/// results of every pool entry.
fn oracle_checks(
    out: &mut Outcome,
    pool: &[PoolEntry],
    sim: &SimConfig,
    fresh: &[(usize, Class, VerdictReply)],
) -> Vec<Vec<RunResult>> {
    let mut memo: HashMap<(usize, Class), Vec<RunResult>> = HashMap::new();
    let mut oracle = |entry: usize, class: Class| -> Vec<RunResult> {
        memo.entry((entry, class))
            .or_insert_with(|| {
                let kinds = class.kinds();
                let refs: Vec<&PolicyKind> = kinds.iter().collect();
                run_policy_group(sim, &refs, pool[entry].spec.seed, &pool[entry].trace, true)
            })
            .clone()
    };
    for (entry, class, reply) in fresh {
        let want = oracle(*entry, *class);
        out.check(
            reply.verdicts.len() == want.len()
                && reply.verdicts.iter().zip(&want).all(|(v, r)| verdict_matches(v, r)),
            || format!("{} differs from run_policy_group on the same trace", reply.name),
        );
    }
    (0..pool.len()).map(|entry| oracle(entry, Class::Paper6)).collect()
}

/// A request's latency in ms; a failed request is beyond every limit.
fn latency_ms(s: &Sample) -> f64 {
    if s.ok {
        s.micros / 1e3
    } else {
        FAILED_MS
    }
}

/// Latencies in ms, ascending.
fn sorted_ms<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.map(latency_ms).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Pushes the serving-layer figures of one loop.
fn push_serve_layer(out: &mut Outcome, run: &LoopOut, stats: &str) {
    let fresh = sorted_ms(run.samples.iter().filter(|s| s.fresh && s.ok));
    let cached = sorted_ms(run.samples.iter().filter(|s| !s.fresh && s.ok));
    out.push("serve.fresh_p50_ms", percentile(&fresh, 0.5), "ms");
    out.push("serve.cached_p50_ms", percentile(&cached, 0.5), "ms");
    out.push("serve.busy_ratio", run.busy as f64 / run.attempts.max(1) as f64, "ratio");
    let (hits, misses) = (stat(stats, "ledger_hits"), stat(stats, "ledger_misses"));
    out.push("serve.ledger_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
}

/// Counts a loop's requests and failures.
fn account(out: &mut Outcome, run: &LoopOut) {
    out.attempted += run.samples.len() as u64;
    out.failed += run.samples.iter().filter(|s| !s.ok).count() as u64;
    for failure in &run.failures {
        out.note(format!("MISMATCH {failure}"));
    }
}

/// `serve_mixed`.
pub fn serve_mixed(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let sim = inputs::sim_config();
    let n = args.scale.serve_instructions;
    let mut pace = Pace::new(args.threads);
    pace.measure();
    let mut setup = Vec::new();
    let mut ready: Option<(Vec<PoolEntry>, ServerHandle, std::path::PathBuf)> = None;
    for rep in 0..args.scale.setup_reps {
        // The previous set-up is torn down first, so only one pool is
        // ever resident.
        if let Some((_, old_server, old_store)) = ready.take() {
            old_server.shutdown().map_err(|e| e.to_string())?;
            std::fs::remove_dir_all(old_store).map_err(|e| e.to_string())?;
        }
        let store = args.workdir.join(format!("serve-store-{rep}"));
        let t = Instant::now();
        let specs = inputs::suite(args.scale.serve_pool, args.seed);
        let pool = make_pool(&specs, n);
        let server = start_server(&store, &sim)?;
        warm_archive(server.addr(), &pool)?;
        setup.push(t.elapsed().as_secs_f64());
        ready = Some((pool, server, store));
        pace.measure();
    }
    let (pool, server, _store) = ready.ok_or("set-up never ran")?;
    let addr = server.addr();

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let run = run_loop(
        addr,
        &pool,
        args.threads,
        Length::Paced(&mut pace, deadline),
        args.seed,
        false,
        'u',
    )?;
    let stats = Client::connect(addr).and_then(|mut c| c.stats()).map_err(|e| e.to_string())?;
    push_scheduler(out);
    account(out, &run);
    let paper = oracle_checks(out, &pool, &sim, &run.fresh);
    let labels: Vec<String> = Class::Paper6.names();
    out.note(format!(
        "digest {:016x} (paper-lineup oracle over {} pool traces)",
        crate::report::digest(paper.iter().flatten()),
        pool.len()
    ));

    let wall = run.wall.as_secs_f64();
    let end: Vec<f64> = run.samples.iter().map(|s| s.end_s).collect();
    let factor = pace.factor();
    let latency: Vec<f64> = run.samples.iter().map(|s| latency_ms(s) * factor).collect();
    let (p99, fewest) = windowed_p99(&end, &latency, wall);
    let mut ms = latency.clone();
    ms.sort_by(f64::total_cmp);
    // Rates per slice over its paced active time, median over slices.
    let per_slice = |weight: fn(&Sample) -> f64| -> f64 {
        let mut sums = vec![0.0; run.slice_secs.len()];
        for s in &run.samples {
            sums[s.slice] += weight(s);
        }
        let rates: Vec<f64> =
            sums.iter().enumerate().map(|(k, sum)| sum / (run.slice_secs[k] * factor)).collect();
        median(&rates)
    };
    out.push("sim_minstr_per_s", per_slice(|s| s.simulated_instr as f64 / 1e6), "Minstr/s");
    out.push("setup_s", median(&setup) * factor, "s");
    out.push("peak_rss_mib", run.rss_mib.unwrap_or_else(crate::report::peak_rss_mib), "MiB");
    out.push("req_per_s", per_slice(|s| f64::from(u8::from(s.ok))), "1/s");
    out.push("latency_p50_ms", percentile(&ms, 0.5), "ms");
    out.push("latency_p99_ms", p99, "ms");
    out.push("chirp_mpki_reduction_pct", mpki_reduction_pct(&paper, &labels), "%");
    let fresh = run.samples.iter().filter(|s| s.fresh).count();
    let single = run.samples.iter().filter(|s| s.class == Class::Chirp).count();
    out.note(format!(
        "requests {} ({} fresh, {} single-policy) from {} closed-loop sessions over {:.2} s in {} \
         slices; rates are medians over the slices, p99 the median over {WINDOWS} time windows of at \
         least {fewest} requests ({} beyond p99 each)",
        ms.len(),
        fresh,
        single,
        args.threads,
        wall,
        run.slice_secs.len(),
        fewest / 100
    ));
    out.note(pace_note(run.samples.iter().map(latency_ms), "request", &pace));
    out.note(match run.rss_mib {
        Some(_) => format!(
            "peak_rss_mib is the high-water mark after {RSS_AT_REQUESTS} requests; {:.1} MiB at the end",
            crate::report::peak_rss_mib()
        ),
        None => format!("peak_rss_mib is the end-of-run mark: fewer than {RSS_AT_REQUESTS} requests"),
    });

    if args.trace {
        push_serve_layer(out, &run, &stats);
        // Half as long: it only needs enough requests for the spans and
        // a rate to compare with the untraced loop's.
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        let traced = run_loop(
            addr,
            &pool,
            args.threads,
            Length::Until(deadline),
            args.seed ^ 0x7ACE,
            true,
            't',
        )?;
        account(out, &traced);
        oracle_checks(out, &pool, &sim, &traced.fresh);
        let class_ns = |want: fn(u16) -> bool| -> u64 {
            traced
                .spans
                .iter()
                .flatten()
                .filter(|s| s.name == "serve.request" && want(s.tag))
                .map(Span::dur_ns)
                .sum()
        };
        let total = class_ns(|_| true).max(1) as f64;
        for name in [
            "share.trace_gen_pct",
            "share.store_decode_pct",
            "share.sim_frontend_pct",
            "share.sim_replay_pct",
            "share.store_ledger_pct",
        ] {
            out.push(name, 0.0, "%");
        }
        out.push("share.sim_columnar_pct", class_ns(|t| t == 1) as f64 * 100.0 / total, "%");
        out.push(
            "share.serve_fresh_factored_pct",
            class_ns(|t| t == 0) as f64 * 100.0 / total,
            "%",
        );
        out.push("share.serve_cached_pct", class_ns(|t| t >= 2) as f64 * 100.0 / total, "%");
        out.push("share.harness_pct", 0.0, "%");
        let rate = |r: &LoopOut| r.samples.iter().filter(|s| s.ok).count() as f64 / r.active_secs();
        out.push("trace.overhead_pct", (rate(&run) / rate(&traced) - 1.0) * 100.0, "%");
        let refs: Vec<&[Span]> = traced.spans.iter().map(Vec::as_slice).collect();
        let written = spans::write_jsonl(&args.spans_out, &refs).map_err(|e| e.to_string())?;
        out.note(format!(
            "traced loop: {} requests, {written} client-side spans written to {} (shares are of client request time by class)",
            traced.samples.len(),
            args.spans_out.display()
        ));
        let lineup = inputs::lineup9();
        let all_labels = inputs::labels(&lineup);
        let refs: Vec<&PolicyKind> = lineup.iter().collect();
        let results: Vec<Vec<RunResult>> = pool
            .iter()
            .map(|e| run_policy_group(&sim, &refs, e.spec.seed, &e.trace, true))
            .collect();
        probes::model_metrics(
            out,
            &sim,
            &lineup,
            &all_labels,
            &results,
            pool.iter().map(|e| e.trace.clone()),
        );
        let specs: Vec<BenchmarkSpec> =
            pool.iter().take(probes::PROBE_TRACES).map(|e| e.spec.clone()).collect();
        probes::layer_probes(
            out,
            &specs,
            &sim,
            &lineup,
            n,
            args.threads,
            &args.workdir.join("probe-store"),
        )?;
    }
    server.shutdown().map_err(|e| e.to_string())
}

/// The serving figures of a batch workload: a short single-session loop
/// over `specs` (`n` instructions each) against a fresh server.
pub fn serve_probe(
    args: &RunArgs,
    out: &mut Outcome,
    specs: &[BenchmarkSpec],
    n: usize,
) -> Result<(), String> {
    let sim = inputs::sim_config();
    let pool = make_pool(specs, n);
    let server = start_server(&args.workdir.join("serve-probe-store"), &sim)?;
    let run = run_loop(
        server.addr(),
        &pool,
        1,
        Length::Requests(args.scale.serve_probe_requests),
        args.seed,
        false,
        'p',
    )?;
    let stats =
        Client::connect(server.addr()).and_then(|mut c| c.stats()).map_err(|e| e.to_string())?;
    account(out, &run);
    oracle_checks(out, &pool, &sim, &run.fresh);
    push_serve_layer(out, &run, &stats);
    server.shutdown().map_err(|e| e.to_string())
}
