//! The two batch workloads, `lineup9_gen` and `penalty_sweep_archive`,
//! and the traced pipeline that rebuilds their production path from
//! public pieces: trace source → `FrontEnd::process_chunk` →
//! `Backend::replay` per policy → `finish_result` → ledger append.

use crate::inputs::{self, walk_penalty, SWEEP_PENALTIES};
use crate::oracle::{oracle_run, same_result, sample_units};
use crate::pace::{self, Pace};
use crate::report::{self, median, percentile, Outcome};
use crate::spans::{self, Open, Recorder, Span};
use crate::{probes, serving, RunArgs};
use chirp_sim::store_cache::{record_from_run, run_key};
use chirp_sim::{
    group_sig_config, last_scheduler_summary, run_suite, run_suite_streamed, Backend, BenchRun,
    EventSegment, FrontEnd, PolicyDispatch, PolicyKind, RunResult, RunnerConfig, SimConfig,
    DEFAULT_STREAM_CHUNK,
};
use chirp_store::{ArchiveTraceStream, RunLedger, TraceArchive};
use chirp_tlb::TlbStats;
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{PackedTrace, TraceChunk, TraceStream};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Units the batch oracle re-simulates per run.
const ORACLE_UNITS: usize = 6;

/// Set-ups of `lineup9_gen` before its first pass. Its set-up only
/// builds the suite and runner (about a millisecond), so one more runs
/// after every timed pass: the median then spans the whole run rather
/// than the first instant of it.
const SUITE_SETUP_REPS: usize = 5;

/// Passes in each run the batch p99 is taken over: the median over
/// consecutive runs of this many passes of each run's p99. A run's p99
/// is close to its slowest pass; with 10 there are 10–25 runs in a
/// 30 s measurement.
const P99_RUN: usize = 10;

/// Records the traced pipeline feeds the front end per segment; each
/// segment is replayed through every back-end before the next is built.
const SEGMENT: usize = 65_536;

/// The runner configuration of both batch workloads: factored engine,
/// no store, no memory budget.
fn runner_config(n: usize, threads: usize, sim: SimConfig) -> RunnerConfig {
    RunnerConfig {
        instructions: n,
        threads,
        sim,
        store: None,
        mem_budget: None,
        lanes: 1,
        stream_chunk: 0,
        factored: true,
    }
}

/// Results of one suite pass, per benchmark in lineup order.
fn by_bench(runs: &[BenchRun], policies: usize) -> Vec<Vec<RunResult>> {
    runs.chunks(policies).map(|c| c.iter().map(|r| r.result.clone()).collect()).collect()
}

/// Suite-mean of `f` over the results labelled `label`.
pub fn mean_of(
    results: &[Vec<RunResult>],
    labels: &[String],
    label: &str,
    f: impl Fn(&RunResult) -> f64,
) -> f64 {
    let Some(p) = labels.iter().position(|l| l == label) else { return 0.0 };
    report::mean(results.iter().map(|r| f(&r[p])))
}

/// CHiRP's L2-TLB MPKI reduction against LRU, in percent of LRU's
/// suite-mean MPKI.
pub fn mpki_reduction_pct(results: &[Vec<RunResult>], labels: &[String]) -> f64 {
    let lru = mean_of(results, labels, "lru", RunResult::mpki);
    let chirp = mean_of(results, labels, "chirp", RunResult::mpki);
    if lru == 0.0 {
        0.0
    } else {
        (lru - chirp) / lru * 100.0
    }
}

/// Pushes the end-to-end metrics shared by the batch workloads, every
/// timing paced by `pace`. An operation is one suite pass; `setup` and
/// `wall_secs` are wall times.
fn push_end_to_end(
    out: &mut Outcome,
    (setup, pace): (&[f64], &Pace),
    wall_secs: &[f64],
    simulated_instr_per_pass: f64,
    reduction: f64,
) {
    let factor = pace.factor();
    let setup: Vec<f64> = setup.iter().map(|s| s * factor).collect();
    let pass_secs: &[f64] = &wall_secs.iter().map(|s| s * factor).collect::<Vec<_>>();
    let pass_ms: Vec<f64> = pass_secs.iter().map(|s| s * 1e3).collect();
    let (p99, runs) = report::run_p99(&pass_ms, P99_RUN);
    let mut ms = pass_ms;
    ms.sort_by(f64::total_cmp);
    out.push("sim_minstr_per_s", simulated_instr_per_pass / median(pass_secs) / 1e6, "Minstr/s");
    out.push("setup_s", median(&setup), "s");
    out.push("peak_rss_mib", report::peak_rss_mib(), "MiB");
    out.push("req_per_s", 1.0 / median(pass_secs), "1/s");
    out.push("latency_p50_ms", percentile(&ms, 0.5), "ms");
    out.push("latency_p99_ms", p99, "ms");
    out.push("chirp_mpki_reduction_pct", reduction, "%");
    out.note(format!(
        "pass ms: min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1}",
        ms[0],
        percentile(&ms, 0.25),
        percentile(&ms, 0.5),
        percentile(&ms, 0.75),
        ms[ms.len() - 1]
    ));
    out.note(format!(
        "passes {} (an operation is one whole-suite pass); p99 is the median over {runs} runs of \
         {P99_RUN} consecutive passes of each run's p99, which is close to its slowest pass",
        ms.len(),
    ));
    out.note(pace_note(wall_secs.iter().map(|s| s * 1e3), "pass", pace));
}

/// The unpaced figures behind the paced ones: the median wall time of
/// the samples and the kernel's time on this run's host.
pub fn pace_note(wall_ms: impl Iterator<Item = f64>, what: &str, pace: &Pace) -> String {
    let wall: Vec<f64> = wall_ms.collect();
    format!(
        "paced: timings above are wall times × {:.4}, the reference kernel's {:.2} ms over its \
         {:.3} ms on this host (median of {} thread-calls); wall {what} ms median {:.2}",
        pace.factor(),
        pace::REFERENCE_S * 1e3,
        pace.kernel_s() * 1e3,
        pace.samples.len(),
        median(&wall)
    )
}

/// Pushes the scheduler figures of the last scheduled run.
pub fn push_scheduler(out: &mut Outcome) {
    let summary = last_scheduler_summary();
    out.push(
        "sim.sched_peak_resident_mib",
        summary.as_ref().map_or(0.0, |s| s.peak_resident_bytes as f64 / (1024.0 * 1024.0)),
        "MiB",
    );
    out.push(
        "sim.sched_peak_ready_queue",
        summary.as_ref().map_or(0.0, |s| s.peak_ready_queue as f64),
        "count",
    );
}

/// `lineup9_gen`: `run_suite` over a generated suite × lineup9 with the
/// factored engine and no store, repeated until the time is up.
pub fn lineup9_gen(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let (n, lineup) = (args.scale.instructions, inputs::lineup9());
    let labels = inputs::labels(&lineup);
    let set_up = || {
        let t = Instant::now();
        let suite = inputs::suite(args.scale.benchmarks, args.seed);
        let cfg = runner_config(n, args.threads, inputs::sim_config());
        (t.elapsed().as_secs_f64(), suite, cfg)
    };
    let mut pace = Pace::new(args.threads);
    pace.measure();
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..SUITE_SETUP_REPS {
        let (took, suite, cfg) = set_up();
        setup.push(took);
        prepared = Some((suite, cfg));
    }
    let (suite, cfg) = prepared.ok_or("set-up never ran")?;
    let units = suite.len() * lineup.len();

    let mut pass_secs = Vec::new();
    let mut reference: Option<Vec<BenchRun>> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    loop {
        let t = Instant::now();
        let runs = run_suite(&suite, &lineup, &cfg);
        pass_secs.push(t.elapsed().as_secs_f64());
        pace.measure();
        setup.push(set_up().0);
        out.attempted += units as u64;
        match &reference {
            None => reference = Some(runs),
            Some(first) => {
                for (a, b) in first.iter().zip(&runs) {
                    if !same_result(&a.result, &b.result) {
                        out.failed += 1;
                        out.note(format!(
                            "MISMATCH {} {} differs between passes",
                            b.benchmark, b.result.policy
                        ));
                    }
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let reference = reference.expect("at least one pass ran");
    let results = by_bench(&reference, lineup.len());
    push_scheduler(out);

    for (b, p) in sample_units(suite.len(), lineup.len(), ORACLE_UNITS) {
        let trace = suite[b].generate_packed(n);
        let want = oracle_run(&cfg.sim, &lineup[p], suite[b].seed, &trace);
        out.check(same_result(&results[b][p], &want), || {
            format!("{} {} differs from the per-record oracle", suite[b].name, labels[p])
        });
    }
    out.note(format!(
        "digest {:016x} ({} results)",
        report::digest(results.iter().flatten()),
        units
    ));
    let instr = (units * n) as f64;
    push_end_to_end(out, (&setup, &pace), &pass_secs, instr, mpki_reduction_pct(&results, &labels));

    if args.trace {
        let median_pass = median(&pass_secs);
        traced(args, out, &suite, &lineup, &cfg.sim, Source::Generate, None, median_pass, |_| {
            &results
        })?;
        let traces = suite.iter().map(|s| s.generate_packed(n));
        probes::model_metrics(out, &cfg.sim, &lineup, &labels, &results, traces);
        layer_probes(args, out, &suite, &cfg.sim, &lineup, n)?;
    }
    Ok(())
}

/// `penalty_sweep_archive`: packs the suite's traces in set-up, then
/// repeats the Fig. 10 sweep until the time is up: `run_suite_streamed`
/// over lineup9 at each walk penalty in turn, every unit a ledger miss
/// fed from the archive. Each sweep starts from an empty ledger, so a
/// pass costs the same however many passes the machine fits in the
/// time. A final pass repeats the last penalty, which the ledger
/// answers in full.
pub fn penalty_sweep_archive(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let (n, lineup) = (args.scale.instructions, inputs::lineup9());
    let labels = inputs::labels(&lineup);
    let suite = inputs::suite(args.scale.benchmarks, args.seed);
    let units = suite.len() * lineup.len();
    let mut pace = Pace::new(args.threads);
    let mut setup = Vec::new();
    let mut root = None;
    for rep in 0..args.scale.setup_reps {
        let dir = args.workdir.join(format!("sweep-store-{rep}"));
        let t = Instant::now();
        let mut archive = TraceArchive::open(&dir).map_err(|e| e.to_string())?;
        for spec in &suite {
            archive.pack(spec, n).map_err(|e| e.to_string())?;
        }
        setup.push(t.elapsed().as_secs_f64());
        if let Some(old) = root.replace(dir) {
            std::fs::remove_dir_all(old).map_err(|e| e.to_string())?;
        }
        pace.measure();
    }
    let root = root.ok_or("set-up never ran")?;
    let mut cfg = runner_config(n, args.threads, inputs::sim_config());

    let mut pass_secs = Vec::new();
    let mut passes: Vec<(u64, Vec<BenchRun>)> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    loop {
        if passes.len().is_multiple_of(SWEEP_PENALTIES) {
            // A new sweep: drop the previous sweep's ledger
            // (`RunLedger` keeps it at `<root>/runs.jsonl`), keep the archive.
            let ledger = root.join("runs.jsonl");
            if ledger.exists() {
                std::fs::remove_file(ledger).map_err(|e| e.to_string())?;
            }
        }
        let penalty = walk_penalty(passes.len());
        cfg.sim.tlb.walk_penalty = penalty;
        let t = Instant::now();
        let (runs, stats) =
            run_suite_streamed(&suite, &lineup, &cfg, &root).map_err(|e| e.to_string())?;
        pass_secs.push(t.elapsed().as_secs_f64());
        pace.measure();
        out.attempted += units as u64;
        if stats.simulated != units || stats.trace_hits != suite.len() as u64 {
            out.failed += units as u64;
            out.note(format!(
                "MISMATCH pass at penalty {penalty} did not replay the archive: {stats:?}"
            ));
        }
        passes.push((penalty, runs));
        if Instant::now() >= deadline {
            break;
        }
    }
    push_scheduler(out);

    // The read path: a penalty already recorded, answered by the ledger.
    let last = passes.len() - 1;
    cfg.sim.tlb.walk_penalty = passes[last].0;
    let t = Instant::now();
    let (answered, stats) =
        run_suite_streamed(&suite, &lineup, &cfg, &root).map_err(|e| e.to_string())?;
    let answer = t.elapsed();
    if stats.ledger_hits != units || stats.simulated != 0 {
        out.note(format!("MISMATCH final pass was not answered by the ledger: {stats:?}"));
        out.failed += units as u64;
    }
    for (a, b) in passes[last].1.iter().zip(&answered) {
        out.check(same_result(&a.result, &b.result), || {
            format!("{} {} read back from the ledger differs", b.benchmark, b.result.policy)
        });
    }

    for (k, (b, p)) in sample_units(suite.len(), lineup.len(), ORACLE_UNITS).into_iter().enumerate()
    {
        let (penalty, runs) = &passes[if k % 2 == 0 { 0 } else { last }];
        let mut sim = inputs::sim_config();
        sim.tlb.walk_penalty = *penalty;
        let want = oracle_run(&sim, &lineup[p], suite[b].seed, &suite[b].generate_packed(n));
        out.check(same_result(&runs[b * lineup.len() + p].result, &want), || {
            format!(
                "{} {} at penalty {penalty} differs from the per-record oracle",
                suite[b].name, labels[p]
            )
        });
    }
    let all: Vec<&RunResult> =
        passes.iter().flat_map(|(_, runs)| runs.iter().map(|r| &r.result)).collect();
    out.note(format!(
        "digest {:016x} ({} results over {} passes)",
        report::digest(all.iter().copied()),
        all.len(),
        passes.len()
    ));
    out.note(format!(
        "ledger-answered final pass: {} units in {:.1} ms ({:.2} us/unit)",
        units,
        answer.as_secs_f64() * 1e3,
        report::ns_per(answer, units as u64) / 1e3
    ));
    let first = by_bench(&passes[0].1, lineup.len());
    let instr = (units * n) as f64;
    push_end_to_end(out, (&setup, &pace), &pass_secs, instr, mpki_reduction_pct(&first, &labels));

    if args.trace {
        let archive = TraceArchive::open(&root).map_err(|e| e.to_string())?;
        let ledger = Mutex::new(
            RunLedger::open(&args.workdir.join("traced-ledger")).map_err(|e| e.to_string())?,
        );
        let expected: Vec<Vec<Vec<RunResult>>> =
            passes.iter().map(|(_, runs)| by_bench(runs, lineup.len())).collect();
        let penalties: Vec<u64> = passes.iter().map(|(p, _)| *p).collect();
        let median_pass = median(&pass_secs);
        traced(
            args,
            out,
            &suite,
            &lineup,
            &cfg.sim,
            Source::Archive { archive: &archive, penalties: &penalties },
            Some(&ledger),
            median_pass,
            |round| &expected[round % expected.len()],
        )?;
        let mut sim = inputs::sim_config();
        sim.tlb.walk_penalty = passes[0].0;
        let traces = suite.iter().map(|s| s.generate_packed(n));
        probes::model_metrics(out, &sim, &lineup, &labels, &first, traces);
        layer_probes(args, out, &suite, &sim, &lineup, n)?;
    }
    Ok(())
}

/// Where the traced pipeline's traces come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// `BenchmarkSpec::generate_packed`, as `run_suite` without a store.
    Generate,
    /// `ArchiveTraceStream` over a packed archive; traced round `r` runs
    /// at walk penalty `penalties[r % len]`.
    Archive { archive: &'a TraceArchive, penalties: &'a [u64] },
}

/// One pass of the traced pipeline.
struct PipelinePass {
    results: Vec<Vec<RunResult>>,
    wall: Duration,
    spans: Vec<Vec<Span>>,
}

/// The factored state of one (benchmark × lineup) group.
struct Group {
    fe: FrontEnd,
    backends: Vec<Backend<PolicyDispatch>>,
    seg: EventSegment,
    warmup: usize,
    pos: usize,
    windows: Option<Vec<(u64, u64, TlbStats)>>,
}

impl Group {
    fn new(sim: &SimConfig, lineup: &[PolicyKind], seed: u64, len: usize) -> Group {
        let sig_config = group_sig_config(lineup.iter());
        let sig_code = sig_config.signature_code();
        Group {
            fe: FrontEnd::new(sim, &sig_config),
            backends: lineup
                .iter()
                .map(|k| Backend::new(sim, k.build_dispatch(sim.tlb.l2, seed), sig_code))
                .collect(),
            seg: EventSegment::default(),
            warmup: (((len as f64) * sim.warmup_fraction.clamp(0.0, 1.0)) as usize).min(len),
            pos: 0,
            windows: None,
        }
    }

    /// Feeds one batch, cutting the warmup window at the same absolute
    /// instruction `run_columnar` does.
    fn feed(&mut self, rec: &mut Recorder, unit: Open, id: u64, batch: &PackedTrace) {
        for chunk in batch.chunks(SEGMENT) {
            if self.windows.is_none() && self.warmup <= self.pos + chunk.len() {
                let (head, tail) = chunk.split_at(self.warmup - self.pos);
                self.step(rec, unit, id, &head);
                self.windows = Some(self.backends.iter().map(|b| b.window_start()).collect());
                self.step(rec, unit, id, &tail);
            } else {
                self.step(rec, unit, id, &chunk);
            }
            self.pos += chunk.len();
        }
    }

    fn step(&mut self, rec: &mut Recorder, unit: Open, id: u64, chunk: &TraceChunk<'_>) {
        self.seg.clear();
        let (fe, seg) = (&mut self.fe, &mut self.seg);
        rec.time("sim.frontend", 0, unit, id, || fe.process_chunk(chunk, seg));
        for (i, backend) in self.backends.iter_mut().enumerate() {
            let seg = &self.seg;
            rec.time("sim.replay", i as u16, unit, id, || backend.replay(seg));
        }
    }

    fn finish(mut self, rec: &mut Recorder, unit: Open, id: u64) -> Vec<RunResult> {
        let windows = self
            .windows
            .take()
            .unwrap_or_else(|| self.backends.iter().map(|b| b.window_start()).collect());
        rec.time("sim.finish", 0, unit, id, || {
            self.backends.iter().zip(windows).map(|(b, w)| b.finish_result(w)).collect()
        })
    }
}

/// One pipeline worker's spans and its (benchmark, results) pairs.
type WorkerOut = (Recorder, Vec<(usize, Vec<RunResult>)>);

/// Runs one traced-pipeline pass over the suite on `threads` workers.
#[allow(clippy::too_many_arguments)]
fn pipeline_pass(
    suite: &[BenchmarkSpec],
    lineup: &[PolicyKind],
    sim: &SimConfig,
    n: usize,
    source: Source<'_>,
    ledger: Option<&Mutex<RunLedger>>,
    threads: usize,
    traced: bool,
    epoch: Instant,
) -> Result<PipelinePass, String> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let worker = || -> Result<WorkerOut, String> {
        let mut rec = Recorder::new(epoch, traced);
        let mut done = Vec::new();
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = suite.get(b) else { break };
            let id = b as u64;
            let unit = rec.begin("unit", 0, None, id);
            let results = match source {
                Source::Generate => {
                    let trace = rec.time("trace.gen", 0, unit, id, || spec.generate_packed(n));
                    let mut group = Group::new(sim, lineup, spec.seed, trace.len());
                    group.feed(&mut rec, unit, id, &trace);
                    group.finish(&mut rec, unit, id)
                }
                Source::Archive { archive, .. } => {
                    let key = TraceArchive::content_key(spec, n);
                    let meta = archive.entry_meta(key).ok_or("trace missing from the archive")?;
                    let path = archive.trace_path(key);
                    let mut stream = rec
                        .time("store.decode", 0, unit, id, || {
                            ArchiveTraceStream::open(&path, meta, DEFAULT_STREAM_CHUNK)
                        })
                        .map_err(|e| e.to_string())?;
                    let mut group = Group::new(sim, lineup, spec.seed, stream.len());
                    while let Some(batch) = rec
                        .time("store.decode", 0, unit, id, || stream.next_batch())
                        .map_err(|e| e.to_string())?
                    {
                        group.feed(&mut rec, unit, id, &batch);
                    }
                    group.finish(&mut rec, unit, id)
                }
            };
            if let Some(ledger) = ledger {
                for (kind, result) in lineup.iter().zip(&results) {
                    let run = BenchRun {
                        benchmark: spec.name.clone(),
                        category: spec.category,
                        result: result.clone(),
                    };
                    let key = run_key(sim, kind, &spec.name, n);
                    let record = record_from_run(&run, sim, kind);
                    rec.time("store.ledger_append", 0, unit, id, || {
                        ledger.lock().expect("ledger lock poisoned").append(key, record)
                    })
                    .map_err(|e| e.to_string())?;
                }
            }
            rec.end(unit);
            done.push((b, results));
        }
        Ok((rec, done))
    };
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("pipeline worker panicked")).collect()
    });
    let wall = started.elapsed();
    let mut results = vec![Vec::new(); suite.len()];
    let mut spans = Vec::new();
    for outcome in outcomes {
        let (rec, done) = outcome?;
        for (b, r) in done {
            results[b] = r;
        }
        spans.push(rec.spans);
    }
    Ok(PipelinePass { results, wall, spans })
}

/// The traced run of a batch workload: alternates untraced and traced
/// pipeline passes, checks every pass bit-identical to the production
/// results (`expected(round)`), and reports layer shares of self time
/// and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced<'e>(
    args: &RunArgs,
    out: &mut Outcome,
    suite: &[BenchmarkSpec],
    lineup: &[PolicyKind],
    sim: &SimConfig,
    source: Source<'_>,
    ledger: Option<&Mutex<RunLedger>>,
    production_pass_secs: f64,
    expected: impl Fn(usize) -> &'e Vec<Vec<RunResult>>,
) -> Result<(), String> {
    let n = args.scale.instructions;
    let epoch = Instant::now();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut all_spans: Vec<Vec<Span>> = Vec::new();
    for round in 0..args.scale.traced_reps * 2 {
        let traced = round % 2 == 1;
        let mut pass_sim = *sim;
        if let Source::Archive { penalties, .. } = source {
            pass_sim.tlb.walk_penalty = penalties[round % penalties.len()];
        }
        let pass = pipeline_pass(
            suite,
            lineup,
            &pass_sim,
            n,
            source,
            ledger,
            args.threads,
            traced,
            epoch,
        )?;
        let want = expected(round);
        for (b, (got, want)) in pass.results.iter().zip(want).enumerate() {
            for (g, w) in got.iter().zip(want) {
                out.check(same_result(g, w), || {
                    format!(
                        "traced pipeline {} {} differs from the untraced run",
                        suite[b].name, g.policy
                    )
                });
            }
        }
        if traced {
            on.push(pass.wall.as_secs_f64());
            for spans in &pass.spans {
                spans::self_times(spans, &mut self_ns);
            }
            all_spans.extend(pass.spans);
        } else {
            off.push(pass.wall.as_secs_f64());
        }
    }
    let total: u64 = self_ns.values().sum();
    let share = |names: &[&str]| -> f64 {
        let ns: u64 = names.iter().filter_map(|n| self_ns.get(n)).sum();
        if total == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / total as f64
        }
    };
    out.push("share.trace_gen_pct", share(&["trace.gen"]), "%");
    out.push("share.store_decode_pct", share(&["store.decode"]), "%");
    out.push("share.sim_frontend_pct", share(&["sim.frontend"]), "%");
    out.push("share.sim_replay_pct", share(&["sim.replay"]), "%");
    out.push("share.store_ledger_pct", share(&["store.ledger_append"]), "%");
    out.push("share.sim_columnar_pct", 0.0, "%");
    out.push("share.serve_fresh_factored_pct", 0.0, "%");
    out.push("share.serve_cached_pct", 0.0, "%");
    out.push("share.harness_pct", share(&["unit", "sim.finish"]), "%");
    out.push("trace.overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0, "%");
    let per_pass: Vec<String> = self_ns
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}", *ns as f64 / 1e6 / on.len().max(1) as f64))
        .collect();
    out.note(format!("self time per traced pass, ms summed over workers: {}", per_pass.join(", ")));
    let refs: Vec<&[Span]> = all_spans.iter().map(Vec::as_slice).collect();
    let written = spans::write_jsonl(&args.spans_out, &refs).map_err(|e| e.to_string())?;
    out.note(format!(
        "traced pipeline: {} passes with spans ({:.3} s median), {} without ({:.3} s median, {:+.1}% against \
         the production pass); {written} spans written to {}",
        on.len(),
        median(&on),
        off.len(),
        median(&off),
        (median(&off) / production_pass_secs - 1.0) * 100.0,
        args.spans_out.display()
    ));
    Ok(())
}

/// The per-call layer probes plus, on a batch workload, the serving
/// probe over its first traces.
fn layer_probes(
    args: &RunArgs,
    out: &mut Outcome,
    suite: &[BenchmarkSpec],
    sim: &SimConfig,
    lineup: &[PolicyKind],
    n: usize,
) -> Result<(), String> {
    let probe_specs = &suite[..suite.len().min(probes::PROBE_TRACES)];
    probes::layer_probes(
        out,
        probe_specs,
        sim,
        lineup,
        n,
        args.threads,
        &probe_root(&args.workdir),
    )?;
    serving::serve_probe(args, out, probe_specs, n)
}

fn probe_root(workdir: &Path) -> std::path::PathBuf {
    workdir.join("probe-store")
}
