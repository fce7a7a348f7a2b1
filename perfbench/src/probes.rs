//! Per-call layer probes and the modelled-component metrics.
//!
//! Each probe times calls into one crate's public functions over the
//! workload's own first traces, so every per-call figure is defined on
//! every workload (including ones whose pipeline never reaches that
//! layer; how much of a workload's time a layer takes is the traced
//! pipeline's `share.*` figures). The isolated component replays run one
//! component at a time and need not sum to the fused front end.

use crate::oracle::same_result;
use crate::report::{median, ns_per, Outcome};
use chirp_branch::BranchUnit;
use chirp_core::signature::hash16;
use chirp_core::SignatureBuilder;
use chirp_mem::MemoryHierarchy;
use chirp_sim::store_cache::{record_from_run, run_key};
use chirp_sim::{
    group_sig_config, run_suite_streamed, Backend, BenchRun, FactoredTrace, FrontEnd, PolicyKind,
    RunResult, RunnerConfig, SimConfig, Simulator, DEFAULT_STREAM_CHUNK,
};
use chirp_store::archive::ArchiveOutcome;
use chirp_store::{ArchiveTraceStream, RunLedger, TraceArchive};
use chirp_tlb::{L1FrontEnd, TranslationKind};
use chirp_trace::suite::BenchmarkSpec;
use chirp_trace::{vpn, InstrKind, PackedTrace, TraceStream};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Traces each probe runs over.
pub const PROBE_TRACES: usize = 2;

/// Repetitions of each probe; figures are the median.
const PROBE_REPS: usize = 3;

/// Time and work accumulated by one probe within one repetition.
#[derive(Default, Clone, Copy)]
struct Tally {
    time: Duration,
    work: u64,
}

impl Tally {
    fn add<R>(&mut self, work: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = black_box(f());
        self.time += t.elapsed();
        self.work += work;
        out
    }
}

/// Runs every per-call probe over `specs` (the workload's first traces,
/// `n` instructions each) and pushes its figures. `root` is a scratch
/// store directory.
pub fn layer_probes(
    out: &mut Outcome,
    specs: &[BenchmarkSpec],
    sim: &SimConfig,
    lineup: &[PolicyKind],
    n: usize,
    threads: usize,
    root: &Path,
) -> Result<(), String> {
    let labels = crate::inputs::labels(lineup);
    let sig_config = group_sig_config(lineup.iter());
    // Per repetition: one tally per probe, in the order pushed below.
    let mut reps: Vec<Vec<Tally>> = Vec::new();
    let mut appends_us: Vec<f64> = Vec::new();
    let (mut access_events, mut control_events, mut instructions) = (0u64, 0u64, 0u64);
    let mut archive = TraceArchive::open(root).map_err(|e| e.to_string())?;
    let mut ledger = RunLedger::open(root).map_err(|e| e.to_string())?;
    let mut replayed: Vec<Vec<RunResult>> = Vec::new();
    for rep in 0..PROBE_REPS {
        let mut t = vec![Tally::default(); 9 + lineup.len()];
        for spec in specs {
            let len = n as u64;
            let trace = t[0].add(len, || spec.generate_packed(n));
            let key = TraceArchive::content_key(spec, n);
            t[1].add(len, || -> Result<(), String> {
                let encoded = TraceArchive::encode_packed(&trace);
                TraceArchive::store_file(&archive.trace_path(key), &encoded)
                    .map_err(|e| e.to_string())?;
                archive
                    .commit(key, &encoded, ArchiveOutcome::MissGenerated)
                    .map_err(|e| e.to_string())
            })?;
            let meta = archive.entry_meta(key).ok_or("probe trace missing from its archive")?;
            let path = archive.trace_path(key);
            t[2].add(len, || -> Result<(), String> {
                let mut stream = ArchiveTraceStream::open(&path, meta, DEFAULT_STREAM_CHUNK)
                    .map_err(|e| e.to_string())?;
                while stream.next_batch().map_err(|e| e.to_string())?.is_some() {}
                Ok(())
            })?;
            let factored = t[3]
                .add(len, || FactoredTrace::build(sim, &trace, sim.warmup_fraction, &sig_config));
            if rep == 0 {
                access_events += factored.access_events() as u64;
                control_events += factored.control_events() as u64;
                instructions += factored.instructions();
            }
            component_probes(&mut t[4..8], sim, &trace, &sig_config);
            t[8].add(len, || {
                let kind = PolicyKind::parse("chirp").expect("chirp is a registered policy");
                Simulator::with_policy(sim, kind.build_dispatch(sim.tlb.l2, spec.seed))
                    .run_columnar(&trace, sim.warmup_fraction)
            });
            let events = factored.access_events() as u64;
            let mut results = Vec::new();
            for (i, kind) in lineup.iter().enumerate() {
                let mut backend = Backend::new(
                    sim,
                    kind.build_dispatch(sim.tlb.l2, spec.seed),
                    factored.sig_code,
                );
                let window = t[9 + i].add(events, || {
                    backend.replay(&factored.warmup);
                    let window = backend.window_start();
                    backend.replay(&factored.measured);
                    window
                });
                results.push(backend.finish_result(window));
            }
            if rep == 0 {
                for (kind, result) in lineup.iter().zip(&results) {
                    let run = BenchRun {
                        benchmark: spec.name.clone(),
                        category: spec.category,
                        result: result.clone(),
                    };
                    let record = record_from_run(&run, sim, kind);
                    let key = run_key(sim, kind, &spec.name, n);
                    let t0 = Instant::now();
                    ledger.append(key, record).map_err(|e| e.to_string())?;
                    appends_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                replayed.push(results);
            }
        }
        reps.push(t);
    }
    let cost =
        |i: usize| median(&reps.iter().map(|t| ns_per(t[i].time, t[i].work)).collect::<Vec<_>>());
    out.push("trace.gen_ns_per_instr", cost(0), "ns/instr");
    out.push("store.archive_pack_ns_per_instr", cost(1), "ns/instr");
    out.push("store.archive_decode_ns_per_instr", cost(2), "ns/instr");
    out.push("sim.frontend_ns_per_instr", cost(3), "ns/instr");
    out.push(
        "sim.access_events_per_instr",
        access_events as f64 / instructions.max(1) as f64,
        "1/instr",
    );
    out.push(
        "sim.control_events_per_instr",
        control_events as f64 / instructions.max(1) as f64,
        "1/instr",
    );
    out.push("branch.observe_ns_per_instr", cost(4), "ns/instr");
    out.push("mem.hierarchy_ns_per_instr", cost(5), "ns/instr");
    out.push("tlb.l1_ns_per_instr", cost(6), "ns/instr");
    out.push("core.signature_ns_per_instr", cost(7), "ns/instr");
    out.push("sim.columnar_ns_per_instr", cost(8), "ns/instr");
    for (i, label) in labels.iter().enumerate() {
        out.push(format!("sim.replay_ns_per_event.{label}"), cost(9 + i), "ns/event");
    }
    out.push("store.ledger_append_us", median(&appends_us), "us");

    // The read path: every unit of the probe traces is now recorded, so
    // the streamed runner answers all of them from the ledger.
    let cfg = RunnerConfig { instructions: n, threads, sim: *sim, ..RunnerConfig::default() };
    let units = specs.len() * lineup.len();
    let mut answer_us = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let (runs, stats) =
            run_suite_streamed(specs, lineup, &cfg, root).map_err(|e| e.to_string())?;
        answer_us.push(t0.elapsed().as_secs_f64() * 1e6 / units as f64);
        out.check(stats.ledger_hits == units && stats.simulated == 0, || {
            format!("probe ledger answered {} of {units} units", stats.ledger_hits)
        });
        for (run, want) in runs.iter().zip(replayed.iter().flatten()) {
            out.check(same_result(&run.result, want), || {
                format!(
                    "{} {} read back from the ledger differs from its replay",
                    run.benchmark, run.result.policy
                )
            });
        }
    }
    out.push("store.ledger_answer_us_per_unit", median(&answer_us), "us");
    out.note(
        "per-call figures are probes over the workload's first traces; the isolated component \
         replays (branch, mem, tlb, signature) run one component at a time and need not sum to \
         sim.frontend_ns_per_instr",
    );
    Ok(())
}

/// Isolated replays of one trace through each front-end component:
/// `tallies` = [branch unit, cache hierarchy, L1 TLBs, signatures].
fn component_probes(
    tallies: &mut [Tally],
    sim: &SimConfig,
    trace: &PackedTrace,
    sig: &chirp_core::ChirpConfig,
) {
    let records = trace.to_records();
    let len = records.len() as u64;
    tallies[0].add(len, || {
        let mut unit = BranchUnit::new(sim.branch);
        records.iter().map(|r| unit.observe(r)).sum::<u64>()
    });
    tallies[1].add(len, || {
        let mut mem = MemoryHierarchy::new(sim.mem);
        let mut cycles = 0u64;
        for r in &records {
            cycles += mem.fetch(r.pc);
            cycles += match r.kind {
                InstrKind::Load => mem.load(r.effective_address),
                InstrKind::Store => mem.store(r.effective_address),
                _ => 0,
            };
        }
        cycles
    });
    // Which records reach the L2 (instruction miss = bit 0, data miss =
    // bit 1): the events the signature probe folds, found untimed.
    let mut l1 = L1FrontEnd::new(&sim.tlb);
    let misses: Vec<u8> = records.iter().map(|r| l1_misses(&mut l1, r)).collect();
    tallies[2].add(len, || {
        let mut l1 = L1FrontEnd::new(&sim.tlb);
        records.iter().map(|r| u64::from(l1_misses(&mut l1, r))).sum::<u64>()
    });
    tallies[3].add(len, || {
        let mut sigs = SignatureBuilder::new(sig);
        let mut folded = 0u64;
        for (r, &m) in records.iter().zip(&misses) {
            for _ in 0..m.count_ones() {
                folded ^= u64::from(hash16(sigs.compose(r.pc)));
                sigs.record_access(r.pc);
            }
            if let Some(class) = r.kind.branch_class() {
                sigs.record_branch(r.pc, class);
            }
        }
        folded
    });
}

fn l1_misses(l1: &mut L1FrontEnd, r: &chirp_trace::TraceRecord) -> u8 {
    let mut m = u8::from(!l1.hit(vpn(r.pc), TranslationKind::Instruction));
    if r.kind.is_memory() && !l1.hit(vpn(r.effective_address), TranslationKind::Data) {
        m |= 2;
    }
    m
}

/// The modelled components' statistics over a workload's full result
/// set and traces: deterministic for a seed, so a change meant only to
/// speed the simulator up must leave every one identical.
pub fn model_metrics(
    out: &mut Outcome,
    sim: &SimConfig,
    lineup: &[PolicyKind],
    labels: &[String],
    results: &[Vec<RunResult>],
    traces: impl Iterator<Item = PackedTrace>,
) {
    let sig_config = group_sig_config(lineup.iter());
    let (mut l1, mut mispredicted, mut instructions) = ([0u64; 4], 0u64, 0u64);
    for trace in traces {
        let mut fe = FrontEnd::new(sim, &sig_config);
        let mut seg = chirp_sim::EventSegment::default();
        for chunk in trace.chunks(DEFAULT_STREAM_CHUNK) {
            seg.clear();
            fe.process_chunk(&chunk, &mut seg);
        }
        let (ih, im, dh, dm) = fe.l1_stats();
        for (acc, v) in l1.iter_mut().zip([ih, im, dh, dm]) {
            *acc += v;
        }
        let mut unit = BranchUnit::new(sim.branch);
        for r in trace.iter() {
            unit.observe(&r);
        }
        mispredicted += unit.stats().mispredicted;
        instructions += trace.len() as u64;
    }
    let ratio =
        |miss: u64, hit: u64| if miss + hit == 0 { 0.0 } else { miss as f64 / (miss + hit) as f64 };
    out.push("model.l1i_tlb_miss_ratio", ratio(l1[1], l1[0]), "ratio");
    out.push("model.l1d_tlb_miss_ratio", ratio(l1[3], l1[2]), "ratio");
    out.push(
        "model.branch_mpki",
        mispredicted as f64 * 1000.0 / instructions.max(1) as f64,
        "1/kinstr",
    );
    for label in labels {
        out.push(
            format!("model.l2tlb_mpki.{label}"),
            crate::batch::mean_of(results, labels, label, RunResult::mpki),
            "1/kinstr",
        );
    }
    for label in labels {
        out.push(
            format!("model.ipc.{label}"),
            crate::batch::mean_of(results, labels, label, RunResult::ipc),
            "instr/cycle",
        );
    }
    out.push(
        "model.chirp_table_access_pct",
        crate::batch::mean_of(results, labels, "chirp", RunResult::table_access_rate) * 100.0,
        "%",
    );
}
