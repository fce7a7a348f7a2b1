//! Single-thread simulation throughput: the monomorphized columnar hot
//! loop (`Simulator::with_policy` over `PolicyDispatch` +
//! `run_columnar`), the multi-lane software-pipelined engine
//! (`run_columnar_lanes`) at lane widths 2/4/8, and the factored engine
//! (one shared front-end pass + 9 replay back-ends per benchmark, timed
//! through the production entry `run_policy_group`), per policy and over
//! the whole (benchmark × policy) matrix, in instructions per second.
//!
//! Besides the Criterion lines, appends one JSON object to
//! `BENCH_runner.json` at the workspace root (override with
//! `CHIRP_BENCH_OUT`) carrying `instr_per_sec_1t` — the lanes=1
//! sequential baseline — plus `instr_per_sec_1t_lanes{2,4,8}`, the
//! derived `best_lanes`/`lane_speedup`, and the factored trio
//! `instr_per_sec_1t_factored` / `frontend_events_per_instr` /
//! `factored_speedup` (factored over sequential at lineup width 9).
//! `scripts/bench.sh` compares the best-lane and factored numbers
//! against the previous line and warns on >10% regressions, and checks
//! the `factored_speedup >= 3.0` acceptance floor.
//!
//! Each headline number is the best of `CHIRP_BENCH_REPS` sweeps
//! (default 3) and the line records the reps used. Best-of-N is the
//! noise protocol: a genuine code regression slows every sweep, while a
//! noisy-host slide (CPU contention in a shared container) leaves at
//! least one clean sweep at higher N — raise the env var before trusting
//! a drop. The committed trajectory's 25.3M -> 15.4M instr/s slide is of
//! the second kind: it spans entries with no simulator-code changes and
//! tracks host load (see EXPERIMENTS.md "Throughput trajectory noise").

use chirp_bench::{lineup9, policy_label};
use chirp_sim::{
    group_sig_configs, run_columnar_lanes, run_policy_group, EventSegment, FrontEnd, LaneUnit,
    PolicyKind, SimConfig, Simulator, StreamLayout,
};
use chirp_tlb::{ReplayHints, TlbReplacementPolicy};
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};
use chirp_trace::PackedTrace;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::path::PathBuf;
use std::time::Instant;

const BENCHMARKS: usize = 4;
const INSTRUCTIONS: usize = 60_000;
/// Lane widths swept for the trajectory file, lanes=1 first.
const LANES: [usize; 4] = [1, 2, 4, 8];

fn run_columnar(config: &SimConfig, policy: &PolicyKind, trace: &PackedTrace, seed: u64) -> u64 {
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    sim.run_columnar(trace, config.warmup_fraction).instructions
}

/// The whole matrix as lane units, in suite × policy order.
fn matrix_units<'t>(
    suite: &'t [(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
) -> Vec<LaneUnit<'t, chirp_sim::PolicyDispatch>> {
    let mut units = Vec::with_capacity(suite.len() * policies.len());
    for (bench, trace) in suite {
        for policy in policies {
            units.push(LaneUnit::new(
                Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, bench.seed)),
                trace,
                config.warmup_fraction,
            ));
        }
    }
    units
}

/// Instructions per second over the whole (benchmark × policy) matrix at
/// the given lane width, best of `reps` sweeps so a scheduler hiccup
/// cannot sink the number. `lanes == 1` measures the sequential
/// `run_columnar` baseline path itself, not the lane engine at width 1.
fn matrix_instr_per_sec(
    suite: &[(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
    lanes: usize,
    reps: usize,
) -> f64 {
    let total: u64 = (suite.len() * policies.len()) as u64 * INSTRUCTIONS as u64;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        if lanes == 1 {
            for (bench, trace) in suite {
                for policy in policies {
                    run_columnar(config, policy, trace, bench.seed);
                }
            }
        } else {
            run_columnar_lanes(matrix_units(suite, policies, config), lanes);
        }
        best = best.max(total as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Instructions per second over the whole matrix through the factored
/// engine: per benchmark, ONE front-end pass over the trace and one tiny
/// replay back-end per policy (`run_policy_group` at lineup width 9, the
/// path suite runs and `chirp-serve` take).
/// Best of `reps` sweeps, like [`matrix_instr_per_sec`]. The instruction
/// denominator is the same matrix total, so the ratio to the sequential
/// baseline is the lineup-level speedup of sharing the front end.
fn matrix_instr_per_sec_factored(
    suite: &[(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
    reps: usize,
) -> f64 {
    let total: u64 = (suite.len() * policies.len()) as u64 * INSTRUCTIONS as u64;
    let kinds: Vec<&PolicyKind> = policies.iter().collect();
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (bench, trace) in suite {
            run_policy_group(config, &kinds, bench.seed, trace, true);
        }
        best = best.max(total as f64 / t0.elapsed().as_secs_f64().max(1e-9));
    }
    best
}

/// Compactness of the lineup's front-end event stream: L2-TLB access +
/// control events emitted per instruction under the layout
/// `run_policy_group` builds for `policies`, averaged over the suite.
/// This is the number that makes the factored speedup legible — each
/// back-end replays only this fraction of the work.
fn frontend_events_per_instr(
    suite: &[(BenchmarkSpec, PackedTrace)],
    policies: &[PolicyKind],
    config: &SimConfig,
) -> f64 {
    let hints: Vec<ReplayHints> =
        policies.iter().map(|p| p.build_dispatch(config.tlb.l2, 0).replay_hints()).collect();
    let layout = StreamLayout::for_group(&group_sig_configs(policies), &hints);
    let mut events = 0usize;
    let mut instructions = 0u64;
    for (_, trace) in suite {
        let mut fe = FrontEnd::with_layout(config, &layout);
        let mut seg = EventSegment::default();
        for chunk in trace.chunks(4096) {
            seg.clear();
            fe.process_chunk(&chunk, &mut seg);
            events += seg.access_events() + seg.control_events();
            instructions += seg.instructions();
        }
    }
    events as f64 / (instructions as f64).max(1.0)
}

fn bench_sim_throughput(c: &mut Criterion) {
    let config = SimConfig::default();
    let policies = lineup9();
    let suite: Vec<(BenchmarkSpec, PackedTrace)> =
        build_suite(&SuiteConfig { benchmarks: BENCHMARKS })
            .into_iter()
            .map(|b| {
                let trace = b.generate_packed(INSTRUCTIONS);
                (b, trace)
            })
            .collect();

    // Per-policy Criterion lines on the first benchmark's trace: the
    // sequential columnar path and a 4-lane interleave of four identical
    // units (per-lane throughput, so the speedup reads directly).
    let (bench0, trace0) = &suite[0];
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trace0.len() as u64));
    for policy in &policies {
        let label = policy_label(policy);
        group.bench_function(&format!("columnar/{label}"), |b| {
            b.iter_batched(
                || {
                    Simulator::with_policy(
                        &config,
                        policy.build_dispatch(config.tlb.l2, bench0.seed),
                    )
                },
                |mut sim| sim.run_columnar(trace0, config.warmup_fraction),
                BatchSize::LargeInput,
            );
        });
        group.bench_function(&format!("lanes4/{label}"), |b| {
            b.iter_batched(
                || {
                    (0..4)
                        .map(|_| {
                            LaneUnit::new(
                                Simulator::with_policy(
                                    &config,
                                    policy.build_dispatch(config.tlb.l2, bench0.seed),
                                ),
                                trace0,
                                config.warmup_fraction,
                            )
                        })
                        .collect::<Vec<_>>()
                },
                |units| run_columnar_lanes(units, 4),
                BatchSize::LargeInput,
            );
        });
    }
    // The whole 9-policy lineup as one factored group on the same trace:
    // throughput is per trace pass, so compare against 9× a columnar line.
    let kinds: Vec<&PolicyKind> = policies.iter().collect();
    group.bench_function("factored9/lineup", |b| {
        b.iter(|| run_policy_group(&config, &kinds, bench0.seed, trace0, true));
    });
    group.finish();

    // Headline numbers for the trajectory file: whole-matrix throughput
    // across the lane sweep, best of CHIRP_BENCH_REPS sweeps each.
    let reps = std::env::var("CHIRP_BENCH_REPS")
        .ok()
        .and_then(|v| v.replace('_', "").parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    let sweep: Vec<f64> =
        LANES.iter().map(|&l| matrix_instr_per_sec(&suite, &policies, &config, l, reps)).collect();
    let (best_idx, best) =
        sweep.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty sweep");
    let lane_speedup = best / sweep[0].max(1e-9);
    let factored = matrix_instr_per_sec_factored(&suite, &policies, &config, reps);
    let factored_speedup = factored / sweep[0].max(1e-9);
    let events_per_instr = frontend_events_per_instr(&suite, &policies, &config);
    for (&lanes, ips) in LANES.iter().zip(&sweep) {
        println!("sim_throughput: lanes={lanes} {ips:.0} instr/s");
    }
    println!(
        "sim_throughput: best lanes={} ({best:.0} instr/s, {lane_speedup:.2}x over sequential, \
         best of {reps} reps)",
        LANES[best_idx]
    );
    println!(
        "sim_throughput: factored {factored:.0} instr/s ({factored_speedup:.2}x over sequential \
         at lineup width 9, {events_per_instr:.3} front-end events/instr, best of {reps} reps)"
    );
    write_trajectory(&sweep, LANES[best_idx], lane_speedup, reps, factored, events_per_instr);
}

fn write_trajectory(
    sweep: &[f64],
    best_lanes: usize,
    lane_speedup: f64,
    reps: usize,
    factored: f64,
    events_per_instr: f64,
) {
    let factored_speedup = factored / sweep[0].max(1e-9);
    let line = format!(
        "{{\"bench\":\"sim_throughput\",\"benchmarks\":{BENCHMARKS},\"policies\":9,\
         \"instructions\":{INSTRUCTIONS},\"reps\":{reps},\"instr_per_sec_1t\":{:.0},\
         \"instr_per_sec_1t_lanes2\":{:.0},\"instr_per_sec_1t_lanes4\":{:.0},\
         \"instr_per_sec_1t_lanes8\":{:.0},\"best_lanes\":{best_lanes},\
         \"lane_speedup\":{lane_speedup:.3},\"instr_per_sec_1t_factored\":{factored:.0},\
         \"frontend_events_per_instr\":{events_per_instr:.4},\
         \"factored_speedup\":{factored_speedup:.3}}}",
        sweep[0], sweep[1], sweep[2], sweep[3]
    );
    let path = std::env::var_os("CHIRP_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|| {
        // crates/bench/Cargo.toml -> workspace root is two levels up.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_runner.json")
    });
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open BENCH_runner.json");
    writeln!(f, "{line}").expect("append BENCH_runner.json");
    println!("appended sim_throughput trajectory to {}", path.display());
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
