//! Zero-allocation guards for the monomorphized columnar hot loop, the
//! factored back-end replay and the factored group driver, with epochs
//! off and on.
//!
//! A counting global allocator wraps the system allocator; the test then
//! measures `Simulator::run_columnar` on a short and a long trace with the
//! same policy. Every per-run constant (the policy-name `String` in the
//! result, for instance) appears in both counts, so the counts can only
//! differ if something inside the per-instruction loop allocates — which
//! is exactly what the packed-age/flat-array rework eliminated. This file
//! is a separate integration test so the allocator swap owns its process.
//!
//! Allocations are counted per thread. libtest runs tests and reports
//! their results on other threads, and a process-wide count picked their
//! allocations up inside a measured window. Every measured call runs on
//! the calling thread, so a per-thread count sees all of its work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chirp_core::ChirpConfig;
use chirp_sim::{
    run_suite_telemetry, PolicyKind, RunnerConfig, SimConfig, Simulator, TelemetrySpec,
};
use chirp_telemetry::TelemetryMode;
use chirp_trace::suite::{build_suite, SuiteConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Const-initialized and without a
    /// destructor, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one `run_columnar` call, simulator construction
/// excluded.
fn allocs_for_run(policy: &PolicyKind, config: &SimConfig, instructions: usize, seed: u64) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let before = allocations();
    let result = sim.run_columnar(&trace, config.warmup_fraction);
    let after = allocations();
    assert!(result.instructions > 0 || instructions == 0);
    after - before
}

fn lineup9() -> Vec<PolicyKind> {
    let mut p = PolicyKind::paper_lineup();
    p.push(PolicyKind::Drrip);
    p.push(PolicyKind::PerceptronReuse);
    p.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    p
}

#[test]
fn hot_loop_does_not_allocate_per_instruction() {
    let config = SimConfig::default();
    for policy in &lineup9() {
        let short = allocs_for_run(policy, &config, 4_000, 7);
        let long = allocs_for_run(policy, &config, 40_000, 7);
        assert_eq!(
            long,
            short,
            "policy {} allocates per instruction: {short} allocations over 4k instructions \
             vs {long} over 40k",
            policy.name()
        );
    }
}

/// Allocation count of replaying a prebuilt one-configuration event
/// stream through all 9 policy back-ends (`Backend::replay` over both
/// segments of a `FactoredTrace`). The stream and the trace are built
/// outside the measured window; backend construction and the
/// policy-name `String`s in the results are per-run constants appearing
/// in both counts.
fn allocs_for_factored_replay(config: &SimConfig, instructions: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let policies = lineup9();
    let sig_config = chirp_sim::group_sig_config(policies.iter());
    let stream =
        chirp_sim::FactoredTrace::build(config, &trace, config.warmup_fraction, &sig_config);
    let built: Vec<_> = policies.iter().map(|p| p.build_dispatch(config.tlb.l2, 7)).collect();
    let before = allocations();
    let results: Vec<_> = built
        .into_iter()
        .map(|policy| {
            let mut backend = chirp_sim::Backend::new(config, policy, stream.sig_code);
            backend.replay(&stream.warmup);
            let window = backend.window_start();
            backend.replay(&stream.measured);
            backend.finish_result(window)
        })
        .collect();
    let after = allocations();
    assert_eq!(results.len(), 9);
    after - before
}

/// The factored back-end replay must do zero per-instruction (and
/// per-event) allocations: a 10× longer event stream may not add a
/// single allocation over the short one.
#[test]
fn factored_replay_does_not_allocate_per_instruction() {
    let config = SimConfig::default();
    let short = allocs_for_factored_replay(&config, 4_000);
    let long = allocs_for_factored_replay(&config, 40_000);
    assert_eq!(
        long, short,
        "factored replay allocates per instruction: {short} allocations over 4k instructions \
         vs {long} over 40k"
    );
}

/// Allocation count of one `run_policy_group` call over lineup9 — the
/// chunk driver end to end: policy and group construction, the front
/// end, the segment it reuses, every chunk's front-end pass and replay,
/// and the results. Only the trace is built outside the window.
fn allocs_for_policy_group(config: &SimConfig, instructions: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let policies = lineup9();
    let kinds: Vec<&PolicyKind> = policies.iter().collect();
    let before = allocations();
    let results = chirp_sim::run_policy_group(config, &kinds, suite[0].seed, &trace, true);
    let after = allocations();
    assert_eq!(results.len(), 9);
    after - before
}

/// The group driver allocates once per group, never per chunk: 400K
/// instructions (about a hundred chunks) may not add a single
/// allocation over 40K (ten).
#[test]
fn policy_group_allocates_per_group_not_per_chunk() {
    let config = SimConfig::default();
    let short = allocs_for_policy_group(&config, 40_000);
    let long = allocs_for_policy_group(&config, 400_000);
    assert_eq!(
        long, short,
        "run_policy_group allocates per chunk: {short} allocations over 40k instructions \
         vs {long} over 400k"
    );
}

/// Allocation count of one epochs-on `run_suite_telemetry` call over one
/// benchmark × lineup9 on one thread: one group through the factored
/// driver, `epochs` epoch cuts in its measured window. The scheduler runs
/// its one worker on the calling thread, so the count sees the whole run;
/// the allocations of generating the trace, which the run does inside,
/// are counted separately and taken off.
fn allocs_for_epoch_group(instructions: usize, epochs: u64) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let config = RunnerConfig { instructions, threads: 1, ..Default::default() };
    let measured = instructions - (instructions as f64 * config.sim.warmup_fraction) as usize;
    let spec =
        TelemetrySpec { mode: TelemetryMode::Epochs, epoch_instructions: measured as u64 / epochs };
    let before = allocations();
    drop(suite[0].generate_packed(instructions));
    let generation = allocations() - before;
    let before = allocations();
    let (runs, series) = run_suite_telemetry(&suite, &lineup9(), &config, &spec);
    let after = allocations();
    assert_eq!(runs.len(), 9);
    assert!(series.iter().all(|unit| unit.rows.len() as u64 == epochs));
    after - before - generation
}

/// Epoch sampling allocates per epoch, never per chunk or per record: a
/// lineup9 group over 400K instructions may not allocate more than one
/// over 40K with the same number of epochs.
#[test]
fn epoch_sampling_allocates_per_epoch_not_per_chunk() {
    let short = allocs_for_epoch_group(40_000, 4);
    let long = allocs_for_epoch_group(400_000, 4);
    assert_eq!(
        long, short,
        "epoch sampling allocates per chunk: {short} allocations over 40k instructions \
         vs {long} over 400k, 4 epochs each"
    );
}
