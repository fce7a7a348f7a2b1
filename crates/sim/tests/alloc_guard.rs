//! Zero-allocation guards for the monomorphized columnar hot loop, the
//! factored back-end replay and the factored group driver.
//!
//! A counting global allocator wraps the system allocator; the test then
//! measures `Simulator::run_columnar` on a short and a long trace with the
//! same policy. Every per-run constant (the policy-name `String` in the
//! result, for instance) appears in both counts, so the counts can only
//! differ if something inside the per-instruction loop allocates — which
//! is exactly what the packed-age/flat-array rework eliminated. This file
//! is a separate integration test so the allocator swap owns its process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use chirp_core::ChirpConfig;
use chirp_sim::{run_columnar_lanes, LaneUnit, PolicyKind, SimConfig, Simulator};
use chirp_trace::suite::{build_suite, SuiteConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `ALLOCATIONS` is process-global, but libtest runs the two tests below
/// on separate threads: one test's setup allocations can land inside the
/// other's measured window and fail it spuriously. Each test holds this
/// lock for its whole body so a measured window owns the counter.
static GATE: Mutex<()> = Mutex::new(());

/// Allocation count of one `run_columnar` call, simulator construction
/// excluded.
fn allocs_for_run(policy: &PolicyKind, config: &SimConfig, instructions: usize, seed: u64) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = sim.run_columnar(&trace, config.warmup_fraction);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
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
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
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

/// Allocation count of one `run_columnar_lanes` call over all 9 policies
/// at the given trace length, unit/simulator construction excluded.
fn allocs_for_lane_run(config: &SimConfig, instructions: usize, lanes: usize) -> u64 {
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let trace = suite[0].generate_packed(instructions);
    let units: Vec<_> = lineup9()
        .iter()
        .map(|policy| {
            let sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, 7));
            LaneUnit::new(sim, &trace, config.warmup_fraction)
        })
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let results = run_columnar_lanes(units, lanes);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(results.len(), 9);
    after - before
}

/// The lane engine's interleaved loop must not allocate per instruction
/// either: its per-lane decode blocks and vpn columns are allocated once
/// per lane (covered by both counts), so a longer trace may not add
/// allocations. 9 units at width 4 exercises lane retirement and refill
/// (three waves) inside the measured window.
#[test]
fn lane_engine_does_not_allocate_per_instruction() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::default();
    let short = allocs_for_lane_run(&config, 4_000, 4);
    let long = allocs_for_lane_run(&config, 40_000, 4);
    assert_eq!(
        long, short,
        "lane engine allocates per instruction: {short} allocations over 4k instructions \
         vs {long} over 40k"
    );
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
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
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(results.len(), 9);
    after - before
}

/// The factored back-end replay must do zero per-instruction (and
/// per-event) allocations: a 10× longer event stream may not add a
/// single allocation over the short one.
#[test]
fn factored_replay_does_not_allocate_per_instruction() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let results = chirp_sim::run_policy_group(config, &kinds, suite[0].seed, &trace, true);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(results.len(), 9);
    after - before
}

/// The group driver allocates once per group, never per chunk: 400K
/// instructions (about a hundred chunks) may not add a single
/// allocation over 40K (ten).
#[test]
fn policy_group_allocates_per_group_not_per_chunk() {
    let _counter = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::default();
    let short = allocs_for_policy_group(&config, 40_000);
    let long = allocs_for_policy_group(&config, 400_000);
    assert_eq!(
        long, short,
        "run_policy_group allocates per chunk: {short} allocations over 40k instructions \
         vs {long} over 400k"
    );
}
