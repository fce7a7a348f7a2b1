//! The equivalence gates for the fast execution paths.
//!
//! Two layers, all pinning bit-identical `RunResult`s (which embed the
//! measured `TlbStats`), L2 totals and CHiRP's internal counters and
//! table:
//!
//! 1. **Oracle layer**: the columnar hot loop (`Simulator::run_columnar`,
//!    the path every single-policy group takes) must reproduce the
//!    per-record oracle (`Simulator::run` over the flat trace, same
//!    `PolicyDispatch`) for every in-tree policy on suite benchmarks, at
//!    warmup fractions that cut mid-chunk, on the empty trace and under
//!    random warmup cuts and lengths. Single-policy groups, materialized
//!    and streamed, and CHiRP's state after a streamed run must equal the
//!    oracle too. The streamed single-simulator path
//!    (`Simulator::run_stream`) must equal `run_columnar` at any chunk
//!    size.
//! 2. **Factored matrix**: the shared front-end + per-policy replay
//!    back-ends ([`chirp_sim::run_factored_group`], materialized and
//!    streamed) must reproduce the `run_columnar` of every unit, across
//!    warmup cuts, chunk sizes, signature-config mismatches and
//!    wrong-path-pollution configurations — plus the policy-invariance
//!    gate: the front-end event stream is byte-identical no matter which
//!    policy (if any) consumes it. The group-aware layer runs lineup9
//!    through the production entries (`run_policy_group`,
//!    `run_stream_policy_group`), pins that the lineup's front end emits
//!    no control events, that a group holding a conservative-hint policy
//!    still replays exactly, and that history policies fed
//!    `supply_history` decide exactly as when fed `on_branch`.

use chirp_core::{Chirp, ChirpConfig, PredictionTable};
use chirp_sim::{
    EventSegment, FrontEnd, PolicyKind, RunResult, SimConfig, Simulator, StreamLayout,
};
use chirp_tlb::policies::{Ghrp, GhrpConfig, PerceptronConfig, PerceptronReuse};
use chirp_tlb::{
    L2Tlb, PolicyStorage, ReplayHints, TlbAccess, TlbGeometry, TlbReplacementPolicy, TlbStats,
    TranslationKind,
};
use chirp_trace::suite::{build_suite, SuiteConfig};
use chirp_trace::{BranchClass, PackedTrace, TraceRecord};
use proptest::prelude::*;

const INSTRUCTIONS: usize = 30_000;
const BENCHMARKS: usize = 4;

/// The 9-policy lineup: the paper's six plus the three extension
/// baselines (DRRIP, perceptron reuse, short-history CHiRP).
fn lineup9() -> Vec<PolicyKind> {
    let mut policies = PolicyKind::paper_lineup();
    policies.push(PolicyKind::Drrip);
    policies.push(PolicyKind::PerceptronReuse);
    policies.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
    policies
}

#[derive(PartialEq, Debug)]
struct PathOutcome {
    result: RunResult,
    stats_total: TlbStats,
    /// CHiRP's counters and whole prediction table: every counter it
    /// trained sits at an index derived from a signature, so any signature
    /// that differs anywhere in the run shows up here.
    chirp: Option<(chirp_core::policy::ChirpCounters, PredictionTable)>,
}

fn l2_outcome<P: TlbReplacementPolicy>(result: RunResult, l2: &L2Tlb<P>) -> PathOutcome {
    let chirp = l2
        .policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<Chirp>())
        .map(|c| (c.counters(), c.table().clone()));
    PathOutcome { result, stats_total: l2.stats(), chirp }
}

fn outcome_of(sim: Simulator<chirp_sim::PolicyDispatch>, result: RunResult) -> PathOutcome {
    l2_outcome(result, sim.tlbs().l2())
}

fn columnar_path(
    policy: &PolicyKind,
    config: &SimConfig,
    trace: &PackedTrace,
    seed: u64,
) -> PathOutcome {
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let result = sim.run_columnar(trace, config.warmup_fraction);
    outcome_of(sim, result)
}

/// The per-record oracle: `Simulator::run` over the flat trace.
fn oracle_path(
    policy: &PolicyKind,
    config: &SimConfig,
    trace: &[TraceRecord],
    seed: u64,
) -> PathOutcome {
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, seed));
    let result = sim.run(trace, config.warmup_fraction);
    outcome_of(sim, result)
}

/// The oracle gate: every lineup9 policy on every suite benchmark, at
/// warmup 0, a mid-chunk cut, one half and 1.0: `run_columnar` over the
/// packed trace must be bit-identical to the per-record oracle over the
/// flat trace — run totals, L2 stats and CHiRP's counters and table.
#[test]
fn oracle_columnar_matches_per_record_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();
    assert_eq!(policies.len(), 9);

    for bench in &suite {
        let flat = bench.generate(INSTRUCTIONS);
        let packed = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.0, 0.1337, 0.5, 1.0] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            for policy in &policies {
                let want = oracle_path(policy, &config, &flat, bench.seed);
                let got = columnar_path(policy, &config, &packed, bench.seed);
                assert_eq!(
                    got,
                    want,
                    "run_columnar diverged from the oracle: {} on {} at warmup {warmup}",
                    policy.name(),
                    bench.name
                );
                if matches!(policy, PolicyKind::Chirp(_)) {
                    assert!(got.chirp.is_some(), "CHiRP counters must be reachable");
                }
            }
        }
    }
}

/// The empty trace: both paths measure nothing, agree on every field and
/// do not panic, whatever the warmup fraction.
#[test]
fn oracle_columnar_handles_empty_trace() {
    let empty = PackedTrace::from_records(&[]);
    for warmup in [0.0, 0.5, 1.0] {
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        for policy in &lineup9() {
            let got = columnar_path(policy, &config, &empty, 0);
            assert_eq!(got, oracle_path(policy, &config, &[], 0), "{}", policy.name());
            assert_eq!(got.result.instructions, 0, "empty trace must measure zero instructions");
        }
    }
}

/// Single-policy groups, which the lane engine ran at width 1 before it
/// was deleted and which now run `run_columnar` (materialized) or
/// `run_stream` (streamed): every lineup9 policy on every suite benchmark,
/// as a group of one through `run_policy_group` and
/// `run_stream_policy_group`, must equal the per-record oracle. The name
/// is the lane-engine gate's, since this test takes over its role.
#[test]
fn lane_engine_matches_sequential_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();
    for bench in &suite {
        let flat = bench.generate(INSTRUCTIONS);
        let packed = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.0, 0.1337] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            for policy in &policies {
                let want = oracle_path(policy, &config, &flat, bench.seed).result;
                let label = format!("{} on {} at warmup {warmup}", policy.name(), bench.name);
                let got =
                    chirp_sim::run_policy_group(&config, &[policy], bench.seed, &packed, true);
                assert_eq!(got, vec![want.clone()], "single-policy group diverged: {label}");
                let mut stream = bench.stream(INSTRUCTIONS, 977);
                let got =
                    chirp_sim::run_stream_policy_group(&config, &[policy], bench.seed, &mut stream)
                        .expect("generator stream");
                assert_eq!(got, vec![want], "streamed single-policy group diverged: {label}");
            }
        }
    }
}

/// Policy state must match too, not just the run totals: CHiRP's counters,
/// prediction table and L2 stats after a single-simulator streamed run
/// (`Simulator::run_stream`, the streamed single-policy path) agree with
/// the per-record oracle's.
#[test]
fn lane_engine_preserves_policy_state() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let config = SimConfig::default();
    let policy = PolicyKind::Chirp(ChirpConfig::default());
    for bench in &suite {
        let mut sim =
            Simulator::with_policy(&config, policy.build_dispatch(config.tlb.l2, bench.seed));
        let mut stream = bench.stream(INSTRUCTIONS, 4_096);
        let result = sim.run_stream(&mut stream, config.warmup_fraction).expect("generator stream");
        let got = outcome_of(sim, result);
        let want = oracle_path(&policy, &config, &bench.generate(INSTRUCTIONS), bench.seed);
        assert_eq!(got, want, "policy state diverged on {}", bench.name);
        assert!(got.chirp.is_some(), "CHiRP counters must be reachable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random warmup fractions (cutting mid-chunk at arbitrary record
    /// indices) and random trace lengths straddling the 4096-record chunk
    /// size: `run_columnar` stays bit-identical to the per-record oracle
    /// for every lineup9 policy.
    #[test]
    fn oracle_columnar_matches_per_record_under_random_warmup_cuts(
        warmup_pm in 0u32..1001,
        len in 1usize..9_000,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        let flat = bench.generate(len);
        let packed = bench.generate_packed(len);
        for policy in &lineup9() {
            let want = oracle_path(policy, &config, &flat, bench.seed);
            let got = columnar_path(policy, &config, &packed, bench.seed);
            prop_assert_eq!(
                got, want,
                "policy={} len={} warmup={}", policy.name(), len, warmup
            );
        }
    }
}

/// One streamed unit: fresh simulator fed from a generator stream with
/// the given chunk size, compared field-for-field (including policy
/// state) against the sequential columnar run of the materialized trace.
fn streamed_path(
    policy: &PolicyKind,
    config: &SimConfig,
    bench: &chirp_trace::suite::BenchmarkSpec,
    len: usize,
    chunk: usize,
) -> PathOutcome {
    let mut stream = bench.stream(len, chunk);
    let mut sim = Simulator::with_policy(config, policy.build_dispatch(config.tlb.l2, bench.seed));
    let result = sim.run_stream(&mut stream, config.warmup_fraction).expect("generator stream");
    outcome_of(sim, result)
}

/// The streaming gate: every policy in the lineup, fed the suite
/// benchmarks through bounded generator streams, must be bit-identical —
/// run totals, L2 stats and CHiRP internal counters — to the sequential
/// columnar run over the materialized trace. Chunk sizes cover the
/// 1-record degenerate case, sizes that do not divide the trace length,
/// and a chunk larger than the whole trace (single-batch stream).
#[test]
fn streamed_matches_materialized_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let config = SimConfig::default();
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for policy in &policies {
            let want = columnar_path(policy, &config, &trace, bench.seed);
            for chunk in [977, 4_096, INSTRUCTIONS + 1] {
                let got = streamed_path(policy, &config, bench, INSTRUCTIONS, chunk);
                assert_eq!(
                    got,
                    want,
                    "streamed diverged: {} on {} at chunk {chunk}",
                    policy.name(),
                    bench.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random chunk sizes (from the 1-record degenerate case up through
    /// sizes that do not divide the trace), random trace lengths and
    /// random warmup fractions whose cut lands mid-chunk and mid-batch:
    /// the streamed run stays bit-identical to the materialized columnar
    /// run for every policy in the lineup.
    #[test]
    fn streamed_matches_materialized_under_random_chunks_and_warmup(
        warmup_pm in 0u32..1001,
        chunk in 1usize..9_000,
        len in 1usize..9_000,
        policy_ix in 0usize..9,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        let policy = &lineup9()[policy_ix];
        let trace = bench.generate_packed(len);
        let want = columnar_path(policy, &config, &trace, bench.seed);
        let got = streamed_path(policy, &config, bench, len, chunk);
        prop_assert_eq!(
            got, want,
            "policy={} len={} chunk={} warmup={}", policy.name(), len, chunk, warmup
        );
    }
}

/// One factored group: shared front end + per-policy replay back-ends
/// over a materialized trace, each unit's outcome (result, L2 totals,
/// CHiRP counters) in input order. The front end records a signature
/// column for each of `sig_configs`.
fn factored_group_path_with(
    policies: &[PolicyKind],
    config: &SimConfig,
    trace: &PackedTrace,
    seed: u64,
    sig_configs: &[ChirpConfig],
) -> Vec<PathOutcome> {
    let built: Vec<chirp_sim::PolicyDispatch> =
        policies.iter().map(|p| p.build_dispatch(config.tlb.l2, seed)).collect();
    chirp_sim::run_factored_group(config, trace, config.warmup_fraction, sig_configs, built)
        .into_iter()
        .map(|(result, backend)| backend_outcome(result, &backend))
        .collect()
}

/// [`factored_group_path_with`] under the group's own signature columns,
/// as `run_policy_group` builds them.
fn factored_group_path(
    policies: &[PolicyKind],
    config: &SimConfig,
    trace: &PackedTrace,
    seed: u64,
) -> Vec<PathOutcome> {
    let sig_configs = chirp_sim::group_sig_configs(policies.iter());
    factored_group_path_with(policies, config, trace, seed, &sig_configs)
}

fn backend_outcome<P: TlbReplacementPolicy>(
    result: RunResult,
    backend: &chirp_sim::Backend<P>,
) -> PathOutcome {
    l2_outcome(result, backend.l2())
}

/// The factored gate: the whole 9-policy lineup as one group (one front
/// end, nine back-ends) on every suite benchmark, at warmup extremes and
/// a mid-chunk cut, must be bit-identical per unit to its sequential
/// `run_columnar` — run totals, L2 stats and CHiRP internal counters.
#[test]
fn factored_engine_matches_sequential_for_every_policy_and_benchmark() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.0, 0.1337, 0.5, 1.0] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            let got = factored_group_path(&policies, &config, &trace, bench.seed);
            for (policy, outcome) in policies.iter().zip(got) {
                let want = columnar_path(policy, &config, &trace, bench.seed);
                assert_eq!(
                    outcome,
                    want,
                    "factored diverged: {} on {} at warmup {warmup}",
                    policy.name(),
                    bench.name
                );
                if matches!(policy, PolicyKind::Chirp(_)) {
                    assert!(outcome.chirp.is_some(), "CHiRP counters must be reachable");
                }
            }
        }
    }
}

/// Signature-config corner cases: a group whose stream is computed under
/// a wrong-path-pollution configuration (front end must fold the pseudo
/// wrong-path events) next to a second CHiRP configuration, plus
/// history-column policies and policies needing nothing. Each group runs
/// twice: with a signature column per configuration, and with only the
/// first configuration's column, so a CHiRP whose code has no column
/// must fall back to its local registers over the control events.
#[test]
fn factored_engine_handles_pollution_and_mismatched_signature_configs() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let config = SimConfig::default();
    let polluted = ChirpConfig { wrong_path_pollution: 3, ..ChirpConfig::default() };
    let groups: Vec<Vec<PolicyKind>> = vec![
        // Polluted CHiRP first: the single-column stream carries
        // polluted signatures; the default-config CHiRP must then
        // reject them and self-compute.
        vec![
            PolicyKind::Chirp(polluted),
            PolicyKind::Chirp(ChirpConfig::default()),
            PolicyKind::Ghrp,
            PolicyKind::Lru,
        ],
        // No CHiRP at all: the group layout has no signature column; the
        // single-column stream computes default-config signatures that
        // nobody consumes.
        vec![PolicyKind::Ghrp, PolicyKind::PerceptronReuse, PolicyKind::Srrip],
        // Only the short-history CHiRP: its own config drives the stream.
        vec![
            PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }),
            PolicyKind::Random,
        ],
    ];
    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for group in &groups {
            let columns = [
                chirp_sim::group_sig_configs(group.iter()),
                vec![chirp_sim::group_sig_config(group.iter())],
            ];
            for sig_configs in &columns {
                let got = factored_group_path_with(group, &config, &trace, bench.seed, sig_configs);
                for (policy, outcome) in group.iter().zip(got) {
                    let want = columnar_path(policy, &config, &trace, bench.seed);
                    assert_eq!(
                        outcome,
                        want,
                        "factored diverged: {} on {} in group {:?} with {} signature columns",
                        policy.name(),
                        bench.name,
                        group.iter().map(PolicyKind::name).collect::<Vec<_>>(),
                        sig_configs.len()
                    );
                }
            }
        }
    }
}

/// An empty trace and a single-policy group must pass through the
/// factored engine without panicking or diverging.
#[test]
fn factored_engine_handles_empty_and_degenerate_groups() {
    let config = SimConfig::default();
    let empty = PackedTrace::from_records(&[]);
    let got = factored_group_path(&lineup9(), &config, &empty, 0);
    for outcome in &got {
        assert_eq!(outcome.result.instructions, 0, "empty trace must measure zero instructions");
    }
    let suite = build_suite(&SuiteConfig { benchmarks: 1 });
    let bench = &suite[0];
    let trace = bench.generate_packed(10_000);
    let solo = [PolicyKind::Chirp(ChirpConfig::default())];
    let got = factored_group_path(&solo, &config, &trace, bench.seed);
    assert_eq!(got[0], columnar_path(&solo[0], &config, &trace, bench.seed));
}

/// The streamed factored gate: the lineup through
/// [`chirp_sim::run_stream_factored`] over generator streams must equal
/// each policy's sequential columnar run of the materialized trace, at
/// chunk sizes that do not divide the trace, the chunk boundary itself
/// and a single-batch stream.
#[test]
fn factored_stream_matches_materialized_for_every_policy() {
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let config = SimConfig::default();
    let policies = lineup9();

    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        let wants: Vec<PathOutcome> =
            policies.iter().map(|p| columnar_path(p, &config, &trace, bench.seed)).collect();
        for chunk in [977, 4_096, INSTRUCTIONS + 1] {
            let sig_configs = chirp_sim::group_sig_configs(policies.iter());
            let built: Vec<chirp_sim::PolicyDispatch> =
                policies.iter().map(|p| p.build_dispatch(config.tlb.l2, bench.seed)).collect();
            let mut stream = bench.stream(INSTRUCTIONS, chunk);
            let got = chirp_sim::run_stream_factored(
                &config,
                &sig_configs,
                built,
                &mut stream,
                config.warmup_fraction,
            )
            .expect("generator stream");
            for ((policy, want), (result, backend)) in policies.iter().zip(&wants).zip(got) {
                let outcome = backend_outcome(result, &backend);
                assert_eq!(
                    &outcome,
                    want,
                    "factored stream diverged: {} on {} at chunk {chunk}",
                    policy.name(),
                    bench.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random warmup fractions (cutting mid-chunk and mid-burst) and
    /// random trace lengths straddling the 4096-record chunk size: the
    /// factored group stays bit-identical per unit to its sequential run.
    #[test]
    fn factored_engine_matches_sequential_under_random_warmup_cuts(
        warmup_pm in 0u32..1001,
        len in 1usize..9_000,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        let policies = lineup9();
        let trace = bench.generate_packed(len);
        let got = factored_group_path(&policies, &config, &trace, bench.seed);
        for (policy, outcome) in policies.iter().zip(got) {
            let want = columnar_path(policy, &config, &trace, bench.seed);
            prop_assert_eq!(
                &outcome, &want,
                "policy={} len={} warmup={}", policy.name(), len, warmup
            );
        }
    }

    /// The policy-invariance gate (the cut line's defining property): the
    /// front-end event stream serializes to the same bytes no matter
    /// which policy — or none at all — later consumes it, and rebuilding
    /// it is deterministic. Streams under different signature configs
    /// agree on everything except the signature values: same event
    /// counts, same instructions.
    #[test]
    fn frontend_event_stream_is_byte_identical_regardless_of_policy(
        warmup_pm in 0u32..1001,
        len in 1usize..9_000,
    ) {
        let warmup = f64::from(warmup_pm) / 1000.0;
        let suite = build_suite(&SuiteConfig { benchmarks: 1 });
        let bench = &suite[0];
        let config = SimConfig::default();
        let sig_config = ChirpConfig::default();
        let trace = bench.generate_packed(len);

        let stream = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
        let bytes = stream.wire_bytes();

        // Replay through every policy in the lineup (and through nobody),
        // rebuilding the stream after each: the bytes never change.
        for policy in &lineup9() {
            let built = policy.build_dispatch(config.tlb.l2, bench.seed);
            let mut backend = chirp_sim::Backend::new(&config, built, stream.sig_code);
            backend.replay(&stream.warmup);
            backend.replay(&stream.measured);
            let rebuilt = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
            prop_assert_eq!(
                rebuilt.wire_bytes(), bytes.clone(),
                "front-end stream depends on {} being attached", policy.name()
            );
        }
        let unconsumed = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &sig_config);
        prop_assert_eq!(unconsumed.wire_bytes(), bytes.clone());

        // A different signature config changes signature values only:
        // the invariant skeleton (event counts, instructions) is fixed.
        let other = ChirpConfig { path_length: 8, use_cond: false, ..ChirpConfig::default() };
        let reconfigured = chirp_sim::FactoredTrace::build(&config, &trace, warmup, &other);
        prop_assert_eq!(reconfigured.access_events(), stream.access_events());
        prop_assert_eq!(reconfigured.control_events(), stream.control_events());
        prop_assert_eq!(reconfigured.instructions(), stream.instructions());
    }
}

/// A test-only policy that forwards every callback to the wrapped policy
/// but keeps the trait's conservative default [`ReplayHints`]: it names
/// no column, so a group containing it makes the front end emit control
/// events and its back-end walks them.
struct Conservative<P>(P);

impl<P: TlbReplacementPolicy> TlbReplacementPolicy for Conservative<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        self.0.choose_victim(acc)
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        self.0.on_hit(acc, way)
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        self.0.on_fill(acc, way)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        self.0.on_evict(set, way)
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        self.0.on_branch(pc, class, taken)
    }

    fn on_mispredict(&mut self, pc: u64) {
        self.0.on_mispredict(pc)
    }

    fn prediction_table_accesses(&self) -> u64 {
        self.0.prediction_table_accesses()
    }

    fn dead_eviction_count(&self) -> u64 {
        self.0.dead_eviction_count()
    }

    fn storage(&self) -> PolicyStorage {
        self.0.storage()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.0.as_any()
    }
}

/// The group-aware production path: lineup9 through `run_policy_group`
/// and through the streamed runner's `run_stream_policy_group`, on every
/// suite benchmark, at warmup 0, a mid-chunk cut and warmup 1.0, and at
/// stream chunk sizes that do not divide the trace, the front-end chunk
/// itself and a single-batch stream: every policy's result is
/// bit-identical to its sequential `run_columnar`.
#[test]
fn group_runner_paths_match_columnar_for_lineup9() {
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    let policies = lineup9();
    let kinds: Vec<&PolicyKind> = policies.iter().collect();
    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        for warmup in [0.0, 0.1337, 1.0] {
            let config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
            let wants: Vec<RunResult> = policies
                .iter()
                .map(|p| columnar_path(p, &config, &trace, bench.seed).result)
                .collect();
            let got = chirp_sim::run_policy_group(&config, &kinds, bench.seed, &trace, true);
            assert_eq!(
                got, wants,
                "run_policy_group diverged on {} at warmup {warmup}",
                bench.name
            );
            for chunk in [977, 4_096, INSTRUCTIONS + 1] {
                let mut stream = bench.stream(INSTRUCTIONS, chunk);
                let got =
                    chirp_sim::run_stream_policy_group(&config, &kinds, bench.seed, &mut stream)
                        .expect("generator stream");
                assert_eq!(
                    got, wants,
                    "streamed group diverged on {} at warmup {warmup}, chunk {chunk}",
                    bench.name
                );
            }
        }
    }
}

/// The lineup's group layout reads every control-flow history from
/// columns, so its front end emits access events and no control events;
/// the one-configuration front end over the same trace still emits them.
#[test]
fn lineup9_front_end_emits_no_control_events() {
    let config = SimConfig::default();
    let policies = lineup9();
    let hints: Vec<ReplayHints> =
        policies.iter().map(|p| p.build_dispatch(config.tlb.l2, 0).replay_hints()).collect();
    let layout = StreamLayout::for_group(&chirp_sim::group_sig_configs(policies.iter()), &hints);
    assert!(!layout.emits_control(), "no lineup9 policy keeps the conservative hints");
    let suite = build_suite(&SuiteConfig { benchmarks: BENCHMARKS });
    for bench in &suite {
        let trace = bench.generate_packed(INSTRUCTIONS);
        let mut group = FrontEnd::with_layout(&config, &layout);
        let mut single = FrontEnd::new(&config, &chirp_sim::group_sig_config(policies.iter()));
        let (mut access, mut control, mut single_control) = (0, 0, 0);
        for chunk in trace.chunks(4_096) {
            let mut seg = EventSegment::default();
            group.process_chunk(&chunk, &mut seg);
            access += seg.access_events();
            control += seg.control_events();
            seg.clear();
            single.process_chunk(&chunk, &mut seg);
            single_control += seg.control_events();
        }
        assert!(access > 0, "{} reaches the L2 TLB", bench.name);
        assert_eq!(control, 0, "lineup9 front end emitted control events on {}", bench.name);
        assert!(single_control > 0, "one-config front end must keep control events");
    }
}

/// Small tables and low dead thresholds: GHRP's and perceptron reuse's
/// predictions then flip with any change to the history word they read.
fn sensitive_history_policy(ghrp: bool, geometry: TlbGeometry) -> Box<dyn TlbReplacementPolicy> {
    if ghrp {
        Box::new(Ghrp::new(geometry, GhrpConfig { table_bits: 6, dead_threshold: 1 }))
    } else {
        let config = PerceptronConfig { table_bits: 6, theta: 14, dead_threshold: 0 };
        Box::new(PerceptronReuse::new(geometry, config))
    }
}

/// A group holding policies that keep the conservative default hints
/// (GHRP, CHiRP and history-sensitive GHRP/perceptron variants) next to
/// column readers, including the same variants unwrapped: its layout
/// emits control events, the conservative back-ends walk them, and every
/// unit still replays bit-identically to `run_columnar` of the same
/// policy. A 64-entry L2 keeps sets full, so victim choice (and with it
/// every dead prediction) decides hits.
#[test]
fn group_with_conservative_policy_replays_exactly() {
    type Factory = Box<dyn Fn(&SimConfig, u64) -> Box<dyn TlbReplacementPolicy>>;
    let suite = build_suite(&SuiteConfig { benchmarks: 2 });
    let mut members: Vec<(String, Factory)> = Vec::new();
    for kind in lineup9() {
        let wrap = kind == PolicyKind::Ghrp || kind == PolicyKind::Chirp(ChirpConfig::default());
        let label = format!("{kind:?}{}", if wrap { " (conservative)" } else { "" });
        members.push((
            label,
            Box::new(move |config, seed| {
                let policy = kind.build_dispatch(config.tlb.l2, seed);
                if wrap {
                    Box::new(Conservative(policy))
                } else {
                    Box::new(policy)
                }
            }),
        ));
    }
    for ghrp in [true, false] {
        members.push((
            format!("sensitive ghrp={ghrp}"),
            Box::new(move |config, _| sensitive_history_policy(ghrp, config.tlb.l2)),
        ));
        members.push((
            format!("sensitive ghrp={ghrp} (conservative)"),
            Box::new(move |config, _| {
                let inner = sensitive_history_policy(ghrp, config.tlb.l2);
                Box::new(Conservative(inner))
            }),
        ));
    }
    let sig_configs = chirp_sim::group_sig_configs(lineup9().iter());
    for warmup in [0.0, 0.1337] {
        let mut config = SimConfig { warmup_fraction: warmup, ..SimConfig::default() };
        config.tlb.l2 = TlbGeometry { entries: 64, ways: 4 };
        for bench in &suite {
            let trace = bench.generate_packed(INSTRUCTIONS);
            let built: Vec<Box<dyn TlbReplacementPolicy>> =
                members.iter().map(|(_, make)| make(&config, bench.seed)).collect();
            let hints: Vec<ReplayHints> = built.iter().map(|p| p.replay_hints()).collect();
            assert!(StreamLayout::for_group(&sig_configs, &hints).emits_control());
            let got = chirp_sim::run_factored_group(
                &config,
                &trace,
                config.warmup_fraction,
                &sig_configs,
                built,
            );
            for ((label, make), (result, backend)) in members.iter().zip(got) {
                let mut sim = Simulator::with_policy(&config, make(&config, bench.seed));
                let want = sim.run_columnar(&trace, config.warmup_fraction);
                assert_eq!(
                    backend_outcome(result, &backend),
                    l2_outcome(want, sim.tlbs().l2()),
                    "{label} diverged on {} at warmup {warmup}",
                    bench.name
                );
            }
        }
    }
}

/// One random control-flow/access event for the history-column proptest.
#[derive(Debug, Clone)]
enum HistEvent {
    Branch { pc: u64, class: BranchClass, taken: bool },
    Access { pc: u64, vpn: u64 },
}

fn hist_event() -> impl Strategy<Value = HistEvent> {
    prop_oneof![
        (any::<u32>(), 0u8..3, any::<bool>()).prop_map(|(pc, c, taken)| HistEvent::Branch {
            pc: u64::from(pc),
            class: match c {
                0 => BranchClass::Conditional,
                1 => BranchClass::UnconditionalIndirect,
                _ => BranchClass::UnconditionalDirect,
            },
            taken,
        }),
        (any::<u32>(), 0u64..96).prop_map(|(pc, vpn)| HistEvent::Access { pc: u64::from(pc), vpn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A history policy driven by `on_branch` and one driven by
    /// `supply_history` with the word its named column folds make the
    /// same decision on every access: same hit/miss, way, victim and
    /// dead prediction, and the same final statistics and table traffic.
    /// The policies are [`sensitive_history_policy`] variants.
    #[test]
    fn supplied_history_matches_on_branch(
        ghrp in any::<bool>(),
        events in proptest::collection::vec(hist_event(), 1..600),
    ) {
        let geometry = TlbGeometry { entries: 64, ways: 4 };
        let mut driven = L2Tlb::new(geometry, sensitive_history_policy(ghrp, geometry));
        let mut supplied = L2Tlb::new(geometry, sensitive_history_policy(ghrp, geometry));
        let column = supplied.policy().replay_hints().history.expect("reads a history column");
        let mut word = 0u64;
        for event in &events {
            match *event {
                HistEvent::Branch { pc, class, taken } => {
                    driven.on_branch(pc, class, taken);
                    word = column.fold(word, pc, class, taken);
                }
                HistEvent::Access { pc, vpn } => {
                    let want = driven.access(pc, vpn, TranslationKind::Data);
                    supplied.supply_history(word);
                    let got = supplied.access(pc, vpn, TranslationKind::Data);
                    prop_assert_eq!(got, want);
                    let set = geometry.set_of(vpn);
                    prop_assert_eq!(
                        supplied.policy().predicts_dead(set, got.way),
                        driven.policy().predicts_dead(set, want.way)
                    );
                }
            }
        }
        prop_assert_eq!(supplied.stats(), driven.stats());
        prop_assert_eq!(
            supplied.policy().prediction_table_accesses(),
            driven.policy().prediction_table_accesses()
        );
    }
}
