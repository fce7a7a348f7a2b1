//! Output checks: results against the per-record oracle
//! (`Simulator::run`), verdicts against `run_policy_group`, and exact
//! equality of repeated results.

use chirp_serve::wire::PolicyVerdict;
use chirp_sim::{PolicyKind, RunResult, SimConfig, Simulator};
use chirp_trace::PackedTrace;

/// Whether two results agree on every field (efficiency by bit pattern).
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.policy == b.policy
        && a.instructions == b.instructions
        && a.cycles == b.cycles
        && a.l2_tlb == b.l2_tlb
        && a.l2_accesses == b.l2_accesses
        && a.prediction_table_accesses == b.prediction_table_accesses
        && a.l2_accesses_total == b.l2_accesses_total
        && a.efficiency.to_bits() == b.efficiency.to_bits()
}

/// The reference result of one unit: the per-record `Simulator::run`.
pub fn oracle_run(sim: &SimConfig, kind: &PolicyKind, seed: u64, trace: &PackedTrace) -> RunResult {
    let mut simulator = Simulator::with_policy(sim, kind.build_dispatch(sim.tlb.l2, seed));
    simulator.run(trace, sim.warmup_fraction)
}

/// Whether a served verdict reports exactly `result`.
pub fn verdict_matches(v: &PolicyVerdict, result: &RunResult) -> bool {
    v.instructions == result.instructions
        && v.cycles == result.cycles
        && v.hits == result.l2_tlb.hits
        && v.misses == result.l2_tlb.misses
        && v.dead_evictions == result.l2_tlb.dead_evictions
        && v.cold_fills == result.l2_tlb.cold_fills
        && v.l2_accesses == result.l2_accesses
        && v.prediction_table_accesses == result.prediction_table_accesses
        && v.l2_accesses_total == result.l2_accesses_total
        && v.efficiency.to_bits() == result.efficiency.to_bits()
        && v.mpki.to_bits() == result.mpki().to_bits()
}

/// Whether two verdicts for the same run agree on everything but where
/// the answer came from.
pub fn same_verdict(a: &PolicyVerdict, b: &PolicyVerdict) -> bool {
    PolicyVerdict { from_ledger: b.from_ledger, ..a.clone() } == *b
}

/// The (benchmark, policy) units the batch oracle re-simulates: `count`
/// units spread over the suite, each with a different policy.
pub fn sample_units(benchmarks: usize, policies: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count.min(benchmarks * policies))
        .map(|k| (k * benchmarks / count.max(1), k % policies))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::gen::{ContextCopy, WorkloadGen};

    #[test]
    fn a_corrupted_result_trips_the_oracle_check() {
        let sim = SimConfig::default();
        let trace = ContextCopy::default().generate_packed(20_000, 3);
        let kind = PolicyKind::parse("chirp").unwrap();
        let oracle = oracle_run(&sim, &kind, 3, &trace);
        let production =
            chirp_sim::run_policy_group(&sim, &[&kind, &PolicyKind::Lru], 3, &trace, true);
        assert!(same_result(&production[0], &oracle), "factored result must match the oracle");

        let mut corrupted = production[0].clone();
        corrupted.cycles += 1;
        assert!(!same_result(&corrupted, &oracle));
        let mut corrupted = production[0].clone();
        corrupted.efficiency = f64::from_bits(corrupted.efficiency.to_bits() ^ 1);
        assert!(!same_result(&corrupted, &oracle));
    }

    #[test]
    fn sample_units_spread_over_benchmarks_and_policies() {
        let units = sample_units(16, 9, 6);
        assert_eq!(units.len(), 6);
        assert_eq!(units[0], (0, 0));
        assert!(units.iter().all(|&(b, p)| b < 16 && p < 9));
    }
}
