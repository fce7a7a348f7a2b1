//! Workload inputs, all derived from the workload seed.

use chirp_sim::{PolicyKind, SimConfig};
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig};

/// The first `benchmarks` specs of the suite, re-seeded: spec `i` keeps
/// its generator configuration and gets seed `seed + i`, named the way
/// the suite builder names a seeded spec (`<stem>#s<seed>`).
pub fn suite(benchmarks: usize, seed: u64) -> Vec<BenchmarkSpec> {
    build_suite(&SuiteConfig { benchmarks })
        .into_iter()
        .enumerate()
        .map(|(i, spec)| reseed(spec, seed.wrapping_add(i as u64)))
        .collect()
}

fn reseed(spec: BenchmarkSpec, seed: u64) -> BenchmarkSpec {
    let stem = spec.name.rsplit_once("#s").map_or(spec.name.as_str(), |(stem, _)| stem);
    BenchmarkSpec { name: format!("{stem}#s{seed}"), seed, ..spec }
}

/// The nine-policy lineup of the paper figures plus extensions.
pub fn lineup9() -> Vec<PolicyKind> {
    chirp_bench::cli::lineup9()
}

/// Report labels of `lineup` (`chirp-p8` for the non-default CHiRP).
pub fn labels(lineup: &[PolicyKind]) -> Vec<String> {
    lineup.iter().map(chirp_bench::cli::policy_label).collect()
}

/// The simulator configuration every workload uses.
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// Penalties in one Fig. 10 sweep: 20, 40, …, 360 cycles.
pub const SWEEP_PENALTIES: usize = 18;

/// Walk penalty of timed pass `k` of the sweep.
pub fn walk_penalty(k: usize) -> u64 {
    20 * (k % SWEEP_PENALTIES + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseeding_changes_seed_and_name_only() {
        let base = build_suite(&SuiteConfig { benchmarks: 4 });
        let seeded = suite(4, 100);
        for (i, (a, b)) in base.iter().zip(&seeded).enumerate() {
            assert_eq!(a.spec, b.spec);
            assert_eq!(b.seed, 100 + i as u64);
            assert!(b.name.ends_with(&format!("#s{}", 100 + i)));
            assert_eq!(a.name.rsplit_once("#s").unwrap().0, b.name.rsplit_once("#s").unwrap().0);
        }
    }

    #[test]
    fn a_sweep_covers_the_paper_penalty_range() {
        let sweep: Vec<u64> = (0..SWEEP_PENALTIES).map(walk_penalty).collect();
        assert_eq!((sweep[0], sweep[SWEEP_PENALTIES - 1]), (20, 360));
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(walk_penalty(SWEEP_PENALTIES), 20);
    }
}
