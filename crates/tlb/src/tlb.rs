//! The unified L2 TLB with a pluggable replacement policy.

use crate::efficiency::EfficiencyTracker;
use crate::policy::TlbReplacementPolicy;
use crate::stats::{DeadOutcomes, TlbStats};
use crate::types::{TlbAccess, TlbGeometry, TranslationKind};
use chirp_trace::BranchClass;

/// Telemetry scoreboard for dead-prediction outcomes: remembers, per
/// entry, the policy's fill-time dead/live prediction and whether the
/// entry has been hit since, and scores the pair when the entry is
/// evicted (see [`DeadOutcomes`]).
///
/// Purely observational: it queries the policy through the read-only
/// [`TlbReplacementPolicy::predicts_dead`] probe and keeps its own shadow
/// state, so enabling it cannot change hit/miss behaviour, victim choice
/// or any policy counter.
#[derive(Debug, Clone)]
struct OutcomeScoreboard {
    /// Fill-time prediction per (set, way); `None` for unpredicted fills.
    predicted_dead: Vec<Option<bool>>,
    /// Whether the entry was hit since its fill.
    hit_since_fill: Vec<bool>,
    outcomes: DeadOutcomes,
}

impl OutcomeScoreboard {
    fn new(entries: usize) -> OutcomeScoreboard {
        OutcomeScoreboard {
            predicted_dead: vec![None; entries],
            hit_since_fill: vec![false; entries],
            outcomes: DeadOutcomes::default(),
        }
    }

    fn on_fill(&mut self, idx: usize, prediction: Option<bool>) {
        self.predicted_dead[idx] = prediction;
        self.hit_since_fill[idx] = false;
    }

    fn on_hit(&mut self, idx: usize) {
        self.hit_since_fill[idx] = true;
    }

    fn on_evict(&mut self, idx: usize) {
        let Some(dead) = self.predicted_dead[idx] else { return };
        match (dead, self.hit_since_fill[idx]) {
            (true, false) => self.outcomes.true_dead += 1,
            (true, true) => self.outcomes.false_dead += 1,
            (false, true) => self.outcomes.true_live += 1,
            (false, false) => self.outcomes.false_live += 1,
        }
    }
}

/// Result of one L2 TLB access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the translation was resident.
    pub hit: bool,
    /// The way that hit or was filled.
    pub way: usize,
    /// The VPN evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// A set-associative TLB whose replacement decisions are delegated to a
/// [`TlbReplacementPolicy`].
///
/// Generic over the policy type so hot loops can monomorphize the
/// `access → choose_victim` chain; the default `Box<dyn
/// TlbReplacementPolicy>` parameter keeps every dynamic-dispatch call
/// site compiling unchanged.
pub struct L2Tlb<P: TlbReplacementPolicy = Box<dyn TlbReplacementPolicy>> {
    geometry: TlbGeometry,
    /// `sets * ways` VPN tags, flattened row-major by set.
    tags: Vec<u64>,
    valid: Vec<bool>,
    policy: P,
    stats: TlbStats,
    efficiency: EfficiencyTracker,
    /// Dead-prediction outcome tracking; `None` (the default) keeps the
    /// access path free of telemetry work.
    scoreboard: Option<OutcomeScoreboard>,
}

impl<P: TlbReplacementPolicy> std::fmt::Debug for L2Tlb<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L2Tlb")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<P: TlbReplacementPolicy> L2Tlb<P> {
    /// Builds the TLB with `geometry` and the given policy.
    pub fn new(geometry: TlbGeometry, policy: P) -> Self {
        let sets = geometry.sets();
        L2Tlb {
            geometry,
            tags: vec![0; sets * geometry.ways],
            valid: vec![false; sets * geometry.ways],
            policy,
            stats: TlbStats::default(),
            efficiency: EfficiencyTracker::new(sets, geometry.ways),
            scoreboard: None,
        }
    }

    /// Turns on dead-prediction outcome scoring (telemetry). Observational
    /// only: the policy is queried through the read-only
    /// [`TlbReplacementPolicy::predicts_dead`] probe, so hit/miss
    /// behaviour and every policy counter stay bit-identical.
    pub fn enable_outcome_tracking(&mut self) {
        if self.scoreboard.is_none() {
            self.scoreboard = Some(OutcomeScoreboard::new(self.geometry.entries));
        }
    }

    /// Scored fill-time dead/live predictions so far; all-zero unless
    /// [`enable_outcome_tracking`](Self::enable_outcome_tracking) ran.
    pub fn dead_outcomes(&self) -> DeadOutcomes {
        self.scoreboard.as_ref().map(|s| s.outcomes).unwrap_or_default()
    }

    /// Fraction of ways currently holding a valid translation.
    pub fn occupancy(&self) -> f64 {
        let valid = self.valid.iter().filter(|&&v| v).count();
        valid as f64 / self.valid.len() as f64
    }

    /// The TLB geometry.
    pub fn geometry(&self) -> TlbGeometry {
        self.geometry
    }

    /// Looks up `vpn`, filling on a miss. `pc` is the instruction that
    /// caused the access (the PC the CHiRP signature uses, paper §IV-B).
    #[inline]
    pub fn access(&mut self, pc: u64, vpn: u64, kind: TranslationKind) -> AccessOutcome {
        let set = self.geometry.set_of(vpn);
        self.access_at(TlbAccess { pc, vpn, kind, set })
    }

    /// [`access`](Self::access) with the set index already computed — the
    /// entry point for factored back-end replay, where the front end
    /// batch-hashed the set indices of a whole event block. `acc.set`
    /// must equal `geometry.set_of(acc.vpn)`.
    #[inline]
    pub fn access_at(&mut self, acc: TlbAccess) -> AccessOutcome {
        let TlbAccess { vpn, set, .. } = acc;
        debug_assert_eq!(set, self.geometry.set_of(vpn));
        self.efficiency.tick();
        let ways = self.geometry.ways;
        let base = set * ways;

        for way in 0..ways {
            if self.valid[base + way] && self.tags[base + way] == vpn {
                self.stats.hits += 1;
                self.efficiency.on_hit(set, way);
                self.policy.on_hit(&acc, way);
                if let Some(sb) = &mut self.scoreboard {
                    sb.on_hit(base + way);
                }
                return AccessOutcome { hit: true, way, evicted: None };
            }
        }

        self.stats.misses += 1;
        // Fill an invalid way first; otherwise ask the policy for a victim.
        let (way, evicted) = match (0..ways).find(|&w| !self.valid[base + w]) {
            Some(free) => {
                self.stats.cold_fills += 1;
                (free, None)
            }
            None => {
                let victim = self.policy.choose_victim(&acc);
                assert!(victim < ways, "policy returned way {victim} of {ways}");
                let old = self.tags[base + victim];
                if let Some(sb) = &mut self.scoreboard {
                    sb.on_evict(base + victim);
                }
                self.policy.on_evict(set, victim);
                (victim, Some(old))
            }
        };
        self.tags[base + way] = vpn;
        self.valid[base + way] = true;
        self.efficiency.on_insert(set, way);
        self.policy.on_fill(&acc, way);
        if self.scoreboard.is_some() {
            // Query after `on_fill` so the prediction reflects the state
            // the policy just installed for the incoming entry.
            let prediction = self.policy.predicts_dead(set, way);
            if let Some(sb) = &mut self.scoreboard {
                sb.on_fill(base + way, prediction);
            }
        }
        AccessOutcome { hit: false, way, evicted }
    }

    /// Forwards a retired branch to the policy's history registers.
    #[inline]
    pub fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        self.policy.on_branch(pc, class, taken);
    }

    /// Forwards a misprediction event to the policy (wrong-path hook).
    #[inline]
    pub fn on_mispredict(&mut self, pc: u64) {
        self.policy.on_mispredict(pc);
    }

    /// Hands the policy a precomputed signature for the next access
    /// (factored replay; see [`TlbReplacementPolicy::supply_signature`]).
    #[inline]
    pub fn supply_signature(&mut self, sig: u16) {
        self.policy.supply_signature(sig);
    }

    /// Hands the policy a recorded history word for the next access
    /// (factored replay; see [`TlbReplacementPolicy::supply_history`]).
    #[inline]
    pub fn supply_history(&mut self, word: u64) {
        self.policy.supply_history(word);
    }

    /// Accumulated statistics. `dead_evictions` is sourced live from the
    /// policy (predictive policies track which victims were dead-predicted).
    pub fn stats(&self) -> TlbStats {
        TlbStats { dead_evictions: self.policy.dead_eviction_count(), ..self.stats }
    }

    /// TLB efficiency so far (Figure 1 metric).
    pub fn efficiency(&self) -> f64 {
        self.efficiency.efficiency()
    }

    /// The policy driving replacement. With the default boxed parameter
    /// this derefs to `&dyn TlbReplacementPolicy` exactly as before; for a
    /// concrete `P` it exposes the policy's own type.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// True if `vpn` is currently resident (no side effects).
    pub fn probe(&self, vpn: u64) -> bool {
        let set = self.geometry.set_of(vpn);
        let base = set * self.geometry.ways;
        (0..self.geometry.ways).any(|w| self.valid[base + w] && self.tags[base + w] == vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;

    fn tiny() -> L2Tlb {
        let geom = TlbGeometry { entries: 8, ways: 2 }; // 4 sets x 2 ways
        L2Tlb::new(geom, Box::new(Lru::new(geom)))
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = tiny();
        let first = tlb.access(0x400000, 42, TranslationKind::Data);
        assert!(!first.hit);
        let second = tlb.access(0x400000, 42, TranslationKind::Data);
        assert!(second.hit);
        assert_eq!(second.way, first.way);
        assert_eq!(tlb.stats().misses, 1);
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn eviction_reports_victim_vpn() {
        let mut tlb = tiny();
        // Set 2 receives vpns ≡ 2 (mod 4): 2, 6, 10.
        tlb.access(0, 2, TranslationKind::Data);
        tlb.access(0, 6, TranslationKind::Data);
        let out = tlb.access(0, 10, TranslationKind::Data);
        assert_eq!(out.evicted, Some(2), "LRU victim is the oldest vpn");
        assert!(!tlb.probe(2));
        assert!(tlb.probe(6));
        assert!(tlb.probe(10));
    }

    #[test]
    fn cold_fills_counted() {
        let mut tlb = tiny();
        tlb.access(0, 1, TranslationKind::Instruction);
        tlb.access(0, 5, TranslationKind::Instruction);
        assert_eq!(tlb.stats().cold_fills, 2);
    }

    /// A test policy that predicts every fill dead, so outcome scoring is
    /// fully exercised by plain LRU-shaped traffic.
    struct AlwaysDead {
        inner: Lru,
    }

    impl TlbReplacementPolicy for AlwaysDead {
        fn name(&self) -> &str {
            "always-dead"
        }
        fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
            self.inner.choose_victim(acc)
        }
        fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
            self.inner.on_hit(acc, way);
        }
        fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
            self.inner.on_fill(acc, way);
        }
        fn predicts_dead(&self, _set: usize, _way: usize) -> Option<bool> {
            Some(true)
        }
        fn storage(&self) -> crate::policy::PolicyStorage {
            self.inner.storage()
        }
    }

    #[test]
    fn outcome_tracking_scores_fill_predictions_at_eviction() {
        let geom = TlbGeometry { entries: 8, ways: 2 };
        let mut tlb = L2Tlb::new(geom, Box::new(AlwaysDead { inner: Lru::new(geom) }));
        tlb.enable_outcome_tracking();
        // Set 2: fill vpns 2 and 6, hit 2, then evict both via 10 and 14.
        tlb.access(0, 2, TranslationKind::Data);
        tlb.access(0, 6, TranslationKind::Data);
        tlb.access(0, 2, TranslationKind::Data); // hit: entry 2 proved live
        tlb.access(0, 10, TranslationKind::Data); // evicts 6 (LRU): never hit
        tlb.access(0, 14, TranslationKind::Data); // evicts 2: was hit
        let o = tlb.dead_outcomes();
        assert_eq!(o.true_dead, 1, "vpn 6 predicted dead, never hit");
        assert_eq!(o.false_dead, 1, "vpn 2 predicted dead but was hit");
        assert_eq!(o.true_live + o.false_live, 0, "this policy never predicts live");
    }

    #[test]
    fn outcome_tracking_defaults_off_and_unpredictive_policies_score_nothing() {
        let mut tlb = tiny();
        tlb.access(0, 2, TranslationKind::Data);
        tlb.access(0, 6, TranslationKind::Data);
        tlb.access(0, 10, TranslationKind::Data); // eviction, tracking off
        assert_eq!(tlb.dead_outcomes(), crate::stats::DeadOutcomes::default());
        let mut tracked = tiny();
        tracked.enable_outcome_tracking();
        tracked.access(0, 2, TranslationKind::Data);
        tracked.access(0, 6, TranslationKind::Data);
        tracked.access(0, 10, TranslationKind::Data);
        assert_eq!(
            tracked.dead_outcomes().total(),
            0,
            "LRU has no predictions, so nothing is scored"
        );
    }

    #[test]
    fn occupancy_rises_with_fills() {
        let mut tlb = tiny();
        assert_eq!(tlb.occupancy(), 0.0);
        tlb.access(0, 0, TranslationKind::Data);
        tlb.access(0, 1, TranslationKind::Data);
        assert!((tlb.occupancy() - 0.25).abs() < 1e-12, "2 of 8 ways valid");
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut tlb = tiny();
        for vpn in 0..4 {
            tlb.access(0, vpn, TranslationKind::Data);
        }
        for vpn in 0..4 {
            assert!(tlb.probe(vpn), "vpn {vpn} sits in its own set");
        }
    }
}
