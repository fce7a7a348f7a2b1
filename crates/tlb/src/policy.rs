//! The replacement-policy interface every policy implements.
//!
//! The L2 TLB owns the tag/valid arrays; a policy owns whatever per-entry
//! metadata it needs (LRU stacks, RRPVs, signatures, dead bits) plus any
//! prediction tables, and reacts to the TLB's callbacks. The interface also
//! exposes the two accounting hooks the paper's evaluation needs:
//! prediction-table access counts (Figure 11) and storage overhead
//! (Table I / §VI-H).

use crate::policies::{Ghrp, PerceptronReuse};
use crate::types::TlbAccess;
use chirp_trace::BranchClass;

/// Storage accounting for a policy (Table I style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStorage {
    /// Bits of metadata stored per TLB entry, summed over all entries.
    pub metadata_bits: u64,
    /// Bits of global state (history registers).
    pub register_bits: u64,
    /// Bits of prediction tables.
    pub table_bits: u64,
}

impl PolicyStorage {
    /// Total storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.metadata_bits + self.register_bits + self.table_bits
    }

    /// Total storage in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

/// A per-access history word a factored front end can record for a
/// branch-history policy, so its back-end replays without control events.
///
/// Each column starts at 0 (the policies' reset value) and folds every
/// retired branch with the same formula the owning policy's
/// [`TlbReplacementPolicy::on_branch`] applies; the word recorded at an
/// L2 access is the register value that access reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryColumn {
    /// GHRP's conditional-outcome history ([`Ghrp::fold_history`]).
    GhrpOutcome,
    /// Perceptron reuse's conditional-PC history
    /// ([`PerceptronReuse::fold_history`]).
    PerceptronCond,
}

impl HistoryColumn {
    /// Every history column, in the order a one-configuration front end
    /// records them.
    pub const ALL: [HistoryColumn; 2] = [HistoryColumn::GhrpOutcome, HistoryColumn::PerceptronCond];

    /// Folds one retired branch into `word`.
    #[inline]
    pub fn fold(self, word: u64, pc: u64, class: BranchClass, taken: bool) -> u64 {
        match self {
            HistoryColumn::GhrpOutcome => Ghrp::fold_history(word, pc, class, taken),
            HistoryColumn::PerceptronCond => PerceptronReuse::fold_history(word, pc, class),
        }
    }
}

/// What a policy reads when a factored back-end replays pre-recorded L2
/// accesses instead of running inside the full simulator (see
/// `chirp-sim`'s front-end/back-end split).
///
/// The hints are a pure replay-time *optimization*. A policy names at
/// most one precomputed signature column and one history column it can
/// consume in place of its own registers; `needs_branches` and
/// `needs_mispredicts` then say which control events it still needs.
/// Declaring `needs_branches: false` promises that skipping
/// [`TlbReplacementPolicy::on_branch`] calls cannot change any observable
/// behaviour (victim choices, counters, storage) once the named columns
/// are supplied. A stream that lacks a named column replays the policy
/// conservatively. The default ([`ReplayHints::conservative`]) names no
/// column and keeps every event, so policies that don't override
/// [`TlbReplacementPolicy::replay_hints`] are always replayed faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayHints {
    /// Replay must forward retired-branch events
    /// ([`TlbReplacementPolicy::on_branch`]).
    pub needs_branches: bool,
    /// Replay must forward misprediction events
    /// ([`TlbReplacementPolicy::on_mispredict`]).
    pub needs_mispredicts: bool,
    /// The signature configuration code (`ChirpConfig::signature_code`
    /// in `chirp-core`) whose precomputed per-access signatures the
    /// policy consumes via [`TlbReplacementPolicy::supply_signature`].
    pub signature: Option<u64>,
    /// The history column the policy consumes via
    /// [`TlbReplacementPolicy::supply_history`].
    pub history: Option<HistoryColumn>,
}

impl ReplayHints {
    /// Safe for every policy: forward all control events, read no column.
    pub const fn conservative() -> Self {
        ReplayHints {
            needs_branches: true,
            needs_mispredicts: true,
            signature: None,
            history: None,
        }
    }

    /// For stateless-between-accesses policies (LRU, Random, RRIP
    /// family): no control events, no columns.
    pub const fn none() -> Self {
        ReplayHints {
            needs_branches: false,
            needs_mispredicts: false,
            signature: None,
            history: None,
        }
    }

    /// For policies whose only control-flow state is the signature of
    /// configuration `code` (CHiRP): the signature column replaces every
    /// control event.
    pub const fn signature(code: u64) -> Self {
        ReplayHints { signature: Some(code), ..ReplayHints::none() }
    }

    /// For policies whose only control-flow state is one history word
    /// (GHRP, perceptron reuse): the column replaces every control event.
    pub const fn history(column: HistoryColumn) -> Self {
        ReplayHints { history: Some(column), ..ReplayHints::none() }
    }
}

/// Replacement policy for a set-associative TLB.
///
/// Call protocol, per L2 TLB access:
///
/// 1. the TLB resolves hit/miss against its tags;
/// 2. on a hit, it calls [`on_hit`](Self::on_hit);
/// 3. on a miss with a free (invalid) way it calls
///    [`on_fill`](Self::on_fill) directly;
/// 4. on a miss with a full set it calls
///    [`choose_victim`](Self::choose_victim), then
///    [`on_evict`](Self::on_evict) for the chosen way, then
///    [`on_fill`](Self::on_fill) for the new entry in that way.
///
/// Independently, the driving simulator forwards every retired branch to
/// [`on_branch`](Self::on_branch) so history-based policies can maintain
/// their registers.
pub trait TlbReplacementPolicy {
    /// Short stable name for reports (e.g. `"lru"`, `"chirp"`).
    fn name(&self) -> &str;

    /// Picks the way to evict in `acc.set`. All ways are valid when this is
    /// called. Must return a way index `< ways`.
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize;

    /// The access hit `way` in `acc.set`.
    fn on_hit(&mut self, acc: &TlbAccess, way: usize);

    /// A new entry for `acc.vpn` was installed in `way` of `acc.set`.
    fn on_fill(&mut self, acc: &TlbAccess, way: usize);

    /// The entry in (`set`, `way`) chosen by [`choose_victim`](Self::choose_victim)
    /// is being evicted (called before [`on_fill`](Self::on_fill)).
    fn on_evict(&mut self, _set: usize, _way: usize) {}

    /// A branch retired. History-based policies fold the PC into their
    /// registers (paper Algorithm 5, lines 22–26).
    fn on_branch(&mut self, _pc: u64, _class: BranchClass, _taken: bool) {}

    /// A branch mispredicted: the front end fetched down the wrong path
    /// before redirecting. Policies that maintain *speculative* histories
    /// without commit-time recovery model their pollution here; the
    /// paper's CHiRP keeps a committed history and ignores this (§VI-E).
    fn on_mispredict(&mut self, _pc: u64) {}

    /// Total reads + writes of prediction tables so far (Figure 11).
    fn prediction_table_accesses(&self) -> u64 {
        0
    }

    /// Evictions that picked a predicted-dead entry rather than the LRU
    /// fallback (0 for non-predictive policies).
    fn dead_eviction_count(&self) -> u64 {
        0
    }

    /// The policy's *current* reuse prediction for the entry in
    /// (`set`, `way`): `Some(true)` if it considers the entry dead,
    /// `Some(false)` if live, `None` for policies that keep no explicit
    /// prediction (LRU, Random, OPT).
    ///
    /// This is a read-only telemetry probe — implementations must not
    /// touch prediction tables or counters (in particular it must not
    /// count towards [`Self::prediction_table_accesses`]), so querying
    /// it cannot perturb
    /// simulation results. RRIP-family policies map a distant re-reference
    /// prediction (RRPV = max) to "dead".
    fn predicts_dead(&self, _set: usize, _way: usize) -> Option<bool> {
        None
    }

    /// Storage overhead breakdown (Table I / §VI-H).
    fn storage(&self) -> PolicyStorage;

    /// Which columns this policy reads and which event classes it needs
    /// when a factored back-end replays a pre-recorded L2 access stream.
    /// The default is fully conservative, so policies that ignore this
    /// hook are always replayed faithfully.
    fn replay_hints(&self) -> ReplayHints {
        ReplayHints::conservative()
    }

    /// Hands the policy the stream's precomputed signature for the next
    /// L2 access. Only called when the stream carries the column
    /// [`Self::replay_hints`] names; the default implementation drops it.
    fn supply_signature(&mut self, _sig: u16) {}

    /// Hands the policy the history word of the column
    /// [`Self::replay_hints`] names, as it stands at the next L2 access.
    /// Only called when the stream carries that column, in place of every
    /// [`Self::on_branch`] call; the default implementation drops it.
    fn supply_history(&mut self, _word: u64) {}

    /// Downcast hook for diagnostics tooling; policies that expose internal
    /// state override this to return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Forwarding impl so a boxed policy satisfies `P: TlbReplacementPolicy`
/// bounds — the compatibility shim that lets `Box<dyn
/// TlbReplacementPolicy>` remain the default type parameter of the generic
/// TLB/simulator stack while monomorphized callers plug concrete policies
/// in directly.
impl<T: TlbReplacementPolicy + ?Sized> TlbReplacementPolicy for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        (**self).choose_victim(acc)
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        (**self).on_hit(acc, way)
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        (**self).on_fill(acc, way)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        (**self).on_evict(set, way)
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        (**self).on_branch(pc, class, taken)
    }

    fn on_mispredict(&mut self, pc: u64) {
        (**self).on_mispredict(pc)
    }

    fn prediction_table_accesses(&self) -> u64 {
        (**self).prediction_table_accesses()
    }

    fn dead_eviction_count(&self) -> u64 {
        (**self).dead_eviction_count()
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        (**self).predicts_dead(set, way)
    }

    fn storage(&self) -> PolicyStorage {
        (**self).storage()
    }

    fn replay_hints(&self) -> ReplayHints {
        (**self).replay_hints()
    }

    fn supply_signature(&mut self, sig: u16) {
        (**self).supply_signature(sig)
    }

    fn supply_history(&mut self, word: u64) {
        (**self).supply_history(word)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_totals() {
        let s = PolicyStorage { metadata_bits: 10, register_bits: 3, table_bits: 4 };
        assert_eq!(s.total_bits(), 17);
        assert_eq!(s.total_bytes(), 3);
    }

    #[test]
    fn zero_storage_is_zero_bytes() {
        assert_eq!(PolicyStorage::default().total_bytes(), 0);
    }
}
