//! True least-recently-used replacement.

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};
use chirp_mem::PackedLru;

/// True LRU: per-set recency in one flat packed age array.
#[derive(Debug, Clone)]
pub struct Lru {
    stacks: PackedLru,
    geometry: TlbGeometry,
}

impl Lru {
    /// Creates LRU state for `geometry`.
    pub fn new(geometry: TlbGeometry) -> Self {
        Lru { stacks: PackedLru::new(geometry.sets(), geometry.ways), geometry }
    }
}

impl TlbReplacementPolicy for Lru {
    fn name(&self) -> &str {
        "lru"
    }

    #[inline]
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        self.stacks.lru(acc.set)
    }

    #[inline]
    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        self.stacks.touch(acc.set, way);
    }

    #[inline]
    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        self.stacks.touch(acc.set, way);
    }

    /// Keeps no branch history and consumes no signatures: replay can
    /// drop every control event.
    fn replay_hints(&self) -> crate::policy::ReplayHints {
        crate::policy::ReplayHints::none()
    }

    fn storage(&self) -> PolicyStorage {
        // ceil(log2(ways!)) bits per set is the information-theoretic cost;
        // hardware uses ~3 bits per entry for 8 ways (paper Table I).
        let bits_per_entry = (self.geometry.ways as f64).log2().ceil() as u64;
        PolicyStorage {
            metadata_bits: bits_per_entry * self.geometry.entries as u64,
            register_bits: 0,
            table_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationKind;

    fn acc(set: usize) -> TlbAccess {
        TlbAccess { pc: 0, vpn: set as u64, kind: TranslationKind::Data, set }
    }

    #[test]
    fn evicts_least_recent() {
        let geom = TlbGeometry { entries: 4, ways: 4 };
        let mut lru = Lru::new(geom);
        for way in 0..4 {
            lru.on_fill(&acc(0), way);
        }
        lru.on_hit(&acc(0), 0); // protect way 0
        assert_eq!(lru.choose_victim(&acc(0)), 1);
    }

    #[test]
    fn storage_is_three_bits_per_entry_for_eight_ways() {
        let lru = Lru::new(TlbGeometry::default());
        assert_eq!(lru.storage().metadata_bits, 3 * 1024);
    }
}
