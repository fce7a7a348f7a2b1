//! DRRIP: dynamic re-reference interval prediction (extension baseline).
//!
//! Not evaluated in the CHiRP paper, but the canonical thrash-resistant
//! member of the RRIP family \[Jaleel et al., ISCA 2010\]: set-dueling
//! picks between SRRIP insertion (long re-reference) and BRRIP insertion
//! (distant re-reference with occasional long), letting the policy adapt
//! to cyclic working sets that defeat plain SRRIP. Included so users can
//! compare CHiRP against the strongest non-predictive RRIP variant.

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};

const RRPV_MAX: u8 = 3;
const RRPV_LONG: u8 = 2;
/// BRRIP inserts at RRPV_LONG once every `BRRIP_EPSILON` fills.
const BRRIP_EPSILON: u32 = 32;
/// PSEL saturation.
const PSEL_MAX: i32 = 1023;

/// Which insertion policy a set duels for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    LeaderSrrip,
    LeaderBrrip,
    Follower,
}

/// Dynamic RRIP with set dueling.
#[derive(Debug, Clone)]
pub struct Drrip {
    rrpv: Vec<u8>,
    roles: Vec<SetRole>,
    psel: i32,
    brrip_counter: u32,
    geometry: TlbGeometry,
}

impl Drrip {
    /// Creates DRRIP state for `geometry`; every 8th set leads SRRIP and
    /// every 8th (offset by 4) leads BRRIP.
    pub fn new(geometry: TlbGeometry) -> Self {
        let sets = geometry.sets();
        let roles = (0..sets)
            .map(|s| match s % 8 {
                0 => SetRole::LeaderSrrip,
                4 => SetRole::LeaderBrrip,
                _ => SetRole::Follower,
            })
            .collect();
        Drrip {
            rrpv: vec![RRPV_MAX; geometry.entries],
            roles,
            psel: PSEL_MAX / 2,
            brrip_counter: 0,
            geometry,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    fn use_brrip(&self, set: usize) -> bool {
        match self.roles[set] {
            SetRole::LeaderSrrip => false,
            SetRole::LeaderBrrip => true,
            // PSEL above midpoint means SRRIP leaders miss more.
            SetRole::Follower => self.psel > PSEL_MAX / 2,
        }
    }
}

impl TlbReplacementPolicy for Drrip {
    fn name(&self) -> &str {
        "drrip"
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        // Leader sets vote through their misses.
        match self.roles[acc.set] {
            SetRole::LeaderSrrip => self.psel = (self.psel + 1).min(PSEL_MAX),
            SetRole::LeaderBrrip => self.psel = (self.psel - 1).max(0),
            SetRole::Follower => {}
        }
        loop {
            for way in 0..self.geometry.ways {
                if self.rrpv[self.idx(acc.set, way)] == RRPV_MAX {
                    return way;
                }
            }
            for way in 0..self.geometry.ways {
                let i = self.idx(acc.set, way);
                self.rrpv[i] += 1;
            }
        }
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.rrpv[i] = 0;
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.rrpv[i] = if self.use_brrip(acc.set) {
            self.brrip_counter = (self.brrip_counter + 1) % BRRIP_EPSILON;
            if self.brrip_counter == 0 {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        };
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        // A distant re-reference prediction is RRIP's notion of "dead".
        Some(self.rrpv[self.idx(set, way)] == RRPV_MAX)
    }

    /// Keeps no branch history and consumes no signatures: replay can
    /// drop every control event.
    fn replay_hints(&self) -> crate::policy::ReplayHints {
        crate::policy::ReplayHints::none()
    }

    fn storage(&self) -> PolicyStorage {
        PolicyStorage {
            metadata_bits: 2 * self.geometry.entries as u64,
            register_bits: 10 + 5, // PSEL + BRRIP epsilon counter
            table_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::L2Tlb;
    use crate::types::TranslationKind;

    #[test]
    fn brrip_leaders_win_under_cyclic_thrash() {
        // Cyclic pattern over more pages than capacity: BRRIP retains a
        // subset, SRRIP does not, so DRRIP must beat plain SRRIP.
        let geom = TlbGeometry { entries: 64, ways: 8 }; // 8 sets
        let run = |policy: Box<dyn TlbReplacementPolicy>| {
            let mut tlb = L2Tlb::new(geom, policy);
            for _ in 0..200 {
                for v in 0..96u64 {
                    tlb.access(0x400000, v, TranslationKind::Data);
                }
            }
            tlb.stats().misses
        };
        let srrip = run(Box::new(crate::policies::Srrip::new(geom)));
        let drrip = run(Box::new(Drrip::new(geom)));
        assert!(
            drrip < srrip * 95 / 100,
            "DRRIP ({drrip}) must beat SRRIP ({srrip}) on cyclic thrash"
        );
    }

    #[test]
    fn hit_promotion_matches_rrip_family() {
        let geom = TlbGeometry { entries: 8, ways: 8 };
        let mut p = Drrip::new(geom);
        let acc = TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 };
        p.on_fill(&acc, 3);
        p.on_hit(&acc, 3);
        assert_eq!(p.rrpv[3], 0);
    }

    #[test]
    fn psel_moves_with_leader_misses() {
        let geom = TlbGeometry { entries: 64, ways: 8 };
        let mut p = Drrip::new(geom);
        let start = p.psel;
        // Misses in the SRRIP leader (set 0) push PSEL up.
        for _ in 0..10 {
            for way in 0..8 {
                p.on_fill(&TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 }, way);
            }
            p.choose_victim(&TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 });
        }
        assert!(p.psel > start);
    }

    #[test]
    fn storage_is_two_bits_per_entry_plus_registers() {
        let p = Drrip::new(TlbGeometry::default());
        assert_eq!(p.storage().metadata_bits, 2 * 1024);
        assert!(p.storage().register_bits < 32);
    }
}
