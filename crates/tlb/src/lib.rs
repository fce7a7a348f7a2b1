//! TLB hierarchy, page walker and replacement-policy framework for the
//! CHiRP reproduction.
//!
//! The paper's system under study is the unified second-level TLB (1024
//! entries, 8-way, 4 KB pages) fed by 64-entry L1 instruction and data TLBs.
//! This crate provides:
//!
//! * the [`TlbReplacementPolicy`] trait through which every policy —
//!   including CHiRP from the `chirp-core` crate — plugs into the L2 TLB;
//! * baseline policies from the paper: true [`policies::Lru`],
//!   [`policies::RandomPolicy`], [`policies::Srrip`] \[Jaleel et al.\],
//!   [`policies::ShipTlb`] \[Wu et al., adapted per §II-B\] and
//!   [`policies::Ghrp`] \[Mirbagher et al., adapted per §II-C\], plus an
//!   offline [`policies::OptPolicy`] (Bélády) upper bound;
//! * per-entry liveness accounting for the paper's TLB-efficiency metric
//!   (Figure 1);
//! * the page-walk latency model with the paper's 20–360-cycle sweep.
//!
//! ```
//! use chirp_tlb::{L2Tlb, TlbAccess, TlbGeometry, TranslationKind};
//! use chirp_tlb::policies::Lru;
//!
//! let geom = TlbGeometry::default(); // 1024 entries, 8-way
//! let mut tlb = L2Tlb::new(geom, Box::new(Lru::new(geom)));
//! let miss = tlb.access(0x400000, 0x12345, TranslationKind::Data);
//! assert!(!miss.hit);
//! let hit = tlb.access(0x400000, 0x12345, TranslationKind::Data);
//! assert!(hit.hit);
//! ```

pub mod efficiency;
pub mod hierarchy;
pub mod mixed;
pub mod policies;
pub mod policy;
pub mod stats;
pub mod tlb;
pub mod types;
pub mod walker;

pub use hierarchy::{L1FrontEnd, TlbHierarchy, TlbHierarchyConfig, Translation};
pub use policy::{HistoryColumn, PolicyStorage, ReplayHints, TlbReplacementPolicy};
pub use stats::{DeadOutcomes, TlbStats};
pub use tlb::{AccessOutcome, L2Tlb};
pub use types::{TlbAccess, TlbGeometry, TranslationKind};
pub use walker::PageWalker;
