//! Factored execution: one policy-invariant front-end pass, N tiny
//! L2-TLB replay back-ends.
//!
//! In this trace-driven in-order model, almost nothing the simulator
//! computes depends on the L2 TLB replacement policy. The branch unit,
//! the cache hierarchy and the private true-LRU L1 TLBs take no policy
//! feedback, so for a given trace the sequence of accesses that miss the
//! L1s and reach the unified L2 — `(pc, vpn, kind)` in order, merged
//! with the retired-branch and misprediction events — is identical for
//! every lineup policy. The control-flow state the history policies
//! read is a pure function of that invariant stream too: CHiRP's 16-bit
//! signature (paper §IV-B), GHRP's outcome history and perceptron
//! reuse's conditional-PC history. Only four things differ per policy:
//! L2 hit/miss outcomes, victim choices, the page walks (and PSC state)
//! the misses trigger, and the cycles those walks add.
//!
//! The [`FrontEnd`] therefore walks the trace once and emits a compact
//! [`EventSegment`] stream — per L2 access: vpn, page class
//! (instruction/data), set index and the history words the group's
//! policies read there (one precomputed CHiRP signature per distinct
//! signature configuration, one word per history column); per segment:
//! the instruction count and the policy-invariant cycle total (base +
//! cache penalties + branch penalties + L2-hit latencies). A
//! [`StreamLayout`] derived from the group's [`ReplayHints`] decides
//! those columns, and whether control events (retired branches,
//! mispredictions) are emitted at all: only a policy that keeps the
//! conservative default hints needs them, and no lineup policy does. Each [`Backend`] then
//! replays only `L2Tlb::access_at` + walker + residual cycle accounting
//! over that stream, skipping the control walk when its policy needs
//! none. Cycle totals are exact `u64` sums, so splitting them into an
//! invariant part (summed by the front end) and a per-backend walk part
//! reassociates nothing: [`Backend::finish_result`] is bit-identical to
//! `Simulator::run_columnar`, pinned by `tests/equivalence_matrix.rs`.
//!
//! Materialized and streamed groups run through one chunk driver: the
//! front end fills one reused segment per `CHUNK_SIZE` chunk and every
//! back-end replays it before the next chunk is decoded, so event
//! residency is O(chunk) on both paths.
//!
//! Decoding is burst-structured: 64 records are expanded at a time, page
//! numbers are derived in one pass over the pc/ea columns, and the
//! signature *finalisation* (the multiply/shift/xor of `hash16`) plus the
//! set-index masking run as batched word-parallel passes over the
//! burst's new events — only the history folds themselves stay
//! sequential, because each access's signature depends on the path
//! history left by the previous one.

use crate::config::SimConfig;
use crate::engine::{Cuts, Piece, CHUNK_SIZE};
use crate::metrics::RunResult;
use crate::telemetry::COUNTER_SCHEMA;
use chirp_branch::BranchUnit;
use chirp_core::signature::hash16;
use chirp_core::{ChirpConfig, SignatureBuilder};
use chirp_mem::MemoryHierarchy;
use chirp_telemetry::{EpochRow, EpochSampler};
use chirp_tlb::{
    HistoryColumn, L1FrontEnd, L2Tlb, PageWalker, ReplayHints, TlbAccess, TlbReplacementPolicy,
    TlbStats, TranslationKind,
};
use chirp_trace::{
    vpn, BranchClass, DecodedBlock, InstrKind, PackedTrace, StreamError, TraceChunk, TraceStream,
};

/// Records decoded per front-end burst.
const BURST: usize = 64;

/// Access events replayed per backend before the next backend takes the
/// same block — keeps every backend's L2 metadata cache-resident while
/// still letting their independent probe chains overlap.
const REPLAY_BLOCK: usize = 256;

/// Control-event kinds, packed into `ctl_kind` (low 2 bits; bit 6 marks
/// a misprediction, bit 7 the taken flag of a branch).
const CTL_COND: u8 = 0;
const CTL_UNCOND_INDIRECT: u8 = 1;
const CTL_UNCOND_DIRECT: u8 = 2;
const CTL_MISPREDICT: u8 = 1 << 6;
const CTL_TAKEN: u8 = 1 << 7;

/// What a [`FrontEnd`] records for one group of back-ends: one
/// precomputed-signature column per signature configuration, one word
/// per history column, and control events or not.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamLayout {
    /// Configuration of each signature column.
    signatures: Vec<ChirpConfig>,
    /// [`ChirpConfig::signature_code`] of each signature column.
    sig_codes: Vec<u64>,
    /// Kind of each history column.
    histories: Vec<HistoryColumn>,
    /// Whether the front end emits control events.
    control: bool,
}

impl StreamLayout {
    /// The one-configuration layout: one signature column under
    /// `sig_config`, every history column, and control events, so any
    /// policy replays exactly from it.
    fn single(sig_config: &ChirpConfig) -> StreamLayout {
        StreamLayout {
            signatures: vec![*sig_config],
            sig_codes: vec![sig_config.signature_code()],
            histories: HistoryColumn::ALL.to_vec(),
            control: true,
        }
    }

    /// The layout a group of policies with `hints` needs: a signature
    /// column for each distinct configuration of `sig_configs` some
    /// policy reads, the history columns some policy reads, and control
    /// events only if some policy still needs them once its columns are
    /// supplied.
    pub fn for_group(sig_configs: &[ChirpConfig], hints: &[ReplayHints]) -> StreamLayout {
        let mut layout = StreamLayout {
            signatures: Vec::new(),
            sig_codes: Vec::new(),
            histories: Vec::new(),
            control: false,
        };
        for config in sig_configs {
            let code = config.signature_code();
            if !layout.sig_codes.contains(&code) && hints.iter().any(|h| h.signature == Some(code))
            {
                layout.signatures.push(*config);
                layout.sig_codes.push(code);
            }
        }
        layout.histories = HistoryColumn::ALL
            .into_iter()
            .filter(|&column| hints.iter().any(|h| h.history == Some(column)))
            .collect();
        layout.control = hints
            .iter()
            .any(|&h| Reads::resolve(h, &layout.sig_codes, &layout.histories).needs_control());
        layout
    }

    /// Whether front ends of this layout emit control events.
    pub fn emits_control(&self) -> bool {
        self.control
    }
}

/// One policy's replay plan against a stream's columns: which signature
/// and history column (by index) it is supplied, and which control
/// events it is forwarded.
#[derive(Debug, Clone, Copy)]
struct Reads {
    sig: Option<usize>,
    hist: Option<usize>,
    branches: bool,
    mispredicts: bool,
}

impl Reads {
    /// Resolves `hints` against a stream carrying `sig_codes` and
    /// `histories`. A named column the stream lacks makes the replay
    /// conservative: no columns, every control event.
    fn resolve(hints: ReplayHints, sig_codes: &[u64], histories: &[HistoryColumn]) -> Reads {
        let sig = hints.signature.map(|code| sig_codes.iter().position(|&c| c == code));
        let hist = hints.history.map(|column| histories.iter().position(|&c| c == column));
        if matches!(sig, Some(None)) || matches!(hist, Some(None)) {
            return Reads { sig: None, hist: None, branches: true, mispredicts: true };
        }
        Reads {
            sig: sig.flatten(),
            hist: hist.flatten(),
            branches: hints.needs_branches,
            mispredicts: hints.needs_mispredicts,
        }
    }

    fn needs_control(&self) -> bool {
        self.branches || self.mispredicts
    }
}

/// One policy-invariant segment of the L2-TLB event stream, in
/// struct-of-arrays form.
///
/// A segment covers a contiguous run of instructions (the warmup half,
/// the measured half, or one chunk). Access events are the L1 misses
/// that reach the unified L2, in program order; control events (retired
/// branches, mispredictions) carry the number of access events emitted
/// before them, so replay can interleave the two streams exactly as the
/// full simulator would.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSegment {
    /// Per access event: the PC of the responsible instruction.
    acc_pc: Vec<u64>,
    /// Per access event: the virtual page number looked up.
    acc_vpn: Vec<u64>,
    /// Per access event: the precomputed L2 set index
    /// (`geometry.set_of(vpn)`), batch-masked per burst.
    acc_set: Vec<u32>,
    /// Per signature column, per access event: the precomputed CHiRP
    /// signature under that column's configuration, batch-hashed per
    /// burst.
    acc_sigs: Vec<Vec<u16>>,
    /// Per history column, per access event: the history word the access
    /// reads.
    acc_hist: Vec<Vec<u64>>,
    /// Per access event: the page class (0 = instruction, 1 = data).
    acc_kind: Vec<u8>,
    /// Per control event: how many access events precede it.
    ctl_after: Vec<u32>,
    /// Per control event: the branch PC.
    ctl_pc: Vec<u64>,
    /// Per control event: kind bits (`CTL_*`).
    ctl_kind: Vec<u8>,
    /// Instructions covered by this segment.
    instructions: u64,
    /// Policy-invariant cycles of this segment: base + cache penalties +
    /// branch penalties + one L2-hit latency per access event. Walk
    /// cycles are the backends' business.
    invariant_cycles: u64,
}

impl EventSegment {
    /// An empty segment shaped for `layout`, with room for the events of
    /// `records` instructions: each makes at most two L2 accesses
    /// (i-side, d-side) and at most two control events (mispredict,
    /// branch), so a chunk of that size never reallocates.
    fn sized(layout: &StreamLayout, records: usize) -> EventSegment {
        let acc = 2 * records;
        let ctl = if layout.control { 2 * records } else { 0 };
        EventSegment {
            acc_pc: Vec::with_capacity(acc),
            acc_vpn: Vec::with_capacity(acc),
            acc_set: Vec::with_capacity(acc),
            acc_sigs: layout.sig_codes.iter().map(|_| Vec::with_capacity(acc)).collect(),
            acc_hist: layout.histories.iter().map(|_| Vec::with_capacity(acc)).collect(),
            acc_kind: Vec::with_capacity(acc),
            ctl_after: Vec::with_capacity(ctl),
            ctl_pc: Vec::with_capacity(ctl),
            ctl_kind: Vec::with_capacity(ctl),
            instructions: 0,
            invariant_cycles: 0,
        }
    }

    /// Number of L2 access events in the segment.
    pub fn access_events(&self) -> usize {
        self.acc_pc.len()
    }

    /// Number of control (branch/mispredict) events in the segment.
    pub fn control_events(&self) -> usize {
        self.ctl_pc.len()
    }

    /// Instructions covered by the segment.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Empties the segment for reuse, keeping its allocations.
    pub fn clear(&mut self) {
        self.acc_pc.clear();
        self.acc_vpn.clear();
        self.acc_set.clear();
        self.acc_sigs.iter_mut().for_each(Vec::clear);
        self.acc_hist.iter_mut().for_each(Vec::clear);
        self.acc_kind.clear();
        self.ctl_after.clear();
        self.ctl_pc.clear();
        self.ctl_kind.clear();
        self.instructions = 0;
        self.invariant_cycles = 0;
    }

    /// Gives the segment `sigs` signature and `hists` history columns.
    fn shape(&mut self, sigs: usize, hists: usize) {
        if self.acc_sigs.len() != sigs {
            self.acc_sigs.resize_with(sigs, Vec::new);
        }
        if self.acc_hist.len() != hists {
            self.acc_hist.resize_with(hists, Vec::new);
        }
    }

    /// Serialises every column little-endian, length-prefixed — the
    /// byte-identity witness the policy-invariance proptest compares.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let len = |out: &mut Vec<u8>, n: usize| out.extend((n as u64).to_le_bytes());
        len(&mut out, self.acc_pc.len());
        for &v in &self.acc_pc {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.acc_vpn {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.acc_set {
            out.extend(v.to_le_bytes());
        }
        len(&mut out, self.acc_sigs.len());
        for &v in self.acc_sigs.iter().flatten() {
            out.extend(v.to_le_bytes());
        }
        len(&mut out, self.acc_hist.len());
        for &v in self.acc_hist.iter().flatten() {
            out.extend(v.to_le_bytes());
        }
        out.extend(&self.acc_kind);
        len(&mut out, self.ctl_after.len());
        for &v in &self.ctl_after {
            out.extend(v.to_le_bytes());
        }
        for &v in &self.ctl_pc {
            out.extend(v.to_le_bytes());
        }
        out.extend(&self.ctl_kind);
        out.extend(self.instructions.to_le_bytes());
        out.extend(self.invariant_cycles.to_le_bytes());
        out
    }
}

/// The one-configuration event stream of one materialized trace, split
/// at the warmup boundary into the two segments
/// [`Backend::finish_result`] needs. Production groups stream through
/// the chunk driver instead ([`run_factored_group`]); this whole-trace
/// form serves per-layer probes that time the front end and each
/// back-end separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactoredTrace {
    /// Events of the warmup prefix (may be empty).
    pub warmup: EventSegment,
    /// Events of the measured suffix (may be empty).
    pub measured: EventSegment,
    /// Identity of the signature configuration the signature column was
    /// computed under ([`ChirpConfig::signature_code`]).
    pub sig_code: u64,
}

impl FactoredTrace {
    /// Runs the one-configuration front end ([`FrontEnd::new`]) over the
    /// whole trace, cutting the warmup boundary at the exact instruction
    /// index `run_columnar` uses.
    pub fn build(
        config: &SimConfig,
        trace: &PackedTrace,
        warmup_fraction: f64,
        sig_config: &ChirpConfig,
    ) -> FactoredTrace {
        let mut fe = FrontEnd::new(config, sig_config);
        let mut warm = EventSegment::default();
        let mut meas = EventSegment::default();
        let mut measuring = false;
        Cuts::new(trace.len(), warmup_fraction, None).feed(trace, |piece| match piece {
            Piece::Records(chunk) => {
                fe.process_chunk(&chunk, if measuring { &mut meas } else { &mut warm })
            }
            Piece::Warmup => measuring = true,
            Piece::Epoch(_) => {}
        });
        FactoredTrace { warmup: warm, measured: meas, sig_code: sig_config.signature_code() }
    }

    /// Total L2 access events across both segments.
    pub fn access_events(&self) -> usize {
        self.warmup.access_events() + self.measured.access_events()
    }

    /// Total control events across both segments.
    pub fn control_events(&self) -> usize {
        self.warmup.control_events() + self.measured.control_events()
    }

    /// Total instructions across both segments.
    pub fn instructions(&self) -> u64 {
        self.warmup.instructions() + self.measured.instructions()
    }

    /// Concatenated [`EventSegment::wire_bytes`] of both segments plus
    /// the signature code.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = self.warmup.wire_bytes();
        out.extend(self.measured.wire_bytes());
        out.extend(self.sig_code.to_le_bytes());
        out
    }
}

/// One signature column's state in the front end.
struct SigColumn {
    builder: SignatureBuilder,
    /// `wrong_path_pollution` of the column's configuration: the front
    /// end folds the same deterministic pseudo wrong-path events into
    /// the column's histories that a matching CHiRP back-end would.
    pollution: u32,
    /// 64-bit pre-hash signature compositions of the burst's new access
    /// events, finalised in one batched `hash16` pass per burst.
    pre: Vec<u64>,
}

/// The policy-invariant half of the machine: caches, branch unit, L1
/// TLBs, plus the history state behind its layout's columns.
pub struct FrontEnd {
    mem: MemoryHierarchy,
    branch: BranchUnit,
    l1: L1FrontEnd,
    sigs: Vec<SigColumn>,
    /// Kind and current word of each history column.
    hists: Vec<(HistoryColumn, u64)>,
    control: bool,
    l2_hit_latency: u64,
    /// `sets - 1` of the L2 geometry, for the batched set-index pass.
    set_mask: u64,
    /// Decoded columns for the in-flight burst.
    block: DecodedBlock,
    ivpns: Vec<u64>,
    dvpns: Vec<u64>,
}

impl FrontEnd {
    /// Builds the one-configuration front end for `config`: signatures
    /// under `sig_config`, every history column and control events, so
    /// any policy replays exactly from its stream.
    pub fn new(config: &SimConfig, sig_config: &ChirpConfig) -> FrontEnd {
        FrontEnd::with_layout(config, &StreamLayout::single(sig_config))
    }

    /// Builds the front end for `config` recording `layout`'s columns.
    pub fn with_layout(config: &SimConfig, layout: &StreamLayout) -> FrontEnd {
        FrontEnd {
            mem: MemoryHierarchy::new(config.mem),
            branch: BranchUnit::new(config.branch),
            l1: L1FrontEnd::new(&config.tlb),
            sigs: layout
                .signatures
                .iter()
                .map(|c| SigColumn {
                    builder: SignatureBuilder::new(c),
                    pollution: c.wrong_path_pollution,
                    pre: Vec::with_capacity(2 * BURST),
                })
                .collect(),
            hists: layout.histories.iter().map(|&column| (column, 0)).collect(),
            control: layout.control,
            l2_hit_latency: config.tlb.l2_hit_latency,
            set_mask: (config.tlb.l2.sets() - 1) as u64,
            block: DecodedBlock::with_capacity(BURST),
            ivpns: Vec::with_capacity(BURST),
            dvpns: Vec::with_capacity(BURST),
        }
    }

    /// Feeds one trace chunk through the front end, appending its events
    /// to `seg`.
    pub fn process_chunk(&mut self, chunk: &TraceChunk<'_>, seg: &mut EventSegment) {
        seg.shape(self.sigs.len(), self.hists.len());
        let mut cursor = chunk.cursor();
        while cursor.remaining() > 0 {
            let burst = cursor.remaining().min(BURST);
            let n = cursor.decode_into(&mut self.block, burst);
            debug_assert_eq!(n, burst);
            // Batched page-number derivation over the burst's columns.
            self.ivpns.clear();
            self.ivpns.extend(self.block.pcs.iter().map(|&pc| vpn(pc)));
            self.dvpns.clear();
            self.dvpns.extend(self.block.eas.iter().map(|&ea| vpn(ea)));
            let acc_base = seg.acc_pc.len();
            for column in &mut self.sigs {
                column.pre.clear();
            }
            for k in 0..burst {
                self.step_record(k, seg);
            }
            // Batched finalisation of the burst's new access events: the
            // multiply/shift/xor of `hash16` and the set masking are
            // data-independent across events, so these passes
            // auto-vectorise where the in-loop form could not.
            for (column, out) in self.sigs.iter().zip(&mut seg.acc_sigs) {
                debug_assert_eq!(out.len(), acc_base);
                out.extend(column.pre.iter().map(|&p| hash16(p)));
            }
            seg.acc_set.extend(seg.acc_vpn[acc_base..].iter().map(|&v| (v & self.set_mask) as u32));
        }
    }

    /// Mirrors `Simulator::step` minus the L2/walker: same event
    /// order (i-access, d-access, mispredict, branch), same cycle terms
    /// except the walk.
    #[inline]
    fn step_record(&mut self, k: usize, seg: &mut EventSegment) {
        let rec = self.block.record(k);
        let mut cycles = 1u64;

        if !self.l1.hit(self.ivpns[k], TranslationKind::Instruction) {
            self.emit_access(rec.pc, self.ivpns[k], 0, seg);
            cycles += self.l2_hit_latency;
        }
        cycles += self.mem.fetch(rec.pc).saturating_sub(4);

        if rec.kind.is_memory() {
            let ea = rec.effective_address;
            if !self.l1.hit(self.dvpns[k], TranslationKind::Data) {
                self.emit_access(rec.pc, self.dvpns[k], 1, seg);
                cycles += self.l2_hit_latency;
            }
            let lat = match rec.kind {
                InstrKind::Load => self.mem.load(ea),
                InstrKind::Store => self.mem.store(ea),
                _ => unreachable!("is_memory() covers loads and stores only"),
            };
            cycles += lat.saturating_sub(4);
        }

        let penalty = self.branch.observe(&rec);
        cycles += penalty;
        if penalty > 0 {
            self.emit_control(CTL_MISPREDICT, rec.pc, seg);
            // Fold the same pseudo wrong-path events a matching CHiRP
            // back-end would (its `on_mispredict`), so the precomputed
            // signatures remain exact under pollution configurations.
            for column in &mut self.sigs {
                for i in 0..column.pollution {
                    let bogus = rec.pc ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    column.builder.record_branch(bogus, BranchClass::Conditional);
                    column.builder.record_access(bogus);
                }
            }
        }
        if let Some(class) = rec.kind.branch_class() {
            let code = match class {
                BranchClass::Conditional => CTL_COND,
                BranchClass::UnconditionalIndirect => CTL_UNCOND_INDIRECT,
                BranchClass::UnconditionalDirect => CTL_UNCOND_DIRECT,
            } | if rec.taken { CTL_TAKEN } else { 0 };
            self.emit_control(code, rec.pc, seg);
            for column in &mut self.sigs {
                column.builder.record_branch(rec.pc, class);
            }
            for (column, word) in &mut self.hists {
                *word = column.fold(*word, rec.pc, class, rec.taken);
            }
        }

        seg.instructions += 1;
        seg.invariant_cycles += cycles;
    }

    /// Emits one L2 access event. Signature compositions and history
    /// words are read *before* the access is folded into the path
    /// history — the order the policies' `on_hit`/`on_fill` observe. Set
    /// index and final hash are filled by the burst's batched pass.
    #[inline]
    fn emit_access(&mut self, pc: u64, page: u64, kind: u8, seg: &mut EventSegment) {
        seg.acc_pc.push(pc);
        seg.acc_vpn.push(page);
        seg.acc_kind.push(kind);
        for column in &mut self.sigs {
            column.pre.push(column.builder.compose(pc));
            column.builder.record_access(pc);
        }
        for (&(_, word), out) in self.hists.iter().zip(&mut seg.acc_hist) {
            out.push(word);
        }
    }

    #[inline]
    fn emit_control(&mut self, code: u8, pc: u64, seg: &mut EventSegment) {
        if self.control {
            seg.ctl_after.push(seg.acc_pc.len() as u32);
            seg.ctl_pc.push(pc);
            seg.ctl_kind.push(code);
        }
    }

    /// L1 statistics: (i-TLB hits, i-TLB misses, d-TLB hits, d-TLB
    /// misses) — identical to the full hierarchy's, since the L1s are
    /// policy-free.
    pub fn l1_stats(&self) -> (u64, u64, u64, u64) {
        self.l1.l1_stats()
    }
}

/// The per-policy half: the unified L2 TLB, its replacement policy, the
/// page walker (and PSC) whose state depends on the policy's miss
/// sequence, and the residual cycle accounting.
pub struct Backend<P: TlbReplacementPolicy> {
    l2: L2Tlb<P>,
    walker: PageWalker,
    reads: Reads,
    cycles: u64,
    instructions: u64,
}

impl<P: TlbReplacementPolicy> Backend<P> {
    /// Builds a backend for `policy` replaying a one-configuration stream
    /// ([`FrontEnd::new`]) whose signature column has code `sig_code`.
    pub fn new(config: &SimConfig, policy: P, sig_code: u64) -> Backend<P> {
        Backend::with_columns(config, policy, &[sig_code], &HistoryColumn::ALL)
    }

    /// Builds a backend for `policy` replaying a stream of `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the policy needs control events the layout does not
    /// emit, i.e. it was not among the hints the layout was built from.
    pub(crate) fn for_layout(config: &SimConfig, policy: P, layout: &StreamLayout) -> Backend<P> {
        let backend = Backend::with_columns(config, policy, &layout.sig_codes, &layout.histories);
        assert!(
            layout.control || !backend.reads.needs_control(),
            "policy {} needs control events its stream layout does not emit",
            backend.l2.policy().name()
        );
        backend
    }

    fn with_columns(
        config: &SimConfig,
        policy: P,
        sig_codes: &[u64],
        histories: &[HistoryColumn],
    ) -> Backend<P> {
        let mut walker = PageWalker::new(config.tlb.walk_penalty);
        if let Some((entries, hit_penalty)) = config.tlb.psc {
            walker = walker.with_psc(entries, hit_penalty);
        }
        let reads = Reads::resolve(policy.replay_hints(), sig_codes, histories);
        Backend { l2: L2Tlb::new(config.tlb.l2, policy), walker, reads, cycles: 0, instructions: 0 }
    }

    /// Replays access events `range` of `seg`, draining control events
    /// interleaved before each access if the policy needs them. `ctl` is
    /// this backend's control cursor into the segment.
    #[inline]
    fn replay_range(&mut self, seg: &EventSegment, range: std::ops::Range<usize>, ctl: &mut usize) {
        let walk = self.reads.needs_control();
        let sigs = self.reads.sig.map(|c| seg.acc_sigs[c].as_slice());
        let hists = self.reads.hist.map(|c| seg.acc_hist[c].as_slice());
        for i in range {
            if walk {
                while *ctl < seg.ctl_after.len() && seg.ctl_after[*ctl] as usize <= i {
                    self.apply_control(seg, *ctl);
                    *ctl += 1;
                }
            }
            if let Some(sigs) = sigs {
                self.l2.supply_signature(sigs[i]);
            }
            if let Some(hists) = hists {
                self.l2.supply_history(hists[i]);
            }
            let acc = TlbAccess {
                pc: seg.acc_pc[i],
                vpn: seg.acc_vpn[i],
                kind: if seg.acc_kind[i] == 0 {
                    TranslationKind::Instruction
                } else {
                    TranslationKind::Data
                },
                set: seg.acc_set[i] as usize,
            };
            let outcome = self.l2.access_at(acc);
            if !outcome.hit {
                self.cycles += self.walker.walk(acc.vpn);
            }
        }
    }

    #[inline]
    fn apply_control(&mut self, seg: &EventSegment, i: usize) {
        let kind = seg.ctl_kind[i];
        if kind & CTL_MISPREDICT != 0 {
            if self.reads.mispredicts {
                self.l2.on_mispredict(seg.ctl_pc[i]);
            }
        } else if self.reads.branches {
            let class = match kind & 0x3 {
                CTL_COND => BranchClass::Conditional,
                CTL_UNCOND_INDIRECT => BranchClass::UnconditionalIndirect,
                _ => BranchClass::UnconditionalDirect,
            };
            self.l2.on_branch(seg.ctl_pc[i], class, kind & CTL_TAKEN != 0);
        }
    }

    /// Finishes a segment after its access events ran: drains trailing
    /// control events and adds the segment's invariant totals.
    fn finish_segment(&mut self, seg: &EventSegment, ctl: &mut usize) {
        if self.reads.needs_control() {
            while *ctl < seg.ctl_after.len() {
                self.apply_control(seg, *ctl);
                *ctl += 1;
            }
        }
        self.cycles += seg.invariant_cycles;
        self.instructions += seg.instructions;
    }

    /// Replays one whole segment.
    pub fn replay(&mut self, seg: &EventSegment) {
        let mut ctl = 0usize;
        self.replay_range(seg, 0..seg.access_events(), &mut ctl);
        self.finish_segment(seg, &mut ctl);
    }

    /// Snapshot of machine state at the start of the measured window
    /// (mirrors `Simulator::window_start`).
    pub fn window_start(&self) -> (u64, u64, TlbStats) {
        (self.cycles, self.instructions, self.l2.stats())
    }

    /// Assembles the [`RunResult`] for the window opened by
    /// [`window_start`](Self::window_start) — the same field recipe as
    /// `Simulator::finish_result`.
    pub fn finish_result(
        &self,
        (cycles0, instructions0, stats0): (u64, u64, TlbStats),
    ) -> RunResult {
        let stats1 = self.l2.stats();
        let measured = TlbStats {
            hits: stats1.hits - stats0.hits,
            misses: stats1.misses - stats0.misses,
            dead_evictions: stats1.dead_evictions - stats0.dead_evictions,
            cold_fills: stats1.cold_fills - stats0.cold_fills,
        };
        RunResult {
            policy: self.l2.policy().name().to_string(),
            instructions: self.instructions - instructions0,
            cycles: self.cycles - cycles0,
            l2_tlb: measured,
            l2_accesses: measured.accesses(),
            prediction_table_accesses: self.l2.policy().prediction_table_accesses(),
            l2_accesses_total: stats1.accesses(),
            efficiency: self.l2.efficiency(),
        }
    }

    /// The backend's L2 TLB (stats, efficiency, policy state).
    pub fn l2(&self) -> &L2Tlb<P> {
        &self.l2
    }

    /// Absolute telemetry counter values, in [`COUNTER_SCHEMA`] order.
    fn telemetry_counters(&self) -> [u64; COUNTER_SCHEMA.len()] {
        let stats = self.l2.stats();
        let outcomes = self.l2.dead_outcomes();
        [
            self.cycles,
            stats.hits,
            stats.misses,
            stats.cold_fills,
            stats.dead_evictions,
            self.l2.policy().prediction_table_accesses(),
            outcomes.true_dead,
            outcomes.false_dead,
            outcomes.true_live,
            outcomes.false_live,
        ]
    }
}

/// Replays one segment through every backend, block-interleaved: each
/// backend replays `REPLAY_BLOCK` (256) access events before the next
/// backend takes the same block, so all backends' L2 state stays
/// cache-resident and their independent probe chains overlap.
/// `cursors` holds one control cursor per backend.
fn replay_group<P: TlbReplacementPolicy>(
    backends: &mut [Backend<P>],
    seg: &EventSegment,
    cursors: &mut [usize],
) {
    cursors.fill(0);
    let n = seg.access_events();
    let mut start = 0usize;
    while start < n {
        let end = (start + REPLAY_BLOCK).min(n);
        for (backend, ctl) in backends.iter_mut().zip(cursors.iter_mut()) {
            backend.replay_range(seg, start..end, ctl);
        }
        start = end;
    }
    for (backend, ctl) in backends.iter_mut().zip(cursors.iter_mut()) {
        backend.finish_segment(seg, ctl);
    }
}

/// The chunk driver behind [`run_factored_group`], [`run_stream_factored`]
/// and [`crate::run_suite_telemetry`]: the front end fills one reused
/// segment per chunk piece between [`Cuts`], every backend replays it,
/// the measured window opens at the warmup cut and, with epochs on, each
/// backend's [`EpochSampler`] takes its counters at every epoch cut.
/// Everything but the epoch rows is allocated at construction, so feeding
/// chunks allocates nothing and sampling allocates once per epoch.
pub(crate) struct GroupRun<P: TlbReplacementPolicy> {
    fe: FrontEnd,
    backends: Vec<Backend<P>>,
    seg: EventSegment,
    cursors: Vec<usize>,
    windows: Vec<(u64, u64, TlbStats)>,
    /// One per backend once the window is open, with epochs on.
    samplers: Vec<EpochSampler>,
    epoch: Option<u64>,
    cuts: Cuts,
}

impl<P: TlbReplacementPolicy> GroupRun<P> {
    /// A group over a `len`-record trace; `epoch` is the epoch length
    /// when epochs are on.
    pub(crate) fn new(
        config: &SimConfig,
        sig_configs: &[ChirpConfig],
        policies: Vec<P>,
        len: usize,
        warmup_fraction: f64,
        epoch: Option<u64>,
    ) -> GroupRun<P> {
        let hints: Vec<ReplayHints> = policies.iter().map(|p| p.replay_hints()).collect();
        let layout = StreamLayout::for_group(sig_configs, &hints);
        let mut backends: Vec<Backend<P>> =
            policies.into_iter().map(|p| Backend::for_layout(config, p, &layout)).collect();
        if epoch.is_some() {
            backends.iter_mut().for_each(|b| b.l2.enable_outcome_tracking());
        }
        GroupRun {
            fe: FrontEnd::with_layout(config, &layout),
            seg: EventSegment::sized(&layout, CHUNK_SIZE),
            cursors: vec![0; backends.len()],
            windows: Vec::with_capacity(backends.len()),
            samplers: Vec::new(),
            backends,
            epoch,
            cuts: Cuts::new(len, warmup_fraction, epoch),
        }
    }

    /// Feeds one batch of the trace.
    pub(crate) fn feed(&mut self, batch: &PackedTrace) {
        let mut cuts = self.cuts;
        cuts.feed(batch, |piece| self.take(piece));
        self.cuts = cuts;
    }

    fn take(&mut self, piece: Piece<'_>) {
        match piece {
            Piece::Records(chunk) => {
                self.seg.clear();
                self.fe.process_chunk(&chunk, &mut self.seg);
                replay_group(&mut self.backends, &self.seg, &mut self.cursors);
            }
            Piece::Warmup => self.open_window(),
            Piece::Epoch(instructions) => {
                for (b, sampler) in self.backends.iter().zip(&mut self.samplers) {
                    sampler.sample(instructions, &b.telemetry_counters(), vec![b.l2.occupancy()]);
                }
            }
        }
    }

    fn open_window(&mut self) {
        self.windows.extend(self.backends.iter().map(Backend::window_start));
        if let Some(epoch) = self.epoch {
            let baselines = self.backends.iter().map(|b| b.telemetry_counters().to_vec());
            self.samplers.extend(baselines.map(|counters| EpochSampler::new(epoch, counters)));
        }
    }

    /// Flushes each backend's final, partial epoch and returns its rows,
    /// in input order; none with epochs off or before the warmup cut.
    pub(crate) fn take_epochs(&mut self) -> Vec<Vec<EpochRow>> {
        let pending = self.cuts.pending();
        (std::mem::take(&mut self.samplers).into_iter().zip(&self.backends))
            .map(|(s, b)| s.finish(pending, &b.telemetry_counters(), vec![b.l2.occupancy()]))
            .collect()
    }

    /// Closes the run: one `(result, backend)` per policy, in input order.
    pub(crate) fn finish(mut self) -> Vec<(RunResult, Backend<P>)> {
        if self.windows.is_empty() {
            self.open_window();
        }
        (self.backends.into_iter().zip(self.windows))
            .map(|(backend, window)| (backend.finish_result(window), backend))
            .collect()
    }
}

/// One front-end pass + N policy back-ends over a materialized trace:
/// the factored equivalent of running `Simulator::run_columnar` once per
/// policy. The front end records a signature column for each
/// configuration of `sig_configs` a policy reads, the history columns
/// the policies read, and control events only if some policy keeps the
/// conservative [`ReplayHints`]. Returns `(result, backend)` pairs in
/// input order, each bit-identical to `Simulator::run_columnar` of the
/// same unit.
pub fn run_factored_group<P: TlbReplacementPolicy>(
    config: &SimConfig,
    trace: &PackedTrace,
    warmup_fraction: f64,
    sig_configs: &[ChirpConfig],
    policies: Vec<P>,
) -> Vec<(RunResult, Backend<P>)> {
    let mut run = GroupRun::new(config, sig_configs, policies, trace.len(), warmup_fraction, None);
    run.feed(trace);
    run.finish()
}

/// The streamed form of [`run_factored_group`]: pulls bounded batches
/// and feeds them through the same chunk driver — peak event residency
/// is O(chunk), and results are bit-identical to one
/// [`crate::Simulator::run_stream`] per policy over the same stream.
///
/// # Errors
///
/// Propagates the stream's first error; all backends are then mid-trace
/// and the batch of runs must be retried from scratch.
pub fn run_stream_factored<P: TlbReplacementPolicy, S: TraceStream + ?Sized>(
    config: &SimConfig,
    sig_configs: &[ChirpConfig],
    policies: Vec<P>,
    stream: &mut S,
    warmup_fraction: f64,
) -> Result<Vec<(RunResult, Backend<P>)>, StreamError> {
    let mut run = GroupRun::new(config, sig_configs, policies, stream.len(), warmup_fraction, None);
    while let Some(batch) = stream.next_batch()? {
        run.feed(&batch);
    }
    Ok(run.finish())
}

/// The distinct CHiRP signature configurations of a group, in member
/// order: the signature columns its front end records.
pub fn group_sig_configs<'a, I>(kinds: I) -> Vec<ChirpConfig>
where
    I: IntoIterator<Item = &'a crate::PolicyKind>,
{
    let mut configs: Vec<ChirpConfig> = Vec::new();
    for kind in kinds {
        if let crate::PolicyKind::Chirp(c) = kind {
            if configs.iter().all(|have| have.signature_code() != c.signature_code()) {
                configs.push(*c);
            }
        }
    }
    configs
}

/// The signature configuration a one-configuration front end
/// ([`FrontEnd::new`]) computes under for a group: the first CHiRP
/// member's (so the common lineup precomputes exactly the signatures its
/// headline policy needs), else the default.
pub fn group_sig_config<'a, I>(kinds: I) -> ChirpConfig
where
    I: IntoIterator<Item = &'a crate::PolicyKind>,
{
    group_sig_configs(kinds).first().copied().unwrap_or_default()
}
