//! Criterion benches for the substrate crates: trace generation and codec,
//! cache hierarchy, branch unit and TLB hierarchy throughput.

use chirp_branch::{BranchConfig, BranchUnit};
use chirp_mem::{HierarchyConfig, MemoryHierarchy};
use chirp_store::{ArchiveOutcome, ArchiveTraceStream, TempDir, TraceArchive};
use chirp_tlb::policies::Lru;
use chirp_tlb::{TlbHierarchy, TlbHierarchyConfig, TranslationKind};
use chirp_trace::gen::{ContextCopy, ScanIndex, WebServe, WorkloadGen};
use chirp_trace::stream::TraceStream;
use chirp_trace::{read_trace, read_trace_packed, vpn, write_trace, PackedTrace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation_100k");
    group.throughput(Throughput::Elements(100_000));
    group
        .bench_function("context_copy", |b| b.iter(|| ContextCopy::default().generate(100_000, 1)));
    group.bench_function("scan_index", |b| b.iter(|| ScanIndex::default().generate(100_000, 1)));
    group.bench_function("web_serve", |b| b.iter(|| WebServe::default().generate(100_000, 1)));
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let trace = ContextCopy::default().generate(100_000, 1);
    let bytes = write_trace(&trace);
    let mut group = c.benchmark_group("trace_codec_100k");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("encode", |b| b.iter(|| write_trace(&trace)));
    group.bench_function("decode", |b| b.iter(|| read_trace(&bytes).unwrap()));
    group.bench_function("decode_packed", |b| b.iter(|| read_trace_packed(&bytes).unwrap()));

    // The archive replay path: a checksummed file streamed in batches.
    let root = TempDir::new("bench-codec");
    let mut archive = TraceArchive::open(root.path()).unwrap();
    let encoded = TraceArchive::encode_packed(&PackedTrace::from_records(&trace));
    let key = encoded.checksum;
    TraceArchive::store_file(&archive.trace_path(key), &encoded).unwrap();
    archive.commit(key, &encoded, ArchiveOutcome::MissGenerated).unwrap();
    let (path, meta) = (archive.trace_path(key), archive.entry_meta(key).unwrap());
    group.bench_function("archive_stream", |b| {
        b.iter(|| {
            let mut stream = ArchiveTraceStream::open(&path, meta, 65_536).unwrap();
            let mut records = 0;
            while let Some(batch) = stream.next_batch().unwrap() {
                records += batch.len();
            }
            records
        })
    });
    group.finish();
}

fn bench_memory(c: &mut Criterion) {
    let trace = ScanIndex::default().generate(50_000, 1);
    let mut group = c.benchmark_group("substrates");
    group.bench_function("memory_hierarchy_50k", |b| {
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
            let mut total = 0u64;
            for r in &trace {
                total += mem.fetch(r.pc);
                if r.kind.is_memory() {
                    total += mem.load(r.effective_address);
                }
            }
            total
        })
    });
    group.bench_function("branch_unit_50k", |b| {
        b.iter(|| {
            let mut bu = BranchUnit::new(BranchConfig::default());
            let mut total = 0u64;
            for r in &trace {
                total += bu.observe(r);
            }
            total
        })
    });
    group.bench_function("tlb_hierarchy_50k", |b| {
        b.iter(|| {
            let config = TlbHierarchyConfig::default();
            let mut tlbs = TlbHierarchy::new(config, Box::new(Lru::new(config.l2)));
            let mut total = 0u64;
            for r in &trace {
                total += tlbs.translate(r.pc, vpn(r.pc), TranslationKind::Instruction).cycles;
                if r.kind.is_memory() {
                    total += tlbs
                        .translate(r.pc, vpn(r.effective_address), TranslationKind::Data)
                        .cycles;
                }
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generators, bench_codec, bench_memory);
criterion_main!(benches);
