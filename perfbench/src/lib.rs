//! The repository benchmark: one command per workload that measures the
//! CHiRP reproduction end to end, checks its outputs against the
//! per-record oracle, and (traced) reports where the time goes layer by
//! layer.
//!
//! Every layer is measured from outside, by timing calls into the
//! public functions of its crate. See `README.md` for the workloads,
//! the metrics and which end-to-end number each layer metric moves.

pub mod batch;
mod inputs;
mod oracle;
pub mod pace;
mod probes;
pub mod report;
pub mod serving;
mod spans;

use std::path::PathBuf;

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["lineup9_gen", "penalty_sweep_archive", "serve_mixed"];

/// The end-to-end metrics, printed by an untraced run; a traced run
/// prints every other metric.
pub const END_TO_END: [&str; 7] = [
    "sim_minstr_per_s",
    "setup_s",
    "peak_rss_mib",
    "req_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "chirp_mpki_reduction_pct",
];

/// The workload seed used while the benchmark was being written. Claims
/// made with this seed should be re-checked on another one.
pub const DEV_SEED: u64 = 1;

/// Input sizes of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Benchmarks in each batch workload's suite.
    pub benchmarks: usize,
    /// Instructions per batch benchmark trace.
    pub instructions: usize,
    /// Distinct traces in the `serve_mixed` upload pool.
    pub serve_pool: usize,
    /// Instructions per `serve_mixed` trace.
    pub serve_instructions: usize,
    /// Times each set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Repetitions of each traced-pipeline variant (spans on, spans off).
    pub traced_reps: usize,
    /// Requests the serving probe issues on the batch workloads.
    pub serve_probe_requests: usize,
}

impl Scale {
    /// The size every measured run uses.
    pub const FULL: Scale = Scale {
        benchmarks: 16,
        instructions: 200_000,
        serve_pool: 32,
        serve_instructions: 100_000,
        setup_reps: 5,
        traced_reps: 3,
        serve_probe_requests: 32,
    };

    /// A seconds-long size for the benchmark's own smoke tests.
    pub const TINY: Scale = Scale {
        benchmarks: 3,
        instructions: 12_000,
        serve_pool: 4,
        serve_instructions: 6_000,
        setup_reps: 2,
        traced_reps: 1,
        serve_probe_requests: 8,
    };
}

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for stores; created and removed by the run.
    pub workdir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
    /// Worker threads and client connections.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
}
