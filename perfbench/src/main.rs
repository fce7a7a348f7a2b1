//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints context lines and every metric with its
//! unit, and ends with one JSON result line. Exits 1 when any output
//! failed its check, 2 on a usage error.

use chirp_perfbench::report::{json_str, result_line, Outcome};
use chirp_perfbench::{batch, serving, RunArgs, Scale, DEV_SEED, END_TO_END, WORKLOADS};
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

const USAGE: &str = "usage: perfbench --workload <lineup9_gen|penalty_sweep_archive|serve_mixed> \
--seed <n> --seconds <s> --trace <0|1> [--workdir DIR] [--spans-out FILE] [--scale full|tiny] \
[--commit ID]";

/// Worker threads and client connections: two, or fewer on a smaller
/// machine, so the workload is the same wherever two cores exist.
const THREADS: usize = 2;

fn parse(argv: impl Iterator<Item = String>) -> Result<(RunArgs, String), String> {
    let mut flags = std::collections::HashMap::new();
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    const KNOWN: [&str; 8] =
        ["workload", "seed", "seconds", "trace", "workdir", "spans-out", "scale", "commit"];
    if let Some(unknown) = flags.keys().find(|k| !KNOWN.contains(&k.as_str())) {
        return Err(format!("unknown flag --{unknown}"));
    }
    let take = |name: &str| flags.get(name).cloned();
    let workload = take("workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = take("seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = take("seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match take("trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let scale = match take("scale").as_deref() {
        Some("full") | None => Scale::FULL,
        Some("tiny") => Scale::TINY,
        Some(other) => return Err(format!("unknown scale {other:?}")),
    };
    let workdir = PathBuf::from(
        take("workdir").unwrap_or_else(|| format!(".bench_work/run-{}", std::process::id())),
    );
    let spans_out =
        PathBuf::from(take("spans-out").unwrap_or_else(|| format!("spans-{workload}.jsonl")));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(nproc);
    let args = RunArgs { workload, seed, seconds, trace, workdir, spans_out, threads, scale };
    Ok((args, take("commit").unwrap_or_else(|| "unknown".into())))
}

/// The per-run provenance line.
fn stamp(args: &RunArgs, commit: &str) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |h| h.trim().to_string());
    let date = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = if args.workload == "serve_mixed" { args.threads } else { 0 };
    let arenas = std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "default".into());
    format!(
        "{{\"commit\": {{\"id\": {}}}, \"date\": {date}, \"tool\": \"cargo\", \"host\": {}, \"nproc\": {nproc}, \
         \"threads\": {}, \"connections\": {connections}, \"workload\": {}, \"seed\": {}, \"dev_seed\": {DEV_SEED}, \
         \"held_out_seed\": {}, \"trace\": {}, \"scale\": {}, \"malloc_arena_max\": {}}}",
        json_str(commit),
        json_str(&host),
        args.threads,
        json_str(&args.workload),
        args.seed,
        args.seed != DEV_SEED,
        args.trace,
        json_str(if args.scale == Scale::TINY { "tiny" } else { "full" }),
        json_str(&arenas),
    )
}

fn main() {
    let (args, commit) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.workdir) {
        eprintln!("perfbench: create {}: {e}", args.workdir.display());
        std::process::exit(1);
    }
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "lineup9_gen" => batch::lineup9_gen(&args, &mut out),
        "penalty_sweep_archive" => batch::penalty_sweep_archive(&args, &mut out),
        _ => serving::serve_mixed(&args, &mut out),
    };
    let _ = std::fs::remove_dir_all(&args.workdir);
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }

    println!("stamp {}", stamp(&args, &commit));
    for note in &out.notes {
        println!("{note}");
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("fail_ratio = {fail_ratio} ({} failed of {} attempted)", out.failed, out.attempted);
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let selected: Vec<_> = out
        .metrics
        .iter()
        .filter(|m| END_TO_END.contains(&m.name.as_str()) != args.trace)
        .cloned()
        .collect();
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", result_line(correct, out.attempted, out.failed, &selected));
    if !correct {
        std::process::exit(1);
    }
}
