//! Metric records, order statistics and the result line.

use chirp_sim::RunResult;
use chirp_store::Fnv64;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `ns/instr`.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measurements, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: simulated or ledger-answered units on the
    /// batch workloads, requests on `serve_mixed`, plus oracle checks.
    pub attempted: u64,
    /// Operations that failed: errors, dropped requests and every
    /// result that disagreed with its oracle.
    pub failed: u64,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failed unless `ok`; a failure is
    /// described in the notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("MISMATCH {}", what()));
        }
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values.into_iter().fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Percentile `q` (0..=1) of ascending `sorted` samples, interpolated
/// linearly between the two nearest order statistics (numpy's default);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else { return 0.0 };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (pos - lo as f64) * (hi - sorted[lo]),
        None => last,
    }
}

/// Equal time windows the timed phase is cut into for the serving tail
/// figure: a median over windows is not moved by a stall that fills one
/// of them.
pub const WINDOWS: usize = 7;

/// Indices of operations per window, by completion time `end_s`
/// (seconds since the timed phase began) over `span_s` seconds; later
/// completions fall in the last window.
fn windows(end_s: &[f64], span_s: f64) -> Vec<Vec<usize>> {
    let width = span_s / WINDOWS as f64;
    let mut out = vec![Vec::new(); WINDOWS];
    for (i, &t) in end_s.iter().enumerate() {
        let w = if width > 0.0 { (t / width) as usize } else { WINDOWS };
        out[w.min(WINDOWS - 1)].push(i);
    }
    out
}

/// The median over non-empty windows of each window's 99th-percentile
/// `latency`, and the fewest samples any of those windows held.
pub fn windowed_p99(end_s: &[f64], latency: &[f64], span_s: f64) -> (f64, usize) {
    let per: Vec<(f64, usize)> = windows(end_s, span_s)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut v: Vec<f64> = w.iter().map(|&i| latency[i]).collect();
            v.sort_by(f64::total_cmp);
            (percentile(&v, 0.99), v.len())
        })
        .collect();
    let p99s: Vec<f64> = per.iter().map(|p| p.0).collect();
    (median(&p99s), per.iter().map(|p| p.1).min().unwrap_or(0))
}

/// The median over consecutive runs of `per` operations (in completion
/// order; a shorter remainder joins the last run) of each run's
/// 99th-percentile `latency`, and the number of runs. Unlike time
/// windows, a run holds the same number of operations however fast the
/// program is, so the figure estimates the same quantile on every
/// commit.
pub fn run_p99(latency: &[f64], per: usize) -> (f64, usize) {
    let mut runs: Vec<Vec<f64>> = latency.chunks(per.max(1)).map(<[f64]>::to_vec).collect();
    if runs.len() > 1 && runs[runs.len() - 1].len() < per {
        let tail = runs.pop().unwrap_or_default();
        if let Some(last) = runs.last_mut() {
            last.extend(tail);
        }
    }
    let p99s: Vec<f64> = runs
        .iter_mut()
        .map(|run| {
            run.sort_by(f64::total_cmp);
            percentile(run, 0.99)
        })
        .collect();
    (median(&p99s), runs.len())
}

/// Per-unit cost in nanoseconds: `d / units`, 0 when nothing was done.
pub fn ns_per(d: Duration, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / units as f64
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), 0 where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Folds every field of `result` into `hash` (efficiency by bit pattern).
fn hash_result(hash: &mut Fnv64, result: &RunResult) {
    hash.update_field(&result.policy)
        .update_u64(result.instructions)
        .update_u64(result.cycles)
        .update_u64(result.l2_tlb.hits)
        .update_u64(result.l2_tlb.misses)
        .update_u64(result.l2_tlb.dead_evictions)
        .update_u64(result.l2_tlb.cold_fills)
        .update_u64(result.l2_accesses)
        .update_u64(result.prediction_table_accesses)
        .update_u64(result.l2_accesses_total)
        .update_u64(result.efficiency.to_bits());
}

/// FNV-1a digest of a sequence of results, in order.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    let mut hash = Fnv64::new();
    for result in results {
        hash_result(&mut hash, result);
    }
    hash.finish()
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `v` as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps. Non-finite values have no JSON form and
/// are rendered as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 500.5);
        assert!((percentile(&sorted, 0.99) - 990.01).abs() < 1e-9);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn window_figures_ignore_a_stalled_window() {
        // One completion per 0.1 s over 14 s; window 2 is stalled.
        let end: Vec<f64> = (0..140).map(|i| f64::from(i) * 0.1 + 0.05).collect();
        let lat: Vec<f64> =
            end.iter().map(|&t| if (4.0..6.0).contains(&t) { 100.0 } else { 1.0 }).collect();
        let (p99, fewest) = windowed_p99(&end, &lat, 14.0);
        assert_eq!((p99, fewest), (1.0, 20));
        assert_eq!(windows(&[15.0], 14.0)[WINDOWS - 1], vec![0]);
    }

    #[test]
    fn run_p99_takes_the_median_over_runs_of_equal_count() {
        // Runs of 10: 0..9, 10..19, 20..31 (the remainder joins the last).
        let lat: Vec<f64> = (0..32).map(f64::from).collect();
        let (p99, runs) = run_p99(&lat, 10);
        assert_eq!(runs, 3);
        assert!((p99 - 18.91).abs() < 1e-9);
        assert_eq!(run_p99(&[5.0, 1.0], 10), (percentile(&[1.0, 5.0], 0.99), 1));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric { name: "a".into(), value: 1.5, unit: "ms" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
