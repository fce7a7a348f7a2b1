//! Work-stealing scheduler for (benchmark × policy) simulation units.
//!
//! The suite runner's unit of work used to be a whole benchmark: one
//! worker generated (or decoded) the trace and then ran *every* policy
//! over it serially. With more policies than benchmarks that leaves
//! threads idle, and with more benchmarks than memory it gives no control
//! over how many traces sit resident at once. This module splits the
//! matrix the other way:
//!
//! * each (benchmark × policy) pair is an independent **simulation task**;
//! * each benchmark's trace is fetched once by a **fetch task** and shared
//!   behind an [`Arc<PackedTrace>`] by every policy that needs it;
//! * a trace is dropped the moment its last policy task finishes;
//! * an optional **memory budget** bounds the bytes of packed trace in
//!   flight — fetches are admitted only while estimated + resident bytes
//!   fit, except that one trace is always allowed so progress is
//!   guaranteed even when a single trace exceeds the budget.
//!
//! Workers pull whatever is runnable: ready simulation tasks first (they
//! retire resident bytes), then an admissible fetch, otherwise they block
//! on a condvar until a peer changes the state. Fetches run *outside* the
//! scheduler lock, so two workers needing different traces decode or
//! generate concurrently.
//!
//! Results land in fixed `[work item][policy position]` slots, so output
//! order is deterministic regardless of interleaving.

use chirp_store::StoreError;
use chirp_telemetry::{Gauge, HistogramSnapshot, Log2Histogram};
use chirp_trace::PackedTrace;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One unit of trace-fetch work: a benchmark index plus the policy indices
/// to simulate over its trace. Index spaces are the caller's (the runner
/// uses suite order and policy-lineup order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// Caller's benchmark index; used only to route callbacks.
    pub bench: usize,
    /// Caller's policy indices to run over this benchmark's trace.
    pub policies: Vec<usize>,
}

/// What one scheduler invocation did — printed by the harness binaries as
/// a one-line summary and recorded for [`last_scheduler_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSummary {
    /// Work items executed (benchmarks needing at least one policy).
    pub work_units: usize,
    /// Simulation tasks executed ((benchmark × policy) pairs).
    pub sim_tasks: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Logical CPUs available to this process when the run executed —
    /// context for interpreting thread-scaling numbers (an 8-thread run on
    /// one CPU cannot be expected to speed up).
    pub cpus: usize,
    /// Most traces resident at any instant.
    pub peak_resident_traces: usize,
    /// Most packed-trace bytes resident at any instant.
    pub peak_resident_bytes: u64,
    /// Most fetches in flight at any instant (decode/generate overlap).
    pub concurrent_fetch_peak: usize,
    /// Most runnable simulation tasks queued at any instant (high values
    /// mean workers, not fetch admission, are the bottleneck).
    pub peak_ready_queue: i64,
    /// Wall-clock latency of each simulation task, in microseconds, as a
    /// log2 histogram.
    pub sim_latency_us: HistogramSnapshot,
    /// Wall-clock time of the whole scheduler run.
    pub wall: Duration,
}

impl SchedulerSummary {
    /// One-line human-readable rendering for harness output.
    pub fn render(&self) -> String {
        format!(
            "{} work units ({} sims) on {} threads / {} cpus | peak {} traces / {:.1} MiB in \
             flight | peak {} concurrent fetches, {} queued sims | sim latency p50 {} us / p99 \
             {} us | {:.2}s wall",
            self.work_units,
            self.sim_tasks,
            self.threads,
            self.cpus,
            self.peak_resident_traces,
            self.peak_resident_bytes as f64 / (1024.0 * 1024.0),
            self.concurrent_fetch_peak,
            self.peak_ready_queue,
            self.sim_latency_us.quantile(0.5),
            self.sim_latency_us.quantile(0.99),
            self.wall.as_secs_f64(),
        )
    }
}

/// The last summary recorded by [`run_unit_groups`] or [`run_streamed`]
/// in this process, for harnesses that want to report scheduling
/// behaviour after an experiment without threading the value through
/// every figure helper.
pub fn last_scheduler_summary() -> Option<SchedulerSummary> {
    LAST.lock().expect("summary lock").clone()
}

static LAST: Mutex<Option<SchedulerSummary>> = Mutex::new(None);

/// Shared scheduler state, guarded by one mutex; workers sleep on the
/// paired condvar whenever nothing is runnable for them.
struct State {
    /// Next work item not yet claimed for fetching.
    next: usize,
    /// Simulation tasks whose trace is resident: (work index, position in
    /// that item's `policies`).
    ready: VecDeque<(usize, usize)>,
    /// Resident traces by work index.
    traces: HashMap<usize, Arc<PackedTrace>>,
    /// Outstanding simulation tasks per work item (drop trace at zero).
    remaining: Vec<usize>,
    /// Actual bytes of resident packed traces.
    resident_bytes: u64,
    /// Estimated bytes of fetches in flight (admission accounting).
    reserved_bytes: u64,
    /// Fetch tasks currently executing.
    fetching: usize,
    /// Simulation tasks currently executing.
    active: usize,
    /// First fetch error; set once, terminates admission.
    error: Option<StoreError>,
    peak_traces: usize,
    peak_bytes: u64,
    fetch_peak: usize,
}

enum Task {
    Fetch(usize),
    /// A group of same-work-item simulation tasks (positions into the
    /// item's `policies`), claimed together so they share one pass.
    Sim(usize, Vec<usize>),
    Done,
}

/// Runs every (work item × policy) pair and returns the results in
/// `[work item][policy position]` order plus a scheduling summary.
///
/// `fetch` produces a work item's packed trace and runs **outside** the
/// scheduler lock — callers doing archive I/O must do their own index
/// bookkeeping under their own (briefly held) lock.
///
/// Ready simulation tasks that share a work item's trace are claimed in
/// groups of up to `group_width` and handed to `simulate_group` together,
/// so the callee can run them as one shared front-end pass
/// ([`crate::run_policy_group`]) instead of back to back. The runner
/// passes its policy count, so a work item's missing policies form one
/// group unless another worker claims part of it. `simulate_group`
/// receives `(work index, policy positions, trace)`, runs unlocked and
/// must return one result per position, in order. Grouping only ever
/// merges tasks of the *same* work item (they share the `Arc<PackedTrace>`
/// by construction), and any partition of a work item's tasks into groups
/// is result-identical because the units are independent. One latency
/// sample is recorded per group.
///
/// `est_bytes` is the per-trace size estimate used for budget admission
/// before a trace's true [`PackedTrace::resident_bytes`] is known;
/// `budget` of `None` means unbounded. The first fetch error aborts
/// admission and is returned after in-flight tasks drain. The calling
/// thread is one of the `threads` workers, so a one-thread run spawns
/// none.
pub fn run_unit_groups<F, S, R>(
    work: &[WorkItem],
    threads: usize,
    est_bytes: u64,
    budget: Option<u64>,
    group_width: usize,
    fetch: F,
    simulate_group: S,
) -> Result<(Vec<Vec<R>>, SchedulerSummary), StoreError>
where
    F: Fn(&WorkItem) -> Result<PackedTrace, StoreError> + Sync,
    S: Fn(usize, &[usize], &PackedTrace) -> Vec<R> + Sync,
    R: Send,
{
    let group_width = group_width.max(1);
    let started = Instant::now();
    let threads = threads.max(1);
    let state = Mutex::new(State {
        next: 0,
        ready: VecDeque::new(),
        traces: HashMap::new(),
        remaining: work.iter().map(|w| w.policies.len()).collect(),
        resident_bytes: 0,
        reserved_bytes: 0,
        fetching: 0,
        active: 0,
        error: None,
        peak_traces: 0,
        peak_bytes: 0,
        fetch_peak: 0,
    });
    let cvar = Condvar::new();
    let results: Mutex<Vec<Vec<Option<R>>>> =
        Mutex::new(work.iter().map(|w| (0..w.policies.len()).map(|_| None).collect()).collect());
    // Scheduler telemetry: runnable-queue depth (with peak) and per-task
    // wall latency. Atomic primitives, so workers record without extending
    // any lock hold.
    let queue_depth = Gauge::new();
    let sim_latency = Log2Histogram::new();

    let worker = || loop {
        let task = {
            let mut st = state.lock().expect("scheduler lock");
            loop {
                if let Some((w, pos)) = st.ready.pop_front() {
                    // Claim up to `group_width` ready tasks that share
                    // this task's trace. Same-item tasks are
                    // enqueued contiguously, so a front-run scan
                    // finds them; whatever a concurrent worker
                    // already claimed simply isn't there.
                    let mut group = vec![pos];
                    while group.len() < group_width
                        && st.ready.front().is_some_and(|&(w2, _)| w2 == w)
                    {
                        let (_, p) = st.ready.pop_front().expect("front checked");
                        group.push(p);
                    }
                    st.active += 1;
                    queue_depth.add(-(group.len() as i64));
                    break Task::Sim(w, group);
                }
                if st.next < work.len() && st.error.is_none() {
                    // Always admit when nothing is resident or in
                    // flight — a single oversized trace must not
                    // wedge the run.
                    let alone = st.traces.is_empty() && st.fetching == 0;
                    let fits = budget
                        .is_none_or(|b| st.resident_bytes + st.reserved_bytes + est_bytes <= b);
                    if alone || fits {
                        let w = st.next;
                        st.next += 1;
                        st.fetching += 1;
                        st.reserved_bytes += est_bytes;
                        st.fetch_peak = st.fetch_peak.max(st.fetching);
                        break Task::Fetch(w);
                    }
                }
                if st.next >= work.len()
                    && st.fetching == 0
                    && st.ready.is_empty()
                    && st.active == 0
                {
                    break Task::Done;
                }
                st = cvar.wait(st).expect("scheduler lock");
            }
        };
        match task {
            Task::Done => return,
            Task::Fetch(w) => {
                let fetched = fetch(&work[w]);
                let mut st = state.lock().expect("scheduler lock");
                st.fetching -= 1;
                st.reserved_bytes -= est_bytes;
                match fetched {
                    Ok(trace) => {
                        if work[w].policies.is_empty() {
                            // Nothing to simulate; never resident.
                        } else {
                            st.resident_bytes += trace.resident_bytes();
                            st.traces.insert(w, Arc::new(trace));
                            st.peak_traces = st.peak_traces.max(st.traces.len());
                            st.peak_bytes = st.peak_bytes.max(st.resident_bytes);
                            for pos in 0..work[w].policies.len() {
                                st.ready.push_back((w, pos));
                            }
                            queue_depth.add(work[w].policies.len() as i64);
                        }
                    }
                    Err(e) => {
                        if st.error.is_none() {
                            st.error = Some(e);
                        }
                        // Stop admitting; let in-flight work drain.
                        st.next = work.len();
                        queue_depth.add(-(st.ready.len() as i64));
                        st.ready.clear();
                    }
                }
                cvar.notify_all();
            }
            Task::Sim(w, group) => {
                let trace = {
                    let st = state.lock().expect("scheduler lock");
                    Arc::clone(st.traces.get(&w).expect("ready task has resident trace"))
                };
                let sim_started = Instant::now();
                let rs = simulate_group(w, &group, &trace);
                sim_latency.record(sim_started.elapsed().as_micros() as u64);
                drop(trace);
                assert_eq!(rs.len(), group.len(), "one result per group position");
                {
                    let mut slots = results.lock().expect("results lock");
                    for (&pos, r) in group.iter().zip(rs) {
                        slots[w][pos] = Some(r);
                    }
                }
                let mut st = state.lock().expect("scheduler lock");
                st.active -= 1;
                st.remaining[w] -= group.len();
                if st.remaining[w] == 0 {
                    if let Some(t) = st.traces.remove(&w) {
                        st.resident_bytes -= t.resident_bytes();
                    }
                }
                cvar.notify_all();
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });

    let st = state.into_inner().expect("scheduler lock");
    if let Some(e) = st.error {
        return Err(e);
    }
    let summary = SchedulerSummary {
        work_units: work.len(),
        sim_tasks: work.iter().map(|w| w.policies.len()).sum(),
        threads,
        cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        peak_resident_traces: st.peak_traces,
        peak_resident_bytes: st.peak_bytes,
        concurrent_fetch_peak: st.fetch_peak,
        peak_ready_queue: queue_depth.peak(),
        sim_latency_us: sim_latency.snapshot(),
        wall: started.elapsed(),
    };
    *LAST.lock().expect("summary lock") = Some(summary.clone());
    let out = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|row| row.into_iter().map(|r| r.expect("every sim task ran")).collect())
        .collect();
    Ok((out, summary))
}

/// Scheduler state for [`run_streamed`]: no trace table — a streamed work
/// item owns its trace source for its whole lifetime, so admission only
/// tracks the estimated per-item residency.
struct StreamState {
    next: usize,
    active: usize,
    resident_bytes: u64,
    error: Option<StoreError>,
    peak_active: usize,
    peak_bytes: u64,
}

/// Streaming counterpart of [`run_unit_groups`]: each work item is ONE
/// task — `exec` opens the item's trace stream itself, runs every listed
/// policy over it in one pass (one generation/decode pass, see
/// [`crate::run_stream_policy_group`]) and returns one result per policy
/// position. No trace is ever shared or resident in the scheduler;
/// `unit_bytes` is the estimated peak residency of one in-flight item
/// (a few stream chunks), and `budget` caps the sum across items with the
/// same always-admit-one rule as the materialized scheduler — so a tight
/// budget degrades to serial items, never deadlock.
///
/// Because `exec` runs an item end to end (including any per-item
/// persistence the caller does inside it), a run killed mid-suite keeps
/// every completed item's side effects — the basis of `--resume`.
///
/// # Errors
///
/// The first `exec` error stops admission, in-flight items drain, and the
/// error is returned.
pub fn run_streamed<E, R>(
    work: &[WorkItem],
    threads: usize,
    unit_bytes: u64,
    budget: Option<u64>,
    exec: E,
) -> Result<(Vec<Vec<R>>, SchedulerSummary), StoreError>
where
    E: Fn(&WorkItem) -> Result<Vec<R>, StoreError> + Sync,
    R: Send,
{
    let started = Instant::now();
    let threads = threads.max(1);
    let state = Mutex::new(StreamState {
        next: 0,
        active: 0,
        resident_bytes: 0,
        error: None,
        peak_active: 0,
        peak_bytes: 0,
    });
    let cvar = Condvar::new();
    let results: Mutex<Vec<Option<Vec<R>>>> = Mutex::new(work.iter().map(|_| None).collect());
    let queue_depth = Gauge::new();
    let sim_latency = Log2Histogram::new();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let state = &state;
            let cvar = &cvar;
            let results = &results;
            let exec = &exec;
            let queue_depth = &queue_depth;
            let sim_latency = &sim_latency;
            scope.spawn(move || loop {
                let w = {
                    let mut st = state.lock().expect("stream scheduler lock");
                    loop {
                        if st.next < work.len() && st.error.is_none() {
                            let alone = st.active == 0;
                            let fits = budget.is_none_or(|b| st.resident_bytes + unit_bytes <= b);
                            if alone || fits {
                                let w = st.next;
                                st.next += 1;
                                st.active += 1;
                                st.resident_bytes += unit_bytes;
                                st.peak_active = st.peak_active.max(st.active);
                                st.peak_bytes = st.peak_bytes.max(st.resident_bytes);
                                queue_depth.add(1);
                                break Some(w);
                            }
                        } else if st.active == 0 {
                            break None;
                        }
                        st = cvar.wait(st).expect("stream scheduler lock");
                    }
                };
                let Some(w) = w else { return };
                let item_started = Instant::now();
                let outcome = exec(&work[w]);
                sim_latency.record(item_started.elapsed().as_micros() as u64);
                queue_depth.add(-1);
                match outcome {
                    Ok(rs) => {
                        assert_eq!(
                            rs.len(),
                            work[w].policies.len(),
                            "one result per policy position"
                        );
                        results.lock().expect("results lock")[w] = Some(rs);
                    }
                    Err(e) => {
                        let mut st = state.lock().expect("stream scheduler lock");
                        if st.error.is_none() {
                            st.error = Some(e);
                        }
                        st.next = work.len();
                    }
                }
                let mut st = state.lock().expect("stream scheduler lock");
                st.active -= 1;
                st.resident_bytes -= unit_bytes;
                drop(st);
                cvar.notify_all();
            });
        }
    });

    let st = state.into_inner().expect("stream scheduler lock");
    if let Some(e) = st.error {
        return Err(e);
    }
    let summary = SchedulerSummary {
        work_units: work.len(),
        sim_tasks: work.iter().map(|w| w.policies.len()).sum(),
        threads,
        cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        peak_resident_traces: st.peak_active,
        peak_resident_bytes: st.peak_bytes,
        concurrent_fetch_peak: st.peak_active,
        peak_ready_queue: queue_depth.peak(),
        sim_latency_us: sim_latency.snapshot(),
        wall: started.elapsed(),
    };
    *LAST.lock().expect("summary lock") = Some(summary.clone());
    let out = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|row| row.expect("every streamed item ran"))
        .collect();
    Ok((out, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_trace::{PackedTraceBuilder, TraceRecord};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn trace_of_len(len: usize) -> PackedTrace {
        let mut b = PackedTraceBuilder::with_capacity(len);
        for i in 0..len {
            b.push(TraceRecord::alu(0x400000 + 4 * i as u64));
        }
        b.finish()
    }

    #[test]
    fn results_land_in_item_by_policy_order() {
        let work = vec![
            WorkItem { bench: 0, policies: vec![0, 1, 2] },
            WorkItem { bench: 1, policies: vec![1] },
        ];
        let (results, summary) = run_unit_groups(
            &work,
            4,
            64,
            None,
            1,
            |item| Ok(trace_of_len(10 * (item.bench + 1))),
            |w, positions, trace| {
                positions.iter().map(|&pos| (w, work[w].policies[pos], trace.len())).collect()
            },
        )
        .unwrap();
        assert_eq!(results, vec![vec![(0, 0, 10), (0, 1, 10), (0, 2, 10)], vec![(1, 1, 20)]]);
        assert_eq!(summary.work_units, 2);
        assert_eq!(summary.sim_tasks, 4);
        assert!(summary.peak_resident_traces >= 1);
        assert!(summary.peak_resident_bytes > 0);
        assert_eq!(summary.sim_latency_us.total(), 4, "one latency sample per sim task");
        assert!(summary.peak_ready_queue >= 1, "tasks must have queued at least once");
    }

    /// Grouped dispatch: a single worker with `group_width = 4` must claim
    /// same-item tasks in groups (never crossing work items), cover every
    /// task exactly once, and land results in input order.
    #[test]
    fn grouped_dispatch_preserves_order_and_covers_every_task() {
        let work = vec![
            WorkItem { bench: 0, policies: vec![10, 11, 12, 13, 14] },
            WorkItem { bench: 1, policies: vec![20, 21] },
        ];
        let max_group = AtomicUsize::new(0);
        let (results, summary) = run_unit_groups(
            &work,
            1,
            64,
            None,
            4,
            |item| Ok(trace_of_len(10 * (item.bench + 1))),
            |w, positions, trace| {
                max_group.fetch_max(positions.len(), Ordering::SeqCst);
                positions.iter().map(|&pos| (w, work[w].policies[pos], trace.len())).collect()
            },
        )
        .unwrap();
        assert_eq!(
            results,
            vec![
                vec![(0, 10, 10), (0, 11, 10), (0, 12, 10), (0, 13, 10), (0, 14, 10)],
                vec![(1, 20, 20), (1, 21, 20)],
            ]
        );
        assert_eq!(summary.sim_tasks, 7);
        assert_eq!(max_group.load(Ordering::SeqCst), 4, "a full group must form");
    }

    /// The lock-splitting satellite's regression probe: two workers that
    /// need *different* traces must be inside `fetch` simultaneously. Each
    /// fetch parks until it observes the other (bounded spin), so if the
    /// scheduler serialised fetches — e.g. by holding the state lock
    /// across the callback, the pre-rework archive behaviour — the gauge
    /// would never reach 2 and the assertion below fails after the
    /// timeout rather than deadlocking.
    #[test]
    fn fetches_for_different_traces_overlap() {
        let in_fetch = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let work = vec![
            WorkItem { bench: 0, policies: vec![0] },
            WorkItem { bench: 1, policies: vec![0] },
        ];
        let (results, summary) = run_unit_groups(
            &work,
            2,
            64,
            None,
            1,
            |item| {
                let now = in_fetch.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                in_fetch.fetch_sub(1, Ordering::SeqCst);
                Ok(trace_of_len(item.bench + 1))
            },
            |_, positions, trace| vec![trace.len(); positions.len()],
        )
        .unwrap();
        assert_eq!(peak.load(Ordering::SeqCst), 2, "both fetches must be in flight at once");
        assert_eq!(summary.concurrent_fetch_peak, 2);
        assert_eq!(results, vec![vec![1], vec![2]]);
    }

    #[test]
    fn budget_keeps_one_trace_resident_at_a_time() {
        let work: Vec<WorkItem> =
            (0..4).map(|bench| WorkItem { bench, policies: vec![0, 1] }).collect();
        let est = 64u64;
        // Budget fits exactly one estimated fetch; once any trace is
        // resident (resident_bytes > 0), a second fetch never fits.
        let (results, summary) = run_unit_groups(
            &work,
            4,
            est,
            Some(est),
            1,
            |item| Ok(trace_of_len(8 + item.bench)),
            |_, positions, trace| vec![trace.len(); positions.len()],
        )
        .unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(summary.peak_resident_traces, 1, "budget must serialise trace residency");
        assert_eq!(summary.concurrent_fetch_peak, 1);
    }

    #[test]
    fn oversized_trace_still_admitted_when_alone() {
        let work = vec![WorkItem { bench: 0, policies: vec![0] }];
        // Estimate far above budget: the alone-rule must admit it anyway.
        let (results, _) = run_unit_groups(
            &work,
            2,
            1 << 30,
            Some(1024),
            1,
            |_| Ok(trace_of_len(5)),
            |_, p, t| vec![t.len(); p.len()],
        )
        .unwrap();
        assert_eq!(results, vec![vec![5]]);
    }

    #[test]
    fn fetch_error_is_returned() {
        let work = vec![
            WorkItem { bench: 0, policies: vec![0] },
            WorkItem { bench: 1, policies: vec![0] },
        ];
        let err = run_unit_groups(
            &work,
            2,
            64,
            None,
            1,
            |item| {
                if item.bench == 1 {
                    Err(StoreError::Corrupt("boom".into()))
                } else {
                    Ok(trace_of_len(3))
                }
            },
            |_, positions, trace| vec![trace.len(); positions.len()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn empty_work_completes_immediately() {
        let (results, summary) = run_unit_groups(
            &[],
            3,
            64,
            Some(1),
            1,
            |_: &WorkItem| Ok(trace_of_len(1)),
            |_, positions: &[usize], t: &PackedTrace| vec![t.len(); positions.len()],
        )
        .unwrap();
        assert!(results.is_empty());
        assert_eq!(summary.sim_tasks, 0);
        assert_eq!(summary.peak_resident_traces, 0);
    }

    #[test]
    fn streamed_results_land_in_item_order() {
        let work = vec![
            WorkItem { bench: 0, policies: vec![0, 1, 2] },
            WorkItem { bench: 1, policies: vec![1] },
            WorkItem { bench: 2, policies: vec![0, 2] },
        ];
        let (results, summary) = run_streamed(&work, 4, 64, None, |item| {
            Ok(item.policies.iter().map(|&p| (item.bench, p)).collect())
        })
        .unwrap();
        assert_eq!(results, vec![vec![(0, 0), (0, 1), (0, 2)], vec![(1, 1)], vec![(2, 0), (2, 2)]]);
        assert_eq!(summary.work_units, 3);
        assert_eq!(summary.sim_tasks, 6);
        assert_eq!(summary.sim_latency_us.total(), 3, "one latency sample per item");
    }

    #[test]
    fn streamed_budget_serialises_items() {
        let work: Vec<WorkItem> =
            (0..5).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        // Budget admits exactly one estimated unit at a time.
        let (results, summary) =
            run_streamed(&work, 4, 64, Some(64), |item| Ok(vec![item.bench])).unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(summary.peak_resident_traces, 1, "budget must serialise streamed items");
        assert!(summary.peak_resident_bytes <= 64);
    }

    #[test]
    fn streamed_oversized_unit_still_admitted_when_alone() {
        let work = vec![WorkItem { bench: 0, policies: vec![0] }];
        let (results, _) =
            run_streamed(&work, 2, 1 << 40, Some(1024), |_| Ok(vec![7usize])).unwrap();
        assert_eq!(results, vec![vec![7]]);
    }

    #[test]
    fn streamed_error_is_returned_and_stops_admission() {
        let work: Vec<WorkItem> =
            (0..4).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        let executed = AtomicUsize::new(0);
        let err = run_streamed(&work, 1, 64, None, |item| {
            executed.fetch_add(1, Ordering::SeqCst);
            if item.bench == 1 {
                Err(StoreError::Corrupt("stream boom".into()))
            } else {
                Ok(vec![item.bench])
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("stream boom"));
        // Serial worker: items 0 and 1 ran, admission then stopped.
        assert_eq!(executed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn streamed_empty_work_completes() {
        let (results, summary) =
            run_streamed(&[], 3, 64, Some(1), |_: &WorkItem| Ok(vec![0usize])).unwrap();
        assert!(results.is_empty());
        assert_eq!(summary.sim_tasks, 0);
    }

    #[test]
    fn traces_are_dropped_after_last_policy() {
        // Serial worker: every trace must be gone before the next fetch,
        // so the peak is exactly one even without a budget.
        let work: Vec<WorkItem> =
            (0..3).map(|b| WorkItem { bench: b, policies: vec![0] }).collect();
        let (_, summary) = run_unit_groups(
            &work,
            1,
            64,
            None,
            1,
            |i| Ok(trace_of_len(4 + i.bench)),
            |_, p, t| vec![t.len(); p.len()],
        )
        .unwrap();
        assert_eq!(summary.peak_resident_traces, 1);
    }
}
