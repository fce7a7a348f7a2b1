//! Host-speed calibration.
//!
//! The benchmark runs on a shared host whose speed changes by regime: on
//! the 2-vCPU host it was written on, whole runs went about twice as slow
//! as others for minutes at a time, with next to no steal time to show for it,
//! so a raw wall time says more about the neighbours than about the
//! program. Every timed end-to-end figure is therefore paced: between the
//! timed samples of a run the benchmark times a fixed reference kernel
//! (its own code, independent of the repository crates) on each thread
//! the workload uses, and scales every timing of the run by
//! `REFERENCE_S / kernel time`, the kernel time being the median of its
//! calls. A paced figure reads as the wall time on a host running the
//! kernel in exactly `REFERENCE_S`; a change to the program moves it as
//! it moves the wall time, a change of host speed does not.
//!
//! The kernel is shaped like the simulator's inner loop, so that what
//! slows one slows the other: it streams a packed "trace", hashes each
//! record in four independent lanes, and reads and rewrites a table the
//! size of a predictor's with data-dependent branches. Within one run on
//! the host above, its time followed the simulator's pass time over
//! 8-pass windows more closely (correlation 0.65) than a dependent
//! pointer chase over a 1 MiB table did (0.44).

use std::time::Instant;

/// Words each kernel thread owns: 1 MiB, of which the last eighth is
/// the table and the rest the streamed trace.
const WORDS: usize = 1 << 17;

/// The table: 128 KiB, indexed by a mask.
const TABLE: usize = WORDS / 8;

/// Trace records one kernel call processes.
const STEPS: usize = 700_000;

/// Kernel calls each thread makes back to back per [`Pace::measure`].
const CALLS: usize = 2;

/// The kernel's time, in seconds, that paced figures are scaled to: a
/// round figure near the median of its calls in the slower regime of the
/// host the benchmark was written on (Xeon, 2 vCPUs under KVM).
pub const REFERENCE_S: f64 = 0.010;

/// The reference kernel on a fixed number of threads.
#[derive(Debug)]
pub struct Pace {
    /// Each thread's kernel memory.
    words: Vec<Vec<u64>>,
    /// Every call's time on every thread, in seconds.
    pub samples: Vec<f64>,
}

impl Pace {
    /// A kernel that runs on `threads` threads at once.
    pub fn new(threads: usize) -> Pace {
        Pace { words: vec![vec![0; WORDS]; threads.max(1)], samples: Vec::new() }
    }

    /// Runs [`CALLS`] kernel calls on every thread at once, as the
    /// workload's threads run, and records each call's time.
    pub fn measure(&mut self) {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let calls: Vec<_> = self
                .words
                .iter_mut()
                .map(|words| {
                    scope.spawn(move || {
                        (0..CALLS)
                            .map(|_| {
                                let start = Instant::now();
                                std::hint::black_box(kernel(words));
                                start.elapsed().as_secs_f64()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            calls.into_iter().flat_map(|c| c.join().expect("kernel thread panicked")).collect()
        });
        self.samples.extend(times);
    }

    /// The kernel's time: the median of its calls so far (0 before any).
    pub fn kernel_s(&self) -> f64 {
        crate::report::median(&self.samples)
    }

    /// The factor every timing of the run is multiplied by.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / self.kernel_s()
    }
}

/// Streams the trace part of `words`, hashing each record in four
/// independent lanes; each lane reads and rewrites a table entry and
/// branches on it. Both parts are refilled first, so every call does
/// exactly the same work.
fn kernel(words: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for word in words.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *word = x;
    }
    let (trace, table) = words.split_at_mut(words.len() - TABLE);
    let mut lanes = [1u64, 2, 3, 4];
    let mut acc = 0u64;
    for step in 0..STEPS {
        let record = trace[step % trace.len()];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let v = *lane ^ record.rotate_left(16 * i as u32);
            let v = (v ^ (v >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let slot = &mut table[(v >> 20) as usize & (TABLE - 1)];
            let t = *slot;
            *slot = t.wrapping_add(v);
            *lane = if t & 7 == 0 { v ^ t } else { v.wrapping_add(t >> 7) };
        }
        acc = acc.wrapping_add(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_repeats_exactly() {
        let mut a = vec![0; WORDS];
        let first = kernel(&mut a);
        assert_eq!(kernel(&mut a), first);
        assert_eq!(kernel(&mut vec![7; WORDS]), first);
    }

    #[test]
    fn every_call_gives_a_sample() {
        let mut pace = Pace::new(2);
        pace.measure();
        pace.measure();
        assert_eq!(pace.samples.len(), 2 * 2 * CALLS);
        assert!(pace.kernel_s() > 0.0 && pace.factor() > 0.0);
        pace.samples = vec![3.0, 1.0, 2.0];
        assert_eq!(pace.kernel_s(), 2.0);
    }
}
