//! Host normalization: a fixed reference kernel timed next to every timed
//! interval.
//!
//! A shared or throttled host runs the same code faster or slower from one
//! second to the next. Timing a fixed, std-only kernel of about 1 ms right
//! after each interval and dividing by it turns every wall time into
//! *reference time*: `ref-ms` reads "milliseconds on a host where the kernel
//! takes exactly 1 ms". Two limits:
//!
//! * the kernel sweeps a 160 KB buffer and builds a small map, so it evicts
//!   about 160 KB of the program's cached state between slots;
//! * the kernel is compiled with the benchmark's release profile, so a
//!   change to that profile speeds up (or slows down) the kernel too and is
//!   invisible in reference units.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `f64` cells in the kernel's working set (160 KB).
const CELLS: usize = 20 * 1024;
/// Random-access steps and map inserts per kernel run. Fixed at compile
/// time: calibrating them at run time would cancel exactly the host speed
/// the kernel measures.
const STEPS: usize = 10_000;
const MAP_INSERTS: u64 = 7_000;
/// Random-access steps of a lane that skips the map build: about as long
/// as a whole one-thread run.
const POOL_STEPS: usize = 60_000;

/// The reference kernel: one working set per thread it runs on.
#[derive(Debug)]
pub struct RefKernel {
    lanes: Vec<Lane>,
}

/// One thread's copy of the kernel.
#[derive(Debug)]
struct Lane {
    cells: Vec<f64>,
    state: u64,
    /// Whether the run starts with the map build. Lanes on freshly spawned
    /// threads skip it: a new thread's first allocations would set up an
    /// allocator arena inside the timed run.
    allocates: bool,
}

impl RefKernel {
    /// A kernel that runs on `threads` threads at once. A workload whose
    /// slots run on a pool of worker threads is timed against a kernel on
    /// as many threads, so that a busy neighbour on any core shows in both.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let lanes = (0..threads)
            .map(|t| Lane {
                cells: (0..CELLS).map(|i| 1.0 + (i % 97) as f64 / 97.0).collect(),
                state: 0x9E37_79B9_7F4A_7C15 ^ t as u64,
                allocates: threads == 1,
            })
            .collect();
        Self { lanes }
    }

    /// Times one kernel run (all threads) in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let started = Instant::now();
        match self.lanes.as_mut_slice() {
            [lane] => {
                black_box(lane.run());
            }
            [first, rest @ ..] => std::thread::scope(|s| {
                for lane in rest.iter_mut() {
                    s.spawn(move || black_box(lane.run()));
                }
                black_box(first.run());
            }),
            [] => {}
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

impl Lane {
    /// Runs the kernel once: an ordered map built from small heap
    /// allocations and dropped (the allocator traffic of model building),
    /// a sequential sweep of the working set, then data-dependent random
    /// reads and writes with float arithmetic and branches (the mix of a
    /// pricing or ratio-test loop).
    fn run(&mut self) -> f64 {
        let mut acc = 0.0f64;
        if self.allocates {
            let mut map = BTreeMap::new();
            let mut h = self.state | 1;
            for i in 0..MAP_INSERTS {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                map.insert(h % 100_000, vec![i; 4]);
            }
            acc += map.len() as f64;
            drop(black_box(map));
        }
        for c in &mut self.cells {
            *c = *c * 0.999_999 + 1e-7;
            acc += *c;
        }
        let mut x = self.state;
        let steps = if self.allocates { STEPS } else { POOL_STEPS };
        for step in 0..steps {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let j = ((x >> 33) as usize) % CELLS;
            let v = self.cells[j];
            if v > acc * 1e-4 {
                acc += v * 1.000_001;
            } else {
                acc -= v * 0.5;
            }
            self.cells[j] = v * 0.999_9 + (step & 7) as f64 * 1e-9;
        }
        self.state = x;
        black_box(acc)
    }
}

/// Converts a raw wall interval into reference units: `raw × (1 ms /
/// kernel_ms)`. The result keeps the unit of `raw` (ms → ref-ms, s → ref-s).
pub fn normalize(raw: f64, kernel_ms: f64) -> f64 {
    raw / kernel_ms
}

/// A timed interval with the kernel run measured right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// The raw wall time of the interval.
    pub raw: f64,
    /// The kernel time measured next to it, in ms.
    pub kernel_ms: f64,
}

impl Timed {
    /// Times the kernel right after an interval of `raw` wall time.
    pub fn after(raw: f64, kernel: &mut RefKernel) -> Self {
        Self { raw, kernel_ms: kernel.time_ms() }
    }

    /// The interval in reference units.
    pub fn normalized(&self) -> f64 {
        normalize(self.raw, self.kernel_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_by_the_kernel_time() {
        // A 12 ms slot next to a 1.5 ms kernel run is 8 ref-ms; the same
        // slot on a host twice as fast (6 ms, 0.75 ms) reads the same.
        assert_eq!(normalize(12.0, 1.5), 8.0);
        assert_eq!(normalize(6.0, 0.75), 8.0);
        // A 1 ms kernel leaves the value unchanged.
        assert_eq!(normalize(3.25, 1.0), 3.25);
        let t = Timed { raw: 0.5, kernel_ms: 2.0 };
        assert_eq!(t.normalized(), 0.25);
    }

    #[test]
    fn kernel_is_timed_and_positive() {
        for threads in [1, 2] {
            let mut k = RefKernel::new(threads);
            let ms = k.time_ms();
            assert!(ms > 0.0 && ms.is_finite());
        }
    }
}
