//! Host-speed probe: a fixed slice of work timed between ops, used to
//! rescale wall times to the reference box's quiet speed.
//!
//! On a shared host the same op runs up to ~40% slower while neighbours
//! are busy, in phases lasting seconds to minutes. Every timed interval
//! (an op, a set-up) is bracketed by two probe runs, and its wall time is
//! multiplied by `reference ÷ mean(probe before, probe after)`. The
//! probe is the benchmark's own code, never the crates under test, so no
//! change to the crates can move it; a change that slows an op still
//! slows its rescaled time by the same factor.
//!
//! Two kernels exist because the ops stress the host differently:
//! [`Kernel::StateSet`] churns a hash set of small state vectors like
//! the reachability exploration that dominates static analysis;
//! [`Kernel::Mixed`] mixes hash-map lookups, a sort, small allocations
//! and dependent loads like the event-driven simulator. Their large
//! buffers live in the probe and are reused, so a probe run takes no
//! page faults and does not depend on what the op left in the allocator.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    StateSet,
    Mixed,
}

impl Kernel {
    /// The kernel's wall time on the reference box (2-core Xeon VM)
    /// while the host was quiet, in milliseconds.
    fn reference_ms(self) -> f64 {
        match self {
            Kernel::StateSet => 0.85,
            Kernel::Mixed => 0.92,
        }
    }
}

/// Table entries for the dependent loads: 64 KiB, so the probe's working
/// set stays in the core's caches and does not depend on how the
/// process's pages happen to be mapped.
const TABLE: usize = 1 << 14;

/// Reused buffers of the kernels.
struct Scratch {
    seen: HashSet<[u64; 4]>,
    frontier: VecDeque<[u64; 4]>,
    map: HashMap<u64, u64>,
    sorted: Vec<u64>,
    /// A permutation of `0..TABLE` walked by dependent loads.
    table: Vec<u32>,
}

/// Brackets consecutive timed intervals with probe runs.
pub struct Probe {
    kernel: Kernel,
    scratch: Scratch,
    last_ms: f64,
}

impl Probe {
    /// Starts the bracket: the first probe run marks the beginning of
    /// the first interval.
    pub fn new(kernel: Kernel) -> Self {
        let mut probe = Probe {
            kernel,
            scratch: Scratch {
                seen: HashSet::with_capacity(4096),
                frontier: VecDeque::with_capacity(4096),
                map: HashMap::with_capacity(4096),
                sorted: Vec::with_capacity(8192),
                table: (0..TABLE as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761) % TABLE as u32)
                    .collect(),
            },
            last_ms: 0.0,
        };
        probe.last_ms = probe.run_ms();
        probe
    }

    /// Times one kernel run after an untimed one, so the timed run finds
    /// its buffers in cache whatever the op before it touched.
    fn run_ms(&mut self) -> f64 {
        let once = |s: &mut Scratch| match self.kernel {
            Kernel::StateSet => state_set(s, black_box(0x1234_5678)),
            Kernel::Mixed => mixed(s, black_box(0x5EED)),
        };
        black_box(once(&mut self.scratch));
        let t = Instant::now();
        black_box(once(&mut self.scratch));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Ends the current interval (and starts the next): returns the
    /// factor that rescales its wall time to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let now = self.run_ms();
        let mean = (self.last_ms + now) / 2.0;
        self.last_ms = now;
        self.kernel.reference_ms() / mean
    }
}

fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn state_set(s: &mut Scratch, seed: u64) -> u64 {
    let mut next = xorshift(seed);
    s.seen.clear();
    s.frontier.clear();
    for i in 0..16_384u64 {
        let x = next();
        let state = [x % 64, i % 7, (x >> 8) % 5, i % 3];
        if s.seen.insert(state) {
            s.frontier.push_back(state);
        }
        if i % 3 == 0 {
            black_box(s.frontier.pop_front());
        }
    }
    s.seen.len() as u64
}

fn mixed(s: &mut Scratch, seed: u64) -> u64 {
    let mut next = xorshift(seed);
    s.map.clear();
    for _ in 0..2048 {
        *s.map.entry(next() % 4096).or_insert(0) += 1;
    }
    let mut acc = 0u64;
    for _ in 0..8192 {
        acc = acc.wrapping_add(*s.map.get(&(next() % 4096)).unwrap_or(&1));
    }
    s.sorted.clear();
    s.sorted.extend((0..8192).map(|_| next()));
    s.sorted.sort_unstable();
    acc ^= s.sorted[4096];
    let boxes: Vec<Box<[u64; 4]>> = (0..1024).map(|i| Box::new([i, acc, i ^ acc, 0])).collect();
    acc ^= boxes.iter().map(|b| b[2]).fold(0, u64::wrapping_add);
    let mut i = (acc % TABLE as u64) as usize;
    for _ in 0..65_536 {
        i = s.table[i] as usize;
    }
    acc ^ i as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_factors_positive() {
        for kernel in [Kernel::StateSet, Kernel::Mixed] {
            let mut p = Probe::new(kernel);
            let a = match kernel {
                Kernel::StateSet => state_set(&mut p.scratch, 7),
                Kernel::Mixed => mixed(&mut p.scratch, 7),
            };
            let b = match kernel {
                Kernel::StateSet => state_set(&mut p.scratch, 7),
                Kernel::Mixed => mixed(&mut p.scratch, 7),
            };
            assert_eq!(a, b);
            let f = p.factor();
            assert!(f.is_finite() && f > 0.0);
        }
    }
}
