//! The no-alloc gate, measured for real: this test binary installs a
//! counting `#[global_allocator]` (integration tests live outside the
//! `src/` trees the CI unsafe audit covers, exactly like the `wsn-lint`
//! binary in `cli/`) and proves the certified zero-copy hot path
//! dispatches steady-state events **without touching the heap**.
//!
//! It also pins the allocation regression fixed alongside the codec
//! swap: repeated application rounds on a warm runtime used to clone
//! per-epoch energy/leader snapshots; they now reuse struct-held
//! scratch, so a warmed-up round performs zero allocations end to end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsn_bench::hotpath::{allocprobe, steady_state_hotpath};
use wsn_bench::lint;
use wsn_sim::{Actor, ActorId, Context, Kernel};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The harness runs tests on
    /// parallel threads; counting per thread keeps a sibling test's
    /// allocations out of the measured window. `const`-initialised and
    /// drop-free, so touching it never allocates.
    static ALLOCATION_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATION_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocation_calls() -> u64 {
    ALLOCATION_CALLS.with(Cell::get)
}

fn install_probe() {
    allocprobe::install(allocation_calls);
}

#[test]
fn steady_state_hot_path_performs_zero_heap_allocations() {
    install_probe();
    let report = steady_state_hotpath(8, 200, 2);
    assert!(report.events > 0, "measured round dispatched no events");
    assert_eq!(
        report.allocations,
        Some(0),
        "the certified hot path allocated on {} events",
        report.events
    );
    assert_eq!(report.allocs_per_event(), Some(0.0));
}

#[test]
fn the_alloc_gate_passes_end_to_end() {
    install_probe();
    let report = lint::alloc_gate(8, 200).expect("alloc gate must pass with the probe installed");
    assert!(
        report.contains("zero-copy hot path holds"),
        "unexpected gate report: {report}"
    );
}

#[test]
fn warm_application_rounds_reuse_runtime_scratch() {
    // The satellite regression pin: snapshot clones in the epoch loop
    // (energy ledger reads, leader healing, kernel outbox) must not
    // reappear. Two warmed-up rounds at a second side both measure zero.
    install_probe();
    let a = steady_state_hotpath(4, 50, 3);
    let b = steady_state_hotpath(4, 50, 3);
    assert_eq!(a.allocations, Some(0));
    assert_eq!(b.allocations, Some(0));
    assert_eq!(a.events, b.events, "warm rounds must be deterministic");
}

/// A flood burst on the bare kernel: a source's timer fans one message
/// out to every sink, one tick ahead, and each sink answers the source
/// one tick later — the shape of a §5.1/§5.2 flood.
struct Source {
    sinks: usize,
}

impl Actor<u32> for Source {
    fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ActorId, _msg: u32) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _tag: u64) {
        for sink in 1..=self.sinks {
            ctx.send_after(sink, 1, 0);
        }
    }
}

struct Sink;

impl Actor<u32> for Sink {
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: ActorId, msg: u32) {
        if msg == 0 {
            ctx.send_after(0, 1, 1);
        }
    }
}

#[test]
fn second_flood_burst_reuses_the_event_queue_chunks() {
    const FANOUT: usize = 96;
    let mut k: Kernel<u32> = Kernel::new(11);
    k.add_actor(Box::new(Source { sinks: FANOUT }));
    for _ in 0..FANOUT {
        k.add_actor(Box::new(Sink));
    }
    let burst = |k: &mut Kernel<u32>| {
        let at = k.now() + 1;
        k.schedule_timer(at, 0, 0);
        let before = allocation_calls();
        let report = k.run();
        (report.events_processed, allocation_calls() - before)
    };
    let (first_events, _) = burst(&mut k);
    let (events, allocations) = burst(&mut k);
    assert_eq!(events, first_events);
    assert_eq!(events, 1 + 2 * FANOUT as u64);
    assert_eq!(
        allocations, 0,
        "the second flood burst allocated on {events} events"
    );
}
