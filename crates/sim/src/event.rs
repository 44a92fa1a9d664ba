//! Event representation and the deterministic pending-event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What happens when an event fires at its target actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// Delivery of an application message from another actor.
    Message {
        /// Sending actor.
        from: usize,
        /// Payload.
        msg: M,
    },
    /// Expiration of a timer the target set on itself.
    Timer {
        /// Caller-chosen tag distinguishing concurrent timers.
        tag: u64,
    },
}

/// An event scheduled for a future instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Global sequence number; breaks ties among same-tick events so that
    /// execution order equals scheduling order (determinism).
    pub seq: u64,
    /// When the event entered the queue; `time - enqueued_at` is the
    /// scheduling latency the kernel metrics histogram.
    pub enqueued_at: SimTime,
    /// Receiving actor.
    pub target: usize,
    /// Payload.
    pub kind: EventKind<M>,
}

/// Width of the near window, in ticks: one FIFO bucket per tick.
const NEAR_TICKS: u64 = 64;
/// Events per chunk; buckets are chains of chunks.
const CHUNK_EVENTS: usize = 64;
/// End-of-chain marker for chunk links.
const NIL: u32 = u32::MAX;

/// Pending events, popped in `(time, seq)` order.
///
/// Two tiers. The near tier is a ring of per-tick FIFO buckets covering
/// `[base, base + NEAR_TICKS)`; a bucket only ever holds events of one
/// tick, appended in increasing `seq`, so its front is its minimum. The
/// far tier is a `(time, seq)` min-heap for everything else: events
/// outside the window and re-inserted events whose `seq` is not above
/// their bucket's tail. `pop` takes the smaller `(time, seq)` of the two
/// heads, so dispatch order is exactly the single-heap order.
///
/// Buckets are chains of fixed-size chunks drawn from one free list: a
/// chunk returns to the list the moment it empties, so a draining tick
/// hands its memory straight to the tick that is filling, and a warm
/// queue settles without allocating. `EventQueue::drain_all` releases
/// the chunks.
#[derive(Debug)]
pub struct EventQueue<M> {
    buckets: [Bucket; NEAR_TICKS as usize],
    chunks: Vec<Chunk<M>>,
    free: Vec<u32>,
    /// Window start; every bucketed event fires in
    /// `[base, base + NEAR_TICKS)`.
    base: u64,
    /// Earliest tick with a non-empty bucket (meaningful when
    /// `near_len > 0`).
    first: u64,
    near_len: usize,
    far: BinaryHeap<HeapEntry<M>>,
    next_seq: u64,
}

/// One tick's FIFO: a chain of chunks, `head == NIL` when empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    tail_seq: u64,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
    tail_seq: 0,
};

#[derive(Debug)]
struct Chunk<M> {
    events: VecDeque<ScheduledEvent<M>>,
    next: u32,
}

#[derive(Debug)]
struct HeapEntry<M>(ScheduledEvent<M>);

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smallest (time, seq) = greatest heap entry.
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

fn slot(tick: u64) -> usize {
    (tick % NEAR_TICKS) as usize
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: [EMPTY_BUCKET; NEAR_TICKS as usize],
            chunks: Vec::new(),
            free: Vec::new(),
            base: 0,
            first: 0,
            near_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `kind` to fire at `target` at absolute instant `time`,
    /// treating `time` as the enqueue instant (zero scheduling latency).
    pub fn push(&mut self, time: SimTime, target: usize, kind: EventKind<M>) {
        self.push_from(time, time, target, kind);
    }

    /// Schedules `kind` to fire at `target` at absolute instant `time`,
    /// stamping the event as enqueued at `enqueued_at` so the kernel can
    /// histogram scheduling latency (`time - enqueued_at`).
    pub fn push_from(
        &mut self,
        enqueued_at: SimTime,
        time: SimTime,
        target: usize,
        kind: EventKind<M>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent {
            time,
            seq,
            enqueued_at,
            target,
            kind,
        });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<M>> {
        let near_first = self.near_len > 0
            && self.far.peek().is_none_or(|top| {
                let front = self.chunks[self.buckets[slot(self.first)].head as usize]
                    .events
                    .front()
                    .expect("live chunk is never empty");
                (front.time, front.seq) < (top.0.time, top.0.seq)
            });
        if near_first {
            return Some(self.pop_near());
        }
        let ev = self.far.pop()?.0;
        // Everything still pending sorts after `ev`, so the window may
        // start at its tick.
        self.base = self.base.max(ev.time.ticks());
        Some(ev)
    }

    /// Re-inserts an already-sequenced event without assigning a fresh
    /// sequence number. The sharded scheduler uses this to move events
    /// between the global queue and per-shard queues while preserving the
    /// exact `(time, seq)` total order the sequential kernel would have
    /// used.
    pub(crate) fn push_scheduled(&mut self, ev: ScheduledEvent<M>) {
        self.insert(ev);
    }

    /// Drains every pending event in `(time, seq)` order and releases the
    /// queue's memory (chunks, free list and heap capacity).
    pub(crate) fn drain_all(&mut self) -> Vec<ScheduledEvent<M>> {
        let mut out = Vec::with_capacity(self.len());
        for bucket in &mut self.buckets {
            let mut at = bucket.head;
            while at != NIL {
                let chunk = &mut self.chunks[at as usize];
                out.extend(chunk.events.drain(..));
                at = chunk.next;
            }
            *bucket = EMPTY_BUCKET;
        }
        out.extend(std::mem::take(&mut self.far).into_iter().map(|e| e.0));
        out.sort_unstable_by_key(|e| (e.time, e.seq));
        self.chunks = Vec::new();
        self.free = Vec::new();
        self.near_len = 0;
        out
    }

    /// The next sequence number this queue will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Advances the sequence counter to `seq` (monotone only — the
    /// sharded replay hands out the intervening numbers itself).
    pub(crate) fn set_next_seq(&mut self, seq: u64) {
        debug_assert!(seq >= self.next_seq, "sequence counter ran backwards");
        self.next_seq = seq;
    }

    /// Instant of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let far = self.far.peek().map(|e| e.0.time);
        if self.near_len == 0 {
            return far;
        }
        let near = SimTime::from_ticks(self.first);
        Some(far.map_or(near, |t| t.min(near)))
    }

    /// Files `ev` in its tick's bucket when that keeps the bucket sorted
    /// by `seq`, in the far heap otherwise.
    fn insert(&mut self, ev: ScheduledEvent<M>) {
        let tick = ev.time.ticks();
        if self.near_len == 0 {
            // An empty ring may slide anywhere; start it at the earliest
            // pending tick so the window follows the clock.
            self.base = self
                .far
                .peek()
                .map_or(tick, |top| tick.min(top.0.time.ticks()));
        }
        if tick < self.base || tick - self.base >= NEAR_TICKS {
            self.far.push(HeapEntry(ev));
            return;
        }
        let bucket = self.buckets[slot(tick)];
        if bucket.head != NIL && ev.seq <= bucket.tail_seq {
            self.far.push(HeapEntry(ev));
            return;
        }
        let seq = ev.seq;
        let tail = if bucket.head == NIL {
            let c = self.take_chunk();
            self.buckets[slot(tick)].head = c;
            c
        } else if self.chunks[bucket.tail as usize].events.len() == CHUNK_EVENTS {
            let c = self.take_chunk();
            self.chunks[bucket.tail as usize].next = c;
            c
        } else {
            bucket.tail
        };
        self.chunks[tail as usize].events.push_back(ev);
        let b = &mut self.buckets[slot(tick)];
        b.tail = tail;
        b.tail_seq = seq;
        if self.near_len == 0 || tick < self.first {
            self.first = tick;
        }
        self.near_len += 1;
    }

    /// Pops the front of the earliest non-empty bucket.
    fn pop_near(&mut self) -> ScheduledEvent<M> {
        let tick = self.first;
        let bucket = &mut self.buckets[slot(tick)];
        let head = bucket.head;
        let chunk = &mut self.chunks[head as usize];
        let ev = chunk.events.pop_front().expect("live chunk is never empty");
        if chunk.events.is_empty() {
            bucket.head = chunk.next;
            chunk.next = NIL;
            self.free.push(head);
        }
        self.near_len -= 1;
        self.base = tick;
        if self.near_len > 0 {
            while self.buckets[slot(self.first)].head == NIL {
                self.first += 1;
            }
        }
        ev
    }

    /// A cleared chunk from the free list, or a new one.
    fn take_chunk(&mut self) -> u32 {
        if let Some(c) = self.free.pop() {
            return c;
        }
        let c = u32::try_from(self.chunks.len()).expect("event queue chunk count overflowed u32");
        self.chunks.push(Chunk {
            events: VecDeque::with_capacity(CHUNK_EVENTS),
            next: NIL,
        });
        c
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(m: u32) -> EventKind<u32> {
        EventKind::Message { from: 0, msg: m }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 0, msg(5));
        q.push(SimTime::from_ticks(1), 0, msg(1));
        q.push(SimTime::from_ticks(3), 0, msg(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ticks())
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_tick_fifo_by_sequence() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(SimTime::from_ticks(7), 0, msg(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Message { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(9), 1, msg(0));
        q.push(SimTime::from_ticks(2), 2, msg(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(2)));
        let e = q.pop().unwrap();
        assert_eq!(e.time.ticks(), 2);
        assert_eq!(e.target, 2);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 0, EventKind::Timer { tag: 1 });
        q.push(SimTime::ZERO, 0, EventKind::Timer { tag: 2 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn push_from_stamps_enqueue_instant() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_from(SimTime::from_ticks(3), SimTime::from_ticks(10), 0, msg(0));
        q.push(SimTime::from_ticks(4), 0, msg(1));
        let first = q.pop().unwrap();
        assert_eq!(first.enqueued_at, first.time); // plain push: zero latency
        let second = q.pop().unwrap();
        assert_eq!(second.time - second.enqueued_at, 7);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ticks(10), 0, msg(10));
        q.push(SimTime::from_ticks(4), 0, msg(4));
        assert_eq!(q.pop().unwrap().time.ticks(), 4);
        q.push(SimTime::from_ticks(2), 0, msg(2));
        q.push(SimTime::from_ticks(12), 0, msg(12));
        assert_eq!(q.pop().unwrap().time.ticks(), 2);
        assert_eq!(q.pop().unwrap().time.ticks(), 10);
        assert_eq!(q.pop().unwrap().time.ticks(), 12);
        assert!(q.pop().is_none());
    }

    /// A flood burst: one tick fans out `fanout` events one tick ahead,
    /// which are then all dispatched.
    fn burst(q: &mut EventQueue<u32>, fanout: u32) {
        let now = q.pop().expect("burst trigger").time;
        for i in 0..fanout {
            q.push_from(now, now + 1, i as usize, msg(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Message { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..fanout).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_pool_settles_across_bursts() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ticks(0), 0, msg(0));
        burst(&mut q, 3 * CHUNK_EVENTS as u32 + 5);
        let chunks = q.chunks.len();
        assert_eq!(q.free.len(), chunks, "every chunk returns to the free list");
        q.push(SimTime::from_ticks(2), 0, msg(0));
        burst(&mut q, 3 * CHUNK_EVENTS as u32 + 5);
        assert_eq!(q.chunks.len(), chunks, "a warm queue reuses its chunks");
    }

    #[test]
    fn drain_all_is_sorted_and_releases_memory() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for t in [5u64, 900, 3, 5, 70, 3] {
            q.push(SimTime::from_ticks(t), 0, msg(t as u32));
        }
        let drained: Vec<(u64, u64)> = q
            .drain_all()
            .iter()
            .map(|e| (e.time.ticks(), e.seq))
            .collect();
        assert_eq!(
            drained,
            vec![(3, 2), (3, 5), (5, 0), (5, 3), (70, 4), (900, 1)]
        );
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.chunks.is_empty() && q.free.is_empty());
        assert_eq!(q.far.capacity(), 0);
    }

    #[test]
    fn out_of_order_reinsert_still_pops_in_total_order() {
        // The sharded engine re-inserts sequenced events in arbitrary
        // order; a seq below its bucket's tail must not jump the queue.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_next_seq(10);
        for seq in [7u64, 3, 9, 4] {
            q.push_scheduled(ScheduledEvent {
                time: SimTime::from_ticks(1),
                seq,
                enqueued_at: SimTime::ZERO,
                target: 0,
                kind: msg(seq as u32),
            });
        }
        q.push(SimTime::from_ticks(1), 0, msg(10));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 7, 9, 10]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use EventKind::Timer;

    proptest! {
        /// The queue is a total order: pops are sorted by (time, seq).
        #[test]
        fn pop_order_is_sorted(ticks in prop::collection::vec(0u64..1000, 0..200)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &ticks {
                q.push(SimTime::from_ticks(t), 0, EventKind::Timer { tag: t });
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push((e.time, e.seq));
            }
            prop_assert_eq!(popped.len(), ticks.len());
            for w in popped.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        /// Every pushed event is popped exactly once (multiset equality on times).
        #[test]
        fn conservation(ticks in prop::collection::vec(0u64..50, 0..200)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &ticks {
                q.push(SimTime::from_ticks(t), 0, EventKind::Timer { tag: 0 });
            }
            let mut got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
            let mut want = ticks.clone();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model-based: interleaved pushes (now, next tick, inside and
        /// beyond the near window, before the window), out-of-order
        /// re-inserts, pops, peeks, drain-and-refill and sequence jumps
        /// behave exactly like an ordered map keyed by `(time, seq)`.
        #[test]
        fn matches_ordered_model(ops in prop::collection::vec(op(), 0..400)) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), (u64, usize, u32)> = BTreeMap::new();
            let mut reserved: Vec<u64> = Vec::new();
            let mut now = 0u64;
            let mut next_id = 0u32;
            for op in ops {
                match op {
                    Op::Push(at, target) => {
                        let time = at.resolve(now);
                        let seq = q.next_seq();
                        q.push_from(
                            SimTime::from_ticks(now),
                            SimTime::from_ticks(time),
                            target,
                            Timer { tag: next_id as u64 },
                        );
                        model.insert((time, seq), (now, target, next_id));
                        next_id += 1;
                    }
                    Op::Reserve(k) => {
                        let from = q.next_seq();
                        reserved.extend(from..from + k);
                        q.set_next_seq(from + k);
                    }
                    Op::PushScheduled(pick, at) => {
                        if reserved.is_empty() {
                            continue;
                        }
                        let seq = reserved.swap_remove(pick % reserved.len());
                        let time = at.resolve(now);
                        q.push_scheduled(ScheduledEvent {
                            time: SimTime::from_ticks(time),
                            seq,
                            enqueued_at: SimTime::from_ticks(now),
                            target: 1,
                            kind: Timer { tag: next_id as u64 },
                        });
                        model.insert((time, seq), (now, 1, next_id));
                        next_id += 1;
                    }
                    Op::Pop => {
                        let want = model.pop_first();
                        let got = q.pop();
                        prop_assert_eq!(got.as_ref().map(key), want);
                        if let Some(e) = got {
                            now = e.time.ticks();
                        }
                    }
                    Op::Peek => {
                        prop_assert_eq!(
                            q.peek_time().map(SimTime::ticks),
                            model.keys().next().map(|&(t, _)| t)
                        );
                    }
                    Op::DrainRefill => {
                        let drained = q.drain_all();
                        let got: Vec<_> = drained.iter().map(key).collect();
                        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(got, want);
                        for ev in drained {
                            q.push_scheduled(ev);
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            while let Some((k, v)) = model.pop_first() {
                prop_assert_eq!(q.pop().as_ref().map(key), Some((k, v)));
            }
            prop_assert!(q.pop().is_none());
        }
    }

    /// Where a pushed event lands relative to the current tick.
    #[derive(Debug, Clone, Copy)]
    enum At {
        Now,
        NextTick,
        Near(u64),
        BeyondWindow(u64),
        BeforeNow(u64),
    }

    impl At {
        fn resolve(self, now: u64) -> u64 {
            match self {
                At::Now => now,
                At::NextTick => now + 1,
                At::Near(d) => now + d,
                At::BeyondWindow(d) => now + NEAR_TICKS + d,
                At::BeforeNow(d) => now.saturating_sub(d),
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(At, usize),
        Reserve(u64),
        PushScheduled(usize, At),
        Pop,
        Peek,
        DrainRefill,
    }

    /// Ops weighted towards the flood shape: mostly next-tick pushes and
    /// pops, with every other case mixed in.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..23, 0u32..13, 0u64..1 << 16, 0usize..1 << 16).prop_map(|(kind, place, d, pick)| {
            let at = match place {
                0..=2 => At::Now,
                3..=8 => At::NextTick,
                9..=10 => At::Near(2 + d % (NEAR_TICKS - 2)),
                11 => At::BeyondWindow(d % (3 * NEAR_TICKS)),
                _ => At::BeforeNow(1 + d % 9),
            };
            match kind {
                0..=7 => Op::Push(at, pick % 4),
                8 => Op::Reserve(1 + d % 11),
                9..=11 => Op::PushScheduled(pick, at),
                12..=19 => Op::Pop,
                20..=21 => Op::Peek,
                _ => Op::DrainRefill,
            }
        })
    }

    /// `((time, seq), (enqueued_at, target, tag))` of an event.
    fn key(e: &ScheduledEvent<u32>) -> ((u64, u64), (u64, usize, u32)) {
        let EventKind::Timer { tag } = e.kind else {
            unreachable!("model pushes timers only")
        };
        (
            (e.time.ticks(), e.seq),
            (e.enqueued_at.ticks(), e.target, tag as u32),
        )
    }
}
