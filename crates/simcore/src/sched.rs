//! The discrete-event scheduler.
//!
//! [`Ctx<W>`] is the handle every event callback and every world-access
//! closure receives alongside `&mut W`. It provides the current simulated
//! time, timer scheduling/cancellation, process wakeups, and the master RNG.
//!
//! Determinism: events at equal timestamps fire in insertion order (a
//! monotonic sequence number breaks ties), and process wakeups drain FIFO.
//!
//! # What an event is
//!
//! The world `W` is a [`Model`]: it names its packet type and its timer-key
//! type, and handles both. A queued event is one variant of a closed enum:
//! a packet delivery (`Deliver`, handed to [`Model::deliver`]), a protocol
//! timer wake (`Timer`, handed to [`Model::timer`]), a process's sleep wake
//! (`Wake`), or — the open case — a boxed closure (`Call`). Firing an event
//! is one match arm; only `Call` allocates.
//!
//! # Queue structure
//!
//! One binary min-heap of small `Copy` keys, ordered by (time, seq), over a
//! slab of reusable slots that hold the events. Every timer — a packet
//! delivery microseconds out, an RTO seconds out — takes the same O(log n)
//! push and the earliest event is the heap top. The measured queue depth at
//! pop is tens to a few thousand entries (EXPERIMENTS.md, "One event
//! queue"), where a 24-byte-key heap stays in cache; nothing here is tuned
//! to a time scale.
//!
//! [`TimerId`] is a (slot, generation) pair, so `cancel` is O(1): it drops
//! the event, frees the slot, and bumps the generation, leaving a stale
//! `Copy` key in the heap that is discarded when it reaches the top (and
//! bounded before that by compaction once stale keys outnumber live ones).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;

use crate::process::ProcId;
use crate::time::{Dur, SimTime};

/// A simulated world: the state every event mutates, plus the two kinds of
/// typed event it handles. Everything else queued is a boxed closure.
pub trait Model: Sized + 'static {
    /// What a [`Ctx::schedule_deliver`] event carries to [`Model::deliver`].
    type Packet;
    /// Which protocol timer a [`Ctx::schedule_timer_at_seq`] event wakes.
    type Timer: Copy;
    /// A packet arrives.
    fn deliver(&mut self, ctx: &mut Ctx<Self>, pkt: Self::Packet);
    /// A protocol timer's queued wake fires.
    fn timer(&mut self, ctx: &mut Ctx<Self>, key: Self::Timer);
}

/// A world of one counter that only ever queues closures. It exists for the
/// frozen benchmark's scheduler probe (`benchmark/src/probes/simcore.rs`),
/// which times `Ctx<u64>`; it has no packets and no timers.
impl Model for u64 {
    type Packet = std::convert::Infallible;
    type Timer = std::convert::Infallible;
    fn deliver(&mut self, _: &mut Ctx<Self>, pkt: Self::Packet) {
        match pkt {}
    }
    fn timer(&mut self, _: &mut Ctx<Self>, key: Self::Timer) {
        match key {}
    }
}

/// What one run cost the scheduler and the process driver: wall-clock
/// diagnostics with no simulated-time meaning. The wakeup discipline
/// changes them by design, so
/// `SIM_CHECK` compares everything in a result *except* this block. Outcome
/// and result structs carry it whole, by value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Polls of process futures by the driver.
    pub polls: u64,
    /// Wakes that never became a poll: suppressed spurious wakes plus
    /// sleeps satisfied by an inline clock advance.
    pub wakes_coalesced: u64,
    /// Events pushed onto the queue: one per schedule call, late re-queues
    /// under a reserved seq included; inline clock advances push nothing.
    pub queued: u64,
}

/// Identifies a scheduled timer so it can be cancelled. Packs the slab slot
/// index and its generation; cancelling a fired or already-cancelled timer
/// is a generation mismatch and a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

impl TimerId {
    fn pack(idx: u32, gen: u32) -> TimerId {
        TimerId(((idx as u64) << 32) | gen as u64)
    }

    fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// One queued event.
pub(crate) enum Event<W: Model> {
    Deliver(W::Packet),
    Timer(W::Timer),
    /// A process's `ProcEnv::sleep` timer.
    Wake(ProcId),
    Call(Box<dyn FnOnce(&mut W, &mut Ctx<W>)>),
}

impl<W: Model> Event<W> {
    pub(crate) fn fire(self, w: &mut W, ctx: &mut Ctx<W>) {
        match self {
            Event::Deliver(pkt) => w.deliver(ctx, pkt),
            Event::Timer(key) => w.timer(ctx, key),
            Event::Wake(p) => ctx.finish_sleep_and_wake(p),
            Event::Call(f) => f(w, ctx),
        }
    }
}

// ---------------------------------------------------------------------------
// Heap + slab
// ---------------------------------------------------------------------------

/// Ordering key of one queued event. `Copy`, so stale (cancelled) keys cost
/// nothing to carry and nothing to skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
    gen: u32,
}

/// One slab slot: generation tag plus the event, `None` while free.
struct Slot<W: Model> {
    gen: u32,
    ev: Option<Event<W>>,
}

/// Scheduler context: simulated clock, event queue, wake queue, RNG.
///
/// The event queue is `heap` (ordering keys) over `slots` (payloads, with
/// `free` as the slot freelist); a key whose generation no longer matches
/// its slot is a tombstone.
pub struct Ctx<W: Model> {
    now: SimTime,
    seq: u64,
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<Key>>,
    /// Stale keys currently in the heap; bounded by compaction.
    heap_dead: usize,
    wake_fifo: VecDeque<ProcId>,
    /// `wake_pending[p]` is true while `p` sits in `wake_fifo`, so duplicate
    /// wakes coalesce. Grown on demand, like `sleeping`.
    wake_pending: Vec<bool>,
    /// `sleeping[p]` is true while process `p` is parked inside
    /// [`crate::ProcEnv::sleep`]. A wake delivered to a sleeping process is
    /// provably spurious — the sleep loop only re-checks this mark, which
    /// nothing but its own timer clears, then parks again without touching
    /// the world — so the fast discipline drops such wakes instead of paying
    /// a poll for them.
    sleeping: Vec<bool>,
    /// Reference discipline: disable wake suppression and the sleep fast
    /// path, so every wake resumes its target and every sleep is one timer
    /// and one poll. Used by `SIM_CHECK=1` shadow runs and the equivalence
    /// proptests.
    reference: bool,
    /// Runtime deadline, mirrored here so the inline fast paths never advance
    /// the clock past the point where the driver would abort the run.
    deadline: SimTime,
    wakes_suppressed: u64,
    sleep_fastpaths: u64,
    queued: u64,
    /// Master RNG for the simulation. Components that need reproducible
    /// independent streams should use [`crate::rng::derive_rng`] instead and
    /// keep their own generator; this one is for ad-hoc draws (e.g. link loss).
    pub rng: SmallRng,
    events_fired: u64,
    /// Flight recorder, if tracing is enabled for this run. Hooks must be
    /// read-only with respect to simulation state: no RNG draws, no event
    /// scheduling — outputs stay bit-identical with tracing on or off.
    tracer: Option<trace::Tracer>,
}

impl<W: Model> Ctx<W> {
    pub(crate) fn new(rng: SmallRng) -> Self {
        Ctx {
            now: SimTime::ZERO,
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            heap_dead: 0,
            wake_fifo: VecDeque::new(),
            wake_pending: Vec::new(),
            sleeping: Vec::new(),
            reference: false,
            deadline: SimTime::MAX,
            wakes_suppressed: 0,
            sleep_fastpaths: 0,
            queued: 0,
            rng,
            events_fired: 0,
            tracer: None,
        }
    }

    /// Install (or remove) the flight recorder. `Runtime::set_tracer`
    /// forwards here; external reactors holding a standalone context call
    /// it directly.
    pub fn set_tracer(&mut self, tracer: Option<trace::Tracer>) {
        self.tracer = tracer;
    }

    /// Build a standalone context for an external driver — the real-socket
    /// reactor, which owns its own loop instead of a [`crate::Runtime`].
    /// The caller advances virtual time explicitly with [`Ctx::run_due`];
    /// nothing here spawns processes or parks threads.
    pub fn standalone(rng: SmallRng) -> Self {
        Ctx::new(rng)
    }

    /// Fire every queued event due at or before `bound` (in (time, seq)
    /// order, advancing the clock to each event's timestamp), then advance
    /// the clock to `bound` itself. Returns the number of events fired.
    ///
    /// This is the timer pump of the real-socket reactor: `bound` is the
    /// wall clock translated to virtual nanoseconds, so engine timers (RTO,
    /// delayed SACK, heartbeats) fire when real time passes them, and
    /// everything scheduled afterwards is relative to wall time. Events
    /// fired here may schedule further events; those are honored within the
    /// same call when they fall inside `bound`.
    pub fn run_due(&mut self, w: &mut W, bound: SimTime) -> u64 {
        let mut fired = 0u64;
        while let Some(ev) = self.pop_next(bound) {
            ev.fire(w, self);
            fired += 1;
        }
        if bound > self.now {
            self.now = bound;
        }
        fired
    }

    /// Is the flight recorder on? Hooks check this before building events
    /// so tracing costs one branch when off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The installed flight recorder, for hooks that need more than a plain
    /// emit (frame snaplen, HOL-state tracking).
    #[inline]
    pub fn tracer(&self) -> Option<&trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Record one trace event stamped with the current virtual clock.
    /// No-op when tracing is off.
    #[inline]
    pub fn trace_emit(&self, ev: trace::Event) {
        if let Some(t) = &self.tracer {
            t.emit(self.now.as_nanos(), ev);
        }
    }

    pub(crate) fn set_reference(&mut self, on: bool) {
        self.reference = on;
    }

    pub(crate) fn set_deadline(&mut self, deadline: SimTime) {
        self.deadline = deadline;
    }

    /// The run-cost counters of this context, with the driver's own `polls`
    /// count filled in (a context polls nothing itself).
    pub fn counters(&self, polls: u64) -> SchedCounters {
        SchedCounters {
            polls,
            wakes_coalesced: self.wakes_suppressed + self.sleep_fastpaths,
            queued: self.queued,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events fired so far (diagnostic).
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// The sequence number the next scheduled event (or
    /// [`Ctx::reserve_seq`]) will draw.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    fn alloc_slot(&mut self, ev: Event<W>) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(s.ev.is_none(), "freelist slot still occupied");
            s.ev = Some(ev);
            (idx, s.gen)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { gen: 0, ev: Some(ev) });
            (idx, 0)
        }
    }

    /// Take the event out of a live slot and free the slot.
    fn take_slot(&mut self, idx: u32) -> Event<W> {
        let s = &mut self.slots[idx as usize];
        let ev = s.ev.take().expect("live key over an empty slot");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
        ev
    }

    /// Queue an event at (`at`, `seq`). `at` must already be clamped to
    /// `>= now`.
    fn insert(&mut self, at: SimTime, seq: u64, ev: Event<W>) -> TimerId {
        debug_assert!(at >= self.now);
        let (idx, gen) = self.alloc_slot(ev);
        self.heap.push(Reverse(Key { at, seq, idx, gen }));
        self.queued += 1;
        TimerId::pack(idx, gen)
    }

    /// Draw the next sequence number without queueing anything: the
    /// tie-break position an event scheduled now would get, held for a later
    /// [`Ctx::schedule_timer_at_seq`]. [`crate::Deadline`] draws one per
    /// restart, so the handler runs where an eagerly re-queued timer would
    /// have.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Queue `ev` at absolute time `at` (clamped to be >= now) with a
    /// fresh sequence number.
    fn schedule_event(&mut self, at: SimTime, ev: Event<W>) -> TimerId {
        let at = at.max(self.now);
        let seq = self.reserve_seq();
        self.insert(at, seq, ev)
    }

    /// Schedule `f` to run at absolute time `at` (clamped to be >= now).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) -> TimerId {
        self.schedule_event(at, Event::Call(Box::new(f)))
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule_in(&mut self, delay: Dur, f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static) -> TimerId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule `f` at `at` with a sequence number drawn earlier by
    /// [`Ctx::reserve_seq`], so the event keeps the fire-order position it
    /// would have had if scheduled when the seq was drawn.
    pub fn schedule_at_seq(
        &mut self,
        at: SimTime,
        seq: u64,
        f: impl FnOnce(&mut W, &mut Ctx<W>) + 'static,
    ) -> TimerId {
        self.insert_reserved(at, seq, Event::Call(Box::new(f)))
    }

    /// Hand `pkt` to [`Model::deliver`] at `at` (clamped to be >= now).
    pub fn schedule_deliver(&mut self, at: SimTime, pkt: W::Packet) -> TimerId {
        self.schedule_event(at, Event::Deliver(pkt))
    }

    /// Hand `key` to [`Model::timer`] at `at`, with a sequence number drawn
    /// earlier by [`Ctx::reserve_seq`]: the typed form of
    /// [`Ctx::schedule_at_seq`], which [`crate::Deadline`] queues its wakes
    /// with.
    pub fn schedule_timer_at_seq(&mut self, at: SimTime, seq: u64, key: W::Timer) -> TimerId {
        self.insert_reserved(at, seq, Event::Timer(key))
    }

    /// Queue `ev` at (`at`, `seq`) for a `seq` already reserved.
    fn insert_reserved(&mut self, at: SimTime, seq: u64, ev: Event<W>) -> TimerId {
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        debug_assert!(at >= self.now);
        let at = at.max(self.now);
        self.insert(at, seq, ev)
    }

    /// Queue process `p`'s sleep wake after `d`.
    pub(crate) fn schedule_wake_in(&mut self, d: Dur, p: ProcId) {
        self.schedule_event(self.now + d, Event::Wake(p));
    }

    /// Cancel a previously scheduled timer. Cancelling an already-fired or
    /// already-cancelled timer is a generation mismatch and a no-op. O(1)
    /// amortised: the event is dropped and the slot freed immediately; the
    /// stale key left in the heap is a tombstone, peeled off when it reaches
    /// the top and bounded before that by compaction.
    pub fn cancel(&mut self, id: TimerId) {
        let (idx, gen) = id.unpack();
        let Some(s) = self.slots.get(idx as usize) else { return };
        if s.ev.is_none() || s.gen != gen {
            return;
        }
        drop(self.take_slot(idx));
        self.heap_dead += 1;
        self.maybe_compact_heap();
    }

    /// Events queued and neither fired nor cancelled yet.
    pub fn pending_events(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Rebuild the heap without stale keys once they outnumber the live
    /// ones (and there are more than a handful); keeps cancel-heavy runs
    /// from dragging an ever-growing heap through every push/pop.
    fn maybe_compact_heap(&mut self) {
        if self.heap_dead <= 32 || self.heap_dead * 2 <= self.heap.len() {
            return;
        }
        let old = std::mem::take(&mut self.heap);
        let slots = &self.slots;
        // Heapify is O(n); pop order is unchanged because key order is
        // total on (time, seq) regardless of internal heap layout.
        self.heap = old
            .into_iter()
            .filter(|Reverse(k)| slots[k.idx as usize].gen == k.gen)
            .collect();
        self.heap_dead = 0;
    }

    /// Mark a process runnable. Wakeups are drained FIFO by the driver before
    /// the next timed event fires. Duplicate wakes of an already-pending
    /// process coalesce; wakes aimed at a process parked in a charge sleep
    /// are provably spurious (see the `sleeping` bitmap) and are dropped unless
    /// the reference discipline is active.
    pub fn wake(&mut self, p: ProcId) {
        if !self.reference && self.sleeping.get(p.0).copied().unwrap_or(false) {
            self.wakes_suppressed += 1;
            return;
        }
        if self.wake_pending.len() <= p.0 {
            self.wake_pending.resize(p.0 + 1, false);
        }
        if !std::mem::replace(&mut self.wake_pending[p.0], true) {
            self.wake_fifo.push_back(p);
        }
    }

    /// Wake every process in a slice (convenience for waiter lists).
    pub fn wake_all(&mut self, ps: &[ProcId]) {
        for &p in ps {
            self.wake(p);
        }
    }

    /// Mark `p` as parked inside `ProcEnv::sleep` so incoming wakes can be
    /// suppressed. Must be bracketed by [`Ctx::finish_sleep_and_wake`].
    pub(crate) fn begin_sleep(&mut self, p: ProcId) {
        if self.sleeping.len() <= p.0 {
            self.sleeping.resize(p.0 + 1, false);
        }
        debug_assert!(!self.sleeping[p.0], "nested sleep for one process");
        self.sleeping[p.0] = true;
    }

    /// Clear `p`'s sleeping mark and enqueue its (now genuine) timer wake.
    pub(crate) fn finish_sleep_and_wake(&mut self, p: ProcId) {
        debug_assert!(self.sleeping.get(p.0).copied().unwrap_or(false));
        self.sleeping[p.0] = false;
        self.wake(p);
    }

    /// Is `p` still inside a timed `ProcEnv::sleep` (its timer has not
    /// fired)? The sleep loop's re-check after every park.
    pub(crate) fn is_sleeping(&self, p: ProcId) -> bool {
        self.sleeping.get(p.0).copied().unwrap_or(false)
    }

    /// CPU-charge batching fast path: try to satisfy a `sleep(d)` by
    /// advancing the clock inline, with no timer, no park, and no
    /// driver↔process round trip. Legal only when the advance is invisible:
    /// no process is pending a wake (they would have run first), no queued
    /// event fires at or before the target time (`<=` because an
    /// already-queued event at exactly `now + d` carries a smaller seq than
    /// the sleep timer would get, so the reference discipline fires it
    /// first), and the target does not cross the run deadline. Counts the
    /// skipped sleep timer as one fired event so `events_fired` stays
    /// identical to the reference discipline.
    pub(crate) fn try_advance_sleep(&mut self, d: Dur) -> bool {
        if self.reference || !self.wake_fifo.is_empty() {
            return false;
        }
        let to = self.now + d;
        if to > self.deadline {
            return false;
        }
        if self.next_event_key().is_some_and(|(at, _)| at <= to) {
            return false;
        }
        self.now = to;
        self.events_fired += 1;
        self.sleep_fastpaths += 1;
        true
    }

    /// Drain the pending wake batch into `out` (cleared first). Reuses the
    /// driver's buffer so the per-batch `Vec` allocation of the old
    /// `take_wakes` is gone. Batch semantics are load-bearing: every drained
    /// process's pending flag is cleared, so a wake issued *during* the
    /// batch — even to a process earlier in it — lands in the next batch.
    pub(crate) fn take_wakes_into(&mut self, out: &mut Vec<ProcId>) {
        out.clear();
        out.extend(self.wake_fifo.drain(..));
        for p in out.iter() {
            self.wake_pending[p.0] = false;
        }
    }

    #[cfg(test)]
    pub(crate) fn take_wakes(&mut self) -> Vec<ProcId> {
        let mut v = Vec::new();
        self.take_wakes_into(&mut v);
        v
    }

    pub(crate) fn has_wakes(&self) -> bool {
        !self.wake_fifo.is_empty()
    }

    /// Pop the next non-cancelled event no later than `bound`, advancing the
    /// clock to its timestamp. `None` means the queue is empty or its live
    /// minimum lies past `bound` — the tombstones above it are peeled either
    /// way, so [`Ctx::next_event_time`] then tells the two apart.
    fn pop_next(&mut self, bound: SimTime) -> Option<Event<W>> {
        // Peel tombstones until a live key tops the heap; a key past `bound`
        // must stay queued, so peek before popping.
        let key = loop {
            let &Reverse(k) = self.heap.peek()?;
            if self.slots[k.idx as usize].gen == k.gen {
                break k;
            }
            self.heap.pop();
            self.heap_dead -= 1;
        };
        if key.at > bound {
            return None;
        }
        self.heap.pop();
        let ev = self.take_slot(key.idx);
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.events_fired += 1;
        Some(ev)
    }

    /// Driver entry point: pop the next event unless it lies past the run
    /// deadline or the queue is exhausted.
    pub(crate) fn pop_event_due(&mut self) -> Option<Event<W>> {
        self.pop_next(self.deadline)
    }

    /// Pop the next non-cancelled event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    #[cfg(test)]
    pub(crate) fn pop_event(&mut self) -> Option<Event<W>> {
        self.pop_next(SimTime::MAX)
    }

    /// Timestamp of the next pending (possibly cancelled) event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_event_key().map(|(t, _)| t)
    }

    /// (time, seq) of the next pending event. Conservative: stale keys are
    /// included (they order no later than any live event they shadow), so
    /// callers using this to gate inline fast paths only ever decline, never
    /// jump the queue.
    pub fn next_event_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse(k)| (k.at, k.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;
    use std::cell::Cell;
    use std::rc::Rc;

    crate::closure_world!(Vec<u32>);

    fn ctx() -> Ctx<Vec<u32>> {
        Ctx::new(derive_rng(0, 0))
    }

    fn drain(world: &mut Vec<u32>, ctx: &mut Ctx<Vec<u32>>) {
        while let Some(ev) = ctx.pop_event() {
            ev.fire(world, ctx);
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        c.schedule_in(Dur::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(c.now(), SimTime::ZERO + Dur::from_secs(3));
    }

    #[test]
    fn equal_timestamps_fire_in_insertion_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        for i in 0..10 {
            c.schedule_in(Dur::from_secs(1), move |w: &mut Vec<u32>, _| w.push(i));
        }
        drain(&mut w, &mut c);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn near_and_far_timers_interleave_in_order() {
        // Delays from microseconds to tens of seconds, queued out of order:
        // the pop order must be globally (time, seq) sorted.
        let mut c = ctx();
        let mut w = Vec::new();
        let delays = [
            (20_000_000_000u64, 5u32),
            (10_000, 0),
            (1_000_000_000, 3),
            (20_000, 1),
            (40_000_000, 2),
            (2_000_000_000, 4),
        ];
        for &(d, tag) in &delays {
            c.schedule_in(Dur::from_nanos(d), move |w: &mut Vec<u32>, _| w.push(tag));
        }
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn long_timer_queued_first_from_unaligned_now_fires_last() {
        // A PR 3 regression script, kept: from a nonzero `now`, a ~33.5 ms
        // timer queued before a 10 µs one must still fire after it.
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        assert_eq!(c.now(), SimTime::from_nanos(100));
        c.schedule_in(Dur::from_nanos(33_554_382), |w: &mut Vec<u32>, _| w.push(2));
        c.schedule_in(Dur::from_micros(10), |w: &mut Vec<u32>, _| w.push(1));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![0, 1, 2]);
    }

    #[test]
    fn next_event_key_is_the_minimum_when_a_long_timer_was_queued_first() {
        // Same script as above, through the fast-path probe: the reported
        // key must be the true queue minimum (the 10 µs timer) — otherwise
        // the sleep fast path could jump the clock past a queued earlier
        // event.
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        c.schedule_in(Dur::from_nanos(33_554_382), |_: &mut Vec<u32>, _| {});
        c.schedule_in(Dur::from_micros(10), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_micros(10))
        );
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut c = ctx();
        let mut w = Vec::new();
        let id = c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(99));
        c.schedule_in(Dur::from_secs(2), |w: &mut Vec<u32>, _| w.push(1));
        c.cancel(id);
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(1);
            c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(2));
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
        assert_eq!(c.now(), SimTime::ZERO + Dur::from_secs(2));
    }

    #[test]
    fn schedule_at_past_clamps_to_now() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_secs(5), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(1);
            // Try to schedule in the past; must fire at `now`, not panic.
            c.schedule_at(SimTime::ZERO, |w: &mut Vec<u32>, _| w.push(2));
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut c = ctx();
        let mut w = Vec::new();
        let id = c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1]);
        c.cancel(id); // already fired: generation mismatch, no-op
        c.cancel(id);
        // A fresh timer must still schedule and fire normally afterwards.
        c.schedule_in(Dur::from_secs(1), |w: &mut Vec<u32>, _| w.push(2));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn cancel_runs_the_closure_destructor_immediately() {
        let alive = Rc::new(Cell::new(1));
        let mut c = ctx();
        struct Dec(Rc<Cell<i32>>);
        impl Drop for Dec {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let guard = Dec(Rc::clone(&alive));
        let id = c.schedule_in(Dur::from_secs(1), move |_: &mut Vec<u32>, _| {
            let _g = &guard;
        });
        assert_eq!(alive.get(), 1);
        c.cancel(id);
        assert_eq!(alive.get(), 0, "cancel must drop the capture eagerly");
    }

    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        // A `Call` is boxed whatever its size: a capture far larger than any
        // typed event must still schedule, fire, and deliver its payload
        // intact.
        let mut c = ctx();
        let mut w = Vec::new();
        let big = [7u64; 64]; // 512 B
        c.schedule_in(Dur::from_micros(1), move |w: &mut Vec<u32>, _| {
            w.push(big.iter().sum::<u64>() as u32)
        });
        drain(&mut w, &mut c);
        assert_eq!(w, vec![7 * 64]);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = ctx();
        let mut w = Vec::new();
        for round in 0..1000u32 {
            c.schedule_in(Dur::from_micros(1), move |w: &mut Vec<u32>, _| w.push(round));
            drain(&mut w, &mut c);
        }
        assert_eq!(w.len(), 1000);
        assert!(c.slots.len() <= 2, "sequential schedule/fire must reuse one slot");
    }

    #[test]
    fn heap_tombstones_are_bounded_under_churn() {
        let mut c = ctx();
        // Schedule/cancel churn: every key left behind is a tombstone.
        for i in 0..10_000u64 {
            let id = c.schedule_in(Dur::from_secs(1 + i), |_: &mut Vec<u32>, _| {});
            c.cancel(id);
        }
        assert!(
            c.heap_dead <= c.heap.len().max(64),
            "stale heap keys ({}) must not dominate the heap ({})",
            c.heap_dead,
            c.heap.len()
        );
        assert!(c.slots.len() <= 2, "cancel must free slab slots for reuse");
        let mut w = Vec::new();
        drain(&mut w, &mut c);
        assert!(w.is_empty());
    }

    #[test]
    fn compaction_preserves_fire_order() {
        let mut c = ctx();
        let mut w = Vec::new();
        let mut keep = Vec::new();
        for i in 0..200u32 {
            let id = c.schedule_in(Dur::from_secs(i as u64 + 1), move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
            if i % 3 == 0 {
                keep.push(i);
            } else {
                c.cancel(id); // forces at least one heap compaction
            }
        }
        drain(&mut w, &mut c);
        assert_eq!(w, keep, "survivors fire in time order after compaction");
        // Tombstones made after the last compaction were peeled by the
        // drain, each counted out once.
        assert_eq!(c.heap_dead, 0);
        assert!(c.heap.is_empty());
    }

    #[test]
    fn stale_top_does_not_hide_the_live_minimum() {
        let mut c = ctx();
        let mut w = Vec::new();
        let early = c.schedule_at(SimTime::from_nanos(1_000), |w: &mut Vec<u32>, _| w.push(9));
        c.schedule_at(SimTime::from_nanos(2_000), |w: &mut Vec<u32>, _| w.push(1));
        c.cancel(early);
        // The tombstone still tops the heap: the probe stays a lower bound,
        // so an inline advance between it and the live minimum declines
        // (conservative) and one past the live minimum must decline.
        assert_eq!(c.next_event_key(), Some((SimTime::from_nanos(1_000), 0)));
        assert!(!c.try_advance_sleep(Dur::from_nanos(1_500)));
        assert!(!c.try_advance_sleep(Dur::from_nanos(2_500)));
        assert_eq!(c.now(), SimTime::ZERO, "a declined advance leaves the clock alone");
        // A pop past the tombstone's instant but short of the live event
        // peels the tombstone and removes nothing live.
        assert!(c.pop_next(SimTime::from_nanos(1_500)).is_none());
        assert_eq!(c.heap_dead, 0);
        assert_eq!(c.next_event_key(), Some((SimTime::from_nanos(2_000), 1)));
        // With the tombstone gone the advance short of the live event holds.
        assert!(c.try_advance_sleep(Dur::from_nanos(1_500)));
        assert_eq!(c.now(), SimTime::from_nanos(1_500));
        drain(&mut w, &mut c);
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn queued_counts_one_per_insert() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_in(Dur::from_micros(1), |_: &mut Vec<u32>, _| {});
        let id = c.schedule_at(SimTime::from_nanos(500), |_: &mut Vec<u32>, _| {});
        c.cancel(id); // a cancelled insert was still an insert
        let seq = c.reserve_seq(); // reserving queues nothing
        assert_eq!(seq, 2);
        assert_eq!(c.counters(0).queued, 2);
        c.schedule_at(SimTime::from_nanos(100), move |_: &mut Vec<u32>, c| {
            // A late wake queued with its reserved seq: a re-queue.
            c.schedule_at_seq(SimTime::from_nanos(200), seq, |_: &mut Vec<u32>, _| {});
        });
        assert_eq!(c.counters(0).queued, 3);
        drain(&mut w, &mut c);
        assert_eq!(c.counters(0).queued, 4);
        assert!(c.try_advance_sleep(Dur::from_millis(1)));
        assert_eq!(c.counters(0).queued, 4, "an inline advance queues nothing");
    }

    #[test]
    fn next_event_key_sees_coarse_and_fine_timers() {
        let mut c = ctx();
        let mut w = Vec::new();
        c.schedule_at(SimTime::from_nanos(100), |w: &mut Vec<u32>, _| w.push(0));
        drain(&mut w, &mut c);
        c.schedule_in(Dur::from_millis(200), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_millis(200))
        );
        // A microsecond timer queued in front of it must win the probe.
        c.schedule_in(Dur::from_micros(5), |_: &mut Vec<u32>, _| {});
        assert_eq!(
            c.next_event_time(),
            Some(SimTime::from_nanos(100) + Dur::from_micros(5))
        );
    }

    #[test]
    fn run_due_fires_due_events_and_advances_to_the_bound() {
        let mut c: Ctx<Vec<u32>> = Ctx::standalone(derive_rng(0, 0));
        let mut w = Vec::new();
        c.schedule_in(Dur::from_micros(10), |w: &mut Vec<u32>, _| w.push(1));
        c.schedule_in(Dur::from_micros(20), |w: &mut Vec<u32>, c: &mut Ctx<Vec<u32>>| {
            w.push(2);
            // A follow-on inside the bound fires in the same pump.
            c.schedule_in(Dur::from_micros(5), |w: &mut Vec<u32>, _| w.push(3));
        });
        c.schedule_in(Dur::from_millis(1), |w: &mut Vec<u32>, _| w.push(9));
        let fired = c.run_due(&mut w, SimTime::from_nanos(100_000));
        assert_eq!(fired, 3);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(c.now(), SimTime::from_nanos(100_000), "clock lands on the bound");
        // The past-bound timer is intact and fires on the next pump.
        let fired = c.run_due(&mut w, SimTime::from_nanos(2_000_000));
        assert_eq!(fired, 1);
        assert_eq!(w, vec![1, 2, 3, 9]);
        assert_eq!(c.now(), SimTime::from_nanos(2_000_000));
        // An empty queue still advances the clock.
        assert_eq!(c.run_due(&mut w, SimTime::from_nanos(3_000_000)), 0);
        assert_eq!(c.now(), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn duplicate_wakes_coalesce() {
        let mut c = ctx();
        c.wake(ProcId(3));
        c.wake(ProcId(3));
        c.wake(ProcId(1));
        assert_eq!(c.take_wakes(), vec![ProcId(3), ProcId(1)]);
        assert!(c.take_wakes().is_empty());
    }
}
