//! Virtual-process runtime.
//!
//! Simulated programs (e.g. MPI ranks) are `Future`s — straight-line `async`
//! code with `.await` at every point that can block — and [`Runtime::run`]
//! is their executor, on the calling thread. The driver either fires timed
//! events or polls one process; a process that cannot continue returns
//! `Pending`, which hands control back to the driver on the same stack. No
//! thread is spawned and nothing is ever runnable concurrently, so whole
//! simulations are deterministic — same seed, same world, same result, bit
//! for bit — while workloads stay free of hand-rolled state machines.
//!
//! Wakeup discipline: a parked process is polled again only via
//! [`crate::sched::Ctx::wake`] (the task `Waker` is a no-op). Wakeups may be
//! *spurious* from the waiter's perspective, so all waiting code must follow
//! condition-variable style: re-check the condition after every park.
//! [`ProcEnv::block_on`] encodes that pattern. The scheduler additionally
//! *suppresses* the one class of wake it can prove spurious (wakes aimed at
//! a process inside a CPU-charge [`ProcEnv::sleep`]) and satisfies quiescent
//! sleeps with an inline clock advance; `set_reference_discipline` restores
//! the original one-resume-per-wake accounting for `SIM_CHECK` shadow runs.
//! Both disciplines produce bit-identical worlds, simulated times, and event
//! counts — only the number of polls differs.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::rng::derive_rng;
use crate::sched::{Ctx, Model, SchedCounters};
use crate::time::{Dur, SimTime};

thread_local! {
    static REFERENCE_DISCIPLINE: Cell<bool> = const { Cell::new(false) };
}

/// Select the wakeup discipline for `Runtime::run` calls made **on this
/// thread**: `true` re-enables the reference (pre-coalescing) accounting —
/// every wake resumes its target and every sleep is a timer + park — which
/// `SIM_CHECK=1` shadow runs compare against. Thread-local so parallel bench
/// workers can shadow-check cells independently.
pub fn set_reference_discipline(on: bool) {
    REFERENCE_DISCIPLINE.with(|c| c.set(on));
}

/// The discipline `Runtime::run` would pick up on this thread.
fn reference_discipline() -> bool {
    REFERENCE_DISCIPLINE.with(|c| c.get())
}

/// Identifies a simulated process within one [`Runtime`]. Process ids are
/// assigned densely from zero in spawn order, so MPI ranks map directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// World + scheduler, shared by the driver and every process. Only one of
/// them runs at a time by construction, so the `RefCell` never sees a
/// conflicting borrow unless user code re-enters [`ProcEnv::with`].
struct Sim<W: Model> {
    world: W,
    ctx: Ctx<W>,
}

struct Shared<W: Model> {
    sim: RefCell<Sim<W>>,
    /// Wakes of the current driver batch not yet polled. The batch lives in
    /// the driver's private buffer, invisible to the scheduler's wake queue,
    /// so the sleep fast path must consult this count too: a process polled
    /// mid-batch may not advance the clock while batch peers are still
    /// entitled to run at the current time.
    inflight_wakes: Cell<usize>,
}

/// A handle a simulated process uses to touch the shared world, sleep, and
/// block. Each process gets exactly one.
pub struct ProcEnv<W: Model> {
    id: ProcId,
    shared: Rc<Shared<W>>,
}

/// Returns `Pending` exactly once: the process hands control to the driver
/// and continues when the driver next polls it.
struct Park(bool);

impl Future for Park {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        Poll::Pending
    }
}

impl<W: Model> ProcEnv<W> {
    /// This process's id (== its MPI rank in the middleware).
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.sim.borrow().ctx.now()
    }

    /// Run `f` with exclusive access to the world and scheduler.
    ///
    /// Do not call `with` re-entrantly from inside `f` — the world is
    /// already borrowed and doing so panics.
    pub fn with<R>(&self, f: impl FnOnce(&mut W, &mut Ctx<W>) -> R) -> R {
        let mut g = self.shared.sim.borrow_mut();
        let Sim { world, ctx } = &mut *g;
        f(world, ctx)
    }

    /// Yield to the driver until someone calls `ctx.wake(self.id())`.
    ///
    /// May return spuriously (see module docs); re-check your condition.
    pub async fn park(&self) {
        Park(false).await
    }

    /// Block until `poll` returns `Some`. `poll` runs with the world
    /// borrowed and is responsible for registering this process wherever
    /// the eventual wake will come from (waiter lists, timers, ...).
    pub async fn block_on<R>(&self, mut poll: impl FnMut(&mut W, &mut Ctx<W>) -> Option<R>) -> R {
        loop {
            if let Some(r) = self.with(&mut poll) {
                return r;
            }
            self.park().await;
        }
    }

    /// Advance this process's local time by `d` without doing anything —
    /// models computation or CPU charges. Simulated time continues for the
    /// network and for other processes.
    ///
    /// Consecutive CPU charges batch: when the simulation is quiescent (no
    /// pending wakes, no event due at or before `now + d`, deadline not
    /// crossed) the clock advances inline and the process never yields.
    /// Otherwise a real timer is scheduled and the process parks; while it
    /// is parked here, the scheduler suppresses foreign wakes — they are
    /// provably spurious, since this loop re-checks only the sleeping mark
    /// its own timer clears and parks again without touching the world.
    pub async fn sleep(&self, d: Dur) {
        if d.is_zero() {
            return;
        }
        if self.shared.inflight_wakes.get() == 0 && self.with(|_, ctx| ctx.try_advance_sleep(d)) {
            return;
        }
        let id = self.id;
        self.with(|_, ctx| {
            ctx.begin_sleep(id);
            ctx.schedule_wake_in(d, id);
        });
        while self.with(|_, ctx| ctx.is_sleeping(id)) {
            self.park().await;
        }
    }

    /// Let every other currently-runnable process run before continuing.
    pub async fn yield_now(&self) {
        let id = self.id;
        self.with(|_, ctx| ctx.wake(id));
        self.park().await;
    }
}

/// Outcome of a completed simulation run.
#[derive(Debug)]
pub struct RunOutcome<W> {
    /// Final world state.
    pub world: W,
    /// Simulated time at which the last process finished (on a deadline
    /// abort: of the last event fired before it).
    pub sim_time: SimTime,
    /// Total events fired (diagnostic). Identical under both wakeup
    /// disciplines: inline-advanced sleeps count their skipped timer.
    pub events: u64,
    /// What the run cost the scheduler and this driver (polls included).
    pub sched: SchedCounters,
    /// True if the run was cut short by the deadline; processes still
    /// blocked at that point were dropped unfinished.
    pub hit_deadline: bool,
}

/// One process: its name (for deadlock reports) and its future, `None` once
/// it has completed.
struct Proc {
    name: String,
    fut: Option<Pin<Box<dyn Future<Output = ()>>>>,
}

/// Builds and drives one simulation: a world, a scheduler, and a set of
/// virtual processes.
pub struct Runtime<W: Model> {
    shared: Rc<Shared<W>>,
    procs: Vec<Proc>,
}

impl<W: Model> Runtime<W> {
    /// Create a runtime over `world`, deriving all randomness from `seed`.
    pub fn new(world: W, seed: u64) -> Self {
        let ctx = Ctx::new(derive_rng(seed, u64::MAX));
        Runtime {
            shared: Rc::new(Shared {
                sim: RefCell::new(Sim { world, ctx }),
                inflight_wakes: Cell::new(0),
            }),
            procs: Vec::new(),
        }
    }

    /// Abort the run (returning `hit_deadline = true`) if simulated time
    /// would pass `deadline`. Guards against runaway simulations in tests.
    pub fn set_deadline(&mut self, deadline: SimTime) {
        self.shared.sim.borrow_mut().ctx.set_deadline(deadline);
    }

    /// Install a flight recorder on the scheduler context, so every event
    /// of the run is visible to the hooks. Tracing never perturbs the
    /// simulation (see [`Ctx::trace_emit`]).
    pub fn set_tracer(&mut self, tracer: Option<trace::Tracer>) {
        self.shared.sim.borrow_mut().ctx.set_tracer(tracer);
    }

    /// Register a process. Ids are assigned densely in spawn order; the
    /// future `f` returns is first polled inside [`Runtime::run`].
    pub fn spawn<Fut>(&mut self, name: impl Into<String>, f: impl FnOnce(ProcEnv<W>) -> Fut) -> ProcId
    where
        Fut: Future<Output = ()> + 'static,
    {
        let id = ProcId(self.procs.len());
        let env = ProcEnv { id, shared: Rc::clone(&self.shared) };
        self.procs.push(Proc { name: name.into(), fut: Some(Box::pin(f(env))) });
        id
    }

    /// Drive the simulation to completion: all processes finished, or
    /// deadlock (panics), or deadline.
    pub fn run(self) -> RunOutcome<W> {
        let Runtime { shared, mut procs } = self;
        {
            // Seed: every process gets an initial wakeup, in id order. The
            // discipline is whatever this thread selected.
            let mut g = shared.sim.borrow_mut();
            g.ctx.set_reference(reference_discipline());
            for i in 0..procs.len() {
                g.ctx.wake(ProcId(i));
            }
        }

        let mut cx = Context::from_waker(Waker::noop());
        let mut live = procs.len();
        let mut hit_deadline = false;
        let mut polls: u64 = 0;
        let mut wake_buf: Vec<ProcId> = Vec::new();
        loop {
            // Drain wakeups first: same-timestamp readiness beats timers.
            // Batches repeat until no wake is pending; wakes issued during a
            // batch land in the next one (see `take_wakes_into`).
            loop {
                shared.sim.borrow_mut().ctx.take_wakes_into(&mut wake_buf);
                if wake_buf.is_empty() {
                    break;
                }
                shared.inflight_wakes.set(wake_buf.len());
                for p in &wake_buf {
                    // The process we are about to poll no longer counts as
                    // in flight; only not-yet-polled batch peers gate the
                    // sleep fast path.
                    shared.inflight_wakes.set(shared.inflight_wakes.get() - 1);
                    let proc = &mut procs[p.0];
                    let Some(fut) = proc.fut.as_mut() else { continue };
                    polls += 1;
                    match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
                        Ok(Poll::Pending) => {}
                        Ok(Poll::Ready(())) => {
                            proc.fut = None;
                            live -= 1;
                        }
                        // The panic hook has already printed the message.
                        Err(_) => panic!("simulated process panicked: {}; see stderr for details", proc.name),
                    }
                }
            }
            if live == 0 {
                break;
            }

            // Fire a run of timed events back to back, stopping as soon as
            // an event makes a process runnable — the reference discipline
            // polls it before firing the next event, and so must we for
            // bit-identical worlds.
            let mut g = shared.sim.borrow_mut();
            let mut fired_any = false;
            while !g.ctx.has_wakes() {
                let Sim { world, ctx } = &mut *g;
                let Some(ev) = ctx.pop_event_due() else {
                    // Nothing due: either the queue is empty or its live
                    // minimum lies past the deadline.
                    hit_deadline |= ctx.next_event_time().is_some();
                    break;
                };
                ev.fire(world, ctx);
                fired_any = true;
            }
            if fired_any {
                continue;
            }
            if hit_deadline {
                break;
            }
            // No wakes, no events, processes still alive: deadlock.
            let stuck: Vec<&str> =
                procs.iter().filter(|p| p.fut.is_some()).map(|p| p.name.as_str()).collect();
            panic!("simulation deadlock: no pending events, processes still blocked: {stuck:?}");
        }

        // Dropping the futures (unfinished ones too, after a deadline)
        // releases every `ProcEnv`, leaving `shared` uniquely owned.
        drop(procs);
        let Ok(shared) = Rc::try_unwrap(shared) else {
            panic!("a ProcEnv outlived its process");
        };
        let sim = shared.sim.into_inner();
        RunOutcome {
            sim_time: sim.ctx.now(),
            events: sim.ctx.events_fired(),
            sched: sim.ctx.counters(polls),
            world: sim.world,
            hit_deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<String>,
    }
    crate::closure_world!(W);

    #[test]
    fn single_process_runs_to_completion() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("p0", |env: ProcEnv<W>| async move {
            env.with(|w, _| w.log.push("hello".into()));
        });
        let out = rt.run();
        assert_eq!(out.world.log, vec!["hello"]);
        assert_eq!(out.sim_time, SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_time() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("p0", |env: ProcEnv<W>| async move {
            env.sleep(Dur::from_millis(250)).await;
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_millis(250));
        });
        let out = rt.run();
        assert_eq!(out.sim_time, SimTime::ZERO + Dur::from_millis(250));
    }

    #[test]
    fn processes_interleave_deterministically() {
        fn run_once() -> Vec<String> {
            let mut rt = Runtime::new(W::default(), 7);
            for p in 0..4 {
                rt.spawn(format!("p{p}"), move |env: ProcEnv<W>| async move {
                    for step in 0..3 {
                        env.sleep(Dur::from_millis(10 * (p as u64 + 1))).await;
                        env.with(|w, _| w.log.push(format!("p{p}.{step}")));
                    }
                });
            }
            rt.run().world.log
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same seed must give identical interleavings");
        assert_eq!(a.len(), 12);
        assert_eq!(a[0], "p0.0", "shortest sleeper logs first");
    }

    #[test]
    fn block_on_wakes_from_event() {
        struct Flag {
            ready: bool,
        }
        crate::closure_world!(Flag);
        let mut rt = Runtime::new(Flag { ready: false }, 1);
        rt.spawn("waiter", |env: ProcEnv<Flag>| async move {
            let id = env.id();
            // Arrange for an event to set the flag and wake us.
            env.with(move |_, ctx| {
                ctx.schedule_in(Dur::from_secs(1), move |w: &mut Flag, ctx| {
                    w.ready = true;
                    ctx.wake(id);
                });
            });
            env.block_on(|w, _| if w.ready { Some(()) } else { None }).await;
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_secs(1));
        });
        let out = rt.run();
        assert!(out.world.ready);
    }

    #[test]
    fn two_processes_ping_pong_via_world() {
        // p0 waits for a token p1 deposits after 5ms; then p0 responds and
        // p1 waits for the response. Exercises wake() round trips.
        #[derive(Default)]
        struct Mailbox {
            to_p0: Option<u32>,
            to_p1: Option<u32>,
        }
        crate::closure_world!(Mailbox);
        let mut rt = Runtime::new(Mailbox::default(), 3);
        rt.spawn("p0", |env: ProcEnv<Mailbox>| async move {
            let v = env.block_on(|w, _| w.to_p0.take()).await;
            env.with(|w, ctx| {
                w.to_p1 = Some(v + 1);
                ctx.wake(ProcId(1));
            });
        });
        rt.spawn("p1", |env: ProcEnv<Mailbox>| async move {
            env.sleep(Dur::from_millis(5)).await;
            env.with(|w, ctx| {
                w.to_p0 = Some(41);
                ctx.wake(ProcId(0));
            });
            let v = env.block_on(|w, _| w.to_p1.take()).await;
            assert_eq!(v, 42);
        });
        rt.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("stuck", |env: ProcEnv<W>| async move {
            env.park().await; // nothing will ever wake us
        });
        rt.run();
    }

    #[test]
    #[should_panic(expected = "simulated process panicked")]
    fn process_panic_propagates() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("boom", |_env: ProcEnv<W>| async move {
            panic!("intentional test panic");
        });
        rt.run();
    }

    #[test]
    fn deadline_abort_returns_the_world() {
        // One process finishes before the deadline, one sleeps past it and
        // one is blocked forever: the run returns (it used to panic, the
        // stranded threads holding the world) with both dropped unfinished.
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("quick", |env: ProcEnv<W>| async move {
            env.sleep(Dur::from_millis(1)).await;
            env.with(|w, _| w.log.push("quick".into()));
        });
        rt.spawn("late", |env: ProcEnv<W>| async move {
            env.sleep(Dur::from_secs(10)).await;
            env.with(|w, _| w.log.push("late".into()));
        });
        rt.spawn("stuck", |env: ProcEnv<W>| async move {
            env.park().await;
            env.park().await;
        });
        rt.set_deadline(SimTime::ZERO + Dur::from_secs(1));
        let out = rt.run();
        assert!(out.hit_deadline);
        assert_eq!(out.world.log, vec!["quick"]);
        assert_eq!(out.sim_time, SimTime::ZERO + Dur::from_millis(1));
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("a", |env: ProcEnv<W>| async move {
            env.with(|w, _| w.log.push("a1".into()));
            env.yield_now().await;
            env.with(|w, _| w.log.push("a2".into()));
        });
        rt.spawn("b", |env: ProcEnv<W>| async move {
            env.with(|w, _| w.log.push("b1".into()));
        });
        let out = rt.run();
        assert_eq!(out.world.log, vec!["a1", "b1", "a2"]);
    }

    #[test]
    fn spurious_wake_does_not_break_sleep() {
        // A process sleeping 100ms gets woken at 10ms by an unrelated event;
        // sleep must still take the full 100ms.
        let mut rt = Runtime::new(W::default(), 1);
        rt.spawn("sleeper", |env: ProcEnv<W>| async move {
            let id = env.id();
            env.with(move |_, ctx| {
                ctx.schedule_in(Dur::from_millis(10), move |_, ctx| ctx.wake(id));
            });
            env.sleep(Dur::from_millis(100)).await;
            assert_eq!(env.now(), SimTime::ZERO + Dur::from_millis(100));
        });
        rt.run();
    }
}
