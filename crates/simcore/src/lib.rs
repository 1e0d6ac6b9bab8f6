//! `simcore` — deterministic discrete-event simulation core.
//!
//! This crate is the foundation of the `sctp-mpi` reproduction of
//! *“SCTP versus TCP for MPI”* (SC 2005). It provides:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`], [`Dur`]);
//! * [`sched`] — the event queue and scheduler context ([`Ctx`]), with
//!   deterministic tie-breaking and cancellable timers, over a world that
//!   names its typed events ([`Model`]);
//! * [`deadline`] — a restartable protocol timer as one value ([`Deadline`]);
//! * [`process`] — a virtual-process runtime ([`Runtime`], [`ProcEnv`]) that
//!   runs simulated programs as straight-line `async` Rust: every process
//!   is a `Future` polled by the runtime on the calling thread, so the
//!   whole simulation is single-threaded and fully deterministic;
//! * [`rng`] — seed-derived independent random streams.
//!
//! Everything above this crate (network, transports, MPI middleware,
//! workloads) is built on these five pieces.

#![forbid(unsafe_code)]

pub mod deadline;
pub mod fxhash;
pub mod process;
pub mod rng;
pub mod sched;
pub mod time;

pub use deadline::Deadline;
pub use process::{set_reference_discipline, ProcEnv, ProcId, RunOutcome, Runtime};
pub use rng::{derive_rng, stream_id};
pub use sched::{Ctx, Model, SchedCounters, TimerId};
pub use time::{bytes_sent_in, transmission_time, Dur, SimTime};

/// `impl Model` for test worlds that only queue closures: no packets, no
/// timers.
#[cfg(test)]
macro_rules! closure_world {
    ($($w:ty),*) => {$(
        impl $crate::Model for $w {
            type Packet = std::convert::Infallible;
            type Timer = std::convert::Infallible;
            fn deliver(&mut self, _: &mut $crate::Ctx<Self>, pkt: Self::Packet) {
                match pkt {}
            }
            fn timer(&mut self, _: &mut $crate::Ctx<Self>, key: Self::Timer) {
                match key {}
            }
        }
    )*};
}
#[cfg(test)]
pub(crate) use closure_world;
