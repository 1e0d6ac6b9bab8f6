//! `mpi-core` — MPI middleware with TCP and SCTP request-progression
//! modules: the Rust reproduction of the paper's LAM-MPI redesign.
//!
//! * [`api`] — the user-facing MPI surface: `send`/`recv`, `isend`/`irecv`,
//!   `wait`/`waitany`/`waitall`, wildcards, `compute` (modelled work);
//! * [`collectives`] — barrier, bcast, reduce, allreduce, gather, scatter,
//!   allgather, alltoall over point-to-point;
//! * [`matching`] — the request table and TRC matching engine with
//!   eager / rendezvous / synchronous protocols and the
//!   unexpected-message queue;
//! * [`rpi_tcp`] — LAM-TCP: socket-per-peer, `select()` polling;
//! * [`rpi_sctp`] — the paper's contribution: one-to-many socket,
//!   association→rank and (context, tag)→stream mapping, Option A/B long
//!   message race fixes, single-stream ablation;
//! * [`cost`] — the middleware CPU cost model behind Figure 8's crossover;
//! * [`launch`] — `mpirun` over the simulated cluster.

#![forbid(unsafe_code)]

pub mod api;
pub mod collectives;
pub mod comm;
pub mod cost;
pub mod daemon;
pub mod envelope;
pub mod launch;
pub mod matching;
pub mod rpi_sctp;
pub mod rpi_tcp;

pub use api::{Mpi, MpiStats, Msg, TransportSel, ANY_SOURCE, ANY_TAG};
pub use comm::{Comm, COMM_WORLD};
pub use collectives::{f64s_to_bytes, msg_to_f64s, ReduceOp};
pub use cost::CostCfg;
pub use launch::{mpirun, mpirun_monitored, mpirun_traced, MpiCfg, MpiReport, RankFut};
pub use matching::{ReqId, Status};
pub use rpi_sctp::{ContextMap, RaceFix};
