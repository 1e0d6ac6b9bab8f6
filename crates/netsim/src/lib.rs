//! `netsim` — the simulated cluster network for the `sctp-mpi` reproduction.
//!
//! Models the paper's testbed: eight hosts, three independent 1 Gb/s
//! switched Ethernet networks (one per interface), and Dummynet-style
//! configurable per-path packet loss.
//!
//! This crate is *pure*: it never schedules events. [`Net::transmit`] is a
//! function from (time, packet) to a delivery instant or a drop verdict; the
//! transport layer above turns delivery instants into scheduler events. That
//! keeps the network unit-testable without a running simulation.
//!
//! Beyond the uniform Bernoulli pipe, the [`fault`] module scripts
//! deterministic failure scenarios — bursty Gilbert–Elliott loss, scheduled
//! link flaps, bounded-reordering delay jitter, and bandwidth-degradation
//! windows — installed per-[`Net`] via [`Net::set_fault_plan`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod fault;
pub mod link;
pub mod net;

pub use addr::{HostId, IfAddr};
pub use fault::{BurstLossRule, DegradeRule, FaultPlan, FlapRule, JitterRule, Scope};
pub use link::{DropReason, LinkCfg, LinkStats, LINK_BPS, PROP_DELAY};
pub use net::{Net, NetCfg, NetStats, Verdict, LOOPBACK_DELAY, SWITCH_LATENCY};
