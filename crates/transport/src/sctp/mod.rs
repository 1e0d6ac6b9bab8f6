//! SCTP: a KAME-style implementation (the transport under the paper's
//! LAM-SCTP module). See crate docs and DESIGN.md S6 for the inventory.

mod assoc;
mod engine;
mod receive;
pub mod sched;
mod window;
mod wire;

pub use assoc::{AssocId, AssocState, AssocStats, EpId, PathState, RecvMsg, SctpCfg, SctpHost};
pub use engine::{
    assoc_state, can_send, check_send, connect, dump_all, input, listen, lookup_peer, peer_addrs,
    primary_path, readable, recvmsg, register_reader, register_writer, register_writer_for,
    sendmsg, sendmsg_pr, sendmsg_v, set_primary, shutdown, socket, stats, SendErr,
};
pub use receive::RcvWindow;
pub use sched::{SchedCandidate, SchedKind, StreamScheduler};
pub use window::SentRing;
pub use wire::{
    Chunk, Cookie, DataChunk, IDataChunk, SctpPacket, COMMON_HEADER, COOKIE_WIRE_LEN,
    EXT_INTERLEAVE, EXT_PR_SCTP,
};
