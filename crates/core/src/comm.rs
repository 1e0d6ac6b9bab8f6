//! Communicators: groups of processes with private communication contexts.
//!
//! The paper (§2.3) leans on exactly this machinery: a *context* identifies
//! a set of processes that communicate, and context creation is dynamic —
//! which is why the authors rejected mapping sockets to contexts and used
//! the (context, tag) pair for stream selection instead (or, alternatively,
//! the SCTP PPID field). Contexts here are allocated in pairs: an even id
//! for point-to-point traffic and the odd id above it for collectives, so
//! collective rounds can never match user receives.

use std::sync::Arc;

use bytes::Bytes;

use crate::api::{Mpi, Msg};
use crate::matching::{ReqId, Status};

/// Handle to a communicator (cheap to copy; owned by the [`Mpi`] that
/// created it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comm {
    pub(crate) id: usize,
}

/// MPI_COMM_WORLD.
pub const COMM_WORLD: Comm = Comm { id: 0 };

#[derive(Debug, Clone)]
pub(crate) struct CommData {
    /// Point-to-point context (collectives use `cxt + 1`).
    pub cxt: u32,
    /// Local rank → world rank.
    pub group: Arc<Vec<u16>>,
    /// This process's rank within the group.
    pub my_local: u16,
}

impl CommData {
    pub(crate) fn world(rank: u16, size: u16) -> CommData {
        CommData {
            cxt: crate::api::CXT_WORLD,
            group: Arc::new((0..size).collect()),
            my_local: rank,
        }
    }
}

/// A borrowed view used internally by the collectives.
#[derive(Clone)]
pub(crate) struct CommView {
    pub cxt: u32,
    pub group: Arc<Vec<u16>>,
    pub me: u16,
}

impl CommView {
    pub fn size(&self) -> u16 {
        self.group.len() as u16
    }

    pub fn world_of(&self, local: u16) -> u16 {
        self.group[local as usize]
    }
}

impl Mpi {
    pub(crate) fn comm_data(&self, comm: Comm) -> &CommData {
        &self.comms[comm.id]
    }

    pub(crate) fn comm_view(&self, comm: Comm) -> CommView {
        let d = self.comm_data(comm);
        CommView { cxt: d.cxt, group: Arc::clone(&d.group), me: d.my_local }
    }

    /// This process's rank within `comm`.
    pub fn comm_rank(&self, comm: Comm) -> u16 {
        self.comm_data(comm).my_local
    }

    /// Number of processes in `comm`.
    pub fn comm_size(&self, comm: Comm) -> u16 {
        self.comm_data(comm).group.len() as u16
    }

    /// Agree on a fresh context pair across the members of `parent`.
    /// Collective over `parent`.
    async fn allocate_context(&mut self, parent: Comm) -> u32 {
        let mine = self.next_cxt as f64;
        let agreed = self.allreduce_on(parent, crate::ReduceOp::Max, &[mine]).await[0] as u32;
        self.next_cxt = agreed + 2;
        agreed
    }

    /// Duplicate `comm`: same group, fresh context — traffic on the dup can
    /// never match receives on the original. Collective over `comm`.
    pub async fn comm_dup(&mut self, comm: Comm) -> Comm {
        let cxt = self.allocate_context(comm).await;
        let d = self.comm_data(comm).clone();
        self.comms.push(CommData { cxt, group: d.group, my_local: d.my_local });
        Comm { id: self.comms.len() - 1 }
    }

    /// Split `comm` by color: processes with equal `color` end up in the
    /// same new communicator, ordered by `(key, old rank)`. `None` color
    /// returns `None` (MPI_UNDEFINED). Collective over `comm`.
    pub async fn comm_split(&mut self, comm: Comm, color: Option<i32>, key: i32) -> Option<Comm> {
        let cxt = self.allocate_context(comm).await;
        // Exchange (color, key) triples via an allgather on the parent.
        let me_world = self.rank();
        let payload = {
            let mut v = Vec::with_capacity(12);
            v.extend_from_slice(&color.unwrap_or(i32::MIN).to_le_bytes());
            v.extend_from_slice(&key.to_le_bytes());
            v.extend_from_slice(&(me_world as u32).to_le_bytes());
            Bytes::from(v)
        };
        let all = self.allgather_on(comm, payload).await;
        let color = color?;
        let mut members: Vec<(i32, u16)> = all
            .iter()
            .filter_map(|b| {
                let c = i32::from_le_bytes(b[0..4].try_into().unwrap());
                let k = i32::from_le_bytes(b[4..8].try_into().unwrap());
                let w = u32::from_le_bytes(b[8..12].try_into().unwrap()) as u16;
                (c == color).then_some((k, w))
            })
            .collect();
        members.sort();
        let group: Vec<u16> = members.iter().map(|&(_, w)| w).collect();
        let my_local = group.iter().position(|&w| w == me_world).unwrap() as u16;
        self.comms.push(CommData { cxt, group: Arc::new(group), my_local });
        Some(Comm { id: self.comms.len() - 1 })
    }

    // -----------------------------------------------------------------
    // Point-to-point on a communicator (ranks are comm-local)
    // -----------------------------------------------------------------

    /// Nonblocking send to `dst` (a rank within `comm`).
    pub async fn isend_on(&mut self, comm: Comm, dst: u16, tag: i32, data: Bytes) -> ReqId {
        let d = self.comm_data(comm);
        let (world, cxt) = (d.group[dst as usize], d.cxt);
        self.isend_cxt(world, tag, cxt, data, false).await
    }

    /// Nonblocking receive from `src` within `comm` (None = any member).
    ///
    /// Note: with `ANY_SOURCE` the returned status's `src` is a world rank;
    /// use [`Mpi::world_to_comm_rank`] to translate.
    pub async fn irecv_on(&mut self, comm: Comm, src: Option<u16>, tag: Option<i32>) -> ReqId {
        let d = self.comm_data(comm);
        let cxt = d.cxt;
        let world = src.map(|s| d.group[s as usize]);
        self.irecv_cxt(world, tag, cxt).await
    }

    /// Blocking send within `comm`.
    pub async fn send_on(&mut self, comm: Comm, dst: u16, tag: i32, data: Bytes) {
        let r = self.isend_on(comm, dst, tag, data).await;
        self.wait(r).await;
    }

    /// Blocking receive within `comm`.
    pub async fn recv_on(&mut self, comm: Comm, src: Option<u16>, tag: Option<i32>) -> (Status, Msg) {
        let r = self.irecv_on(comm, src, tag).await;
        self.wait(r).await
    }

    /// Translate a world rank (e.g. from a wildcard receive status) to its
    /// rank within `comm`, if it is a member.
    pub fn world_to_comm_rank(&self, comm: Comm, world: u16) -> Option<u16> {
        self.comm_data(comm).group.iter().position(|&w| w == world).map(|p| p as u16)
    }
}
