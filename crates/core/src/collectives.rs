//! Collective operations, built on point-to-point messaging — exactly as
//! the paper notes for LAM-TCP (§2.2.2: "Collectives in the TCP module of
//! LAM are implemented on top of point-to-point communication").
//!
//! Every collective exists in two forms: over `MPI_COMM_WORLD` (the short
//! names) and over an explicit communicator (`*_on`). All collective
//! traffic runs in the communicator's *collective* context (its
//! point-to-point context + 1) so it can never match user receives, and
//! carries a per-communicator sequence number in the tag so back-to-back
//! collectives cannot cross.

use bytes::Bytes;

use crate::api::{Mpi, Msg};
use crate::comm::{Comm, CommView, COMM_WORLD};
use crate::matching::ReqId;

/// Reduction operators over `f64` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        assert_eq!(acc.len(), other.len(), "reduce length mismatch");
        for (a, &b) in acc.iter_mut().zip(other) {
            match self {
                ReduceOp::Sum => *a += b,
                ReduceOp::Max => *a = a.max(b),
                ReduceOp::Min => *a = a.min(b),
            }
        }
    }
}

/// Encode an f64 slice for the wire.
pub fn f64s_to_bytes(v: &[f64]) -> Bytes {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(out)
}

/// Decode an f64 vector from a received message.
pub fn msg_to_f64s(m: &Msg) -> Vec<f64> {
    let raw = m.to_vec();
    assert_eq!(raw.len() % 8, 0, "payload is not a vector of f64");
    raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

impl Mpi {
    /// Next collective tag base for `comm` (sequence number in the high bits).
    fn coll_tag(&mut self, comm: Comm, op: u32) -> i32 {
        let seq = self.next_coll_seq(comm);
        ((seq << 4) | (op & 0xF)) as i32
    }

    async fn coll_send(&mut self, view: &CommView, dst_local: u16, tag: i32, data: Bytes) -> ReqId {
        let world = view.world_of(dst_local);
        self.isend_cxt(world, tag, view.cxt + 1, data, false).await
    }

    async fn coll_recv(&mut self, view: &CommView, src_local: u16, tag: i32) -> ReqId {
        let world = view.world_of(src_local);
        self.irecv_cxt(Some(world), Some(tag), view.cxt + 1).await
    }

    // -----------------------------------------------------------------
    // Barrier
    // -----------------------------------------------------------------

    /// Dissemination barrier over `comm`: ⌈log₂ n⌉ rounds of pairwise
    /// exchange.
    pub async fn barrier_on(&mut self, comm: Comm) {
        let view = self.comm_view(comm);
        let n = view.size() as u32;
        let base = self.coll_tag(comm, 1);
        if n <= 1 {
            return;
        }
        let me = view.me as u32;
        let mut round = 0u32;
        let mut dist = 1u32;
        while dist < n {
            let tag = base + ((round as i32) << 16);
            let to = ((me + dist) % n) as u16;
            let from = ((me + n - dist) % n) as u16;
            let s = self.coll_send(&view, to, tag, Bytes::new()).await;
            let r = self.coll_recv(&view, from, tag).await;
            self.waitall(&[s, r]).await;
            dist <<= 1;
            round += 1;
        }
    }

    pub async fn barrier(&mut self) {
        self.barrier_on(COMM_WORLD).await
    }

    // -----------------------------------------------------------------
    // Broadcast
    // -----------------------------------------------------------------

    /// Binomial-tree broadcast from `root` (comm-local rank). Every member
    /// returns the payload.
    pub async fn bcast_on(&mut self, comm: Comm, root: u16, data: Option<Bytes>) -> Bytes {
        let view = self.comm_view(comm);
        let n = view.size() as u32;
        let tag = self.coll_tag(comm, 2);
        if n <= 1 {
            return data.expect("root must supply data");
        }
        let me = view.me as u32;
        let vrank = (me + n - root as u32) % n; // rotate so root is 0
        let payload = if vrank == 0 {
            data.expect("root must supply data")
        } else {
            // Receive from parent: clear the lowest set bit.
            let parent_v = vrank & (vrank - 1);
            let parent = ((parent_v + root as u32) % n) as u16;
            let r = self.coll_recv(&view, parent, tag).await;
            let (_, msg) = self.wait(r).await;
            Bytes::from(msg.to_vec())
        };
        // Forward to children: set bits above the lowest set bit of vrank.
        let lowbit = if vrank == 0 { n.next_power_of_two() } else { vrank & vrank.wrapping_neg() };
        let mut bit = 1u32;
        let mut pend = Vec::new();
        while bit < lowbit && bit < n.next_power_of_two() {
            let child_v = vrank | bit;
            if child_v < n && child_v != vrank {
                let child = ((child_v + root as u32) % n) as u16;
                pend.push(self.coll_send(&view, child, tag, payload.clone()).await);
            }
            bit <<= 1;
        }
        if !pend.is_empty() {
            self.waitall(&pend).await;
        }
        payload
    }

    pub async fn bcast(&mut self, root: u16, data: Option<Bytes>) -> Bytes {
        self.bcast_on(COMM_WORLD, root, data).await
    }

    // -----------------------------------------------------------------
    // Reductions
    // -----------------------------------------------------------------

    /// Binomial-tree reduction of an f64 vector to `root` (comm-local).
    pub async fn reduce_on(&mut self, comm: Comm, root: u16, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        let view = self.comm_view(comm);
        let n = view.size() as u32;
        let tag = self.coll_tag(comm, 3);
        let me = view.me as u32;
        let vrank = (me + n - root as u32) % n;
        let mut acc = data.to_vec();
        // Children are vrank | bit for bits below our low bit.
        let lowbit = if vrank == 0 { n.next_power_of_two() } else { vrank & vrank.wrapping_neg() };
        let mut bit = 1u32;
        while bit < lowbit {
            let child_v = vrank | bit;
            if child_v < n {
                let child = ((child_v + root as u32) % n) as u16;
                let r = self.coll_recv(&view, child, tag).await;
                let (_, msg) = self.wait(r).await;
                op.apply(&mut acc, &msg_to_f64s(&msg));
            }
            bit <<= 1;
        }
        if vrank != 0 {
            let parent_v = vrank & (vrank - 1);
            let parent = ((parent_v + root as u32) % n) as u16;
            let payload = f64s_to_bytes(&acc);
            let s = self.coll_send(&view, parent, tag, payload).await;
            self.wait(s).await;
            None
        } else {
            Some(acc)
        }
    }

    pub async fn reduce(&mut self, root: u16, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        self.reduce_on(COMM_WORLD, root, op, data).await
    }

    /// Allreduce = reduce to local rank 0 + broadcast.
    pub async fn allreduce_on(&mut self, comm: Comm, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_on(comm, 0, op, data).await;
        let payload = reduced.map(|v| f64s_to_bytes(&v));
        let out = self.bcast_on(comm, 0, payload).await;
        msg_to_f64s(&Msg { len: out.len(), chunks: vec![out] })
    }

    pub async fn allreduce(&mut self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        self.allreduce_on(COMM_WORLD, op, data).await
    }

    // -----------------------------------------------------------------
    // Gather / scatter / allgather / alltoall
    // -----------------------------------------------------------------

    /// Linear gather to `root`: returns payloads indexed by comm-local rank.
    pub async fn gather_on(&mut self, comm: Comm, root: u16, data: Bytes) -> Option<Vec<Bytes>> {
        let view = self.comm_view(comm);
        let n = view.size();
        let tag = self.coll_tag(comm, 4);
        if view.me == root {
            let mut out: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
            out[root as usize] = Some(data);
            let mut reqs: Vec<(u16, ReqId)> = Vec::with_capacity(n as usize);
            for p in (0..n).filter(|&p| p != root) {
                reqs.push((p, self.coll_recv(&view, p, tag).await));
            }
            for (p, r) in reqs {
                let (_, msg) = self.wait(r).await;
                out[p as usize] = Some(Bytes::from(msg.to_vec()));
            }
            Some(out.into_iter().map(|o| o.unwrap()).collect())
        } else {
            let s = self.coll_send(&view, root, tag, data).await;
            self.wait(s).await;
            None
        }
    }

    pub async fn gather(&mut self, root: u16, data: Bytes) -> Option<Vec<Bytes>> {
        self.gather_on(COMM_WORLD, root, data).await
    }

    /// Linear scatter from `root`: each member receives its slice.
    pub async fn scatter_on(&mut self, comm: Comm, root: u16, data: Option<Vec<Bytes>>) -> Bytes {
        let view = self.comm_view(comm);
        let n = view.size();
        let tag = self.coll_tag(comm, 5);
        if view.me == root {
            let data = data.expect("root must supply data");
            assert_eq!(data.len(), n as usize);
            let mut mine = Bytes::new();
            let mut pend = Vec::new();
            for (p, d) in data.into_iter().enumerate() {
                if p as u16 == root {
                    mine = d;
                } else {
                    pend.push(self.coll_send(&view, p as u16, tag, d).await);
                }
            }
            self.waitall(&pend).await;
            mine
        } else {
            let r = self.coll_recv(&view, root, tag).await;
            let (_, msg) = self.wait(r).await;
            Bytes::from(msg.to_vec())
        }
    }

    pub async fn scatter(&mut self, root: u16, data: Option<Vec<Bytes>>) -> Bytes {
        self.scatter_on(COMM_WORLD, root, data).await
    }

    /// Ring allgather: everyone ends with all members' payloads.
    pub async fn allgather_on(&mut self, comm: Comm, data: Bytes) -> Vec<Bytes> {
        let view = self.comm_view(comm);
        let n = view.size();
        let tag = self.coll_tag(comm, 6);
        let me = view.me;
        let mut out: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
        out[me as usize] = Some(data);
        if n == 1 {
            return out.into_iter().map(|o| o.unwrap()).collect();
        }
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        // In each step pass along the ring the block received previously.
        let mut cur = me;
        for step in 0..(n - 1) {
            let tag_s = tag + ((step as i32) << 16);
            let block = out[cur as usize].clone().unwrap();
            let s = self.coll_send(&view, right, tag_s, block).await;
            let r = self.coll_recv(&view, left, tag_s).await;
            let done = self.waitall(&[s, r]).await;
            let incoming = Bytes::from(done[1].1.to_vec());
            cur = (cur + n - 1) % n;
            out[cur as usize] = Some(incoming);
        }
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    pub async fn allgather(&mut self, data: Bytes) -> Vec<Bytes> {
        self.allgather_on(COMM_WORLD, data).await
    }

    /// All-to-all personalized exchange: `data[p]` goes to comm-local rank
    /// p; returns what each member sent here, indexed by source.
    pub async fn alltoall_on(&mut self, comm: Comm, data: Vec<Bytes>) -> Vec<Bytes> {
        let view = self.comm_view(comm);
        let n = view.size();
        assert_eq!(data.len(), n as usize);
        let tag = self.coll_tag(comm, 7);
        let me = view.me;
        let mut out: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
        // Post all receives, then all sends, then wait (robust for any n).
        let mut recvs: Vec<(u16, ReqId)> = Vec::with_capacity(n as usize);
        for p in (0..n).filter(|&p| p != me) {
            recvs.push((p, self.coll_recv(&view, p, tag).await));
        }
        let mut sends = Vec::new();
        for (p, d) in data.into_iter().enumerate() {
            if p as u16 == me {
                out[p] = Some(d);
            } else {
                sends.push(self.coll_send(&view, p as u16, tag, d).await);
            }
        }
        for (p, r) in recvs {
            let (_, msg) = self.wait(r).await;
            out[p as usize] = Some(Bytes::from(msg.to_vec()));
        }
        self.waitall(&sends).await;
        out.into_iter().map(|o| o.unwrap()).collect()
    }

    pub async fn alltoall(&mut self, data: Vec<Bytes>) -> Vec<Bytes> {
        self.alltoall_on(COMM_WORLD, data).await
    }
}
