//! `workloads` — the programs the paper evaluates.
//!
//! * [`pingpong`] — the MPBench ping-pong test (Figure 8, Table 1);
//! * [`farm`] — the Bulk Processor Farm manager/worker program
//!   (Figures 10–12);
//! * [`nas`] — synthetic kernels reproducing the communication patterns of
//!   the NAS Parallel Benchmarks the paper runs (Figure 9);
//! * [`mixed`] — the farm with mixed task sizes, the RFC 8260 interleaving
//!   study (sender-side HOL blocking);
//! * [`media`] — a deadline-driven frame source on the raw SCTP API, the
//!   PR-SCTP (RFC 3758) study.
//!
//! All workloads except [`media`] are plain functions over
//! [`mpi_core::Mpi`], runnable under [`mpi_core::mpirun`] on either
//! transport; [`media`] drives the raw `transport::sctp` socket API.

pub mod farm;
pub mod media;
pub mod mixed;
pub mod nas;
pub mod pingpong;
pub mod scale;

use bytes::Bytes;

/// `n` zero bytes for a payload, borrowed from one leaked buffer: no
/// allocation per call and no shared refcount, so ranks and threads that
/// "send N bytes" per message write nothing in common. (A zeroed `static`
/// array would sit in read-only data: 4 MiB more binary, paged in from
/// the file as payloads are read.)
pub fn zeros(n: usize) -> Bytes {
    use std::sync::OnceLock;
    const CAP: usize = 4 << 20;
    static ZEROS: OnceLock<&'static [u8]> = OnceLock::new();
    let z = ZEROS.get_or_init(|| Vec::leak(vec![0u8; CAP]));
    assert!(n <= CAP, "payload over {CAP} bytes; raise the cap");
    Bytes::from_static(&z[..n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_cheap_and_sized() {
        let a = zeros(1000);
        let b = zeros(1000);
        assert_eq!(a.len(), 1000);
        assert_eq!(a.as_ptr(), b.as_ptr(), "slices share one allocation");
        assert!(zeros(0).is_empty());
    }
}
