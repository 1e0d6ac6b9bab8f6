//! The syscall floor under `UdpBackend`: one `send_to` + one `recv_from`
//! per frame on bare loopback sockets, no batching, no engine.

use std::net::UdpSocket;

use super::BATCHES;
use crate::calib::Calib;

const FRAMES: u64 = 2_000;

pub fn syscall_ns_per_pkt(cal: &mut Calib, frame_bytes: usize) -> std::io::Result<f64> {
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    let to = rx.local_addr()?;
    let frame = vec![0xA5u8; frame_bytes];
    let mut buf = vec![0u8; 64 * 1024];
    let mut io_error = None;
    let ns = cal.probe(BATCHES, || {
        for _ in 0..FRAMES {
            let moved = tx.send_to(&frame, to).and_then(|_| rx.recv_from(&mut buf));
            match moved {
                Ok((n, _)) => assert_eq!(n, frame_bytes, "loopback delivers whole datagrams"),
                Err(e) => io_error = Some(e),
            }
        }
        FRAMES
    });
    io_error.map_or(Ok(ns), Err)
}
