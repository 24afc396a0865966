//! Batched UDP syscalls: `recvmmsg`/`sendmmsg` wrappers with a
//! single-datagram fallback.
//!
//! The live data plane pays one syscall per datagram on the PR 8 path:
//! `recv_from` in, `send_to` out. At saturation rates the syscall
//! dominates, so this module moves whole bursts per syscall:
//!
//! * [`RecvBatcher`]: one `recvmmsg(MSG_WAITFORONE)` blocks (under the
//!   socket's armed `SO_RCVTIMEO`) until the first datagram lands, then
//!   returns it *plus* everything else already queued — the burst the
//!   old path needed `1 + k` syscalls and a timeout re-arm to drain;
//! * [`SendBatcher`]: one `sendmmsg` flushes up to [`MAX_BATCH`]
//!   datagrams per syscall, each with its own destination, handling
//!   partial completion. Its rings are a few KiB (no receive slab), so
//!   a host holding many sockets can afford one per socket.
//!
//! The wrappers use raw `extern "C"` declarations (std links libc on
//! unix; no `libc` crate — the same idiom as the daemon's
//! `SO_REUSEPORT` bind). All buffers, iovecs and message headers are
//! preallocated in the batcher and reused across calls, so the hot loop
//! is allocation-free up to the one unavoidable copy of each received
//! datagram into its shared [`Payload`] handle.
//!
//! **Fallback:** construction honors the `MOQDNS_NO_MMSG` environment
//! variable, and a runtime `ENOSYS` from either syscall latches a
//! process-wide flag; both drop the batchers onto the single-datagram
//! path (`recv_from` + non-blocking `recvfrom` drain / `send_to` loop),
//! which is property-tested byte-identical to the batched path below.

use moqdns_wire::Payload;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};

/// Most datagrams moved per syscall, either direction.
pub const MAX_BATCH: usize = 64;
/// Per-datagram receive buffer. Comfortably above the transport's
/// `max_udp_payload` (1350); a datagram that still overflows is dropped
/// (`MSG_TRUNC`) rather than delivered corrupt.
const BUF_BYTES: usize = 4096;

/// Latched when a batched syscall reports `ENOSYS`: the kernel (or a
/// seccomp filter) lacks it, so every batcher in the process falls back.
static MMSG_UNAVAILABLE: AtomicBool = AtomicBool::new(false);

const ENOSYS: i32 = 38;

/// Reads the process-level opt-out. Checked at construction, not cached
/// globally, so tests can flip the environment between phases.
pub fn mmsg_disabled_by_env() -> bool {
    std::env::var_os("MOQDNS_NO_MMSG").is_some_and(|v| v != "0" && !v.is_empty())
}

fn batching_available(force_single: bool) -> bool {
    let _ = force_single;
    #[cfg(target_os = "linux")]
    {
        !force_single && !MMSG_UNAVAILABLE.load(Ordering::Relaxed)
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

// ---------------------------------------------------------------------
// Raw sockaddr plumbing (IPv4 + IPv6), unix only.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod raw {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddrV4, SocketAddrV6};

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const MSG_DONTWAIT: i32 = 0x40;
    #[cfg(target_os = "linux")]
    pub const MSG_WAITFORONE: i32 = 0x10000;
    #[cfg(target_os = "linux")]
    pub const MSG_TRUNC: i32 = 0x20;

    /// Big enough for `sockaddr_in6`; plays the `sockaddr_storage` role.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct SockaddrStorage(pub [u8; 28]);

    impl SockaddrStorage {
        pub const ZERO: SockaddrStorage = SockaddrStorage([0; 28]);

        /// Encodes `addr`; returns the valid length for `msg_namelen`.
        pub fn encode(addr: SocketAddr) -> (SockaddrStorage, u32) {
            let mut s = SockaddrStorage::ZERO;
            match addr {
                SocketAddr::V4(v4) => {
                    s.0[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                    s.0[2..4].copy_from_slice(&v4.port().to_be_bytes());
                    s.0[4..8].copy_from_slice(&v4.ip().octets());
                    (s, 16)
                }
                SocketAddr::V6(v6) => {
                    s.0[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                    s.0[2..4].copy_from_slice(&v6.port().to_be_bytes());
                    s.0[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                    s.0[8..24].copy_from_slice(&v6.ip().octets());
                    s.0[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    (s, 28)
                }
            }
        }

        /// Decodes the kernel-filled peer address, if it is a family we
        /// speak.
        pub fn decode(&self) -> Option<SocketAddr> {
            let family = u16::from_ne_bytes([self.0[0], self.0[1]]);
            let port = u16::from_be_bytes([self.0[2], self.0[3]]);
            match family {
                AF_INET => {
                    let ip = Ipv4Addr::new(self.0[4], self.0[5], self.0[6], self.0[7]);
                    Some(SocketAddr::V4(SocketAddrV4::new(ip, port)))
                }
                AF_INET6 => {
                    let mut octets = [0u8; 16];
                    octets.copy_from_slice(&self.0[8..24]);
                    let flowinfo = u32::from_ne_bytes([self.0[4], self.0[5], self.0[6], self.0[7]]);
                    let scope =
                        u32::from_ne_bytes([self.0[24], self.0[25], self.0[26], self.0[27]]);
                    Some(SocketAddr::V6(SocketAddrV6::new(
                        Ipv6Addr::from(octets),
                        port,
                        flowinfo,
                        scope,
                    )))
                }
                _ => None,
            }
        }
    }

    #[repr(C)]
    pub struct IoVec {
        pub base: *mut u8,
        pub len: usize,
    }

    /// Linux `struct msghdr` (repr(C) inserts the `msg_namelen` padding
    /// on 64-bit targets exactly as the C layout does).
    #[repr(C)]
    pub struct MsgHdr {
        pub name: *mut SockaddrStorage,
        pub namelen: u32,
        pub iov: *mut IoVec,
        pub iovlen: usize,
        pub control: *mut u8,
        pub controllen: usize,
        pub flags: i32,
    }

    #[repr(C)]
    pub struct MMsgHdr {
        pub hdr: MsgHdr,
        pub len: u32,
    }

    impl MMsgHdr {
        pub fn zeroed() -> MMsgHdr {
            MMsgHdr {
                hdr: MsgHdr {
                    name: std::ptr::null_mut(),
                    namelen: 0,
                    iov: std::ptr::null_mut(),
                    iovlen: 0,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            }
        }
    }

    /// Ring arrays shared by both batch directions: one header + iovec +
    /// address slot per in-flight datagram. The pointers inside `hdrs`
    /// are re-primed before every syscall, so the struct stays safely
    /// movable (no self-referential pointers persist across calls).
    pub struct Rings {
        pub names: Box<[SockaddrStorage]>,
        pub iovs: Box<[IoVec]>,
        #[cfg(target_os = "linux")]
        pub hdrs: Box<[MMsgHdr]>,
    }

    impl Rings {
        pub fn new() -> Rings {
            Rings {
                names: vec![SockaddrStorage::ZERO; MAX_BATCH].into_boxed_slice(),
                iovs: (0..MAX_BATCH)
                    .map(|_| IoVec {
                        base: std::ptr::null_mut(),
                        len: 0,
                    })
                    .collect(),
                #[cfg(target_os = "linux")]
                hdrs: (0..MAX_BATCH).map(|_| MMsgHdr::zeroed()).collect(),
            }
        }
    }

    extern "C" {
        /// POSIX single-datagram receive; used with `MSG_DONTWAIT` to
        /// drain a burst on the fallback path without timeout re-arms.
        pub fn recvfrom(
            fd: i32,
            buf: *mut u8,
            len: usize,
            flags: i32,
            src: *mut SockaddrStorage,
            srclen: *mut u32,
        ) -> isize;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut u8,
        ) -> i32;
        pub fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }
}

// ---------------------------------------------------------------------
// Receive side.
// ---------------------------------------------------------------------

/// Preallocated receive rings for one worker (the batcher holds no fd —
/// the socket is passed per call).
pub struct RecvBatcher {
    single: bool,
    /// `MAX_BATCH × BUF_BYTES` slab, reused every call.
    bufs: Box<[u8]>,
    #[cfg(unix)]
    rings: raw::Rings,
}

impl RecvBatcher {
    /// A fresh ring set. Honors `MOQDNS_NO_MMSG` (any non-empty value
    /// other than `0` forces the single-datagram path).
    pub fn new() -> RecvBatcher {
        RecvBatcher::with_mode(mmsg_disabled_by_env())
    }

    /// Explicitly forced mode (tests pin both paths with this).
    pub fn with_mode(force_single: bool) -> RecvBatcher {
        RecvBatcher {
            single: force_single,
            bufs: vec![0u8; MAX_BATCH * BUF_BYTES].into_boxed_slice(),
            #[cfg(unix)]
            rings: raw::Rings::new(),
        }
    }

    /// Whether this batcher is on the batched-syscall path right now.
    pub fn batched(&self) -> bool {
        batching_available(self.single)
    }

    /// Receives a burst: blocks (under the socket's armed read timeout)
    /// until at least one datagram arrives, then drains whatever else is
    /// already queued, up to [`MAX_BATCH`]. Appends `(peer, payload)`
    /// pairs to `out` and returns how many were appended (0 on timeout).
    ///
    /// A signal landing in the blocked syscall (`EINTR`) also returns 0:
    /// nothing arrived, and the caller's loop re-checks its shutdown
    /// latch before asking again. Any other error is returned; the
    /// caller treats it as a dead socket.
    pub fn recv_burst(
        &mut self,
        socket: &UdpSocket,
        out: &mut Vec<(SocketAddr, Payload)>,
    ) -> std::io::Result<usize> {
        #[cfg(target_os = "linux")]
        if self.batched() {
            match self.recv_burst_mmsg(socket, out) {
                Err(e) if e.raw_os_error() == Some(ENOSYS) => {
                    MMSG_UNAVAILABLE.store(true, Ordering::Relaxed);
                }
                other => return other,
            }
        }
        self.recv_burst_single(socket, out)
    }

    fn recv_burst_single(
        &mut self,
        socket: &UdpSocket,
        out: &mut Vec<(SocketAddr, Payload)>,
    ) -> std::io::Result<usize> {
        let buf = &mut self.bufs[..BUF_BYTES];
        let (n, from) = match socket.recv_from(buf) {
            Ok(v) => v,
            Err(e) => return nothing_arrived(e),
        };
        out.push((from, Payload::from(&buf[..n])));
        let mut got = 1;
        // Drain the rest of the queue without re-arming the socket
        // timeout: non-blocking single-datagram receives.
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let fd = socket.as_raw_fd();
            while got < MAX_BATCH {
                let mut name = raw::SockaddrStorage::ZERO;
                let mut namelen = std::mem::size_of::<raw::SockaddrStorage>() as u32;
                let r = unsafe {
                    raw::recvfrom(
                        fd,
                        self.bufs.as_mut_ptr(),
                        BUF_BYTES,
                        raw::MSG_DONTWAIT,
                        &mut name,
                        &mut namelen,
                    )
                };
                if r < 0 {
                    break; // EAGAIN: queue drained
                }
                let Some(peer) = name.decode() else { continue };
                out.push((peer, Payload::from(&self.bufs[..r as usize])));
                got += 1;
            }
        }
        Ok(got)
    }

    #[cfg(target_os = "linux")]
    fn recv_burst_mmsg(
        &mut self,
        socket: &UdpSocket,
        out: &mut Vec<(SocketAddr, Payload)>,
    ) -> std::io::Result<usize> {
        use std::os::fd::AsRawFd;
        let rings = &mut self.rings;
        for i in 0..MAX_BATCH {
            rings.iovs[i].base = unsafe { self.bufs.as_mut_ptr().add(i * BUF_BYTES) };
            rings.iovs[i].len = BUF_BYTES;
            rings.names[i] = raw::SockaddrStorage::ZERO;
            let h = &mut rings.hdrs[i];
            h.hdr.name = &mut rings.names[i];
            h.hdr.namelen = std::mem::size_of::<raw::SockaddrStorage>() as u32;
            h.hdr.iov = &mut rings.iovs[i];
            h.hdr.iovlen = 1;
            h.hdr.control = std::ptr::null_mut();
            h.hdr.controllen = 0;
            h.hdr.flags = 0;
            h.len = 0;
        }
        let r = unsafe {
            raw::recvmmsg(
                socket.as_raw_fd(),
                rings.hdrs.as_mut_ptr(),
                MAX_BATCH as u32,
                raw::MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if r < 0 {
            return nothing_arrived(std::io::Error::last_os_error());
        }
        let mut got = 0;
        for i in 0..r as usize {
            let h = &rings.hdrs[i];
            if h.hdr.flags & raw::MSG_TRUNC != 0 {
                continue; // oversized datagram: dropped, not truncated
            }
            let Some(peer) = rings.names[i].decode() else {
                continue;
            };
            let row = &self.bufs[i * BUF_BYTES..i * BUF_BYTES + h.len as usize];
            out.push((peer, Payload::from(row)));
            got += 1;
        }
        Ok(got)
    }
}

/// Maps a failed blocking receive to the burst's result: the armed
/// timeout running out and a signal interrupting the call both mean
/// "no datagram this time" (0); everything else is the socket's death.
fn nothing_arrived(e: std::io::Error) -> std::io::Result<usize> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    match e.kind() {
        WouldBlock | TimedOut | Interrupted => Ok(0),
        _ => Err(e),
    }
}

impl Default for RecvBatcher {
    fn default() -> RecvBatcher {
        RecvBatcher::new()
    }
}

// The raw pointers inside the rings never outlive a syscall — they are
// re-primed to point into the batcher's own buffers (or the caller's
// frame slice) immediately before each call — so a batcher can move
// between threads freely.
#[cfg(unix)]
unsafe impl Send for RecvBatcher {}

// ---------------------------------------------------------------------
// Send side.
// ---------------------------------------------------------------------

/// Preallocated send rings (a few KiB: headers + iovecs + addresses, no
/// payload slab — iovecs point straight at the caller's frame bytes).
pub struct SendBatcher {
    single: bool,
    #[cfg(unix)]
    rings: raw::Rings,
}

impl SendBatcher {
    /// A fresh ring set honoring `MOQDNS_NO_MMSG`.
    pub fn new() -> SendBatcher {
        SendBatcher::with_mode(mmsg_disabled_by_env())
    }

    /// Explicitly forced mode (tests pin both paths with this).
    pub fn with_mode(force_single: bool) -> SendBatcher {
        SendBatcher {
            single: force_single,
            #[cfg(unix)]
            rings: raw::Rings::new(),
        }
    }

    /// Whether this batcher is on the batched-syscall path right now.
    pub fn batched(&self) -> bool {
        batching_available(self.single)
    }

    /// Sends every frame, batching where the syscall allows (bursts
    /// larger than [`MAX_BATCH`] split across syscalls). Returns the
    /// number of datagrams handed to the kernel. Per-datagram send
    /// errors drop that datagram (UDP semantics) without failing the
    /// rest of the flush.
    pub fn send_burst<B: AsRef<[u8]>>(
        &mut self,
        socket: &UdpSocket,
        frames: &[(SocketAddr, B)],
    ) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        #[cfg(target_os = "linux")]
        if self.batched() {
            return self.send_burst_mmsg(socket, frames);
        }
        let mut sent = 0u64;
        for (peer, bytes) in frames {
            if socket.send_to(bytes.as_ref(), *peer).is_ok() {
                sent += 1;
            }
        }
        sent
    }

    #[cfg(target_os = "linux")]
    fn send_burst_mmsg<B: AsRef<[u8]>>(
        &mut self,
        socket: &UdpSocket,
        frames: &[(SocketAddr, B)],
    ) -> u64 {
        use std::os::fd::AsRawFd;
        let fd = socket.as_raw_fd();
        let rings = &mut self.rings;
        let mut sent = 0u64;
        let mut base = 0usize;
        while base < frames.len() {
            let n = (frames.len() - base).min(MAX_BATCH);
            for i in 0..n {
                let (peer, bytes) = &frames[base + i];
                let bytes = bytes.as_ref();
                let (name, namelen) = raw::SockaddrStorage::encode(*peer);
                rings.names[i] = name;
                // sendmsg never writes through the iovec; the mut cast
                // only satisfies the shared C struct layout.
                rings.iovs[i].base = bytes.as_ptr() as *mut u8;
                rings.iovs[i].len = bytes.len();
                let h = &mut rings.hdrs[i];
                h.hdr.name = &mut rings.names[i];
                h.hdr.namelen = namelen;
                h.hdr.iov = &mut rings.iovs[i];
                h.hdr.iovlen = 1;
                h.hdr.control = std::ptr::null_mut();
                h.hdr.controllen = 0;
                h.hdr.flags = 0;
                h.len = 0;
            }
            let r = unsafe { raw::sendmmsg(fd, rings.hdrs.as_mut_ptr(), n as u32, 0) };
            if r < 0 {
                let e = std::io::Error::last_os_error();
                if e.raw_os_error() == Some(ENOSYS) {
                    MMSG_UNAVAILABLE.store(true, Ordering::Relaxed);
                    for (peer, bytes) in &frames[base..] {
                        if socket.send_to(bytes.as_ref(), *peer).is_ok() {
                            sent += 1;
                        }
                    }
                    return sent;
                }
                base += 1; // this datagram refused: drop it, keep going
            } else if r == 0 {
                base += 1; // defensive: never spin
            } else {
                sent += r as u64;
                base += r as usize;
            }
        }
        sent
    }
}

impl Default for SendBatcher {
    fn default() -> SendBatcher {
        SendBatcher::new()
    }
}

// See the `RecvBatcher` impl: ring pointers are re-primed per syscall.
#[cfg(unix)]
unsafe impl Send for SendBatcher {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Duration;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddr, SocketAddr) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        (a, b, aa, ba)
    }

    fn drain(socket: &UdpSocket, want: usize, batcher: &mut RecvBatcher) -> Vec<Vec<u8>> {
        socket
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut got: Vec<(SocketAddr, Payload)> = Vec::new();
        while got.len() < want {
            let before = got.len();
            batcher.recv_burst(socket, &mut got).unwrap();
            if got.len() == before {
                break; // timeout: whatever arrived is the answer
            }
        }
        got.into_iter().map(|(_, p)| p.to_vec()).collect()
    }

    #[test]
    fn sockaddr_roundtrip_v4_and_v6() {
        #[cfg(unix)]
        {
            for addr in [
                "127.0.0.1:4470".parse::<SocketAddr>().unwrap(),
                "[::1]:9944".parse::<SocketAddr>().unwrap(),
            ] {
                let (enc, _len) = raw::SockaddrStorage::encode(addr);
                assert_eq!(enc.decode(), Some(addr));
            }
        }
    }

    #[test]
    fn timeouts_and_signals_are_not_socket_death() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::Interrupted,
        ] {
            assert_eq!(nothing_arrived(Error::from(kind)).unwrap(), 0, "{kind:?}");
        }
        #[cfg(unix)]
        {
            const EINTR: i32 = 4; // on every unix
            assert_eq!(nothing_arrived(Error::from_raw_os_error(EINTR)).unwrap(), 0);
        }
        for kind in [ErrorKind::ConnectionRefused, ErrorKind::PermissionDenied] {
            assert_eq!(nothing_arrived(Error::from(kind)).unwrap_err().kind(), kind);
        }
    }

    /// A signal delivered to a worker blocked in `recv_burst` — the
    /// daemon's second SIGTERM — must come back as an empty burst on
    /// both io paths, well before the armed timeout. (`SIGUSR1` is 10 on
    /// the architectures named; mips and sparc Linux number it otherwise.)
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn signal_in_blocked_recv_is_an_empty_burst_on_both_paths() {
        use std::os::unix::thread::JoinHandleExt;
        use std::sync::mpsc;
        use std::time::Instant;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_kill(thread: std::os::unix::thread::RawPthread, sig: i32) -> i32;
        }
        extern "C" fn ignore(_signum: i32) {}
        const SIGUSR1: i32 = 10;
        const ARMED: Duration = Duration::from_secs(20);
        // SAFETY: installs an async-signal-safe (empty) handler; a
        // receive under SO_RCVTIMEO fails with EINTR whatever the
        // handler's restart flag. The disposition is process-wide, so
        // the one found is put back when the test ends.
        let previous = unsafe { signal(SIGUSR1, ignore as extern "C" fn(i32) as usize) };

        for force_single in [false, true] {
            let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
            socket.set_read_timeout(Some(ARMED)).unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let worker = std::thread::spawn(move || {
                let mut batcher = RecvBatcher::with_mode(force_single);
                let mut out = Vec::new();
                let started = Instant::now();
                let got = batcher.recv_burst(&socket, &mut out);
                done_tx.send(()).unwrap();
                (got.map_err(|e| e.kind()), started.elapsed())
            });
            // A signal that lands before the worker blocks is absorbed
            // by the handler; keep signalling until one interrupts it.
            while done_rx.recv_timeout(Duration::from_millis(5)).is_err() {
                // SAFETY: the thread is alive — it has not been joined.
                unsafe { pthread_kill(worker.as_pthread_t(), SIGUSR1) };
            }
            let (got, waited) = worker.join().unwrap();
            assert_eq!(got, Ok(0), "single={force_single}");
            assert!(waited < ARMED / 2, "returned by timeout, not by the signal");
        }
        // SAFETY: `previous` is the disposition `signal` returned above.
        unsafe { signal(SIGUSR1, previous) };
    }

    #[test]
    fn batched_send_single_recv_parity() {
        // sendmmsg out, plain recv_from in: bytes and order identical.
        let (tx, rx, _, rxa) = pair();
        let frames: Vec<(SocketAddr, Vec<u8>)> = (0..10u8)
            .map(|i| (rxa, vec![i; 100 + i as usize]))
            .collect();
        let mut b = SendBatcher::with_mode(false);
        let sent = b.send_burst(&tx, &frames);
        assert_eq!(sent, frames.len() as u64);
        let mut single = RecvBatcher::with_mode(true);
        let got = drain(&rx, frames.len(), &mut single);
        assert_eq!(
            got,
            frames.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_send_batched_recv_parity() {
        // send_to loop out, recvmmsg in: bytes and order identical.
        let (tx, rx, _, rxa) = pair();
        let frames: Vec<(SocketAddr, Vec<u8>)> =
            (0..17u8).map(|i| (rxa, vec![0xA0 ^ i; 33])).collect();
        let mut single = SendBatcher::with_mode(true);
        assert_eq!(single.send_burst(&tx, &frames), frames.len() as u64);
        let mut b = RecvBatcher::with_mode(false);
        let got = drain(&rx, frames.len(), &mut b);
        assert_eq!(
            got,
            frames.iter().map(|(_, b)| b.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_batches_split_across_syscalls() {
        let (tx, rx, _, rxa) = pair();
        let count = MAX_BATCH + 9;
        let frames: Vec<(SocketAddr, Vec<u8>)> = (0..count)
            .map(|i| (rxa, vec![(i % 251) as u8; 64]))
            .collect();
        let mut b = SendBatcher::with_mode(false);
        assert_eq!(b.send_burst(&tx, &frames), count as u64);
        let got = drain(&rx, count, &mut RecvBatcher::with_mode(false));
        assert_eq!(got.len(), count);
        for (i, g) in got.iter().enumerate() {
            assert_eq!(g, &frames[i].1);
        }
    }

    proptest! {
        /// The batched path and the single-datagram path deliver the
        /// same bytes in the same order, whichever side batches.
        #[test]
        fn mmsg_and_single_paths_are_byte_identical(
            sizes in proptest::collection::vec(1usize..1400, 1..24),
            batch_tx in any::<bool>(),
            batch_rx in any::<bool>(),
        ) {
            let (tx, rx, _, rxa) = pair();
            let frames: Vec<(SocketAddr, Vec<u8>)> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (rxa, ((i as u32).to_le_bytes().iter().cycle().take(n).copied()).collect()))
                .collect();
            let mut sender = SendBatcher::with_mode(!batch_tx);
            prop_assert_eq!(sender.send_burst(&tx, &frames), frames.len() as u64);
            let mut receiver = RecvBatcher::with_mode(!batch_rx);
            let got = drain(&rx, frames.len(), &mut receiver);
            let want: Vec<Vec<u8>> = frames.into_iter().map(|(_, b)| b).collect();
            prop_assert_eq!(got, want);
        }
    }
}
