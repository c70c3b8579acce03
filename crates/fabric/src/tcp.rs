//! Real-sockets transport backend (`tcp-transport` feature).
//!
//! [`TcpFabric`] brings up a full mesh of `std::net::TcpStream` connections
//! (loopback ephemeral ports by default, or a static address map) and hands
//! out one [`TcpTransport`] per node. Framing is length-prefixed:
//!
//! ```text
//! [u32 len (LE)] [u8 kind] [body]
//! ```
//!
//! with three frame kinds: `HELLO` (connection handshake, carries the
//! connecting node id), `MSG` (a [`Wire`]-encoded protocol message), and
//! `WRITE` (one-sided WRITE emulation: region id + word offset + data
//! words, applied into the registered [`MemoryRegion`] by the receive pump
//! before any later `MSG` on the same stream is delivered — preserving the
//! RDMA "data lands before the notification" contract that
//! [`Transport::write_send`] promises).
//!
//! # Event-loop pump
//!
//! All socket I/O happens on a **fixed pool of pump threads per node**
//! ([`TcpOptions::pump_threads`], default 2) that multiplex every link of
//! that node through nonblocking sockets and `poll(2)` — never one thread
//! per link, so the thread count is independent of cluster size. Each pump
//! owns a disjoint subset of the node's links plus one wake pipe:
//!
//! - **Rx**: readable sockets are drained into a per-link reassembly
//!   buffer; complete frames are parsed in order (WRITE frames applied
//!   into their region before any later MSG is queued) and MSGs land in
//!   the node's inbox. A link that stalls mid-frame parks its partial
//!   bytes in its own buffer — other links keep flowing.
//! - **Tx (doorbell batching)**: senders never touch a socket. They encode
//!   frames onto the destination link's *egress ring* and, when the ring
//!   was idle, ring the doorbell (one byte down the owning pump's wake
//!   pipe). The pump coalesces whatever has accumulated — up to
//!   [`TcpOptions::send_batch_max`] frames — into a single
//!   `write_vectored` flush. A link whose socket is full (`WouldBlock`)
//!   parks its batch and waits for `POLLOUT`; its backlog grows on its own
//!   ring and never blocks a sim thread or another link (head-of-line
//!   isolation).
//!
//! Simulated threads therefore issue no blocking syscalls in either
//! direction while holding the dsim token. [`TcpTransport::recv`] polls
//! the inbox and advances virtual time via `Ctx::spin_hint` between polls,
//! so wall-clock waits appear as busy-poll time on the virtual clock.
//!
//! On shutdown the pumps drain every pending egress ring (bounded — a
//! stalled peer cannot wedge teardown), close their sockets and exit;
//! [`TcpTransport::shutdown`] joins them, so a dropped cluster leaks no
//! detached threads.
//!
//! Region addressing: every transport of one fabric shares a region table
//! keyed by [`MemoryRegion::region_token`], the moral equivalent of an
//! exchanged rkey. In-process meshes (this PR's scope) agree on ids by
//! construction; a cross-process mesh would exchange the table during the
//! HELLO handshake, which is deliberately left to the ibverbs follow-up.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dsim::Ctx;
use parking_lot::Mutex;

use crate::region::MemoryRegion;
use crate::transport::{Transport, TransportStats, Wire};
use crate::NodeId;

const FRAME_HELLO: u8 = 0;
const FRAME_MSG: u8 = 1;
const FRAME_WRITE: u8 = 2;

// ---------------------------------------------------------------------------
// poll(2) via the C library (always linked on the platforms this backend
// supports); the std library exposes nonblocking sockets but no readiness
// API, and the workspace is dependency-free by design.

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: libc_nfds, timeout: i32) -> i32;
}

#[allow(non_camel_case_types)]
type libc_nfds = std::ffi::c_ulong;

/// `poll(2)` over `fds`, retrying on `EINTR`. `timeout_ms < 0` blocks.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as libc_nfds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

// ---------------------------------------------------------------------------

/// Knobs for [`TcpFabric`] bring-up.
#[derive(Debug, Clone)]
pub struct TcpOptions {
    /// Largest one-sided WRITE carried by a single frame; bigger writes are
    /// split into consecutive frames (per-stream FIFO keeps them ordered).
    pub max_frame_words: usize,
    /// Virtual nanoseconds charged per empty inbox poll in
    /// [`TcpTransport::recv`]; models receive-side CQ polling.
    pub poll_ns: u64,
    /// Static listen addresses, one per node. `None` binds ephemeral
    /// loopback ports (the right default for in-process tests, immune to
    /// port collisions between parallel test binaries).
    pub addrs: Option<Vec<SocketAddr>>,
    /// Pump threads per node: the fixed pool that multiplexes all of the
    /// node's links (never more threads than links). Independent of
    /// cluster size by construction.
    pub pump_threads: usize,
    /// Most frames one egress flush (`write_vectored` call) may carry.
    pub send_batch_max: usize,
    /// Selective signaling: count one completion per `signal_interval`
    /// flushed frames, as the simulated NIC does with
    /// [`NetConfig::signal_interval`](crate::NetConfig::signal_interval).
    pub signal_interval: u64,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            max_frame_words: 4096,
            poll_ns: 200,
            addrs: None,
            pump_threads: 2,
            send_batch_max: 16,
            signal_interval: crate::NetConfig::default().signal_interval,
        }
    }
}

/// Registered-region table shared by every endpoint of one fabric.
#[derive(Default)]
struct RegionTable {
    inner: Mutex<Vec<MemoryRegion>>,
}

impl RegionTable {
    fn register(&self, region: &MemoryRegion) {
        let mut v = self.inner.lock();
        if !v.iter().any(|r| r.region_token() == region.region_token()) {
            v.push(region.clone());
        }
    }

    fn id_of(&self, region: &MemoryRegion) -> Option<u32> {
        self.inner
            .lock()
            .iter()
            .position(|r| r.region_token() == region.region_token())
            .map(|i| i as u32)
    }

    fn get(&self, id: u32) -> Option<MemoryRegion> {
        self.inner.lock().get(id as usize).cloned()
    }
}

#[derive(Default)]
struct TcpCounters {
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    frames: AtomicU64,
    completions: AtomicU64,
    tx_flushes: AtomicU64,
    doorbell_batches: AtomicU64,
    frames_coalesced: AtomicU64,
    ring_hwm: AtomicU64,
    /// Frames committed to flushes so far (selective-signaling cursor).
    signaled_cursor: AtomicU64,
}

impl TcpCounters {
    /// Account one committed flush of `nframes` frames: the flush/batch
    /// counters, plus one completion per `signal_interval` flushed frames.
    fn flush(&self, nframes: u64, signal_interval: u64) {
        self.tx_flushes.fetch_add(1, Ordering::Relaxed);
        if nframes >= 2 {
            self.doorbell_batches.fetch_add(1, Ordering::Relaxed);
            self.frames_coalesced
                .fetch_add(nframes - 1, Ordering::Relaxed);
        }
        let before = self.signaled_cursor.fetch_add(nframes, Ordering::Relaxed);
        let crossed = (before + nframes) / signal_interval - before / signal_interval;
        if crossed > 0 {
            self.completions.fetch_add(crossed, Ordering::Relaxed);
        }
    }
}

/// Egress state of one outgoing link: frame trains a sender enqueued but
/// the pump has not yet committed to a flush.
struct TxRing {
    /// Encoded frame trains awaiting flush: (bytes, frames in the train).
    queue: VecDeque<(Vec<u8>, u64)>,
    /// Frames currently queued (sum of the counts above).
    depth_frames: u64,
    /// Link torn down (peer gone or local shutdown); senders must stop.
    closed: bool,
}

/// One outgoing link: its egress ring plus the doorbell to the pump thread
/// that owns the link.
struct TxLink {
    ring: Mutex<TxRing>,
    /// Write end of the owning pump's wake pipe (nonblocking: a full pipe
    /// means the pump is already due to wake).
    wake: UnixStream,
}

/// One node's endpoint in a [`TcpFabric`] mesh.
pub struct TcpTransport<M: Wire> {
    node: NodeId,
    max_frame_words: usize,
    poll_ns: u64,
    /// Outgoing links, indexed by peer; `None` for self.
    links: Vec<Option<Arc<TxLink>>>,
    inbox: Arc<Mutex<VecDeque<(NodeId, M)>>>,
    regions: Arc<RegionTable>,
    counters: Arc<TcpCounters>,
    signal_interval: u64,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    down: Arc<AtomicBool>,
}

fn write_frame(stream: &mut TcpStream, kind: u8, body: &[u8]) -> io::Result<()> {
    let len = (body.len() + 1) as u32;
    let mut frame = Vec::with_capacity(5 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(body);
    stream.write_all(&frame)
}

fn read_frame(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------------
// Pump pool

/// Everything a pump thread shares with its node's transport.
struct PumpShared<M: Wire> {
    inbox: Arc<Mutex<VecDeque<(NodeId, M)>>>,
    regions: Arc<RegionTable>,
    counters: Arc<TcpCounters>,
    down: Arc<AtomicBool>,
    send_batch_max: u64,
    signal_interval: u64,
}

/// One link as seen by its owning pump: the socket, the Rx reassembly
/// state and the (shared) egress ring, plus the batch currently being
/// written out.
struct PumpLink {
    peer: NodeId,
    stream: TcpStream,
    tx: Arc<TxLink>,
    /// Rx reassembly buffer: bytes read off the socket but not yet parsed
    /// into complete frames (a frame may straddle reads).
    rx_acc: Vec<u8>,
    rx_open: bool,
    tx_open: bool,
    /// Bytes of the committed in-flight batch not yet accepted by the
    /// socket (tail after a partial `write_vectored`).
    inflight: VecDeque<Vec<u8>>,
    /// Bytes of `inflight.front()` already written.
    inflight_off: usize,
}

impl PumpLink {
    fn tx_pending(&self) -> bool {
        !self.inflight.is_empty() || {
            let ring = self.tx.ring.lock();
            !ring.queue.is_empty()
        }
    }

    /// Close the egress side: mark the ring so senders see a dead link and
    /// drop whatever was queued (it can never be delivered).
    fn close_tx(&mut self) {
        self.tx_open = false;
        self.inflight.clear();
        let mut ring = self.tx.ring.lock();
        ring.closed = true;
        ring.queue.clear();
        ring.depth_frames = 0;
    }
}

/// Parse complete frames off the front of `acc`, applying WRITEs and
/// queueing MSGs. Returns `false` on a malformed frame (link is dropped).
fn parse_frames<M: Wire>(peer: NodeId, acc: &mut Vec<u8>, sh: &PumpShared<M>) -> bool {
    let mut cursor = 0usize;
    let ok = loop {
        let rest = &acc[cursor..];
        if rest.len() < 4 {
            break true;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if len == 0 {
            break false;
        }
        if rest.len() < 4 + len {
            break true; // frame still in flight; wait for more bytes
        }
        let body = &rest[4..4 + len];
        match body[0] {
            FRAME_MSG => {
                let Some(msg) = M::decode(&body[1..]) else {
                    break false;
                };
                sh.inbox.lock().push_back((peer, msg));
            }
            FRAME_WRITE => {
                if body.len() < 13 || !(body.len() - 13).is_multiple_of(8) {
                    break false;
                }
                let rid = u32::from_le_bytes(body[1..5].try_into().unwrap());
                let offset = u64::from_le_bytes(body[5..13].try_into().unwrap()) as usize;
                let words: Vec<u64> = body[13..]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                let Some(region) = sh.regions.get(rid) else {
                    break false;
                };
                region.write_slice(offset, &words);
            }
            _ => break false,
        }
        cursor += 4 + len;
    };
    acc.drain(..cursor);
    ok
}

/// Drain a readable socket into the link's reassembly buffer and parse.
/// Returns `false` when the link is done for (EOF, error, bad frame).
fn pump_rx<M: Wire>(link: &mut PumpLink, sh: &PumpShared<M>, scratch: &mut [u8]) -> bool {
    loop {
        match link.stream.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                sh.counters.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                link.rx_acc.extend_from_slice(&scratch[..n]);
                if !parse_frames(link.peer, &mut link.rx_acc, sh) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Flush a link's egress ring: commit pending frame trains into batches of
/// at most `send_batch_max` frames and write each batch with one
/// `write_vectored`. Stops on `WouldBlock` (batch stays in flight, POLLOUT
/// will resume it) or when the ring is dry. Returns `false` on a dead
/// socket.
fn flush_link<M: Wire>(link: &mut PumpLink, sh: &PumpShared<M>) -> bool {
    loop {
        if link.inflight.is_empty() {
            // Commit the next batch. The counters move here — at doorbell
            // time — so `tx_flushes`/`doorbell_batches` describe flush
            // decisions, not socket-level partial writes.
            let mut ring = link.tx.ring.lock();
            if ring.queue.is_empty() {
                return true;
            }
            let mut batched = 0u64;
            while let Some(&(_, n)) = ring.queue.front() {
                // Always take at least one train, even one wider than the
                // cap (a split WRITE+MSG train is indivisible).
                if batched > 0 && batched + n > sh.send_batch_max {
                    break;
                }
                let (buf, n) = ring.queue.pop_front().unwrap();
                link.inflight.push_back(buf);
                batched += n;
                if batched >= sh.send_batch_max {
                    break;
                }
            }
            ring.depth_frames -= batched;
            drop(ring);
            link.inflight_off = 0;
            sh.counters.flush(batched, sh.signal_interval);
        }
        // Write the in-flight batch outside the ring lock: senders keep
        // enqueueing while the syscall runs.
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(link.inflight.len());
        for (i, buf) in link.inflight.iter().enumerate() {
            let start = if i == 0 { link.inflight_off } else { 0 };
            slices.push(IoSlice::new(&buf[start..]));
        }
        match link.stream.write_vectored(&slices) {
            Ok(0) => return false,
            Ok(mut n) => {
                while n > 0 {
                    let head_left = link
                        .inflight
                        .front()
                        .map_or(0, |b| b.len() - link.inflight_off);
                    if n >= head_left {
                        n -= head_left;
                        link.inflight.pop_front();
                        link.inflight_off = 0;
                    } else {
                        link.inflight_off += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// The event loop of one pump thread: `poll(2)` over this pump's links and
/// its wake pipe, then service whatever is ready. Exits (after draining
/// egress) once the transport is shut down.
fn pump_loop<M: Wire>(mut links: Vec<PumpLink>, wake_rx: UnixStream, sh: PumpShared<M>) {
    let mut scratch = vec![0u8; 64 << 10];
    while !sh.down.load(Ordering::SeqCst) {
        let mut fds = Vec::with_capacity(links.len() + 1);
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let mut fd_link = Vec::with_capacity(links.len());
        for (i, link) in links.iter().enumerate() {
            let mut events = 0i16;
            if link.rx_open {
                events |= POLLIN;
            }
            if link.tx_open && link.tx_pending() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd {
                    fd: link.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                fd_link.push(i);
            }
        }
        // Finite timeout so a lost doorbell can only delay, never wedge.
        if poll_fds(&mut fds, 100).is_err() {
            break;
        }
        if sh.down.load(Ordering::SeqCst) {
            break;
        }
        if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            // Swallow accumulated doorbell bytes; the ring scan below does
            // the actual work.
            loop {
                match (&wake_rx).read(&mut scratch) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
        }
        for (slot, &i) in fd_link.iter().enumerate() {
            let revents = fds[slot + 1].revents;
            let link = &mut links[i];
            if link.rx_open
                && revents & (POLLIN | POLLHUP | POLLERR) != 0
                && !pump_rx(link, &sh, &mut scratch)
            {
                link.rx_open = false;
            }
        }
        // Opportunistic Tx pass: every link with pending egress gets one
        // flush attempt per wake — the common case writes immediately
        // without waiting for a POLLOUT cycle; a full socket just returns
        // WouldBlock and keeps its POLLOUT armed.
        for link in links.iter_mut() {
            if link.tx_open && link.tx_pending() && !flush_link(link, &sh) {
                link.close_tx();
            }
        }
    }
    drain_and_close(&mut links, &sh);
}

/// Shutdown path: give every link a bounded chance to flush its remaining
/// egress (so teardown messages reach still-listening peers), then close.
fn drain_and_close<M: Wire>(links: &mut [PumpLink], sh: &PumpShared<M>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut fds = Vec::new();
        for link in links.iter_mut() {
            if link.tx_open && link.tx_pending() {
                if !flush_link(link, sh) {
                    link.close_tx();
                } else if link.tx_pending() {
                    fds.push(PollFd {
                        fd: link.stream.as_raw_fd(),
                        events: POLLOUT,
                        revents: 0,
                    });
                }
            }
        }
        if fds.is_empty() || Instant::now() >= deadline {
            break;
        }
        if poll_fds(&mut fds, 20).is_err() {
            break;
        }
    }
    for link in links.iter_mut() {
        link.close_tx();
        link.rx_open = false;
        let _ = link.stream.shutdown(Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------

impl<M: Wire> TcpTransport<M> {
    fn deliver_local(&self, msg: M) {
        let mut body = Vec::new();
        msg.encode(&mut body);
        let frame_bytes = 5 + body.len() as u64;
        self.counters
            .bytes_tx
            .fetch_add(frame_bytes, Ordering::Relaxed);
        self.counters
            .bytes_rx
            .fetch_add(frame_bytes, Ordering::Relaxed);
        self.counters.frames.fetch_add(1, Ordering::Relaxed);
        // A self-delivery is its own single-frame flush.
        self.counters.flush(1, self.signal_interval);
        self.inbox.lock().push_back((self.node, msg));
    }

    /// Enqueue one encoded frame train onto `dst`'s egress ring and ring
    /// the doorbell if the ring was idle. Never blocks: the pump does all
    /// socket work.
    fn post(&self, dst: NodeId, buf: Vec<u8>, nframes: u64) {
        let link = self.links[dst]
            .as_ref()
            .expect("tcp transport: no link to peer");
        let bytes = buf.len() as u64;
        let mut ring = link.ring.lock();
        if ring.closed {
            if self.down.load(Ordering::SeqCst) {
                return;
            }
            panic!(
                "tcp transport: send from node {} to node {dst} failed: link closed",
                self.node
            );
        }
        let was_idle = ring.queue.is_empty();
        ring.queue.push_back((buf, nframes));
        ring.depth_frames += nframes;
        self.counters
            .ring_hwm
            .fetch_max(ring.depth_frames, Ordering::Relaxed);
        self.counters.bytes_tx.fetch_add(bytes, Ordering::Relaxed);
        self.counters.frames.fetch_add(nframes, Ordering::Relaxed);
        if was_idle {
            // Nonblocking doorbell; a full pipe means the pump already has
            // wakes queued, and its poll timeout backstops a lost one.
            let _ = (&link.wake).write(&[1u8]);
        }
    }

    /// Number of pump threads serving this endpoint (the fixed pool; see
    /// [`TcpOptions::pump_threads`]). Exposed so tests can assert the pool
    /// stays fixed as the mesh grows.
    pub fn pump_count(&self) -> usize {
        self.pumps.lock().len()
    }
}

impl<M: Wire> Transport<M> for TcpTransport<M> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn register_region(&self, region: &MemoryRegion) {
        self.regions.register(region);
    }

    fn send(&self, _ctx: &mut Ctx, dst: NodeId, msg: M) {
        if dst == self.node {
            self.deliver_local(msg);
            return;
        }
        let mut body = Vec::new();
        msg.encode(&mut body);
        let mut frame = Vec::with_capacity(5 + body.len());
        frame.extend_from_slice(&((body.len() + 1) as u32).to_le_bytes());
        frame.push(FRAME_MSG);
        frame.extend_from_slice(&body);
        self.post(dst, frame, 1);
    }

    fn write_send(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        data: Vec<u64>,
        msg: M,
    ) {
        if dst == self.node {
            region.write_slice(offset, &data);
            self.counters.frames.fetch_add(1, Ordering::Relaxed);
            self.counters.flush(1, self.signal_interval);
            self.deliver_local(msg);
            return;
        }
        let rid = self
            .regions
            .id_of(region)
            .expect("tcp transport: write_send to unregistered region");
        let mut buf = Vec::with_capacity(data.len() * 8 + 64);
        let mut nframes = 0u64;
        let mut chunk_off = offset;
        for part in data.chunks(self.max_frame_words.max(1)) {
            let len = (1 + 4 + 8 + part.len() * 8) as u32;
            buf.extend_from_slice(&len.to_le_bytes());
            buf.push(FRAME_WRITE);
            buf.extend_from_slice(&rid.to_le_bytes());
            buf.extend_from_slice(&(chunk_off as u64).to_le_bytes());
            for w in part {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            chunk_off += part.len();
            nframes += 1;
        }
        let mut body = Vec::new();
        msg.encode(&mut body);
        buf.extend_from_slice(&((body.len() + 1) as u32).to_le_bytes());
        buf.push(FRAME_MSG);
        buf.extend_from_slice(&body);
        nframes += 1;
        // One train for the whole WRITE+MSG sequence: the ring (and the
        // stream's FIFO) make the data land before the notification, as on
        // an RC queue pair.
        self.post(dst, buf, nframes);
        let _ = ctx;
    }

    fn recv(&self, ctx: &mut Ctx) -> (NodeId, M) {
        loop {
            if let Some(item) = self.inbox.lock().pop_front() {
                return item;
            }
            ctx.spin_hint(self.poll_ns);
        }
    }

    fn try_recv(&self, _ctx: &mut Ctx) -> Option<(NodeId, M)> {
        self.inbox.lock().pop_front()
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            bytes_tx: self.counters.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.counters.bytes_rx.load(Ordering::Relaxed),
            frames: self.counters.frames.load(Ordering::Relaxed),
            completions: self.counters.completions.load(Ordering::Relaxed),
            tx_flushes: self.counters.tx_flushes.load(Ordering::Relaxed),
            doorbell_batches: self.counters.doorbell_batches.load(Ordering::Relaxed),
            frames_coalesced: self.counters.frames_coalesced.load(Ordering::Relaxed),
            ring_hwm: self.counters.ring_hwm.load(Ordering::Relaxed),
        }
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake every pump (each link's doorbell reaches its owner; extra
        // wakes are harmless) and join — pumps drain their rings first.
        for link in self.links.iter().flatten() {
            let _ = (&link.wake).write(&[1u8]);
        }
        let pumps = std::mem::take(&mut *self.pumps.lock());
        for h in pumps {
            let _ = h.join();
        }
    }
}

impl<M: Wire> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        Transport::<M>::shutdown(self);
    }
}

/// A full mesh of TCP connections between `nodes` in-process endpoints.
pub struct TcpFabric<M: Wire> {
    transports: Vec<Arc<TcpTransport<M>>>,
}

fn read_hello(stream: &mut TcpStream) -> io::Result<NodeId> {
    let buf = read_frame(stream)?;
    if buf.len() != 5 || buf[0] != FRAME_HELLO {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad hello"));
    }
    Ok(u32::from_le_bytes(buf[1..5].try_into().unwrap()) as NodeId)
}

impl<M: Wire> TcpFabric<M> {
    /// Bind listeners, connect the full mesh, and start the pump pools.
    ///
    /// Connection plan: node `i` dials every higher-numbered peer and
    /// announces itself with a HELLO frame; node `j`'s listener therefore
    /// accepts exactly `j` connections. The handshake runs on blocking
    /// sockets; each stream turns nonblocking when it is handed to its
    /// pump. All sockets are connected before any transport is handed out,
    /// so no sim thread ever blocks on connection establishment.
    pub fn new(nodes: usize, opts: TcpOptions) -> io::Result<Self> {
        assert!(nodes > 0, "tcp fabric needs at least one node");
        assert!(opts.pump_threads > 0, "tcp fabric needs at least one pump");
        assert!(opts.send_batch_max > 0, "send_batch_max must be nonzero");
        assert!(opts.signal_interval > 0, "signal_interval must be nonzero");
        if let Some(addrs) = &opts.addrs {
            assert_eq!(addrs.len(), nodes, "one listen address per node");
        }
        let mut listeners = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let bind_addr = match &opts.addrs {
                Some(a) => a[i],
                None => "127.0.0.1:0".parse().unwrap(),
            };
            let listener = TcpListener::bind(bind_addr)?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        let mut accept_handles = Vec::with_capacity(nodes);
        for (j, listener) in listeners.into_iter().enumerate() {
            accept_handles.push(std::thread::spawn(
                move || -> io::Result<Vec<(NodeId, TcpStream)>> {
                    let mut conns = Vec::with_capacity(j);
                    for _ in 0..j {
                        let (mut stream, _) = listener.accept()?;
                        stream.set_nodelay(true)?;
                        let peer = read_hello(&mut stream)?;
                        conns.push((peer, stream));
                    }
                    Ok(conns)
                },
            ));
        }

        let mut endpoints: Vec<Vec<Option<TcpStream>>> = (0..nodes)
            .map(|_| (0..nodes).map(|_| None).collect())
            .collect();
        for (i, row) in endpoints.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
                let mut stream = TcpStream::connect(addrs[j])?;
                stream.set_nodelay(true)?;
                write_frame(&mut stream, FRAME_HELLO, &(i as u32).to_le_bytes())?;
                *slot = Some(stream);
            }
        }
        for (j, handle) in accept_handles.into_iter().enumerate() {
            let conns = handle
                .join()
                .map_err(|_| io::Error::other("accept thread panicked"))??;
            for (peer, stream) in conns {
                if peer >= nodes || endpoints[j][peer].is_some() {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "bad peer id"));
                }
                endpoints[j][peer] = Some(stream);
            }
        }

        let regions = Arc::new(RegionTable::default());
        let mut transports = Vec::with_capacity(nodes);
        for (i, node_endpoints) in endpoints.into_iter().enumerate() {
            let inbox = Arc::new(Mutex::new(VecDeque::new()));
            let counters = Arc::new(TcpCounters::default());
            let down = Arc::new(AtomicBool::new(false));
            let connected: Vec<(NodeId, TcpStream)> = node_endpoints
                .into_iter()
                .enumerate()
                .filter_map(|(peer, ep)| ep.map(|s| (peer, s)))
                .collect();
            // Fixed pool: never more pumps than links, never more than
            // asked for — and zero for a single-node mesh.
            let npumps = opts.pump_threads.min(connected.len());
            let mut wakes = Vec::with_capacity(npumps);
            let mut pump_links: Vec<Vec<PumpLink>> = (0..npumps).map(|_| Vec::new()).collect();
            for _ in 0..npumps {
                let (wake_rx, wake_tx) = UnixStream::pair()?;
                wake_rx.set_nonblocking(true)?;
                wake_tx.set_nonblocking(true)?;
                wakes.push((wake_rx, wake_tx));
            }
            let mut links: Vec<Option<Arc<TxLink>>> = (0..nodes).map(|_| None).collect();
            for (idx, (peer, stream)) in connected.into_iter().enumerate() {
                let pump_id = idx % npumps;
                stream.set_nonblocking(true)?;
                let tx = Arc::new(TxLink {
                    ring: Mutex::new(TxRing {
                        queue: VecDeque::new(),
                        depth_frames: 0,
                        closed: false,
                    }),
                    wake: wakes[pump_id].1.try_clone()?,
                });
                pump_links[pump_id].push(PumpLink {
                    peer,
                    stream,
                    tx: tx.clone(),
                    rx_acc: Vec::new(),
                    rx_open: true,
                    tx_open: true,
                    inflight: VecDeque::new(),
                    inflight_off: 0,
                });
                links[peer] = Some(tx);
            }
            let mut pumps = Vec::with_capacity(npumps);
            for ((wake_rx, _wake_tx), my_links) in wakes.into_iter().zip(pump_links) {
                let sh = PumpShared::<M> {
                    inbox: inbox.clone(),
                    regions: regions.clone(),
                    counters: counters.clone(),
                    down: down.clone(),
                    send_batch_max: opts.send_batch_max.max(1) as u64,
                    signal_interval: opts.signal_interval,
                };
                pumps.push(std::thread::spawn(move || {
                    pump_loop::<M>(my_links, wake_rx, sh);
                }));
            }
            transports.push(Arc::new(TcpTransport {
                node: i,
                max_frame_words: opts.max_frame_words,
                poll_ns: opts.poll_ns,
                links,
                inbox,
                regions: regions.clone(),
                counters,
                signal_interval: opts.signal_interval,
                pumps: Mutex::new(pumps),
                down,
            }));
        }
        Ok(Self { transports })
    }

    /// The endpoint belonging to `node`.
    pub fn transport(&self, node: NodeId) -> Arc<TcpTransport<M>> {
        self.transports[node].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Ping(u64);

    impl Wire for Ping {
        fn payload_bytes(&self) -> u64 {
            8
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }
        fn decode(bytes: &[u8]) -> Option<Self> {
            Some(Ping(u64::from_le_bytes(bytes.try_into().ok()?)))
        }
    }

    fn os_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    }

    #[test]
    fn tcp_send_recv_roundtrip() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(2, TcpOptions::default()).unwrap();
            let a = fabric.transport(0);
            let b = fabric.transport(1);
            a.send(ctx, 1, Ping(11));
            b.send(ctx, 0, Ping(22));
            let (src, msg) = b.recv(ctx);
            assert_eq!((src, msg), (0, Ping(11)));
            let (src, msg) = a.recv(ctx);
            assert_eq!((src, msg), (1, Ping(22)));
            let s = a.stats();
            assert!(s.bytes_tx > 0 && s.bytes_rx > 0);
            assert_eq!(s.frames, 1);
            // The message arrived, so its flush must have been committed.
            assert_eq!(s.tx_flushes, 1);
            assert_eq!(s.frames, s.tx_flushes + s.frames_coalesced);
            assert!(Transport::<Ping>::nic_stats(&*a).is_none());
            a.shutdown();
            b.shutdown();
            a.shutdown(); // idempotent
        });
    }

    #[test]
    fn tcp_write_send_applies_data_before_notification() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(
                2,
                TcpOptions {
                    max_frame_words: 3, // force splitting across frames
                    ..TcpOptions::default()
                },
            )
            .unwrap();
            let a = fabric.transport(0);
            let b = fabric.transport(1);
            let region = MemoryRegion::new(16);
            b.register_region(&region);
            let data: Vec<u64> = (1..=10).collect();
            a.write_send(ctx, 1, &region, 4, data.clone(), Ping(99));
            let (_, msg) = b.recv(ctx);
            assert_eq!(msg, Ping(99));
            assert_eq!(region.read_vec(4, 10), data);
            // 4 WRITE frames + 1 MSG went out as one doorbell-batched
            // train: a single flush covering all five frames.
            let s = a.stats();
            assert_eq!(s.frames, 5);
            assert_eq!(s.tx_flushes, 1);
            assert_eq!(s.doorbell_batches, 1);
            assert_eq!(s.frames_coalesced, 4);
            assert_eq!(s.frames, s.tx_flushes + s.frames_coalesced);
            a.shutdown();
            b.shutdown();
        });
    }

    #[test]
    fn tcp_self_send_short_circuits() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(1, TcpOptions::default()).unwrap();
            let t = fabric.transport(0);
            t.send(ctx, 0, Ping(5));
            let (src, msg) = t.recv(ctx);
            assert_eq!((src, msg), (0, Ping(5)));
            assert_eq!(t.pump_count(), 0); // no links, no pumps
            t.shutdown();
        });
    }

    /// Satellite regression for the old unbuffered per-frame `write` path:
    /// a bursty workload must come out with fewer flushes than frames —
    /// i.e. the pump actually coalesces — and the counter identity must
    /// hold exactly.
    #[test]
    fn tcp_bursty_tx_coalesces_flushes_below_frames() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(2, TcpOptions::default()).unwrap();
            let a = fabric.transport(0);
            let b = fabric.transport(1);
            let region = MemoryRegion::new(1 << 10);
            b.register_region(&region);
            // Burst: 50 WRITE+MSG trains (2 frames each) plus 50 plain
            // sends, enqueued back-to-back without waiting.
            for i in 0..50u64 {
                a.write_send(
                    ctx,
                    1,
                    &region,
                    (i as usize * 8) % 1000,
                    vec![i; 8],
                    Ping(i),
                );
                a.send(ctx, 1, Ping(1000 + i));
            }
            for _ in 0..100 {
                let _ = b.recv(ctx);
            }
            let s = a.stats();
            assert_eq!(s.frames, 150); // 50 * (WRITE + MSG) + 50 * MSG
            assert!(
                s.tx_flushes < s.frames,
                "bursty egress must coalesce: {} flushes for {} frames",
                s.tx_flushes,
                s.frames
            );
            // Every WRITE+MSG train rides one flush, so at least one
            // batched flush exists and at least one frame per train
            // coalesced (more when whole trains merge into one batch).
            assert!(s.doorbell_batches >= 1);
            assert!(s.frames_coalesced >= 50);
            assert_eq!(s.frames, s.tx_flushes + s.frames_coalesced);
            a.shutdown();
            b.shutdown();
        });
    }

    /// Satellite: a stalled peer (node 2 reads nothing while its socket
    /// and our egress ring fill up) must not block traffic between the
    /// other nodes — head-of-line isolation across links.
    #[test]
    fn tcp_stalled_peer_does_not_block_other_links() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(3, TcpOptions::default()).unwrap();
            let a = fabric.transport(0);
            let b = fabric.transport(1);
            let c = fabric.transport(2);
            let region = MemoryRegion::new(1 << 22); // 32 MiB
            c.register_region(&region);
            // Flood the stalled peer: 1024 trains of 4096 words (32 KiB of
            // payload each, ~32 MiB total) — far beyond any default socket
            // buffering, so node 0's link-2 egress ring must back up.
            // Enqueueing never blocks the caller.
            let words = 4096usize;
            for i in 0..1024u64 {
                let off = (i as usize * words) % ((1 << 22) - words);
                a.write_send(ctx, 2, &region, off, vec![i + 1; words], Ping(i));
            }
            // Meanwhile the 0<->1 link must stay fully live: 100 prompt
            // round trips within a generous wall-clock envelope.
            let t0 = Instant::now();
            for i in 0..100u64 {
                a.send(ctx, 1, Ping(i));
                let (src, msg) = b.recv(ctx);
                assert_eq!((src, msg), (0, Ping(i)));
                b.send(ctx, 0, Ping(i));
                let (src, msg) = a.recv(ctx);
                assert_eq!((src, msg), (1, Ping(i)));
            }
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "0<->1 round trips took {:?} behind a stalled peer",
                t0.elapsed()
            );
            let hwm = a.stats().ring_hwm;
            assert!(hwm > 1, "flooded egress ring never backed up (hwm {hwm})");
            // Un-stall: drain every notification and check the data all
            // landed (nothing was lost while the ring was backed up).
            for _ in 0..1024 {
                let _ = c.recv(ctx);
            }
            let last_off = (1023usize * words) % ((1 << 22) - words);
            assert_eq!(region.load(last_off), 1024);
            a.shutdown();
            b.shutdown();
            c.shutdown();
        });
    }

    /// The pump pool is fixed: a 6-node mesh (5 links per node) still runs
    /// on `pump_threads` threads per endpoint, not one per link.
    #[test]
    fn tcp_pump_pool_is_fixed_not_per_link() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let opts = TcpOptions::default();
            let fabric = TcpFabric::<Ping>::new(6, opts.clone()).unwrap();
            for n in 0..6 {
                let t = fabric.transport(n);
                assert_eq!(t.pump_count(), opts.pump_threads);
                assert!(t.pump_count() < 5, "pool must be smaller than links");
            }
            // Every pairwise link still works through the shared pumps.
            for i in 0..6 {
                for j in 0..6 {
                    if i != j {
                        fabric.transport(i).send(ctx, j, Ping((i * 6 + j) as u64));
                    }
                }
            }
            for j in 0..6 {
                let t = fabric.transport(j);
                for _ in 0..5 {
                    let (src, msg) = t.recv(ctx);
                    assert_eq!(msg, Ping((src * 6 + j) as u64));
                }
            }
            for n in 0..6 {
                fabric.transport(n).shutdown();
            }
        });
    }

    /// Satellite: repeated bring-up/tear-down must not leak pump threads —
    /// shutdown drains and joins every pump.
    #[test]
    fn tcp_teardown_loop_leaks_no_threads() {
        let before = os_threads();
        for round in 0..10u64 {
            dsim::Sim::new(dsim::SimConfig::default()).run(move |ctx| {
                let fabric = TcpFabric::<Ping>::new(3, TcpOptions::default()).unwrap();
                let a = fabric.transport(0);
                let b = fabric.transport(1);
                a.send(ctx, 1, Ping(round));
                let (_, msg) = b.recv(ctx);
                assert_eq!(msg, Ping(round));
                for n in 0..3 {
                    fabric.transport(n).shutdown();
                }
            });
        }
        // A leak would accumulate 6 pump threads per round (3 nodes x 2
        // pumps = 60 total); a small slack absorbs unrelated test threads
        // running in the same process.
        let after = os_threads();
        assert!(
            after < before + 20,
            "thread leak across teardown loop: {before} before, {after} after"
        );
    }

    /// `signal_interval` counts one completion per N flushed frames.
    #[test]
    fn tcp_selective_signaling_counts_every_nth_frame() {
        dsim::Sim::new(dsim::SimConfig::default()).run(|ctx| {
            let fabric = TcpFabric::<Ping>::new(
                2,
                TcpOptions {
                    signal_interval: 4,
                    ..TcpOptions::default()
                },
            )
            .unwrap();
            let a = fabric.transport(0);
            let b = fabric.transport(1);
            for i in 0..10u64 {
                a.send(ctx, 1, Ping(i));
            }
            for _ in 0..10 {
                let _ = b.recv(ctx);
            }
            let s = a.stats();
            assert_eq!(s.frames, 10);
            assert_eq!(s.completions, 2, "10 frames / signal interval 4");
            a.shutdown();
            b.shutdown();
        });
    }
}
