//! The serving reactor shared by the gatekeeper ([`crate::serve`]) and the
//! router tier ([`crate::route`]).
//!
//! One acceptor thread round-robins accepted sockets over bounded
//! per-worker queues and sheds with `503` + `Retry-After` when every queue
//! is full. Each worker owns its connections outright and multiplexes them
//! without locks: it sweeps every connection until a pass makes no
//! progress, and only then waits. A tier plugs in as a [`Handler`], which
//! turns one connection's buffered bytes into staged response bytes (the
//! gatekeeper) or drives an upstream exchange (the router).
//!
//! ## Readiness waits
//!
//! Each worker owns one `epoll` instance and one `eventfd`. Client sockets
//! are registered edge-triggered (`EPOLLIN|EPOLLOUT|EPOLLRDHUP|EPOLLET`)
//! when admitted, and a handler registers any socket it opens itself (the
//! router's upstream connections) through the same [`Poller`]. The
//! acceptor fires a worker's eventfd after queueing a socket for it, and
//! shutdown fires every worker's eventfd, so an idle worker sleeps in
//! `epoll_wait` instead of polling. Because a no-progress sweep has driven
//! every socket it touched to `WouldBlock`, any later byte, buffer space or
//! hang-up produces an edge, and a readiness event that lands during a
//! sweep stays queued for the next wait: no wake-up is lost. The wait
//! times out after 50 ms so idle and upstream timeouts are still enforced.
//!
//! The idle policy differs per tier ([`Handler::IDLE_YIELDS`]). The
//! gatekeeper blocks as soon as a sweep makes no progress. The router
//! first spends a few `yield_now` sweeps, because in a closed loop its
//! reply usually arrives within a few microseconds of sending the request
//! upstream, and two extra wake-ups per hop would cost more than the
//! yields.
//!
//! `epoll` and `eventfd` are reached through `extern "C"` declarations
//! against the C library std already links, so the reactor is Linux-only
//! and needs no extra crate.

use crate::wire;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker waits for readiness before sweeping anyway
/// (bounds how late an idle or upstream timeout is noticed).
const WAIT_TIMEOUT_MS: i32 = 50;
/// Readiness events harvested per wait. The sweep polls every connection
/// regardless, so events only need to wake the worker.
const MAX_EVENTS: usize = 64;

// ----------------------------------------------------------------- syscalls

/// `struct epoll_event`; the kernel packs it on x86_64.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Wrap a file descriptor returned by a syscall, or the error it reported.
fn owned_fd(fd: i32) -> std::io::Result<OwnedFd> {
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: the syscall just returned this descriptor; nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// A worker's wake-up line: an `eventfd` the acceptor and shutdown write.
/// It is registered edge-triggered, and every write raises a new edge
/// whatever the counter holds, so the counter is never read back.
struct Waker(File);

impl Waker {
    fn new() -> std::io::Result<Self> {
        // SAFETY: plain syscall; the result is checked by `owned_fd`.
        let fd = owned_fd(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self(File::from(fd)))
    }

    fn wake(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }
}

/// One worker's epoll instance and its preallocated event array.
pub(crate) struct Poller {
    epoll: OwnedFd,
    events: [EpollEvent; MAX_EVENTS],
}

impl Poller {
    fn new(waker: &Waker) -> std::io::Result<Self> {
        // SAFETY: plain syscall; the result is checked by `owned_fd`.
        let epoll = owned_fd(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let poller = Self { epoll, events: [EpollEvent { events: 0, data: 0 }; MAX_EVENTS] };
        poller.add(waker.0.as_raw_fd(), EPOLLIN | EPOLLET)?;
        Ok(poller)
    }

    fn add(&self, fd: i32, events: u32) -> std::io::Result<()> {
        let mut ev = EpollEvent { events, data: 0 };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register a socket edge-triggered for every readiness change. The
    /// registration ends when the socket is closed.
    pub(crate) fn register(&self, stream: &TcpStream) -> std::io::Result<()> {
        self.add(stream.as_raw_fd(), EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)
    }

    /// Block until a registered socket or the waker is ready, or the
    /// timeout passes. Which events fired does not matter: the next sweep
    /// polls every connection. A failed wait (`EINTR`) is a spurious wake.
    /// Allocates nothing.
    fn wait(&mut self) {
        // SAFETY: the pointer and length describe `self.events`, which the
        // kernel fills with at most `MAX_EVENTS` entries.
        unsafe {
            epoll_wait(
                self.epoll.as_raw_fd(),
                self.events.as_mut_ptr(),
                MAX_EVENTS as i32,
                WAIT_TIMEOUT_MS,
            );
        }
    }
}

// ----------------------------------------------------------- connections

/// One multiplexed connection: reused buffers plus framing state.
pub(crate) struct Conn<X> {
    pub(crate) stream: TcpStream,
    /// Unparsed request bytes (complete requests are consumed in place).
    pub(crate) inbuf: Vec<u8>,
    /// Serialized responses not yet accepted by the socket.
    pub(crate) outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    pub(crate) out_pos: usize,
    pub(crate) last_active: Instant,
    /// Flush what is pending, then close (explicit `connection: close`,
    /// protocol errors, EOF).
    pub(crate) close_after_flush: bool,
    /// Tier-specific per-connection state (the router's in-flight
    /// upstream exchange).
    pub(crate) exchange: X,
}

/// Take a fresh connection, reusing a closed connection's buffers.
fn admit<X: Default>(stream: TcpStream, pool: &mut Vec<(Vec<u8>, Vec<u8>)>) -> Conn<X> {
    let (mut inbuf, mut outbuf) = pool.pop().unwrap_or_default();
    inbuf.clear();
    outbuf.clear();
    Conn {
        stream,
        inbuf,
        outbuf,
        out_pos: 0,
        last_active: Instant::now(),
        close_after_flush: false,
        exchange: X::default(),
    }
}

/// What one step of I/O on a connection did.
pub(crate) enum Poll {
    /// The connection stays; the flag reports whether anything moved.
    Progress(bool),
    /// The connection is done (peer gone, I/O error, or closing).
    Closed,
}

/// Read until the socket would block, bounded so a pipelining peer cannot
/// grow `inbuf` past `cap`. EOF marks the connection to close once its
/// staged output is flushed (an incomplete buffered request is dropped).
pub(crate) fn fill_in<X>(conn: &mut Conn<X>, tmp: &mut [u8], cap: usize, now: Instant) -> Poll {
    let mut progressed = false;
    while conn.inbuf.len() < cap {
        match conn.stream.read(tmp) {
            Ok(0) => {
                conn.close_after_flush = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&tmp[..n]);
                conn.last_active = now;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Closed,
        }
    }
    Poll::Progress(progressed)
}

/// Write staged output until the socket would block.
pub(crate) fn flush_out<X>(conn: &mut Conn<X>, now: Instant) -> Poll {
    let mut progressed = false;
    while conn.out_pos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
            Ok(0) => return Poll::Closed,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_active = now;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Closed,
        }
    }
    if conn.out_pos == conn.outbuf.len() && conn.out_pos > 0 {
        conn.outbuf.clear();
        conn.out_pos = 0;
    }
    Poll::Progress(progressed)
}

// ---------------------------------------------------------------- handler

/// One serving tier's per-worker request logic.
pub(crate) trait Handler: Send + 'static {
    /// Per-connection tier state, fresh for every admitted connection.
    type Exchange: Default;

    /// No-progress sweeps spent in `yield_now` after the last progress
    /// before the worker blocks in `epoll_wait` (see the module doc).
    const IDLE_YIELDS: u32;

    /// Runs once per loop turn, after admitting queued connections and
    /// before the sweep dispatches any request.
    fn refresh(&mut self) {}

    /// Drive one connection as far as it goes without blocking. Sockets
    /// the handler opens must be registered with `poller`.
    fn poll_conn(&mut self, conn: &mut Conn<Self::Exchange>, poller: &Poller, now: Instant)
        -> Poll;
}

fn worker_loop<H: Handler>(
    mut handler: H,
    rx: Receiver<TcpStream>,
    mut poller: Poller,
    stop: &AtomicBool,
    max_conns: usize,
) {
    let mut conns: Vec<Conn<H::Exchange>> = Vec::new();
    let mut pool: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    let mut idle = 0u32;
    while !stop.load(Ordering::Relaxed) {
        // Admit queued connections up to this worker's multiplex cap. A
        // socket that cannot be registered would never wake the worker;
        // dropping it closes it.
        while conns.len() < max_conns {
            let Ok(stream) = rx.try_recv() else { break };
            if poller.register(&stream).is_ok() {
                conns.push(admit(stream, &mut pool));
            }
        }
        handler.refresh();
        let now = Instant::now();
        let mut progressed = false;
        let mut i = 0;
        while i < conns.len() {
            match handler.poll_conn(&mut conns[i], &poller, now) {
                Poll::Progress(p) => {
                    progressed |= p;
                    i += 1;
                }
                Poll::Closed => {
                    let c = conns.swap_remove(i);
                    let _ = c.stream.shutdown(Shutdown::Both);
                    pool.push((c.inbuf, c.outbuf));
                    progressed = true;
                }
            }
        }
        if progressed {
            idle = 0;
        } else if idle < H::IDLE_YIELDS {
            idle += 1;
            std::thread::yield_now();
        } else {
            poller.wait();
        }
    }
}

// ----------------------------------------------------------------- server

/// The threads of one running tier: an acceptor and its workers. Dropping
/// it stops accepting, closes every connection and joins every thread.
pub(crate) struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start one worker per handler (threads `{tag}-worker-{i}`) and the
    /// acceptor (`{tag}-acceptor`). `on_shed` runs once per connection
    /// shed because every worker queue was full.
    pub(crate) fn spawn<H: Handler>(
        listener: TcpListener,
        tag: &str,
        handlers: Vec<H>,
        accept_queue: usize,
        max_conns: usize,
        on_shed: impl Fn() + Send + 'static,
    ) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut wakers = Vec::with_capacity(handlers.len());
        let mut pollers = Vec::with_capacity(handlers.len());
        for _ in &handlers {
            let waker = Arc::new(Waker::new()?);
            pollers.push(Poller::new(&waker)?);
            wakers.push(waker);
        }
        let mut txs = Vec::with_capacity(handlers.len());
        let workers = handlers
            .into_iter()
            .zip(pollers)
            .enumerate()
            .map(|(i, (handler, poller))| {
                let (tx, rx) = mpsc::sync_channel::<TcpStream>(accept_queue.max(1));
                txs.push(tx);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("{tag}-worker-{i}"))
                    .spawn(move || worker_loop(handler, rx, poller, &stop, max_conns.max(1)))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let stop = Arc::clone(&stop);
            let wakers = wakers.clone();
            std::thread::Builder::new()
                .name(format!("{tag}-acceptor"))
                .spawn(move || accept_striped(listener, &txs, &wakers, &stop, &on_shed))
                .expect("spawn acceptor")
        };
        Ok(Self { addr, stop, wakers, acceptor: Some(acceptor), workers })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the acceptor out of its blocking accept, and every worker
        // out of its readiness wait.
        let _ = TcpStream::connect(self.addr);
        for waker in &self.wakers {
            waker.wake();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Round-robin accepted sockets over bounded per-worker queues, waking
/// the worker that takes each one, and shed load with `503` +
/// `Retry-After` when every queue is full.
fn accept_striped(
    listener: TcpListener,
    txs: &[SyncSender<TcpStream>],
    wakers: &[Arc<Waker>],
    stop: &AtomicBool,
    on_shed: &dyn Fn(),
) {
    // The saturation response is fixed; build it once.
    let body = br#"{"error":"server overloaded"}"#;
    let mut reject = Vec::new();
    wire::write_head_retry(&mut reject, 503, "application/json", body.len(), false, 1);
    reject.extend_from_slice(body);

    let mut next = 0usize;
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break; // the shutdown self-connect lands here
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        // Round-robin striping over the per-worker queues: the first
        // worker with queue room owns this connection for its lifetime.
        let mut stream = Some(stream);
        for i in 0..txs.len() {
            let w = (next + i) % txs.len();
            match txs[w].try_send(stream.take().expect("stream present until sent")) {
                Ok(()) => {
                    wakers[w].wake();
                    next = (w + 1) % txs.len();
                    break;
                }
                Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                    stream = Some(s);
                }
            }
        }
        if let Some(s) = stream {
            // Every queue is full: shed load now, tell the client when
            // to come back, and never block the accept loop on it.
            on_shed();
            let _ = s.set_nonblocking(false);
            let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
            let mut s = s;
            let _ = s.write_all(&reject);
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}
