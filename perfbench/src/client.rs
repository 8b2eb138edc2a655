//! The open-loop load generator.
//!
//! One thread per keep-alive connection, at most `nproc` of each. Requests
//! are sent when they fall due, whether or not earlier ones were answered
//! (HTTP/1.1 pipelining keeps each connection's replies in order), and
//! every latency is taken from the request's due time to the last byte
//! of its reply, so a stall is charged to every request it delays.

use exathlon_core::wire::{parse_head, HeadParse};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// One scheduled request: its due time (ns after the rung starts), its
/// connection, and its bytes in the rung's payload arena.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub due_ns: u64,
    pub conn: usize,
    pub bytes: (usize, usize),
}

/// What became of one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// HTTP status; 0 when no reply arrived (timeout or closed socket).
    pub status: u16,
    /// Send time minus due time.
    pub lag_ns: u64,
    /// Last reply byte minus due time.
    pub latency_ns: u64,
    /// Reply body in [`RungResult::bodies`].
    pub body: (usize, usize),
}

/// A finished rung.
#[derive(Debug, Default)]
pub struct RungResult {
    pub outcomes: Vec<Outcome>,
    pub bodies: Vec<u8>,
    /// Outstanding requests right after each send, in send order.
    pub backlog: Vec<u32>,
    /// When the rung's clock started (due times count from here).
    pub started: Option<Instant>,
}

/// A framed reply at the front of a buffer.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    pub body: (usize, usize),
    pub total: usize,
}

/// Frame one reply: `Ok(None)` until it is complete. A status line
/// tokenizes like a request line, so the status lands in the path span.
pub fn parse_response(buf: &[u8]) -> Option<Reply> {
    match parse_head(buf, 64 << 10) {
        HeadParse::Complete(h) => {
            let total = h.head_len + h.content_length;
            if buf.len() < total {
                return None;
            }
            let status = std::str::from_utf8(&buf[h.path.0..h.path.1]).ok()?.parse().ok()?;
            Some(Reply { status, body: (h.head_len, total), total })
        }
        _ => None,
    }
}

/// One connection's share of a rung, driven by its own thread.
struct Lane<'a> {
    stream: TcpStream,
    reqs: &'a [Request],
    /// Indices into `reqs` this lane sends, in due order.
    mine: Vec<usize>,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Positions in `mine` sent but not yet answered.
    pending: VecDeque<usize>,
    outcomes: Vec<Outcome>,
    bodies: Vec<u8>,
    /// `(due_ns, outstanding across lanes)` at each send.
    backlog: Vec<(u64, u32)>,
    closed: bool,
}

impl Lane<'_> {
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// Read what has arrived and frame every complete reply.
    fn receive(&mut self, tmp: &mut [u8], start: Instant, outstanding: &AtomicU32) -> bool {
        let mut alive = true;
        loop {
            match self.stream.read(tmp) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        let at = start.elapsed().as_nanos() as u64;
        let mut consumed = 0usize;
        while let Some(reply) = parse_response(&self.inbuf[consumed..]) {
            let Some(k) = self.pending.pop_front() else { break };
            let from = self.bodies.len();
            self.bodies
                .extend_from_slice(&self.inbuf[consumed + reply.body.0..consumed + reply.body.1]);
            let o = &mut self.outcomes[k];
            o.status = reply.status;
            o.latency_ns = at.saturating_sub(self.reqs[self.mine[k]].due_ns);
            o.body = (from, self.bodies.len());
            outstanding.fetch_sub(1, Ordering::Relaxed);
            consumed += reply.total;
        }
        self.inbuf.drain(..consumed);
        alive
    }

    /// The lane's open loop: send on schedule, collect replies, never
    /// sleep. A halted vCPU can wake milliseconds late, which would be
    /// charged to the server; yielding keeps this core awake and still
    /// lets the server's threads run on it.
    fn run(&mut self, payload: &[u8], start: Instant, deadline: u64, outstanding: &AtomicU32) {
        let mut tmp = vec![0u8; 256 << 10];
        let mut next = 0usize;
        loop {
            let now = start.elapsed().as_nanos() as u64;
            while next < self.mine.len() && self.reqs[self.mine[next]].due_ns <= now {
                let r = self.reqs[self.mine[next]];
                self.outcomes[next].lag_ns = now - r.due_ns;
                if !self.closed {
                    self.out.extend_from_slice(&payload[r.bytes.0..r.bytes.1]);
                    self.pending.push_back(next);
                    let backlog = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
                    self.backlog.push((r.due_ns, backlog));
                }
                next += 1;
            }
            if !self.closed {
                // A dead connection fails everything still waiting on it.
                self.closed = !(self.flush() && self.receive(&mut tmp, start, outstanding));
            }
            if self.closed {
                outstanding.fetch_sub(self.pending.len() as u32, Ordering::Relaxed);
                self.pending.clear();
            }
            let now = start.elapsed().as_nanos() as u64;
            if next == self.mine.len() && (self.pending.is_empty() || now >= deadline) {
                break;
            }
            std::thread::yield_now();
        }
        // Whatever is still pending got no reply in time (status 0).
        outstanding.fetch_sub(self.pending.len() as u32, Ordering::Relaxed);
    }
}

/// Run one rung: send `reqs` (sorted by due time) over one connection
/// per address, each driven by its own thread (the calling thread runs
/// the first), collect every reply, and wait at most `drain` past the
/// last due time for stragglers.
pub fn run_open_loop(
    addrs: &[SocketAddr],
    reqs: &[Request],
    payload: &[u8],
    drain: Duration,
) -> Result<RungResult, String> {
    let mut lanes = Vec::with_capacity(addrs.len());
    for (c, &addr) in addrs.iter().enumerate() {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mine: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].conn == c).collect();
        lanes.push(Lane {
            stream,
            reqs,
            outcomes: vec![Outcome::default(); mine.len()],
            bodies: Vec::with_capacity(mine.len() * 48),
            backlog: Vec::with_capacity(mine.len()),
            mine,
            out: Vec::with_capacity(64 << 10),
            out_pos: 0,
            inbuf: Vec::with_capacity(64 << 10),
            pending: VecDeque::new(),
            closed: false,
        });
    }
    let deadline = reqs.last().map_or(0, |r| r.due_ns) + drain.as_nanos() as u64;
    let outstanding = AtomicU32::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (first, rest) = lanes.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|lane| scope.spawn(|| lane.run(payload, start, deadline, &outstanding)))
            .collect();
        first.run(payload, start, deadline, &outstanding);
        for h in handles {
            h.join().expect("generator lane panicked");
        }
    });
    let mut res = RungResult {
        outcomes: vec![Outcome::default(); reqs.len()],
        bodies: Vec::new(),
        backlog: Vec::with_capacity(reqs.len()),
        started: Some(start),
    };
    let mut backlog: Vec<(u64, u32)> = Vec::with_capacity(reqs.len());
    for lane in lanes {
        let base = res.bodies.len();
        res.bodies.extend_from_slice(&lane.bodies);
        for (k, &i) in lane.mine.iter().enumerate() {
            let mut o = lane.outcomes[k];
            o.body = (o.body.0 + base, o.body.1 + base);
            res.outcomes[i] = o;
        }
        backlog.extend_from_slice(&lane.backlog);
    }
    backlog.sort_by_key(|&(due, _)| due);
    res.backlog = backlog.into_iter().map(|(_, b)| b).collect();
    Ok(res)
}
