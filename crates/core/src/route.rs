//! The router tier: a consistent-hash front over many gatekeeper nodes.
//!
//! One gatekeeper ([`crate::serve`]) saturates one machine. The router
//! is the horizontal step: it owns the client-facing socket, maps every
//! `(app, entity)` key onto one of N backend gatekeepers with a
//! virtual-node consistent-hash [`Ring`], and proxies the request over a
//! pooled keep-alive upstream connection. Entity state stays wherever
//! the ring says it lives, so the fleet behaves like one big gatekeeper:
//! the same key always lands on the same node and its score stream stays
//! bitwise identical to a single-node deployment (pinned end to end by
//! `tests/router_smoke.rs`).
//!
//! ## One hash per request, at every tier
//!
//! The ring hashes keys with [`crate::registry::key_hash`] — the same
//! FNV-1a the gatekeeper uses for shard placement and the registry
//! bucket lookup. Each tier computes the hash once from the path
//! segments it parsed anyway; no tier re-derives what another already
//! knew. Ring positions are that hash pushed through the [`mix64`]
//! finalizer (FNV-1a's tail barely avalanches — see [`Ring`]); points
//! are `mix64(key_hash(label, "vnode-{i}"))`, so ownership depends only
//! on the backend *labels*, not join order, and adding a node moves
//! only the keys the new node's points capture (≈1/N of them —
//! `crates/core/tests/route_ring.rs` pins both properties).
//!
//! ## The zero-copy proxy path
//!
//! The warmed single-record proxy cycle performs **zero heap
//! allocations** (metered end to end by the same probe the gatekeeper
//! uses, reported as `proxy_allocs` in [`RouterStats`]) and copies
//! response bytes exactly once on the router: kernel → the upstream
//! connection's reused buffer → client socket. Request bytes are written
//! to the upstream straight from the client connection's input buffer —
//! the head is forwarded verbatim, so proxied responses (success *and*
//! error bodies) are byte-identical to direct backend responses.
//! [`crate::wire::parse_head`] frames both directions: a response
//! status line tokenizes like a request line, with the status code
//! landing in the `path` span.
//!
//! Workers run on the reactor the gatekeeper uses (`core::net`: one
//! acceptor round-robins sockets over bounded per-worker queues; each
//! worker multiplexes its connections without locks and waits for
//! `epoll` readiness when idle). Upstream sockets are registered with the
//! worker's epoll instance when they connect, so a backend's reply wakes
//! the worker. Before blocking, a router worker spends 16 `yield_now`
//! sweeps after its last progress: a reply usually lands within
//! microseconds of the forwarded request, and blocking at once would add
//! two wake-ups to every hop. In-flight
//! requests are bounded per backend; past the bound the router sheds
//! with `503` + `Retry-After` instead of queueing. A request that dies
//! on a stale pooled connection — the backend's idle timeout closes the
//! other end — is retried once on a fresh connection, but only when
//! zero response bytes arrived, so a request is never replayed after a
//! backend began answering it. Upstream failures surface as typed `502`
//! responses, never hangs.
//!
//! ## Checkpoint-driven rebalance
//!
//! [`Router::add_backend`] / [`Router::remove_backend`] install the new
//! ring *first* (swap-then-migrate). Then every old backend lists the
//! keys it holds, resident and spilled (`GET /v1/keys`), and each key it
//! owned under the old ring but not the new one drains over:
//! `GET /v1/checkpoint` from it, `PUT /v1/profile` to the new owner,
//! `DELETE` on it. Checkpoints are bitwise-lossless EXCK images
//! ([`crate::checkpoint`]), so a migrated entity's scores continue
//! bitwise on its new node. Installing the ring first means a just-moved
//! key can see a transient `404` on its new owner until its image lands
//! — visible and retryable — rather than the silent lost updates of
//! migrate-then-swap, and its old owner gets no traffic for it while it
//! lists. The nodes are the only record of their keys and the router
//! keeps no per-tenant state, so a router restart or a profile put on a
//! node directly loses nothing; a stray copy on a node that did not own
//! the key is never moved. Outcomes are typed in a [`RebalanceReport`]:
//! a dead old owner fails its listing or a key's migration loudly, it
//! does not wedge the ring.

use crate::checkpoint::is_image;
use crate::net::{fill_in, flush_out, Conn, Handler, Poll, Poller, Server};
use crate::registry::key_hash;
use crate::serve::alloc_probe;
use crate::wire::{self, HeadParse};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted head block, both directions.
const MAX_HEAD_BYTES: usize = 64 << 10;
/// Initial upstream response buffer (grows by doubling for big bodies).
const UPSTREAM_BUF: usize = 16 << 10;
/// Idle upstream connections pooled per backend, per worker.
const POOL_PER_BACKEND: usize = 4;
/// Socket timeout for the blocking rebalance mini-client.
const MIGRATE_TIMEOUT: Duration = Duration::from_secs(5);

// ------------------------------------------------------------------ ring

/// A virtual-node consistent-hash ring.
///
/// Each backend label contributes `vnodes` points at
/// `mix64(key_hash(label, "vnode-{i}"))`; a key belongs to the backend
/// owning the first point at or after `mix64(key_hash(app, entity))`,
/// wrapping around. Ownership is a pure function of the label set, and
/// adding a label can only reassign keys *to* that label (its new
/// points capture them); every other key keeps its owner.
///
/// Positions are the request's one [`key_hash`] pushed through
/// [`mix64`] — FNV-1a alone is unusable as a ring position, because a
/// byte changed near the end of the key only avalanches into the low
/// bits (one multiply happens after the final xor), so sequential
/// entity names like `tenant-0..n` — and the `vnode-{i}` point names
/// themselves — land in one narrow band of the u64 space and the ring
/// degenerates to "everything on one node".
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// `(point, backend index)` sorted by point.
    points: Vec<(u64, u16)>,
}

/// The splitmix64 finalizer: a bijective full-avalanche bit mix. Every
/// input bit flips every output bit with probability ~1/2, which is
/// exactly the property FNV-1a's tail lacks (see [`Ring`]).
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl Ring {
    /// Build a ring over backend labels, in order (the index a lookup
    /// returns is the label's position in this iterator).
    pub fn build<'a>(labels: impl IntoIterator<Item = &'a str>, vnodes: u16) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::new();
        let mut tag = String::new();
        for (i, label) in labels.into_iter().enumerate() {
            let i = u16::try_from(i).expect("at most 65536 backends");
            for v in 0..vnodes {
                tag.clear();
                let _ = write!(tag, "vnode-{v}");
                points.push((mix64(key_hash(label, &tag)), i));
            }
        }
        points.sort_unstable();
        Self { points }
    }

    /// The backend index owning a precomputed [`key_hash`], or `None`
    /// for an empty ring.
    pub fn owner_of(&self, hash: u64) -> Option<u16> {
        if self.points.is_empty() {
            return None;
        }
        let pos = mix64(hash);
        let at = self.points.partition_point(|&(p, _)| p < pos);
        Some(self.points[if at == self.points.len() { 0 } else { at }].1)
    }

    /// The backend index owning a key.
    pub fn owner(&self, app: &str, entity: &str) -> Option<u16> {
        self.owner_of(key_hash(app, entity))
    }

    /// Number of points on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

// ------------------------------------------------------------ public API

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker threads; each owns a stripe of the client connections.
    pub workers: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: u16,
    /// In-flight proxied requests allowed per backend (fleet-wide);
    /// beyond it the router sheds with `503` + `Retry-After`.
    pub max_inflight_per_backend: u64,
    /// Largest accepted request body; larger requests get 413.
    pub max_body_bytes: usize,
    /// Idle client-connection timeout.
    pub read_timeout: Duration,
    /// Per-exchange upstream bound; past it the client gets `502`.
    pub upstream_timeout: Duration,
    /// Accepted-but-unserved connections queued per worker.
    pub accept_queue: usize,
    /// Client connections one worker multiplexes concurrently.
    pub max_conns_per_worker: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            vnodes: 64,
            max_inflight_per_backend: 128,
            max_body_bytes: 16 << 20,
            read_timeout: Duration::from_secs(2),
            upstream_timeout: Duration::from_secs(2),
            accept_queue: 64,
            max_conns_per_worker: 256,
        }
    }
}

/// Router-level counters (see the module doc for the request taxonomy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Proxied exchanges relayed to completion.
    pub proxied: u64,
    /// Requests answered by the router itself (healthz, stats, 404s).
    pub local: u64,
    /// Connections shed with 503 because every worker queue was full.
    pub rejected: u64,
    /// Requests shed with 503 because the owning backend was saturated.
    pub shed: u64,
    /// Exchanges answered 502 (backend dead, timed out, or misframed).
    pub upstream_errors: u64,
    /// Exchanges retried once after dying on a stale pooled connection.
    pub retries: u64,
    /// Ring changes performed.
    pub rebalances: u64,
    /// Keys migrated across backends by rebalances.
    pub migrated: u64,
    /// Warmed single-record proxied exchanges — served over a pooled
    /// upstream connection — metered by the allocation probe.
    pub proxy_requests: u64,
    /// Heap allocations those exchanges performed (worker-thread side).
    pub proxy_allocs: u64,
}

/// What happened to each listed key when the ring changed.
#[derive(Debug, Default)]
pub struct RebalanceReport {
    /// Keys the old backends listed (`GET /v1/keys`), summed over nodes.
    pub listed: usize,
    /// Keys whose checkpoint moved to a new owner, bitwise.
    pub moved: Vec<(String, String)>,
    /// Keys that changed owner but had no profile on the old one.
    pub absent: usize,
    /// Keys that failed to migrate: `(app, entity, typed error)`. The
    /// ring change stands regardless; these keys answer 404 on their new
    /// owner until re-PUT or a later successful rebalance.
    pub failed: Vec<(String, String, String)>,
    /// Old backends whose key list could not be read: `(label, typed
    /// error)`. None of their keys moved; the ring change stands.
    pub unlisted: Vec<(String, String)>,
}

#[derive(Debug)]
struct BackendNode {
    label: String,
    addr: SocketAddr,
    in_flight: AtomicU64,
}

struct RingState {
    ring: Ring,
    backends: Vec<Arc<BackendNode>>,
}

#[derive(Default)]
struct RouterCounters {
    proxied: AtomicU64,
    local: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    upstream_errors: AtomicU64,
    retries: AtomicU64,
    rebalances: AtomicU64,
    migrated: AtomicU64,
    proxy_requests: AtomicU64,
    proxy_allocs: AtomicU64,
}

struct RouterShared {
    state: Mutex<RingState>,
    /// Bumped (after installing into `state`) on every ring change;
    /// workers poll it and refresh their lock-free local ring copy.
    generation: AtomicU64,
    stats: RouterCounters,
}

impl RouterShared {
    fn stats(&self) -> RouterStats {
        let s = &self.stats;
        RouterStats {
            proxied: s.proxied.load(Ordering::Relaxed),
            local: s.local.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            upstream_errors: s.upstream_errors.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            rebalances: s.rebalances.load(Ordering::Relaxed),
            migrated: s.migrated.load(Ordering::Relaxed),
            proxy_requests: s.proxy_requests.load(Ordering::Relaxed),
            proxy_allocs: s.proxy_allocs.load(Ordering::Relaxed),
        }
    }
}

/// A running router. Dropping it (or calling [`Router::shutdown`]) stops
/// the acceptor and joins every worker.
pub struct Router {
    shared: Arc<RouterShared>,
    vnodes: u16,
    server: Server,
}

#[derive(Clone, Copy)]
struct WorkerCfg {
    read_timeout: Duration,
    upstream_timeout: Duration,
    max_inflight: u64,
    max_body_bytes: usize,
}

impl Router {
    /// Bind the client-facing socket and start routing to `backends`
    /// (`(label, addr)`; labels must be non-empty and unique — they are
    /// the ring identity, so keep them stable across restarts).
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[(&str, SocketAddr)],
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        if backends.is_empty() {
            return Err(invalid_input("router needs at least one backend"));
        }
        for (i, (label, _)) in backends.iter().enumerate() {
            if label.is_empty() {
                return Err(invalid_input("backend labels must be non-empty"));
            }
            if backends[..i].iter().any(|(l, _)| l == label) {
                return Err(invalid_input(format!("duplicate backend label {label:?}")));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let nodes: Vec<Arc<BackendNode>> = backends
            .iter()
            .map(|(label, addr)| {
                Arc::new(BackendNode {
                    label: (*label).to_string(),
                    addr: *addr,
                    in_flight: AtomicU64::new(0),
                })
            })
            .collect();
        let vnodes = config.vnodes;
        let ring = Ring::build(nodes.iter().map(|n| n.label.as_str()), vnodes);
        let shared = Arc::new(RouterShared {
            state: Mutex::new(RingState { ring, backends: nodes }),
            generation: AtomicU64::new(1),
            stats: RouterCounters::default(),
        });
        let cfg = WorkerCfg {
            read_timeout: config.read_timeout,
            upstream_timeout: config.upstream_timeout,
            max_inflight: config.max_inflight_per_backend,
            max_body_bytes: config.max_body_bytes,
        };
        let probe = alloc_probe();
        let handlers = (0..config.workers.max(1))
            .map(|_| RouteWorker {
                shared: Arc::clone(&shared),
                cfg,
                probe,
                ring: Ring::default(),
                backends: Vec::new(),
                generation: 0,
                pools: Pools { by_addr: Vec::new() },
                scratch: Scratch { tmp: vec![0u8; 64 << 10], body: String::new() },
            })
            .collect();
        let on_shed = {
            let shared = Arc::clone(&shared);
            move || {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
        };
        let server = Server::spawn(
            listener,
            "rt",
            handlers,
            config.accept_queue,
            config.max_conns_per_worker,
            on_shed,
        )?;
        Ok(Self { shared, vnodes, server })
    }

    /// The bound client-facing address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// The current backends, in ring-index order.
    pub fn backends(&self) -> Vec<(String, SocketAddr)> {
        self.shared.state.lock().backends.iter().map(|b| (b.label.clone(), b.addr)).collect()
    }

    /// Add a backend and rebalance: the new ring is installed first
    /// (traffic immediately routes by it), then every key whose owner
    /// changed is drained old → new via its checkpoint image.
    pub fn add_backend(&self, label: &str, addr: SocketAddr) -> std::io::Result<RebalanceReport> {
        if label.is_empty() {
            return Err(invalid_input("backend labels must be non-empty"));
        }
        let (old_ring, old_backends, new_ring, new_backends) = {
            let mut st = self.shared.state.lock();
            if st.backends.iter().any(|b| b.label == label) {
                return Err(invalid_input(format!("duplicate backend label {label:?}")));
            }
            let old_ring = std::mem::take(&mut st.ring);
            let old_backends = st.backends.clone();
            st.backends.push(Arc::new(BackendNode {
                label: label.to_string(),
                addr,
                in_flight: AtomicU64::new(0),
            }));
            st.ring = Ring::build(st.backends.iter().map(|b| b.label.as_str()), self.vnodes);
            self.shared.generation.fetch_add(1, Ordering::Release);
            (old_ring, old_backends, st.ring.clone(), st.backends.clone())
        };
        Ok(self.migrate(&old_ring, &old_backends, &new_ring, &new_backends))
    }

    /// Remove a backend and rebalance its keys onto the survivors. The
    /// node must still be reachable: it is the migration *source* (drain
    /// a node before killing it; keys on a node that died undrained are
    /// typed failures here and 404s at their new owner).
    pub fn remove_backend(&self, label: &str) -> std::io::Result<RebalanceReport> {
        let (old_ring, old_backends, new_ring, new_backends) = {
            let mut st = self.shared.state.lock();
            let Some(at) = st.backends.iter().position(|b| b.label == label) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no backend labelled {label:?}"),
                ));
            };
            if st.backends.len() == 1 {
                return Err(invalid_input("cannot remove the last backend"));
            }
            let old_ring = std::mem::take(&mut st.ring);
            let old_backends = st.backends.clone();
            st.backends.remove(at);
            st.ring = Ring::build(st.backends.iter().map(|b| b.label.as_str()), self.vnodes);
            self.shared.generation.fetch_add(1, Ordering::Release);
            (old_ring, old_backends, st.ring.clone(), st.backends.clone())
        };
        Ok(self.migrate(&old_ring, &old_backends, &new_ring, &new_backends))
    }

    /// Drain every listed key whose owner changed between two rings.
    fn migrate(
        &self,
        old_ring: &Ring,
        old_backends: &[Arc<BackendNode>],
        new_ring: &Ring,
        new_backends: &[Arc<BackendNode>],
    ) -> RebalanceReport {
        self.shared.stats.rebalances.fetch_add(1, Ordering::Relaxed);
        let mut report = RebalanceReport::default();
        for (at, from) in old_backends.iter().enumerate() {
            let keys = match list_keys(from) {
                Ok(keys) => keys,
                Err(e) => {
                    report.unlisted.push((from.label.clone(), e));
                    continue;
                }
            };
            report.listed += keys.len();
            for (app, entity) in keys {
                let hash = key_hash(&app, &entity);
                let Some(to) = new_ring.owner_of(hash).map(|n| &new_backends[n as usize]) else {
                    continue;
                };
                // Only the old owner's copy moves: a stray copy elsewhere
                // must never overwrite the live tenant.
                if old_ring.owner_of(hash) != Some(at as u16) || to.label == from.label {
                    continue;
                }
                match migrate_key(&app, &entity, from, to) {
                    Ok(true) => {
                        self.shared.stats.migrated.fetch_add(1, Ordering::Relaxed);
                        report.moved.push((app, entity));
                    }
                    Ok(false) => report.absent += 1,
                    Err(e) => report.failed.push((app, entity, e)),
                }
            }
        }
        report
    }

    /// Stop accepting, close striped connections, join every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

fn invalid_input(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, msg.into())
}

// ------------------------------------------------------------- migration

/// One blocking request/response against a backend (rebalance only; the
/// proxy path never blocks). `connection: close` framing keeps it dumb.
fn http_once(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{stage}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(|e| fail("connect", &e))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(MIGRATE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(MIGRATE_TIMEOUT));
    let mut req = Vec::with_capacity(128 + body.len());
    let _ = write!(
        req,
        "{method} {path} HTTP/1.1\r\nhost: router\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    req.extend_from_slice(body);
    stream.write_all(&req).map_err(|e| fail("send", &e))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| fail("recv", &e))?;
    match wire::parse_head(&raw, MAX_HEAD_BYTES) {
        HeadParse::Complete(head) => {
            let status = response_status(&raw, head.path).ok_or("unparseable status line")?;
            let end = head.head_len + head.content_length;
            if raw.len() < end {
                return Err("truncated response body".to_string());
            }
            Ok((status, raw[head.head_len..end].to_vec()))
        }
        _ => Err("unparseable response head".to_string()),
    }
}

/// The keys a backend holds, from its `GET /v1/keys`
/// (`{"keys":[[app,entity],...]}`).
fn list_keys(node: &BackendNode) -> Result<Vec<(String, String)>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("listing keys on {} failed ({e})", node.label);
    let (status, body) = http_once(node.addr, "GET", "/v1/keys", b"").map_err(|e| fail(&e))?;
    let pair = |key: &serde_json::Value| match key.as_array()? {
        [app, entity] => Some((app.as_str()?.to_string(), entity.as_str()?.to_string())),
        _ => None,
    };
    let text = std::str::from_utf8(&body).ok().filter(|_| status == 200);
    let doc = text.and_then(|text| serde_json::parse_value(text).ok());
    let keys = doc.and_then(|doc| doc.get("keys")?.as_array()?.iter().map(pair).collect());
    keys.ok_or_else(|| fail(&format!("status {status}, no key list")))
}

/// Move one key's checkpoint `from` → `to`. `Ok(true)` moved, `Ok(false)`
/// absent on the old owner, `Err` a typed failure.
fn migrate_key(
    app: &str,
    entity: &str,
    from: &BackendNode,
    to: &BackendNode,
) -> Result<bool, String> {
    let ckpt = format!("/v1/checkpoint/{app}/{entity}");
    let prof = format!("/v1/profile/{app}/{entity}");
    let (status, image) = http_once(from.addr, "GET", &ckpt, b"")
        .map_err(|e| format!("old owner {} unreachable ({e})", from.label))?;
    match status {
        404 => return Ok(false),
        200 => {}
        s => return Err(format!("old owner {} returned {s} for its checkpoint", from.label)),
    }
    if !is_image(&image) {
        return Err(format!("old owner {} returned a non-checkpoint body", from.label));
    }
    let (status, _) = http_once(to.addr, "PUT", &prof, &image)
        .map_err(|e| format!("new owner {} unreachable ({e})", to.label))?;
    if status != 200 {
        return Err(format!("new owner {} rejected the checkpoint with {status}", to.label));
    }
    // The image is installed on the new owner; dropping the old copy is
    // cleanup. Failing it still moved the key — but say so, because a
    // stale twin would resurface if the ring ever maps the key back.
    let (status, _) = http_once(from.addr, "DELETE", &prof, b"")
        .map_err(|e| format!("moved, but old owner {} delete failed ({e})", from.label))?;
    if status != 200 {
        return Err(format!("moved, but old owner {} answered {status} to delete", from.label));
    }
    Ok(true)
}

// ----------------------------------------------------------- worker loop

/// One pooled upstream connection and its reused response buffer.
struct Upstream {
    stream: TcpStream,
    /// Response storage: fixed-length window (`vec![0; n]`), filled by
    /// reads and indexed by the in-flight exchange's `resp_len`.
    buf: Vec<u8>,
}

/// The parsed frame of the upstream response.
#[derive(Clone, Copy)]
struct RespHead {
    total: usize,
    keep_alive: bool,
}

/// A claimed in-flight slot on a backend, released when dropped: the
/// exchange completed, failed, or died with its client connection.
struct Slot(Arc<BackendNode>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One proxied exchange in flight on a client connection.
struct Inflight {
    slot: Slot,
    upstream: TcpStream,
    buf: Vec<u8>,
    /// Response bytes received into `buf`.
    resp_len: usize,
    /// Request frame length in the client's inbuf (head + body).
    req_total: usize,
    /// Request bytes already written upstream.
    req_sent: usize,
    head: Option<RespHead>,
    /// Response bytes already relayed to the client.
    relayed: usize,
    started: Instant,
    /// Came off the idle pool (eligible for the stale-connection retry).
    pooled: bool,
    retried: bool,
    /// On the allocation-metered hot path (single-record ingest).
    metered: bool,
    allocs: u64,
    client_keep_alive: bool,
}

/// A client connection. Its `outbuf` holds router-local responses
/// (healthz, stats, 404/502/503); proxied responses bypass it and relay
/// straight from the upstream buffer, so the worker always flushes
/// `outbuf` fully before relaying, keeping response order equal to
/// request order.
type ClientConn = Conn<Option<Inflight>>;

/// Per-worker reusable workspaces.
struct Scratch {
    /// Client socket read staging.
    tmp: Vec<u8>,
    /// Local response body staging.
    body: String,
}

struct Pools {
    /// Idle upstreams per backend address (a few backends: linear scan).
    by_addr: Vec<(SocketAddr, Vec<Upstream>)>,
}

impl Pools {
    fn bucket(&mut self, addr: SocketAddr) -> &mut Vec<Upstream> {
        if let Some(at) = self.by_addr.iter().position(|(a, _)| *a == addr) {
            return &mut self.by_addr[at].1;
        }
        self.by_addr.push((addr, Vec::with_capacity(POOL_PER_BACKEND)));
        &mut self.by_addr.last_mut().expect("just pushed").1
    }
}

/// One router worker: client requests in, upstream exchanges out.
struct RouteWorker {
    shared: Arc<RouterShared>,
    cfg: WorkerCfg,
    probe: Option<fn() -> u64>,
    /// Lock-free copy of the ring and its backends, refreshed when
    /// `shared.generation` moves.
    ring: Ring,
    backends: Vec<Arc<BackendNode>>,
    generation: u64,
    pools: Pools,
    scratch: Scratch,
}

impl Handler for RouteWorker {
    type Exchange = Option<Inflight>;

    // A dispatched request's reply usually lands within microseconds in a
    // closed loop: spin a few yields before paying for a blocking wait.
    const IDLE_YIELDS: u32 = 16;

    /// Refresh the lock-free local ring copy when the ring changed (the
    /// lock is only ever taken here and on rebalances). The reactor runs
    /// this *after* admitting queued connections: a rebalance that
    /// completed while this worker was parked must be visible before any
    /// connection admitted afterwards is dispatched, else a migrated key
    /// would route to its old (already-drained) owner.
    fn refresh(&mut self) {
        let g = self.shared.generation.load(Ordering::Acquire);
        if g != self.generation {
            let st = self.shared.state.lock();
            self.ring = st.ring.clone();
            self.backends = st.backends.clone();
            self.generation = g;
        }
    }

    fn poll_conn(&mut self, conn: &mut ClientConn, poller: &Poller, now: Instant) -> Poll {
        let mut progressed = false;
        match flush_out(conn, now) {
            Poll::Closed => return Poll::Closed,
            Poll::Progress(p) => progressed |= p,
        }

        // Service the in-flight exchange first; local responses staged
        // before it must be fully on the wire before its bytes relay.
        if conn.exchange.is_some() && conn.out_pos == conn.outbuf.len() {
            match self.service_inflight(conn, poller, now) {
                Poll::Closed => return Poll::Closed,
                Poll::Progress(p) => progressed |= p,
            }
        }

        if conn.exchange.is_none() && !conn.close_after_flush {
            match self.read_and_dispatch(conn, poller, now) {
                Poll::Closed => return Poll::Closed,
                Poll::Progress(p) => progressed |= p,
            }
            // A freshly dispatched exchange gets driven in the same poll so
            // the request reaches the backend without waiting a loop turn.
            if conn.exchange.is_some() && conn.out_pos == conn.outbuf.len() {
                match self.service_inflight(conn, poller, now) {
                    Poll::Closed => return Poll::Closed,
                    Poll::Progress(p) => progressed |= p,
                }
            }
        }

        match flush_out(conn, now) {
            Poll::Closed => return Poll::Closed,
            Poll::Progress(p) => progressed |= p,
        }
        if conn.close_after_flush && conn.exchange.is_none() && conn.out_pos == conn.outbuf.len() {
            return Poll::Closed;
        }
        if now.duration_since(conn.last_active) > self.cfg.read_timeout && conn.exchange.is_none() {
            return Poll::Closed;
        }
        Poll::Progress(progressed)
    }
}

impl RouteWorker {
    /// Drive the in-flight exchange: forward request bytes, accumulate the
    /// response, relay it, then finalize (pooling, counters).
    /// Handles the stale-pool retry and upstream timeout.
    fn service_inflight(&mut self, conn: &mut ClientConn, poller: &Poller, now: Instant) -> Poll {
        let probe = self.probe;
        let f = conn.exchange.as_mut().expect("caller checked inflight");
        let before = (f.req_sent, f.resp_len, f.relayed);
        loop {
            let metered = f.metered;
            let allocs_before = if metered { probe.map(|p| p()).unwrap_or(0) } else { 0 };
            let outcome = drive(&mut conn.stream, &conn.inbuf, f);
            if metered {
                if let Some(p) = probe {
                    f.allocs += p() - allocs_before;
                }
            }
            match outcome {
                Drive::Pending => {
                    if now.duration_since(f.started) > self.cfg.upstream_timeout {
                        let f = conn.exchange.take().expect("present");
                        let msg = "upstream timed out";
                        fail_exchange(conn, &self.shared, &mut self.scratch, f, msg);
                    }
                    break;
                }
                Drive::Done => {
                    let f = conn.exchange.take().expect("present");
                    finish_exchange(conn, &self.shared, &mut self.pools, f);
                    break;
                }
                Drive::ClientGone => return Poll::Closed,
                Drive::UpstreamGone => {
                    // A pooled connection the backend's idle timeout already
                    // closed looks exactly like this: dead before a single
                    // response byte. Retrying on a fresh connection is safe
                    // then — and only then (a replay after bytes arrived
                    // could double-ingest a record).
                    if f.pooled && !f.retried && f.resp_len == 0 {
                        match connect_upstream(f.slot.0.addr, poller) {
                            Ok(stream) => {
                                f.upstream = stream;
                                f.req_sent = 0;
                                f.pooled = false;
                                f.retried = true;
                                // The fresh connect makes this a cold
                                // exchange; keep it out of the warmed-path
                                // allocation meter.
                                f.metered = false;
                                self.shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            Err(_) => {
                                let f = conn.exchange.take().expect("present");
                                let msg = "upstream unavailable";
                                fail_exchange(conn, &self.shared, &mut self.scratch, f, msg);
                                break;
                            }
                        }
                    }
                    let msg = if f.resp_len == 0 {
                        "upstream unavailable"
                    } else {
                        "upstream sent a malformed response"
                    };
                    let f = conn.exchange.take().expect("present");
                    fail_exchange(conn, &self.shared, &mut self.scratch, f, msg);
                    break;
                }
            }
        }
        let progressed = match conn.exchange.as_ref() {
            Some(f) => (f.req_sent, f.resp_len, f.relayed) != before,
            None => true,
        };
        if progressed {
            conn.last_active = now;
        }
        Poll::Progress(progressed)
    }

    /// Read client bytes and handle buffered requests: answer router-local
    /// routes inline, dispatch keyed routes upstream (at most one in flight
    /// per client connection — HTTP/1.1 responses are ordered anyway).
    fn read_and_dispatch(&mut self, conn: &mut ClientConn, poller: &Poller, now: Instant) -> Poll {
        let cap = self.cfg.max_body_bytes + MAX_HEAD_BYTES + (64 << 10);
        let mut progressed = match fill_in(conn, &mut self.scratch.tmp, cap, now) {
            Poll::Closed => return Poll::Closed,
            Poll::Progress(p) => p,
        };

        let allocs_before = self.probe.map(|p| p()).unwrap_or(0);
        let mut consumed = 0usize;
        let mut dispatch: Option<wire::Head> = None;
        loop {
            let buf = &conn.inbuf[consumed..];
            if buf.is_empty() {
                break;
            }
            match wire::parse_head(buf, MAX_HEAD_BYTES) {
                HeadParse::Partial => break,
                HeadParse::Hangup => return Poll::Closed,
                HeadParse::Bad(status, msg) => {
                    let (out, body) = (&mut conn.outbuf, &mut self.scratch.body);
                    wire::write_error_response(out, body, status, msg, false);
                    conn.close_after_flush = true;
                    consumed = conn.inbuf.len();
                    progressed = true;
                    break;
                }
                HeadParse::Complete(head) => {
                    if head.content_length > self.cfg.max_body_bytes {
                        let (out, body) = (&mut conn.outbuf, &mut self.scratch.body);
                        wire::write_error_response(out, body, 413, "body too large", false);
                        conn.close_after_flush = true;
                        consumed = conn.inbuf.len();
                        progressed = true;
                        break;
                    }
                    let total = head.head_len + head.content_length;
                    if buf.len() < total {
                        break;
                    }
                    if plan_proxy(buf, &head, &self.ring).is_some() {
                        // The request must sit at inbuf[0] while in flight
                        // (spans stay stable, the frame forwards verbatim):
                        // stop parsing, drain what came before, dispatch.
                        dispatch = Some(head);
                        break;
                    }
                    handle_local(&self.shared, &mut self.scratch, &mut conn.outbuf, buf, &head);
                    progressed = true;
                    conn.last_active = now;
                    consumed += total;
                    if !head.keep_alive {
                        conn.close_after_flush = true;
                        break;
                    }
                }
            }
        }
        if consumed > 0 {
            conn.inbuf.drain(..consumed);
        }
        if let Some(head) = dispatch {
            progressed = true;
            conn.last_active = now;
            self.dispatch_proxy(conn, head, poller, now);
            if let Some(f) = conn.exchange.as_mut() {
                if f.metered {
                    if let Some(p) = self.probe {
                        f.allocs += p() - allocs_before;
                    }
                }
            }
        }
        Poll::Progress(progressed)
    }

    /// Stage a keyed request onto its owning backend (or shed/fail locally).
    fn dispatch_proxy(
        &mut self,
        conn: &mut ClientConn,
        head: wire::Head,
        poller: &Poller,
        now: Instant,
    ) {
        let (shared, scratch) = (&self.shared, &mut self.scratch);
        let total = head.head_len + head.content_length;
        let Some(owner) = plan_proxy(&conn.inbuf, &head, &self.ring) else {
            // Raced a ring change down to zero backends; nothing owns keys.
            let (out, body) = (&mut conn.outbuf, &mut scratch.body);
            wire::write_error_response(out, body, 502, "no backends", head.keep_alive);
            shared.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
            conn.inbuf.drain(..total);
            if !head.keep_alive {
                conn.close_after_flush = true;
            }
            return;
        };
        let backend = &self.backends[owner as usize];
        if backend.in_flight.load(Ordering::Acquire) >= self.cfg.max_inflight {
            // Saturated: shed with the same bytes the accept tier uses.
            scratch.body.clear();
            wire::write_error_body(&mut scratch.body, "backend saturated");
            wire::write_head_retry(
                &mut conn.outbuf,
                503,
                "application/json",
                scratch.body.len(),
                head.keep_alive,
                1,
            );
            conn.outbuf.extend_from_slice(scratch.body.as_bytes());
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            conn.inbuf.drain(..total);
            if !head.keep_alive {
                conn.close_after_flush = true;
            }
            return;
        }
        backend.in_flight.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(Arc::clone(backend));
        let (upstream, pooled) = match self.pools.bucket(backend.addr).pop() {
            Some(u) => (u, true),
            None => match connect_upstream(backend.addr, poller) {
                Ok(stream) => (Upstream { stream, buf: vec![0u8; UPSTREAM_BUF] }, false),
                Err(_) => {
                    shared.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                    let (out, body) = (&mut conn.outbuf, &mut scratch.body);
                    let msg = "upstream unavailable";
                    wire::write_error_response(out, body, 502, msg, head.keep_alive);
                    conn.inbuf.drain(..total);
                    if !head.keep_alive {
                        conn.close_after_flush = true;
                    }
                    return;
                }
            },
        };
        let method = &conn.inbuf[head.method.0..head.method.1];
        let path = &conn.inbuf[head.path.0..head.path.1];
        // Only pooled exchanges are metered: a pool miss pays a cold
        // connect + buffer setup, which is lazy warmup, not the warmed
        // path whose allocation count the meter pins.
        let metered =
            pooled && self.probe.is_some() && method == b"POST" && path.starts_with(b"/v1/ingest/");
        conn.exchange = Some(Inflight {
            slot,
            upstream: upstream.stream,
            buf: upstream.buf,
            resp_len: 0,
            req_total: total,
            req_sent: 0,
            head: None,
            relayed: 0,
            started: now,
            pooled,
            retried: false,
            metered,
            allocs: 0,
            client_keep_alive: head.keep_alive,
        });
    }
}

enum Drive {
    /// Both sockets would block; try again next poll.
    Pending,
    /// The response is fully relayed to the client.
    Done,
    /// The upstream died or misframed (see `resp_len` for whether any
    /// response bytes arrived — zero means a retry is safe).
    UpstreamGone,
    /// The client side died mid-relay.
    ClientGone,
}

/// One nonblocking push of the exchange state machine. No allocation on
/// the warmed path: request bytes go client-inbuf → upstream socket,
/// response bytes kernel → `f.buf` → client socket.
fn drive(client: &mut TcpStream, inbuf: &[u8], f: &mut Inflight) -> Drive {
    // Forward the request frame verbatim.
    while f.req_sent < f.req_total {
        match f.upstream.write(&inbuf[f.req_sent..f.req_total]) {
            Ok(0) => return Drive::UpstreamGone,
            Ok(n) => f.req_sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Drive::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Drive::UpstreamGone,
        }
    }
    loop {
        // Frame the response once enough head bytes are in.
        if f.head.is_none() && f.resp_len > 0 {
            match wire::parse_head(&f.buf[..f.resp_len], MAX_HEAD_BYTES) {
                HeadParse::Complete(h) => {
                    if response_status(&f.buf[..f.resp_len], h.path).is_none() {
                        return Drive::UpstreamGone;
                    }
                    f.head = Some(RespHead {
                        total: h.head_len + h.content_length,
                        keep_alive: h.keep_alive,
                    });
                }
                HeadParse::Partial => {}
                HeadParse::Hangup | HeadParse::Bad(..) => return Drive::UpstreamGone,
            }
        }
        // Relay what has arrived; don't wait for the full body.
        if let Some(h) = f.head {
            let avail = f.resp_len.min(h.total);
            while f.relayed < avail {
                match client.write(&f.buf[f.relayed..avail]) {
                    Ok(0) => return Drive::ClientGone,
                    Ok(n) => f.relayed += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Drive::ClientGone,
                }
            }
            if f.relayed == h.total {
                // Trailing bytes past the frame would mean the upstream
                // broke request/response pairing; surface, don't pool.
                return if f.resp_len > h.total { Drive::UpstreamGone } else { Drive::Done };
            }
            if f.relayed < avail {
                // Client would block with upstream bytes still pending.
                return Drive::Pending;
            }
        }
        // Pull more response bytes straight into the reused buffer.
        if f.resp_len == f.buf.len() {
            let grown = (f.buf.len() * 2).max(UPSTREAM_BUF);
            f.buf.resize(grown, 0);
        }
        match f.upstream.read(&mut f.buf[f.resp_len..]) {
            Ok(0) => return Drive::UpstreamGone,
            Ok(n) => f.resp_len += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Drive::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Drive::UpstreamGone,
        }
    }
}

/// The status code of a response head parsed by [`wire::parse_head`]
/// (a status line tokenizes like a request line: the code is the `path`
/// span).
fn response_status(buf: &[u8], span: (usize, usize)) -> Option<u16> {
    std::str::from_utf8(&buf[span.0..span.1]).ok()?.parse().ok()
}

/// A completed exchange: free the backend slot, pool the upstream if it
/// stayed clean and keep-alive, bump counters, drop the request frame
/// from the client buffer.
fn finish_exchange(conn: &mut ClientConn, shared: &RouterShared, pools: &mut Pools, f: Inflight) {
    let head = f.head.expect("done implies framed");
    shared.stats.proxied.fetch_add(1, Ordering::Relaxed);
    if f.metered {
        shared.stats.proxy_requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.proxy_allocs.fetch_add(f.allocs, Ordering::Relaxed);
    }
    if head.keep_alive && f.resp_len == head.total {
        let bucket = pools.bucket(f.slot.0.addr);
        if bucket.len() < POOL_PER_BACKEND {
            bucket.push(Upstream { stream: f.upstream, buf: f.buf });
        }
    }
    conn.inbuf.drain(..f.req_total);
    if !f.client_keep_alive {
        conn.close_after_flush = true;
    }
}

/// A failed exchange: free the backend slot, drop the upstream, answer
/// the client with a typed `502`, drop the request frame.
fn fail_exchange(
    conn: &mut ClientConn,
    shared: &RouterShared,
    scratch: &mut Scratch,
    f: Inflight,
    msg: &str,
) {
    shared.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
    if f.relayed > 0 {
        // Part of a response already reached the client; the only honest
        // move is to cut the connection rather than splice a 502 into a
        // half-relayed body.
        conn.inbuf.drain(..f.req_total);
        conn.close_after_flush = true;
        return;
    }
    wire::write_error_response(&mut conn.outbuf, &mut scratch.body, 502, msg, f.client_keep_alive);
    conn.inbuf.drain(..f.req_total);
    if !f.client_keep_alive {
        conn.close_after_flush = true;
    }
}

/// Open an upstream connection and register it with the worker's poller,
/// so the reply wakes the worker.
fn connect_upstream(addr: SocketAddr, poller: &Poller) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    poller.register(&stream)?;
    Ok(stream)
}

/// The owning backend for a keyed path, or `None` when the request is
/// router-local. Every `/v1/{route}/{app}/{entity}` shape forwards — the
/// backend owns route validation, so its 404 wording passes through.
fn plan_proxy(buf: &[u8], head: &wire::Head, ring: &Ring) -> Option<u16> {
    let path = std::str::from_utf8(&buf[head.path.0..head.path.1]).unwrap_or_default();
    let clean = path.split('?').next().unwrap_or("");
    let mut segs = clean.split('/').filter(|s| !s.is_empty());
    if segs.next() != Some("v1") {
        return None;
    }
    let _route = segs.next()?;
    let app = segs.next()?;
    let entity = segs.next()?;
    if segs.next().is_some() {
        return None;
    }
    ring.owner_of(key_hash(app, entity))
}

/// Router-local routes: healthz, router stats, and 404s for anything
/// unkeyed (there is no backend to ask).
fn handle_local(
    shared: &RouterShared,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
    buf: &[u8],
    head: &wire::Head,
) {
    shared.stats.local.fetch_add(1, Ordering::Relaxed);
    let method = std::str::from_utf8(&buf[head.method.0..head.method.1]).unwrap_or_default();
    let path = std::str::from_utf8(&buf[head.path.0..head.path.1]).unwrap_or_default();
    let clean = path.split('?').next().unwrap_or("");
    scratch.body.clear();
    let status = match (method, clean) {
        ("GET", "/v1/healthz") => {
            scratch.body.push_str("{\"ok\":true}");
            200
        }
        ("GET", "/v1/stats") => {
            let s = shared.stats();
            let _ = write!(
                scratch.body,
                "{{\"proxied\":{},\"local\":{},\"rejected\":{},\"shed\":{},\
                 \"upstream_errors\":{},\"retries\":{},\"rebalances\":{},\"migrated\":{},\
                 \"proxy_requests\":{},\"proxy_allocs\":{}}}",
                s.proxied,
                s.local,
                s.rejected,
                s.shed,
                s.upstream_errors,
                s.retries,
                s.rebalances,
                s.migrated,
                s.proxy_requests,
                s.proxy_allocs,
            );
            200
        }
        _ => {
            wire::write_error_body(&mut scratch.body, "no such route");
            404
        }
    };
    wire::write_head(out, status, "application/json", scratch.body.len(), head.keep_alive);
    out.extend_from_slice(scratch.body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ServingProfile;
    use crate::serve::{Gatekeeper, GatekeeperConfig};
    use exathlon_ad::stream::StreamingEwma;

    fn profile() -> ServingProfile {
        ServingProfile::new(StreamingEwma::new(0.3, vec![1.0, 2.0]).into(), 0.5)
    }

    /// One request per call over a fresh connection (test-only client).
    fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("no header break") + 4;
        let head = String::from_utf8_lossy(&raw[..split]).to_string();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, raw[split..].to_vec(), head)
    }

    /// One keep-alive request on an existing connection; reads exactly
    /// one framed response. Keep-alive matters: the router forwards the
    /// request head verbatim, so only keep-alive traffic exercises the
    /// upstream connection pool.
    fn call_on(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid keep-alive response");
            raw.extend_from_slice(&chunk[..n]);
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&raw[..at]).unwrap();
                let need: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .unwrap()
                    .parse()
                    .unwrap();
                if raw.len() >= at + 4 + need {
                    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
                    return (status, raw[at + 4..at + 4 + need].to_vec());
                }
            }
        }
    }

    /// Wait (bounded) for an asynchronously-bumped stat to land: the
    /// client can read a response's last byte an instant before the
    /// worker thread runs the exchange's bookkeeping.
    fn wait_for(mut get: impl FnMut() -> u64, want: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let got = get();
            if got >= want || Instant::now() > deadline {
                return got;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn ring_ownership_is_deterministic_and_label_based() {
        let a = Ring::build(["alpha", "beta"], 32);
        let b = Ring::build(["alpha", "beta"], 32);
        for key in 0..200u64 {
            let h = key.wrapping_mul(0x9E3779B97F4A7C15);
            assert_eq!(a.owner_of(h), b.owner_of(h));
        }
        assert_eq!(a.len(), 64);
        assert!(Ring::default().owner_of(7).is_none());
        // Single backend owns everything, including the wraparound.
        let solo = Ring::build(["only"], 8);
        assert_eq!(solo.owner_of(0), Some(0));
        assert_eq!(solo.owner_of(u64::MAX), Some(0));
    }

    #[test]
    fn adding_a_node_moves_keys_only_to_it() {
        let old = Ring::build(["a", "b", "c"], 64);
        let new = Ring::build(["a", "b", "c", "d"], 64);
        let mut moved = 0usize;
        let total = 4000usize;
        for i in 0..total {
            let h = key_hash("app", &format!("entity-{i}"));
            let (o, n) = (old.owner_of(h).unwrap(), new.owner_of(h).unwrap());
            if o != n {
                moved += 1;
                assert_eq!(n, 3, "a moved key must move to the new node");
            }
        }
        // ~1/4 of keys should move; allow generous slack for hash luck.
        assert!(moved > total / 12 && moved < total / 2, "moved {moved}/{total}");
    }

    #[test]
    fn local_routes_and_unkeyed_404() {
        // A router with an unreachable backend still answers local routes.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let rt = Router::bind("127.0.0.1:0", &[("n0", dead)], RouterConfig::default()).unwrap();
        let addr = rt.local_addr();
        let (status, body, _) = call(addr, "GET", "/v1/healthz", b"");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
        let (status, body, _) = call(addr, "GET", "/v1/stats", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        for field in ["proxied", "shed", "upstream_errors", "migrated", "proxy_allocs"] {
            assert!(text.contains(&format!("\"{field}\"")), "{text}");
        }
        let (status, _, _) = call(addr, "GET", "/nope", b"");
        assert_eq!(status, 404);
        let (status, _, _) = call(addr, "GET", "/v1/unknown", b"");
        assert_eq!(status, 404);
        assert!(rt.stats().local >= 4);
        rt.shutdown();
    }

    #[test]
    fn dead_backend_is_a_typed_502_not_a_hang() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let rt = Router::bind("127.0.0.1:0", &[("n0", dead)], RouterConfig::default()).unwrap();
        let (status, body, _) =
            call(rt.local_addr(), "POST", "/v1/ingest/a/e", b"{\"record\":[1,2]}");
        assert_eq!(status, 502, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"{\"error\":\"upstream unavailable\"}");
        assert_eq!(rt.stats().upstream_errors, 1);
        rt.shutdown();
    }

    #[test]
    fn saturated_backend_sheds_503_with_retry_after() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let config = RouterConfig { max_inflight_per_backend: 0, ..RouterConfig::default() };
        let rt = Router::bind("127.0.0.1:0", &[("n0", dead)], config).unwrap();
        let (status, body, head) =
            call(rt.local_addr(), "POST", "/v1/ingest/a/e", b"{\"record\":[1,2]}");
        assert_eq!(status, 503);
        assert!(head.contains("retry-after: 1"), "{head}");
        assert_eq!(body, b"{\"error\":\"backend saturated\"}");
        assert_eq!(rt.stats().shed, 1);
        rt.shutdown();
    }

    /// The union of the nodes' `GET /v1/keys` lists, as entity names.
    fn listed_entities(nodes: &[&Gatekeeper]) -> Vec<String> {
        let mut all = Vec::new();
        for node in nodes {
            let (status, body, _) = call(node.local_addr(), "GET", "/v1/keys", b"");
            assert_eq!(status, 200);
            let doc = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
            for key in doc.get("keys").unwrap().as_array().unwrap() {
                all.push(key.as_array().unwrap()[1].as_str().unwrap().to_string());
            }
        }
        all.sort();
        all
    }

    #[test]
    fn proxies_bitwise_and_nodes_list_keys_across_two_nodes() {
        let gk_a = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let gk_b = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let rt = Router::bind(
            "127.0.0.1:0",
            &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
            RouterConfig::default(),
        )
        .unwrap();
        let addr = rt.local_addr();

        // Several tenants spread over both nodes; a local twin checks
        // every score bitwise through the proxy.
        let mut twins: Vec<(String, ServingProfile)> =
            (0..6).map(|i| (format!("tenant-{i}"), profile())).collect();
        for (name, twin) in &twins {
            let (status, _, _) =
                call(addr, "PUT", &format!("/v1/profile/app/{name}"), &twin.to_bytes());
            assert_eq!(status, 200);
        }
        let names: Vec<String> = twins.iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(listed_entities(&[&gk_a, &gk_b]), names, "each node lists what it holds");
        for round in 0..4 {
            for (name, twin) in &mut twins {
                let rec = [round as f64 * 0.5, -(round as f64)];
                let (want, _) = twin.ingest(&rec);
                let body = format!("{{\"record\":[{},{}]}}", rec[0], rec[1]);
                let (status, resp, _) =
                    call(addr, "POST", &format!("/v1/ingest/app/{name}"), body.as_bytes());
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
                let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
                let got = wire::json_num(v.get("score").unwrap()).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{name} round {round}");
            }
        }
        // Both nodes actually host tenants (the ring spread them).
        assert!(gk_a.stats().resident_profiles > 0, "node-a hosts nothing");
        assert!(gk_b.stats().resident_profiles > 0, "node-b hosts nothing");

        // A DELETE through the router drops the key from its node's list.
        let (status, _, _) = call(addr, "DELETE", "/v1/profile/app/tenant-0", b"");
        assert_eq!(status, 200);
        assert_eq!(listed_entities(&[&gk_a, &gk_b]), names[1..]);
        // Proxied 404 body is byte-identical to the backend's.
        let (status, body, _) =
            call(addr, "POST", "/v1/ingest/app/tenant-0", b"{\"record\":[1,2]}");
        assert_eq!(status, 404);
        assert_eq!(body, b"{\"error\":\"unknown profile\"}");

        rt.shutdown();
        gk_a.shutdown();
        gk_b.shutdown();
    }

    #[test]
    fn rebalance_migrates_checkpoints_with_bitwise_continuation() {
        let gk_a = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let gk_b = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let rt =
            Router::bind("127.0.0.1:0", &[("node-a", gk_a.local_addr())], RouterConfig::default())
                .unwrap();
        let addr = rt.local_addr();

        let mut twins: Vec<(String, ServingProfile)> =
            (0..8).map(|i| (format!("e{i}"), profile())).collect();
        for (name, twin) in &mut twins {
            call(addr, "PUT", &format!("/v1/profile/app/{name}"), &twin.to_bytes());
            for i in 0..3 {
                let (want, _) = twin.ingest(&[i as f64, 0.5]);
                let body = format!("{{\"record\":[{i},0.5]}}");
                let (_, resp, _) =
                    call(addr, "POST", &format!("/v1/ingest/app/{name}"), body.as_bytes());
                let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
                let got = wire::json_num(v.get("score").unwrap()).unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        // Join node-b: ~half the keys drain over, image by image.
        let report = rt.add_backend("node-b", gk_b.local_addr()).unwrap();
        assert_eq!(report.listed, 8);
        assert!(report.unlisted.is_empty(), "{:?}", report.unlisted);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert!(!report.moved.is_empty(), "some keys must move to the new node");
        assert!(gk_b.stats().resident_profiles > 0, "moved images must land on node-b");

        // Every tenant's stream continues bitwise wherever it now lives.
        for (name, twin) in &mut twins {
            let (want, _) = twin.ingest(&[9.0, -0.5]);
            let (status, resp, _) =
                call(addr, "POST", &format!("/v1/ingest/app/{name}"), b"{\"record\":[9,-0.5]}");
            assert_eq!(status, 200, "{name}: {}", String::from_utf8_lossy(&resp));
            let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
            let got = wire::json_num(v.get("score").unwrap()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{name} diverged after rebalance");
        }
        assert_eq!(rt.stats().migrated as usize, report.moved.len());

        // Drain node-b back out; everything must return to node-a.
        let report = rt.remove_backend("node-b").unwrap();
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        for (name, twin) in &mut twins {
            let (want, _) = twin.ingest(&[2.0, 2.0]);
            let (status, resp, _) =
                call(addr, "POST", &format!("/v1/ingest/app/{name}"), b"{\"record\":[2,2]}");
            assert_eq!(status, 200, "{name}");
            let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
            let got = wire::json_num(v.get("score").unwrap()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{name} diverged after drain");
        }

        assert!(rt.remove_backend("node-a").is_err(), "last backend must not be removable");
        assert!(rt.remove_backend("ghost").is_err());
        assert!(rt.add_backend("node-a", gk_b.local_addr()).is_err(), "duplicate label");
        rt.shutdown();
        gk_a.shutdown();
        gk_b.shutdown();
    }

    #[test]
    fn removing_a_dead_node_is_a_typed_listing_error() {
        let gk_a = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let gk_b = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let rt = Router::bind(
            "127.0.0.1:0",
            &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
            RouterConfig::default(),
        )
        .unwrap();
        let addr = rt.local_addr();
        for i in 0..6 {
            let path = format!("/v1/profile/app/e{i}");
            assert_eq!(call(addr, "PUT", &path, &profile().to_bytes()).0, 200);
        }
        let on_a = gk_a.stats().resident_profiles;
        gk_b.shutdown();

        let t0 = Instant::now();
        let report = rt.remove_backend("node-b").unwrap();
        assert!(t0.elapsed() < MIGRATE_TIMEOUT, "listing a dead node took {:?}", t0.elapsed());
        assert_eq!(report.unlisted.len(), 1, "{report:?}");
        assert_eq!(report.unlisted[0].0, "node-b");
        assert!(report.unlisted[0].1.contains("listing keys on node-b failed"), "{report:?}");
        assert_eq!(report.listed, on_a);
        assert!(report.moved.is_empty() && report.failed.is_empty(), "{report:?}");
        // The ring change stands: node-a now owns every key.
        assert_eq!(rt.backends(), vec![("node-a".to_string(), gk_a.local_addr())]);
        rt.shutdown();
        gk_a.shutdown();
    }

    #[test]
    fn keep_alive_proxying_reuses_one_client_connection() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let rt = Router::bind("127.0.0.1:0", &[("solo", gk.local_addr())], RouterConfig::default())
            .unwrap();
        let addr = rt.local_addr();
        let mut twin = profile();
        call(addr, "PUT", "/v1/profile/a/e", &twin.to_bytes());

        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..20 {
            let body = format!("{{\"record\":[{i},0]}}");
            let (status, resp) = call_on(&mut stream, "POST", "/v1/ingest/a/e", body.as_bytes());
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
            let (want, _) = twin.ingest(&[i as f64, 0.0]);
            let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
            let got_score = wire::json_num(v.get("score").unwrap()).unwrap();
            assert_eq!(got_score.to_bits(), want.to_bits(), "request {i}");
        }
        drop(stream);
        assert_eq!(wait_for(|| rt.stats().proxied, 21), 21, "20 ingests + 1 put");
        rt.shutdown();
        gk.shutdown();
    }

    #[test]
    fn stale_pooled_connections_retry_once_transparently() {
        // An aggressive backend idle timeout kills pooled upstreams
        // between requests; the router must absorb that invisibly.
        let config = GatekeeperConfig {
            read_timeout: Duration::from_millis(100),
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let rt = Router::bind("127.0.0.1:0", &[("solo", gk.local_addr())], RouterConfig::default())
            .unwrap();
        let addr = rt.local_addr();
        let mut twin = profile();
        call(addr, "PUT", "/v1/profile/a/e", &twin.to_bytes());
        // Keep-alive client: the forwarded head is keep-alive too, so
        // the upstream connection gets pooled between requests.
        let mut stream = TcpStream::connect(addr).unwrap();
        for i in 0..3 {
            let (want, _) = twin.ingest(&[i as f64, 1.0]);
            let body = format!("{{\"record\":[{i},1]}}");
            let (status, resp) = call_on(&mut stream, "POST", "/v1/ingest/a/e", body.as_bytes());
            assert_eq!(status, 200, "stale pool must be retried, not surfaced");
            let v = serde_json::parse_value(std::str::from_utf8(&resp).unwrap()).unwrap();
            let got = wire::json_num(v.get("score").unwrap()).unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
            // Let the backend's idle timeout close the pooled upstream
            // before the next request pops it.
            std::thread::sleep(Duration::from_millis(250));
        }
        assert!(rt.stats().retries >= 1, "at least one stale retry expected");
        rt.shutdown();
        gk.shutdown();
    }

    #[test]
    fn upstream_reply_wakes_the_router() {
        // A fake backend that answers every request 5 ms late. The reply
        // must wake the router worker through its upstream registration;
        // a worker that only noticed it at its wait timeout would add
        // ~50 ms to every exchange.
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let backend_addr = backend.local_addr().unwrap();
        // One keep-alive client makes the router reuse one pooled upstream
        // connection, served until the router closes it.
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = backend.accept().unwrap();
            let reply = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                          content-length: 11\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}";
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                // Requests carry no body: one head per exchange.
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                buf.clear();
                std::thread::sleep(Duration::from_millis(5));
                conn.write_all(reply).unwrap();
            }
        });
        let rt = Router::bind("127.0.0.1:0", &[("slow", backend_addr)], RouterConfig::default())
            .unwrap();
        let mut stream = TcpStream::connect(rt.local_addr()).unwrap();
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let (status, body) = call_on(&mut stream, "GET", "/v1/checkpoint/a/e", b"");
                assert_eq!((status, body.as_slice()), (200, &b"{\"ok\":true}"[..]));
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(took[10] < Duration::from_millis(25), "median proxied latency {:?}", took[10]);
        drop(stream);
        rt.shutdown();
        fake.join().unwrap();
    }

    #[test]
    fn bind_rejects_bad_backend_sets() {
        let a: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(Router::bind("127.0.0.1:0", &[], RouterConfig::default()).is_err());
        assert!(Router::bind("127.0.0.1:0", &[("", a)], RouterConfig::default()).is_err());
        assert!(
            Router::bind("127.0.0.1:0", &[("x", a), ("x", a)], RouterConfig::default()).is_err()
        );
    }
}
