//! The gatekeeper: a multi-tenant HTTP serving layer for streaming
//! detectors.
//!
//! Exathlon's monitoring setting (§2) has many repeated Spark executions
//! streaming records concurrently. The gatekeeper hosts one
//! [`ServingProfile`] per `(app, entity)` tenant behind a hand-rolled
//! HTTP/1.1 endpoint on [`std::net::TcpListener`] — no framework, no new
//! dependencies — with a fixed worker pool and a sharded, LRU-evicted
//! [`ProfileRegistry`] ([`crate::registry`]).
//!
//! Routes (all under `/v1`):
//!
//! | method | path | body | response |
//! |---|---|---|---|
//! | `PUT` | `/v1/profile/{app}/{entity}` | binary checkpoint image | `{"stored":true,"bytes":n,"evicted":[...]}` |
//! | `GET` | `/v1/checkpoint/{app}/{entity}` | — | binary checkpoint image |
//! | `POST` | `/v1/ingest/{app}/{entity}` | `{"record":[...]}` | `{"score":s,"anomaly":b}` |
//! | `POST` | `/v1/score/{app}/{entity}` | `{"records":[[...],...]}` | `{"scores":[...],"anomalies":[...]}` |
//! | `DELETE` | `/v1/profile/{app}/{entity}` | — | `{"removed":b}` |
//! | `GET` | `/v1/keys` | — | `{"keys":[[app,entity],...]}`, resident and spilled |
//! | `GET` | `/v1/stats` | — | registry + gatekeeper counters |
//! | `GET` | `/v1/healthz` | — | `{"ok":true}` |
//!
//! Profiles travel as [`crate::checkpoint`] images, so `PUT` → ingest →
//! `GET` round-trips are bitwise lossless: a downloaded checkpoint
//! continues the tenant's stream exactly where the server left it
//! (pinned by `tests/gatekeeper_smoke.rs`). JSON floats follow the
//! repo-wide convention: non-finite values serialize as `null`, and
//! `null` record entries parse back as NaN gaps.
//!
//! ## The serving fast path
//!
//! The request cycle is allocation-free once a connection is warmed.
//! Each worker owns its connections outright (per-worker striping: the
//! acceptor round-robins accepted sockets over bounded per-worker
//! queues) and multiplexes them in a nonblocking event loop, so one
//! slow connection cannot head-of-line-block another behind a busy
//! worker. The loop is the reactor shared with the router tier
//! (`core::net`): a worker sweeps its connections until nothing moves,
//! then blocks in an `epoll` readiness wait at once (the gatekeeper's
//! idle policy; a staged reply leaves nothing in flight to spin for),
//! woken by socket readiness or by the acceptor handing it a
//! connection. Per connection, requests are parsed in place from a reused
//! input buffer ([`crate::wire::parse_head`] returns byte ranges, not
//! `String`s), ingest bodies are number-parsed directly into reused row
//! buffers ([`crate::wire::parse_record_body`], falling back to the
//! general tree parser on any structural deviation so responses —
//! including error wording — stay byte-identical), and responses are
//! serialized into a reused output buffer through the shared
//! shortest-roundtrip float writer. All JSON formatting happens outside
//! the shard mutexes: locks scope registry access and spill-file IO
//! only. When every worker queue is full the acceptor sheds load with
//! `503` + `Retry-After` instead of queueing unboundedly.
//!
//! Evicted profiles can spill to disk ([`GatekeeperConfig::spill_dir`]):
//! the LRU victims are written as EXCK images and transparently
//! restored — bitwise — on the next touch of their key, so a byte
//! budget bounds memory without destroying tenant state.
//!
//! Tenant state lives in `shards` mutex-protected registries indexed by
//! FNV-1a of the key, so unrelated tenants do not contend. The hot path
//! (`ingest`) takes one shard lock, one hash lookup, one detector tick.

use crate::checkpoint::ServingProfile;
use crate::net::{fill_in, flush_out, Conn, Handler, Poll, Poller, Server};
use crate::registry::{key_hash, EntityKey, ProfileRegistry, RegistryStats};
use crate::spill::SpillDir;
use crate::wire::{self, BodyParse, HeadParse};
use exathlon_linalg::codec::ByteWriter;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 << 10;

/// Gatekeeper tuning knobs.
#[derive(Debug, Clone)]
pub struct GatekeeperConfig {
    /// Worker threads; each owns a stripe of the connections.
    pub workers: usize,
    /// Registry shards (keys spread by FNV-1a).
    pub shards: usize,
    /// LRU byte budget per shard (encoded profile bytes).
    pub budget_bytes_per_shard: usize,
    /// Largest accepted request body; larger requests get 413.
    pub max_body_bytes: usize,
    /// Idle-connection timeout.
    pub read_timeout: Duration,
    /// Accepted-but-unserved connections queued per worker. When every
    /// worker's queue is full the acceptor answers `503` with
    /// `Retry-After` instead of queueing without bound.
    pub accept_queue: usize,
    /// Connections one worker multiplexes concurrently; beyond this it
    /// stops draining its accept queue (new connections wait there).
    pub max_conns_per_worker: usize,
    /// When set, evicted profiles spill here as EXCK images and are
    /// transparently restored on the next touch of their key.
    pub spill_dir: Option<PathBuf>,
}

impl Default for GatekeeperConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            shards: 8,
            budget_bytes_per_shard: 64 << 20,
            max_body_bytes: 16 << 20,
            read_timeout: Duration::from_secs(2),
            accept_queue: 64,
            max_conns_per_worker: 256,
            spill_dir: None,
        }
    }
}

/// Gatekeeper-level counters (the registry keeps its own; see
/// [`RegistryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Evicted profiles written to the spill directory.
    pub spills: u64,
    /// Spilled profiles transparently restored on touch.
    pub restores: u64,
    /// Connections shed with 503 because every worker queue was full.
    pub rejected: u64,
    /// Single-record ingest requests metered by the allocation probe.
    pub ingest_requests: u64,
    /// Heap allocations those requests performed (worker-thread side).
    pub ingest_allocs: u64,
}

/// Per-process allocation probe, read by workers at spawn time.
///
/// A benchmark or test that installs a counting global allocator calls
/// [`set_alloc_probe`] with a function returning the calling thread's
/// cumulative allocation count **before** [`Gatekeeper::bind`]; each
/// worker then meters the probe delta across every single-record ingest
/// request and accumulates it into [`GateStats::ingest_allocs`]. The
/// warmed fast path holds that delta at zero (`tests/serving_gates.rs`).
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Install the worker allocation probe. Call before [`Gatekeeper::bind`];
/// later calls are ignored (the probe is read once per worker at spawn).
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// The installed probe, read once per worker at spawn — by gatekeeper
/// workers (ingest metering) and router workers ([`crate::route`], proxy
/// metering) alike.
pub(crate) fn alloc_probe() -> Option<fn() -> u64> {
    ALLOC_PROBE.get().copied()
}

#[derive(Default)]
struct GateCounters {
    spills: AtomicU64,
    restores: AtomicU64,
    rejected: AtomicU64,
    ingest_requests: AtomicU64,
    ingest_allocs: AtomicU64,
}

/// State shared by every worker.
struct Shared {
    shards: Vec<Mutex<ProfileRegistry>>,
    max_body_bytes: usize,
    spill: Option<SpillDir>,
    gate: GateCounters,
}

impl Shared {
    /// The shard owning a key, from its precomputed [`key_hash`] — the
    /// one hash the request cycle computes (it also feeds the registry
    /// lookup, and the router tier's ring uses the same function, so a
    /// key is hashed once per request at every tier).
    fn shard_at(&self, hash: u64) -> &Mutex<ProfileRegistry> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Counters summed across shards.
    fn stats(&self) -> RegistryStats {
        let mut total = RegistryStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.resident_bytes += s.resident_bytes;
            total.resident_profiles += s.resident_profiles;
        }
        total
    }

    fn gate_stats(&self) -> GateStats {
        GateStats {
            spills: self.gate.spills.load(Ordering::Relaxed),
            restores: self.gate.restores.load(Ordering::Relaxed),
            rejected: self.gate.rejected.load(Ordering::Relaxed),
            ingest_requests: self.gate.ingest_requests.load(Ordering::Relaxed),
            ingest_allocs: self.gate.ingest_allocs.load(Ordering::Relaxed),
        }
    }

    /// Write eviction victims to the spill tier. The caller must hold
    /// the owning shard's lock: the lock is what serializes all image IO
    /// for a key (see [`crate::spill`]), so a concurrent PUT/DELETE can
    /// never interleave with an in-flight spill and resurrect or lose
    /// state.
    fn spill_victims(&self, victims: &[(EntityKey, ServingProfile)], scratch: &mut ByteWriter) {
        let Some(spill) = &self.spill else { return };
        for (key, profile) in victims {
            if spill.spill(&key.app, &key.entity, profile, scratch).is_ok() {
                self.gate.spills.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bring a spilled profile back into `reg` (the caller holds its
    /// lock). Returns whether a restore happened. An image that cannot be
    /// read or decoded is an error, not a miss: the tenant still exists,
    /// and its image stays on disk.
    fn try_restore(
        &self,
        reg: &mut ProfileRegistry,
        hash: u64,
        app: &str,
        entity: &str,
        scratch: &mut ByteWriter,
    ) -> std::io::Result<bool> {
        let Some(spill) = &self.spill else { return Ok(false) };
        let Some((profile, bytes)) = spill.restore(app, entity)? else { return Ok(false) };
        let victims = reg.insert_hashed(hash, EntityKey::new(app, entity), profile, bytes);
        self.spill_victims(&victims, scratch);
        let _ = spill.remove(app, entity);
        self.gate.restores.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

/// A running gatekeeper. Dropping it (or calling
/// [`Gatekeeper::shutdown`]) stops the acceptor and joins every worker.
pub struct Gatekeeper {
    shared: Arc<Shared>,
    server: Server,
}

impl Gatekeeper {
    /// Bind and start serving. Pass port 0 for an ephemeral port and read
    /// it back with [`Gatekeeper::local_addr`].
    pub fn bind(addr: impl ToSocketAddrs, config: GatekeeperConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shards = config.shards.max(1);
        let spill = match &config.spill_dir {
            Some(dir) => Some(SpillDir::create(dir)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            shards: (0..shards)
                .map(|_| Mutex::new(ProfileRegistry::new(config.budget_bytes_per_shard)))
                .collect(),
            max_body_bytes: config.max_body_bytes,
            spill,
            gate: GateCounters::default(),
        });
        let probe = alloc_probe();
        let handlers = (0..config.workers.max(1))
            .map(|_| GateWorker {
                shared: Arc::clone(&shared),
                scratch: Scratch::new(),
                read_timeout: config.read_timeout,
                probe,
            })
            .collect();
        let on_shed = {
            let shared = Arc::clone(&shared);
            move || {
                shared.gate.rejected.fetch_add(1, Ordering::Relaxed);
            }
        };
        let server = Server::spawn(
            listener,
            "gk",
            handlers,
            config.accept_queue,
            config.max_conns_per_worker,
            on_shed,
        )?;
        Ok(Self { shared, server })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Registry counters summed across shards.
    pub fn stats(&self) -> RegistryStats {
        self.shared.stats()
    }

    /// Gatekeeper-level counters (spills, restores, shed connections,
    /// allocation metering).
    pub fn gate_stats(&self) -> GateStats {
        self.shared.gate_stats()
    }

    /// Stop accepting, close striped connections, join every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

// ------------------------------------------------------------ worker loop

/// Per-worker reusable workspaces; nothing here is allocated per request
/// once warmed.
struct Scratch {
    /// Parsed record values, all rows flattened.
    rows: Vec<f64>,
    /// Exclusive end offset of each row in `rows`.
    row_ends: Vec<usize>,
    /// One `(score, anomaly)` per scored record.
    scores: Vec<(f64, bool)>,
    /// Response body staging.
    body: String,
    /// Spill-image encode buffer.
    writer: ByteWriter,
    /// Socket read staging.
    tmp: Vec<u8>,
}

impl Scratch {
    fn new() -> Self {
        Self {
            rows: Vec::new(),
            row_ends: Vec::new(),
            scores: Vec::new(),
            body: String::new(),
            writer: ByteWriter::new(),
            tmp: vec![0u8; 64 << 10],
        }
    }
}

/// One gatekeeper worker: request bytes in, staged response bytes out.
struct GateWorker {
    shared: Arc<Shared>,
    scratch: Scratch,
    read_timeout: Duration,
    probe: Option<fn() -> u64>,
}

impl Handler for GateWorker {
    type Exchange = ();

    // A staged response leaves nothing in flight: block as soon as a sweep
    // makes no progress.
    const IDLE_YIELDS: u32 = 0;

    fn poll_conn(&mut self, conn: &mut Conn<()>, _poller: &Poller, now: Instant) -> Poll {
        let (shared, scratch) = (&*self.shared, &mut self.scratch);
        let mut progressed = false;
        match flush_out(conn, now) {
            Poll::Closed => return Poll::Closed,
            Poll::Progress(p) => progressed |= p,
        }
        if conn.close_after_flush {
            if conn.out_pos == conn.outbuf.len() {
                return Poll::Closed;
            }
            // Still draining; the idle timeout below bounds a stuck peer.
        } else {
            let cap = shared.max_body_bytes + MAX_HEAD_BYTES + (64 << 10);
            match fill_in(conn, &mut scratch.tmp, cap, now) {
                Poll::Closed => return Poll::Closed,
                Poll::Progress(p) => progressed |= p,
            }

            // Handle every complete request buffered so far.
            let mut consumed = 0usize;
            loop {
                let buf = &conn.inbuf[consumed..];
                if buf.is_empty() {
                    break;
                }
                match wire::parse_head(buf, MAX_HEAD_BYTES) {
                    HeadParse::Partial => break,
                    HeadParse::Hangup => return Poll::Closed,
                    HeadParse::Bad(status, msg) => {
                        let (out, body) = (&mut conn.outbuf, &mut scratch.body);
                        wire::write_error_response(out, body, status, msg, false);
                        conn.close_after_flush = true;
                        consumed = conn.inbuf.len();
                        progressed = true;
                        break;
                    }
                    HeadParse::Complete(head) => {
                        if head.content_length > shared.max_body_bytes {
                            let (out, body) = (&mut conn.outbuf, &mut scratch.body);
                            wire::write_error_response(out, body, 413, "body too large", false);
                            conn.close_after_flush = true;
                            consumed = conn.inbuf.len();
                            progressed = true;
                            break;
                        }
                        let total = head.head_len + head.content_length;
                        if buf.len() < total {
                            break; // body not fully buffered yet
                        }
                        // Head lines were UTF-8-validated by the parser.
                        let method = std::str::from_utf8(&buf[head.method.0..head.method.1])
                            .unwrap_or_default();
                        let path =
                            std::str::from_utf8(&buf[head.path.0..head.path.1]).unwrap_or_default();
                        let body = &buf[head.head_len..total];
                        handle(
                            shared,
                            scratch,
                            method,
                            path,
                            body,
                            head.keep_alive,
                            &mut conn.outbuf,
                            self.probe,
                        );
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
            match flush_out(conn, now) {
                Poll::Closed => return Poll::Closed,
                Poll::Progress(p) => progressed |= p,
            }
            if conn.close_after_flush && conn.out_pos == conn.outbuf.len() {
                return Poll::Closed;
            }
        }
        if now.duration_since(conn.last_active) > self.read_timeout {
            return Poll::Closed;
        }
        Poll::Progress(progressed)
    }
}

// --------------------------------------------------------------- routing

/// What a handler produced: a JSON body staged in `scratch.body`, or an
/// owned binary payload (checkpoint images).
enum Reply {
    Json(u16),
    Octets(Vec<u8>),
}

fn stage_error(scratch: &mut Scratch, status: u16, message: &str) -> Reply {
    scratch.body.clear();
    wire::write_error_body(&mut scratch.body, message);
    Reply::Json(status)
}

/// A spill image that exists but cannot be read back: a server error,
/// not `404 unknown profile`, for a tenant that still exists.
fn spill_error(scratch: &mut Scratch, e: &std::io::Error) -> Reply {
    stage_error(scratch, 500, &format!("spill image unreadable: {e}"))
}

#[allow(clippy::too_many_arguments)]
fn handle(
    shared: &Shared,
    scratch: &mut Scratch,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
    out: &mut Vec<u8>,
    probe: Option<fn() -> u64>,
) {
    let clean = path.split('?').next().unwrap_or("");
    // The single-record ingest route is the allocation-metered hot path.
    let metered = probe.is_some() && method == "POST" && clean.starts_with("/v1/ingest/");
    let allocs_before = if metered { (probe.expect("metered"))() } else { 0 };

    let mut segs = [""; 4];
    let mut n = 0usize;
    let mut overflow = false;
    for s in clean.split('/').filter(|s| !s.is_empty()) {
        if n < segs.len() {
            segs[n] = s;
            n += 1;
        } else {
            overflow = true;
            break;
        }
    }
    let reply = if overflow {
        stage_error(scratch, 404, "no such route")
    } else {
        match (method, &segs[..n]) {
            ("GET", ["v1", "healthz"]) => {
                scratch.body.clear();
                scratch.body.push_str("{\"ok\":true}");
                Reply::Json(200)
            }
            ("GET", ["v1", "stats"]) => stats_reply(shared, scratch),
            ("GET", ["v1", "keys"]) => list_keys(shared, scratch),
            // Keyed routes hash the key exactly once; the hash picks the
            // shard and feeds the registry's bucket lookup.
            ("PUT", ["v1", "profile", app, entity]) => {
                put_profile(shared, scratch, key_hash(app, entity), app, entity, body)
            }
            ("DELETE", ["v1", "profile", app, entity]) => {
                delete_profile(shared, scratch, key_hash(app, entity), app, entity)
            }
            ("GET", ["v1", "checkpoint", app, entity]) => {
                get_checkpoint(shared, scratch, key_hash(app, entity), app, entity)
            }
            ("POST", ["v1", "ingest", app, entity]) => {
                ingest(shared, scratch, key_hash(app, entity), app, entity, body, false)
            }
            ("POST", ["v1", "score", app, entity]) => {
                ingest(shared, scratch, key_hash(app, entity), app, entity, body, true)
            }
            _ => stage_error(scratch, 404, "no such route"),
        }
    };
    match reply {
        Reply::Json(status) => {
            wire::write_head(out, status, "application/json", scratch.body.len(), keep_alive);
            out.extend_from_slice(scratch.body.as_bytes());
        }
        Reply::Octets(bytes) => {
            wire::write_head(out, 200, "application/octet-stream", bytes.len(), keep_alive);
            out.extend_from_slice(&bytes);
        }
    }
    if metered {
        let delta = (probe.expect("metered"))() - allocs_before;
        shared.gate.ingest_requests.fetch_add(1, Ordering::Relaxed);
        shared.gate.ingest_allocs.fetch_add(delta, Ordering::Relaxed);
    }
}

fn stats_reply(shared: &Shared, scratch: &mut Scratch) -> Reply {
    // Counters are collected under the shard locks; all JSON formatting
    // happens after every lock is released.
    let s = shared.stats();
    let g = shared.gate_stats();
    scratch.body.clear();
    let _ = write!(
        scratch.body,
        "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\
         \"resident_bytes\":{},\"resident_profiles\":{},\"spills\":{},\"restores\":{},\
         \"rejected\":{},\"ingest_requests\":{},\"ingest_allocs\":{}}}",
        s.hits,
        s.misses,
        s.insertions,
        s.evictions,
        s.resident_bytes,
        s.resident_profiles,
        g.spills,
        g.restores,
        g.rejected,
        g.ingest_requests,
        g.ingest_allocs,
    );
    Reply::Json(200)
}

/// Every key this node holds, resident or spilled, once each. Registries
/// are read before the spill dir, so a key evicted in between is still
/// found; rebalance lists a node only once the new ring routes the keys
/// it moves elsewhere, so none of those is restored in between.
fn list_keys(shared: &Shared, scratch: &mut Scratch) -> Reply {
    let mut keys: Vec<EntityKey> =
        shared.shards.iter().flat_map(|shard| shard.lock().keys_mru()).collect();
    if let Some(spill) = &shared.spill {
        match spill.keys() {
            Ok(spilled) => keys.extend(spilled),
            Err(e) => return stage_error(scratch, 500, &format!("spill dir unreadable: {e}")),
        }
    }
    keys.sort_unstable();
    keys.dedup();
    scratch.body.clear();
    scratch.body.push_str("{\"keys\":[");
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            scratch.body.push(',');
        }
        scratch.body.push('[');
        serde::write_json_string(&mut scratch.body, &key.app);
        scratch.body.push(',');
        serde::write_json_string(&mut scratch.body, &key.entity);
        scratch.body.push(']');
    }
    scratch.body.push_str("]}");
    Reply::Json(200)
}

fn put_profile(
    shared: &Shared,
    scratch: &mut Scratch,
    hash: u64,
    app: &str,
    entity: &str,
    body: &[u8],
) -> Reply {
    let profile = match ServingProfile::from_bytes(body) {
        Ok(p) => p,
        Err(e) => {
            let msg = format!("bad checkpoint image: {e}");
            return stage_error(scratch, 400, &msg);
        }
    };
    let evicted = {
        let mut reg = shared.shard_at(hash).lock();
        let victims = reg.insert_hashed(hash, EntityKey::new(app, entity), profile, body.len());
        shared.spill_victims(&victims, &mut scratch.writer);
        // This PUT supersedes any image spilled from an earlier
        // eviction; drop it so a later miss cannot resurrect old state.
        if let Some(spill) = &shared.spill {
            let _ = spill.remove(app, entity);
        }
        victims
    };
    // Eviction list formatting happens outside the shard lock.
    scratch.body.clear();
    let _ = write!(scratch.body, "{{\"stored\":true,\"bytes\":{},\"evicted\":[", body.len());
    for (i, (victim, _)) in evicted.iter().enumerate() {
        if i > 0 {
            scratch.body.push(',');
        }
        serde::write_json_string(&mut scratch.body, &victim.to_string());
    }
    scratch.body.push_str("]}");
    Reply::Json(200)
}

fn delete_profile(
    shared: &Shared,
    scratch: &mut Scratch,
    hash: u64,
    app: &str,
    entity: &str,
) -> Reply {
    let removed = {
        let mut reg = shared.shard_at(hash).lock();
        let resident = reg.remove_hashed(hash, app, entity).is_some();
        let imaged = match &shared.spill {
            Some(spill) => spill.remove(app, entity).unwrap_or(false),
            None => false,
        };
        resident || imaged
    };
    scratch.body.clear();
    let _ = write!(scratch.body, "{{\"removed\":{removed}}}");
    Reply::Json(200)
}

fn get_checkpoint(
    shared: &Shared,
    scratch: &mut Scratch,
    hash: u64,
    app: &str,
    entity: &str,
) -> Reply {
    // A spilled tenant's image is its checkpoint: serve it from the file
    // and leave the tenant spilled. Restoring it for a read would evict
    // and spill a resident tenant (and rebalance deletes a moved tenant
    // right after reading it).
    let image = {
        let mut reg = shared.shard_at(hash).lock();
        match (reg.peek_hashed(hash, app, entity), &shared.spill) {
            (Some(p), _) => Ok(Some(p.to_bytes())),
            (None, Some(spill)) => spill.image(app, entity),
            (None, None) => Ok(None),
        }
    };
    match image {
        Ok(Some(bytes)) => Reply::Octets(bytes),
        Ok(None) => stage_error(scratch, 404, "unknown profile"),
        Err(e) => spill_error(scratch, &e),
    }
}

fn ingest(
    shared: &Shared,
    scratch: &mut Scratch,
    hash: u64,
    app: &str,
    entity: &str,
    body: &[u8],
    batch: bool,
) -> Reply {
    if wire::parse_record_body(body, batch, &mut scratch.rows, &mut scratch.row_ends)
        == BodyParse::Fallback
    {
        if let Err((status, msg)) =
            wire::parse_record_body_slow(body, batch, &mut scratch.rows, &mut scratch.row_ends)
        {
            return stage_error(scratch, status, &msg);
        }
    }

    // Every row's width is checked here, outside the shard lock; under it
    // one comparison against the profile's input width rejects a bad
    // batch before any record touches tenant state.
    let width = uniform_width(&scratch.row_ends);
    scratch.scores.clear();
    let verdict: Result<(), (u16, &'static str)> = {
        let mut reg = shared.shard_at(hash).lock();
        if reg.get_mut_hashed(hash, app, entity).is_none() {
            if let Err(e) = shared.try_restore(&mut reg, hash, app, entity, &mut scratch.writer) {
                drop(reg);
                return spill_error(scratch, &e);
            }
        }
        match reg.get_mut_hashed(hash, app, entity) {
            None => Err((404, "unknown profile")),
            Some(profile)
                if !scratch.row_ends.is_empty()
                    && profile.input_dim().is_some_and(|d| width != Some(d)) =>
            {
                Err((400, "record rejected by detector"))
            }
            Some(profile) => {
                let mut start = 0usize;
                for &end in &scratch.row_ends {
                    scratch.scores.push(profile.ingest(&scratch.rows[start..end]));
                    start = end;
                }
                Ok(())
            }
        }
    };
    match verdict {
        Err((status, msg)) => stage_error(scratch, status, msg),
        Ok(()) => {
            // Response formatting happens after the shard lock dropped.
            scratch.body.clear();
            if batch {
                wire::write_batch_scores(&mut scratch.body, &scratch.scores);
            } else {
                let (s, a) = scratch.scores[0];
                wire::write_single_score(&mut scratch.body, s, a);
            }
            Reply::Json(200)
        }
    }
}

/// The width every parsed row shares, or `None` for an empty or ragged
/// batch.
fn uniform_width(row_ends: &[usize]) -> Option<usize> {
    let first = *row_ends.first()?;
    let mut start = 0;
    row_ends
        .iter()
        .all(|&end| {
            let width = end - start;
            start = end;
            width == first
        })
        .then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::json_num;
    use exathlon_ad::stream::StreamingEwma;
    use serde_json::Value;
    use std::io::BufRead as _;
    use std::io::{BufReader, Read, Write};
    use std::net::TcpStream;

    /// Minimal test client: one request per call over a fresh connection.
    fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("no header break") + 4;
        let head = std::str::from_utf8(&raw[..split]).unwrap();
        let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, raw[split..].to_vec())
    }

    fn profile() -> ServingProfile {
        ServingProfile::new(StreamingEwma::new(0.3, vec![1.0, 2.0]).into(), 0.5)
    }

    #[test]
    fn full_cycle_put_ingest_checkpoint() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();

        let (status, body) = call(addr, "GET", "/v1/healthz", b"");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));

        // Upload, then drive the server twin and a local twin in lockstep.
        let mut local = profile();
        let (status, _) = call(addr, "PUT", "/v1/profile/app1/exec1", &local.to_bytes());
        assert_eq!(status, 200);

        for i in 0..10 {
            let rec = [i as f64 * 0.7, (i as f64).sin()];
            let (want, want_flag) = local.ingest(&rec);
            let req = format!("{{\"record\":[{},{}]}}", rec[0], rec[1]);
            let (status, body) = call(addr, "POST", "/v1/ingest/app1/exec1", req.as_bytes());
            assert_eq!(status, 200);
            let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
            let got = match v.get("score").unwrap() {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                other => panic!("score was {other:?}"),
            };
            assert_eq!(got.to_bits(), want.to_bits(), "record {i}");
            assert_eq!(v.get("anomaly"), Some(&Value::Bool(want_flag)));
        }

        // The downloaded checkpoint is the advanced state, bitwise.
        let (status, image) = call(addr, "GET", "/v1/checkpoint/app1/exec1", b"");
        assert_eq!(status, 200);
        assert_eq!(image, local.to_bytes());

        let stats = gk.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.resident_profiles, 1);
        gk.shutdown();
    }

    #[test]
    fn batch_score_matches_sequential_ingest() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let mut local = profile();
        call(addr, "PUT", "/v1/profile/a/e", &local.to_bytes());
        let mut want = Vec::new();
        let mut rows = Vec::new();
        for i in 0..5 {
            let rec = [i as f64, -(i as f64)];
            want.push(local.ingest(&rec).0);
            rows.push(format!("[{},{}]", rec[0], rec[1]));
        }
        let req = format!("{{\"records\":[{}]}}", rows.join(","));
        let (status, body) = call(addr, "POST", "/v1/score/a/e", req.as_bytes());
        assert_eq!(status, 200);
        let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
        let got: Vec<f64> = v
            .get("scores")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| json_num(x).unwrap())
            .collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn errors_are_typed_not_fatal() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        // Unknown route, unknown profile, corrupt image, bad JSON, wrong
        // record width — each a clean client error, server stays up.
        assert_eq!(call(addr, "GET", "/nope", b"").0, 404);
        assert_eq!(call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[1]}").0, 404);
        assert_eq!(call(addr, "PUT", "/v1/profile/a/e", b"garbage").0, 400);
        call(addr, "PUT", "/v1/profile/a/e", &profile().to_bytes());
        assert_eq!(call(addr, "POST", "/v1/ingest/a/e", b"not json").0, 400);
        assert_eq!(call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[1]}").0, 400);
        // Still alive and consistent afterwards.
        assert_eq!(call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[1,2]}").0, 200);
        assert_eq!(call(addr, "DELETE", "/v1/profile/a/e", b"").0, 200);
        assert_eq!(call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[1,2]}").0, 404);
        gk.shutdown();
    }

    #[test]
    fn null_record_entries_are_nan_gaps() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let mut local = profile();
        call(addr, "PUT", "/v1/profile/a/e", &local.to_bytes());
        let (want, _) = local.ingest(&[f64::NAN, 1.0]);
        let (status, body) = call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[null,1]}");
        assert_eq!(status, 200);
        let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
        let got = json_num(v.get("score").unwrap()).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        call(addr, "PUT", "/v1/profile/a/e", &profile().to_bytes());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..20 {
            let body = format!("{{\"record\":[{i},0]}}");
            let head = format!(
                "POST /v1/ingest/a/e HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(body.as_bytes()).unwrap();
            // Read one response: headers, then content-length bytes.
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            assert!(status_line.contains("200"), "request {i}: {status_line}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                let h = h.trim_end();
                if h.is_empty() {
                    break;
                }
                if let Some((k, v)) = h.split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        len = v.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
        }
        gk.shutdown();
    }

    #[test]
    fn saturated_accept_queues_answer_503_with_retry_after() {
        let config = GatekeeperConfig {
            workers: 1,
            accept_queue: 1,
            max_conns_per_worker: 1,
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let addr = gk.local_addr();

        // c1: admitted by the only worker (a served round-trip proves it
        // occupies the worker's single connection slot).
        let mut c1 = TcpStream::connect(addr).unwrap();
        c1.write_all(b"GET /v1/healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n").unwrap();
        let mut reader = BufReader::new(c1.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("200"), "{line}");

        // c2: parks in the worker's accept queue (capacity 1).
        let c2 = TcpStream::connect(addr).unwrap();
        // Give the acceptor a moment to enqueue c2 before c3 arrives.
        std::thread::sleep(Duration::from_millis(50));

        // c3: every queue is full — the acceptor must shed it.
        let mut c3 = TcpStream::connect(addr).unwrap();
        let mut raw = Vec::new();
        c3.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable"), "{text}");
        assert!(text.contains("retry-after: 1"), "{text}");
        assert!(text.contains("server overloaded"), "{text}");
        assert_eq!(gk.gate_stats().rejected, 1);

        // Freeing c1 lets the worker drain the queue and serve c2.
        drop(reader);
        drop(c1);
        let mut c2 = c2;
        c2.write_all(b"GET /v1/healthz HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        c2.read_to_end(&mut raw).unwrap();
        assert!(
            String::from_utf8_lossy(&raw).contains("200 OK"),
            "c2 must be served after c1 frees its slot"
        );
        gk.shutdown();
    }

    #[test]
    fn evicted_profiles_spill_to_disk_and_restore_bitwise() {
        let dir = std::env::temp_dir().join(format!("exathlon-gk-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatekeeperConfig {
            shards: 1,
            budget_bytes_per_shard: 1, // every insert evicts the previous LRU
            spill_dir: Some(dir.clone()),
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let addr = gk.local_addr();

        let mut twin_a = profile();
        let mut twin_b = profile();
        call(addr, "PUT", "/v1/profile/app/a", &twin_a.to_bytes());
        // Advance a while resident.
        for i in 0..5 {
            let (want, _) = twin_a.ingest(&[i as f64, 0.25]);
            let req = format!("{{\"record\":[{},0.25]}}", i);
            let (status, body) = call(addr, "POST", "/v1/ingest/app/a", req.as_bytes());
            assert_eq!(status, 200);
            let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
            assert_eq!(json_num(v.get("score").unwrap()).unwrap().to_bits(), want.to_bits());
        }

        // Inserting b evicts a (budget holds one profile); a's advanced
        // state must land on disk, not vanish.
        call(addr, "PUT", "/v1/profile/app/b", &twin_b.to_bytes());
        assert!(gk.gate_stats().spills >= 1, "eviction must spill");

        // Touching a restores it transparently and the score stream
        // continues bitwise from the pre-eviction state.
        let (want, _) = twin_a.ingest(&[9.0, -1.0]);
        let (status, body) = call(addr, "POST", "/v1/ingest/app/a", b"{\"record\":[9,-1]}");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(json_num(v.get("score").unwrap()).unwrap().to_bits(), want.to_bits());
        assert_eq!(gk.gate_stats().restores, 1);

        // b was evicted by a's restore; its checkpoint must also come
        // back through the spill tier, bitwise.
        let _ = twin_b.ingest(&[1.0, 1.0]);
        let (status, body) = call(addr, "POST", "/v1/ingest/app/b", b"{\"record\":[1,1]}");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let (status, image) = call(addr, "GET", "/v1/checkpoint/app/b", b"");
        assert_eq!(status, 200);
        assert_eq!(image, twin_b.to_bytes(), "restore must be bitwise lossless");

        // DELETE removes both the resident profile and any spill image.
        assert_eq!(call(addr, "DELETE", "/v1/profile/app/a", b"").0, 200);
        assert_eq!(call(addr, "POST", "/v1/ingest/app/a", b"{\"record\":[1,1]}").0, 404);
        gk.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `GET /v1/keys` as `(app, entity)` pairs, in response order.
    fn listed(addr: SocketAddr) -> Vec<(String, String)> {
        let (status, body) = call(addr, "GET", "/v1/keys", b"");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
        let pair = |k: &Value| {
            let k = k.as_array().unwrap();
            (k[0].as_str().unwrap().to_string(), k[1].as_str().unwrap().to_string())
        };
        v.get("keys").unwrap().as_array().unwrap().iter().map(pair).collect()
    }

    #[test]
    fn keys_lists_resident_and_spilled_keys_once() {
        let dir = std::env::temp_dir().join(format!("exathlon-gk-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatekeeperConfig {
            shards: 1,
            budget_bytes_per_shard: 1, // only the last PUT stays resident
            spill_dir: Some(dir.clone()),
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let addr = gk.local_addr();
        // Hostile names round-trip through the path, the registry, the
        // spill file names and the JSON list.
        let keys = [("q\"uote", "back\\slash"), ("pct%41", "\u{e9}-\u{fc}"), ("app", "plain")];
        for (app, entity) in keys {
            let path = format!("/v1/profile/{app}/{entity}");
            assert_eq!(call(addr, "PUT", &path, &profile().to_bytes()).0, 200);
        }
        assert_eq!(gk.stats().resident_profiles, 1);
        assert_eq!(gk.gate_stats().spills, 2);
        // A stale image of the resident key, an image still being written
        // and a file that is not an image name.
        let spill = SpillDir::create(&dir).unwrap();
        spill.spill("app", "plain", &profile(), &mut ByteWriter::new()).unwrap();
        std::fs::write(spill.file_path("app", "torn").with_extension("tmp"), b"half").unwrap();
        std::fs::write(dir.join("zz-not-hex.exck"), b"").unwrap();
        let mut want: Vec<(String, String)> =
            keys.iter().map(|(a, e)| (a.to_string(), e.to_string())).collect();
        want.sort();
        assert_eq!(listed(addr), want);
        // DELETE drops a key, spilled or resident.
        for (app, entity) in [keys[0], keys[2]] {
            assert_eq!(call(addr, "DELETE", &format!("/v1/profile/{app}/{entity}"), b"").0, 200);
        }
        assert_eq!(listed(addr), [(keys[1].0.to_string(), keys[1].1.to_string())]);
        gk.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_checkpoint_is_served_from_its_file_and_stays_spilled() {
        let dir = std::env::temp_dir().join(format!("exathlon-gk-spillget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatekeeperConfig {
            shards: 1,
            budget_bytes_per_shard: 1, // only the last PUT stays resident
            spill_dir: Some(dir.clone()),
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let addr = gk.local_addr();
        let mut twin = profile();
        twin.ingest(&[3.0, -1.0]);
        call(addr, "PUT", "/v1/profile/app/a", &twin.to_bytes());
        call(addr, "PUT", "/v1/profile/app/b", &profile().to_bytes());
        let before = gk.gate_stats();
        assert_eq!(before.spills, 1);
        let (status, image) = call(addr, "GET", "/v1/checkpoint/app/a", b"");
        assert_eq!(status, 200);
        assert_eq!(image, twin.to_bytes(), "the spilled image is the checkpoint, bitwise");
        let after = gk.gate_stats();
        assert_eq!((after.restores, after.spills), (before.restores, before.spills));
        assert_eq!(gk.stats().resident_profiles, 1);
        assert!(SpillDir::create(&dir).unwrap().file_path("app", "a").exists());
        gk.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_image_is_a_typed_500_and_stays_on_disk() {
        let dir = std::env::temp_dir().join(format!("exathlon-gk-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = GatekeeperConfig {
            shards: 1,
            budget_bytes_per_shard: 1,
            spill_dir: Some(dir.clone()),
            ..GatekeeperConfig::default()
        };
        let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
        let addr = gk.local_addr();
        call(addr, "PUT", "/v1/profile/app/a", &profile().to_bytes());
        call(addr, "PUT", "/v1/profile/app/b", &profile().to_bytes());
        // a is spilled; tear its image in half.
        let path = SpillDir::create(&dir).unwrap().file_path("app", "a");
        let mut torn = std::fs::read(&path).unwrap();
        torn.truncate(torn.len() / 2);
        std::fs::write(&path, &torn).unwrap();
        for (method, route, body) in [
            ("POST", "/v1/ingest/app/a", &b"{\"record\":[1,2]}"[..]),
            ("POST", "/v1/score/app/a", &b"{\"records\":[[1,2]]}"[..]),
            ("GET", "/v1/checkpoint/app/a", &b""[..]),
        ] {
            let (status, body) = call(addr, method, route, body);
            assert_eq!(status, 500, "{method} {route}: {}", String::from_utf8_lossy(&body));
            let text = String::from_utf8(body).unwrap();
            assert!(text.starts_with("{\"error\":\"spill image unreadable: "), "{text}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), torn, "a failed restore must keep the image");
        assert_eq!(gk.gate_stats().restores, 0);
        // The resident tenant is untouched, and a PUT replaces the image.
        assert_eq!(call(addr, "POST", "/v1/ingest/app/b", b"{\"record\":[1,2]}").0, 200);
        assert_eq!(call(addr, "PUT", "/v1/profile/app/a", &profile().to_bytes()).0, 200);
        assert_eq!(call(addr, "POST", "/v1/ingest/app/a", b"{\"record\":[1,2]}").0, 200);
        gk.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_joins_promptly_with_open_connections() {
        // Multi-node tests (router e2e, the serving gates) start and
        // stop several gatekeepers per process; shutdown must join
        // the acceptor and every worker promptly even while keep-alive
        // connections are parked on the workers.
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"GET /v1/healthz HTTP/1.1\r\ncontent-length: 0\r\n\r\n").unwrap();
        let mut buf = [0u8; 1024];
        assert!(held.read(&mut buf).unwrap() > 0, "connection must be live before shutdown");

        let t0 = Instant::now();
        gk.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must not hang on parked connections (took {:?})",
            t0.elapsed()
        );
        // The listener is gone: nothing accepts on the old address.
        assert!(TcpStream::connect(addr).is_err(), "listener must be closed after shutdown");
    }

    #[test]
    fn idle_tiers_shut_down_promptly() {
        // An idle worker sleeps in its readiness wait; shutdown must wake
        // it at once rather than at the wait's timeout.
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let rt = crate::route::Router::bind(
            "127.0.0.1:0",
            &[("n0", dead)],
            crate::route::RouterConfig::default(),
        )
        .unwrap();
        // Let every worker settle into its wait.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        gk.shutdown();
        let gk_took = t0.elapsed();
        let t0 = Instant::now();
        rt.shutdown();
        let rt_took = t0.elapsed();
        assert!(gk_took < Duration::from_millis(25), "idle gatekeeper took {gk_took:?}");
        assert!(rt_took < Duration::from_millis(25), "idle router took {rt_took:?}");
    }

    #[test]
    fn new_connections_wake_idle_workers() {
        // Each fresh connection lands on the next worker in the stripe,
        // usually one asleep in its readiness wait: the acceptor must wake
        // it rather than leave the socket to the wait's 50 ms timeout.
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert_eq!(call(addr, "GET", "/v1/healthz", b"").0, 200);
                t0.elapsed()
            })
            .collect();
        took.sort();
        assert!(
            took[10] < Duration::from_millis(25),
            "median fresh-connection call {:?}",
            took[10]
        );
        gk.shutdown();
    }

    #[test]
    fn wrong_width_record_rejects_the_whole_batch() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let mut twin = profile();
        call(addr, "PUT", "/v1/profile/a/e", &twin.to_bytes());
        twin.ingest(&[0.5, 1.5]);
        call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[0.5,1.5]}");

        // Record 1 of 3 has the wrong width: nothing may be applied, not
        // even record 0.
        let (status, body) =
            call(addr, "POST", "/v1/score/a/e", b"{\"records\":[[1,2],[3],[4,5]]}");
        assert_eq!(status, 400);
        assert_eq!(body, b"{\"error\":\"record rejected by detector\"}");
        let (status, body) = call(addr, "POST", "/v1/ingest/a/e", b"{\"record\":[1,2,3]}");
        assert_eq!(status, 400);
        assert_eq!(body, b"{\"error\":\"record rejected by detector\"}");
        let (status, image) = call(addr, "GET", "/v1/checkpoint/a/e", b"");
        assert_eq!(status, 200);
        assert_eq!(image, twin.to_bytes(), "a rejected batch must leave the tenant untouched");
        gk.shutdown();
    }

    #[test]
    fn stats_expose_gatekeeper_counters() {
        let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).unwrap();
        let addr = gk.local_addr();
        let (status, body) = call(addr, "GET", "/v1/stats", b"");
        assert_eq!(status, 200);
        let v = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
        for field in
            ["hits", "misses", "spills", "restores", "rejected", "ingest_requests", "ingest_allocs"]
        {
            assert!(v.get(field).is_some(), "stats must expose {field}");
        }
        gk.shutdown();
    }
}
