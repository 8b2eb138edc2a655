//! Serving-layer load generator: replay sparksim traces as concurrent
//! HTTP client traffic against an in-process gatekeeper.
//!
//! The scenario mirrors Exathlon's monitoring setting: many repeated
//! Spark executions (entities) stream records at once. Detectors are
//! fitted exactly as the replay driver fits them, one profile per
//! entity is uploaded as a checkpoint, then client threads replay
//! transformed test traces through `POST /v1/ingest` over keep-alive
//! connections, timing every request. Each client also drives a local
//! twin of every profile it owns and asserts the served score is
//! **bitwise** identical — so the throughput numbers double as an
//! end-to-end correctness sweep. After the phases, every entity's
//! checkpoint is downloaded and compared byte-for-byte against its twin.
//!
//! Phases:
//!
//! 1. **single** — concurrent single-record ingest (throughput + latency
//!    percentiles, bitwise verify per response).
//! 2. **alloc** — the binary installs a counting global allocator and
//!    hands the gatekeeper a per-thread allocation probe
//!    ([`exathlon_core::serve::set_alloc_probe`]); after warmup, a
//!    metered run pins the worker-side allocation count of the ingest
//!    fast path at zero: for bare EWMA and kNN tenants, and for
//!    pipeline-shaped tenants (PCA + dynamic scaler in front of kNN,
//!    LOF, AE and SpectralResidual). The run **fails** on any
//!    allocation — this is the CI allocation guard.
//! 3. **batch** — the same records through `POST /v1/score` in
//!    `BATCH`-record bodies; records/sec is compared against phase 1.
//! 4. **spill** — a second gatekeeper with a ~zero byte budget and a
//!    spill directory; round-robin ingest over more tenants than fit
//!    churns evict→spill→restore on nearly every request, with every
//!    score still bitwise-checked against the twins.
//! 5. **cluster** — a 2-node fleet behind the consistent-hash router
//!    tier ([`exathlon_core::route`]): aggregate routed throughput vs a
//!    direct single node, the per-request router overhead (p50, solo
//!    client, both paths unloaded), the warmed proxy path's allocation
//!    count (must be zero — CI greps the JSON), the `503 Retry-After`
//!    shed/retry contract under a deliberately starved router, and a
//!    third node joining mid-stream with checkpoint-driven rebalance —
//!    every score bitwise against the twins throughout.
//!
//! Writes phases 1–4 to `results/BENCH_serving.json` and phase 5 to
//! `results/BENCH_cluster.json`. `--quick` shrinks the fleet for CI;
//! `--no-nodelay` leaves Nagle's algorithm on client sockets (for
//! measuring the latency effect of TCP_NODELAY).

use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::{ExperimentConfig, StreamMethod};
use exathlon_core::experiment::prepare;
use exathlon_core::model::TrainingBudget;
use exathlon_core::replay::{build_servable, replay_series, stream_seed};
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{set_alloc_probe, Gatekeeper, GatekeeperConfig};
use exathlon_core::wire::{parse_head, HeadParse};
use exathlon_linalg::pca::{ComponentSelection, Pca};
use exathlon_linalg::stats::quantile;
use exathlon_linalg::Matrix;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::TimeSeries;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `/v1/score` body size for the batch phase.
const BATCH: usize = 32;

/// Consecutive `503` sheds tolerated per request before the run fails.
const RETRY_LIMIT: u32 = 6;
/// First backoff delay after a `503`; doubles per consecutive shed.
const RETRY_BASE_MS: u64 = 25;
/// Backoff ceiling. The server's `retry-after` is whole seconds — the
/// shed tier's coarsest honest unit — and a load generator that sleeps
/// a full second per shed measures nothing, so the suggestion is
/// honored as a ceiling and clipped to this bound.
const RETRY_CAP_MS: u64 = 200;

// ------------------------------------------------------ counting allocator

/// Global allocator that counts allocations per thread. The thread-local
/// is const-initialized (no lazy init, no destructor), so reading it
/// from inside the allocator cannot recurse into the allocator.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[inline]
fn bump() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// --------------------------------------------------------------- client

/// One keep-alive HTTP/1.1 connection with sequential request/response
/// over reused buffers: one `write` per request, no per-request
/// allocation once warmed (the client side of the serving fast path).
///
/// `503` responses are retried in place with bounded backoff, honoring
/// the shed tier's `retry-after` header (clipped to [`RETRY_CAP_MS`]).
/// A shed that arrives with `connection: close` — the gatekeeper's
/// accept-queue tier sheds that way — reconnects before retrying.
struct Client {
    addr: SocketAddr,
    nodelay: bool,
    stream: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    tmp: Vec<u8>,
    /// Requests that were shed with `503` and retried to completion.
    retries: u64,
}

impl Client {
    fn connect(addr: SocketAddr, nodelay: bool) -> Self {
        Self {
            addr,
            nodelay,
            stream: Self::open(addr, nodelay),
            req: Vec::new(),
            resp: Vec::new(),
            tmp: vec![0u8; 64 << 10],
            retries: 0,
        }
    }

    fn open(addr: SocketAddr, nodelay: bool) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect to server");
        if nodelay {
            stream.set_nodelay(true).expect("set nodelay");
        }
        stream
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, &[u8]) {
        let mut attempt = 0u32;
        let (status, head_len, total) = loop {
            let (status, head_len, total, keep_alive) = self.exchange(method, path, body);
            if status != 503 {
                break (status, head_len, total);
            }
            assert!(
                attempt < RETRY_LIMIT,
                "{method} {path} still shed after {RETRY_LIMIT} retries"
            );
            let suggested_ms = retry_after_of(&self.resp[..head_len])
                .expect("503 must carry retry-after")
                .saturating_mul(1000);
            self.retries += 1;
            if !keep_alive {
                self.stream = Self::open(self.addr, self.nodelay);
            }
            let backoff = (RETRY_BASE_MS << attempt).min(RETRY_CAP_MS);
            std::thread::sleep(Duration::from_millis(suggested_ms.min(backoff)));
            attempt += 1;
        };
        (status, &self.resp[head_len..total])
    }

    /// One request/response cycle, no retry policy. Returns
    /// `(status, head_len, total, keep_alive)` with the raw response
    /// left in `self.resp`.
    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, usize, usize, bool) {
        self.req.clear();
        let _ = write!(
            self.req,
            "{method} {path} HTTP/1.1\r\nhost: load\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.req.extend_from_slice(body);
        self.stream.write_all(&self.req).expect("write request");
        self.resp.clear();
        loop {
            // `parse_head` reads a status line the same way it reads a
            // request line: three whitespace tokens, the second of which
            // ("200") lands in the `path` span.
            match parse_head(&self.resp, 64 << 10) {
                HeadParse::Complete(h) => {
                    let total = h.head_len + h.content_length;
                    if self.resp.len() >= total {
                        let code = std::str::from_utf8(&self.resp[h.path.0..h.path.1])
                            .expect("status code");
                        let status = code.parse().expect("numeric status");
                        break (status, h.head_len, total, h.keep_alive);
                    }
                }
                HeadParse::Partial => {}
                other => panic!("malformed response head: {other:?}"),
            }
            let n = self.stream.read(&mut self.tmp).expect("read response");
            assert!(n > 0, "server closed mid-response");
            self.resp.extend_from_slice(&self.tmp[..n]);
        }
    }
}

/// `retry-after` seconds out of a response head, if present.
fn retry_after_of(head: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(head).ok()?;
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.eq_ignore_ascii_case("retry-after") {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

/// `{"record":[...]}` into a reused buffer, shortest-roundtrip floats,
/// non-finite as `null` (the repo-wide JSON convention).
fn write_record_body(out: &mut String, record: &[f64]) {
    out.clear();
    out.push_str("{\"record\":[");
    write_values(out, record);
    out.push_str("]}");
}

/// `{"records":[[...],...]}` for a batch of rows.
fn write_batch_body(out: &mut String, rows: &[Vec<f64>]) {
    out.clear();
    out.push_str("{\"records\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_values(out, row);
        out.push(']');
    }
    out.push_str("]}");
}

fn write_values(out: &mut String, values: &[f64]) {
    for (i, x) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if x.is_finite() {
            let _ = write!(out, "{x}");
        } else {
            out.push_str("null");
        }
    }
}

/// Parse `"score":<num>` out of an ingest response without a full JSON
/// tree (this runs inside the timed loop's bookkeeping).
fn score_of(body: &[u8]) -> f64 {
    let text = std::str::from_utf8(body).expect("UTF-8 response");
    let rest = text.split("\"score\":").nth(1).expect("score field");
    let end = rest.find(',').unwrap_or(rest.len());
    parse_score_token(&rest[..end])
}

/// Parse the `"scores":[...]` array of a batch response into a reused
/// buffer.
fn scores_of(body: &[u8], out: &mut Vec<f64>) {
    out.clear();
    let text = std::str::from_utf8(body).expect("UTF-8 response");
    let rest = text.split("\"scores\":[").nth(1).expect("scores field");
    let list = &rest[..rest.find(']').expect("closing bracket")];
    if !list.is_empty() {
        out.extend(list.split(',').map(parse_score_token));
    }
}

fn parse_score_token(token: &str) -> f64 {
    if token == "null" {
        f64::NAN
    } else {
        token.parse().expect("score parses")
    }
}

/// One tenant's work item: its key, its profile twin, and the records
/// the client will stream. The `single_ns` / `batch_ns` accumulators
/// collect per-request service time (request write → response read) so
/// batch amortization can be reported per detector method.
struct Tenant {
    entity: String,
    method: &'static str,
    twin: ServingProfile,
    records: Vec<Vec<f64>>,
    single_ns: u64,
    batch_ns: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Stream `count` single-record requests from `tenant`'s record list
/// (cycling), verifying each served score bitwise against the twin.
/// Returns the summed request round-trip time (service time only —
/// body building and twin verification are outside the clock).
fn drive_single(
    client: &mut Client,
    path: &str,
    tenant: &mut Tenant,
    count: usize,
    body: &mut String,
) -> u64 {
    let mut spent = 0u64;
    for i in 0..count {
        let record = &tenant.records[i % tenant.records.len()];
        write_record_body(body, record);
        let t0 = Instant::now();
        let (status, resp) = client.request("POST", path, body.as_bytes());
        spent += t0.elapsed().as_nanos() as u64;
        assert_eq!(status, 200, "ingest failed for {}", tenant.entity);
        let (want, _) = tenant.twin.ingest(record);
        let got = score_of(resp);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "served score diverged for {}: {got} vs {want}",
            tenant.entity
        );
    }
    spent
}

/// Like [`drive_single`] but records each request's round-trip
/// individually, for percentiles.
fn timed_singles(
    client: &mut Client,
    path: &str,
    tenant: &mut Tenant,
    count: usize,
    body: &mut String,
    latencies: &mut Vec<u64>,
) {
    for i in 0..count {
        let record = &tenant.records[i % tenant.records.len()];
        write_record_body(body, record);
        let t0 = Instant::now();
        let (status, resp) = client.request("POST", path, body.as_bytes());
        latencies.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(status, 200, "ingest failed for {}", tenant.entity);
        let (want, _) = tenant.twin.ingest(record);
        let got = score_of(resp);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "served score diverged for {}: {got} vs {want}",
            tenant.entity
        );
    }
}

/// Poll a counter until it reaches `want` (bounded): server-side
/// bookkeeping for an exchange can land a beat after the client reads
/// the response's last byte, so snapshots taken at phase boundaries
/// wait for the counters to settle.
fn wait_stat(get: &dyn Fn() -> u64, want: u64) -> u64 {
    let t0 = Instant::now();
    loop {
        let v = get();
        if v >= want || t0.elapsed() > Duration::from_secs(2) {
            return v;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// PCA components of the pipeline-shaped alloc-guard tenants.
const PIPELINE_COMPONENTS: usize = 8;

/// Pipeline-shaped profiles, the paper's serving shape: a PCA over the
/// transformed features, then a dynamic scaler, then the detector —
/// fitted, like the served pipeline, on the projected and
/// standard-scaled training traces.
fn pipeline_profiles(
    methods: &[StreamMethod],
    train: &[TimeSeries],
    config: &ExperimentConfig,
    budget: TrainingBudget,
) -> Vec<(StreamMethod, ServingProfile)> {
    let clean = |r: &[f64]| -> Vec<f64> {
        r.iter().map(|&v| if v.is_finite() { v } else { 0.0 }).collect()
    };
    let rows: Vec<Vec<f64>> = train.iter().flat_map(|t| t.records().map(clean)).collect();
    let pca = Pca::fit(&Matrix::from_rows(&rows), ComponentSelection::Fixed(PIPELINE_COMPONENTS));
    let names: Vec<String> = (0..pca.n_components()).map(|i| format!("pc{i}")).collect();
    let projected: Vec<TimeSeries> = train
        .iter()
        .map(|t| {
            let recs: Vec<Vec<f64>> = t.records().map(|r| pca.transform_row(r)).collect();
            TimeSeries::from_records(names.clone(), 0, &recs)
        })
        .collect();
    let refs: Vec<&TimeSeries> = projected.iter().collect();
    let scaler = StandardScaler::fit_pooled(&refs);
    let scaled: Vec<TimeSeries> = projected.iter().map(|t| scaler.transform(t)).collect();
    methods
        .iter()
        .map(|&method| {
            let det = build_servable(
                method,
                &scaled,
                config.threshold_holdout,
                budget,
                stream_seed(config.seed, method),
            );
            // The guard meters allocations and compares scores; no
            // record needs to be flagged.
            let profile = ServingProfile {
                scaler: Some(DynamicScaler::from_standard(scaler.clone(), 0.01)),
                pca: Some(pca.clone()),
                detector: det,
                threshold: f64::INFINITY,
            };
            (method, profile)
        })
        .collect()
}

/// Concurrent bitwise replay: each client thread warms its tenant chunk
/// (pools upstream connections, grows every reused buffer to steady
/// state), all clients align on a barrier, `on_warmed` runs while the
/// fleet is quiescent, then the measured rounds are timed together.
/// Returns (measured seconds, total 503 retries, tenant chunks back).
fn fleet_run(
    addr: SocketAddr,
    nodelay: bool,
    chunks: Vec<Vec<Tenant>>,
    warm: usize,
    rounds: usize,
    on_warmed: &mut dyn FnMut(),
) -> (f64, u64, Vec<Vec<Tenant>>) {
    let barrier = std::sync::Barrier::new(chunks.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|mut tenants| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr, nodelay);
                    let mut body = String::new();
                    for tenant in &mut tenants {
                        let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
                        drive_single(&mut client, &path, tenant, warm, &mut body);
                    }
                    barrier.wait();
                    barrier.wait();
                    for tenant in &mut tenants {
                        let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
                        drive_single(&mut client, &path, tenant, rounds, &mut body);
                    }
                    (client.retries, tenants)
                })
            })
            .collect();
        barrier.wait();
        on_warmed();
        let t0 = Instant::now();
        barrier.wait();
        let joined: Vec<(u64, Vec<Tenant>)> =
            handles.into_iter().map(|h| h.join().expect("fleet client thread")).collect();
        let elapsed = t0.elapsed().as_secs_f64();
        let retries = joined.iter().map(|(r, _)| *r).sum();
        (elapsed, retries, joined.into_iter().map(|(_, t)| t).collect())
    })
}

fn main() {
    // Install the worker-side allocation probe before the gatekeeper
    // spawns its workers (each worker snapshots the probe at spawn).
    set_alloc_probe(thread_allocs);

    let quick = std::env::args().any(|a| a == "--quick");
    let nodelay = !std::env::args().any(|a| a == "--no-nodelay");
    let (entities, clients, records_per_entity) =
        if quick { (4usize, 2usize, 200usize) } else { (16, 8, 1000) };
    let methods =
        [StreamMethod::Ewma, StreamMethod::Cusum, StreamMethod::Histogram, StreamMethod::Knn];

    // Fit once per method on the replay driver's own data path.
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig::default();
    let (_transform, train, tests) = prepare(&ds, &config);
    assert!(!tests.is_empty(), "no test traces");
    let budget = TrainingBudget::Quick;

    let fitted: Vec<(StreamMethod, ServingProfile)> = methods
        .iter()
        .map(|&method| {
            let det = build_servable(
                method,
                &train,
                config.threshold_holdout,
                budget,
                stream_seed(config.seed, method),
            );
            // Unsupervised threshold: high quantile of the detector's own
            // scores over a training trace.
            let holdout: &TimeSeries = &train[0];
            let scores = replay_series(&mut det.clone(), holdout);
            let threshold = quantile(&scores, 0.99);
            (method, ServingProfile::new(det, threshold))
        })
        .collect();

    // One worker per core: on a small box a single worker multiplexing
    // every connection beats a thread herd fighting over the scheduler.
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    let gk = Gatekeeper::bind(
        "127.0.0.1:0",
        GatekeeperConfig { workers, ..GatekeeperConfig::default() },
    )
    .expect("bind gatekeeper");
    let addr = gk.local_addr();

    // One tenant per entity: method round-robin, trace round-robin.
    let mut upload = Client::connect(addr, nodelay);
    let mut checkpoint_bytes = 0usize;
    let mut work: Vec<Vec<Tenant>> = (0..clients).map(|_| Vec::new()).collect();
    for e in 0..entities {
        let (method, profile) = &fitted[e % fitted.len()];
        let series = &tests[e % tests.len()].series;
        let n = series.len().min(records_per_entity);
        let records: Vec<Vec<f64>> = (0..n).map(|i| series.record(i).to_vec()).collect();
        let entity = format!("exec-{e}-{}", method.label());
        let image = profile.to_bytes();
        checkpoint_bytes += image.len();
        let (status, _) = upload.request("PUT", &format!("/v1/profile/spark-app/{entity}"), &image);
        assert_eq!(status, 200, "profile upload failed for {entity}");
        work[e % clients].push(Tenant {
            entity,
            method: method.label(),
            twin: profile.clone(),
            records,
            single_ns: 0,
            batch_ns: 0,
        });
    }

    let total_requests: usize = work.iter().flatten().map(|t| t.records.len()).sum();
    println!(
        "load_gen: {entities} entities x {} records, {clients} clients, {total_requests} requests, \
         {workers} workers, nodelay={nodelay}",
        records_per_entity
    );

    // ---------------------------------------------- phase 1: single-record
    // Concurrent replay: each client owns a disjoint tenant set, so
    // per-tenant request order (and thus detector state) is deterministic
    // no matter how the clients interleave on the server.
    let started = Instant::now();
    let mut results: Vec<(Vec<u64>, Vec<Tenant>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|tenants| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, nodelay);
                    let mut latencies = Vec::with_capacity(tenants.len() * records_per_entity);
                    let mut body = String::new();
                    let mut tenants = tenants;
                    for tenant in &mut tenants {
                        let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
                        for i in 0..tenant.records.len() {
                            let record = &tenant.records[i];
                            write_record_body(&mut body, record);
                            let t0 = Instant::now();
                            let (status, resp) = client.request("POST", &path, body.as_bytes());
                            let spent = t0.elapsed().as_nanos() as u64;
                            latencies.push(spent);
                            tenant.single_ns += spent;
                            assert_eq!(status, 200, "ingest failed for {}", tenant.entity);
                            let got = score_of(resp);
                            let (want, _) = tenant.twin.ingest(record);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "served score diverged for {}: {got} vs {want}",
                                tenant.entity
                            );
                        }
                    }
                    (latencies, tenants)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let throughput = total_requests as f64 / elapsed;
    let single_latency_ns: u64 = results.iter().flat_map(|(l, _)| l.iter().copied()).sum();

    // ------------------------------------------------- phase 2: alloc guard
    // Meter the worker-side allocation count of the warmed ingest fast
    // path, which must be exactly allocation-free. Run one tenant at a
    // time so the gatekeeper's cumulative counters isolate each method.
    let mut alloc_client = Client::connect(addr, nodelay);
    let mut body = String::new();
    let mut metered = |tenant: &mut Tenant, warm: usize, measured: usize| -> f64 {
        let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
        drive_single(&mut alloc_client, &path, tenant, warm, &mut body);
        let before = gk.gate_stats();
        drive_single(&mut alloc_client, &path, tenant, measured, &mut body);
        let after = gk.gate_stats();
        let requests = after.ingest_requests - before.ingest_requests;
        assert_eq!(requests as usize, measured, "metered request count");
        (after.ingest_allocs - before.ingest_allocs) as f64 / requests as f64
    };
    let (warm, measured) = if quick { (64, 128) } else { (256, 512) };
    // Tenant 0 is EWMA, tenant 3 is kNN (method round-robin above).
    let ewma_tenant = &mut results[0].1[0];
    assert!(ewma_tenant.entity.ends_with("EWMA"), "tenant 0 must be EWMA: {}", ewma_tenant.entity);
    let ewma_allocs = metered(ewma_tenant, warm, measured);
    assert_eq!(
        ewma_allocs, 0.0,
        "warmed single-record ingest must be allocation-free in the worker"
    );
    let knn_tenant = &mut results[3 % clients].1[3 / clients];
    assert!(knn_tenant.entity.ends_with("kNN"), "expected kNN tenant: {}", knn_tenant.entity);
    let knn_allocs = metered(knn_tenant, warm, measured);
    assert_eq!(knn_allocs, 0.0, "warmed kNN ingest must be allocation-free in the worker");
    println!("alloc guard: ewma {ewma_allocs}/req, knn {knn_allocs}/req");
    // Pipeline-shaped tenants: PCA + dynamic scaler in front of each
    // model detector. The stage outputs and the detectors' query scratch
    // live per worker thread, so these must be allocation-free too.
    let pipeline_methods =
        [StreamMethod::Knn, StreamMethod::Lof, StreamMethod::Ae, StreamMethod::SpectralResidual];
    let mut pipeline_allocs = Vec::new();
    for (method, profile) in pipeline_profiles(&pipeline_methods, &train, &config, budget) {
        let entity = format!("pipeline-{}", method.label());
        let (status, _) =
            upload.request("PUT", &format!("/v1/profile/spark-app/{entity}"), &profile.to_bytes());
        assert_eq!(status, 200, "profile upload failed for {entity}");
        let series = &tests[0].series;
        let n = series.len().min(records_per_entity);
        let mut tenant = Tenant {
            entity,
            method: method.label(),
            twin: profile,
            records: (0..n).map(|i| series.record(i).to_vec()).collect(),
            single_ns: 0,
            batch_ns: 0,
        };
        let allocs = metered(&mut tenant, warm, measured);
        assert_eq!(
            allocs, 0.0,
            "warmed pipeline-shaped {} ingest must be allocation-free in the worker",
            tenant.method
        );
        pipeline_allocs.push((tenant.method.to_lowercase(), allocs));
    }
    println!("alloc guard: pipeline-shaped (PCA + scaler) {pipeline_allocs:?} per request");

    // ---------------------------------------------------- phase 3: batching
    // The same tenants continue their streams through /v1/score in
    // BATCH-record bodies; every score still verified bitwise. The
    // speedup metric compares *service* latency per record (request
    // write → response read) between the two phases — that is the cost
    // batching amortizes. Wall-clock throughput is recorded too, but on
    // this end-to-end harness it also pays the client-side twin scoring,
    // which batching cannot touch.
    let batch_records: usize = results.iter().flat_map(|(_, ts)| ts).map(|t| t.records.len()).sum();
    let batch_started = Instant::now();
    let batch_latency_ns: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = results
            .iter_mut()
            .map(|(_, tenants)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, nodelay);
                    let mut body = String::new();
                    let mut got = Vec::new();
                    let mut spent = 0u64;
                    for tenant in tenants.iter_mut() {
                        let path = format!("/v1/score/spark-app/{}", tenant.entity);
                        for chunk in tenant.records.chunks(BATCH) {
                            write_batch_body(&mut body, chunk);
                            let t0 = Instant::now();
                            let (status, resp) = client.request("POST", &path, body.as_bytes());
                            let took = t0.elapsed().as_nanos() as u64;
                            spent += took;
                            tenant.batch_ns += took;
                            assert_eq!(status, 200, "batch score failed for {}", tenant.entity);
                            scores_of(resp, &mut got);
                            assert_eq!(got.len(), chunk.len(), "batch response length");
                            for (record, got) in chunk.iter().zip(&got) {
                                let (want, _) = tenant.twin.ingest(record);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "batch score diverged for {}",
                                    tenant.entity
                                );
                            }
                        }
                    }
                    spent
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("batch client thread")).sum()
    });
    let batch_elapsed = batch_started.elapsed().as_secs_f64();
    let batch_rps = batch_records as f64 / batch_elapsed;
    let single_ns_per_record = single_latency_ns as f64 / total_requests as f64;
    let batch_ns_per_record = batch_latency_ns as f64 / batch_records as f64;
    let batch_speedup = single_ns_per_record / batch_ns_per_record;

    // Per-method amortization: (method label, single ns/rec, batch
    // ns/rec, speedup). The in-place detectors are request-overhead
    // bound, so batching collapses their cost; kNN is compute-bound per
    // record and its ratio honestly shows that floor.
    let per_method: Vec<(&str, f64, f64, f64)> = methods
        .iter()
        .map(|m| {
            let (mut single, mut batch, mut n) = (0u64, 0u64, 0u64);
            for tenant in results.iter().flat_map(|(_, ts)| ts) {
                if tenant.method == m.label() {
                    single += tenant.single_ns;
                    batch += tenant.batch_ns;
                    n += tenant.records.len() as u64;
                }
            }
            let s = single as f64 / n as f64;
            let b = batch as f64 / n as f64;
            (m.label(), s, b, s / b)
        })
        .collect();
    // Unloaded amortization gate: one sequential client on the EWMA
    // tenant, no concurrent traffic, so per-request time is pure serving
    // cost with no queueing behind other clients' (much longer) batch
    // requests. This is the number the batch endpoint exists to improve:
    // request overhead per record on an overhead-bound detector.
    let solo_records = if quick { 256 } else { 1024 };
    let mut solo = Client::connect(addr, nodelay);
    let (solo_single_ns, solo_batch_ns) = {
        let tenant = &mut results[0].1[0];
        assert_eq!(tenant.method, "EWMA", "tenant 0 must be EWMA");
        let ingest_path = format!("/v1/ingest/spark-app/{}", tenant.entity);
        let score_path = format!("/v1/score/spark-app/{}", tenant.entity);
        let mut body = String::new();
        let single_ns = drive_single(&mut solo, &ingest_path, tenant, solo_records, &mut body)
            / solo_records as u64;
        let mut got = Vec::new();
        let mut consumed = 0usize;
        let mut spent = 0u64;
        'outer: loop {
            for chunk in tenant.records.chunks(BATCH) {
                if consumed >= solo_records {
                    break 'outer;
                }
                write_batch_body(&mut body, chunk);
                let t0 = Instant::now();
                let (status, resp) = solo.request("POST", &score_path, body.as_bytes());
                spent += t0.elapsed().as_nanos() as u64;
                assert_eq!(status, 200, "solo batch score failed");
                scores_of(resp, &mut got);
                for (record, got) in chunk.iter().zip(&got) {
                    let (want, _) = tenant.twin.ingest(record);
                    assert_eq!(got.to_bits(), want.to_bits(), "solo batch score diverged");
                }
                consumed += chunk.len();
            }
        }
        (single_ns, spent / consumed as u64)
    };
    let solo_speedup = solo_single_ns as f64 / solo_batch_ns as f64;
    assert!(
        solo_speedup >= 3.0,
        "batch-{BATCH} must clear 3x single-record service rate on the \
         overhead-bound path (EWMA, unloaded), got {solo_speedup:.2}x \
         ({solo_single_ns}ns vs {solo_batch_ns}ns per record)"
    );

    // Post-run audit: every checkpoint equals its twin, byte for byte.
    // Fresh connection: the upload one idled past the server read timeout.
    let mut audit = Client::connect(addr, nodelay);
    for (_, tenants) in &results {
        for tenant in tenants {
            let (status, image) =
                audit.request("GET", &format!("/v1/checkpoint/spark-app/{}", tenant.entity), b"");
            assert_eq!(status, 200, "checkpoint download failed for {}", tenant.entity);
            assert_eq!(image, tenant.twin.to_bytes(), "checkpoint diverged for {}", tenant.entity);
        }
    }

    let mut latencies: Vec<u64> = results.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    latencies.sort_unstable();
    assert_eq!(latencies.len(), total_requests);
    let (p50, p90, p99, max) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        *latencies.last().unwrap_or(&0),
    );

    let stats = gk.stats();
    assert_eq!(stats.insertions as usize, entities + pipeline_allocs.len());
    println!("single: elapsed {elapsed:.2}s, throughput {throughput:.0} req/s");
    println!("ingest latency: p50 {p50}ns, p90 {p90}ns, p99 {p99}ns, max {max}ns");
    println!(
        "batch-{BATCH}: {batch_records} records in {batch_elapsed:.2}s = {batch_rps:.0} rec/s wall; \
         service {batch_ns_per_record:.0}ns/record vs {single_ns_per_record:.0}ns single \
         ({batch_speedup:.1}x)"
    );
    for (label, s, b, x) in &per_method {
        println!("  {label}: {s:.0}ns -> {b:.0}ns per record ({x:.1}x)");
    }
    println!(
        "  unloaded EWMA: {solo_single_ns}ns -> {solo_batch_ns}ns per record ({solo_speedup:.1}x)"
    );
    println!(
        "registry: {} profiles, {} bytes resident, {} hits",
        stats.resident_profiles, stats.resident_bytes, stats.hits
    );
    gk.shutdown();

    // ------------------------------------------------------ phase 4: spill
    // A gatekeeper whose byte budget holds one profile per shard: round-
    // robin ingest over more tenants than fit churns evict→spill→restore
    // on nearly every request, and every score must still continue each
    // twin's stream bitwise.
    let spill_dir =
        std::env::temp_dir().join(format!("exathlon-loadgen-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let spill_entities = if quick { 4 } else { 8 };
    let spill_rounds = if quick { 25 } else { 100 };
    let gk2 = Gatekeeper::bind(
        "127.0.0.1:0",
        GatekeeperConfig {
            workers: 1,
            shards: 2,
            budget_bytes_per_shard: 1,
            spill_dir: Some(spill_dir.clone()),
            ..GatekeeperConfig::default()
        },
    )
    .expect("bind spill gatekeeper");
    let addr2 = gk2.local_addr();
    let mut client = Client::connect(addr2, nodelay);
    let mut spill_tenants: Vec<Tenant> = (0..spill_entities)
        .map(|e| {
            let (method, profile) = &fitted[e % fitted.len()];
            let series = &tests[e % tests.len()].series;
            let n = series.len().min(spill_rounds);
            let records: Vec<Vec<f64>> = (0..n).map(|i| series.record(i).to_vec()).collect();
            let entity = format!("spill-{e}-{}", method.label());
            let (status, _) = client.request(
                "PUT",
                &format!("/v1/profile/spark-app/{entity}"),
                &profile.to_bytes(),
            );
            assert_eq!(status, 200, "spill profile upload failed for {entity}");
            Tenant {
                entity,
                method: method.label(),
                twin: profile.clone(),
                records,
                single_ns: 0,
                batch_ns: 0,
            }
        })
        .collect();
    let spill_started = Instant::now();
    for round in 0..spill_rounds {
        for tenant in &mut spill_tenants {
            let record = &tenant.records[round % tenant.records.len()];
            write_record_body(&mut body, record);
            let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
            let (status, resp) = client.request("POST", &path, body.as_bytes());
            assert_eq!(status, 200, "spill ingest failed for {}", tenant.entity);
            let (want, _) = tenant.twin.ingest(record);
            assert_eq!(
                score_of(resp).to_bits(),
                want.to_bits(),
                "score diverged across spill/restore for {}",
                tenant.entity
            );
        }
    }
    let spill_elapsed = spill_started.elapsed().as_secs_f64();
    // Checkpoints come back bitwise even for currently-spilled tenants.
    for tenant in &spill_tenants {
        let (status, image) =
            client.request("GET", &format!("/v1/checkpoint/spark-app/{}", tenant.entity), b"");
        assert_eq!(status, 200, "spill checkpoint download failed for {}", tenant.entity);
        assert_eq!(
            image,
            tenant.twin.to_bytes(),
            "spill checkpoint diverged for {}",
            tenant.entity
        );
    }
    let spill_requests = spill_entities * spill_rounds;
    let g2 = gk2.gate_stats();
    assert!(g2.spills > 0 && g2.restores > 0, "spill phase must exercise evict/restore");
    let spill_rps = spill_requests as f64 / spill_elapsed;
    println!(
        "spill: {spill_requests} requests over {spill_entities} tenants, {} spills, {} restores, \
         {spill_rps:.0} req/s",
        g2.spills, g2.restores
    );
    gk2.shutdown();
    let _ = std::fs::remove_dir_all(&spill_dir);

    // ---------------------------------------------------- phase 5: cluster
    // A 2-node fleet behind the consistent-hash router tier. Every score
    // is still verified bitwise against a twin — through a proxy hop,
    // under shed/retry, and across a mid-stream node join.
    let cluster_base =
        std::env::temp_dir().join(format!("exathlon-loadgen-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cluster_base);
    let fleet_node = |label: &str| {
        Gatekeeper::bind(
            "127.0.0.1:0",
            GatekeeperConfig {
                workers: 1,
                spill_dir: Some(cluster_base.join(label)),
                ..GatekeeperConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("bind {label}: {e}"))
    };
    let gk_a = fleet_node("node-a");
    let gk_b = fleet_node("node-b");
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig { workers: 1, ..RouterConfig::default() },
    )
    .expect("bind router");
    let raddr = rt.local_addr();
    let (fleet_entities, fleet_clients, fleet_rounds, fleet_warm) =
        if quick { (6usize, 3usize, 40usize, 5usize) } else { (12, 4, 120, 10) };

    // Tenants uploaded THROUGH the router, so it tracks the keys for
    // rebalance. Method round-robin as in phase 1.
    let mut upload = Client::connect(raddr, nodelay);
    let mut fleet: Vec<Vec<Tenant>> = (0..fleet_clients).map(|_| Vec::new()).collect();
    for e in 0..fleet_entities {
        let (method, profile) = &fitted[e % fitted.len()];
        let series = &tests[e % tests.len()].series;
        let n = series.len().min(fleet_rounds + fleet_warm);
        let records: Vec<Vec<f64>> = (0..n).map(|i| series.record(i).to_vec()).collect();
        let entity = format!("fleet-{e}-{}", method.label());
        let (status, _) =
            upload.request("PUT", &format!("/v1/profile/spark-app/{entity}"), &profile.to_bytes());
        assert_eq!(status, 200, "fleet profile upload failed for {entity}");
        fleet[e % fleet_clients].push(Tenant {
            entity,
            method: method.label(),
            twin: profile.clone(),
            records,
            single_ns: 0,
            batch_ns: 0,
        });
    }
    drop(upload);

    // Routed aggregate: warm (pools the router's upstream connections),
    // snapshot the router's allocation meter while quiescent, then time
    // the measured rounds. The delta over the measured window pins the
    // warmed proxy path's allocation count — the CI grep target. The
    // meter covers exchanges served over a pooled upstream connection;
    // a pool miss (concurrency briefly deeper than the pool has seen)
    // is lazy warmup and drops out, so metered <= routed — but cold
    // exchanges must stay rare or "warmed" would be a fiction.
    let routed_requests = fleet_entities * fleet_rounds;
    let warm_proxied = (fleet_entities * (fleet_warm + 1)) as u64; // uploads + warm rounds
    let mut before = None;
    let (routed_elapsed, fleet_retries, mut fleet) =
        fleet_run(raddr, nodelay, fleet, fleet_warm, fleet_rounds, &mut || {
            wait_stat(&|| rt.stats().proxied, warm_proxied);
            before = Some(rt.stats());
        });
    let before = before.expect("pre-measure snapshot");
    wait_stat(&|| rt.stats().proxied, before.proxied + routed_requests as u64);
    let after = rt.stats();
    let metered_requests = after.proxy_requests - before.proxy_requests;
    let metered_allocs = after.proxy_allocs - before.proxy_allocs;
    assert!(
        metered_requests as usize >= routed_requests * 9 / 10,
        "most measured exchanges must ride warmed connections \
         ({metered_requests} metered of {routed_requests})"
    );
    let proxy_allocs_per_request = metered_allocs as f64 / metered_requests as f64;
    assert_eq!(
        proxy_allocs_per_request, 0.0,
        "warmed proxy path must be allocation-free: {metered_allocs} allocs \
         over {metered_requests} requests"
    );
    let routed_rps = routed_requests as f64 / routed_elapsed;

    // Direct single-node reference: the same tenant set and volume
    // against one gatekeeper with no router in between.
    let mut dupload = Client::connect(gk_a.local_addr(), nodelay);
    let mut direct: Vec<Vec<Tenant>> = (0..fleet_clients).map(|_| Vec::new()).collect();
    for e in 0..fleet_entities {
        let (method, profile) = &fitted[e % fitted.len()];
        let series = &tests[e % tests.len()].series;
        let n = series.len().min(fleet_rounds + fleet_warm);
        let records: Vec<Vec<f64>> = (0..n).map(|i| series.record(i).to_vec()).collect();
        let entity = format!("direct-{e}-{}", method.label());
        let (status, _) =
            dupload.request("PUT", &format!("/v1/profile/spark-app/{entity}"), &profile.to_bytes());
        assert_eq!(status, 200, "direct profile upload failed for {entity}");
        direct[e % fleet_clients].push(Tenant {
            entity,
            method: method.label(),
            twin: profile.clone(),
            records,
            single_ns: 0,
            batch_ns: 0,
        });
    }
    drop(dupload);
    let (direct_elapsed, _, _) =
        fleet_run(gk_a.local_addr(), nodelay, direct, fleet_warm, fleet_rounds, &mut || {});
    let direct_rps = routed_requests as f64 / direct_elapsed;
    let scaling = routed_rps / direct_rps;

    // Router hop cost: one solo client on an unloaded EWMA tenant, p50
    // routed vs p50 direct over interleaved trials; the min across
    // trials rejects scheduler noise (the floor is the mechanism).
    let (ov_warm, ov_measured, ov_trials) = if quick { (64, 192, 3) } else { (128, 384, 3) };
    let probe_records: Vec<Vec<f64>> = {
        let series = &tests[0].series;
        (0..series.len().min(64)).map(|i| series.record(i).to_vec()).collect()
    };
    let probe_tenant = |entity: &str| Tenant {
        entity: entity.to_string(),
        method: "EWMA",
        twin: fitted[0].1.clone(),
        records: probe_records.clone(),
        single_ns: 0,
        batch_ns: 0,
    };
    assert_eq!(fitted[0].0.label(), "EWMA", "probe profile must be EWMA");
    let mut routed_probe = probe_tenant("probe-routed-EWMA");
    let mut direct_probe = probe_tenant("probe-direct-EWMA");
    let mut rclient = Client::connect(raddr, nodelay);
    let mut dclient = Client::connect(gk_a.local_addr(), nodelay);
    let (status, _) = rclient.request(
        "PUT",
        &format!("/v1/profile/spark-app/{}", routed_probe.entity),
        &routed_probe.twin.to_bytes(),
    );
    assert_eq!(status, 200);
    let (status, _) = dclient.request(
        "PUT",
        &format!("/v1/profile/spark-app/{}", direct_probe.entity),
        &direct_probe.twin.to_bytes(),
    );
    assert_eq!(status, 200);
    let rpath = format!("/v1/ingest/spark-app/{}", routed_probe.entity);
    let dpath = format!("/v1/ingest/spark-app/{}", direct_probe.entity);
    let (mut rl, mut dl) = (Vec::new(), Vec::new());
    timed_singles(&mut dclient, &dpath, &mut direct_probe, ov_warm, &mut body, &mut dl);
    timed_singles(&mut rclient, &rpath, &mut routed_probe, ov_warm, &mut body, &mut rl);
    let mut best: Option<(u64, u64, i64)> = None;
    for _ in 0..ov_trials {
        dl.clear();
        rl.clear();
        timed_singles(&mut dclient, &dpath, &mut direct_probe, ov_measured, &mut body, &mut dl);
        timed_singles(&mut rclient, &rpath, &mut routed_probe, ov_measured, &mut body, &mut rl);
        dl.sort_unstable();
        rl.sort_unstable();
        let (d, r) = (percentile(&dl, 0.50), percentile(&rl, 0.50));
        let overhead = r as i64 - d as i64;
        if best.is_none_or(|(_, _, b)| overhead < b) {
            best = Some((d, r, overhead));
        }
    }
    let (direct_p50, routed_p50, overhead_ns) = best.expect("overhead trials");
    assert!(
        overhead_ns <= 25_000,
        "router hop overhead {overhead_ns}ns p50 exceeds the 25us budget \
         (routed {routed_p50}ns vs direct {direct_p50}ns)"
    );

    // Shed/retry contract: a router allowed ONE in-flight request per
    // backend, hammered by concurrent clients, sheds on overlap — and
    // the client's bounded backoff-retry converges with every score
    // still bitwise. (router_smoke pins the exact 503 bytes; this pins
    // the retry loop against a live saturated tier.)
    let tight = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr())],
        RouterConfig { workers: 1, max_inflight_per_backend: 1, ..RouterConfig::default() },
    )
    .expect("bind starved router");
    let taddr = tight.local_addr();
    let burst_rounds = if quick { 20 } else { 50 };
    let burst_retries: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3u32)
            .map(|i| {
                let mut tenant = probe_tenant(&format!("burst-{i}-EWMA"));
                scope.spawn(move || {
                    let mut client = Client::connect(taddr, nodelay);
                    let path = format!("/v1/profile/spark-app/{}", tenant.entity);
                    let image = tenant.twin.to_bytes();
                    let (status, _) = client.request("PUT", &path, &image);
                    assert_eq!(status, 200, "burst upload failed for {}", tenant.entity);
                    let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
                    let mut body = String::new();
                    drive_single(&mut client, &path, &mut tenant, burst_rounds, &mut body);
                    client.retries
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("burst client thread")).sum()
    });
    let sheds = tight.stats().shed;
    assert!(
        sheds > 0 && burst_retries >= sheds,
        "starved router must shed and every shed must be retried \
         (sheds {sheds}, retries {burst_retries})"
    );
    tight.shutdown();

    // Mid-stream scale-up: join a third node; its captured keys drain
    // over as checkpoints and every stream continues bitwise.
    let gk_c = fleet_node("node-c");
    let report = rt.add_backend("node-c", gk_c.local_addr()).expect("join node-c");
    assert!(report.failed.is_empty(), "rebalance must not fail keys: {:?}", report.failed);
    assert_eq!(report.tracked, fleet_entities + 1, "router must track every uploaded key");
    if !report.moved.is_empty() {
        assert!(gk_c.stats().resident_profiles > 0, "node-c must host its captured keys");
    }
    let cont_rounds = if quick { 10 } else { 30 };
    let mut cont = Client::connect(raddr, nodelay);
    for tenant in fleet.iter_mut().flatten() {
        let path = format!("/v1/ingest/spark-app/{}", tenant.entity);
        drive_single(&mut cont, &path, tenant, cont_rounds, &mut body);
    }
    // Checkpoint audit through the router: migrated or not, every
    // tenant's checkpoint equals its twin byte for byte.
    for tenant in fleet.iter().flatten() {
        let (status, image) =
            cont.request("GET", &format!("/v1/checkpoint/spark-app/{}", tenant.entity), b"");
        assert_eq!(status, 200, "cluster checkpoint download failed for {}", tenant.entity);
        assert_eq!(
            image,
            tenant.twin.to_bytes(),
            "cluster checkpoint diverged for {}",
            tenant.entity
        );
    }
    let moved = report.moved.len();
    println!(
        "cluster: {routed_requests} routed requests over {fleet_entities} tenants x 2 nodes, \
         {routed_rps:.0} req/s routed vs {direct_rps:.0} req/s direct (scaling {scaling:.2} \
         on {workers} core(s))"
    );
    println!(
        "router hop: p50 {routed_p50}ns routed vs {direct_p50}ns direct (+{overhead_ns}ns); \
         {metered_requests} metered proxies, {proxy_allocs_per_request:.0} allocs/request"
    );
    println!(
        "shed/retry: {sheds} sheds, {burst_retries} client retries; rebalance: \
         {} tracked, {moved} moved, {} failed; fleet retries {fleet_retries}",
        report.tracked,
        report.failed.len()
    );
    rt.shutdown();
    gk_a.shutdown();
    gk_b.shutdown();
    gk_c.shutdown();
    let _ = std::fs::remove_dir_all(&cluster_base);

    let cluster_json = format!(
        "{{\n  \"nodes_initial\": 2,\n  \"nodes_final\": 3,\n  \"cores\": {workers},\n  \
         \"tenants\": {fleet_entities},\n  \"rounds_per_tenant\": {fleet_rounds},\n  \
         \"requests_routed\": {routed_requests},\n  \"bitwise_ok\": true,\n  \
         \"aggregate\": {{\"routed_rps_2node\": {routed_rps:.1}, \
         \"direct_rps_1node\": {direct_rps:.1}, \"scaling\": {scaling:.2}}},\n  \
         \"overhead\": {{\"direct_p50_ns\": {direct_p50}, \"routed_p50_ns\": {routed_p50}, \
         \"router_overhead_ns_p50\": {overhead_ns}}},\n  \
         \"proxy_allocs_per_request\": {proxy_allocs_per_request:.0},\n  \
         \"metered_proxy_requests\": {metered_requests},\n  \
         \"shed\": {{\"starved_router_sheds\": {sheds}, \
         \"client_retries_503\": {burst_retries}}},\n  \
         \"rebalance\": {{\"tracked\": {tracked}, \"moved\": {moved}, \"absent\": {absent}, \
         \"failed\": {failed}, \"bitwise_after_join\": true, \
         \"checkpoints_bitwise\": true}},\n  \
         \"notes\": \"Single-core Amdahl accounting: this box exposes {workers} CPU(s), so the \
         router, every gatekeeper, and every client thread timeshare the same core and routed \
         2-node aggregate throughput cannot exceed the direct 1-node rate (scaling above). The \
         router's contribution on such a box is what it does NOT cost: bounded per-hop overhead \
         (p50 above, budget 25us) and zero allocations on the warmed proxy path. The horizontal \
         win needs N cores or hosts; the consistent-hash ring plus checkpoint-driven rebalance \
         make that reachable with bitwise score continuity, which this phase verifies on every \
         request.\"\n}}\n",
        tracked = report.tracked,
        absent = report.absent,
        failed = report.failed.len(),
    );
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let cluster_path = dir.join("BENCH_cluster.json");
    std::fs::write(&cluster_path, cluster_json).expect("write BENCH_cluster.json");
    println!("Wrote {}", cluster_path.display());

    // ------------------------------------------------------------ snapshot
    let json = format!(
        "{{\n  \"entities\": {entities},\n  \"clients\": {clients},\n  \
         \"records_per_entity\": {records_per_entity},\n  \"requests\": {total_requests},\n  \
         \"elapsed_sec\": {elapsed:.3},\n  \"throughput_rps\": {throughput:.1},\n  \
         \"ingest_latency_ns\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \
         \"max\": {max}}},\n  \
         \"batch\": {{\"batch_size\": {BATCH}, \"records\": {batch_records}, \
         \"elapsed_sec\": {batch_elapsed:.3}, \"records_per_sec\": {batch_rps:.1}, \
         \"service_ns_per_record_single\": {single_ns_per_record:.0}, \
         \"service_ns_per_record_batch\": {batch_ns_per_record:.0}, \
         \"speedup_vs_single\": {batch_speedup:.2}, \
         \"per_method\": {{{per_method_json}}}, \
         \"unloaded_ewma\": {{\"single_ns\": {solo_single_ns}, \"batch_ns\": {solo_batch_ns}, \
         \"speedup\": {solo_speedup:.2}}}}},\n  \
         \"alloc\": {{\"ewma_allocs_per_request\": {ewma_allocs}, \
         \"knn_allocs_per_request\": {knn_allocs}, {pipeline_json}}},\n  \
         \"spill\": {{\"entities\": {spill_entities}, \"requests\": {spill_requests}, \
         \"spills\": {spills}, \"restores\": {restores}, \"throughput_rps\": {spill_rps:.1}, \
         \"bitwise_ok\": true}},\n  \
         \"checkpoint\": {{\"profiles\": {entities}, \"bytes_total\": {checkpoint_bytes}, \
         \"bitwise_ok\": true}},\n  \
         \"methods\": [{methods_json}],\n  \
         \"notes\": \"TCP_NODELAY set on server-accepted and client sockets; measured effect \
         of --no-nodelay (Nagle left on client side) is within run noise on p50/p99/max because \
         the request cycle issues exactly one write per message — the pre-striping two-write \
         cycle (head, then body) was the Nagle+delayed-ACK stall risk. Workers = available \
         cores; per-worker connection striping with bounded accept queues (503 + Retry-After \
         when saturated).\"\n}}\n",
        spills = g2.spills,
        restores = g2.restores,
        pipeline_json = pipeline_allocs
            .iter()
            .map(|(m, a)| format!("\"pipeline_{m}_allocs_per_request\": {a}"))
            .collect::<Vec<_>>()
            .join(", "),
        per_method_json = per_method
            .iter()
            .map(|(label, s, b, x)| format!(
                "\"{label}\": {{\"single_ns\": {s:.0}, \"batch_ns\": {b:.0}, \"speedup\": {x:.2}}}"
            ))
            .collect::<Vec<_>>()
            .join(", "),
        methods_json =
            methods.iter().map(|m| format!("\"{}\"", m.label())).collect::<Vec<_>>().join(", "),
    );
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_serving.json");
    std::fs::write(&path, json).expect("write BENCH_serving.json");
    println!("Wrote {}", path.display());
}
