//! End-to-end router smoke: a 2-node fleet behind the router tier must
//! be indistinguishable — byte for byte — from a single gatekeeper.
//!
//! Pinned here:
//! - every score through the router matches a local bitwise twin;
//! - proxied error bodies are byte-identical to the backend's direct
//!   response (the router forwards frames verbatim in both directions);
//! - joining a third node mid-stream drains checkpoints over, every
//!   tenant's score stream continues bitwise on its new owner, and every
//!   checkpoint read back through the router equals its twin's;
//! - rebalance lists keys from the nodes, so it moves exactly the keys
//!   the new node captures even after a router restart, for a profile
//!   put on a node directly, and for a tenant that lives only in a
//!   spill file;
//! - killing a backend yields typed `502`s immediately — never a hang —
//!   and the fleet keeps serving the surviving node's keys;
//! - saturation sheds with `503` + `Retry-After`, and a shed request is
//!   never applied: its retry scores bitwise what the twin gives.

use exathlon_ad::stream::StreamingEwma;
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::route::{RebalanceReport, Ring, Router, RouterConfig};
use exathlon_core::serve::{Gatekeeper, GatekeeperConfig};
use exathlon_core::spill::SpillDir;
use exathlon_core::wire::json_num;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::Scope;
use std::time::Duration;

fn profile() -> ServingProfile {
    ServingProfile::new(StreamingEwma::new(0.25, vec![1.0, 1.5, 0.5]).into(), 0.8)
}

fn gk_config(spill: Option<PathBuf>) -> GatekeeperConfig {
    GatekeeperConfig { workers: 2, spill_dir: spill, ..GatekeeperConfig::default() }
}

/// One request over a fresh connection; returns (status, body, head).
fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: smoke\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
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

/// The `retry-after` seconds of a response head.
fn retry_after(head: &str) -> u64 {
    head.lines()
        .find_map(|l| l.strip_prefix("retry-after: "))
        .expect("503 must carry retry-after")
        .trim()
        .parse()
        .unwrap()
}

fn score_of(body: &[u8]) -> f64 {
    let v = serde_json::parse_value(std::str::from_utf8(body).unwrap()).unwrap();
    json_num(v.get("score").unwrap()).unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exathlon-rsmoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_node_fleet_is_bitwise_and_survives_rebalance_and_node_death() {
    let base = tempdir("fleet");
    let gk_a = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-a")))).unwrap();
    let gk_b = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-b")))).unwrap();
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig::default(),
    )
    .unwrap();
    let addr = rt.local_addr();

    // --- Phase 1: install tenants and verify bitwise against twins.
    let mut twins = tenants(10);
    install(addr, &twins);
    for round in 0..6 {
        ingest_round(addr, &mut twins, round);
    }
    // The ring actually spread the tenants: both nodes host some.
    assert!(gk_a.stats().resident_profiles > 0, "node-a hosts nothing");
    assert!(gk_b.stats().resident_profiles > 0, "node-b hosts nothing");

    // --- Phase 2: proxied error bodies are byte-identical to direct.
    // Unknown profile: an entity no node hosts 404s identically through
    // the router and against a backend directly.
    let (ps, pbody, _) = call(addr, "POST", "/v1/ingest/spark/ghost", b"{\"record\":[1,2,3]}");
    let (ds, dbody, _) =
        call(gk_a.local_addr(), "POST", "/v1/ingest/spark/ghost", b"{\"record\":[1,2,3]}");
    assert_eq!(ps, 404);
    assert_eq!(ps, ds);
    assert_eq!(pbody, dbody, "proxied error body must be byte-identical to direct");
    // Malformed body: install a key directly on node-a (bypassing the
    // router) so both sides parse the same bad bytes past the lookup.
    let (s, _, _) =
        call(gk_a.local_addr(), "PUT", "/v1/profile/spark/direct-only", &profile().to_bytes());
    assert_eq!(s, 200);
    let (ps, pbody, _) = call(addr, "POST", "/v1/ingest/spark/run-0", b"{\"record\":");
    assert_eq!(ps, 400);
    let (ds, dbody, _) =
        call(gk_a.local_addr(), "POST", "/v1/ingest/spark/direct-only", b"{\"record\":");
    assert_eq!(ds, 400);
    assert_eq!(pbody, dbody, "malformed-body error must pass through unmodified");

    // --- Phase 3: join a third node mid-stream; checkpoints drain over
    // and every stream continues bitwise wherever it now lives.
    let gk_c = Gatekeeper::bind("127.0.0.1:0", gk_config(Some(base.join("node-c")))).unwrap();
    let report = rt.add_backend("node-c", gk_c.local_addr()).unwrap();
    // The ten routed tenants plus `direct-only`, put on node-a in phase 2.
    assert_eq!(report.listed, 11);
    assert!(report.unlisted.is_empty(), "{:?}", report.unlisted);
    assert!(report.failed.is_empty(), "migrations must not fail: {:?}", report.failed);
    assert!(!report.moved.is_empty(), "adding a node must capture some keys");
    assert!(
        report.moved.len() < 10,
        "adding one node of three must not move every key (moved {})",
        report.moved.len()
    );
    for round in 0..4 {
        for (name, twin) in &mut twins {
            let rec = [0.1 * round as f64, -0.3, (round as f64).cos()];
            let (want, _) = twin.ingest(&rec);
            let body = ingest_body(&rec);
            let (status, resp, _) =
                call(addr, "POST", &format!("/v1/ingest/spark/{name}"), body.as_bytes());
            assert_eq!(status, 200, "{name} after rebalance");
            assert_eq!(
                score_of(&resp).to_bits(),
                want.to_bits(),
                "{name} diverged after the node-c join"
            );
        }
    }
    assert!(gk_c.stats().resident_profiles > 0, "node-c must host its captured keys");
    // Migrated or not, every checkpoint read through the router is its
    // twin's image, byte for byte.
    audit(addr, &twins);

    // --- Phase 4: kill node-c without draining. Its keys answer typed
    // 502s (never hangs); keys on surviving nodes keep scoring.
    let moved_to_c: Vec<String> = report.moved.iter().map(|(_, e)| e.clone()).collect();
    gk_c.shutdown();
    for (name, twin) in &mut twins {
        let (want, _) = twin.ingest(&[0.0, 0.0, 0.0]);
        let (status, resp, _) =
            call(addr, "POST", &format!("/v1/ingest/spark/{name}"), b"{\"record\":[0,0,0]}");
        if moved_to_c.contains(name) {
            assert_eq!(status, 502, "{name} lives on the dead node: must be a typed 502");
            assert_eq!(resp, b"{\"error\":\"upstream unavailable\"}");
        } else {
            assert_eq!(status, 200, "{name} lives on a survivor: must keep scoring");
            assert_eq!(score_of(&resp).to_bits(), want.to_bits());
        }
    }
    assert!(rt.stats().upstream_errors > 0);

    rt.shutdown();
    gk_a.shutdown();
    gk_b.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn saturation_sheds_with_retry_after_contract() {
    // max_inflight 0 makes every keyed request shed — the point is the
    // response contract: 503 + retry-after + JSON body.
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let config = RouterConfig { max_inflight_per_backend: 0, ..RouterConfig::default() };
    let rt = Router::bind("127.0.0.1:0", &[("n", dead)], config).unwrap();
    let (status, body, head) = call(rt.local_addr(), "POST", "/v1/ingest/a/b", b"{\"record\":[1]}");
    assert_eq!(status, 503);
    assert!(retry_after(&head) >= 1);
    assert_eq!(body, b"{\"error\":\"backend saturated\"}");
    assert_eq!(rt.stats().shed, 1);
    rt.shutdown();
}

/// A test-only TCP relay between the router and one backend. While it is
/// held, request bytes reach the relay but not the backend: the router's
/// exchange stays in flight, as behind a stalled backend, until the test
/// releases it. Responses flow back untouched.
#[derive(Default)]
struct Relay {
    /// Whether the relay is held, and the request chunks read so far.
    state: Mutex<(bool, u64)>,
    cv: Condvar,
    stop: AtomicBool,
}

impl Relay {
    /// Accept the router's upstream connections until [`StopRelay`],
    /// with one pump thread per direction and connection.
    fn run<'s>(&'s self, scope: &'s Scope<'s, '_>, listener: TcpListener, backend: SocketAddr) {
        for down in listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let down = down.unwrap();
            let up = TcpStream::connect(backend).unwrap();
            let (mut up_r, mut down_w) = (up.try_clone().unwrap(), down.try_clone().unwrap());
            scope.spawn(move || {
                let _ = std::io::copy(&mut up_r, &mut down_w);
                let _ = down_w.shutdown(Shutdown::Write);
            });
            scope.spawn(move || self.pump(down, up));
        }
    }

    /// Copy router → backend, parking every chunk while the relay is held.
    fn pump(&self, mut from: TcpStream, mut to: TcpStream) {
        let mut buf = vec![0u8; 64 << 10];
        while let Ok(n @ 1..) = from.read(&mut buf) {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.cv.notify_all();
            drop(self.cv.wait_while(state, |s| s.0).unwrap());
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    fn set_held(&self, held: bool) {
        self.state.lock().unwrap().0 = held;
        self.cv.notify_all();
    }

    fn seen(&self) -> u64 {
        self.state.lock().unwrap().1
    }

    /// Block until the relay has read `n` request chunks in total.
    fn wait_seen(&self, n: u64) {
        let state = self.state.lock().unwrap();
        let timeout = Duration::from_secs(10);
        let (state, _) = self.cv.wait_timeout_while(state, timeout, |s| s.1 < n).unwrap();
        let seen = state.1;
        drop(state);
        assert!(seen >= n, "the relay never saw the request");
    }
}

/// Releases the relay and ends [`Relay::run`] when dropped, also when a
/// failed assertion unwinds, so the scope joining the relay's threads
/// cannot hang: the wake-up connection finds the stop flag set.
struct StopRelay<'a>(&'a Relay, SocketAddr);

impl Drop for StopRelay<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.state.lock().unwrap_or_else(|e| e.into_inner()).0 = false;
        self.0.cv.notify_all();
        drop(TcpStream::connect(self.1));
    }
}

fn ingest_body(rec: &[f64; 3]) -> String {
    format!("{{\"record\":[{},{},{}]}}", rec[0], rec[1], rec[2])
}

/// Tenants `spark/run-{i}` with fresh twins.
fn tenants(n: usize) -> Vec<(String, ServingProfile)> {
    (0..n).map(|i| (format!("run-{i}"), profile())).collect()
}

fn install(addr: SocketAddr, twins: &[(String, ServingProfile)]) {
    for (name, twin) in twins {
        let (status, _, _) =
            call(addr, "PUT", &format!("/v1/profile/spark/{name}"), &twin.to_bytes());
        assert_eq!(status, 200, "install {name}");
    }
}

/// One record into every tenant through `addr`, each score bitwise its
/// twin's.
fn ingest_round(addr: SocketAddr, twins: &mut [(String, ServingProfile)], round: usize) {
    let rec = [round as f64 * 0.7 - 1.0, (round as f64).sin(), 0.25];
    for (name, twin) in twins {
        let (want, _) = twin.ingest(&rec);
        let (status, resp, _) =
            call(addr, "POST", &format!("/v1/ingest/spark/{name}"), ingest_body(&rec).as_bytes());
        assert_eq!(status, 200, "{name} round {round}: {}", String::from_utf8_lossy(&resp));
        assert_eq!(score_of(&resp).to_bits(), want.to_bits(), "{name} diverged at round {round}");
    }
}

/// Every checkpoint read through `addr` is its twin's image.
fn audit(addr: SocketAddr, twins: &[(String, ServingProfile)]) {
    for (name, twin) in twins {
        let (status, image, _) = call(addr, "GET", &format!("/v1/checkpoint/spark/{name}"), b"");
        assert_eq!(status, 200, "{name}: checkpoint");
        assert_eq!(image, twin.to_bytes(), "{name}: checkpoint diverged from its twin");
    }
}

/// The entity names a node lists on `GET /v1/keys`.
fn listed_entities(node: SocketAddr) -> Vec<String> {
    let (status, body, _) = call(node, "GET", "/v1/keys", b"");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let doc = serde_json::parse_value(std::str::from_utf8(&body).unwrap()).unwrap();
    let keys = doc.get("keys").unwrap().as_array().unwrap();
    keys.iter().map(|k| k.as_array().unwrap()[1].as_str().unwrap().to_string()).collect()
}

/// The entities among `names` that `node-c` captures when it joins
/// `node-a` and `node-b` (rings with the router's default virtual nodes).
fn captured_by_c<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let ring = Ring::build(["node-a", "node-b", "node-c"], RouterConfig::default().vnodes);
    names.into_iter().filter(|n| ring.owner("spark", n) == Some(2)).map(String::from).collect()
}

/// A node-c join moved exactly `want`, with nothing failed or unlisted.
fn assert_moved(report: &RebalanceReport, want: &[String]) {
    assert!(report.failed.is_empty() && report.unlisted.is_empty(), "{report:?}");
    assert!(!want.is_empty(), "node-c must capture some tenant");
    let mut moved: Vec<String> = report.moved.iter().map(|(_, e)| e.clone()).collect();
    moved.sort();
    let mut want = want.to_vec();
    want.sort();
    assert_eq!(moved, want, "a join must move exactly the keys node-c captures");
}

#[test]
fn rebalance_after_a_router_restart_moves_every_captured_tenant() {
    let gk_a = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let gk_b = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let nodes = [("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())];
    let mut twins = tenants(10);
    let r1 = Router::bind("127.0.0.1:0", &nodes, RouterConfig::default()).unwrap();
    install(r1.local_addr(), &twins);
    for round in 0..3 {
        ingest_round(r1.local_addr(), &mut twins, round);
    }
    r1.shutdown();

    // A fresh router has seen none of the traffic that installed them.
    let r2 = Router::bind("127.0.0.1:0", &nodes, RouterConfig::default()).unwrap();
    let gk_c = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let report = r2.add_backend("node-c", gk_c.local_addr()).unwrap();
    assert_eq!(report.listed, 10);
    assert_moved(&report, &captured_by_c(twins.iter().map(|(n, _)| n.as_str())));
    for round in 3..6 {
        ingest_round(r2.local_addr(), &mut twins, round);
    }
    audit(r2.local_addr(), &twins);
    r2.shutdown();
    for gk in [gk_a, gk_b, gk_c] {
        gk.shutdown();
    }
}

#[test]
fn a_profile_put_directly_on_its_node_migrates_on_join() {
    let gk_a = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let gk_b = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig::default(),
    )
    .unwrap();
    // An entity node-c will capture, put on its current owner directly.
    let names: Vec<String> = (0..64).map(|i| format!("direct-{i}")).collect();
    let name = captured_by_c(names.iter().map(String::as_str)).swap_remove(0);
    let two = Ring::build(["node-a", "node-b"], RouterConfig::default().vnodes);
    let at = two.owner("spark", &name).unwrap() as usize;
    let (owner, other) = ([&gk_a, &gk_b][at].local_addr(), [&gk_a, &gk_b][1 - at].local_addr());
    let mut twins = vec![(name, profile())];
    install(owner, &twins);
    // A stale copy on the node that does not own the key, as a failed
    // migration DELETE would leave: it must not move over the live one.
    install(other, &twins);
    for round in 0..3 {
        ingest_round(owner, &mut twins, round);
    }

    let gk_c = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let report = rt.add_backend("node-c", gk_c.local_addr()).unwrap();
    assert_moved(&report, &[twins[0].0.clone()]);
    for round in 3..6 {
        ingest_round(rt.local_addr(), &mut twins, round);
    }
    audit(rt.local_addr(), &twins);
    rt.shutdown();
    for gk in [gk_a, gk_b, gk_c] {
        gk.shutdown();
    }
}

#[test]
fn a_spilled_tenant_is_listed_migrated_and_continues_bitwise() {
    let base = tempdir("spilled");
    // One byte per shard and one shard: each node keeps only its most
    // recently touched tenant resident, every other one is a spill file.
    let tight = |node: &str| GatekeeperConfig {
        shards: 1,
        budget_bytes_per_shard: 1,
        ..gk_config(Some(base.join(node)))
    };
    let gk_a = Gatekeeper::bind("127.0.0.1:0", tight("node-a")).unwrap();
    let gk_b = Gatekeeper::bind("127.0.0.1:0", tight("node-b")).unwrap();
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig::default(),
    )
    .unwrap();
    let mut twins = tenants(10);
    install(rt.local_addr(), &twins);
    for round in 0..3 {
        ingest_round(rt.local_addr(), &mut twins, round);
    }
    let captured = captured_by_c(twins.iter().map(|(n, _)| n.as_str()));
    let spilled = |name: &str| {
        ["node-a", "node-b"].iter().any(|node| {
            SpillDir::create(base.join(node)).unwrap().file_path("spark", name).exists()
        })
    };
    assert!(captured.iter().any(|n| spilled(n)), "node-c must capture a spilled tenant");
    let mut listed: Vec<String> =
        [&gk_a, &gk_b].iter().flat_map(|gk| listed_entities(gk.local_addr())).collect();
    listed.sort();
    let mut names: Vec<String> = twins.iter().map(|(n, _)| n.clone()).collect();
    names.sort();
    assert_eq!(listed, names, "the nodes must list every tenant, spilled ones included");

    let gk_c = Gatekeeper::bind("127.0.0.1:0", tight("node-c")).unwrap();
    let io = |gk: &Gatekeeper| {
        let s = gk.gate_stats();
        (s.restores, s.spills)
    };
    let before = [io(&gk_a), io(&gk_b)];
    let report = rt.add_backend("node-c", gk_c.local_addr()).unwrap();
    assert_eq!(report.listed, 10, "spilled tenants must be listed");
    assert_moved(&report, &captured);
    // Moving a spilled tenant reads its image; the old owner neither
    // restores it nor spills a resident tenant to make room.
    assert_eq!([io(&gk_a), io(&gk_b)], before, "(restores, spills) of the old owners");
    for round in 3..6 {
        ingest_round(rt.local_addr(), &mut twins, round);
    }
    audit(rt.local_addr(), &twins);
    rt.shutdown();
    for gk in [gk_a, gk_b, gk_c] {
        gk.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shed_request_is_never_applied_and_its_retry_scores_bitwise() {
    // One in-flight slot, held by a stalled exchange: the shed is certain.
    let gk = Gatekeeper::bind("127.0.0.1:0", gk_config(None)).unwrap();
    let (relay, listener) = (Relay::default(), TcpListener::bind("127.0.0.1:0").unwrap());
    let relay_addr = listener.local_addr().unwrap();
    let config = RouterConfig { max_inflight_per_backend: 1, ..RouterConfig::default() };
    let rt = Router::bind("127.0.0.1:0", &[("n", relay_addr)], config).unwrap();
    let addr = rt.local_addr();
    let ingest =
        |rec: &[f64; 3]| call(addr, "POST", "/v1/ingest/spark/held", ingest_body(rec).as_bytes());
    let mut twin = profile();
    let (first, second) = ([0.5, -1.0, 2.0], [1.5, 0.25, -0.75]);
    std::thread::scope(|scope| {
        let relay = &relay;
        let backend = gk.local_addr();
        scope.spawn(move || relay.run(scope, listener, backend));
        let _stop = StopRelay(relay, relay_addr);
        let (status, _, _) = call(addr, "PUT", "/v1/profile/spark/held", &twin.to_bytes());
        assert_eq!(status, 200);

        let seen = relay.seen();
        relay.set_held(true);
        let held = scope.spawn(|| ingest(&first));
        relay.wait_seen(seen + 1);
        // The stalled exchange holds the slot: the next request is shed.
        let (status, body, head) = ingest(&second);
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        assert!(retry_after(&head) >= 1);
        assert_eq!(body, b"{\"error\":\"backend saturated\"}");
        relay.set_held(false);
        let (status, body, _) = held.join().unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let (want, _) = twin.ingest(&first);
        assert_eq!(score_of(&body).to_bits(), want.to_bits(), "stalled request diverged");
        assert_eq!(rt.stats().shed, 1);

        // The retry scores as if the shed request had never arrived, and
        // the checkpoint holds exactly the twin's two records.
        let (status, body, _) = ingest(&second);
        assert_eq!(status, 200);
        let (want, _) = twin.ingest(&second);
        assert_eq!(score_of(&body).to_bits(), want.to_bits(), "retry after a shed diverged");
        let (status, image, _) = call(addr, "GET", "/v1/checkpoint/spark/held", b"");
        assert_eq!(status, 200);
        assert_eq!(image, twin.to_bytes(), "a shed request must leave no trace");
        rt.shutdown();
        gk.shutdown();
    });
}

#[test]
fn router_shutdown_is_prompt() {
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let rt = Router::bind("127.0.0.1:0", &[("n", dead)], RouterConfig::default()).unwrap();
    let addr = rt.local_addr();
    let started = std::time::Instant::now();
    rt.shutdown();
    assert!(started.elapsed() < Duration::from_secs(2), "shutdown took {:?}", started.elapsed());
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may still accept briefly; a read must see EOF fast.
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}
