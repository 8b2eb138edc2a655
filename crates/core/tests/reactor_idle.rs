//! An idle serving worker must wait for readiness, not poll.
//!
//! With a keep-alive connection parked on it, a worker has something to
//! poll but nothing to do. It should sleep in its readiness wait and wake
//! only at the wait's 50 ms timeout, a handful of times in half a second.
//! A sleep-based backoff wakes hundreds of times in the same window. The
//! count comes from each worker thread's `voluntary_ctxt_switches` in
//! `/proc/self/task/*/status`, so this file holds a single test: no other
//! test's workers share the process while it counts.

use exathlon_ad::stream::StreamingEwma;
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{Gatekeeper, GatekeeperConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Idle window over which wake-ups are counted.
const WINDOW: Duration = Duration::from_millis(500);
/// Allowed voluntary context switches across the counted workers.
const MAX_SWITCHES: u64 = 50;

/// Sum of `voluntary_ctxt_switches` over this process's threads whose
/// name starts with `prefix`.
fn voluntary_switches(prefix: &str) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue; // the thread exited meanwhile
        };
        let field = |key: &str| {
            status.lines().find_map(|l| l.strip_prefix(key)).map(str::trim).unwrap_or_default()
        };
        if field("Name:").starts_with(prefix) {
            total += field("voluntary_ctxt_switches:").parse::<u64>().unwrap();
        }
    }
    total
}

/// Send one keep-alive request and read its whole response.
fn exchange(stream: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> u16 {
    let head =
        format!("{method} {path} HTTP/1.1\r\nhost: idle\r\ncontent-length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid response");
        raw.extend_from_slice(&chunk[..n]);
        let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
        let head = std::str::from_utf8(&raw[..at]).unwrap();
        let len: usize =
            head.lines().find_map(|l| l.strip_prefix("content-length: ")).unwrap().parse().unwrap();
        if raw.len() >= at + 4 + len {
            return head.split_whitespace().nth(1).unwrap().parse().unwrap();
        }
    }
}

/// Park a keep-alive connection that has just been served, then count
/// the `prefix` workers' wake-ups over the idle window.
fn switches_while_parked(addr: SocketAddr, prefix: &str) -> u64 {
    let mut parked = TcpStream::connect(addr).unwrap();
    let record = br#"{"record":[1,2]}"#;
    assert_eq!(exchange(&mut parked, "POST", "/v1/ingest/app/idle", record), 200);
    // Let any trailing yields finish before counting.
    std::thread::sleep(Duration::from_millis(100));
    let before = voluntary_switches(prefix);
    std::thread::sleep(WINDOW);
    voluntary_switches(prefix) - before
}

#[test]
fn idle_workers_wait_instead_of_polling() {
    let config = GatekeeperConfig { workers: 2, ..GatekeeperConfig::default() };
    let gk = Gatekeeper::bind("127.0.0.1:0", config).unwrap();
    let image = ServingProfile::new(StreamingEwma::new(0.3, vec![1.0, 2.0]).into(), 0.5).to_bytes();
    let mut setup = TcpStream::connect(gk.local_addr()).unwrap();
    assert_eq!(exchange(&mut setup, "PUT", "/v1/profile/app/idle", &image), 200);
    drop(setup);

    let gk_switches = switches_while_parked(gk.local_addr(), "gk-worker-");
    assert!(gk_switches < MAX_SWITCHES, "idle gatekeeper workers woke {gk_switches} times");

    let config = RouterConfig { workers: 2, ..RouterConfig::default() };
    let rt = Router::bind("127.0.0.1:0", &[("solo", gk.local_addr())], config).unwrap();
    // The proxied ingest also leaves a pooled upstream connection idle.
    let rt_switches = switches_while_parked(rt.local_addr(), "rt-worker-");
    assert!(rt_switches < MAX_SWITCHES, "idle router workers woke {rt_switches} times");
    rt.shutdown();
    gk.shutdown();
}
