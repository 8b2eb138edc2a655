//! Serving-path timing gates. They measure wall-clock service time, so
//! they run in release builds only:
//!
//! ```sh
//! cargo test --release -q --test serving_timing -- --test-threads=1
//! ```
//!
//! - batch-32 `/v1/score` serves records at least 3x the single-record
//!   `/v1/ingest` rate on an unloaded EWMA tenant, whose cost is request
//!   overhead, the cost batching amortizes;
//! - the router hop adds at most 25 µs to the p50 of an unloaded
//!   single-record ingest.
//!
//! Both gates alternate the two sides one request at a time, so a
//! stretch of host noise lands on both, and compare pooled medians.
//! Every served score is still checked bitwise against a local twin;
//! body building and twin scoring stay off the clock.

mod common {
    pub mod serving;
}

use common::serving::{fitted, prepared, score_token, write_values, Client, Tenant};
use exathlon_core::config::StreamMethod;
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{Gatekeeper, GatekeeperConfig};
use std::time::{Duration, Instant};

/// `/v1/score` body size.
const BATCH: usize = 32;

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// `{"records":[[...],...]}` for a batch of rows.
fn batch_body(out: &mut String, rows: &[Vec<f64>]) {
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

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn batch_32_clears_3x_single_record_rate() {
    const WARM: usize = 16;
    const ROUNDS: usize = 256;
    let (train, tests) = prepared();
    let records: Vec<Vec<f64>> = tests[0].iter().take(BATCH * 8).cloned().collect();
    assert_eq!(records.len(), BATCH * 8, "test trace too short for full batches");
    let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig { workers: 2, ..Default::default() })
        .expect("bind gatekeeper");
    let mut client = Client::connect(gk.local_addr());
    let profile = fitted(StreamMethod::Ewma, &train);
    let mut tenant = Tenant::install(&mut client, "solo-EWMA", profile, records.clone());
    let score_path = format!("/v1/score/spark-app/{}", tenant.entity);

    let (mut single, mut batch) = (Vec::new(), Vec::new());
    let (mut body, mut chunks) = (String::new(), records.chunks(BATCH).cycle());
    for round in 0..WARM + ROUNDS {
        let single_ns = tenant.ingest(&mut client, 1);
        let chunk = chunks.next().expect("records");
        batch_body(&mut body, chunk);
        let t0 = Instant::now();
        let (status, resp) = client.request("POST", &score_path, body.as_bytes());
        let batch_ns = t0.elapsed();
        assert_eq!(status, 200, "batch score failed");
        let text = std::str::from_utf8(resp).expect("UTF-8 response");
        let list = text.split("\"scores\":[").nth(1).expect("scores field");
        let scores = list[..list.find(']').expect("closing bracket")].split(',');
        assert_eq!(scores.clone().count(), chunk.len(), "batch response length");
        for (record, got) in chunk.iter().zip(scores.map(score_token)) {
            let (want, _) = tenant.twin.ingest(record);
            assert_eq!(got.to_bits(), want.to_bits(), "batch score diverged");
        }
        if round >= WARM {
            single.push(single_ns);
            batch.push(batch_ns / chunk.len() as u32);
        }
    }
    tenant.audit(&mut client);
    gk.shutdown();

    let (single, batch) = (median(&mut single), median(&mut batch));
    let speedup = single.as_secs_f64() / batch.as_secs_f64();
    println!(
        "unloaded EWMA: {single:?} single vs {batch:?} batch-{BATCH} per record ({speedup:.1}x)"
    );
    assert!(
        speedup >= 3.0,
        "batch-{BATCH} must clear 3x the single-record service rate on unloaded EWMA, got \
         {speedup:.2}x ({single:?} vs {batch:?} per record)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn router_hop_p50_within_25us() {
    const WARM: usize = 128;
    const SAMPLES: usize = 2000;
    let (train, tests) = prepared();
    let records: Vec<Vec<f64>> = tests[0].iter().take(64).cloned().collect();
    let profile = fitted(StreamMethod::Ewma, &train);
    let gk = Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig { workers: 1, ..Default::default() })
        .expect("bind gatekeeper");
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk.local_addr())],
        RouterConfig { workers: 1, ..RouterConfig::default() },
    )
    .expect("bind router");
    let mut direct_client = Client::connect(gk.local_addr());
    let mut routed_client = Client::connect(rt.local_addr());
    let mut direct =
        Tenant::install(&mut direct_client, "probe-direct", profile.clone(), records.clone());
    let mut routed = Tenant::install(&mut routed_client, "probe-routed", profile, records);

    // One direct and one routed request in turn: both sides see the same
    // host state, and the one gatekeeper does the same work for each.
    let (mut direct_ns, mut routed_ns) = (Vec::new(), Vec::new());
    for i in 0..WARM + SAMPLES {
        let d = direct.ingest(&mut direct_client, 1);
        let r = routed.ingest(&mut routed_client, 1);
        if i >= WARM {
            direct_ns.push(d);
            routed_ns.push(r);
        }
    }
    direct.audit(&mut direct_client);
    routed.audit(&mut routed_client);
    rt.shutdown();
    gk.shutdown();

    let (direct_p50, routed_p50) = (median(&mut direct_ns), median(&mut routed_ns));
    let hop = routed_p50.saturating_sub(direct_p50);
    println!("router hop: p50 {routed_p50:?} routed vs {direct_p50:?} direct (+{hop:?})");
    assert!(
        hop <= Duration::from_micros(25),
        "router hop {hop:?} at p50 exceeds the 25 µs budget \
         (routed {routed_p50:?} vs direct {direct_p50:?})"
    );
}
