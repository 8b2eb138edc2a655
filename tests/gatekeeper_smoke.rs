//! Gatekeeper smoke test: the serving layer end to end over real
//! pipeline artifacts. Fit detectors exactly as the replay driver does,
//! upload them as checkpoints to a gatekeeper on an ephemeral port,
//! stream a transformed sparksim test trace through `/v1/ingest`, and
//! assert every served score is **bitwise** equal to a locally driven
//! twin — then download the checkpoint and confirm it equals the twin's
//! snapshot byte for byte. CI runs this as part of tier-1.

mod common {
    pub mod serving;
}

use common::serving::{fitted, prepared, record_body, score_of, Client, Tenant};
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::StreamMethod;
use exathlon_core::serve::{Gatekeeper, GatekeeperConfig};
use serde_json::Value;

#[test]
fn served_scores_match_local_twin_bitwise() {
    // The replay driver's own data path: simulate, partition, transform.
    let (train, tests) = prepared();
    let test = tests.iter().max_by_key(|t| t.len()).expect("no test traces");
    let n = test.len().min(60);

    let gk =
        Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).expect("bind ephemeral port");
    let addr = gk.local_addr();
    let mut client = Client::connect(addr);

    for (entity, method) in [("exec-ewma", StreamMethod::Ewma), ("exec-knn", StreamMethod::Knn)] {
        // Stream the trace; every served score must equal the local twin,
        // and the downloaded checkpoint is the advanced state, byte for byte.
        let mut tenant =
            Tenant::install(&mut client, entity, fitted(method, &train), test[..n].to_vec());
        tenant.ingest(&mut client, n);
        tenant.audit(&mut client);

        // And that image, the twin's byte for byte, restores to a
        // profile that keeps agreeing.
        let local = &mut tenant.twin;
        let mut restored =
            ServingProfile::from_bytes(&local.to_bytes()).expect("restore checkpoint");
        for (i, record) in test.iter().enumerate().take(n + 10).skip(n) {
            let (a, _) = local.ingest(record);
            let (b, _) = restored.ingest(record);
            assert_eq!(a.to_bits(), b.to_bits(), "{method:?}: restored twin diverged at {i}");
        }
    }

    let (status, body) = client.request("GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let v = serde_json::parse_value(std::str::from_utf8(body).unwrap()).unwrap();
    assert_eq!(v.get("insertions"), Some(&Value::Int(2)), "stats: {v:?}");
    assert_eq!(v.get("resident_profiles"), Some(&Value::Int(2)));

    gk.shutdown();
}

/// Concurrent writers to ONE entity must serialize: with N keep-alive
/// clients hammering the same `(app, entity)`, the served scores must be
/// bitwise-explainable as SOME sequential interleaving of the clients'
/// request sequences (each client's own order preserved — HTTP gives it
/// no less), and the final checkpoint must be the end state of that
/// same interleaving. This pins the shard-lock serialization contract:
/// no lost updates, no torn detector state, no score computed against a
/// half-applied neighbor.
#[test]
fn concurrent_same_entity_ingest_serializes() {
    use exathlon_ad::stream::StreamingEwma;

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 30;

    let profile = ServingProfile::new(StreamingEwma::new(0.3, vec![1.0, 2.0]).into(), 0.75);
    let gk =
        Gatekeeper::bind("127.0.0.1:0", GatekeeperConfig::default()).expect("bind ephemeral port");
    let addr = gk.local_addr();
    let mut setup = Client::connect(addr);
    let (status, _) =
        setup.request("PUT", "/v1/profile/spark-app/shared-exec", &profile.to_bytes());
    assert_eq!(status, 200, "profile upload failed");

    // Each client streams its own distinct record sequence and records
    // (record, served score bits) in its own request order.
    let streams: Vec<Vec<(Vec<f64>, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    (0..PER_CLIENT)
                        .map(|i| {
                            let record = vec![c as f64 + 1.0, i as f64 * 0.25 - c as f64];
                            let mut body = String::new();
                            record_body(&mut body, &record);
                            let (status, resp) = client.request(
                                "POST",
                                "/v1/ingest/spark-app/shared-exec",
                                body.as_bytes(),
                            );
                            assert_eq!(status, 200, "client {c} ingest {i} failed");
                            (record, score_of(resp).to_bits())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let (status, image) = setup.request("GET", "/v1/checkpoint/spark-app/shared-exec", b"");
    assert_eq!(status, 200, "checkpoint download failed");

    // Backtracking search over interleavings: at each step, any client
    // whose next served score matches a twin replay of its next record
    // may go next. Wrong branches die fast because the EWMA state (and
    // hence the score) shifts with every ingest.
    fn search(
        twin: &ServingProfile,
        streams: &[Vec<(Vec<f64>, u64)>],
        pos: &mut [usize],
        image: &[u8],
    ) -> bool {
        if pos.iter().enumerate().all(|(c, &p)| p == streams[c].len()) {
            return twin.to_bytes() == image;
        }
        for c in 0..streams.len() {
            if pos[c] < streams[c].len() {
                let (record, want) = &streams[c][pos[c]];
                let mut t = twin.clone();
                let (score, _) = t.ingest(record);
                if score.to_bits() == *want {
                    pos[c] += 1;
                    if search(&t, streams, pos, image) {
                        return true;
                    }
                    pos[c] -= 1;
                }
            }
        }
        false
    }
    let mut pos = vec![0usize; CLIENTS];
    assert!(
        search(&profile, &streams, &mut pos, image),
        "no sequential interleaving of the clients' requests explains the served \
         score stream and final checkpoint"
    );
    gk.shutdown();
}
