//! The serving tests' shared harness: one keep-alive HTTP/1.1 client,
//! a tenant that streams records through it against a local bitwise
//! twin, and detectors fitted on the replay driver's own data path.
//!
//! Each file under `tests/common/` is a module of its own: a test crate
//! includes the ones it calls as `mod common { pub mod serving; }`, so
//! no crate builds a helper it never uses.

use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::{ExperimentConfig, StreamMethod};
use exathlon_core::experiment::prepare;
use exathlon_core::model::TrainingBudget;
use exathlon_core::replay::{build_servable, replay_series, stream_seed};
use exathlon_core::wire::{parse_head, HeadParse};
use exathlon_linalg::stats::quantile;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsdata::TimeSeries;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a request may go without progress before the client fails.
const STALL: Duration = Duration::from_secs(10);

/// One keep-alive connection with sequential request/response over
/// reused buffers: one `write` per request. The socket is nonblocking
/// and the client yields between polls instead of sleeping, so its core
/// stays awake: on a virtual machine an idle vCPU wakes late, and a
/// sleeping client would charge that wake-up to the server (perfbench's
/// load generator polls the same way).
pub struct Client {
    stream: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    tmp: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("set nodelay");
        stream.set_nonblocking(true).expect("set nonblocking");
        Self { stream, req: Vec::new(), resp: Vec::new(), tmp: vec![0u8; 64 << 10] }
    }

    /// One exchange: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, &[u8]) {
        self.req.clear();
        let _ = write!(
            self.req,
            "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.req.extend_from_slice(body);
        let mut sent = 0;
        let mut last = Instant::now();
        while sent < self.req.len() {
            match self.stream.write(&self.req[sent..]) {
                Ok(n) => (sent, last) = (sent + n, Instant::now()),
                Err(e) => idle(e, last, "write request"),
            }
        }
        self.resp.clear();
        loop {
            // A status line tokenizes like a request line: the code
            // lands in the `path` span.
            match parse_head(&self.resp, 64 << 10) {
                HeadParse::Complete(h) if self.resp.len() >= h.head_len + h.content_length => {
                    let code = std::str::from_utf8(&self.resp[h.path.0..h.path.1]).expect("status");
                    let status = code.parse().expect("numeric status");
                    return (status, &self.resp[h.head_len..h.head_len + h.content_length]);
                }
                HeadParse::Complete(_) | HeadParse::Partial => {}
                other => panic!("malformed response head: {other:?}"),
            }
            match self.stream.read(&mut self.tmp) {
                Ok(0) => panic!("server closed mid-response"),
                Ok(n) => {
                    self.resp.extend_from_slice(&self.tmp[..n]);
                    last = Instant::now();
                }
                Err(e) => idle(e, last, "read response"),
            }
        }
    }
}

/// A nonblocking call that would block: yield, unless the socket failed
/// or has made no progress since `last` for [`STALL`].
fn idle(e: std::io::Error, last: Instant, what: &str) {
    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "{what}: {e}");
    assert!(last.elapsed() < STALL, "{what}: no progress for {STALL:?}");
    std::thread::yield_now();
}

/// `{"record":[...]}` into a reused buffer: shortest-roundtrip floats,
/// non-finite values as `null`.
pub fn record_body(out: &mut String, record: &[f64]) {
    out.clear();
    out.push_str("{\"record\":[");
    write_values(out, record);
    out.push_str("]}");
}

pub fn write_values(out: &mut String, values: &[f64]) {
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

/// The `"score"` of an ingest response (`null` reads as NaN).
pub fn score_of(body: &[u8]) -> f64 {
    let text = std::str::from_utf8(body).expect("UTF-8 response");
    let rest = text.split("\"score\":").nth(1).expect("score field");
    score_token(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

pub fn score_token(token: &str) -> f64 {
    if token == "null" {
        f64::NAN
    } else {
        token.parse().expect("score parses")
    }
}

/// A tenant served as `spark-app/{entity}` and its local twin: every
/// served score must equal the twin's, bit for bit.
pub struct Tenant {
    pub entity: String,
    pub twin: ServingProfile,
    records: Vec<Vec<f64>>,
    next: usize,
    body: String,
}

impl Tenant {
    /// PUT `twin` as the tenant's profile.
    pub fn install(
        client: &mut Client,
        entity: &str,
        twin: ServingProfile,
        records: Vec<Vec<f64>>,
    ) -> Self {
        let (status, _) =
            client.request("PUT", &format!("/v1/profile/spark-app/{entity}"), &twin.to_bytes());
        assert_eq!(status, 200, "profile upload failed for {entity}");
        Self { entity: entity.to_string(), twin, records, next: 0, body: String::new() }
    }

    /// Stream the next `count` records through `/v1/ingest`, asserting
    /// every score bitwise against the twin. Returns the summed service
    /// time (request write to response read); body building and twin
    /// scoring stay off the clock.
    pub fn ingest(&mut self, client: &mut Client, count: usize) -> Duration {
        let path = format!("/v1/ingest/spark-app/{}", self.entity);
        let mut spent = Duration::ZERO;
        for _ in 0..count {
            let i = self.next % self.records.len();
            self.next += 1;
            record_body(&mut self.body, &self.records[i]);
            let t0 = Instant::now();
            let (status, resp) = client.request("POST", &path, self.body.as_bytes());
            spent += t0.elapsed();
            assert_eq!(status, 200, "ingest failed for {}", self.entity);
            let got = score_of(resp);
            let (want, _) = self.twin.ingest(&self.records[i]);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "served score diverged for {}: {got} vs {want}",
                self.entity
            );
        }
        spent
    }

    /// The served checkpoint equals the twin's image, byte for byte.
    pub fn audit(&self, client: &mut Client) {
        let path = format!("/v1/checkpoint/spark-app/{}", self.entity);
        let (status, image) = client.request("GET", &path, b"");
        assert_eq!(status, 200, "checkpoint download failed for {}", self.entity);
        assert_eq!(image, self.twin.to_bytes(), "checkpoint diverged for {}", self.entity);
    }
}

/// The replay driver's data path on `tiny(11)`: the transformed
/// training traces and the records of every transformed test trace.
pub fn prepared() -> (Vec<TimeSeries>, Vec<Vec<Vec<f64>>>) {
    let ds = DatasetBuilder::tiny(11).build();
    let (_transform, train, tests) = prepare(&ds, &ExperimentConfig::default());
    assert!(!tests.is_empty(), "no test traces");
    let records = tests.iter().map(|t| t.series.records().map(<[f64]>::to_vec).collect()).collect();
    (train, records)
}

/// A `method` profile fitted on `train` as the replay driver fits it,
/// thresholded at the 0.99 quantile of its own scores over `train[0]`.
pub fn fitted(method: StreamMethod, train: &[TimeSeries]) -> ServingProfile {
    let config = ExperimentConfig::default();
    let det = build_servable(
        method,
        train,
        config.threshold_holdout,
        TrainingBudget::Quick,
        stream_seed(config.seed, method),
    );
    let threshold = quantile(&replay_series(&mut det.clone(), &train[0]), 0.99);
    ServingProfile::new(det, threshold)
}
