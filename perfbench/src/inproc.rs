//! The traced run's in-process replay: a rung's exact request bytes go
//! through the public functions the gatekeeper (and, when routed, the
//! router's ring) calls, in the order it calls them, each call inside a
//! span. Every pieced-together score is checked bitwise against
//! `ServingProfile::ingest` on a twin.

use crate::report::{Report, SERVED_METHODS, TIMED_LAYERS};
use crate::serving::{gatekeeper_shape, NODE_LABELS};
use crate::trace::Recorder;
use crate::util::percentile;
use crate::workload::{fresh_twins, Op, Population, Rung, ServingSpec, Topology, Twins, APP};
use exathlon_ad::stream::StreamingDetector;
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::registry::{key_hash, EntityKey, ProfileRegistry};
use exathlon_core::route::{Ring, RouterConfig};
use exathlon_core::spill::SpillDir;
use exathlon_core::wire::{self, BodyParse, HeadParse};
use exathlon_linalg::codec::ByteWriter;
use std::path::Path;

/// Requests behind one CPU-time sample of [`InProc::replay`].
pub const REPLAY_CHUNK: usize = 250;

/// One gatekeeper's registry shards and spill tier.
struct Node {
    shards: Vec<ProfileRegistry>,
    spill: Option<SpillDir>,
}

pub struct InProc<'a> {
    pop: &'a Population,
    nodes: Vec<Node>,
    ring: Option<Ring>,
    pub rec: Recorder,
    twins: Twins,
    writer: ByteWriter,
    rows: Vec<f64>,
    row_ends: Vec<usize>,
    /// Scores of every replayed request of the current rung, in order.
    answers: Vec<(f64, bool)>,
    body: String,
    out: Vec<u8>,
    image_bytes: Vec<u64>,
    pub mismatches: u64,
    /// CPU seconds spent in spill-tier calls (file IO) so far.
    spill_cpu_s: f64,
    /// Duration of every replayed request's root span (traced replays).
    pub request_ns: Vec<u64>,
}

/// What one replayed request answered, kept for the twin check.
enum Answer {
    Failed,
    /// Its scores, `InProc::answers[from..to]`.
    Scores(usize, usize),
    /// A checkpoint image.
    Image(Vec<u8>),
    Done,
}

/// Run one spill-tier call, adding the CPU time it takes to `acc`.
fn spill_io<T>(acc: &mut f64, call: impl FnOnce() -> T) -> T {
    let t0 = crate::sys::thread_cpu_s();
    let out = call();
    *acc += crate::sys::thread_cpu_s() - t0;
    out
}

/// Span name of a method's detector tick.
fn update_span(method: &str) -> &'static str {
    match method {
        "EWMA" => "stream.update_ns.EWMA",
        "CUSUM" => "stream.update_ns.CUSUM",
        "Histogram" => "stream.update_ns.Histogram",
        "kNN" => "stream.update_ns.kNN",
        "LOF" => "stream.update_ns.LOF",
        "AE" => "stream.update_ns.AE",
        "SpectralResidual" => "stream.update_ns.SpectralResidual",
        _ => "stream.update_ns.other",
    }
}

impl<'a> InProc<'a> {
    pub fn new(
        spec: &ServingSpec,
        pop: &'a Population,
        spill_dir: &Path,
        rec: Recorder,
    ) -> Result<Self, String> {
        let (shards, budget) = gatekeeper_shape(spec, pop);
        let (count, spill, ring) = match spec.topology {
            Topology::Direct { spill, .. } => (1, spill, None),
            Topology::Routed => {
                (2, false, Some(Ring::build(NODE_LABELS, RouterConfig::default().vnodes)))
            }
        };
        let nodes = (0..count)
            .map(|i| {
                let spill = if spill {
                    let dir = spill_dir.join(format!("node-{i}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    Some(SpillDir::create(&dir).map_err(|e| format!("spill dir: {e}"))?)
                } else {
                    None
                };
                Ok(Node {
                    shards: (0..shards).map(|_| ProfileRegistry::new(budget)).collect(),
                    spill,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            pop,
            nodes,
            ring,
            rec,
            twins: fresh_twins(pop),
            writer: ByteWriter::new(),
            rows: Vec::new(),
            row_ends: Vec::new(),
            answers: Vec::new(),
            body: String::new(),
            out: Vec::new(),
            image_bytes: Vec::new(),
            mismatches: 0,
            spill_cpu_s: 0.0,
            request_ns: Vec::new(),
        })
    }

    /// The set-up uploads: encode on the client, decode and insert on the
    /// owning gatekeeper.
    pub fn upload_all(&mut self) {
        for t in 0..self.pop.tenants.len() {
            let root = self.rec.open("upload", None, t as u64);
            let profile = &self.pop.fitted[self.pop.tenants[t].fitted].profile;
            let s = self.rec.open("checkpoint.encode_ns", Some(root), t as u64);
            let image = profile.to_bytes();
            self.rec.close(s);
            self.image_bytes.push(image.len() as u64);
            self.put(root, t, &image);
            self.rec.close(root);
        }
    }

    fn node_of(&mut self, parent: usize, tenant: usize) -> usize {
        let Some(ring) = &self.ring else { return 0 };
        let entity = &self.pop.tenants[tenant].entity;
        let s = self.rec.open("route.ring_ns", Some(parent), 0);
        let owner = ring.owner(APP, entity);
        self.rec.close(s);
        owner.map_or(0, usize::from)
    }

    /// Write eviction victims to the node's spill tier.
    fn spill_victims(
        &mut self,
        parent: usize,
        node: usize,
        victims: Vec<(EntityKey, ServingProfile)>,
    ) {
        let Some(spill) = &self.nodes[node].spill else { return };
        for (key, profile) in victims {
            let s = self.rec.open("spill.spill_ns", Some(parent), 0);
            let _ = spill_io(&mut self.spill_cpu_s, || {
                spill.spill(&key.app, &key.entity, &profile, &mut self.writer)
            });
            self.rec.close(s);
        }
    }

    /// `PUT /v1/profile`: decode, insert (spilling victims), drop any
    /// older spill image.
    fn put(&mut self, parent: usize, tenant: usize, image: &[u8]) {
        let node = self.node_of(parent, tenant);
        let entity = &self.pop.tenants[tenant].entity;
        let s = self.rec.open("checkpoint.decode_ns", Some(parent), 0);
        let decoded = ServingProfile::from_bytes(image);
        self.rec.close(s);
        let Ok(profile) = decoded else {
            self.mismatches += 1;
            return;
        };
        let hash = key_hash(APP, entity);
        let shard = (hash % self.nodes[node].shards.len() as u64) as usize;
        let s = self.rec.open("registry.insert", Some(parent), 0);
        let victims = self.nodes[node].shards[shard].insert_hashed(
            hash,
            EntityKey::new(APP, entity.as_str()),
            profile,
            image.len(),
        );
        self.rec.close(s);
        self.spill_victims(parent, node, victims);
        if let Some(spill) = &self.nodes[node].spill {
            let _ = spill_io(&mut self.spill_cpu_s, || spill.remove(APP, entity));
        }
    }

    /// Restore a spilled profile into its shard (the gatekeeper's
    /// `try_restore`); returns whether one was restored.
    fn restore(
        &mut self,
        parent: usize,
        node: usize,
        shard: usize,
        hash: u64,
        entity: &str,
    ) -> bool {
        let Some(spill) = &self.nodes[node].spill else { return false };
        let s = self.rec.open("spill.restore_ns", Some(parent), 0);
        let restored = spill_io(&mut self.spill_cpu_s, || spill.restore(APP, entity));
        let Ok(Some((profile, bytes))) = restored else {
            self.rec.close(s);
            return false;
        };
        let victims = self.nodes[node].shards[shard].insert_hashed(
            hash,
            EntityKey::new(APP, entity),
            profile,
            bytes,
        );
        self.spill_victims(s, node, victims);
        if let Some(spill) = &self.nodes[node].spill {
            let _ = spill_io(&mut self.spill_cpu_s, || spill.remove(APP, entity));
        }
        self.rec.close(s);
        true
    }

    /// Replay a rung's requests; `base` offsets the request ids. Returns
    /// the CPU seconds this thread spent serving each run of
    /// [`REPLAY_CHUNK`] consecutive requests, spill-tier file IO left out;
    /// every answer is checked against the twins afterwards, outside that
    /// time.
    pub fn replay(&mut self, rung: &Rung, base: u64) -> Vec<f64> {
        self.answers.clear();
        let mut answered = Vec::with_capacity(rung.ops.len());
        let mut chunks = Vec::with_capacity(rung.ops.len() / REPLAY_CHUNK + 1);
        let (mut cpu0, mut io0) = (crate::sys::thread_cpu_s(), self.spill_cpu_s);
        for (i, (op, req)) in rung.ops.iter().zip(&rung.requests).enumerate() {
            let bytes = &rung.payload[req.bytes.0..req.bytes.1];
            let id = base + i as u64;
            let root = self.rec.open("request", None, id);
            answered.push(self.request(root, id, *op, bytes));
            self.rec.close(root);
            // A recorder that is off keeps no spans.
            if let Some(span) = self.rec.spans.get(root) {
                self.request_ns.push(span.end_ns - span.start_ns);
            }
            if (i + 1) % REPLAY_CHUNK == 0 || i + 1 == rung.ops.len() {
                let (cpu1, io1) = (crate::sys::thread_cpu_s(), self.spill_cpu_s);
                chunks.push(cpu1 - cpu0 - (io1 - io0));
                (cpu0, io0) = (cpu1, io1);
            }
        }
        for (op, answer) in rung.ops.iter().zip(answered) {
            if !self.check_twin(*op, answer) {
                self.mismatches += 1;
            }
        }
        chunks
    }

    fn request(&mut self, root: usize, id: u64, op: Op, bytes: &[u8]) -> Answer {
        let tenant = op.tenant();
        let s = self.rec.open("wire.parse_ns", Some(root), id);
        let HeadParse::Complete(head) = wire::parse_head(bytes, 64 << 10) else {
            self.rec.close(s);
            return Answer::Failed;
        };
        let body = &bytes[head.head_len..head.head_len + head.content_length];
        let batch = matches!(op, Op::Batch { .. });
        if matches!(op, Op::Ingest { .. } | Op::Batch { .. })
            && wire::parse_record_body(body, batch, &mut self.rows, &mut self.row_ends)
                == BodyParse::Fallback
            && wire::parse_record_body_slow(body, batch, &mut self.rows, &mut self.row_ends)
                .is_err()
        {
            self.rec.close(s);
            return Answer::Failed;
        }
        self.rec.close(s);
        match op {
            Op::Put { .. } => {
                self.put(root, tenant, body);
                Answer::Done
            }
            Op::Delete { .. } => {
                let node = self.node_of(root, tenant);
                let entity = &self.pop.tenants[tenant].entity;
                let hash = key_hash(APP, entity);
                let shard = (hash % self.nodes[node].shards.len() as u64) as usize;
                let s = self.rec.open("registry.lookup_ns", Some(root), id);
                let resident = self.nodes[node].shards[shard].remove_hashed(hash, APP, entity);
                self.rec.close(s);
                let imaged = self.nodes[node].spill.as_ref().is_some_and(|sp| {
                    spill_io(&mut self.spill_cpu_s, || sp.remove(APP, entity)).unwrap_or(false)
                });
                if resident.is_some() || imaged {
                    Answer::Done
                } else {
                    Answer::Failed
                }
            }
            Op::Get { .. } => {
                let node = self.node_of(root, tenant);
                let entity = self.pop.tenants[tenant].entity.as_str();
                let hash = key_hash(APP, entity);
                let shard = (hash % self.nodes[node].shards.len() as u64) as usize;
                let s = self.rec.open("registry.lookup_ns", Some(root), id);
                let resident =
                    self.nodes[node].shards[shard].peek_hashed(hash, APP, entity).is_some();
                self.rec.close(s);
                if !resident && !self.restore(root, node, shard, hash, entity) {
                    return Answer::Failed;
                }
                let s = self.rec.open("checkpoint.encode_ns", Some(root), id);
                let image = self.nodes[node].shards[shard]
                    .peek_hashed(hash, APP, entity)
                    .map(|p| p.to_bytes());
                self.rec.close(s);
                let Some(image) = image else { return Answer::Failed };
                self.image_bytes.push(image.len() as u64);
                Answer::Image(image)
            }
            Op::Ingest { .. } | Op::Batch { .. } => self.ingest(root, id, tenant, batch),
        }
    }

    fn ingest(&mut self, root: usize, id: u64, tenant: usize, batch: bool) -> Answer {
        let node = self.node_of(root, tenant);
        let entity = self.pop.tenants[tenant].entity.as_str();
        let method = update_span(self.pop.fitted[self.pop.tenants[tenant].fitted].method.label());
        let s = self.rec.open("registry.lookup_ns", Some(root), id);
        let hash = key_hash(APP, entity);
        let shard = (hash % self.nodes[node].shards.len() as u64) as usize;
        let resident = self.nodes[node].shards[shard].get_mut_hashed(hash, APP, entity).is_some();
        self.rec.close(s);
        if !resident && !self.restore(root, node, shard, hash, entity) {
            return Answer::Failed;
        }
        let Self { nodes, rec, rows, row_ends, answers, .. } = self;
        let Some(profile) = nodes[node].shards[shard].get_mut_hashed(hash, APP, entity) else {
            return Answer::Failed;
        };
        let from = answers.len();
        let mut start = 0;
        for &end in row_ends.iter() {
            let record = &rows[start..end];
            start = end;
            let projected = profile.pca.as_ref().map(|pca| {
                let s = rec.open("pca.transform_ns", Some(root), id);
                let v = pca.transform_row(record);
                rec.close(s);
                v
            });
            let record = projected.as_deref().unwrap_or(record);
            let scaled = profile.scaler.as_mut().map(|scaler| {
                let s = rec.open("scale.update_ns", Some(root), id);
                let v = scaler.transform_and_update(record);
                rec.close(s);
                v
            });
            let record = scaled.as_deref().unwrap_or(record);
            let s = rec.open(method, Some(root), id);
            let score = profile.detector.update(record);
            rec.close(s);
            answers.push((score, score > profile.threshold));
        }
        let to = answers.len();
        let s = self.rec.open("wire.format_ns", Some(root), id);
        self.body.clear();
        if batch {
            wire::write_batch_scores(&mut self.body, &self.answers[from..to]);
        } else {
            let (score, flag) = self.answers[from];
            wire::write_single_score(&mut self.body, score, flag);
        }
        self.out.clear();
        wire::write_head(&mut self.out, 200, "application/json", self.body.len(), true);
        self.out.extend_from_slice(self.body.as_bytes());
        self.rec.close(s);
        Answer::Scores(from, to)
    }

    /// Advance the twin through the same operation and compare.
    fn check_twin(&mut self, op: Op, answer: Answer) -> bool {
        let tenant = op.tenant();
        let trace = &self.pop.traces[self.pop.tenants[tenant].trace];
        let same = |got: &(f64, bool), want: (f64, bool)| {
            got.0.to_bits() == want.0.to_bits() && got.1 == want.1
        };
        match (op, answer) {
            (_, Answer::Failed) => false,
            (Op::Ingest { rec, .. }, Answer::Scores(from, to)) => {
                self.twins[tenant].as_mut().is_some_and(|t| {
                    to == from + 1 && same(&self.answers[from], t.ingest(&trace[rec as usize]))
                })
            }
            (Op::Batch { rec, .. }, Answer::Scores(from, to)) => {
                let Some(t) = self.twins[tenant].as_mut() else { return false };
                to - from == crate::workload::BATCH
                    && self
                        .pop
                        .batch_records(tenant, rec as usize)
                        .zip(&self.answers[from..to])
                        .all(|(r, got)| same(got, t.ingest(r)))
            }
            (Op::Get { .. }, Answer::Image(image)) => {
                self.twins[tenant].as_ref().is_some_and(|t| t.to_bytes() == image)
            }
            (Op::Put { .. }, Answer::Done) => {
                self.twins[tenant] =
                    Some(self.pop.fitted[self.pop.tenants[tenant].fitted].profile.clone());
                true
            }
            (Op::Delete { .. }, Answer::Done) => self.twins[tenant].take().is_some(),
            _ => false,
        }
    }

    /// Per-layer timings and allocation counts into the report.
    pub fn report_layers(&self, report: &mut Report) {
        let layers = self.rec.layers();
        let timed = |report: &mut Report, name: &str| {
            let Some(l) = layers.get(name) else { return };
            let mut ns = l.self_ns.clone();
            ns.sort_unstable();
            report.set(format!("{name}.p50"), percentile(&ns, 0.5) as f64);
            report.set(format!("{name}.p99"), percentile(&ns, 0.99) as f64);
            report.set(format!("{name}.calls"), ns.len() as f64);
        };
        let mean_allocs = |name: &str| {
            layers.get(name).map(|l| {
                l.self_allocs.iter().sum::<u64>() as f64 / l.self_allocs.len().max(1) as f64
            })
        };
        for &(name, _) in TIMED_LAYERS {
            timed(report, name);
        }
        for m in SERVED_METHODS {
            let name = update_span(m);
            timed(report, name);
            if let Some(a) = mean_allocs(name) {
                report.set(format!("stream.allocs.{m}"), a);
            }
        }
        if let Some(a) = mean_allocs("pca.transform_ns") {
            report.set("pca.allocs", a);
        }
        if let Some(a) = mean_allocs("scale.update_ns") {
            report.set("scale.allocs", a);
        }
        if !self.image_bytes.is_empty() {
            report.set(
                "checkpoint.bytes",
                self.image_bytes.iter().sum::<u64>() as f64 / self.image_bytes.len() as f64,
            );
        }
    }
}
