//! Serving workloads: who the tenants are, which profiles they run,
//! which records they push, and how each rung's request stream is built
//! and checked against in-process twins.

use crate::client::{Request, RungResult};
use crate::util::{Rng, Zipf};
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::{ExperimentConfig, StreamMethod};
use exathlon_core::experiment::prepare;
use exathlon_core::model::TrainingBudget;
use exathlon_core::partition::partition;
use exathlon_core::replay::{build_servable, stream_seed};
use exathlon_linalg::pca::{ComponentSelection, Pca};
use exathlon_linalg::stats::quantile;
use exathlon_linalg::Matrix;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_sparksim::metrics::expand_to_full;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::TimeSeries;
use std::fmt::Write as _;

/// The tenant namespace every workload uses.
pub const APP: &str = "bench";
/// Records per `/v1/score` batch.
pub const BATCH: usize = 32;
/// Width of the pre-PCA record of pipeline-shaped profiles.
pub const WIDE_DIMS: usize = 128;
/// Components the pipeline-shaped profiles keep.
pub const PCA_COMPONENTS: usize = 16;
/// Adaptation rate of the per-tenant dynamic scaler (the pipeline's).
const SCALER_ALPHA: f64 = 0.004;
/// Training records the PCA is fitted on (uniform stride subsample).
const PCA_FIT_RECORDS: usize = 2000;

/// Which serving topology a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One gatekeeper; `spill` gives it a spill directory.
    Direct { workers: usize, spill: bool },
    /// A router in front of two one-worker gatekeepers.
    Routed,
}

/// A serving workload's fixed definition.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    pub name: &'static str,
    pub entities: usize,
    pub methods: &'static [StreamMethod],
    /// Scaler + PCA in front of the detector (the paper's pipeline shape).
    pub pipeline_shape: bool,
    pub topology: Topology,
    /// Zipf(1) entity popularity instead of uniform.
    pub zipf: bool,
    /// Every n-th operation is a `/v1/score` batch.
    pub batch_every: Option<usize>,
    /// Every n-th operation is a write: a replacing PUT, a checkpoint GET,
    /// or a DELETE followed by a re-PUT, in turn.
    pub write_every: Option<usize>,
    /// Registry budget as a share of all tenants' encoded bytes.
    pub budget_share: Option<f64>,
    /// Offered rates in requests per second, ascending.
    pub ladder: &'static [f64],
    /// Index of the nominal rung in `ladder`.
    pub nominal: usize,
}

/// One fitted profile and its upload image.
pub struct Fitted {
    pub method: StreamMethod,
    pub profile: ServingProfile,
    pub image: Vec<u8>,
}

/// One tenant: an entity key bound to a fitted profile and a record
/// stream, always sent over the same generator connection so its
/// requests stay ordered.
pub struct Tenant {
    pub entity: String,
    pub fitted: usize,
    pub trace: usize,
    pub cursor: usize,
    pub conn: usize,
}

/// Everything a serving run needs besides the servers.
pub struct Population {
    pub fitted: Vec<Fitted>,
    pub tenants: Vec<Tenant>,
    /// Record streams (transformed sparksim test traces), NaN canonical.
    pub traces: Vec<Vec<Vec<f64>>>,
    /// `{"record":[...]}` body of every record, per trace.
    pub bodies: Vec<Vec<String>>,
    pub zipf: Option<(Zipf, Vec<usize>)>,
}

/// One request of a rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest { tenant: u32, rec: u32 },
    Batch { tenant: u32, rec: u32 },
    Put { tenant: u32 },
    Get { tenant: u32 },
    Delete { tenant: u32 },
}

impl Op {
    pub fn tenant(&self) -> usize {
        match *self {
            Op::Ingest { tenant, .. }
            | Op::Batch { tenant, .. }
            | Op::Put { tenant }
            | Op::Get { tenant }
            | Op::Delete { tenant } => tenant as usize,
        }
    }
}

/// A rung's request stream, ready to send.
#[derive(Clone)]
pub struct Rung {
    pub rate: f64,
    pub seconds: f64,
    pub ops: Vec<Op>,
    pub requests: Vec<Request>,
    pub payload: Vec<u8>,
}

/// Canonical NaN: what the server parses a `null` back into.
fn canonical(record: &[f64]) -> Vec<f64> {
    record.iter().map(|&x| if x.is_nan() { f64::NAN } else { x }).collect()
}

fn fit_profile(
    method: StreamMethod,
    train: &[TimeSeries],
    config: &ExperimentConfig,
    wrap: &dyn Fn(exathlon_ad::stream::ServableDetector, f64) -> ServingProfile,
    holdout_records: &[Vec<f64>],
) -> Fitted {
    let det = build_servable(
        method,
        train,
        config.threshold_holdout,
        TrainingBudget::Quick,
        stream_seed(config.seed, method),
    );
    // Unsupervised threshold: a high quantile of the profile's own scores
    // over a training trace, exactly as it would serve them.
    let mut probe = wrap(det.clone(), f64::INFINITY);
    let scores: Vec<f64> = holdout_records.iter().map(|r| probe.ingest(r).0).collect();
    let profile = wrap(det, quantile(&scores, 0.99));
    let image = profile.to_bytes();
    Fitted { method, profile, image }
}

impl Population {
    /// Build the dataset, fit every method's profile and lay out tenants.
    pub fn build(spec: &ServingSpec, seed: u64, conns: usize) -> Population {
        let ds = DatasetBuilder::tiny(seed).build();
        let config = ExperimentConfig { seed, ..ExperimentConfig::default() };
        let (fitted, traces): (Vec<Fitted>, Vec<Vec<Vec<f64>>>) = if spec.pipeline_shape {
            Self::fit_pipeline(spec, &ds, &config)
        } else {
            let (_transform, train, tests) = prepare(&ds, &config);
            let holdout: Vec<Vec<f64>> = train[0].records().map(canonical).collect();
            let wrap = |d, t| ServingProfile::new(d, t);
            let fitted = spec
                .methods
                .iter()
                .map(|&m| fit_profile(m, &train, &config, &wrap, &holdout))
                .collect();
            let traces =
                tests.iter().map(|t| t.series.records().map(canonical).collect()).collect();
            (fitted, traces)
        };
        let bodies = traces
            .iter()
            .map(|t| {
                t.iter()
                    .map(|r| {
                        let mut s = String::from("{\"record\":[");
                        write_values(&mut s, r);
                        s.push_str("]}");
                        s
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed).fork(1);
        let tenants = (0..spec.entities)
            .map(|e| {
                let fitted_idx = e % spec.methods.len();
                let trace = e % traces.len();
                Tenant {
                    entity: format!("e{e}-{}", spec.methods[fitted_idx].label()),
                    fitted: fitted_idx,
                    trace,
                    cursor: rng.below(traces[trace].len()),
                    conn: e % conns,
                }
            })
            .collect();
        let zipf = spec.zipf.then(|| {
            // Popularity ranks are shuffled so rank does not track method.
            let mut order: Vec<usize> = (0..spec.entities).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            (Zipf::new(spec.entities, 1.0), order)
        });
        Population { fitted, tenants, traces, bodies, zipf }
    }

    /// Pipeline-shaped profiles: PCA over a wide expansion of the raw
    /// metrics, then a dynamic scaler, then the detector. The detectors
    /// are fitted on the projected, standard-scaled training traces.
    fn fit_pipeline(
        spec: &ServingSpec,
        ds: &exathlon_sparksim::dataset::Dataset,
        config: &ExperimentConfig,
    ) -> (Vec<Fitted>, Vec<Vec<Vec<f64>>>) {
        let parts = partition(ds, config.setting, config.peek_fraction);
        let wide = |ts: &TimeSeries| -> Vec<Vec<f64>> {
            expand_to_full(ts, WIDE_DIMS)
                .records()
                .map(|r| r.iter().map(|&v| if v.is_nan() { 0.0 } else { v }).collect())
                .collect()
        };
        let train_wide: Vec<Vec<Vec<f64>>> = parts.train.iter().map(wide).collect();
        let pooled: Vec<&Vec<f64>> = train_wide.iter().flatten().collect();
        let picks = exathlon_tsdata::sample::stride_indices(pooled.len(), PCA_FIT_RECORDS);
        let rows: Vec<Vec<f64>> = picks.iter().map(|&i| pooled[i].clone()).collect();
        let pca = Pca::fit(&Matrix::from_rows(&rows), ComponentSelection::Fixed(PCA_COMPONENTS));
        let names: Vec<String> = (0..PCA_COMPONENTS).map(|i| format!("pc{i}")).collect();
        let projected: Vec<TimeSeries> = train_wide
            .iter()
            .map(|t| {
                let recs: Vec<Vec<f64>> = t.iter().map(|r| pca.transform_row(r)).collect();
                TimeSeries::from_records(names.clone(), 0, &recs)
            })
            .collect();
        let refs: Vec<&TimeSeries> = projected.iter().collect();
        let scaler = StandardScaler::fit_pooled(&refs);
        let train: Vec<TimeSeries> = projected.iter().map(|t| scaler.transform(t)).collect();
        let wrap = |d, t| ServingProfile {
            scaler: Some(DynamicScaler::from_standard(scaler.clone(), SCALER_ALPHA)),
            pca: Some(pca.clone()),
            detector: d,
            threshold: t,
        };
        let fitted = spec
            .methods
            .iter()
            .map(|&m| fit_profile(m, &train, config, &wrap, &train_wide[0]))
            .collect();
        let traces = parts.test.iter().map(|seg| wide(&seg.series)).collect();
        (fitted, traces)
    }

    /// Encoded bytes of every tenant's profile.
    pub fn total_image_bytes(&self) -> usize {
        self.tenants.iter().map(|t| self.fitted[t.fitted].image.len()).sum()
    }

    fn pick_tenant(&self, rng: &mut Rng) -> usize {
        match &self.zipf {
            Some((z, order)) => order[z.sample(rng)],
            None => rng.below(self.tenants.len()),
        }
    }

    /// Next record index of a tenant's stream (cycling its trace).
    fn advance(&mut self, tenant: usize, n: usize) -> usize {
        let t = &mut self.tenants[tenant];
        let len = self.traces[t.trace].len();
        let at = t.cursor % len;
        t.cursor = (t.cursor + n) % len;
        at
    }

    /// Build a rung: Poisson arrivals at `rate`, one operation each (a
    /// DELETE brings its re-PUT along at the same due time). The mix is
    /// fixed by arrival index, so every seed does the same kinds of work;
    /// tenants and records are drawn from the seed.
    pub fn rung(&mut self, spec: &ServingSpec, rng: &mut Rng, rate: f64, seconds: f64) -> Rung {
        let due = crate::util::poisson_schedule(rng, rate, seconds);
        let mut ops = Vec::with_capacity(due.len() + due.len() / 16);
        let mut dues = Vec::with_capacity(ops.capacity());
        let nth = |every: Option<usize>, i: usize| every.is_some_and(|n| i % n == n - 1);
        for (i, &d) in due.iter().enumerate() {
            let tenant = self.pick_tenant(rng);
            let t = tenant as u32;
            if nth(spec.write_every, i) {
                match (i / spec.write_every.unwrap_or(1)) % 3 {
                    0 => ops.push(Op::Put { tenant: t }),
                    1 => ops.push(Op::Get { tenant: t }),
                    _ => {
                        ops.push(Op::Delete { tenant: t });
                        dues.push(d);
                        ops.push(Op::Put { tenant: t });
                    }
                }
            } else if nth(spec.batch_every, i) {
                let rec = self.advance(tenant, BATCH) as u32;
                ops.push(Op::Batch { tenant: t, rec });
            } else {
                let rec = self.advance(tenant, 1) as u32;
                ops.push(Op::Ingest { tenant: t, rec });
            }
            dues.push(d);
        }
        let mut payload = Vec::with_capacity(ops.len() * 256);
        let mut requests = Vec::with_capacity(ops.len());
        let mut body = String::new();
        for (op, &due_ns) in ops.iter().zip(&dues) {
            let start = payload.len();
            self.write_request(*op, &mut payload, &mut body);
            let conn = self.tenants[op.tenant()].conn;
            requests.push(Request { due_ns, conn, bytes: (start, payload.len()) });
        }
        Rung { rate, seconds, ops, requests, payload }
    }

    /// The records a batch covers (wrapping its trace).
    pub fn batch_records(&self, tenant: usize, rec: usize) -> impl Iterator<Item = &Vec<f64>> {
        let trace = &self.traces[self.tenants[tenant].trace];
        (0..BATCH).map(move |i| &trace[(rec + i) % trace.len()])
    }

    fn write_request(&self, op: Op, out: &mut Vec<u8>, body: &mut String) {
        let t = &self.tenants[op.tenant()];
        let (method, route, bytes): (&str, &str, &[u8]) = match op {
            Op::Ingest { rec, .. } => {
                ("POST", "ingest", self.bodies[t.trace][rec as usize].as_bytes())
            }
            Op::Batch { tenant, rec } => {
                body.clear();
                body.push_str("{\"records\":[");
                for (i, r) in self.batch_records(tenant as usize, rec as usize).enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push('[');
                    write_values(body, r);
                    body.push(']');
                }
                body.push_str("]}");
                ("POST", "score", body.as_bytes())
            }
            Op::Put { .. } => ("PUT", "profile", &self.fitted[t.fitted].image[..]),
            Op::Get { .. } => ("GET", "checkpoint", &[][..]),
            Op::Delete { .. } => ("DELETE", "profile", &[][..]),
        };
        let _ = write!(
            VecWriter(out),
            "{method} /v1/{route}/{APP}/{} HTTP/1.1\r\nhost: b\r\ncontent-length: {}\r\n\r\n",
            t.entity,
            bytes.len()
        );
        out.extend_from_slice(bytes);
    }
}

/// `fmt::Write` over a byte vector.
struct VecWriter<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for VecWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Comma-separated shortest-roundtrip floats, non-finite as `null` (the
/// repository's JSON float convention).
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

fn parse_score(token: &str) -> Option<f64> {
    if token == "null" {
        Some(f64::NAN)
    } else {
        token.parse().ok()
    }
}

/// `{"score":s,"anomaly":b}` → `(s, b)`.
pub fn parse_single(body: &[u8]) -> Option<(f64, bool)> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix("{\"score\":")?;
    let (score, rest) = rest.split_once(",\"anomaly\":")?;
    Some((parse_score(score)?, rest.starts_with("true")))
}

/// `{"scores":[...],"anomalies":[...]}` → pairs.
pub fn parse_batch(body: &[u8], out: &mut Vec<(f64, bool)>) -> Option<()> {
    out.clear();
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.strip_prefix("{\"scores\":[")?;
    let (scores, rest) = rest.split_once("],\"anomalies\":[")?;
    let flags = rest.strip_suffix("]}")?;
    for (s, f) in scores.split(',').zip(flags.split(',')) {
        out.push((parse_score(s)?, f == "true"));
    }
    Some(())
}

fn same(a: (f64, bool), b: (f64, bool)) -> bool {
    a.0.to_bits() == b.0.to_bits() && a.1 == b.1
}

/// What checking one rung against the twins found.
#[derive(Debug, Default, Clone)]
pub struct Checked {
    pub attempted: u64,
    /// Non-2xx replies and requests with no reply.
    pub failed: u64,
    /// 2xx replies that differ from the twin.
    pub mismatches: u64,
    /// Requests answered 2xx.
    pub completed: u64,
    /// Tenants whose server state is unknown (a request got no reply).
    pub unknown: Vec<usize>,
    pub first_mismatch: Option<String>,
}

/// Per-tenant twin state: `None` after a DELETE.
pub type Twins = Vec<Option<ServingProfile>>;

/// Fresh twins, as uploaded.
pub fn fresh_twins(pop: &Population) -> Twins {
    pop.tenants.iter().map(|t| Some(pop.fitted[t.fitted].profile.clone())).collect()
}

/// Check every reply of a rung against the twins, advancing them.
pub fn check_rung(pop: &Population, twins: &mut Twins, rung: &Rung, res: &RungResult) -> Checked {
    let mut c = Checked { attempted: rung.ops.len() as u64, ..Checked::default() };
    let mut batch = Vec::with_capacity(BATCH);
    for (i, op) in rung.ops.iter().enumerate() {
        let out = &res.outcomes[i];
        let tenant = op.tenant();
        if out.status == 0 {
            c.failed += 1;
            c.unknown.push(tenant);
            continue;
        }
        if !(200..300).contains(&out.status) {
            c.failed += 1;
            continue;
        }
        c.completed += 1;
        let body = &res.bodies[out.body.0..out.body.1];
        let trace = &pop.traces[pop.tenants[tenant].trace];
        let ok = match (*op, twins[tenant].as_mut()) {
            (Op::Ingest { rec, .. }, Some(twin)) => {
                parse_single(body).is_some_and(|got| same(got, twin.ingest(&trace[rec as usize])))
            }
            (Op::Batch { rec, .. }, Some(twin)) => {
                parse_batch(body, &mut batch).is_some()
                    && batch.len() == BATCH
                    && pop
                        .batch_records(tenant, rec as usize)
                        .zip(&batch)
                        .all(|(r, &got)| same(got, twin.ingest(r)))
            }
            (Op::Get { .. }, Some(twin)) => check_checkpoint(body, twin, trace),
            (Op::Put { .. }, _) => {
                twins[tenant] = Some(pop.fitted[pop.tenants[tenant].fitted].profile.clone());
                true
            }
            (Op::Delete { .. }, Some(_)) => {
                twins[tenant] = None;
                body == b"{\"removed\":true}"
            }
            // A 2xx for a tenant the twin says is deleted.
            (_, None) => false,
        };
        if !ok {
            c.mismatches += 1;
            if c.first_mismatch.is_none() {
                c.first_mismatch = Some(format!(
                    "{:?} on {}: {}",
                    op,
                    pop.tenants[tenant].entity,
                    String::from_utf8_lossy(&body[..body.len().min(120)])
                ));
            }
        }
    }
    c.unknown.sort_unstable();
    c.unknown.dedup();
    c
}

/// A checkpoint GET must be the twin's image bitwise, decode, and
/// continue the stream bitwise.
fn check_checkpoint(image: &[u8], twin: &ServingProfile, trace: &[Vec<f64>]) -> bool {
    if image != twin.to_bytes() {
        return false;
    }
    let Ok(mut decoded) = ServingProfile::from_bytes(image) else { return false };
    let mut cont = twin.clone();
    trace.iter().take(4).all(|r| same(decoded.ingest(r), cont.ingest(r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsers_roundtrip_the_wire_format() {
        let mut body = String::new();
        exathlon_core::wire::write_single_score(&mut body, 0.1 + 0.2, true);
        assert_eq!(parse_single(body.as_bytes()), Some((0.1 + 0.2, true)));
        body.clear();
        exathlon_core::wire::write_batch_scores(&mut body, &[(1.5, false), (f64::NAN, true)]);
        let mut out = Vec::new();
        parse_batch(body.as_bytes(), &mut out).expect("parses");
        assert_eq!(out[0], (1.5, false));
        assert!(out[1].0.is_nan() && out[1].1);
    }
}
