//! Serving-layer microbenchmarks: checkpoint encode/decode cost per
//! detector family, registry hot-path operations (insert / hit /
//! LRU eviction churn), the allocation-free wire fast path (head and
//! body parsing, response formatting), spill-tier file round-trips,
//! and the router's consistent-hash ring (build cost per fleet size,
//! per-request owner lookup) — without the HTTP layer; the perfbench
//! serving workloads measure the end-to-end request path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::StreamMethod;
use exathlon_core::model::TrainingBudget;
use exathlon_core::registry::{key_hash, EntityKey, ProfileRegistry};
use exathlon_core::replay::{build_servable, stream_seed};
use exathlon_core::route::Ring;
use exathlon_core::spill::SpillDir;
use exathlon_core::wire;
use exathlon_linalg::codec::ByteWriter;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;

const DIMS: usize = 19;

fn trace(n: usize, seed: u64) -> TimeSeries {
    let records: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..DIMS)
                .map(|j| ((i as f64 * 0.2 + (j as f64 + seed as f64) * 0.7).sin()) * 2.0)
                .collect()
        })
        .collect();
    TimeSeries::from_records(default_names(DIMS), 0, &records)
}

fn profiles() -> Vec<(&'static str, ServingProfile)> {
    let train = vec![trace(600, 1), trace(600, 2)];
    [StreamMethod::Ewma, StreamMethod::Cusum, StreamMethod::Knn]
        .into_iter()
        .map(|method| {
            let det =
                build_servable(method, &train, 0.25, TrainingBudget::Quick, stream_seed(7, method));
            (method.label(), ServingProfile::new(det, 1.0))
        })
        .collect()
}

fn bench_checkpoint_codec(c: &mut Criterion) {
    let profiles = profiles();
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    for (label, profile) in &profiles {
        let image = profile.to_bytes();
        group.bench_function(format!("encode/{label}"), |b| {
            b.iter(|| black_box(profile.to_bytes()))
        });
        group.bench_function(format!("decode/{label} ({}B)", image.len()), |b| {
            b.iter(|| black_box(ServingProfile::from_bytes(&image).unwrap()))
        });
    }
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let (_, profile) = profiles().remove(0);
    let bytes = profile.to_bytes().len();
    let mut group = c.benchmark_group("registry");
    group.sample_size(20);

    // Hot path: repeated hits on a resident profile.
    let mut reg = ProfileRegistry::new(usize::MAX);
    for i in 0..64 {
        reg.insert(EntityKey::new("app", format!("e{i}")), profile.clone(), bytes);
    }
    let key = EntityKey::new("app", "e13");
    group.bench_function("get_mut hit (64 resident)", |b| {
        b.iter(|| black_box(reg.get_mut(&key).is_some()))
    });

    // Churn: every insert past the budget evicts the LRU victim.
    let mut tight = ProfileRegistry::new(bytes * 8);
    let mut i = 0u64;
    group.bench_function("insert+evict churn (budget=8)", |b| {
        b.iter(|| {
            i += 1;
            black_box(tight.insert(EntityKey::new("app", format!("e{i}")), profile.clone(), bytes))
        })
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.sample_size(20);

    // A representative warmed ingest request: head + 19-feature record.
    let mut record_body = String::from("{\"record\":[");
    for j in 0..DIMS {
        if j > 0 {
            record_body.push(',');
        }
        record_body.push_str(&format!("{}", (j as f64 * 0.7).sin() * 2.0));
    }
    record_body.push_str("]}");
    let request = format!(
        "POST /v1/ingest/spark-app/exec-1 HTTP/1.1\r\nhost: bench\r\n\
         content-length: {}\r\n\r\n{record_body}",
        record_body.len()
    );
    group.bench_function("parse_head", |b| {
        b.iter(|| black_box(wire::parse_head(black_box(request.as_bytes()), 64 << 10)))
    });

    let mut rows = Vec::new();
    let mut row_ends = Vec::new();
    group.bench_function("parse_record_body/single", |b| {
        b.iter(|| {
            black_box(wire::parse_record_body(
                black_box(record_body.as_bytes()),
                false,
                &mut rows,
                &mut row_ends,
            ))
        })
    });

    let mut batch_body = String::from("{\"records\":[");
    for i in 0..32 {
        if i > 0 {
            batch_body.push(',');
        }
        batch_body.push('[');
        for j in 0..DIMS {
            if j > 0 {
                batch_body.push(',');
            }
            batch_body.push_str(&format!("{}", ((i * DIMS + j) as f64 * 0.3).sin()));
        }
        batch_body.push(']');
    }
    batch_body.push_str("]}");
    group.bench_function("parse_record_body/batch-32", |b| {
        b.iter(|| {
            black_box(wire::parse_record_body(
                black_box(batch_body.as_bytes()),
                true,
                &mut rows,
                &mut row_ends,
            ))
        })
    });

    let mut head = Vec::new();
    let mut body = String::new();
    group.bench_function("format_response/single", |b| {
        b.iter(|| {
            wire::write_single_score(&mut body, black_box(1.2345678), false);
            head.clear();
            wire::write_head(&mut head, 200, "application/json", body.len(), true);
            black_box(head.len())
        })
    });
    group.finish();
}

fn bench_spill(c: &mut Criterion) {
    let profiles = profiles();
    let dir = std::env::temp_dir().join(format!("exathlon-bench-spill-{}", std::process::id()));
    let spill = SpillDir::create(&dir).expect("create spill dir");
    let mut group = c.benchmark_group("spill");
    group.sample_size(20);
    let mut scratch = ByteWriter::new();
    for (label, profile) in &profiles {
        group.bench_function(format!("spill/{label}"), |b| {
            b.iter(|| black_box(spill.spill("app", label, profile, &mut scratch).unwrap()))
        });
        spill.spill("app", label, profile, &mut scratch).unwrap();
        group.bench_function(format!("restore/{label}"), |b| {
            b.iter(|| black_box(spill.restore("app", label).unwrap().unwrap().1))
        });
        spill.remove("app", label).unwrap();
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("route");
    group.sample_size(20);

    // Ring construction is the rebalance-time cost: hash every vnode of
    // every label, mix, sort. Scaled over fleet size at the router's
    // default vnode count.
    for nodes in [2usize, 8, 64] {
        let labels: Vec<String> = (0..nodes).map(|i| format!("node-{i}")).collect();
        group.bench_function(format!("ring_build/{nodes}x64vn"), |b| {
            b.iter(|| black_box(Ring::build(labels.iter().map(|s| s.as_str()), 64)))
        });
    }

    // Owner lookup is the per-request cost: one key hash (done once per
    // request), one mix, one binary search over nodes*vnodes points.
    let labels: Vec<String> = (0..8).map(|i| format!("node-{i}")).collect();
    let ring = Ring::build(labels.iter().map(|s| s.as_str()), 64);
    let hashes: Vec<u64> = (0..1024).map(|i| key_hash("spark-app", &format!("exec-{i}"))).collect();
    let mut i = 0usize;
    group.bench_function("owner_of (8 nodes, 512 points)", |b| {
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(ring.owner_of(black_box(hashes[i])))
        })
    });
    group.bench_function("owner incl. key_hash", |b| {
        b.iter(|| black_box(ring.owner(black_box("spark-app"), black_box("exec-421"))))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_checkpoint_codec,
    bench_registry,
    bench_wire,
    bench_spill,
    bench_route
);
criterion_main!(benches);
