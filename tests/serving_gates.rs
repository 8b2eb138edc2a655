//! Serving-path gates that hold on any host, under debug and release:
//!
//! - a warmed single-record ingest allocates nothing in the gatekeeper
//!   worker, for bare EWMA and kNN profiles and for PCA + scaler in
//!   front of kNN, LOF, AE and SpectralResidual;
//! - a warmed proxied ingest allocates nothing in the router worker,
//!   and at least 90% of the measured exchanges ride a warmed (pooled)
//!   upstream connection, so the meter covers the path it claims to;
//! - spill churn at a budget of one byte per shard keeps every score
//!   and every checkpoint, spilled or resident, bitwise.
//!
//! Every served score is checked bitwise against a local twin.
//!
//! The binary installs the counting global allocator of `common::alloc`
//! and hands the serving tiers its per-thread probe ([`set_alloc_probe`]).
//! Each worker reads the probe once, at spawn, and tests run in
//! parallel, so every test installs it before it binds anything.

mod common {
    pub mod alloc;
    pub mod serving;
}

use common::alloc::thread_allocs;
use common::serving::{fitted, prepared, Client, Tenant};
use exathlon_core::checkpoint::ServingProfile;
use exathlon_core::config::{ExperimentConfig, StreamMethod};
use exathlon_core::model::TrainingBudget;
use exathlon_core::replay::{build_servable, stream_seed};
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{set_alloc_probe, Gatekeeper, GatekeeperConfig};
use exathlon_linalg::pca::{ComponentSelection, Pca};
use exathlon_linalg::Matrix;
use exathlon_tsdata::scale::{DynamicScaler, StandardScaler};
use exathlon_tsdata::TimeSeries;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Records each tenant cycles through.
const RECORDS: usize = 200;
/// Single-record ingests that bring a tenant's path to steady state.
const WARM: usize = 64;
/// Metered single-record ingests per tenant.
const MEASURED: usize = 128;
/// The bare profile shapes the fleet and spill tests cycle through.
const BARE: [StreamMethod; 4] =
    [StreamMethod::Ewma, StreamMethod::Cusum, StreamMethod::Histogram, StreamMethod::Knn];
/// PCA components of the pipeline-shaped tenants.
const PIPELINE_COMPONENTS: usize = 8;

fn gatekeeper(config: GatekeeperConfig) -> Gatekeeper {
    Gatekeeper::bind("127.0.0.1:0", config).expect("bind gatekeeper")
}

/// Warm `tenant`, then meter [`MEASURED`] single-record ingests: the
/// gatekeeper worker must perform no allocation on any of them.
fn assert_warmed_ingest_allocates_nothing(
    gk: &Gatekeeper,
    client: &mut Client,
    tenant: &mut Tenant,
) {
    tenant.ingest(client, WARM);
    let before = gk.gate_stats();
    tenant.ingest(client, MEASURED);
    let after = gk.gate_stats();
    assert_eq!(after.ingest_requests - before.ingest_requests, MEASURED as u64, "metered count");
    assert_eq!(
        after.ingest_allocs - before.ingest_allocs,
        0,
        "warmed ingest for {} must be allocation-free in the worker",
        tenant.entity
    );
}

#[test]
fn warmed_ingest_allocates_nothing_for_bare_profiles() {
    set_alloc_probe(thread_allocs);
    let (train, tests) = prepared();
    let gk = gatekeeper(GatekeeperConfig { workers: 2, ..GatekeeperConfig::default() });
    let mut client = Client::connect(gk.local_addr());
    for method in [StreamMethod::Ewma, StreamMethod::Knn] {
        let records = tests[0].iter().take(RECORDS).cloned().collect();
        let entity = format!("bare-{}", method.label());
        let mut tenant = Tenant::install(&mut client, &entity, fitted(method, &train), records);
        assert_warmed_ingest_allocates_nothing(&gk, &mut client, &mut tenant);
        tenant.audit(&mut client);
    }
    gk.shutdown();
}

/// Pipeline-shaped profiles, the paper's serving shape: a PCA over the
/// transformed features, then a dynamic scaler, then the detector,
/// fitted like the served pipeline on the projected and standard-scaled
/// training traces. No record needs to be flagged.
fn pipeline_profiles(methods: &[StreamMethod], train: &[TimeSeries]) -> Vec<ServingProfile> {
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
    let config = ExperimentConfig::default();
    methods
        .iter()
        .map(|&method| ServingProfile {
            scaler: Some(DynamicScaler::from_standard(scaler.clone(), 0.01)),
            pca: Some(pca.clone()),
            detector: build_servable(
                method,
                &scaled,
                config.threshold_holdout,
                TrainingBudget::Quick,
                stream_seed(config.seed, method),
            ),
            threshold: f64::INFINITY,
        })
        .collect()
}

#[test]
fn warmed_ingest_allocates_nothing_for_pipeline_profiles() {
    set_alloc_probe(thread_allocs);
    let (train, tests) = prepared();
    let gk = gatekeeper(GatekeeperConfig { workers: 2, ..GatekeeperConfig::default() });
    let mut client = Client::connect(gk.local_addr());
    let methods =
        [StreamMethod::Knn, StreamMethod::Lof, StreamMethod::Ae, StreamMethod::SpectralResidual];
    for (method, profile) in methods.iter().zip(pipeline_profiles(&methods, &train)) {
        let records = tests[0].iter().take(RECORDS).cloned().collect();
        let entity = format!("pipeline-{}", method.label());
        let mut tenant = Tenant::install(&mut client, &entity, profile, records);
        assert_warmed_ingest_allocates_nothing(&gk, &mut client, &mut tenant);
        tenant.audit(&mut client);
    }
    gk.shutdown();
}

/// Poll a counter until it reaches `want` (bounded): the router books an
/// exchange a beat after the client reads the response's last byte.
fn settle(get: impl Fn() -> u64, want: u64) {
    let t0 = Instant::now();
    while get() < want && t0.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn warmed_proxy_allocates_nothing() {
    const TENANTS: usize = 6;
    const CLIENTS: usize = 3;
    const WARM_ROUNDS: usize = 5;
    const ROUNDS: usize = 40;
    set_alloc_probe(thread_allocs);
    let (train, tests) = prepared();
    let profiles: Vec<ServingProfile> = BARE.iter().map(|&m| fitted(m, &train)).collect();
    let node = || gatekeeper(GatekeeperConfig { workers: 1, ..GatekeeperConfig::default() });
    let (gk_a, gk_b) = (node(), node());
    let rt = Router::bind(
        "127.0.0.1:0",
        &[("node-a", gk_a.local_addr()), ("node-b", gk_b.local_addr())],
        RouterConfig { workers: 1, ..RouterConfig::default() },
    )
    .expect("bind router");
    let addr = rt.local_addr();

    // Each client owns a disjoint tenant set, so every tenant's request
    // order, and thus its twin, is deterministic however the clients
    // interleave on the router.
    let mut upload = Client::connect(addr);
    let mut chunks: Vec<Vec<Tenant>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for e in 0..TENANTS {
        let records = tests[e % tests.len()].iter().take(WARM_ROUNDS + ROUNDS).cloned().collect();
        let entity = format!("fleet-{e}-{}", BARE[e % BARE.len()].label());
        let profile = profiles[e % profiles.len()].clone();
        chunks[e % CLIENTS].push(Tenant::install(&mut upload, &entity, profile, records));
    }
    drop(upload);

    // Warm (the router pools its upstream connections), snapshot the
    // router's meter while the fleet is quiescent, then run the measured
    // rounds together.
    let barrier = Barrier::new(CLIENTS + 1);
    let (before, tenants) = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|mut tenants| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for tenant in &mut tenants {
                        tenant.ingest(&mut client, WARM_ROUNDS);
                    }
                    barrier.wait();
                    barrier.wait();
                    for tenant in &mut tenants {
                        tenant.ingest(&mut client, ROUNDS);
                    }
                    tenants
                })
            })
            .collect();
        barrier.wait();
        settle(|| rt.stats().proxied, (TENANTS * (WARM_ROUNDS + 1)) as u64);
        let before = rt.stats();
        barrier.wait();
        let tenants: Vec<Tenant> =
            handles.into_iter().flat_map(|h| h.join().expect("fleet client")).collect();
        (before, tenants)
    });
    let measured = (TENANTS * ROUNDS) as u64;
    settle(|| rt.stats().proxied, before.proxied + measured);
    let after = rt.stats();
    let metered = after.proxy_requests - before.proxy_requests;
    let allocs = after.proxy_allocs - before.proxy_allocs;
    assert!(
        metered * 10 >= measured * 9,
        "most measured exchanges must ride warmed connections ({metered} metered of {measured})"
    );
    assert_eq!(allocs, 0, "warmed proxy path must be allocation-free: {allocs} over {metered}");

    let mut audit = Client::connect(addr);
    for tenant in &tenants {
        tenant.audit(&mut audit);
    }
    rt.shutdown();
    gk_a.shutdown();
    gk_b.shutdown();
}

#[test]
fn spill_churn_continues_bitwise() {
    const TENANTS: usize = 4;
    const ROUNDS: usize = 25;
    set_alloc_probe(thread_allocs);
    let (train, tests) = prepared();
    let spill_dir =
        std::env::temp_dir().join(format!("exathlon-gates-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    // A byte budget that holds one profile per shard: round-robin ingest
    // over more tenants than fit churns evict, spill and restore on
    // nearly every request.
    let gk = gatekeeper(GatekeeperConfig {
        workers: 1,
        shards: 2,
        budget_bytes_per_shard: 1,
        spill_dir: Some(spill_dir.clone()),
        ..GatekeeperConfig::default()
    });
    let mut client = Client::connect(gk.local_addr());
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|e| {
            let method = BARE[e % BARE.len()];
            let records = tests[e % tests.len()].iter().take(ROUNDS).cloned().collect();
            let entity = format!("spill-{e}-{}", method.label());
            Tenant::install(&mut client, &entity, fitted(method, &train), records)
        })
        .collect();
    for _ in 0..ROUNDS {
        for tenant in &mut tenants {
            tenant.ingest(&mut client, 1);
        }
    }
    // Checkpoints come back bitwise, spilled or resident.
    for tenant in &tenants {
        tenant.audit(&mut client);
    }
    let stats = gk.gate_stats();
    assert!(
        stats.spills > 0 && stats.restores > 0,
        "churn must exercise spill and restore: {stats:?}"
    );
    gk.shutdown();
    let _ = std::fs::remove_dir_all(&spill_dir);
}
