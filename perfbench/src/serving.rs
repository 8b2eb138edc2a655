//! The three open-loop serving workloads: set-up, the nominal rung, the
//! rate ladder, and the traced run's live and in-process halves.

use crate::client::{run_open_loop, RungResult};
use crate::inproc::InProc;
use crate::report::Report;
use crate::server::{Client, ServerProc, Tier};
use crate::trace::Recorder;
use crate::util::{self, backlog_grew, percentile, Rng, RungVerdict};
use crate::workload::{check_rung, fresh_twins, Checked, Population, Rung};
use crate::workload::{ServingSpec, Topology, Twins, APP};
use exathlon_core::config::StreamMethod;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Registry shards of every gatekeeper.
pub const SHARDS: usize = 8;
/// Set-ups per untraced run, at least; more follow until `SETUP_S`
/// seconds have passed. `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SETUP_S: f64 = 2.5;
/// Requests in one attempt at the nominal rung of an untraced run. The
/// run makes as many attempts as fit in `NOMINAL_SHARE` of its time (at
/// least `MIN_ATTEMPTS`) and reports the one the host disturbed least
/// ([`RungRun::disturbance`]).
const ATTEMPT_REQUESTS: f64 = 2500.0;
const NOMINAL_SHARE: f64 = 0.9;
const MIN_ATTEMPTS: usize = 3;
/// Unmeasured rung that warms connections, caches and buffers.
const WARM_S: f64 = 0.5;
/// How long past its last due time a rung waits for stragglers.
const DRAIN: Duration = Duration::from_secs(2);
/// In-process replays of the nominal attempts behind `pipeline_s`: at
/// least this many, and more until `REPLAY_S` seconds have passed.
const REPLAYS: usize = 4;
const REPLAY_S: f64 = 3.0;
/// Times a ladder rung is run before it counts as unsustainable.
const RUNG_TRIES: usize = 4;
/// Backlog a stable rung may add between its first and last quarter.
const BACKLOG_SLACK: f64 = 8.0;

const LIGHT: &[StreamMethod] = &[StreamMethod::Ewma, StreamMethod::Cusum, StreamMethod::Histogram];
const MODEL: &[StreamMethod] =
    &[StreamMethod::Knn, StreamMethod::Lof, StreamMethod::Ae, StreamMethod::SpectralResidual];

/// The serving workloads, by name.
pub fn spec(name: &str) -> Option<ServingSpec> {
    let cores = crate::sys::cores();
    Some(match name {
        "ingest-light" => ServingSpec {
            name: "ingest-light",
            entities: 64,
            methods: LIGHT,
            pipeline_shape: false,
            topology: Topology::Direct { workers: cores, spill: false },
            zipf: false,
            batch_every: None,
            write_every: None,
            budget_share: None,
            ladder: &[1e3, 2e3, 4e3, 8e3, 16e3, 32e3],
            nominal: 2,
        },
        "ingest-model-routed" => ServingSpec {
            name: "ingest-model-routed",
            entities: 32,
            methods: MODEL,
            pipeline_shape: true,
            topology: Topology::Routed,
            zipf: false,
            batch_every: Some(10),
            write_every: None,
            budget_share: None,
            ladder: &[250.0, 500.0, 750.0, 1000.0, 1250.0, 1500.0],
            nominal: 3,
        },
        "tenant-churn" => ServingSpec {
            name: "tenant-churn",
            entities: 1024,
            methods: LIGHT,
            pipeline_shape: false,
            topology: Topology::Direct { workers: cores, spill: true },
            zipf: true,
            batch_every: None,
            write_every: Some(10),
            budget_share: Some(0.95),
            ladder: &[500.0, 1e3, 2e3, 3e3, 4e3],
            nominal: 2,
        },
        _ => return None,
    })
}

/// Generator connections: one per core, at most two.
fn connections() -> usize {
    crate::sys::cores().clamp(1, 2)
}

/// The serving processes of one set-up.
pub struct Fleet {
    servers: Vec<ServerProc>,
    pub entry: SocketAddr,
    pub gatekeepers: Vec<SocketAddr>,
    pub router: Option<SocketAddr>,
}

/// Summed `/v1/stats` counters: gatekeepers and router apart.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub gate: BTreeMap<String, f64>,
    pub router: BTreeMap<String, f64>,
}

impl Counters {
    pub fn gate_delta(&self, before: &Counters, key: &str) -> f64 {
        self.gate.get(key).unwrap_or(&0.0) - before.gate.get(key).unwrap_or(&0.0)
    }
    pub fn router_delta(&self, before: &Counters, key: &str) -> f64 {
        self.router.get(key).unwrap_or(&0.0) - before.router.get(key).unwrap_or(&0.0)
    }
}

/// The gatekeeper configuration a workload runs (also mirrored by the
/// in-process replay).
pub fn gatekeeper_shape(spec: &ServingSpec, pop: &Population) -> (usize, usize) {
    let budget = match spec.budget_share {
        Some(share) => ((pop.total_image_bytes() as f64 * share) / SHARDS as f64) as usize,
        None => 64 << 20,
    };
    (SHARDS, budget)
}

impl Fleet {
    fn start(
        spec: &ServingSpec,
        pop: &Population,
        dir: &Path,
        count_allocs: bool,
    ) -> Result<Fleet, String> {
        let (shards, budget_per_shard) = gatekeeper_shape(spec, pop);
        match spec.topology {
            Topology::Direct { workers, spill } => {
                let spill = spill.then(|| dir.join("spill"));
                let tier = Tier::Gatekeeper { workers, shards, budget_per_shard, spill };
                let gk = ServerProc::spawn(&tier, count_allocs)?;
                let addr = gk.addr;
                Ok(Fleet { servers: vec![gk], entry: addr, gatekeepers: vec![addr], router: None })
            }
            Topology::Routed => {
                let node =
                    || Tier::Gatekeeper { workers: 1, shards, budget_per_shard, spill: None };
                let a = ServerProc::spawn(&node(), count_allocs)?;
                let b = ServerProc::spawn(&node(), count_allocs)?;
                let backends = vec![
                    (NODE_LABELS[0].to_string(), a.addr),
                    (NODE_LABELS[1].to_string(), b.addr),
                ];
                let rt = ServerProc::spawn(&Tier::Router { workers: 1, backends }, count_allocs)?;
                let (ga, gb, entry) = (a.addr, b.addr, rt.addr);
                Ok(Fleet {
                    servers: vec![a, b, rt],
                    entry,
                    gatekeepers: vec![ga, gb],
                    router: Some(entry),
                })
            }
        }
    }

    fn cpu_us(&self) -> f64 {
        self.servers.iter().map(|s| s.cpu_us()).sum()
    }

    fn peak_rss_mb(&self) -> f64 {
        self.servers.iter().map(|s| s.peak_rss_mb()).sum()
    }

    fn counters(&self) -> Result<Counters, String> {
        let mut c = Counters::default();
        for &gk in &self.gatekeepers {
            for (k, v) in Client::connect(gk)?.stats()? {
                *c.gate.entry(k).or_default() += v;
            }
        }
        if let Some(rt) = self.router {
            c.router = Client::connect(rt)?.stats()?.into_iter().collect();
        }
        Ok(c)
    }

    fn stop(self) -> Result<(), String> {
        self.servers.into_iter().try_for_each(|s| s.stop())
    }
}

/// Ring labels of the routed fleet's two gatekeepers.
pub const NODE_LABELS: [&str; 2] = ["gk-a", "gk-b"];

/// PUTs pipelined per round trip during set-up.
const UPLOAD_BATCH: usize = 32;

/// PUT every tenant's profile through the fleet's entry point.
fn upload(fleet: &Fleet, pop: &Population, tenants: &[usize]) -> Result<(), String> {
    let mut client = Client::connect(fleet.entry)?;
    for chunk in tenants.chunks(UPLOAD_BATCH) {
        let puts: Vec<(&str, String, &[u8])> = chunk
            .iter()
            .map(|&t| {
                let tenant = &pop.tenants[t];
                let path = format!("/v1/profile/{APP}/{}", tenant.entity);
                ("PUT", path, &pop.fitted[tenant.fitted].image[..])
            })
            .collect();
        for ((_, path, _), (status, body)) in puts.iter().zip(client.call_many(&puts)?) {
            if status != 200 {
                return Err(format!(
                    "PUT {path} answered {status}: {}",
                    String::from_utf8_lossy(&body)
                ));
            }
        }
    }
    Ok(())
}

/// One set-up; returns its time in all and split into dataset build and
/// fits, server start, and profile uploads.
fn set_up(
    spec: &ServingSpec,
    seed: u64,
    dir: &Path,
    count_allocs: bool,
) -> Result<(Population, Fleet, f64, [f64; 3]), String> {
    let t0 = Instant::now();
    let pop = Population::build(spec, seed, connections());
    let t1 = Instant::now();
    let fleet = Fleet::start(spec, &pop, dir, count_allocs)?;
    let t2 = Instant::now();
    let all: Vec<usize> = (0..pop.tenants.len()).collect();
    upload(&fleet, &pop, &all)?;
    let t3 = Instant::now();
    let parts = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
    Ok((pop, fleet, (t3 - t0).as_secs_f64(), parts))
}

/// A rung after it ran and was checked.
pub struct RungRun {
    pub rung: Rung,
    pub res: RungResult,
    pub checked: Checked,
    /// Latency from due time of every request, ascending; failures count
    /// as never answered (`u64::MAX`).
    pub latency_ns: Vec<u64>,
    pub verdict: RungVerdict,
    /// CPU time of the serving processes while requests were in flight.
    pub cpu_us: f64,
    /// Host steal ticks over the same time ([`crate::sys::steal_ticks`]).
    pub steal_ticks: u64,
}

impl RungRun {
    /// Nearest-rank percentile of the rung's latencies.
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ns, q) as f64
    }

    /// p99 of how late the generator sent its requests.
    fn lag_p99_ns(&self) -> u64 {
        let mut lag: Vec<u64> = self.res.outcomes.iter().map(|o| o.lag_ns).collect();
        lag.sort_unstable();
        percentile(&lag, 0.99)
    }

    /// How much the host disturbed the rung: CPU time stolen from this
    /// machine, then, among equals, how late the generator's sends ran.
    /// Neither looks at the servers' replies.
    fn disturbance(&self) -> (u64, u64) {
        (self.steal_ticks, self.lag_p99_ns())
    }
}

fn run_rung(
    fleet: &Fleet,
    pop: &Population,
    twins: &mut Twins,
    rung: Rung,
) -> Result<RungRun, String> {
    let addrs = vec![fleet.entry; connections()];
    let (cpu0, steal0) = (fleet.cpu_us(), crate::sys::steal_ticks());
    let res = run_open_loop(&addrs, &rung.requests, &rung.payload, DRAIN)?;
    let cpu_us = fleet.cpu_us() - cpu0;
    let steal_ticks = crate::sys::steal_ticks().saturating_sub(steal0);
    let checked = check_rung(pop, twins, &rung, &res);
    if !checked.unknown.is_empty() {
        // Requests with no reply may still be applied late: let the
        // servers drain, then re-upload those tenants and their twins.
        std::thread::sleep(Duration::from_millis(500));
        upload(fleet, pop, &checked.unknown)?;
        for &t in &checked.unknown {
            twins[t] = Some(pop.fitted[pop.tenants[t].fitted].profile.clone());
        }
    }
    let mut latency_ns: Vec<u64> = res
        .outcomes
        .iter()
        .map(|o| if (200..300).contains(&o.status) { o.latency_ns } else { u64::MAX })
        .collect();
    latency_ns.sort_unstable();
    let verdict = RungVerdict {
        p99_ns: percentile(&latency_ns, 0.99),
        attempted: checked.attempted,
        failed: checked.failed + checked.mismatches,
        backlog_grew: backlog_grew(&res.backlog, BACKLOG_SLACK),
    };
    Ok(RungRun { rung, res, checked, latency_ns, verdict, cpu_us, steal_ticks })
}

/// Latency over the nominal attempts the host disturbed least: those
/// with the fewest steal ticks. Each figure is the median, over those
/// attempts, of the attempt's nearest-rank percentile.
struct Calm {
    p50_ns: f64,
    p99_ns: f64,
    steal_ticks: u64,
    attempts: usize,
    samples: usize,
}

impl Calm {
    fn of(attempts: &[(u64, f64, f64, usize)]) -> Calm {
        let fewest = attempts.iter().map(|a| a.0).min().unwrap_or(0);
        let calm: Vec<_> = attempts.iter().filter(|a| a.0 == fewest).collect();
        let med = |f: fn(&(u64, f64, f64, usize)) -> f64| {
            util::median(&calm.iter().map(|a| f(a)).collect::<Vec<_>>())
        };
        Calm {
            p50_ns: med(|a| a.1),
            p99_ns: med(|a| a.2),
            steal_ticks: fewest,
            attempts: calm.len(),
            samples: calm.iter().map(|a| a.3).sum(),
        }
    }
}

/// Set-ups, a warm-up rung and the nominal attempts.
struct Pass {
    pop: Population,
    fleet: Fleet,
    twins: Twins,
    setup_s: Vec<f64>,
    warm: RungRun,
    /// The attempt the host disturbed least ([`RungRun::disturbance`]).
    nominal: RungRun,
    /// The latency figures of the calm attempts (those with the fewest
    /// steal ticks; [`Calm`]).
    calm: Calm,
    /// Peak RSS of the servers once the nominal rung is done.
    peak_rss_mb: f64,
    before: Counters,
    after: Counters,
    mismatches: u64,
    first_mismatch: Option<String>,
    /// Requests sent, and failed or mismatched, over every nominal attempt.
    attempted: u64,
    failed: u64,
    /// Server CPU per completed request over every nominal attempt.
    cpu_us_per_req: f64,
    /// A line per nominal attempt.
    lines: Vec<String>,
    /// Every nominal attempt's requests, in the order they were sent.
    tried: Vec<Rung>,
}

fn pass(
    spec: &ServingSpec,
    seed: u64,
    attempt_s: f64,
    dir: &Path,
    count_allocs: bool,
    setups: usize,
    tries: usize,
) -> Result<Pass, String> {
    let (mut setup_s, mut parts) = (Vec::new(), Vec::new());
    let mut kept = None;
    let t_setups = Instant::now();
    while setup_s.len() < setups.max(1)
        || (setups > 1 && t_setups.elapsed().as_secs_f64() < SETUP_S)
    {
        if let Some((_, fleet)) = kept.take() {
            Fleet::stop(fleet)?;
        }
        let _ = std::fs::remove_dir_all(dir);
        let (pop, fleet, s, split) = set_up(spec, seed, dir, count_allocs)?;
        setup_s.push(s);
        parts.push(split);
        kept = Some((pop, fleet));
    }
    let (mut pop, fleet) = kept.expect("at least one set-up");
    let mut twins = fresh_twins(&pop);
    let mut rng = Rng::new(seed).fork(2);
    let rate = spec.ladder[spec.nominal];
    let warm = pop.rung(spec, &mut rng, rate, WARM_S);
    let warm = run_rung(&fleet, &pop, &mut twins, warm)?;
    let before = fleet.counters()?;
    let (mut mismatches, mut first_mismatch) =
        (warm.checked.mismatches, warm.checked.first_mismatch.clone());
    let part = |i: usize| util::median(&parts.iter().map(|p: &[f64; 3]| p[i]).collect::<Vec<_>>());
    let mut lines = vec![format!(
        "  {} set-up(s), medians: dataset and fits {:.4} s, servers {:.4} s, uploads {:.4} s",
        setup_s.len(),
        part(0),
        part(1),
        part(2)
    )];
    let (mut attempted, mut failed) = (0, 0);
    let (mut cpu_us, mut completed) = (0.0, 0);
    let mut kept: Option<RungRun> = None;
    let (mut tried, mut quiet) = (Vec::new(), Vec::new());
    // Every attempt is checked and counted; the latency figures come from
    // the attempts the host disturbed least. Which attempts those are never
    // depends on the servers' replies, so a cost the program pays shows
    // in them as in any other.
    for _ in 0..tries.max(1) {
        let rung = pop.rung(spec, &mut rng, rate, attempt_s);
        let r = run_rung(&fleet, &pop, &mut twins, rung)?;
        mismatches += r.checked.mismatches;
        first_mismatch = first_mismatch.or_else(|| r.checked.first_mismatch.clone());
        attempted += r.checked.attempted;
        cpu_us += r.cpu_us;
        completed += r.checked.completed;
        failed += r.checked.failed + r.checked.mismatches;
        lines.push(format!("{}, host steal {} ticks", rung_line(&r), r.steal_ticks));
        tried.push(r.rung.clone());
        quiet.push((r.steal_ticks, r.p(0.5), r.p(0.99), r.latency_ns.len()));
        if kept.as_ref().is_none_or(|k| r.disturbance() < k.disturbance()) {
            kept = Some(r);
        }
    }
    let nominal = kept.expect("at least one attempt");
    let peak_rss_mb = fleet.peak_rss_mb();
    let after = fleet.counters()?;
    Ok(Pass {
        pop,
        fleet,
        twins,
        setup_s,
        warm,
        nominal,
        calm: Calm::of(&quiet),
        peak_rss_mb,
        before,
        after,
        mismatches,
        first_mismatch,
        attempted,
        failed,
        cpu_us_per_req: cpu_us / completed.max(1) as f64,
        lines,
        tried,
    })
}

fn rung_line(r: &RungRun) -> String {
    let mut svc: Vec<u64> = r.res.outcomes.iter().map(|o| o.latency_ns - o.lag_ns).collect();
    svc.sort_unstable();
    format!(
        "  rung {:>8.0} req/s: {} requests, p50 {:.1} us, p99 {:.1} us, send lag p99 {:.1} us, \
         from-send p99 {:.1} us, server CPU {:.1} us/req, failed {}, mismatched {}, \
         backlog max {}{}{}",
        r.rung.rate,
        r.rung.ops.len(),
        r.p(0.5) / 1e3,
        r.p(0.99) / 1e3,
        r.lag_p99_ns() as f64 / 1e3,
        percentile(&svc, 0.99) as f64 / 1e3,
        r.cpu_us / r.checked.completed.max(1) as f64,
        r.checked.failed,
        r.checked.mismatches,
        r.res.backlog.iter().max().copied().unwrap_or(0),
        if r.verdict.backlog_grew { ", backlog grew" } else { "" },
        if r.verdict.sustainable() { "" } else { " -> not sustainable" },
    )
}

/// Scratch directory of one run (spill images, traces) in the checkout.
pub fn run_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench").join("tmp").join(format!("{workload}-{}", std::process::id()))
}

/// An untraced run: every end-to-end metric.
pub fn run(spec: &ServingSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = run_dir(spec.name);
    let result = run_in(spec, seed, seconds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(spec: &ServingSpec, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let attempt_s = ATTEMPT_REQUESTS / spec.ladder[spec.nominal];
    let attempts = ((seconds * NOMINAL_SHARE / attempt_s) as usize).max(MIN_ATTEMPTS);
    let rung_s = (seconds * 0.1).max(0.5);
    let mut p = pass(spec, seed, attempt_s, dir, false, SETUP_REPEATS, attempts)?;
    let mut report = Report::default();
    report.notes.push(format!(
        "{}: open loop, {} entities, {} generator connection(s), {} core(s), seed {seed}",
        spec.name,
        spec.entities,
        connections(),
        crate::sys::cores()
    ));
    report.notes.extend(p.lines.iter().cloned());

    let mut rng = Rng::new(seed).fork(3);
    let mut mismatches = p.mismatches;
    let mut first_mismatch = p.first_mismatch.clone();
    let completed_rate = |r: &RungRun| r.checked.completed as f64 / r.rung.seconds;
    // Runs one ladder rung; `Some(achieved rate)` when it is sustainable.
    // A failing rung is run again, up to `RUNG_TRIES` times in all, before
    // it counts as failed, so a stall of the machine does not end the climb.
    let mut visit = |idx: usize, p: &mut Pass| {
        for _ in 0..RUNG_TRIES {
            let rung = p.pop.rung(spec, &mut rng, spec.ladder[idx], rung_s);
            let r = run_rung(&p.fleet, &p.pop, &mut p.twins, rung)?;
            mismatches += r.checked.mismatches;
            if first_mismatch.is_none() {
                first_mismatch = r.checked.first_mismatch.clone();
            }
            report.notes.push(rung_line(&r));
            if r.verdict.sustainable() {
                return Ok::<_, String>(Some(completed_rate(&r)));
            }
        }
        Ok(None)
    };
    // The ladder: climb from the nominal rung until a rung fails, or walk
    // down from it if it fails too. The nominal rung is the ladder's first
    // step; when it fails it is retried like any other.
    let mut sustained = if p.nominal.verdict.sustainable() {
        Some(completed_rate(&p.nominal))
    } else {
        visit(spec.nominal, &mut p)?
    };
    if sustained.is_some() {
        for idx in spec.nominal + 1..spec.ladder.len() {
            match visit(idx, &mut p)? {
                Some(rate) => sustained = Some(rate),
                None => break,
            }
        }
    } else {
        for idx in (0..spec.nominal).rev() {
            if let Some(rate) = visit(idx, &mut p)? {
                sustained = Some(rate);
                break;
            }
        }
    }
    let peak_rss_mb = p.peak_rss_mb;
    p.fleet.stop()?;
    // pipeline_s: the CPU time of serving the nominal attempts' request
    // bytes in-process, with the servers stopped. Waits for a CPU and spill-file
    // IO, which this host makes erratic, are left out (spill cost shows in
    // the live latencies and in `spill.*`). Each replay is timed in chunks
    // of `REPLAY_CHUNK` requests, and every chunk counts at its slowest
    // over the replays: this host's cores run the same code up to ~40%
    // faster for stretches of seconds as other guests' load comes and
    // goes, and the slowest replay of a chunk is one such a stretch missed.
    let mut chunk_s: Vec<Vec<f64>> = Vec::new();
    let t_replays = Instant::now();
    for k in 0.. {
        if k >= REPLAYS && t_replays.elapsed().as_secs_f64() >= REPLAY_S {
            break;
        }
        let mut inproc = InProc::new(spec, &p.pop, &dir.join("replay-spill"), Recorder::off())?;
        inproc.upload_all();
        inproc.replay(&p.warm.rung, 0);
        chunk_s.push(p.tried.iter().flat_map(|rung| inproc.replay(rung, 0)).collect());
        mismatches += inproc.mismatches;
    }
    let pipeline_s: f64 =
        (0..chunk_s[0].len()).map(|j| chunk_s.iter().map(|c| c[j]).fold(0.0, f64::max)).sum();
    let setup_s = &p.setup_s;
    report.set("setup_s", util::median(setup_s));
    report.set("latency_p50_us", p.calm.p50_ns / 1e3);
    report.set("latency_p99_us", p.calm.p99_ns / 1e3);
    report.set("sustained_rps", sustained.unwrap_or(0.0));
    report.set("server_cpu_us_per_req", p.cpu_us_per_req);
    report.set("peak_rss_mb", peak_rss_mb);
    report.notes.push(format!(
        "  pipeline_s: {} chunks of {} requests, each at its slowest of {} in-process replays",
        chunk_s[0].len(),
        crate::inproc::REPLAY_CHUNK,
        chunk_s.len()
    ));
    report.set("pipeline_s", pipeline_s);
    let totals: Vec<f64> = chunk_s.iter().map(|c| c.iter().sum()).collect();
    report.notes.push(format!("  replay CPU s: {totals:.3?}"));
    report.attempted = p.attempted;
    report.failed = p.failed;
    report.notes.push(format!(
        "  nominal {} req/s: latency over the {} attempt(s) with {} steal ticks, {} samples; \
         error_rate {:.6} ({} of {}), {} twin mismatches in the run",
        spec.ladder[spec.nominal],
        p.calm.attempts,
        p.calm.steal_ticks,
        p.calm.samples,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        mismatches
    ));
    if let Some(m) = &first_mismatch {
        report.notes.push(format!("  first mismatch: {m}"));
    }
    report.correct = mismatches == 0;
    Ok(report)
}

/// A traced run: an untraced pass for the overhead baseline, a traced
/// live pass (counting allocators in the servers, client spans, counter
/// deltas), and the in-process replay of the same request sequence
/// through the program's public functions.
pub fn run_traced(spec: &ServingSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = run_dir(spec.name);
    let result = run_traced_in(spec, seed, seconds, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_traced_in(
    spec: &ServingSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    let nominal_s = seconds * 0.5;
    let plain = pass(spec, seed, nominal_s, dir, false, 1, 1)?;
    let plain_p50 = plain.nominal.p(0.5) / 1e3;
    let plain_cpu = plain.cpu_us_per_req;
    let mut mismatches = plain.mismatches;
    plain.fleet.stop()?;

    crate::sys::count_allocations();
    let p = pass(spec, seed, nominal_s, dir, true, 1, 1)?;
    mismatches += p.mismatches;
    let mut report = Report::default();
    report.notes.push(format!("{} (traced), seed {seed}", spec.name));
    report.notes.extend(p.lines.iter().cloned());
    let n = &p.nominal;
    let attempted = n.checked.attempted as f64;
    let live_p50 = n.p(0.5) / 1e3;
    let cpu = p.cpu_us_per_req;
    let (a, b) = (&p.after, &p.before);
    report.set("serve.reject_share", a.gate_delta(b, "rejected") / attempted);
    let metered = a.gate_delta(b, "ingest_requests");
    if metered > 0.0 {
        report.set("serve.allocs_per_req", a.gate_delta(b, "ingest_allocs") / metered);
    }
    let (hits, misses) = (a.gate_delta(b, "hits"), a.gate_delta(b, "misses"));
    report.set("registry.hit_ratio", hits / (hits + misses).max(1.0));
    report.set("registry.evictions_per_kreq", a.gate_delta(b, "evictions") / attempted * 1e3);
    report.set("spill.restores_per_kreq", a.gate_delta(b, "restores") / attempted * 1e3);
    report.set("spill.spills_per_kreq", a.gate_delta(b, "spills") / attempted * 1e3);
    if p.fleet.router.is_some() {
        report.set("route.shed_share", a.router_delta(b, "shed") / attempted);
        report.set("route.retry_share", a.router_delta(b, "retries") / attempted);
        report.set("route.upstream_error_share", a.router_delta(b, "upstream_errors") / attempted);
        let proxied = a.router_delta(b, "proxy_requests");
        if proxied > 0.0 {
            report.set("route.proxy_allocs_per_req", a.router_delta(b, "proxy_allocs") / proxied);
        }
        report.set("route.hop_us", hop_probe(&p)?);
    }
    report.set("client.lag_p99_us", n.lag_p99_ns() as f64 / 1e3);
    report.set("client.backlog_max", n.res.backlog.iter().max().copied().unwrap_or(0) as f64);
    report.set("client.samples", n.latency_ns.len() as f64);
    report.set("trace.overhead_latency_p50_us", live_p50 - plain_p50);
    report.set("trace.overhead_cpu_us_per_req", cpu - plain_cpu);

    // The in-process half: the same uploads and the same two rungs,
    // through the public functions the gatekeeper calls, in its order.
    let mut rec = Recorder::new();
    if let Some(started) = p.nominal.res.started {
        for (i, (o, r)) in p.nominal.res.outcomes.iter().zip(&p.nominal.rung.requests).enumerate() {
            let send = started + Duration::from_nanos(r.due_ns + o.lag_ns);
            let done = started + Duration::from_nanos(r.due_ns + o.latency_ns);
            rec.add("client.request", send, done, None);
            rec.spans.last_mut().expect("just added").request = i as u64;
        }
    }
    let mut inproc = InProc::new(spec, &p.pop, &dir.join("replay-spill"), rec)?;
    inproc.upload_all();
    inproc.replay(&p.warm.rung, 1 << 40);
    let requests_before = inproc.request_ns.len();
    inproc.replay(&p.nominal.rung, 2 << 40);
    mismatches += inproc.mismatches;
    let in_process_ns = {
        let mut v = inproc.request_ns[requests_before..].to_vec();
        v.sort_unstable();
        percentile(&v, 0.5)
    };
    report.set("serve.residual_us", live_p50 - in_process_ns as f64 / 1e3);
    inproc.report_layers(&mut report);
    let trace_path =
        PathBuf::from(".perfbench").join("traces").join(format!("{}-seed{seed}.jsonl", spec.name));
    inproc
        .rec
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    report.notes.push(format!(
        "  {} spans written to {}; in-process replay mismatches {}",
        inproc.rec.spans.len(),
        trace_path.display(),
        inproc.mismatches
    ));
    report.attempted = p.attempted;
    report.failed = p.failed;
    report.correct = mismatches == 0;
    drop(inproc);
    p.fleet.stop()?;
    Ok(report)
}

/// Router hop: p50 of the same records sent through the router and
/// straight to a gatekeeper, one at a time at a low rate.
fn hop_probe(p: &Pass) -> Result<f64, String> {
    const PROBES: usize = 400;
    let tenant = &p.pop.tenants[0];
    let fitted = &p.pop.fitted[tenant.fitted];
    let trace = &p.pop.traces[tenant.trace];
    let mut routed = Client::connect(p.fleet.entry)?;
    let mut direct = Client::connect(p.fleet.gatekeepers[0])?;
    let mut samples = [Vec::new(), Vec::new()];
    for (k, client) in [&mut direct, &mut routed].into_iter().enumerate() {
        let entity = format!("hop-probe-{k}");
        let (status, _) =
            client.call("PUT", &format!("/v1/profile/{APP}/{entity}"), &fitted.image)?;
        if status != 200 {
            return Err(format!("hop probe upload answered {status}"));
        }
    }
    let mut twins = [fitted.profile.clone(), fitted.profile.clone()];
    for i in 0..PROBES {
        let body = &p.pop.bodies[tenant.trace][i % trace.len()];
        for (k, client) in [&mut direct, &mut routed].into_iter().enumerate() {
            let path = format!("/v1/ingest/{APP}/hop-probe-{k}");
            let t0 = Instant::now();
            let (status, reply) = client.call("POST", &path, body.as_bytes())?;
            samples[k].push(t0.elapsed().as_nanos() as u64);
            let want = twins[k].ingest(&trace[i % trace.len()]);
            let got = crate::workload::parse_single(&reply);
            if status != 200 || got.map(|g| g.0.to_bits()) != Some(want.0.to_bits()) {
                return Err(format!("hop probe reply diverged from its twin ({status})"));
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    for s in &mut samples {
        s.sort_unstable();
    }
    Ok((percentile(&samples[1], 0.5) as f64 - percentile(&samples[0], 0.5) as f64) / 1e3)
}
