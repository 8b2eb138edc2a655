//! The dataset builder: reproduces the Table 1(b) composition.
//!
//! The paper's dataset contains **59 undisturbed traces** and **34
//! disturbed traces** carrying **97 anomaly instances**:
//!
//! | Type | traces | instances |
//! |------|--------|-----------|
//! | T1 bursty input              | 6 | 29 |
//! | T2 bursty input until crash  | 7 |  7 |
//! | T3 stalled input             | 4 | 16 |
//! | T4 CPU contention            | 6 | 26 |
//! | T5 driver failure / T6 executor failure | 11 | 9 + 10 |
//!
//! [`DatasetBuilder::standard`] reproduces exactly these counts (with
//! scaled-down durations); [`DatasetBuilder::tiny`] builds a small dataset
//! for tests and the quickstart example.

use crate::deg::{AnomalyType, DegSchedule, InjectedEvent};
use crate::engine::{simulate, SimSpec};
use crate::ground_truth::GroundTruthEntry;
use crate::trace::Trace;
use exathlon_linalg::obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The assembled benchmark dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Undisturbed (normal) traces — the default training data.
    pub undisturbed: Vec<Trace>,
    /// Disturbed traces — the test data.
    pub disturbed: Vec<Trace>,
    /// The ground-truth table over all disturbed traces.
    pub ground_truth: Vec<GroundTruthEntry>,
}

impl Dataset {
    /// Ground-truth entries of one trace.
    pub fn ground_truth_for(&self, trace_id: usize) -> Vec<&GroundTruthEntry> {
        self.ground_truth.iter().filter(|e| e.trace_id == trace_id).collect()
    }

    /// Anomaly instance count per type, `[T1..T6]`.
    pub fn instances_per_type(&self) -> [usize; 6] {
        let mut out = [0usize; 6];
        for e in &self.ground_truth {
            out[e.anomaly_type.index() - 1] += 1;
        }
        out
    }

    /// Disturbed trace count per dominant type, `[T1..T6]`.
    pub fn traces_per_type(&self) -> [usize; 6] {
        let mut out = [0usize; 6];
        for t in &self.disturbed {
            if let Some(e) = t.schedule.events().first() {
                out[e.atype.index() - 1] += 1;
            }
        }
        out
    }

    /// Total number of data items (records) across all traces.
    pub fn total_records(&self) -> usize {
        self.undisturbed.iter().chain(&self.disturbed).map(|t| t.len()).sum()
    }
}

/// Builds [`Dataset`]s with the paper's composition at configurable scale.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    seed: u64,
    /// Undisturbed trace duration in ticks.
    normal_duration: u64,
    /// Disturbed trace duration in ticks.
    disturbed_duration: u64,
    /// Whether to generate traces in parallel.
    parallel: bool,
}

impl DatasetBuilder {
    /// The standard dataset: 59 + 34 traces, 97 anomalies, durations scaled
    /// down from the paper's hours to minutes of simulated time.
    pub fn standard(seed: u64) -> Self {
        Self { seed, normal_duration: 900, disturbed_duration: 1500, parallel: true }
    }

    /// A tiny dataset (4 undisturbed + 2 disturbed traces) for tests and
    /// the quickstart example.
    pub fn tiny(seed: u64) -> Self {
        Self { seed, normal_duration: 300, disturbed_duration: 500, parallel: false }
    }

    /// Override trace durations (ticks).
    pub fn with_durations(mut self, normal: u64, disturbed: u64) -> Self {
        self.normal_duration = normal;
        self.disturbed_duration = disturbed;
        self
    }

    /// Enable/disable parallel trace generation.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Build the dataset.
    pub fn build(&self) -> Dataset {
        let _stage = obs::stage("simulate");
        let is_tiny = self.normal_duration <= 300;
        let specs = if is_tiny { self.tiny_specs() } else { self.standard_specs() };
        let n_undisturbed = specs.iter().filter(|s| s.schedule.is_empty()).count();

        let results: Vec<(Trace, Vec<GroundTruthEntry>)> = if self.parallel {
            parallel_simulate(&specs)
        } else {
            specs
                .iter()
                .map(|spec| {
                    let _sp = obs::span("simulate", "trace");
                    simulate(spec)
                })
                .collect()
        };
        obs::add_records("simulate", results.iter().map(|(t, _)| t.base.len() as u64).sum());

        let mut undisturbed = Vec::with_capacity(n_undisturbed);
        let mut disturbed = Vec::with_capacity(specs.len() - n_undisturbed);
        let mut ground_truth = Vec::new();
        for (trace, gt) in results {
            if trace.is_undisturbed() {
                undisturbed.push(trace);
            } else {
                disturbed.push(trace);
                ground_truth.extend(gt);
            }
        }
        Dataset { undisturbed, disturbed, ground_truth }
    }

    fn tiny_specs(&self) -> Vec<SimSpec> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut specs = Vec::new();
        let mut trace_id = 0;
        for app in [0usize, 1] {
            for _ in 0..2 {
                specs.push(SimSpec::undisturbed(
                    app,
                    next_id(&mut trace_id),
                    rng.gen_range(0.8..1.1),
                    5,
                    self.normal_duration,
                    rng.gen(),
                ));
            }
        }
        // One T1 trace and one T3 trace.
        specs.push(SimSpec {
            app_id: 0,
            trace_id: next_id(&mut trace_id),
            rate_factor: 1.0,
            concurrency: 5,
            duration: self.disturbed_duration,
            seed: rng.gen(),
            schedule: DegSchedule::new(vec![InjectedEvent {
                atype: AnomalyType::BurstyInput,
                start: self.disturbed_duration / 3,
                duration: 60,
                intensity: 5.0,
                node: 0,
            }]),
        });
        specs.push(SimSpec {
            app_id: 1,
            trace_id: next_id(&mut trace_id),
            rate_factor: 1.0,
            concurrency: 5,
            duration: self.disturbed_duration,
            seed: rng.gen(),
            schedule: DegSchedule::new(vec![InjectedEvent {
                atype: AnomalyType::StalledInput,
                start: self.disturbed_duration / 3,
                duration: 60,
                intensity: 0.0,
                node: 0,
            }]),
        });
        specs
    }

    fn standard_specs(&self) -> Vec<SimSpec> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut specs = Vec::new();
        let mut trace_id = 0usize;

        // --- 59 undisturbed traces, apps round-robin, varied (R, C). ---
        for i in 0..59 {
            specs.push(SimSpec::undisturbed(
                i % 10,
                next_id(&mut trace_id),
                rng.gen_range(0.7..1.2),
                [3usize, 5, 5, 5, 7][i % 5],
                self.normal_duration,
                rng.gen(),
            ));
        }

        // --- Disturbed traces per Table 1(b). ---
        let d = self.disturbed_duration;

        // T1: 6 traces, 29 instances (5+5+5+5+5+4).
        let t1_counts = [5usize, 5, 5, 5, 5, 4];
        for (k, &count) in t1_counts.iter().enumerate() {
            let events =
                spread_events(&mut rng, d, count, 40..=80, |rng, start, dur| InjectedEvent {
                    atype: AnomalyType::BurstyInput,
                    start,
                    duration: dur,
                    intensity: rng.gen_range(3.3..4.6),
                    node: 0,
                });
            specs.push(self.disturbed_spec(k / 2, &mut trace_id, &mut rng, events, d));
        }

        // T2: 7 traces, 1 open-ended burst each.
        for k in 0..7 {
            let start = rng.gen_range(d / 4..d / 2);
            let events = vec![InjectedEvent {
                atype: AnomalyType::BurstyInputUntilCrash,
                start,
                duration: d, // open-ended: crash ends it
                intensity: rng.gen_range(8.0..12.0),
                node: 0,
            }];
            specs.push(self.disturbed_spec(k / 2 + 2, &mut trace_id, &mut rng, events, d));
        }

        // T3: 4 traces, 16 instances (4 each).
        for k in 0..4 {
            let events = spread_events(&mut rng, d, 4, 50..=70, |_, start, dur| InjectedEvent {
                atype: AnomalyType::StalledInput,
                start,
                duration: dur,
                intensity: 0.0,
                node: 0,
            });
            specs.push(self.disturbed_spec(k / 2 + 5, &mut trace_id, &mut rng, events, d));
        }

        // T4: 6 traces, 26 instances (5+5+4+4+4+4).
        let t4_counts = [5usize, 5, 4, 4, 4, 4];
        for (k, &count) in t4_counts.iter().enumerate() {
            let events =
                spread_events(&mut rng, d, count, 40..=90, |rng, start, dur| InjectedEvent {
                    atype: AnomalyType::CpuContention,
                    start,
                    duration: dur,
                    intensity: rng.gen_range(0.55..0.95),
                    node: rng.gen_range(0..4),
                });
            specs.push(self.disturbed_spec(k / 2 + 7, &mut trace_id, &mut rng, events, d));
        }

        // T5 + T6: 11 traces, 9 driver failures + 10 executor failures.
        // 5 traces carry T5 events (2,2,2,2,1) and 6 carry T6 (2,2,2,2,1,1).
        let t5_counts = [2usize, 2, 2, 2, 1];
        for (k, &count) in t5_counts.iter().enumerate() {
            let events =
                spread_events(&mut rng, d, count, 20..=20, |_, start, dur| InjectedEvent {
                    atype: AnomalyType::DriverFailure,
                    start,
                    duration: dur,
                    intensity: 0.0,
                    node: 0,
                });
            specs.push(self.disturbed_spec(k / 2 + 4, &mut trace_id, &mut rng, events, d));
        }
        let t6_counts = [2usize, 2, 2, 2, 1, 1];
        for (k, &count) in t6_counts.iter().enumerate() {
            let events =
                spread_events(&mut rng, d, count, 10..=10, |rng, start, dur| InjectedEvent {
                    atype: AnomalyType::ExecutorFailure,
                    start,
                    duration: dur,
                    intensity: 0.0,
                    node: rng.gen_range(0..4),
                });
            specs.push(self.disturbed_spec(k / 2 + 2, &mut trace_id, &mut rng, events, d));
        }

        specs
    }

    fn disturbed_spec(
        &self,
        app_hint: usize,
        trace_id: &mut usize,
        rng: &mut StdRng,
        events: Vec<InjectedEvent>,
        duration: u64,
    ) -> SimSpec {
        // Disturbed traces deliberately use (R, C) settings that reach
        // beyond the undisturbed training range (0.7..1.2 at concurrency
        // 3/5/7): the Few-Examples settings then face genuinely unseen
        // contexts, the generalization challenge §4.1 describes.
        SimSpec {
            app_id: app_hint % 10,
            trace_id: next_id(trace_id),
            rate_factor: rng.gen_range(0.55..1.45),
            concurrency: [2usize, 4, 6, 9][rng.gen_range(0..4_usize)],
            duration,
            seed: rng.gen(),
            schedule: DegSchedule::new(events),
        }
    }
}

fn next_id(counter: &mut usize) -> usize {
    let id = *counter;
    *counter += 1;
    id
}

/// Place `count` non-overlapping events of duration drawn from `dur_range`
/// across a trace of `total` ticks, leaving a warm-up head, recovery gaps,
/// and a tail.
fn spread_events(
    rng: &mut StdRng,
    total: u64,
    count: usize,
    dur_range: std::ops::RangeInclusive<u64>,
    mut make: impl FnMut(&mut StdRng, u64, u64) -> InjectedEvent,
) -> Vec<InjectedEvent> {
    assert!(count > 0);
    let head = total / 6;
    let tail = total / 6;
    let usable = total - head - tail;
    let slot = usable / count as u64;
    let mut events = Vec::with_capacity(count);
    for i in 0..count {
        let dur = rng.gen_range(dur_range.clone()).min(slot.saturating_sub(30).max(10));
        let slack = slot.saturating_sub(dur + 20);
        let jitter = if slack > 0 { rng.gen_range(0..slack) } else { 0 };
        let start = head + i as u64 * slot + jitter;
        events.push(make(rng, start, dur));
    }
    events
}

/// Simulate a batch of specs on the shared worker pool
/// (`exathlon_linalg::par`): trace generation draws from the same global
/// worker budget as the rest of the pipeline and honours the
/// `EXATHLON_THREADS` override. Chunks are contiguous and joined in spec
/// order, so the output is bitwise identical to the sequential path
/// (pinned by `tests/parallel_determinism.rs`).
fn parallel_simulate(specs: &[SimSpec]) -> Vec<(Trace, Vec<GroundTruthEntry>)> {
    exathlon_linalg::par::par_map(specs, |spec| {
        let _sp = obs::span("simulate", "trace");
        simulate(spec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_shape() {
        let ds = DatasetBuilder::tiny(7).build();
        assert_eq!(ds.undisturbed.len(), 4);
        assert_eq!(ds.disturbed.len(), 2);
        assert_eq!(ds.ground_truth.len(), 2);
        let per_type = ds.instances_per_type();
        assert_eq!(per_type[0], 1); // one T1
        assert_eq!(per_type[2], 1); // one T3
    }

    #[test]
    fn tiny_dataset_is_deterministic() {
        let a = DatasetBuilder::tiny(7).build();
        let b = DatasetBuilder::tiny(7).build();
        assert!(a.undisturbed[0].base.same_data(&b.undisturbed[0].base));
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetBuilder::tiny(1).build();
        let b = DatasetBuilder::tiny(2).build();
        assert!(!a.undisturbed[0].base.same_data(&b.undisturbed[0].base));
    }

    #[test]
    fn ground_truth_lookup() {
        let ds = DatasetBuilder::tiny(7).build();
        let id = ds.disturbed[0].trace_id;
        assert_eq!(ds.ground_truth_for(id).len(), 1);
    }

    /// The full-scale composition check: Table 1(b) counts. Slower, so the
    /// durations are reduced — counts don't depend on duration (except T2,
    /// which needs enough room to crash; verified separately below).
    #[test]
    fn standard_dataset_matches_table1b() {
        let ds = DatasetBuilder::standard(3).with_durations(400, 1200).build();
        assert_eq!(ds.undisturbed.len(), 59, "undisturbed trace count");
        assert_eq!(ds.disturbed.len(), 34, "disturbed trace count");
        let traces = ds.traces_per_type();
        assert_eq!(traces, [6, 7, 4, 6, 5, 6], "traces per type (T5/T6 split 5+6)");
        let inst = ds.instances_per_type();
        assert_eq!(inst[0], 29, "T1 instances");
        assert_eq!(inst[1], 7, "T2 instances");
        assert_eq!(inst[2], 16, "T3 instances");
        assert_eq!(inst[3], 26, "T4 instances");
        assert_eq!(inst[4], 9, "T5 instances");
        assert_eq!(inst[5], 10, "T6 instances");
        assert_eq!(inst.iter().sum::<usize>(), 97, "total anomaly instances");
    }

    #[test]
    fn t2_traces_crash() {
        let ds = DatasetBuilder::standard(3).with_durations(400, 1200).build();
        let t2: Vec<&Trace> = ds
            .disturbed
            .iter()
            .filter(|t| t.schedule.events()[0].atype == AnomalyType::BurstyInputUntilCrash)
            .collect();
        assert_eq!(t2.len(), 7);
        let crashed = t2.iter().filter(|t| t.crashed_at.is_some()).count();
        assert!(crashed >= 5, "most T2 traces should crash (got {crashed}/7)");
    }
}
