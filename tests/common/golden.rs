//! Golden output digests of the batch AD pipeline, shared by the test
//! binaries that pin pipeline bits: the bits behind the Table 4/5/8
//! numbers, as one FNV-1a-64 constant per method.
//!
//! Each digest folds, in a fixed order:
//! - every `D²_train` score and every per-record test score (`to_bits()`);
//! - the threshold, F1, precision, recall and per-type recall of all 24
//!   threshold rules at each AD level (AD1–AD4);
//! - the trace/app/global separation AUPRC;
//! - for kNN, LOF, AE and EWMA, the per-record scores of the streaming
//!   [`run_replay`] driver over the same dataset.
//!
//! Every method trains from its own seed, so a method's digest does not
//! depend on which other methods share the run.

use exathlon_core::config::{AdMethod, ExperimentConfig, StreamMethod};
use exathlon_core::evaluate::{evaluate_detection, ScoredTest};
use exathlon_core::experiment::run_pipeline;
use exathlon_core::model::TrainingBudget;
use exathlon_core::replay::run_replay;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsmetrics::presets::AdLevel;

/// The pinned digest of each method.
pub const GOLDEN: [(AdMethod, u64); 7] = [
    (AdMethod::Knn, 0xcaca_b1ae_fde8_3288),
    (AdMethod::Lof, 0xe1f3_9177_05ca_7bcf),
    (AdMethod::Ae, 0x0993_e070_a53f_b004),
    (AdMethod::Lstm, 0x69c4_c000_8138_955f),
    (AdMethod::BiGan, 0x8674_ebd1_8b8f_945d),
    (AdMethod::Mad, 0x114b_b4e0_ec00_7381),
    (AdMethod::Ewma, 0x7ed5_53b6_000d_1879),
];

/// Methods whose streaming form is folded into their digest.
const STREAMED: [(AdMethod, StreamMethod); 4] = [
    (AdMethod::Knn, StreamMethod::Knn),
    (AdMethod::Lof, StreamMethod::Lof),
    (AdMethod::Ae, StreamMethod::Ae),
    (AdMethod::Ewma, StreamMethod::Ewma),
];

/// FNV-1a, 64-bit, over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn scored(&mut self, tests: &[ScoredTest]) {
        self.word(tests.len() as u64);
        for t in tests {
            self.word(t.scores.len() as u64);
            for &s in &t.scores {
                self.f64(s);
            }
        }
    }
}

/// Run the pipeline (and the replay, for the streamed methods among
/// `methods`) once on the tiny dataset and digest every method.
fn digests(methods: &[AdMethod]) -> Vec<(AdMethod, u64)> {
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
    let streamed: Vec<StreamMethod> =
        STREAMED.iter().filter(|(m, _)| methods.contains(m)).map(|&(_, s)| s).collect();
    let run = run_pipeline(&ds, &config, methods, TrainingBudget::Quick);
    let replay = run_replay(&ds, &config, &streamed, TrainingBudget::Quick);

    run.methods
        .iter()
        .map(|(method, mr)| {
            let mut h = Fnv::new();
            for &s in &mr.model.d2_scores {
                h.f64(s);
            }
            h.scored(&mr.scored);
            for level in AdLevel::ALL {
                let outcomes = evaluate_detection(&mr.model, &mr.scored, level);
                assert_eq!(outcomes.len(), 24, "{method:?} {level:?}: rule count");
                for o in outcomes {
                    h.f64(o.threshold);
                    h.f64(o.f1);
                    h.f64(o.precision);
                    h.f64(o.recall);
                    for r in o.per_type_recall {
                        h.f64(r.unwrap_or(f64::NAN));
                    }
                }
            }
            h.f64(mr.separation.trace.average);
            h.f64(mr.separation.app.average);
            h.f64(mr.separation.global.average);
            if let Some(&(_, sm)) = STREAMED.iter().find(|(m, _)| m == method) {
                h.scored(replay.scored(sm));
            }
            (*method, h.0)
        })
        .collect()
}

/// Digest `methods` and compare against [`GOLDEN`]; on mismatch, panic
/// with every computed digest formatted as table rows, so an intended
/// numerics change can update the table in one go.
pub fn assert_golden(methods: &[AdMethod]) {
    let want: Vec<(AdMethod, u64)> =
        methods.iter().map(|m| *GOLDEN.iter().find(|(g, _)| g == m).expect("no golden")).collect();
    let got = digests(methods);
    if got != want {
        let table: String = got
            .iter()
            .map(|(m, d)| {
                let hex = format!("{d:016x}");
                format!(
                    "    (AdMethod::{m:?}, 0x{}_{}_{}_{}),\n",
                    &hex[..4],
                    &hex[4..8],
                    &hex[8..12],
                    &hex[12..]
                )
            })
            .collect();
        panic!("pipeline output moved off the golden digests; computed:\n{table}");
    }
}
