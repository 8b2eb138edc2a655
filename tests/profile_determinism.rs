//! Observability determinism: `EXATHLON_PROFILE=1` must never change a
//! single bit of pipeline output — guards only read clocks — and the
//! emitted report must parse as JSON and cover every named pipeline stage
//! (simulate / partition / transform / train / score / threshold /
//! evaluate / ed). A profiled streaming replay meters exactly the records
//! it replays.
//!
//! Everything lives in one test function: `EXATHLON_PROFILE` is
//! process-global state, so the unprofiled and profiled runs must be
//! strictly sequential.

use exathlon::core::config::{AdMethod, ExperimentConfig, StreamMethod};
use exathlon::core::edrun::{collect_cases, evaluate_ed, EdMethodKind, EdRunner};
use exathlon::core::experiment::run_pipeline;
use exathlon::core::model::TrainingBudget;
use exathlon::core::obs;
use exathlon::core::replay::run_replay;
use exathlon::metrics::presets::AdLevel;
use exathlon::sparksim::dataset::DatasetBuilder;

/// Every stage the instrumented pipeline must report.
const STAGES: [&str; 8] =
    ["simulate", "partition", "transform", "train", "score", "threshold", "evaluate", "ed"];

/// Run dataset build → pipeline → threshold grid → ED and fold every
/// deterministic numeric output into one bit-level digest. Wall-clock
/// outputs (ED `time_secs`) are deliberately excluded.
fn digest() -> Vec<u64> {
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
    let run = run_pipeline(&ds, &config, &[AdMethod::Knn, AdMethod::Mad], TrainingBudget::Quick);

    let mut bits = Vec::new();
    for (_, mr) in &run.methods {
        for t in &mr.scored {
            bits.extend(t.scores.iter().map(|s| s.to_bits()));
        }
        bits.push(mr.separation.trace.average.to_bits());
        bits.push(mr.separation.app.average.to_bits());
        bits.push(mr.separation.global.average.to_bits());
    }
    for o in run.detection(AdMethod::Knn, AdLevel::Range) {
        bits.push(o.threshold.to_bits());
        bits.push(o.f1.to_bits());
        bits.push(o.precision.to_bits());
        bits.push(o.recall.to_bits());
    }
    let cases = collect_cases(&run.tests, 10);
    assert!(!cases.is_empty(), "tiny dataset must yield ED cases");
    let runner = EdRunner { method: EdMethodKind::Exstream, ae_model: None, seed: config.seed };
    let ed = evaluate_ed(&runner, &cases);
    bits.push(ed.average.conciseness.to_bits());
    bits.push(ed.average.stability.to_bits());
    bits.push(ed.average.concordance.to_bits());
    bits.push(ed.average.n_cases as u64);
    bits
}

#[test]
fn profiled_run_is_bitwise_identical_and_report_covers_every_stage() {
    // Unprofiled baseline — the registry must stay empty.
    std::env::remove_var(obs::PROFILE_ENV);
    obs::refresh();
    obs::reset();
    let baseline = digest();
    let rep = obs::report();
    assert!(rep.stages.is_empty(), "disabled profiling recorded stages: {:?}", rep.stages);
    assert!(rep.spans.is_empty(), "disabled profiling recorded spans");

    // Profiled run: bitwise-identical output.
    std::env::set_var(obs::PROFILE_ENV, "1");
    obs::refresh();
    obs::reset();
    let profiled = digest();
    assert_eq!(baseline, profiled, "EXATHLON_PROFILE=1 changed pipeline output");

    // The report covers every named stage, with sane aggregates.
    let rep = obs::report();
    for stage in STAGES {
        let s = rep
            .stages
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("stage {stage:?} missing from report"));
        assert!(s.entries > 0, "stage {stage:?} has no entries");
        assert!(s.wall_ns > 0, "stage {stage:?} has no wall-clock");
    }
    assert!(
        rep.spans.iter().any(|s| s.stage == "simulate" && s.name == "trace"),
        "per-trace simulate spans missing"
    );
    assert!(
        rep.spans.iter().any(|s| s.stage == "train" && s.name == "kNN"),
        "per-method train spans missing"
    );
    assert!(
        rep.spans.iter().any(|s| s.stage == "threshold" && s.name == "rule"),
        "threshold-rule spans missing"
    );
    assert!(
        rep.spans.iter().any(|s| s.stage == "ed" && s.name == "EXstream.explain"),
        "ED explain spans missing"
    );
    assert!(
        rep.counters.iter().any(|(k, v)| k == "par.calls" && *v > 0),
        "parallel-layer counters missing: {:?}",
        rep.counters
    );

    // The JSON document parses and names every stage; the table renders
    // every stage row.
    let value = serde_json::parse_value(&rep.to_json()).expect("report JSON must parse");
    let stages = value.get("stages").and_then(|v| v.as_array()).expect("stages array");
    for stage in STAGES {
        assert!(
            stages.iter().any(|s| s.get("name").and_then(|n| n.as_str()) == Some(stage)),
            "stage {stage:?} missing from JSON report"
        );
    }
    let table = rep.table(10);
    for stage in STAGES {
        assert!(table.contains(stage), "stage {stage:?} missing from table:\n{table}");
    }

    // The emitted file exists, parses, and lands under the report dir.
    let path = obs::emit_report().expect("emit_report must write under EXATHLON_PROFILE=1");
    let text = std::fs::read_to_string(&path).expect("report file readable");
    serde_json::parse_value(&text).expect("emitted report file must parse");
    assert!(path.ends_with(obs::REPORT_FILE));

    // The streaming replay meters exactly the records it replays.
    obs::reset();
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
    let run = run_replay(&ds, &config, &StreamMethod::ALL, TrainingBudget::Quick);
    let per_method: usize = run.tests.iter().map(|t| t.series.len()).sum();
    let metered = obs::report().counters.iter().find(|(k, _)| k == "stream.records").map(|c| c.1);
    assert_eq!(
        metered,
        Some((per_method * StreamMethod::ALL.len()) as u64),
        "stream.records disagrees with the replayed record count"
    );

    std::env::remove_var(obs::PROFILE_ENV);
    obs::refresh();
    obs::reset();
}
