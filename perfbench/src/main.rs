//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve gatekeeper|router ...      (a serving child process)
//! perfbench record-golden <from> <to>        (golden.txt lines)
//! ```
//!
//! Workloads: `ingest-light`, `ingest-model-routed`, `tenant-churn`
//! (open-loop serving) and `pipeline-batch` (the batch AD/ED pipeline).
//! See `README.md` beside this crate for what each measures and why.

mod client;
mod inproc;
mod pipeline;
mod report;
mod server;
mod serving;
mod sys;
mod trace;
mod util;
mod workload;

#[global_allocator]
static ALLOC: sys::SwitchableCounter = sys::SwitchableCounter;

/// Every workload this program runs (all listed in `BENCHMARK.json`).
const WORKLOADS: &[&str] =
    &["ingest-light", "ingest-model-routed", "tenant-churn", "pipeline-batch"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&String, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => server::serve_main(&args[1..]).map(|()| None),
        Some("record-golden") => {
            let bound = |i: usize| args.get(i).and_then(|s| s.parse().ok());
            match (bound(1), bound(2)) {
                (Some(from), Some(to)) => {
                    pipeline::record_golden(from, to);
                    Ok(None)
                }
                _ => Err("record-golden <from> <to>".to_string()),
            }
        }
        _ => parse_args(&args).and_then(|a| {
            let report = match (serving::spec(&a.workload), a.trace) {
                (Some(spec), false) => serving::run(&spec, a.seed, a.seconds),
                (Some(spec), true) => serving::run_traced(&spec, a.seed, a.seconds),
                (None, false) => pipeline::run(a.seed, a.seconds),
                (None, true) => pipeline::run_traced(a.seed, a.seconds),
            }?;
            Ok(Some((report, a.trace)))
        }),
    };
    match result {
        Ok(Some((report, traced))) => {
            report.print(traced);
            if !report.correct {
                eprintln!("perfbench: outputs did not match their twins or golden digest");
                std::process::exit(1);
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
