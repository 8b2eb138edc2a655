//! Golden output digests of the batch AD pipeline for every pinned
//! method (see [`common::golden`] for what each digest folds).
//!
//! The pipeline runs once. The constants are a property of the numerics,
//! not of the host: they hold with any `EXATHLON_THREADS` and under
//! `EXATHLON_ISA=scalar`, because the kernels fix their accumulation order
//! and never fuse a multiply-add. A change that moves a single bit of any
//! score or metric fails here; on mismatch the test prints every computed
//! digest so an intended numerics change can update the table in one go.

mod common {
    pub mod golden;
}

use exathlon_core::config::AdMethod;

#[test]
fn pipeline_and_replay_match_golden_digests() {
    let methods: Vec<AdMethod> = common::golden::GOLDEN.iter().map(|&(m, _)| m).collect();
    common::golden::assert_golden(&methods);
}
