//! # exathlon-core
//!
//! The Exathlon benchmark pipeline (§5, Figure 3): everything between the
//! raw simulated traces and the benchmark scores.
//!
//! The seven pipeline phases map onto the modules of this crate:
//!
//! 1. **Data partitioning** — [`partition`]: select and split the 93
//!    traces according to the learning setting (LS1–LS4, [`config`]).
//! 2. **Data transformation** — [`transform`]: optional `α`-resampling,
//!    dimensionality reduction (`FS_custom` 19 features or `FS_pca`), and
//!    rescaling fitted on training data.
//! 3. **AD modeling** — [`model`]: fit a normality model (LSTM / AE /
//!    BiGAN / baselines) on `D¹_train`, derive outlier scores, and fit
//!    unsupervised thresholds on `D²_train`.
//! 4. **AD inference** — score every test trace; contiguous positive
//!    predictions form predicted anomaly ranges. [`replay`] is the online
//!    form of this phase: the streaming engine feeds each trace
//!    record-by-record through `exathlon_ad::stream` detectors.
//! 5. **AD evaluation** — [`evaluate`]: separation AUPRC at trace /
//!    application / global level (Table 3) and range-based
//!    precision/recall at AD1–AD4 across the 24 thresholding rules
//!    (Table 4).
//! 6. **ED execution** — [`edrun`]: explain each detected anomaly with
//!    the model-free (EXstream, MacroBase) and model-dependent (LIME)
//!    methods.
//! 7. **ED evaluation** — [`edrun`]: conciseness, stability, concordance,
//!    accuracy, and time (Table 5).
//!
//! [`report`] holds the serializable result tables the benchmark binaries
//! print.
//!
//! [`checkpoint`], [`registry`], [`spill`], [`wire`], [`serve`] and
//! [`route`] form the multi-tenant serving layer over phase 4's
//! streaming engine: bitwise-lossless profile snapshots, an LRU
//! byte-budgeted profile cache with spill-to-disk eviction, the
//! allocation-free HTTP wire format, the gatekeeper hosting many
//! `(app, entity)` tenants concurrently, and the consistent-hash router
//! tier that scales the fleet horizontally with checkpoint-driven
//! rebalance. Both tiers run on one private `epoll` reactor (`net`).

pub mod checkpoint;
pub mod config;
pub mod edrun;
pub mod evaluate;
pub mod experiment;
pub mod model;
mod net;
pub mod obs;
pub mod par;
pub mod partition;
pub mod registry;
pub mod replay;
pub mod report;
pub mod route;
pub mod serve;
pub mod spill;
pub mod transform;
pub mod wire;

pub use config::{ExperimentConfig, FeatureSpace, LearningSetting};
