//! # exathlon-ed
//!
//! The three explanation-discovery methods the Exathlon experimental
//! study evaluates (§6.3, Table 5, Appendix D.3), re-implemented from
//! scratch:
//!
//! * [`exstream`] — **EXstream** (Zhang, Diao, Meliou; EDBT'17):
//!   entropy-based single-feature rewards, reward-leap feature selection,
//!   and threshold predicates. Model-free. The false-positive-filtering
//!   step is intentionally omitted, as in the paper's implementation
//!   (it needs user-labeled data the benchmark does not provide).
//! * [`macrobase`] — **MacroBase**'s ED module (Bailis et al.; SIGMOD'17):
//!   equal-width binning of numeric features, risk-ratio screening, and an
//!   Apriori-style search over itemsets. Model-free.
//! * [`lime`] — **LIME** (Ribeiro et al.; KDD'16) in its recurrent-tabular
//!   form: perturbation sampling around the anomalous window, a proximity
//!   kernel, and a weighted [Lasso](lasso) (k = 5) producing per-(feature,
//!   lag) importance scores. Model-dependent: explains the AD model's
//!   outlier score.
//!
//! All methods produce an [`explanation::Explanation`], the abstract form
//! the benchmark's ED metrics consume: a feature set via the extraction
//! function `G_A`, and — for logical explanations — a point-based
//! predictive model (§4.2).

pub mod explanation;
pub mod exstream;
pub mod lasso;
pub mod lime;
pub mod macrobase;

pub use explanation::{Conjunction, Explanation, Predicate};
pub use exstream::ExstreamExplainer;
pub use lime::LimeExplainer;
pub use macrobase::MacroBaseExplainer;
