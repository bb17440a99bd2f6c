//! # tin-bench
//!
//! Shared harness for reproducing the paper's evaluation (Section 6): it
//! generates the three synthetic datasets, extracts the seed-centred
//! subgraphs, runs the four flow computation methods and the two pattern
//! matchers, and formats the results as the paper's tables and figures.
//!
//! The `experiments` binary prints every table/figure; the Criterion benches
//! under `benches/` measure the individual building blocks with statistical
//! rigor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow_experiments;
pub mod ingest_experiments;
pub mod pattern_experiments;
pub mod replay;
pub mod report;
pub mod workloads;

pub use flow_experiments::{
    bucket_experiment, flow_method_experiment, lp_engine_experiment, BucketRow, EngineClassRow,
    EngineSelection, EngineStat, FlowTable, MethodTiming, REPEATS,
};
pub use ingest_experiments::{assert_ingest_equivalent, ingest_csv, to_csv, IngestMeasurement};
pub use pattern_experiments::{pattern_experiment, PatternTableRow};
pub use replay::{replay, Bar, Regime, Replay, Verdict};
pub use report::{format_duration, print_table};
pub use workloads::{build_subgraphs, generate_dataset, ExperimentScale, Workload};
