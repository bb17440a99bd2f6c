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

pub mod durability_experiments;
pub mod flow_experiments;
pub mod ingest_experiments;
pub mod pattern_experiments;
pub mod report;
pub mod stream_experiments;
pub mod warmflow_experiments;
pub mod window_experiments;
pub mod workloads;

pub use durability_experiments::{durability_experiment, DurabilityMeasurement};
pub use flow_experiments::{
    bucket_experiment, flow_method_experiment, lp_engine_experiment, BucketRow, EngineClassRow,
    EngineSelection, EngineStat, FlowTable, MethodTiming,
};
pub use ingest_experiments::{assert_ingest_equivalent, ingest_csv, to_csv, IngestMeasurement};
pub use pattern_experiments::{pattern_experiment, PatternTableRow};
pub use report::{format_duration, print_table};
pub use stream_experiments::{stream_experiment, StreamMeasurement};
pub use warmflow_experiments::{warmflow_experiment, WarmflowMeasurement};
pub use window_experiments::{window_experiment, WindowMeasurement};
pub use workloads::{build_subgraphs, generate_dataset, ExperimentScale, Workload};
