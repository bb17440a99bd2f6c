//! # tin-datasets
//!
//! Synthetic temporal interaction networks standing in for the three real
//! datasets of the paper's evaluation (Section 6.1), plus the subgraph
//! extraction procedure of Section 6.2 and the statistics reported in
//! Tables 4 and 5.
//!
//! The original dumps (the full Bitcoin transaction network, the CTU-13
//! botnet capture and the Prosper Loans log) are not redistributable and far
//! exceed a laptop/CI budget. The generators in this crate reproduce the
//! *structural* properties the evaluation depends on:
//!
//! * [`bitcoin`] — a preferential-attachment transaction network with
//!   heavy-tailed amounts, many interactions per edge and a sizeable number
//!   of short money cycles (the source of hard, class C subgraphs);
//! * [`ctu13`] — a hub-and-spoke botnet traffic network (a few command &
//!   control hosts exchanging bytes with many bots, mostly back-and-forth
//!   2-cycles, which produce many easy class A subgraphs);
//! * [`prosper`] — a peer-to-peer loan network with lender/borrower roles
//!   and moderate reciprocation.
//!
//! Every generator is deterministic given its seed and exposes a `scale`
//! parameter so the same shapes can be produced at CI size or at
//! closer-to-paper size.
//!
//! When a real extract *is* available, the [`loader`] module streams it in:
//! a bounded-memory CSV/delimited-text reader with delimiter inference,
//! header detection, column mapping and unit scaling that feeds
//! [`tin_graph::GraphBuilder`] record by record. Loaded graphs flow through
//! [`extract`] and the rest of the pipeline exactly like generated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitcoin;
pub mod config;
pub mod ctu13;
pub mod extract;
pub mod loader;
pub mod prosper;
pub(crate) mod sampling;
pub mod stats;

pub use bitcoin::generate_bitcoin;
pub use config::{
    BitcoinConfig, ColumnMap, Ctu13Config, DatasetKind, Delimiter, HeaderMode, LoaderConfig,
    ProsperConfig,
};
pub use ctu13::generate_ctu13;
pub use extract::{extract_seed_subgraphs, ExtractConfig, SeedSubgraph};
pub use loader::{
    load_batches, load_path, load_reader, load_str, DeltaBatches, DeltaStream, IngestReport,
    LoadedDataset,
};
pub use prosper::generate_prosper;
pub use stats::{dataset_stats, subgraph_stats, DatasetStats, SubgraphStats};
pub use tin_graph::ParseMode;

use tin_graph::TemporalGraph;

/// Generates the dataset selected by `kind` at the default (CI-friendly)
/// scale with the given seed.
pub fn generate(kind: DatasetKind, seed: u64) -> TemporalGraph {
    match kind {
        DatasetKind::Bitcoin => generate_bitcoin(&BitcoinConfig {
            seed,
            ..BitcoinConfig::default()
        }),
        DatasetKind::Ctu13 => generate_ctu13(&Ctu13Config {
            seed,
            ..Ctu13Config::default()
        }),
        DatasetKind::Prosper => generate_prosper(&ProsperConfig {
            seed,
            ..ProsperConfig::default()
        }),
    }
}
