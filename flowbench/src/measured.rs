//! What a measured phase records, and when it stops.

use crate::{alloc, stats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Latency samples one measured phase can hold without reallocating. The
/// buffer is reserved before the allocation baseline is taken, so it never
/// counts towards `peak_alloc_mb`; untouched pages cost no memory.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// Count metrics and their units; each workload fills the ones its layers
/// produce and reports 0 for the rest.
pub const COUNTS: [(&str, &str); 34] = [
    ("datasets.records", "count"),
    ("datasets.bytes", "B"),
    ("datasets.skipped", "count"),
    ("graph.evicted", "count"),
    ("graph.tombstoned", "count"),
    ("graph.live_end", "count"),
    ("durable.journal_bytes", "B"),
    ("durable.frames", "count"),
    ("durable.replayed", "count"),
    ("durable.snapshot_bytes", "B"),
    ("durable.snapshot_ms", "ms"),
    ("patterns.rows", "count"),
    ("patterns.rebuilds", "count"),
    ("patterns.refreshed_groups", "count"),
    ("patterns.garbage_share", "ratio"),
    ("patterns.instances", "count"),
    ("flow.added_arcs", "count"),
    ("flow.tombstoned_arcs", "count"),
    ("flow.compactions", "count"),
    ("flow.arcs_per_live", "ratio"),
    ("flow.subgraphs", "count"),
    ("flow.interactions", "count"),
    ("flow.class_a", "count"),
    ("flow.class_b", "count"),
    ("flow.class_c", "count"),
    ("flow.preprocess_removed", "count"),
    ("flow.simplify_removed", "count"),
    ("lp.basis_hit_ratio", "ratio"),
    ("lp.warm_pivots_per_solve", "ratio"),
    ("lp.cold_fallbacks", "count"),
    ("lp.dual_reopts", "count"),
    ("lp.netflow_solves", "count"),
    ("lp.pivots", "count"),
    ("parallel.threads", "count"),
];

/// Per-layer work counts, by metric name.
#[derive(Debug, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            COUNTS.iter().any(|&(known, _)| known == name),
            "{name} is not in COUNTS"
        );
        self.0.insert(name, value);
    }

    /// The count `name`, 0 when the workload's layers do not produce it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// How many passes a measured phase makes. The count is fixed before the
/// phase starts, so that every run of a workload repeats each operation
/// equally often whatever the host's speed: the fastest of six repeats and
/// the fastest of three are different statistics.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub passes: usize,
    /// Distinct operations that always run, so that the high percentile
    /// has ten samples beyond it.
    pub min_ops: usize,
}

impl Budget {
    /// The passes that fill `seconds` at `pass_s` seconds a pass (at least
    /// `min_passes`).
    pub fn for_seconds(seconds: f64, pass_s: f64, min_passes: usize, min_ops: usize) -> Self {
        Budget {
            passes: ((seconds / pass_s).round() as usize).max(min_passes),
            min_ops,
        }
    }
}

/// What one measured phase produced. Every pass repeats the same
/// operations in the same order: the workloads replay deterministic inputs.
#[derive(Debug)]
pub struct Measured {
    /// Wall time of every operation, in nanoseconds, in execution order.
    op_ns: Vec<u64>,
    pub failed: u64,
    /// Oracle mismatches and failures that stopped a pass.
    pub mismatches: Vec<String>,
    /// Counts of the first pass (identical on every pass of a run).
    pub counts: Counts,
    /// Completed passes.
    pub passes: usize,
    /// Operations in the first completed pass.
    pass_len: usize,
    /// Live-allocation high-water mark of each input unit (a feed, a
    /// subgraph, a store's first recovery), above the live bytes at its
    /// start.
    peaks: Vec<usize>,
    unit_base: usize,
}

impl Measured {
    /// Starts a measured phase.
    pub fn start() -> Self {
        Measured {
            op_ns: Vec::with_capacity(SAMPLE_CAPACITY),
            failed: 0,
            mismatches: Vec::new(),
            counts: Counts::default(),
            passes: 0,
            pass_len: 0,
            peaks: Vec::new(),
            unit_base: 0,
        }
    }

    /// Whether another pass should run.
    pub fn another_pass(&self, budget: &Budget) -> bool {
        self.passes < budget.passes || self.distinct_ops() < budget.min_ops
    }

    /// Marks the end of a complete pass.
    pub fn end_pass(&mut self) {
        if self.passes == 0 {
            self.pass_len = self.op_ns.len();
        }
        self.passes += 1;
    }

    /// Operations run, over all passes.
    pub fn attempted(&self) -> usize {
        self.op_ns.len()
    }

    /// Operations that are not repeats of an earlier pass's.
    fn distinct_ops(&self) -> usize {
        if self.passes > 0 {
            self.pass_len
        } else {
            self.op_ns.len()
        }
    }

    /// Records one operation that started at `start` and has just ended.
    pub fn sample(&mut self, start: Instant, ok: bool) {
        let ns = start.elapsed().as_nanos() as u64;
        if self.op_ns.len() == self.op_ns.capacity() {
            // The sample buffer is the harness's, not the pipeline's.
            alloc::excluded(|| self.op_ns.reserve(self.op_ns.len()));
        }
        self.op_ns.push(ns);
        self.failed += u64::from(!ok);
    }

    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 10 {
            eprintln!("oracle: {what}");
        }
        self.mismatches.push(what);
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Starts the allocation high-water mark of one input unit.
    pub fn begin_unit(&mut self) {
        self.unit_base = alloc::reset();
    }

    /// Ends the unit [`begin_unit`](Self::begin_unit) started.
    pub fn end_unit(&mut self) {
        self.peaks.push(alloc::peak_since(self.unit_base));
    }

    /// Mean high-water mark over the units, in bytes.
    pub fn peak_bytes(&self) -> f64 {
        self.peaks.iter().sum::<usize>() as f64 / self.peaks.len().max(1) as f64
    }

    /// The time of each distinct operation, ascending. An operation's time
    /// is the fastest of its repeats, which filters out the time a noisy
    /// host steals from some of them.
    pub fn op_times(&self) -> Vec<u64> {
        let mut times = if self.passes > 1 {
            let n = self.distinct_ops();
            let complete = &self.op_ns[..n * self.passes];
            (0..n)
                .map(|i| {
                    complete[i..]
                        .iter()
                        .step_by(n)
                        .copied()
                        .min()
                        .expect("at least one pass")
                })
                .collect()
        } else {
            self.op_ns.clone()
        };
        times.sort_unstable();
        times
    }

    /// Operations per second of operation time, over [`op_times`](Self::op_times).
    pub fn ops_per_s(&self) -> f64 {
        let times = self.op_times();
        times.len() as f64 / (times.iter().sum::<u64>().max(1) as f64 / 1e9)
    }

    /// Samples beyond the reported high percentile.
    pub fn samples_beyond(&self, p: f64) -> usize {
        stats::samples_beyond(self.op_times().len(), p)
    }
}
