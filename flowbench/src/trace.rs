//! Spans around the calls the benchmark makes into each layer's crate.
//!
//! Every operation (one batch, one subgraph solve, one recovery) is a root
//! span, `loop.op`; each call into a library crate inside it is a child span
//! named `<crate>.<call>`. Spans go into a vector preallocated before the
//! measured phase and are summarised (or written out as JSON) only after it.
//! A disabled tracer records nothing and costs one branch per call.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    /// The root span of one operation.
    Op,
    /// `DeltaStream::next_delta`.
    NextDelta,
    /// `TemporalGraph::apply`.
    GraphApply,
    /// `Journal::append`.
    JournalAppend,
    /// `Recovery::run`.
    Recover,
    /// `PathTables::apply`.
    TablesApply,
    /// `search_pb`.
    SearchPb,
    /// `FlowSession::new`.
    SessionOpen,
    /// `FlowSession::advance`.
    SessionAdvance,
    /// `topological_order`: the DAG check `maximum_flow` starts with.
    TopoOrder,
    /// `is_greedy_soluble`.
    Solubility,
    /// `greedy_flow`.
    Greedy,
    /// `preprocess`.
    Preprocess,
    /// `simplify`.
    Simplify,
    /// `FlowSession::solve`: the resident network simplex.
    SessionSolve,
    /// `netflow_max_flow`: a cold network-simplex solve.
    Netflow,
    /// `netflow_max_flow` on a whole subgraph, outside any operation: the
    /// plain-LP baseline that PreSim's reductions compete with.
    NetflowWhole,
}

impl Call {
    /// Every call site, in report order.
    pub const ALL: [Call; 17] = [
        Call::Op,
        Call::NextDelta,
        Call::GraphApply,
        Call::JournalAppend,
        Call::Recover,
        Call::TablesApply,
        Call::SearchPb,
        Call::SessionOpen,
        Call::SessionAdvance,
        Call::TopoOrder,
        Call::Solubility,
        Call::Greedy,
        Call::Preprocess,
        Call::Simplify,
        Call::SessionSolve,
        Call::Netflow,
        Call::NetflowWhole,
    ];

    /// `<crate>.<call>`, the prefix of the call's per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            Call::Op => "loop.op",
            Call::NextDelta => "datasets.next_delta",
            Call::GraphApply => "graph.apply",
            Call::JournalAppend => "durable.append",
            Call::Recover => "durable.recover",
            Call::TablesApply => "patterns.apply",
            Call::SearchPb => "patterns.search_pb",
            Call::SessionOpen => "flow.open",
            Call::SessionAdvance => "flow.advance",
            Call::TopoOrder => "graph.topological_order",
            Call::Solubility => "flow.solubility",
            Call::Greedy => "flow.greedy",
            Call::Preprocess => "flow.preprocess",
            Call::Simplify => "flow.simplify",
            Call::SessionSolve => "lp.solve",
            Call::Netflow => "lp.netflow",
            Call::NetflowWhole => "lp.netflow_whole",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Spans one operation can record beyond its root; the tracer reports
/// itself full this far ahead of its capacity so that no push reallocates.
const SPANS_PER_OP: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Span {
    call: Call,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder (see the module docs).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
    /// Index of the open root span, or [`NO_PARENT`].
    open: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
            open: NO_PARENT,
        }
    }

    /// A tracer with room for `capacity` spans, allocated now.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(capacity.max(SPANS_PER_OP)),
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the buffer may not hold another operation; the measured loop
    /// stops there rather than reallocate mid-run.
    pub fn full(&self) -> bool {
        self.enabled && self.spans.len() + SPANS_PER_OP > self.spans.capacity()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op`.
    pub fn begin_op(&mut self, op: u32) {
        if !self.enabled {
            return;
        }
        self.open = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            call: Call::Op,
            parent: NO_PARENT,
            op,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the open root span.
    pub fn end_op(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[self.open as usize].end_ns = end_ns;
        self.open = NO_PARENT;
    }

    /// Discards the open root span and its children: the operation turned
    /// out not to exist (the feed was exhausted).
    pub fn cancel_op(&mut self) {
        if !self.enabled {
            return;
        }
        self.spans.truncate(self.open as usize);
        self.open = NO_PARENT;
    }

    /// Runs `f` inside a child span of the open operation (or, between
    /// operations, inside a root span of its own).
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let op = self
            .spans
            .get(self.open as usize)
            .map_or(u32::MAX, |root| root.op);
        self.spans.push(Span {
            call,
            parent: self.open,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Per-call totals and percentiles over every recorded span.
    pub fn summary(&self) -> TraceSummary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut durations: BTreeMap<Call, Vec<u64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<Call, u64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let dur = span.end_ns - span.start_ns;
            durations.entry(span.call).or_default().push(dur);
            *self_ns.entry(span.call).or_default() += dur.saturating_sub(*children);
        }
        let calls = durations
            .into_iter()
            .map(|(call, mut d)| {
                d.sort_unstable();
                let stats = CallStats {
                    calls: d.len() as u64,
                    busy_ns: d.iter().sum(),
                    self_ns: self_ns[&call],
                    p50_ns: percentile(&d, 50.0),
                    p99_ns: percentile(&d, 99.0),
                };
                (call, stats)
            })
            .collect();
        TraceSummary { calls }
    }

    /// Writes every span as a JSON array of
    /// `{name, batch_id, parent, start_ns, end_ns}` objects, where `parent`
    /// is the index of the parent span in the array (or `null`).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"batch_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.call.name(),
                s.op,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// Aggregates of one call site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub calls: u64,
    /// Summed span durations.
    pub busy_ns: u64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// What [`Tracer::summary`] returns.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub calls: BTreeMap<Call, CallStats>,
}

impl TraceSummary {
    /// The stats of `call`, all zero when it was never recorded.
    pub fn get(&self, call: Call) -> CallStats {
        self.calls.get(&call).copied().unwrap_or_default()
    }

    /// Operation wall time not covered by any layer span: the benchmark's
    /// own glue between calls.
    pub fn unattributed_ns(&self) -> u64 {
        self.get(Call::Op).self_ns
    }

    /// `unattributed_ns` as a share of total operation wall time.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns() as f64 / (self.get(Call::Op).busy_ns.max(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_cancelled_ops_vanish() {
        let mut t = Tracer::on(64);
        t.begin_op(0);
        t.time(Call::GraphApply, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end_op();
        t.begin_op(1);
        t.time(Call::NextDelta, || ());
        t.cancel_op();
        let s = t.summary();
        let op = s.get(Call::Op);
        let apply = s.get(Call::GraphApply);
        assert_eq!(op.calls, 1);
        assert_eq!(apply.calls, 1);
        assert_eq!(s.get(Call::NextDelta).calls, 0);
        assert!(apply.busy_ns >= 2_000_000);
        assert_eq!(op.self_ns, op.busy_ns - apply.busy_ns);
        assert!(s.unattributed_share() < 0.5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin_op(0);
        assert_eq!(t.time(Call::GraphApply, || 7), 7);
        t.end_op();
        assert!(t.summary().calls.is_empty());
        assert!(!t.full());
    }
}
