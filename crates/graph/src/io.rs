//! Persistence of temporal interaction networks.
//!
//! Two formats are supported:
//!
//! * **JSON** via serde — lossless, used for fixtures and tooling;
//! * a compact **text format**, one interaction per line
//!   (`<src-name> <dst-name> <time> <quantity>`), which mirrors the
//!   `(sender, recipient, timestamp, amount)` records the paper builds its
//!   datasets from and is convenient for importing real logs.
//!
//! Both formats use the same lossless representation for the infinite
//! quantities of synthetic source/sink interactions: the tagged token
//! [`INFINITE_QUANTITY_TOKEN`] (`"inf"`). JSON has no infinity literal
//! (upstream `serde_json` writes `null`, which does not round-trip), so the
//! quantity field is a number or that string; the text format writes the
//! identical token, so an augmented graph survives either pipeline
//! unchanged.
//!
//! ## Streaming
//!
//! The text format is parsed by [`StreamingParser`], which consumes any
//! [`std::io::Read`] source line by line through one reused buffer — a
//! multi-gigabyte log is never materialized as a `String`. [`from_text`] is
//! a thin wrapper over the same parser, so the in-memory and streaming paths
//! cannot drift apart. External tokenizers (e.g. the CSV loader in
//! `tin_datasets`) reuse the record-level entry point
//! [`StreamingParser::push_record`] so that field validation — self-loop
//! rejection, canonical infinity spelling, non-negative quantities — is
//! specified in exactly one place.
//!
//! ## Totality of the text round-trip
//!
//! `to_text` → `from_text` either succeeds or fails loudly; it never writes
//! a line it cannot re-parse. Graphs whose vertex names contain whitespace
//! (legal in the data model, and common when ingesting real CSV files) or
//! that contain self-loops are rejected by [`to_text`] with
//! [`GraphError::Invalid`] — use JSON for those. Symmetrically,
//! [`from_text`] rejects self-loop records (`a a t q`) with a line-numbered
//! error: the DAG pipeline ([`crate::topo`]) treats a self-loop as a cycle,
//! so such records can never reach the flow machinery anyway, and silently
//! accepting them would only defer the failure to a far-away `NotADag`.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::TemporalGraph;
use crate::interaction::{Interaction, INFINITE_QUANTITY_TOKEN};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

/// Serializes a graph to a JSON string.
pub fn to_json(graph: &TemporalGraph) -> String {
    serde_json::to_string(graph).expect("temporal graph serialization cannot fail")
}

/// Deserializes a graph from a JSON string produced by [`to_json`].
///
/// Syntax errors (the input is not well-formed JSON, or its shape does not
/// match the graph schema) are reported as [`GraphError::Parse`] with the
/// offending line. A well-formed document describing an *inconsistent* graph
/// (edges referencing missing vertices, unsorted interaction sequences,
/// broken adjacency) is reported as [`GraphError::Invalid`] so callers can
/// tell malformed input apart from semantically bad input.
pub fn from_json(json: &str) -> Result<TemporalGraph, GraphError> {
    let mut graph: TemporalGraph = serde_json::from_str(json).map_err(|e| GraphError::Parse {
        line: e.line(),
        message: e.to_string(),
    })?;
    graph.rebuild_index();
    graph.validate()?;
    Ok(graph)
}

/// Returns `Err` when `name` cannot be written to the whitespace-separated
/// text format: empty names and names containing whitespace would change the
/// field count on read-back, and a leading `#` would turn the line into a
/// comment.
fn check_text_name(name: &str) -> Result<(), GraphError> {
    let representable =
        !name.is_empty() && !name.starts_with('#') && !name.chars().any(char::is_whitespace);
    if representable {
        Ok(())
    } else {
        Err(GraphError::Invalid {
            message: format!(
                "vertex name {name:?} is not representable in the text format \
                 (empty, contains whitespace, or starts with `#`); use JSON instead"
            ),
        })
    }
}

/// Serializes a graph to the text interchange format: one line per
/// interaction, `<src> <dst> <time> <quantity>`, lines ordered by edge id
/// and interaction position.
///
/// The writer guarantees that [`from_text`] can re-parse its output: graphs
/// with vertex names the format cannot carry (see module docs) or with
/// self-loop edges are rejected with [`GraphError::Invalid`] instead of
/// silently emitting corrupt lines. Isolated vertices do not appear in the
/// output (the format is a pure interaction log); use JSON when they matter.
pub fn to_text(graph: &TemporalGraph) -> Result<String, GraphError> {
    let mut out = String::new();
    for edge in graph.edges() {
        if edge.src == edge.dst {
            return Err(GraphError::Invalid {
                message: format!(
                    "self-loop on vertex {:?} is not representable in the text format \
                     (the reader rejects `a a t q` records)",
                    graph.node(edge.src).name
                ),
            });
        }
        let src = &graph.node(edge.src).name;
        let dst = &graph.node(edge.dst).name;
        check_text_name(src)?;
        check_text_name(dst)?;
        for i in &edge.interactions {
            if i.quantity.is_finite() {
                writeln!(out, "{src} {dst} {} {}", i.time, i.quantity).expect("string write");
            } else {
                writeln!(out, "{src} {dst} {} {INFINITE_QUANTITY_TOKEN}", i.time)
                    .expect("string write");
            }
        }
    }
    Ok(out)
}

/// Parses a timestamp field of the interchange format: a plain `i64`.
///
/// Shared by [`StreamingParser::push_record`] and external tokenizers; the
/// error is a bare message, position context is added by the caller.
pub fn parse_time(field: &str) -> Result<i64, String> {
    field
        .parse()
        .map_err(|_| format!("invalid timestamp `{field}`"))
}

/// Parses a quantity field of the interchange format: the canonical
/// [`INFINITE_QUANTITY_TOKEN`] or a non-negative finite decimal. Rejects
/// non-canonical spellings Rust would otherwise accept (`Infinity`, `NaN`,
/// `-inf`, ...). Does **not** normalize `-0.0`; callers that scale the value
/// first do that via [`StreamingParser::push_parsed`].
pub fn parse_quantity(field: &str) -> Result<f64, String> {
    if field == INFINITE_QUANTITY_TOKEN {
        return Ok(f64::INFINITY);
    }
    let q: f64 = field
        .parse()
        .map_err(|_| format!("invalid quantity `{field}`"))?;
    if !q.is_finite() {
        return Err(format!(
            "non-finite quantity `{field}` (use `{INFINITE_QUANTITY_TOKEN}`)"
        ));
    }
    if q < 0.0 {
        return Err(format!("quantity must be non-negative, got {field}"));
    }
    Ok(q)
}

/// How the streaming parser reacts to unusable records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// The first bad record aborts parsing with [`GraphError::Ingest`].
    #[default]
    Strict,
    /// Bad records are skipped and counted ([`StreamingParser::skipped`]);
    /// only I/O failures abort. Use for real-world logs with stray junk.
    Lenient,
}

/// Incremental, bounded-memory parser for `(sender, recipient, timestamp,
/// amount)` record streams.
///
/// The parser feeds a [`GraphBuilder`] one record at a time; the only
/// transient allocation is a single reused line buffer, so memory is bounded
/// by the size of the resulting graph, not the size of the input.
///
/// Two entry points exist:
///
/// * [`StreamingParser::ingest`] / [`StreamingParser::push_line`] parse the
///   whitespace-separated text format (what [`from_text`] wraps);
/// * [`StreamingParser::push_record`] accepts already-tokenized fields from
///   an external tokenizer (the CSV loader in `tin_datasets`), sharing all
///   record-level validation with the text path.
///
/// ```
/// use tin_graph::io::{ParseMode, StreamingParser};
///
/// let mut p = StreamingParser::new(ParseMode::Lenient);
/// p.ingest("a b 1 2.5\njunk line\nb c 2 1\n".as_bytes()).unwrap();
/// assert_eq!(p.records(), 2);
/// assert_eq!(p.skipped(), 1);
/// let g = p.finish();
/// assert_eq!(g.node_count(), 3);
/// ```
#[derive(Debug, Default)]
pub struct StreamingParser {
    builder: GraphBuilder,
    mode: ParseMode,
    /// 1-based number of the line currently being parsed.
    line: usize,
    /// Byte offset of the start of the current line within the source.
    byte_offset: u64,
    records: u64,
    skipped: u64,
}

impl StreamingParser {
    /// Creates a parser with an empty builder.
    pub fn new(mode: ParseMode) -> Self {
        StreamingParser {
            builder: GraphBuilder::new(),
            mode,
            line: 1,
            byte_offset: 0,
            records: 0,
            skipped: 0,
        }
    }

    /// Number of records accepted so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Number of records skipped so far (always 0 in strict mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// 1-based number of the line the parser currently attributes input to.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Byte offset of the start of the current line.
    pub fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    /// Constructs a position-stamped ingestion error for the current line.
    pub fn error(&self, column: usize, message: impl Into<String>) -> GraphError {
        GraphError::Ingest {
            line: self.line,
            column,
            byte_offset: self.byte_offset,
            message: message.into(),
        }
    }

    /// Applies the strict/lenient policy to a record-level failure: strict
    /// mode fails with `err`, lenient mode counts a skip and reports "no
    /// record added". External tokenizers route the failures the parser
    /// cannot see (wrong field count, scaling errors) through here so the
    /// policy lives in exactly one place.
    pub fn reject(&mut self, err: GraphError) -> Result<bool, GraphError> {
        match self.mode {
            ParseMode::Strict => Err(err),
            ParseMode::Lenient => {
                self.skipped += 1;
                Ok(false)
            }
        }
    }

    /// Advances the position tracking past the current line, whose raw
    /// on-disk length (including the line terminator) was `raw_bytes`.
    ///
    /// [`StreamingParser::ingest`] calls this internally; external
    /// tokenizers driving [`StreamingParser::push_record`] call it once per
    /// consumed input line.
    pub fn advance_line(&mut self, raw_bytes: usize) {
        self.line += 1;
        self.byte_offset += raw_bytes as u64;
    }

    /// Validates and adds one already-tokenized record at the current input
    /// position. `columns` maps each of the four logical fields (sender,
    /// recipient, timestamp, amount) to the 1-based source column reported
    /// in errors — `[1, 2, 3, 4]` for the text format, the configured
    /// mapping for CSV.
    ///
    /// Returns `Ok(true)` when a record was added, `Ok(false)` when it was
    /// skipped (lenient mode only).
    pub fn push_record(
        &mut self,
        src: &str,
        dst: &str,
        time: &str,
        quantity: &str,
        columns: [usize; 4],
    ) -> Result<bool, GraphError> {
        let time = match parse_time(time) {
            Ok(t) => t,
            Err(message) => {
                let err = self.error(columns[2], message);
                return self.reject(err);
            }
        };
        let quantity = match parse_quantity(quantity) {
            Ok(q) => q,
            Err(message) => {
                let err = self.error(columns[3], message);
                return self.reject(err);
            }
        };
        self.push_parsed(src, dst, time, quantity, columns)
    }

    /// Adds one record whose timestamp and quantity are already numeric.
    ///
    /// External tokenizers that scale fields (unit conversion, fractional
    /// epochs) parse with [`parse_time`] / [`parse_quantity`], apply their
    /// scaling, and enter here; the semantic guards — empty names,
    /// self-loops, NaN or negative quantities, `-0.0` normalization — stay
    /// shared with the text path.
    pub fn push_parsed(
        &mut self,
        src: &str,
        dst: &str,
        time: i64,
        quantity: f64,
        columns: [usize; 4],
    ) -> Result<bool, GraphError> {
        if src.is_empty() {
            let err = self.error(columns[0], "empty sender name");
            return self.reject(err);
        }
        if dst.is_empty() {
            let err = self.error(columns[1], "empty recipient name");
            return self.reject(err);
        }
        if src == dst {
            let err = self.error(
                columns[1],
                format!(
                    "self-loop `{src} -> {dst}` (the DAG pipeline treats self-loops as cycles; \
                     such records are never usable)"
                ),
            );
            return self.reject(err);
        }
        if quantity.is_nan() || quantity < 0.0 {
            let err = self.error(
                columns[3],
                format!("quantity must be non-negative, got {quantity}"),
            );
            return self.reject(err);
        }
        // Normalize the negative zero `-0.0` so totals and comparisons never
        // observe a sign bit on a zero quantity.
        let quantity = if quantity == 0.0 { 0.0 } else { quantity };
        let s = self.builder.get_or_add_node(src);
        let d = self.builder.get_or_add_node(dst);
        self.builder
            .add_interaction(s, d, Interaction::new(time, quantity))
            .expect("self-loops were rejected above");
        self.records += 1;
        Ok(true)
    }

    /// Parses one line of the whitespace-separated text format at the
    /// current position. Blank lines and comment lines (first non-blank
    /// character `#`) are ignored without counting as skips; `#` elsewhere
    /// on a line is data, so trailing comments are rejected like any other
    /// trailing token.
    ///
    /// Does **not** advance the position — the caller owns the line loop and
    /// calls [`StreamingParser::advance_line`] after each line.
    pub fn push_line(&mut self, line: &str) -> Result<bool, GraphError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(false);
        }
        let mut parts = trimmed.split_whitespace();
        let (src, dst, time, quantity) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
                _ => {
                    let err = self.error(
                        0,
                        format!("expected `src dst time quantity`, got `{trimmed}`"),
                    );
                    return self.reject(err);
                }
            };
        if parts.next().is_some() {
            let err = self.error(5, "trailing tokens after the four expected fields");
            return self.reject(err);
        }
        self.push_record(src, dst, time, quantity, [1, 2, 3, 4])
    }

    /// Streams the whitespace-separated text format from `reader` into the
    /// builder, reusing a single line buffer. I/O failures (including
    /// invalid UTF-8) abort in either mode with [`GraphError::Io`].
    pub fn ingest<R: Read>(&mut self, reader: R) -> Result<(), GraphError> {
        let mut reader = BufReader::new(reader);
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = reader.read_line(&mut buf).map_err(GraphError::from_io)?;
            if n == 0 {
                return Ok(());
            }
            let line = buf.strip_suffix('\n').unwrap_or(&buf);
            let line = line.strip_suffix('\r').unwrap_or(line);
            self.push_line(line)?;
            self.advance_line(n);
        }
    }

    /// Emits everything parsed since the last drain as a
    /// [`crate::GraphDelta`] and keeps parsing: vertex names already seen
    /// still resolve to their identifiers, so a follow-mode ingester can
    /// fold a live log into a graph batch by batch with
    /// [`TemporalGraph::apply`]. Position tracking and the record/skip
    /// counters are *not* reset — they describe the whole stream.
    pub fn drain_delta(&mut self) -> crate::GraphDelta {
        self.builder.drain_delta()
    }

    /// Finalizes the builder into a [`TemporalGraph`].
    ///
    /// # Panics
    /// Panics if deltas were drained ([`StreamingParser::drain_delta`]) —
    /// such a parser feeds an existing graph; apply its final drained delta
    /// instead.
    pub fn finish(self) -> TemporalGraph {
        self.builder.build()
    }
}

/// Parses the text interchange format produced by [`to_text`] (or any
/// whitespace-separated `(sender, recipient, timestamp, amount)` log).
///
/// Thin wrapper over [`StreamingParser`] in strict mode; see the module docs
/// for the format rules (comments, blank lines, the `inf` token, self-loop
/// rejection). Errors carry the 1-based line number, field column and byte
/// offset of the offending record.
pub fn from_text(text: &str) -> Result<TemporalGraph, GraphError> {
    from_reader(text.as_bytes())
}

/// Streams the text interchange format from any [`std::io::Read`] source
/// (strict mode) without materializing it in memory.
pub fn from_reader<R: Read>(reader: R) -> Result<TemporalGraph, GraphError> {
    let mut parser = StreamingParser::new(ParseMode::Strict);
    parser.ingest(reader)?;
    Ok(parser.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_records;

    fn sample() -> TemporalGraph {
        from_records([
            ("u1", "u2", 2, 5.0),
            ("u1", "u2", 4, 3.0),
            ("u2", "u3", 3, 4.0),
            ("u3", "u1", 6, 5.0),
        ])
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let g = sample();
        let s = to_json(&g);
        let back = from_json(&s).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.interaction_count(), g.interaction_count());
        assert_eq!(back.total_quantity(), g.total_quantity());
        // Index is rebuilt by from_json.
        let u1 = back.node_by_name("u1").unwrap();
        let u2 = back.node_by_name("u2").unwrap();
        assert!(back.find_edge(u1, u2).is_some());
    }

    #[test]
    fn json_parse_error_is_reported() {
        assert!(matches!(
            from_json("not json"),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn json_semantic_failure_is_invalid_not_parse() {
        // Corrupt a well-formed document so that an edge references a
        // vertex that does not exist: the JSON parses, validation fails.
        let s = to_json(&sample());
        let corrupt = s.replacen("\"src\":0", "\"src\":99", 1);
        assert_ne!(s, corrupt, "corruption must hit the serialized edge table");
        match from_json(&corrupt) {
            Err(GraphError::Invalid { message }) => {
                assert!(message.contains("out-of-range"), "got: {message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn text_roundtrip_preserves_structure() {
        let g = sample();
        let s = to_text(&g).unwrap();
        assert_eq!(s.lines().count(), 4);
        let back = from_text(&s).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.interaction_count(), g.interaction_count());
        assert_eq!(back.total_quantity(), g.total_quantity());
    }

    #[test]
    fn to_text_rejects_unrepresentable_names() {
        // Regression: this used to silently emit `acct 7 b 1 2`, which the
        // reader cannot re-parse (five tokens). The writer now errors.
        let g = from_records([("acct 7", "b", 1, 2.0)]);
        match to_text(&g) {
            Err(GraphError::Invalid { message }) => {
                assert!(message.contains("acct 7"), "got: {message}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        for bad in ["", "#tagged", "tab\tname", "new\nline"] {
            let g = from_records([(bad, "b", 1, 2.0)]);
            assert!(
                matches!(to_text(&g), Err(GraphError::Invalid { .. })),
                "name {bad:?} must be rejected"
            );
        }
        // JSON carries the same graph losslessly.
        let g = from_records([("acct 7", "b", 1, 2.0)]);
        let back = from_json(&to_json(&g)).unwrap();
        assert!(back.node_by_name("acct 7").is_some());
    }

    #[test]
    fn to_text_rejects_self_loops() {
        // The builder refuses self-loops, but JSON can still describe them;
        // build the graph from raw parts the way a deserializer would.
        let g = TemporalGraph::from_parts(
            vec![crate::graph::Node { name: "a".into() }],
            vec![crate::graph::Edge {
                src: crate::NodeId(0),
                dst: crate::NodeId(0),
                interactions: vec![Interaction::new(1, 1.0)],
            }],
        );
        assert!(matches!(to_text(&g), Err(GraphError::Invalid { .. })));
    }

    #[test]
    fn from_text_rejects_self_loops_with_position() {
        match from_text("a b 1 2\nc c 3 4\n") {
            Err(GraphError::Ingest {
                line,
                column,
                byte_offset,
                message,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(column, 2);
                assert_eq!(byte_offset, 8); // after "a b 1 2\n"
                assert!(message.contains("self-loop"), "got: {message}");
            }
            other => panic!("expected Ingest, got {other:?}"),
        }
    }

    /// Builds a graph carrying synthetic-source/sink infinities, as produced
    /// by [`crate::dag::augment_with_synthetic_endpoints`].
    fn augmented() -> TemporalGraph {
        let base = from_records([
            ("a", "c", 2, 5.0),
            ("b", "c", 3, 4.0),
            ("c", "d", 5, 6.0),
            ("c", "e", 6, 2.0),
        ]);
        let aug = crate::dag::augment_with_synthetic_endpoints(&base).unwrap();
        assert!(aug.added_source && aug.added_sink);
        aug.graph
    }

    #[test]
    fn json_roundtrip_preserves_infinite_quantities() {
        let g = augmented();
        let infinite_before = g
            .edges()
            .iter()
            .flat_map(|e| &e.interactions)
            .filter(|i| i.is_unbounded())
            .count();
        assert!(infinite_before >= 4); // 2 sources + 2 sinks
        let s = to_json(&g);
        // The lossy `null` representation must not appear; the token must.
        assert!(!s.contains("null"), "lossy null in JSON: {s}");
        assert!(s.contains("\"inf\""));
        let back = from_json(&s).unwrap();
        let infinite_after = back
            .edges()
            .iter()
            .flat_map(|e| &e.interactions)
            .filter(|i| i.is_unbounded())
            .count();
        assert_eq!(infinite_after, infinite_before);
        assert_eq!(back.interaction_count(), g.interaction_count());
    }

    #[test]
    fn text_roundtrip_preserves_infinite_quantities() {
        let g = augmented();
        let s = to_text(&g).unwrap();
        assert!(s.contains(" inf\n"), "missing inf token: {s}");
        let back = from_text(&s).unwrap();
        assert_eq!(back.interaction_count(), g.interaction_count());
        let infinite: usize = back
            .edges()
            .iter()
            .flat_map(|e| &e.interactions)
            .filter(|i| i.is_unbounded())
            .count();
        assert!(infinite >= 4);
        assert!(back.total_quantity().is_infinite());
    }

    #[test]
    fn json_and_text_agree_on_the_infinite_representation() {
        // The same graph written by both formats round-trips identically
        // through either: structure and per-format totals all match.
        let g = augmented();
        let via_json = from_json(&to_json(&g)).unwrap();
        let via_text = from_text(&to_text(&g).unwrap()).unwrap();
        assert_eq!(via_json.node_count(), via_text.node_count());
        assert_eq!(via_json.interaction_count(), via_text.interaction_count());
        let infinities = |g: &TemporalGraph| {
            g.edges()
                .iter()
                .flat_map(|e| &e.interactions)
                .filter(|i| i.is_unbounded())
                .count()
        };
        assert_eq!(infinities(&via_json), infinities(&via_text));
    }

    #[test]
    fn text_parser_rejects_noncanonical_infinity_spellings() {
        for bad in ["Infinity", "NaN", "-inf", "nan", "-Infinity"] {
            assert!(
                matches!(
                    from_text(&format!("a b 1 {bad}")),
                    Err(GraphError::Ingest { line: 1, .. })
                ),
                "spelling {bad:?} must be rejected"
            );
        }
        // The canonical token parses.
        let g = from_text("a b 1 inf").unwrap();
        assert!(g.total_quantity().is_infinite());
    }

    #[test]
    fn text_parser_skips_comments_and_blank_lines() {
        let g = from_text("# header\n\na b 1 2.5\n   \nb c 2 1\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.interaction_count(), 2);
    }

    #[test]
    fn text_parser_rejects_malformed_lines() {
        assert!(matches!(
            from_text("a b 1"),
            Err(GraphError::Ingest { line: 1, .. })
        ));
        assert!(matches!(
            from_text("a b 1 2 3"),
            Err(GraphError::Ingest { line: 1, .. })
        ));
        assert!(matches!(
            from_text("a b xx 2"),
            Err(GraphError::Ingest {
                line: 1,
                column: 3,
                ..
            })
        ));
        assert!(matches!(
            from_text("a b 1 notanumber"),
            Err(GraphError::Ingest {
                line: 1,
                column: 4,
                ..
            })
        ));
        assert!(matches!(
            from_text("a b 1 -5"),
            Err(GraphError::Ingest { line: 1, .. })
        ));
    }

    #[test]
    fn text_parser_reports_correct_line_number() {
        let err = from_text("a b 1 2\nbroken line here now extra\n").unwrap_err();
        match err {
            GraphError::Ingest { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lenient_mode_skips_and_counts() {
        let mut p = StreamingParser::new(ParseMode::Lenient);
        p.ingest("a b 1 2\nc c 1 1\nx y zz 3\nb c 2 1\n".as_bytes())
            .unwrap();
        assert_eq!(p.records(), 2);
        assert_eq!(p.skipped(), 2);
        let g = p.finish();
        assert_eq!(g.interaction_count(), 2);
        // The skipped self-loop and bad-timestamp vertices never appear.
        assert!(g.node_by_name("x").is_none());
    }

    #[test]
    fn streaming_reader_matches_from_text() {
        let text = "a b 1 2.5\nb c 2 1\n# comment\nc a 3 4\n";
        let via_str = from_text(text).unwrap();
        let via_reader = from_reader(text.as_bytes()).unwrap();
        assert_eq!(via_str.node_count(), via_reader.node_count());
        assert_eq!(via_str.interaction_count(), via_reader.interaction_count());
        assert_eq!(via_str.total_quantity(), via_reader.total_quantity());
    }

    #[test]
    fn push_record_reports_mapped_columns() {
        let mut p = StreamingParser::new(ParseMode::Strict);
        // A CSV loader with amount in source column 7 reports that column.
        let err = p
            .push_record("a", "b", "1", "oops", [2, 3, 5, 7])
            .unwrap_err();
        assert!(matches!(err, GraphError::Ingest { column: 7, .. }));
    }
}
