//! Path/cycle precomputation tables — Section 5.2 of the paper.
//!
//! The PB (precomputation-based) matcher materializes, once per graph:
//!
//! * `L2` — all 2-hop cycles `u → v → u`;
//! * `L3` — all 3-hop cycles `u → v → w → u`;
//! * `C2` — all 2-hop chains `u → v → w` over distinct vertices.
//!
//! Every row stores, besides the vertex identifiers, the interaction set that
//! reaches the path's final vertex under the greedy scan (the same reduction
//! used by graph simplification, Lemma 3): for chains this *is* the maximum
//! flow profile, so pattern instances assembled from whole rows can sum
//! precomputed flows instead of re-running any flow algorithm.
//!
//! ## How the builder works
//!
//! Rows are produced by the allocation-free chain-propagation kernel
//! ([`tin_flow::chain`]) operating directly on the graph's interaction
//! slices — no per-row graph materialization, no event re-sorting, no trace.
//! Enumeration is structured around the shared prefix of `L3` and `C2`: for
//! every edge `u → v` and closing vertex `w`, the greedy reduction of
//! `u → v → w` is computed **once** and reused both as the `C2` row and as
//! the prefix that one more kernel pass extends into the `L3` row.
//!
//! A row is 32 inline bytes (fixed-size vertex array, arena offsets); the
//! delivered interactions of all rows of a table live in one shared arena,
//! so building millions of rows performs a handful of large allocations
//! instead of two small ones per row. After sorting, a per-anchor offset
//! index makes [`PathTable::rows_for`] an O(1) slice lookup.
//!
//! Eager builds fan the anchors out over the workspace worker pool
//! ([`tin_parallel::parallel_map`]); [`PathTables::for_anchors`] builds the rows
//! of selected anchors only, and [`LazyPathTables`] memoizes per-anchor
//! builds so a search that touches one anchor pays O(deg²) kernel work, not
//! O(graph). The pre-kernel builder is retained in [`crate::reference`] as a
//! cross-check oracle.
//!
//! The paper notes that on the two large datasets only the cycle tables fit
//! in memory while the chain table is feasible for Prosper; [`TablesConfig`]
//! exposes the same choice (plus a row cap as a safety valve).
//!
//! ## Incremental maintenance
//!
//! Tables are maintainable under appends: after a [`tin_graph::GraphDelta`]
//! is merged into the graph, [`PathTables::apply`] patches the tables to
//! what a from-scratch build over the grown graph would produce — without
//! doing from-scratch kernel work. The key fact is that a row's delivered
//! profile depends only on the edges along its path, so a new interaction on
//! edge `u → v` can invalidate exactly the rows whose path uses that edge:
//!
//! * as the **first** edge — rows anchored at `u`;
//! * as the **middle** edge of an `L3`/`C2` row `a → u → v (→ a)` — rows
//!   anchored at an in-neighbor `a` of `u`;
//! * as the **closing** edge of an `L2`/`L3` cycle `v → … → u → v` — rows
//!   anchored at `v`.
//!
//! [`PathTables::apply`] re-runs the chain kernel for exactly those row
//! groups that can hold a row before or after the delta — the `[u, v, *]`
//! first-edge block, the middle-edge rows `[a, u, v]`, the closing rows
//! `[v, u]` / `[v, w, u]` — and splices the fresh rows over the stale ones.
//! With `C2` every chain `a → u → v` is a row, so there is one middle row
//! per in-neighbor `a` of `u`: O(`in(u)`) work per changed edge. Cycle-only
//! tables refresh just the 3-cycles through `u → v` (the vertices
//! `out(v) ∩ in(u)`, found by scanning the smaller side) plus the cycles
//! whose closing edge changed in the same delta: work per changed edge
//! proportional to `min(in(u), out(v))` plus the delta's own changed pairs.
//! Neither is ever the O(deg²) of rebuilding a whole anchor, which is what
//! keeps hub-heavy appends cheap.
//!
//! Each piece of that work is done once. The 3-cycles through a changed
//! edge are found once per patch, each with the two edges that close it,
//! and every group carries the live edges its rows run over, so the kernel
//! looks no edge up. Those edges also fix each group's new row count, so
//! the splice comes first: every table opens a gap of the right size per
//! group inside its one row vector, moving each unchanged run once and
//! shifting its offset index by each anchor's change in row count. The
//! kernel then walks the groups in key order and writes each fresh row
//! straight into its gap; only a block's own rows are sorted, by their
//! third vertex. The working memory (the groups, the cycles, the splice
//! spans, the kernel's buffers) stays in the tables between patches and
//! holds no table rows. Replaced rows leave their delivered profiles
//! behind as arena garbage, which an amortized compaction reclaims: at the
//! latest once it outweighs the live data, and already at a third of the
//! arena when a patch starts, so that an arena about to shed its garbage
//! does not first grow to hold more.
//! [`LazyPathTables::apply`] is the cache-side analogue at its natural
//! (anchor) granularity: it evicts the anchors named by
//! [`invalidated_anchors`] (`{u, v} ∪ in(u)` per touched edge) and lets the
//! next query rebuild them.

use std::collections::HashMap;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicUsize, Ordering};
use tin_flow::ChainScratch;
use tin_graph::{AppliedDelta, EdgeId, Interaction, NodeId, Quantity, TemporalGraph};
use tin_parallel::{effective_threads, parallel_map};

/// Which tables to build and how large they may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablesConfig {
    /// Build the 2-hop cycle table.
    pub build_l2: bool,
    /// Build the 3-hop cycle table.
    pub build_l3: bool,
    /// Build the 2-hop chain table (can be much larger than the cycle
    /// tables; the paper only affords it for Prosper Loans).
    pub build_c2: bool,
    /// Hard cap on the number of rows per table (0 = unlimited). A build
    /// that would exceed the cap stops early and marks the result
    /// [`PathTables::truncated`]; the PB matcher refuses truncated tables,
    /// so the cap is a memory safety valve, not a sampling mechanism.
    pub max_rows: usize,
}

impl Default for TablesConfig {
    fn default() -> Self {
        TablesConfig {
            build_l2: true,
            build_l3: true,
            build_c2: true,
            max_rows: 2_000_000,
        }
    }
}

/// Maximum number of vertices a table row stores (2-hop cycles use 2,
/// 3-hop cycles and 2-hop chains use 3).
const MAX_PATH_VERTICES: usize = 3;

/// A precomputed path: the vertices along it (stored inline in a fixed
/// 3-slot array — no heap allocation per row) and a slice reference into
/// the owning [`PathTable`]'s delivered-interaction arena.
///
/// For cycle rows the final (returning) vertex is not repeated. Use
/// [`PathRow::vertices`] for the vertex slice and [`PathTable::delivered`]
/// for the greedy transfers into the path's final vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathRow {
    verts: [NodeId; MAX_PATH_VERTICES],
    len: u8,
    delivered_start: u32,
    delivered_len: u32,
    /// Total delivered quantity (the path's flow).
    pub flow: Quantity,
}

impl PathRow {
    /// Vertices along the path, starting vertex first.
    #[inline]
    pub fn vertices(&self) -> &[NodeId] {
        &self.verts[..self.len as usize]
    }

    /// The anchor (starting vertex) of the path.
    #[inline]
    pub fn anchor(&self) -> NodeId {
        self.verts[0]
    }

    /// The vertex sequence packed into one integer ([`pack`]; a 2-vertex
    /// row has third vertex 0). Within one table, where every row has the
    /// same length, packed keys sort exactly like [`PathRow::vertices`].
    #[inline]
    fn packed(&self) -> u128 {
        let third = if self.len == 3 {
            self.verts[2]
        } else {
            NodeId(0)
        };
        pack(self.verts[0], self.verts[1], third)
    }
}

/// Packs a vertex sequence into one integer that sorts like the sequence.
#[inline]
fn pack(a: NodeId, b: NodeId, c: NodeId) -> u128 {
    (u128::from(a.0) << 64) | (u128::from(b.0) << 32) | u128::from(c.0)
}

/// One precomputed table: compact rows, their shared delivered-interaction
/// arena, and a per-anchor offset index.
///
/// Rows are sorted by their vertex sequence (anchor first), so all rows of
/// an anchor are contiguous; [`PathTable::rows_for`] returns that slice via
/// the offset index without any searching.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    rows: Vec<PathRow>,
    arena: Vec<Interaction>,
    /// Prefix offsets over the anchor range that actually has rows: rows of
    /// anchor `a` (with `first_anchor ≤ a.index()`) live at
    /// `rows[offsets[a - first_anchor] .. offsets[a - first_anchor + 1]]`.
    /// Spanning only the populated range keeps anchor-lazy builds O(1)
    /// memory instead of O(node count) per table.
    offsets: Vec<u32>,
    first_anchor: usize,
    /// Arena entries orphaned by incremental patches ([`PathTable::delivered`]
    /// never reads them); compacted away once they outweigh the live data.
    dead: usize,
}

impl PathTable {
    /// All rows, sorted by vertex sequence.
    #[inline]
    pub fn rows(&self) -> &[PathRow] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over the rows in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, PathRow> {
        self.rows.iter()
    }

    /// Greedy transfers into the final vertex of `row`: `(time, quantity)`
    /// pairs in chronological order.
    ///
    /// `row` must belong to this table (rows carry offsets into their own
    /// table's arena).
    #[inline]
    pub fn delivered(&self, row: &PathRow) -> &[Interaction] {
        let start = row.delivered_start as usize;
        &self.arena[start..start + row.delivered_len as usize]
    }

    /// Number of delivered-interaction arena entries, live and garbage
    /// together — with [`PathTable::garbage_len`], the observable the
    /// sliding-window experiments (and the churn regression test) use to
    /// check that a steady window holds steady-state memory.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Arena entries orphaned by incremental patches and not yet compacted
    /// away. Bounded by the live data (amortized compaction triggers once
    /// garbage outweighs it), so `arena_len - garbage_len` is never smaller
    /// than half the arena.
    #[inline]
    pub fn garbage_len(&self) -> usize {
        self.dead
    }

    /// Rows anchored at `anchor`, as an O(1) indexed slice.
    pub fn rows_for(&self, anchor: NodeId) -> &[PathRow] {
        let a = anchor.index();
        if a < self.first_anchor || a - self.first_anchor + 1 >= self.offsets.len() {
            return &[];
        }
        let i = a - self.first_anchor;
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Anchors that have at least one row, in ascending order.
    pub fn anchors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(i, _)| NodeId::from_index(self.first_anchor + i))
    }

    /// Opens the splice of one patch: replaces the row groups named by
    /// `keys` (ascending, non-overlapping, each with the number of rows it
    /// will hold) with gaps of exactly that size, which a [`GapWriter`]
    /// over the same `spans` then fills in key order. `spans` is cleared
    /// and receives one [`Span`] per key that changes the table.
    ///
    /// The splice works inside the one row vector. A forward pass finds
    /// each key's old rows by comparing packed integer keys
    /// ([`PathRow::packed`]), galloping from the previous key. Each
    /// unchanged run between two keys then moves once, with `copy_within`,
    /// by the net rows the keys before it added: runs that move towards the
    /// front go first, front to back, and runs that move towards the back
    /// go next, back to front, so no run overwrites one that has not moved
    /// yet. The vector grows only when the table outgrows its capacity, and
    /// no second row buffer is ever made. The offset index moves with the
    /// rows ([`PathTable::shift_offsets`]).
    ///
    /// Stale profiles become garbage, tracked in [`PathTable::dead`] and
    /// compacted away once they exceed the live data — so long-running
    /// streams do amortized O(1) arena work per replaced row instead of an
    /// O(table) rebuild per batch. A third of garbage already triggers the
    /// compaction here, before the fresh profiles are appended: an arena
    /// that is about to shed its garbage should not first grow to hold it.
    fn open_gaps(&mut self, keys: impl Iterator<Item = (KeyRange, usize)>, spans: &mut Vec<Span>) {
        if self.dead > 0 && 2 * self.dead >= self.arena.len() - self.dead {
            self.compact();
        }
        let old_len = self.rows.len();
        spans.clear();
        let index = |i: usize| u32::try_from(i).expect("row count exceeds u32 offsets");
        let (mut at, mut shift) = (0usize, 0i64);
        let mut last_lo = 0;
        for (key, fresh) in keys {
            debug_assert!(key.lo >= last_lo, "patch keys must be ascending");
            last_lo = key.hi;
            let start = gallop(&self.rows, at, |r| r.packed() < key.lo);
            let end = gallop(&self.rows, start, |r| r.packed() < key.hi);
            if end > start || fresh > 0 {
                for r in &self.rows[start..end] {
                    self.dead += r.delivered_len as usize;
                }
                let span = Span {
                    old: (index(start), index(end)),
                    fresh: index(fresh),
                    anchor: key.anchor(),
                };
                shift += span.change();
                spans.push(span);
            }
            at = end;
        }

        let new_len = usize::try_from(old_len as i64 + shift)
            .expect("a splice removes only rows the table has");
        let rows = &mut self.rows;
        if new_len > old_len {
            if new_len > rows.capacity() {
                // A sixteenth of headroom, so a table that creeps upwards
                // does not reallocate on every patch.
                rows.reserve_exact(new_len + new_len / 16 - old_len);
            }
            // Placeholders: the gaps are written by the `GapWriter`.
            rows.resize(new_len, GAP);
        }
        // The unchanged run after span `j`, old rows `[end of j, start of
        // j + 1)`, moves by the net change of spans `0..=j`.
        let mut moves = |j: usize, by: i64| {
            let from = spans[j].old.1 as usize;
            let to = spans.get(j + 1).map_or(old_len, |s| s.old.0 as usize);
            rows.copy_within(from..to, (from as i64 + by) as usize);
        };
        let mut by = 0;
        for (j, span) in spans.iter().enumerate() {
            by += span.change();
            if by < 0 {
                moves(j, by);
            }
        }
        for (j, span) in spans.iter().enumerate().rev() {
            if by > 0 {
                moves(j, by);
            }
            by -= span.change();
        }
        rows.truncate(new_len);
        self.shift_offsets(spans, old_len);
    }

    /// Moves the offset index along with [`PathTable::open_gaps`], which
    /// turned `old_len` rows into the current ones: the first row of an
    /// anchor moves by the net rows that the spans of lower anchors added.
    /// This costs one pass over the index, not a recount of every row, and
    /// it reads only the spans, so it runs while the gaps are still open.
    /// The index widens to cover the anchors of the spans, and narrows when
    /// the anchors at either end are left with no rows.
    fn shift_offsets(&mut self, spans: &[Span], old_len: usize) {
        let (Some(first_span), Some(last_span)) = (spans.first(), spans.last()) else {
            return;
        };
        if self.offsets.is_empty() {
            self.offsets.push(0);
            self.first_anchor = first_span.anchor as usize;
        }
        // Cover every anchor a span touches: no old row sits below the
        // covered range, and all `old_len` sit below any anchor above it.
        let (first, last) = (first_span.anchor as usize, last_span.anchor as usize);
        if first < self.first_anchor {
            let missing = self.first_anchor - first;
            self.offsets.splice(0..0, std::iter::repeat_n(0, missing));
            self.first_anchor = first;
        }
        let covered = last + 2 - self.first_anchor;
        if covered > self.offsets.len() {
            let old_len = u32::try_from(old_len).expect("row count exceeds u32 offsets");
            self.offsets.resize(covered, old_len);
        }
        let offsets = &mut self.offsets;
        // `offsets[i]` starts anchor `first_anchor + i`: it moves by the net
        // change of the spans whose anchors are below that one.
        let mut i = first - self.first_anchor + 1;
        let mut carry = 0i64;
        for s in spans {
            let above = s.anchor as usize - self.first_anchor + 1;
            while i < above {
                offsets[i] = (i64::from(offsets[i]) + carry) as u32;
                i += 1;
            }
            carry += s.change();
        }
        for o in &mut offsets[i..] {
            *o = (i64::from(*o) + carry) as u32;
        }
        // Anchors left with no rows at either end leave the index.
        let empty_front = offsets.iter().skip(1).take_while(|&&o| o == 0).count();
        if empty_front + 1 == offsets.len() {
            offsets.clear();
            self.first_anchor = 0;
            return;
        }
        let total = *offsets.last().expect("the index is not empty");
        let empty_back = offsets
            .iter()
            .rev()
            .skip(1)
            .take_while(|&&o| o == total)
            .count();
        offsets.truncate(offsets.len() - empty_back);
        offsets.drain(..empty_front);
        self.first_anchor += empty_front;
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(self.rows.len()));
    }

    /// Rewrites the arena keeping only the profiles live rows reference,
    /// with room for half as much again: the garbage a patch may add before
    /// the next compaction starts ([`PathTable::open_gaps`]), so that the
    /// arena does not reallocate in between unless the live data grows.
    fn compact(&mut self) {
        let live = self.arena.len() - self.dead;
        let mut arena = Vec::with_capacity(live + live / 2);
        for row in &mut self.rows {
            let start = row.delivered_start as usize;
            let end = start + row.delivered_len as usize;
            row.delivered_start =
                u32::try_from(arena.len()).expect("compacted arena exceeds u32 offsets");
            arena.extend_from_slice(&self.arena[start..end]);
        }
        self.arena = arena;
        self.dead = 0;
    }

    /// Reassembles a table from externally stored row contents: for each row
    /// its vertex sequence, flow, and delivered profile, in sorted order.
    ///
    /// This is the snapshot-restore seam: a dumped table round-trips through
    /// `(row.vertices(), row.flow, table.delivered(&row))` triples and comes
    /// back with a freshly packed arena (no garbage) and a rebuilt offset
    /// index — row-identical to the original under
    /// [`PathTables::first_row_divergence`], which never inspects arena
    /// layout.
    ///
    /// Returns a message describing the first malformed row when the input
    /// is not a valid table: vertex sequences must have 2 or 3 vertices and
    /// be strictly ascending (every row unique, sorted), and the total
    /// delivered profile length must fit the arena's `u32` offsets.
    pub fn from_row_contents<'a, I>(contents: I) -> Result<PathTable, String>
    where
        I: IntoIterator<Item = (&'a [NodeId], Quantity, &'a [Interaction])>,
    {
        let iter = contents.into_iter();
        let mut builder = PathTableBuilder::with_capacity(iter.size_hint().0);
        for (verts, flow, delivered) in iter {
            builder.push(verts, flow, delivered)?;
        }
        Ok(builder.finish())
    }

    /// Builds the per-anchor offset index; `rows` must already be sorted by
    /// vertex sequence (anchor first), so the populated anchor range is
    /// `[first row's anchor, last row's anchor]`.
    fn build_offsets(&mut self) {
        let (Some(first), Some(last)) = (self.rows.first(), self.rows.last()) else {
            self.offsets = Vec::new();
            self.first_anchor = 0;
            return;
        };
        let first = first.anchor().index();
        let span = last.anchor().index() - first + 1;
        let mut offsets = vec![0u32; span + 1];
        for row in &self.rows {
            offsets[row.anchor().index() - first + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        self.offsets = offsets;
        self.first_anchor = first;
    }
}

impl<'a> IntoIterator for &'a PathTable {
    type Item = &'a PathRow;
    type IntoIter = std::slice::Iter<'a, PathRow>;

    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// Push-based construction of a [`PathTable`] from externally stored row
/// contents — the streaming form of [`PathTable::from_row_contents`], for
/// callers (snapshot restore) that decode rows one at a time and must not
/// buffer the whole table twice.
///
/// Rows must arrive in strictly ascending vertex-sequence order; every
/// [`PathTableBuilder::push`] validates against the previous row, and
/// [`PathTableBuilder::finish`] builds the per-anchor offset index.
#[derive(Debug, Default)]
pub struct PathTableBuilder {
    table: PathTable,
}

impl PathTableBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        PathTableBuilder::default()
    }

    /// An empty builder with row capacity reserved (the arena grows on
    /// demand — delivered-profile lengths are not known up front).
    pub fn with_capacity(rows: usize) -> Self {
        let mut table = PathTable::default();
        table.rows.reserve(rows);
        PathTableBuilder { table }
    }

    /// Appends one row: its vertex sequence, flow, and delivered profile.
    ///
    /// Returns a message describing the problem when the row is malformed:
    /// vertex sequences must have 2 or 3 vertices and be strictly after the
    /// previous row's (every row unique, sorted), and the total delivered
    /// length must fit the arena's `u32` offsets.
    pub fn push(
        &mut self,
        verts: &[NodeId],
        flow: Quantity,
        delivered: &[Interaction],
    ) -> Result<(), String> {
        self.push_profile(verts, flow, delivered.iter().copied())
    }

    /// Like [`PathTableBuilder::push`], but the delivered profile is drained
    /// from an iterator straight into the arena — no intermediate buffer.
    /// This is the snapshot-restore fast path: at standard scale the C2
    /// arena is megabytes, and a per-row bounce buffer doubles the copy.
    pub fn push_profile<I>(
        &mut self,
        verts: &[NodeId],
        flow: Quantity,
        delivered: I,
    ) -> Result<(), String>
    where
        I: ExactSizeIterator<Item = Interaction>,
    {
        let table = &mut self.table;
        let i = table.rows.len();
        if verts.len() < 2 || verts.len() > MAX_PATH_VERTICES {
            return Err(format!(
                "row {i} has {} vertices (expected 2 or 3)",
                verts.len()
            ));
        }
        if let Some(prev) = table.rows.last() {
            if prev.vertices() >= verts {
                return Err(format!(
                    "row {i} ({verts:?}) is not strictly after its predecessor ({:?})",
                    prev.vertices()
                ));
            }
        }
        let overflow = || format!("row {i} overflows the arena's u32 offsets");
        if u32::try_from(delivered.len()).is_err() {
            return Err(format!("row {i} delivered profile overflows u32"));
        }
        let start_at = table.arena.len();
        let start = u32::try_from(start_at).map_err(|_| overflow())?;
        table.arena.extend(delivered);
        // Measure what actually landed rather than trusting the iterator's
        // size hint; a lying `ExactSizeIterator` must not corrupt offsets.
        let landed = table.arena.len() - start_at;
        let len = match u32::try_from(landed)
            .ok()
            .filter(|l| start.checked_add(*l).is_some())
        {
            Some(len) => len,
            None => {
                table.arena.truncate(start_at);
                return Err(overflow());
            }
        };
        let mut slots = [NodeId::from_index(0); MAX_PATH_VERTICES];
        slots[..verts.len()].copy_from_slice(verts);
        table.rows.push(PathRow {
            verts: slots,
            len: verts.len() as u8,
            delivered_start: start,
            delivered_len: len,
            flow,
        });
        Ok(())
    }

    /// Reserves arena capacity for a known total delivered length, so a
    /// restore with a size header allocates once instead of growing row by
    /// row.
    pub fn reserve_arena(&mut self, interactions: usize) {
        self.table.arena.reserve(interactions);
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.table.rows.len()
    }

    /// Whether no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.table.rows.is_empty()
    }

    /// Builds the offset index and returns the finished table.
    pub fn finish(mut self) -> PathTable {
        self.table.build_offsets();
        self.table
    }
}

/// The precomputed tables for one graph.
#[derive(Debug, Clone, Default)]
pub struct PathTables {
    /// 2-hop cycles `u → v → u`, sorted by anchor `u`.
    pub l2: PathTable,
    /// 3-hop cycles `u → v → w → u`, sorted by anchor `u`.
    pub l3: PathTable,
    /// 2-hop chains `u → v → w`, sorted by start `u`.
    pub c2: PathTable,
    /// Whether any table hit the configured row cap (results would be
    /// partial; the PB matcher refuses to use a truncated table).
    pub truncated: bool,
    /// The configuration the tables were built with — remembered so
    /// [`PathTables::apply`] re-runs the kernel under identical settings.
    config: TablesConfig,
    /// Whether the tables cover only a selected anchor subset
    /// ([`PathTables::for_anchors`]); such tables refuse incremental
    /// maintenance, which is defined against full coverage.
    partial: bool,
    kernel_calls: u64,
    /// Working memory of [`PathTables::apply`], recycled between calls.
    scratch: ApplyScratch,
}

/// What one [`PathTables::apply`] call did. A caller that replaces the
/// tables with a [`PathTables::build`] instead reports it the way `apply`
/// reports its own rebuild: every vertex refreshed, `rebuilt` set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablesUpdate {
    /// Row groups (edge blocks `[u, v, *]`, single cycle rows, single path
    /// rows) recomputed by this update — the invalidation set; the vertex
    /// count for a rebuild.
    pub refreshed_groups: usize,
    /// Whether the update fell back to a full rebuild (truncated input
    /// tables, or the patched tables crossed the row cap).
    pub rebuilt: bool,
    /// Chain-kernel passes this update performed.
    pub kernel_calls: u64,
}

/// Names one group of table rows for [`PathTable::open_gaps`]: the rows whose
/// packed key ([`PathRow::packed`]) lies in `lo..hi`. A pair key `[a, b]`
/// is an exact cycle row in `L2` and a whole `[a, b, *]` block in
/// `L3`/`C2`; a triple key is a single row.
#[derive(Debug, Clone, Copy)]
struct KeyRange {
    lo: u128,
    hi: u128,
}

impl KeyRange {
    fn pair(a: NodeId, b: NodeId) -> Self {
        let lo = pack(a, b, NodeId(0));
        KeyRange {
            lo,
            hi: lo + (1 << 32),
        }
    }

    fn triple([a, b, c]: [NodeId; 3]) -> Self {
        let lo = pack(a, b, c);
        KeyRange { lo, hi: lo + 1 }
    }

    /// The anchor of every row the key names.
    fn anchor(&self) -> u32 {
        (self.lo >> 64) as u32
    }
}

/// What one patch key changes in a [`PathTable::open_gaps`].
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The key's rows in the table before the splice, as an index range.
    old: (u32, u32),
    /// How many rows the key holds after it: the size of its gap.
    fresh: u32,
    /// The anchor of the key's rows.
    anchor: u32,
}

impl Span {
    /// Rows the key adds, net.
    fn change(&self) -> i64 {
        i64::from(self.fresh) - i64::from(self.old.1 - self.old.0)
    }
}

/// The placeholder in a gap of [`PathTable::open_gaps`] until a
/// [`GapWriter`] fills it.
const GAP: PathRow = PathRow {
    verts: [NodeId(0); MAX_PATH_VERTICES],
    len: 0,
    delivered_start: 0,
    delivered_len: 0,
    flow: 0.0,
};

/// Writes fresh rows into the gaps [`PathTable::open_gaps`] opened, in key
/// order, and their profiles onto the end of the table's arena. The gap of
/// a span starts where the span's old rows started, moved by the net change
/// of the spans before it.
struct GapWriter<'a> {
    table: &'a mut PathTable,
    spans: &'a [Span],
    /// The next span whose gap is not reached yet, and the net change of
    /// the spans before it.
    next: usize,
    shift: i64,
    /// Where the next row goes, and where its gap ends.
    at: usize,
    end: usize,
}

impl<'a> GapWriter<'a> {
    fn new(table: &'a mut PathTable, spans: &'a [Span]) -> Self {
        GapWriter {
            table,
            spans,
            next: 0,
            shift: 0,
            at: 0,
            end: 0,
        }
    }

    /// Moves on to the next gap that takes rows, once the current one is
    /// full.
    fn reach_gap(&mut self) {
        while self.at == self.end && self.next < self.spans.len() {
            let span = self.spans[self.next];
            self.at = (i64::from(span.old.0) + self.shift) as usize;
            self.end = self.at + span.fresh as usize;
            self.shift += span.change();
            self.next += 1;
        }
    }

    fn push(
        &mut self,
        verts: [NodeId; MAX_PATH_VERTICES],
        len: u8,
        delivered: &[Interaction],
        flow: Quantity,
    ) {
        self.reach_gap();
        debug_assert!(self.at < self.end, "more fresh rows than the gaps hold");
        self.table.rows[self.at] = new_row(&mut self.table.arena, verts, len, delivered, flow);
        self.at += 1;
    }

    /// The last `n` rows written, which must all lie in one gap.
    fn last_rows(&mut self, n: usize) -> &mut [PathRow] {
        &mut self.table.rows[self.at - n..self.at]
    }

    /// Closes the splice: checks that every gap is full, and compacts the
    /// arena if the patch left more garbage than live data.
    fn finish(mut self) {
        self.reach_gap();
        debug_assert!(self.at == self.end, "fewer fresh rows than the gaps hold");
        let table = self.table;
        if table.dead > table.arena.len() - table.dead {
            table.compact();
        }
    }
}

/// The first index at or after `from` whose row is not `below`, where
/// `below` holds for a prefix of `rows[from..]`: probes `from`, then
/// steps 1, 2, 4, … further, and binary-searches the last step. A short
/// step costs a few comparisons, a long one `O(log)`.
fn gallop(rows: &[PathRow], from: usize, below: impl Fn(&PathRow) -> bool) -> usize {
    // Every row of `rows[from..lo]` is below; `rows[hi]` is not (or `hi`
    // is past the end).
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < rows.len() && below(&rows[hi]) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(rows.len());
    lo + rows[lo..hi].partition_point(below)
}

impl PathTables {
    /// Builds the tables for `graph`, fanning the anchors out over the
    /// worker pool when the graph is large enough to amortize it.
    pub fn build(graph: &TemporalGraph, config: &TablesConfig) -> Self {
        let anchors: Vec<NodeId> = all_anchors(graph);
        build_for_anchor_list(graph, config, &anchors, auto_parallel(graph))
    }

    /// Builds the tables on the calling thread only (benchmark baseline and
    /// deterministic small-graph path).
    pub fn build_serial(graph: &TemporalGraph, config: &TablesConfig) -> Self {
        let anchors: Vec<NodeId> = all_anchors(graph);
        build_for_anchor_list(graph, config, &anchors, false)
    }

    /// Builds the tables on the worker pool unconditionally.
    pub fn build_parallel(graph: &TemporalGraph, config: &TablesConfig) -> Self {
        let anchors: Vec<NodeId> = all_anchors(graph);
        build_for_anchor_list(graph, config, &anchors, true)
    }

    /// Builds the rows anchored at `anchors` only (anchor-lazy mode):
    /// kernel work is proportional to the listed anchors' neighborhoods,
    /// not to the whole graph. Duplicate anchors are deduplicated.
    ///
    /// The result is a regular [`PathTables`] whose tables simply contain no
    /// rows for other anchors, so every downstream consumer (joins, relaxed
    /// searches) works unchanged on the subset.
    pub fn for_anchors(graph: &TemporalGraph, config: &TablesConfig, anchors: &[NodeId]) -> Self {
        let mut picked: Vec<NodeId> = anchors
            .iter()
            .copied()
            .filter(|a| a.index() < graph.node_count())
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let mut tables = build_for_anchor_list(graph, config, &picked, auto_parallel(graph));
        tables.partial = true;
        tables
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.l2.len() + self.l3.len() + self.c2.len()
    }

    /// Number of chain-propagation kernel passes the build performed
    /// (anchor-lazy builds do anchor-local work; tests assert on this).
    pub fn kernel_calls(&self) -> u64 {
        self.kernel_calls
    }

    /// The configuration the tables were built with.
    pub fn config(&self) -> &TablesConfig {
        &self.config
    }

    /// Whether the tables cover only a selected anchor subset
    /// ([`PathTables::for_anchors`]). Partial tables refuse
    /// [`PathTables::apply`] and cannot be snapshotted meaningfully — a
    /// restore would silently serve subset coverage as full coverage.
    pub fn is_partial(&self) -> bool {
        self.partial
    }

    /// Reassembles a full-coverage table set from stored parts: the build
    /// configuration, the truncation verdict, and the three tables (see
    /// [`PathTable::from_row_contents`] for the per-table seam).
    ///
    /// The result reports zero [`PathTables::kernel_calls`] — that counter
    /// is build telemetry, not table content, and restarts from the restore.
    pub fn from_stored_parts(
        config: TablesConfig,
        truncated: bool,
        l2: PathTable,
        l3: PathTable,
        c2: PathTable,
    ) -> Self {
        PathTables {
            l2,
            l3,
            c2,
            truncated,
            config,
            partial: false,
            kernel_calls: 0,
            scratch: ApplyScratch::default(),
        }
    }

    /// Compares two table sets row for row (truncation verdict, vertex
    /// sequences, flows, delivered profiles) and describes the first
    /// divergence, or returns `None` when they are row-identical. Arena
    /// layout and garbage are *not* compared — only observable row content.
    ///
    /// This is the exactness check of incremental maintenance: after
    /// [`PathTables::apply`], `self.first_row_divergence(&rebuilt)` against
    /// a from-scratch build must be `None` (the streaming experiment and
    /// the proptests both assert through this one definition).
    pub fn first_row_divergence(&self, other: &PathTables) -> Option<String> {
        if self.truncated != other.truncated {
            return Some(format!(
                "truncation verdicts differ ({} vs {})",
                self.truncated, other.truncated
            ));
        }
        for (label, a, b) in [
            ("L2", &self.l2, &other.l2),
            ("L3", &self.l3, &other.l3),
            ("C2", &self.c2, &other.c2),
        ] {
            if a.len() != b.len() {
                return Some(format!(
                    "{label}: row counts differ ({} vs {})",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
                if ra.vertices() != rb.vertices() {
                    return Some(format!(
                        "{label}: row {i} vertices differ ({:?} vs {:?})",
                        ra.vertices(),
                        rb.vertices()
                    ));
                }
                if ra.flow != rb.flow {
                    return Some(format!(
                        "{label}: row {i} ({:?}) flows differ ({} vs {})",
                        ra.vertices(),
                        ra.flow,
                        rb.flow
                    ));
                }
                if a.delivered(ra) != b.delivered(rb) {
                    return Some(format!(
                        "{label}: row {i} ({:?}) delivered profiles differ",
                        ra.vertices()
                    ));
                }
            }
        }
        None
    }

    /// Incrementally maintains the tables after `graph` absorbed a delta
    /// (`applied` is what [`tin_graph::TemporalGraph::apply`] returned for
    /// it). Afterwards the tables are row-identical to a from-scratch
    /// [`PathTables::build`] over the changed graph — the workspace
    /// proptests pin this down — but the *kernel* only revisits the row
    /// groups the delta can invalidate (see the [module docs](self)), so
    /// flow recomputation scales with the changed edges' endpoint degrees,
    /// not with the graph.
    ///
    /// Each piece of the patch is done once, in the order its consumer
    /// reads it. Collecting the groups finds every 3-cycle through a
    /// changed edge once, with the edges that close it, and keeps those
    /// edges with the groups, so the kernel runs on edge slices with no
    /// pair lookup of its own. The collected edges also tell how many rows
    /// each group will hold, so every table first opens a gap of exactly
    /// that size per group, in place: each unchanged run between two groups
    /// moves once, within the one row vector, and the offset index moves by
    /// each anchor's change in row count. The kernel then walks the groups
    /// in key order and writes every fresh row straight into its gap;
    /// nothing sorts more than one block's rows. The working memory of all
    /// this lives in the tables between calls, so a steady stream of patches
    /// does not allocate per batch, and it never holds a second copy of a
    /// table's rows.
    ///
    /// Removals are handled symmetrically: a sliding-window delta's
    /// evictions ([`AppliedDelta::shrunk_edges`] /
    /// [`AppliedDelta::removed_edges`]) invalidate exactly the same row
    /// groups an addition on the same edge would, and a group whose edge
    /// was tombstoned simply recomputes to zero rows — the splice deletes
    /// it, feeding the arena's garbage accounting and (eventually) its
    /// amortized compaction.
    ///
    /// Apply updates in the same order the graph applied the deltas; each
    /// call must see the graph state right after its delta. A run of
    /// consecutive applications folded with [`AppliedDelta::absorb`] is one
    /// such delta: applied once, against the graph after the last of them,
    /// it leaves the same rows as applying each in turn, because the row
    /// groups above are named from the post-delta graph and the changed
    /// edges alone, and an edge outside the fold's changed set is the same
    /// before the run and after it. Patch work grows with the fold's
    /// changed pairs, so a caller holding a fold that changed a large share
    /// of the graph may do better to drop the tables and
    /// [`PathTables::build`] (recovery does, `tin_durable`'s
    /// `Recovery::run`).
    ///
    /// Truncated tables (and patches that cross the row cap, in either
    /// direction — growth past the cap, or shrinkage of previously capped
    /// content) fall back to a full rebuild so the row-cap semantics stay
    /// exactly those of a fresh build.
    ///
    /// # Panics
    /// Panics on tables built with [`PathTables::for_anchors`]: a fixed
    /// anchor subset cannot be patched meaningfully (the patch would mix
    /// subset and full coverage) — use [`LazyPathTables`] for incrementally
    /// maintained partial coverage.
    pub fn apply(&mut self, graph: &TemporalGraph, applied: &AppliedDelta) -> TablesUpdate {
        assert!(
            !self.partial,
            "PathTables::apply on a for_anchors subset would silently mix subset and \
             full coverage; use LazyPathTables for maintained partial coverage"
        );
        let config = self.config;
        if self.truncated {
            return self.rebuild(graph, &config, 0);
        }
        let PathTables {
            l2,
            l3,
            c2,
            scratch,
            ..
        } = self;
        scratch.collect(graph, &config, applied);
        let refreshed_groups = scratch.group_count();
        let calls_before = scratch.chain.kernel_calls();
        scratch.patch(graph, &config, [l2, l3, c2]);
        let kernel_calls = scratch.chain.kernel_calls() - calls_before;

        if config.max_rows > 0 && self.over_cap(config.max_rows) {
            return self.rebuild(graph, &config, kernel_calls);
        }
        self.kernel_calls += kernel_calls;
        TablesUpdate {
            refreshed_groups,
            rebuilt: false,
            kernel_calls,
        }
    }

    /// Whether any built table exceeds `cap` rows.
    fn over_cap(&self, cap: usize) -> bool {
        [&self.l2, &self.l3, &self.c2].iter().any(|t| t.len() > cap)
    }

    /// Full-rebuild fallback of [`PathTables::apply`]; `wasted` kernel
    /// passes were already spent on an abandoned incremental attempt.
    fn rebuild(
        &mut self,
        graph: &TemporalGraph,
        config: &TablesConfig,
        wasted: u64,
    ) -> TablesUpdate {
        let prior = self.kernel_calls;
        let scratch = std::mem::take(&mut self.scratch);
        *self = PathTables::build(graph, config);
        self.scratch = scratch;
        let this_update = self.kernel_calls + wasted;
        self.kernel_calls = prior + this_update;
        TablesUpdate {
            refreshed_groups: graph.node_count(),
            rebuilt: true,
            kernel_calls: this_update,
        }
    }
}

/// The anchors whose `L2`/`L3`/`C2` rows a batch of changes can invalidate:
/// for every changed edge `u → v` — appended to, shrunk by eviction, or
/// tombstoned — the set `{u, v} ∪ in(u)` (deduplicated, ascending). `graph`
/// must be the *post-apply* graph.
///
/// This set is exact, for additions and removals alike: a table row's
/// delivered profiles depend only on the edges along its path, and a path
/// through `u → v` starts at `u` (first edge), at an in-neighbor of `u`
/// (middle edge), or at `v` (closing edge of a cycle). Rows of any other
/// anchor cannot reference the changed edge and stay valid verbatim.
/// (Tombstones keep their endpoints, which is what makes the removed edges
/// addressable here; an in-neighbor edge removed by the same delta is
/// itself a changed edge and contributes its own anchors.)
pub fn invalidated_anchors(graph: &TemporalGraph, applied: &AppliedDelta) -> Vec<NodeId> {
    let mut anchors = Vec::new();
    for e in applied.changed_edges() {
        let edge = graph.edge(e);
        anchors.push(edge.src);
        anchors.push(edge.dst);
        anchors.extend(graph.in_neighbors(edge.src));
    }
    anchors.sort_unstable();
    anchors.dedup();
    anchors
}

/// Every vertex id of `graph`, as the ascending anchor list of a full build.
fn all_anchors(graph: &TemporalGraph) -> Vec<NodeId> {
    (0..graph.node_count()).map(NodeId::from_index).collect()
}

/// Eager builds go parallel only when the graph plausibly amortizes the
/// thread-pool round trip.
fn auto_parallel(graph: &TemporalGraph) -> bool {
    graph.node_count() >= 512 && effective_threads() > 1
}

/// The third vertex `w` of a 3-cycle `u → v → w → u` through the edge
/// `u → v`, with the cycle's two other edges, as
/// [`for_each_cycle_vertex`] found them.
#[derive(Debug, Clone, Copy)]
struct Triangle {
    w: NodeId,
    /// The edge `v → w`.
    vw: EdgeId,
    /// The edge `w → u`.
    wu: EdgeId,
}

/// A changed pair `u → v`: the `[u, v, *]` first-edge block of
/// [`PathTables::apply`], with the edges its rows run over.
#[derive(Debug, Clone, Copy)]
struct Block {
    u: NodeId,
    v: NodeId,
    /// The live edge `u → v`; `None` once it was evicted (or an added edge
    /// whose every interaction immediately expired): the block keeps its
    /// key but holds no rows, so the patch deletes the group — removal is
    /// just "recompute to empty".
    edge: Option<EdgeId>,
    /// The live return edge `v → u`, looked up only when `L2` or `C2` is
    /// built.
    back: Option<EdgeId>,
    /// The block's 3-cycles: `triangles[cycles.0..cycles.1]` of its
    /// [`ApplyScratch`].
    cycles: (u32, u32),
}

impl Block {
    /// How many rows the block holds in table `t` after the patch, as
    /// [`enumerate_first_edge`] emits them: none once `u → v` is gone; in
    /// `L2` the cycle `[u, v]` when `v → u` is live; in `L3` one row per
    /// 3-cycle; in `C2` one per out-neighbor of `v` other than `u`.
    fn rows(&self, graph: &TemporalGraph, t: usize) -> usize {
        match (self.edge, t) {
            (None, _) => 0,
            (_, L2) => usize::from(self.back.is_some()),
            (_, L3) => (self.cycles.1 - self.cycles.0) as usize,
            _ => graph.out_degree(self.v) - usize::from(self.back.is_some()),
        }
    }
}

/// A closing `L2` row `[a, b]` whose return edge `b → a` changed while its
/// own block `[a, b]` did not.
#[derive(Debug, Clone, Copy)]
struct ClosingPair {
    a: NodeId,
    b: NodeId,
    /// The live edge `a → b`.
    first: EdgeId,
    /// The changed edge `b → a`; `None` once it was evicted, which deletes
    /// the row.
    back: Option<EdgeId>,
}

/// A single `L3`/`C2` row `[a, b, c]` outside the blocks, with the live
/// edges of its hops `a → b`, `b → c` and `c → a`: none where the pair has
/// no live edge, and for `c → a` also when `L3` is not built.
#[derive(Debug, Clone, Copy)]
struct Point {
    verts: [NodeId; 3],
    hops: [Hop; 3],
}

impl Point {
    fn new(verts: [NodeId; 3], hops: [Option<EdgeId>; 3]) -> Self {
        Point {
            verts,
            hops: hops.map(Hop::new),
        }
    }

    /// Whether the point holds a row in table `t` after the patch: a `C2`
    /// row needs its first two hops live, an `L3` row all three.
    fn rows(&self, t: usize) -> usize {
        let hops = if t == L3 { 3 } else { 2 };
        usize::from(self.hops[..hops].iter().all(|h| h.0.is_some()))
    }
}

/// An optional edge in four bytes, where `Option<EdgeId>` takes eight: the
/// id plus one, so that zero is no edge. Points are sorted on every patch
/// and their buffer stays resident between patches, so their size counts.
#[derive(Debug, Clone, Copy)]
struct Hop(Option<NonZeroU32>);

impl Hop {
    fn new(edge: Option<EdgeId>) -> Self {
        Hop(edge.map(|e| {
            NonZeroU32::MIN
                .checked_add(e.0)
                .expect("edge id overflows a hop")
        }))
    }

    fn edge(self) -> Option<EdgeId> {
        self.0.map(|h| EdgeId(h.get() - 1))
    }
}

/// Working memory of [`PathTables::apply`], kept in the tables between
/// calls so that a stream of patches reuses the buffers of the ones before
/// it instead of allocating its own. It holds the invalidated row groups
/// and the splices' spans — never a row of a table: fresh rows go straight
/// into the gaps the splices open. A clone starts empty.
#[derive(Default)]
struct ApplyScratch {
    chain: ChainScratch,
    /// First-edge blocks, ascending and deduplicated.
    blocks: Vec<Block>,
    /// Closing `L2` rows outside the blocks, ascending.
    closing: Vec<ClosingPair>,
    /// Single `L3`/`C2` rows outside the blocks, ascending and
    /// deduplicated.
    points: Vec<Point>,
    /// The blocks' 3-cycles, block by block.
    triangles: Vec<Triangle>,
    /// Each table's splice ([`PathTable::open_gaps`]).
    spans: [Vec<Span>; 3],
}

impl Clone for ApplyScratch {
    fn clone(&self) -> Self {
        ApplyScratch::default()
    }
}

impl std::fmt::Debug for ApplyScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApplyScratch").finish_non_exhaustive()
    }
}

impl ApplyScratch {
    /// Collects the row groups a delta can invalidate — only for the tables
    /// `config` actually builds — each with the live edges its rows run
    /// over. For each changed edge `u → v` (touched by additions, shrunk by
    /// eviction, or tombstoned — the sets are exactly symmetric): the
    /// `[u, v, *]` block (first-edge rows), the middle-edge point rows
    /// `[a, u, v]`, and the closing-edge rows `[v, u]` / `[v, w, u]`.
    ///
    /// Which middle points are collected depends on the tables. With `C2`
    /// every chain `a → u → v` is a row, so every in-neighbor `a` of `u` is
    /// a point: O(`in(u)`) per changed edge. Without `C2` only 3-cycles hold
    /// rows, and the middle and closing points are both the cycle vertices
    /// `out(v) ∩ in(u)` ([`for_each_cycle_vertex`]), plus the middle points
    /// whose closing pair `(v, a)` is itself changed in this delta — a cycle
    /// that lost its `v → a` edge along with `u → v` is visible from neither
    /// edge's post-delta neighborhood. That is `min(in(u), out(v))` pair
    /// probes plus a binary search over the delta's own changed pairs, never
    /// a scan of a hub's whole neighborhood, and never the O(deg²) of a whole
    /// anchor rebuild.
    ///
    /// Each block's 3-cycles are listed here, once, and kept: they name the
    /// block's middle and closing points, count its `L3` rows, and
    /// [`ApplyScratch::patch`] runs those rows over them. Every edge a
    /// group's rows need is found here too, from the adjacency it scans or
    /// the probe that found the cycle, so the patch looks nothing up.
    ///
    /// Tombstones keep their endpoints, so the keys of a removed edge are
    /// collected the same way; its neighborhood walks run over the
    /// post-eviction adjacency, where companion edges removed by the same
    /// delta are already gone — those contribute their own keys through
    /// their own changed pairs (and the closing-pair lookup above).
    fn collect(&mut self, graph: &TemporalGraph, config: &TablesConfig, applied: &AppliedDelta) {
        let ApplyScratch {
            blocks,
            closing,
            points,
            triangles,
            ..
        } = self;
        blocks.clear();
        closing.clear();
        points.clear();
        triangles.clear();
        // The changed pairs are exactly the first-edge blocks; sorted, they
        // also answer the closing-pair lookup by binary search.
        blocks.extend(applied.changed_edges().map(|e| {
            let edge = graph.edge(e);
            Block {
                u: edge.src,
                v: edge.dst,
                edge: None,
                back: None,
                cycles: (0, 0),
            }
        }));
        blocks.sort_unstable_by_key(|b| (b.u, b.v));
        blocks.dedup_by_key(|b| (b.u, b.v));
        for b in blocks.iter_mut() {
            b.edge = graph.find_edge(b.u, b.v);
            if config.build_l2 || config.build_c2 {
                b.back = graph.find_edge(b.v, b.u);
            }
        }
        let index = |i: usize| u32::try_from(i).expect("3-cycle count exceeds u32");
        for i in 0..blocks.len() {
            let Block {
                u, v, edge, back, ..
            } = blocks[i];
            if config.build_c2 {
                for &au in graph.in_edges(u) {
                    let a = graph.edge(au).src;
                    if a != v && a != u {
                        let close = if config.build_l3 {
                            graph.find_edge(v, a)
                        } else {
                            None
                        };
                        points.push(Point::new([a, u, v], [Some(au), edge, close]));
                    }
                }
            }
            if config.build_l3 {
                let start = triangles.len();
                for_each_cycle_vertex(graph, u, v, &mut |t| triangles.push(t));
                blocks[i].cycles = (index(start), index(triangles.len()));
                for t in &triangles[start..] {
                    if !config.build_c2 {
                        points.push(Point::new([t.w, u, v], [Some(t.wu), edge, Some(t.vw)]));
                    }
                    points.push(Point::new([v, t.w, u], [Some(t.vw), Some(t.wu), edge]));
                }
                if !config.build_c2 {
                    // Middle points whose closing pair `(v, a)` changed too.
                    let from = blocks.partition_point(|b| b.u < v);
                    for c in blocks[from..].iter().take_while(|b| b.u == v) {
                        if c.v != u {
                            if let Some(au) = graph.find_edge(c.v, u) {
                                points.push(Point::new([c.v, u, v], [Some(au), edge, c.edge]));
                            }
                        }
                    }
                }
            }
            if let Some(back) = back.filter(|_| config.build_l2) {
                closing.push(ClosingPair {
                    a: v,
                    b: u,
                    first: back,
                    back: edge,
                });
            }
        }
        // One closing pair per block, so they need no deduplication.
        closing.sort_unstable_by_key(|c| (c.a, c.b));
        retain_outside_blocks(closing, blocks, |c| (c.a, c.b));
        points.sort_unstable_by_key(|p| p.verts);
        points.dedup_by_key(|p| p.verts);
        retain_outside_blocks(points, blocks, |p| (p.verts[0], p.verts[1]));
    }

    /// Total number of row groups across the three kinds.
    fn group_count(&self) -> usize {
        self.blocks.len() + self.closing.len() + self.points.len()
    }

    /// Splices the collected groups into the built tables (`tables` in
    /// [`L2`], [`L3`], [`C2`] order). The edges each group's rows run over
    /// are live exactly when those rows exist, so every group's new row
    /// count is known before any kernel pass: each table first opens a gap
    /// of that size per group ([`PathTable::open_gaps`]). Then the chain
    /// kernel runs for exactly the collected groups, over the collected
    /// edges, and writes every row straight into its gap ([`GapWriter`]).
    /// Blocks, closing pairs and points are each ascending and never
    /// overlap, so one walk over them in key order meets every table's gaps
    /// in order; only a block's own rows are sorted, by their third vertex.
    fn patch(
        &mut self,
        graph: &TemporalGraph,
        config: &TablesConfig,
        mut tables: [&mut PathTable; 3],
    ) {
        let ApplyScratch {
            chain,
            blocks,
            closing,
            points,
            triangles,
            spans,
        } = self;
        let built = [config.build_l2, config.build_l3, config.build_c2];
        for (t, table) in tables.iter_mut().enumerate() {
            spans[t].clear();
            if built[t] {
                // The keys of `L2` are the blocks and the closing pairs;
                // those of `L3` and `C2` are the blocks and the points.
                let (closing, points) = if t == L2 {
                    (&closing[..], &[][..])
                } else {
                    (&[][..], &points[..])
                };
                let keys = merge_keys(
                    blocks
                        .iter()
                        .map(|b| (KeyRange::pair(b.u, b.v), b.rows(graph, t))),
                    closing
                        .iter()
                        .map(|c| (KeyRange::pair(c.a, c.b), usize::from(c.back.is_some())))
                        .chain(
                            points
                                .iter()
                                .map(|p| (KeyRange::triple(p.verts), p.rows(t))),
                        ),
                );
                table.open_gaps(keys, &mut spans[t]);
            }
        }

        let [l2, l3, c2] = tables;
        let mut out = [
            GapWriter::new(l2, &spans[L2]),
            GapWriter::new(l3, &spans[L3]),
            GapWriter::new(c2, &spans[C2]),
        ];
        let slice = |e: EdgeId| graph.edge(e).interactions.as_slice();
        let (mut bi, mut ci, mut pi) = (0, 0, 0);
        loop {
            let at_block = blocks
                .get(bi)
                .map_or(u128::MAX, |b| pack(b.u, b.v, NodeId(0)));
            let at_closing = closing
                .get(ci)
                .map_or(u128::MAX, |c| pack(c.a, c.b, NodeId(0)));
            let at_point = points
                .get(pi)
                .map_or(u128::MAX, |p| pack(p.verts[0], p.verts[1], p.verts[2]));
            let next = at_block.min(at_closing).min(at_point);
            if next == u128::MAX {
                break;
            }
            if next == at_block {
                let b = blocks[bi];
                bi += 1;
                let Some(edge) = b.edge else {
                    continue;
                };
                let first = FirstEdge {
                    u: b.u,
                    v: b.v,
                    first: slice(edge),
                    back: b.back.map(slice),
                    cycles: &triangles[b.cycles.0 as usize..b.cycles.1 as usize],
                };
                let mut emitted = [0usize; 3];
                enumerate_first_edge(
                    graph,
                    config,
                    &first,
                    chain,
                    &mut |table, verts, len, delivered, flow| {
                        out[table].push(verts, len, delivered, flow);
                        emitted[table] += 1;
                        true
                    },
                );
                for t in [L3, C2] {
                    out[t]
                        .last_rows(emitted[t])
                        .sort_unstable_by_key(|r| r.verts[2]);
                }
            } else if next == at_closing {
                let c = closing[ci];
                ci += 1;
                if let Some(back) = c.back {
                    let flow = chain.reduce_pair(slice(c.first), slice(back));
                    out[L2].push([c.a, c.b, c.a], 2, chain.delivered(), flow);
                }
            } else {
                let p = points[pi];
                pi += 1;
                // Any of the three hops can be a changed edge, and a changed
                // edge can be a tombstone: a dead hop deletes the point's
                // rows.
                let [Some(first), Some(mid), close] = p.hops.map(Hop::edge) else {
                    continue;
                };
                if close.is_none() && !config.build_c2 {
                    continue;
                }
                let mid_flow = chain.reduce_pair(slice(first), slice(mid));
                if config.build_c2 {
                    out[C2].push(p.verts, 3, chain.delivered(), mid_flow);
                }
                if let Some(close) = close {
                    let flow = chain.extend_through(slice(close));
                    out[L3].push(p.verts, 3, chain.extended_delivered(), flow);
                }
            }
        }
        for writer in out {
            writer.finish();
        }
    }
}

/// Merges two ascending, non-overlapping key sequences into one.
fn merge_keys(
    a: impl Iterator<Item = (KeyRange, usize)>,
    b: impl Iterator<Item = (KeyRange, usize)>,
) -> impl Iterator<Item = (KeyRange, usize)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0.lo < x.0.lo => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Drops the `items` (ascending by `prefix`) whose `prefix` pair is a
/// block: the block's key already covers their rows.
fn retain_outside_blocks<T>(
    items: &mut Vec<T>,
    blocks: &[Block],
    prefix: impl Fn(&T) -> (NodeId, NodeId),
) {
    let mut at = 0;
    items.retain(|item| {
        let p = prefix(item);
        while blocks.get(at).is_some_and(|b| (b.u, b.v) < p) {
            at += 1;
        }
        blocks.get(at).is_none_or(|b| (b.u, b.v) != p)
    });
}

/// Calls `f` for every 3-cycle through the edge `u → v`: every third vertex
/// `w ∈ out(v) ∩ in(u)`, `w ∉ {u, v}`, with the edges `v → w` and `w → u`,
/// in any order. The same set names the edge's first-edge `L3` rows
/// `[u, v, w]`, its middle-edge rows `[w, u, v]` and its closing rows
/// `[v, w, u]`, so the eager build and [`PathTables::apply`] enumerate
/// cycles through this one function.
///
/// Scans the smaller of `in(u)` and `out(v)` and probes the other side
/// with one pair lookup per neighbor — the lower-degree rule of triangle
/// listing (Chiba & Nishizeki, "Arboricity and subgraph listing
/// algorithms", SIAM J. Comput. 1985) — so a hub endpoint costs nothing
/// when the other side is small. The edge the scan walked and the edge the
/// probe found are handed over with `w`, so no caller looks either up
/// again.
fn for_each_cycle_vertex(graph: &TemporalGraph, u: NodeId, v: NodeId, f: &mut dyn FnMut(Triangle)) {
    if graph.in_degree(u) <= graph.out_degree(v) {
        for &wu in graph.in_edges(u) {
            let w = graph.edge(wu).src;
            if w != u && w != v {
                if let Some(vw) = graph.find_edge(v, w) {
                    f(Triangle { w, vw, wu });
                }
            }
        }
    } else {
        for &vw in graph.out_edges(v) {
            let w = graph.edge(vw).dst;
            if w != u && w != v {
                if let Some(wu) = graph.find_edge(w, u) {
                    f(Triangle { w, vw, wu });
                }
            }
        }
    }
}

/// The chronologically sorted interactions of the live edge `src → dst`,
/// or `None` when no such edge exists.
fn pair(graph: &TemporalGraph, src: NodeId, dst: NodeId) -> Option<&[Interaction]> {
    graph
        .find_edge(src, dst)
        .map(|e| graph.edge(e).interactions.as_slice())
}

/// Index of each table in the per-build bookkeeping arrays.
const L2: usize = 0;
const L3: usize = 1;
const C2: usize = 2;

/// Rows plus arena for one table, as produced by one worker chunk.
#[derive(Default)]
struct TableBuf {
    rows: Vec<PathRow>,
    arena: Vec<Interaction>,
}

impl TableBuf {
    fn push(
        &mut self,
        verts: [NodeId; MAX_PATH_VERTICES],
        len: u8,
        delivered: &[Interaction],
        flow: Quantity,
    ) {
        let row = new_row(&mut self.arena, verts, len, delivered, flow);
        self.rows.push(row);
    }
}

/// Appends `delivered` to `arena` and returns the row that points at it.
fn new_row(
    arena: &mut Vec<Interaction>,
    verts: [NodeId; MAX_PATH_VERTICES],
    len: u8,
    delivered: &[Interaction],
    flow: Quantity,
) -> PathRow {
    let start = u32::try_from(arena.len()).expect("delivered arena exceeds u32 offsets");
    let dlen = u32::try_from(delivered.len()).expect("delivered profile exceeds u32 length");
    arena.extend_from_slice(delivered);
    PathRow {
        verts,
        len,
        delivered_start: start,
        delivered_len: dlen,
        flow,
    }
}

/// Shared row-cap accounting across worker chunks. `published` counts rows
/// already handed over by completed anchors, so a chunk can tell (up to
/// publish lag) whether a new row would exceed the cap.
struct CapState {
    cap: usize,
    published: [AtomicUsize; 3],
}

/// One worker's output: per-table buffers plus cap/kernel bookkeeping.
#[derive(Default)]
struct ChunkOut {
    tables: [TableBuf; 3],
    my_published: [usize; 3],
    /// A row push would have exceeded the cap — truncation is certain.
    hit_cap: bool,
    kernel_calls: u64,
}

impl ChunkOut {
    /// Pushes a row unless that would exceed the global cap; on a cap hit,
    /// flags the chunk so the caller stops producing rows.
    fn try_push(
        &mut self,
        caps: &CapState,
        table: usize,
        verts: [NodeId; MAX_PATH_VERTICES],
        len: u8,
        delivered: &[Interaction],
        flow: Quantity,
    ) {
        if caps.cap > 0 {
            let others = caps.published[table].load(Ordering::Relaxed) - self.my_published[table];
            if others + self.tables[table].rows.len() >= caps.cap {
                self.hit_cap = true;
                return;
            }
        }
        self.tables[table].push(verts, len, delivered, flow);
    }

    /// Publishes this chunk's row counts so other chunks see them in their
    /// cap checks.
    fn publish(&mut self, caps: &CapState) {
        if caps.cap == 0 {
            return;
        }
        for t in 0..3 {
            let len = self.tables[t].rows.len();
            let delta = len - self.my_published[t];
            if delta > 0 {
                caps.published[t].fetch_add(delta, Ordering::Relaxed);
                self.my_published[t] = len;
            }
        }
    }
}

/// A first edge `u → v` with the edges its rows close through, found once
/// by the caller: the return edge `v → u` (the `L2` row) and the 3-cycles
/// through `u → v` (the `L3` rows of cycle-only tables).
struct FirstEdge<'a> {
    u: NodeId,
    v: NodeId,
    /// The interactions of `u → v`.
    first: &'a [Interaction],
    /// The interactions of `v → u`, when that edge exists; read only when
    /// `L2` is built.
    back: Option<&'a [Interaction]>,
    /// Every 3-cycle through `u → v` ([`for_each_cycle_vertex`]); read only
    /// when `L3` is built without `C2`.
    cycles: &'a [Triangle],
}

/// Emits every table row whose path starts with the single edge `u → v`:
/// the `L2` cycle `[u, v]` (when the return edge exists) and, per closing
/// vertex `w`, the shared-prefix `C2`/`L3` rows `[u, v, w]`. With `C2`
/// every out-neighbor of `v` is a row, so the pass scans `out(v)`;
/// cycle-only tables run over the 3-cycles the caller listed through
/// [`for_each_cycle_vertex`], with no lookup of their own.
///
/// `emit(table, verts, len, delivered, flow)` returns `false` to stop early
/// (row-cap pressure); the function then returns `false` too. Shared by the
/// eager per-anchor build and the incremental [`PathTables::apply`], so the
/// two paths cannot drift apart.
fn enumerate_first_edge<F>(
    graph: &TemporalGraph,
    config: &TablesConfig,
    edge: &FirstEdge<'_>,
    scratch: &mut ChainScratch,
    emit: &mut F,
) -> bool
where
    F: FnMut(usize, [NodeId; 3], u8, &[Interaction], Quantity) -> bool,
{
    let FirstEdge {
        u,
        v,
        first,
        back,
        cycles,
    } = *edge;
    if v == u {
        return true;
    }
    // The start vertex has an unlimited buffer, so the profile delivered
    // into `v` is the edge's interaction list itself (`first`) — the shared
    // prefix of every path through `u → v` costs nothing to "compute".
    if config.build_l2 {
        if let Some(back) = back {
            let flow = scratch.reduce_pair(first, back);
            if !emit(L2, [u, v, u], 2, scratch.delivered(), flow) {
                return false;
            }
        }
    }
    if config.build_c2 {
        for &e in graph.out_edges(v) {
            let edge = graph.edge(e);
            let w = edge.dst;
            if w == u || w == v {
                continue;
            }
            // One kernel pass for the shared `u → v → w` prefix; the C2
            // row reuses it as-is, the L3 row extends it by one pass.
            let mid_flow = scratch.reduce_pair(first, &edge.interactions);
            if !emit(C2, [u, v, w], 3, scratch.delivered(), mid_flow) {
                return false;
            }
            let closing = if config.build_l3 {
                pair(graph, w, u)
            } else {
                None
            };
            if let Some(close) = closing {
                let flow = scratch.extend_through(close);
                if !emit(L3, [u, v, w], 3, scratch.extended_delivered(), flow) {
                    return false;
                }
            }
        }
    } else if config.build_l3 {
        // Without C2 only the 3-cycles through `u → v` hold rows.
        for t in cycles {
            scratch.reduce_pair(first, &graph.edge(t.vw).interactions);
            let flow = scratch.extend_through(&graph.edge(t.wu).interactions);
            if !emit(L3, [u, v, t.w], 3, scratch.extended_delivered(), flow) {
                return false;
            }
        }
    }
    true
}

/// Builds every row anchored at `u` into `out`, using the chain kernel on
/// the graph's interaction slices directly; `cycles` is working memory for
/// each out-edge's 3-cycles.
fn build_anchor(
    graph: &TemporalGraph,
    config: &TablesConfig,
    u: NodeId,
    scratch: &mut ChainScratch,
    cycles: &mut Vec<Triangle>,
    out: &mut ChunkOut,
    caps: &CapState,
) {
    let starts = [
        out.tables[L2].rows.len(),
        out.tables[L3].rows.len(),
        out.tables[C2].rows.len(),
    ];
    for &e in graph.out_edges(u) {
        if out.hit_cap {
            break;
        }
        let edge = graph.edge(e);
        let v = edge.dst;
        cycles.clear();
        if config.build_l3 && !config.build_c2 {
            for_each_cycle_vertex(graph, u, v, &mut |t| cycles.push(t));
        }
        let first = FirstEdge {
            u,
            v,
            first: &edge.interactions,
            back: if config.build_l2 {
                pair(graph, v, u)
            } else {
                None
            },
            cycles,
        };
        let complete = enumerate_first_edge(
            graph,
            config,
            &first,
            scratch,
            &mut |table, verts, len, delivered, flow| {
                out.try_push(caps, table, verts, len, delivered, flow);
                !out.hit_cap
            },
        );
        if !complete {
            break;
        }
    }
    // Adjacency order is arbitrary; sort this anchor's slice of each table
    // so concatenated chunks come out globally sorted by vertex sequence.
    for (t, &start) in starts.iter().enumerate() {
        out.tables[t].rows[start..].sort_unstable_by(|a, b| a.vertices().cmp(b.vertices()));
    }
    out.publish(caps);
}

/// Builds the tables for an ascending, deduplicated anchor list, optionally
/// fanning chunks of anchors out over the worker pool.
fn build_for_anchor_list(
    graph: &TemporalGraph,
    config: &TablesConfig,
    anchors: &[NodeId],
    parallel: bool,
) -> PathTables {
    let caps = CapState {
        cap: config.max_rows,
        published: [
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        ],
    };
    let run_chunk = |chunk: &&[NodeId]| -> ChunkOut {
        let mut scratch = ChainScratch::new();
        let mut cycles = Vec::new();
        let mut out = ChunkOut::default();
        for &u in *chunk {
            if out.hit_cap {
                break;
            }
            build_anchor(graph, config, u, &mut scratch, &mut cycles, &mut out, &caps);
        }
        out.kernel_calls = scratch.kernel_calls();
        out
    };

    let chunks: Vec<&[NodeId]> = if parallel && anchors.len() > 1 {
        let threads = effective_threads();
        // Several chunks per worker so the atomic-cursor pool can balance
        // skewed anchors; chunks stay contiguous to keep the output sorted.
        let chunk_size = anchors.len().div_ceil(threads * 8).max(1);
        anchors.chunks(chunk_size).collect()
    } else {
        vec![anchors]
    };
    let outputs = parallel_map(&chunks, run_chunk);

    let mut tables = PathTables {
        config: *config,
        ..PathTables::default()
    };
    let mut hit_cap = false;
    let mut merged: [TableBuf; 3] = Default::default();
    for out in &outputs {
        hit_cap |= out.hit_cap;
        tables.kernel_calls += out.kernel_calls;
    }
    for mut out in outputs {
        for (t, merged_buf) in merged.iter_mut().enumerate() {
            let buf = std::mem::take(&mut out.tables[t]);
            if merged_buf.rows.is_empty() {
                *merged_buf = buf;
                continue;
            }
            let base =
                u32::try_from(merged_buf.arena.len()).expect("merged arena exceeds u32 offsets");
            merged_buf.arena.extend_from_slice(&buf.arena);
            merged_buf.rows.extend(buf.rows.into_iter().map(|mut r| {
                r.delivered_start = base
                    .checked_add(r.delivered_start)
                    .expect("merged arena exceeds u32 offsets");
                r
            }));
        }
    }
    for (t, buf) in merged.into_iter().enumerate() {
        let dest = match t {
            L2 => &mut tables.l2,
            L3 => &mut tables.l3,
            _ => &mut tables.c2,
        };
        dest.rows = buf.rows;
        dest.arena = buf.arena;
        if config.max_rows > 0 && dest.rows.len() > config.max_rows {
            hit_cap = true;
            dest.rows.truncate(config.max_rows);
        }
        dest.build_offsets();
    }
    tables.truncated = hit_cap;
    tables
}

/// Memoizing per-anchor table builder (anchor-lazy mode).
///
/// A search that only ever touches a few anchors — serving one suspicious
/// account, expanding one seed — should not pay for precomputing the whole
/// graph. `LazyPathTables` builds each anchor's rows on first request with
/// [`PathTables::for_anchors`] and caches them, so repeated queries are
/// lookups and total kernel work stays proportional to the anchors
/// actually visited.
///
/// The cache does not borrow the graph — queries pass it in — so a live
/// pipeline can alternate [`tin_graph::TemporalGraph::apply`] with queries
/// on one long-lived cache, calling [`LazyPathTables::apply`] after each
/// graph delta to evict exactly the anchors the delta invalidated. Always
/// query with the same (evolving) graph the cache was maintained against.
#[derive(Debug, Default)]
pub struct LazyPathTables {
    config: TablesConfig,
    cache: HashMap<NodeId, PathTables>,
    kernel_calls: u64,
}

impl LazyPathTables {
    /// Creates an empty lazy builder; nothing is computed yet.
    pub fn new(config: TablesConfig) -> Self {
        LazyPathTables {
            config,
            cache: HashMap::new(),
            kernel_calls: 0,
        }
    }

    /// The tables restricted to `anchor`, built over `graph` on first
    /// request and memoized. Out-of-range anchors yield empty tables.
    pub fn tables_for(&mut self, graph: &TemporalGraph, anchor: NodeId) -> &PathTables {
        if !self.cache.contains_key(&anchor) {
            let built = PathTables::for_anchors(graph, &self.config, &[anchor]);
            self.kernel_calls += built.kernel_calls();
            self.cache.insert(anchor, built);
        }
        &self.cache[&anchor]
    }

    /// Maintains the cache after `graph` absorbed a delta — additions and
    /// sliding-window evictions alike: evicts every anchor the delta
    /// invalidated (see [`invalidated_anchors`]) and returns how many
    /// cached entries that dropped. Subsequent queries rebuild the evicted
    /// anchors against the changed graph; untouched entries stay warm.
    pub fn apply(&mut self, graph: &TemporalGraph, applied: &AppliedDelta) -> usize {
        let mut evicted = 0;
        for anchor in invalidated_anchors(graph, applied) {
            evicted += usize::from(self.cache.remove(&anchor).is_some());
        }
        evicted
    }

    /// Number of distinct anchors built so far.
    pub fn built_anchors(&self) -> usize {
        self.cache.len()
    }

    /// Total chain-kernel passes across all memoized builds (repeat queries
    /// add nothing).
    pub fn kernel_calls(&self) -> u64 {
        self.kernel_calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::builder::from_records;
    use tin_graph::TemporalGraph;

    fn sample() -> TemporalGraph {
        from_records([
            ("x", "y", 1, 5.0),
            ("y", "x", 4, 3.0),
            ("x", "z", 2, 2.0),
            ("z", "x", 3, 9.0),
            ("y", "z", 5, 4.0),
            ("z", "w", 6, 1.0),
        ])
    }

    #[test]
    fn l2_rows_and_flows() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        assert!(!t.truncated);
        // 2-hop cycles: x<->y (both anchors) and x<->z (both anchors).
        assert_eq!(t.l2.len(), 4);
        let x = g.node_by_name("x").unwrap();
        let rows = t.l2.rows_for(x);
        assert_eq!(rows.len(), 2);
        // x->y->x: y receives 5 at time 1, returns min(3,5)=3 at time 4.
        let via_y = rows
            .iter()
            .find(|r| r.vertices()[1] == g.node_by_name("y").unwrap())
            .unwrap();
        assert_eq!(via_y.flow, 3.0);
        // x->z->x: z receives 2 at time 2, returns min(9,2)=2 at time 3.
        let via_z = rows
            .iter()
            .find(|r| r.vertices()[1] == g.node_by_name("z").unwrap())
            .unwrap();
        assert_eq!(via_z.flow, 2.0);
    }

    #[test]
    fn l3_rows_and_flows() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        // 3-hop cycles: x->y->z->x (and rotations y->z->x->y, z->x->y->z).
        assert_eq!(t.l3.len(), 3);
        let x = g.node_by_name("x").unwrap();
        let rows = t.l3.rows_for(x);
        assert_eq!(rows.len(), 1);
        // x->y->z->x: y gets 5@1, forwards min(4,5)=4@5, z forwards nothing
        // (its only return interaction is at time 3 < 5)... so flow 0.
        assert_eq!(rows[0].flow, 0.0);
        assert!(t.l3.delivered(&rows[0]).is_empty());
    }

    #[test]
    fn c2_rows_are_chains_over_distinct_vertices() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        assert!(t.c2.iter().all(|r| {
            let v = r.vertices();
            v.len() == 3 && v[0] != v[1] && v[1] != v[2] && v[0] != v[2]
        }));
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        let z = g.node_by_name("z").unwrap();
        let xyz =
            t.c2.iter()
                .find(|r| r.vertices() == [x, y, z])
                .expect("x->y->z chain present");
        // y receives 5@1 and forwards min(4,5)=4@5.
        assert_eq!(xyz.flow, 4.0);
        let delivered = t.c2.delivered(xyz);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].time, 5);
        assert_eq!(delivered[0].quantity, 4.0);
    }

    #[test]
    fn stored_parts_roundtrip_is_row_identical() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        assert!(!t.is_partial());
        let dump = |table: &PathTable| {
            table
                .iter()
                .map(|r| (r.vertices().to_vec(), r.flow, table.delivered(r).to_vec()))
                .collect::<Vec<_>>()
        };
        let restore = |rows: &[(Vec<NodeId>, Quantity, Vec<Interaction>)]| {
            PathTable::from_row_contents(
                rows.iter()
                    .map(|(v, f, d)| (v.as_slice(), *f, d.as_slice())),
            )
            .unwrap()
        };
        let (l2, l3, c2) = (dump(&t.l2), dump(&t.l3), dump(&t.c2));
        let back = PathTables::from_stored_parts(
            *t.config(),
            t.truncated,
            restore(&l2),
            restore(&l3),
            restore(&c2),
        );
        assert_eq!(t.first_row_divergence(&back), None);
        assert_eq!(back.kernel_calls(), 0);
        assert_eq!(back.l2.garbage_len(), 0);
        // The restored set keeps working as a live table: rows_for and the
        // anchor index came back with it.
        let x = g.node_by_name("x").unwrap();
        assert_eq!(back.l2.rows_for(x).len(), t.l2.rows_for(x).len());
    }

    #[test]
    fn from_row_contents_rejects_malformed_input() {
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        // Too few vertices.
        let err = PathTable::from_row_contents([(&[a][..], 1.0, &[][..])]).unwrap_err();
        assert!(err.contains("vertices"));
        // Out of order (and duplicate) sequences.
        let rows = [(&[b, c][..], 1.0, &[][..]), (&[a, b][..], 1.0, &[][..])];
        let err = PathTable::from_row_contents(rows).unwrap_err();
        assert!(err.contains("not strictly after"));
        let dup = [(&[a, b][..], 1.0, &[][..]), (&[a, b][..], 2.0, &[][..])];
        assert!(PathTable::from_row_contents(dup).is_err());
        // Valid two-row table round-trips content.
        let del = [Interaction::new(3, 2.0)];
        let ok = PathTable::from_row_contents([
            (&[a, b][..], 2.0, &del[..]),
            (&[b, a][..], 0.0, &[][..]),
        ])
        .unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.delivered(&ok.rows()[0]), &del[..]);
        assert_eq!(ok.rows_for(a).len(), 1);
    }

    #[test]
    fn tables_can_be_selectively_built() {
        let g = sample();
        let cfg = TablesConfig {
            build_c2: false,
            ..TablesConfig::default()
        };
        let t = PathTables::build(&g, &cfg);
        assert!(t.c2.is_empty());
        assert!(!t.l2.is_empty());
        assert_eq!(t.row_count(), t.l2.len() + t.l3.len());
    }

    #[test]
    fn row_cap_marks_truncation() {
        let g = sample();
        let cfg = TablesConfig {
            max_rows: 1,
            ..TablesConfig::default()
        };
        let t = PathTables::build(&g, &cfg);
        assert!(t.truncated);
        assert!(t.l2.len() <= 1);
    }

    #[test]
    fn exactly_cap_rows_is_not_truncation() {
        let g = sample();
        // The sample has 4 L2, 3 L3 and 8 C2 rows; a cap of 8 fits all.
        let full = PathTables::build(&g, &TablesConfig::default());
        let capped = PathTables::build(
            &g,
            &TablesConfig {
                max_rows: full.c2.len().max(full.l2.len()).max(full.l3.len()),
                ..TablesConfig::default()
            },
        );
        assert!(!capped.truncated);
        assert_eq!(capped.row_count(), full.row_count());
    }

    #[test]
    fn rows_for_unknown_anchor_is_empty() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        let w = g.node_by_name("w").unwrap();
        assert!(t.l2.rows_for(w).is_empty());
    }

    #[test]
    fn serial_and_parallel_builds_agree() {
        let g = sample();
        let cfg = TablesConfig::default();
        let serial = PathTables::build_serial(&g, &cfg);
        let parallel = PathTables::build_parallel(&g, &cfg);
        assert_eq!(serial.truncated, parallel.truncated);
        for (a, b) in [
            (&serial.l2, &parallel.l2),
            (&serial.l3, &parallel.l3),
            (&serial.c2, &parallel.c2),
        ] {
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(b.iter()) {
                assert_eq!(ra.vertices(), rb.vertices());
                assert_eq!(ra.flow, rb.flow);
                assert_eq!(a.delivered(ra), b.delivered(rb));
            }
        }
    }

    #[test]
    fn for_anchors_matches_the_full_build_slice() {
        let g = sample();
        let cfg = TablesConfig::default();
        let full = PathTables::build(&g, &cfg);
        let x = g.node_by_name("x").unwrap();
        // Duplicate anchors are deduplicated.
        let subset = PathTables::for_anchors(&g, &cfg, &[x, x]);
        assert_eq!(subset.l2.len(), full.l2.rows_for(x).len());
        assert_eq!(subset.l3.len(), full.l3.rows_for(x).len());
        assert_eq!(subset.c2.len(), full.c2.rows_for(x).len());
        for (sub_table, full_table) in [
            (&subset.l2, &full.l2),
            (&subset.l3, &full.l3),
            (&subset.c2, &full.c2),
        ] {
            for (rs, rf) in sub_table.iter().zip(full_table.rows_for(x)) {
                assert_eq!(rs.vertices(), rf.vertices());
                assert_eq!(rs.flow, rf.flow);
                assert_eq!(sub_table.delivered(rs), full_table.delivered(rf));
            }
        }
        // Other anchors contribute nothing.
        let y = g.node_by_name("y").unwrap();
        assert!(subset.l2.rows_for(y).is_empty());
    }

    #[test]
    fn anchors_iterator_lists_anchors_with_rows() {
        let g = sample();
        let t = PathTables::build(&g, &TablesConfig::default());
        let anchors: Vec<NodeId> = t.l2.anchors().collect();
        let x = g.node_by_name("x").unwrap();
        let w = g.node_by_name("w").unwrap();
        assert!(anchors.contains(&x));
        assert!(!anchors.contains(&w));
        assert!(anchors.windows(2).all(|p| p[0] < p[1]));
        for &a in &anchors {
            assert!(!t.l2.rows_for(a).is_empty());
        }
    }

    #[test]
    fn lazy_tables_memoize_and_match_eager_rows() {
        let g = sample();
        let cfg = TablesConfig::default();
        let full = PathTables::build(&g, &cfg);
        let mut lazy = LazyPathTables::new(cfg);
        let x = g.node_by_name("x").unwrap();
        let first_calls = {
            let t = lazy.tables_for(&g, x);
            assert_eq!(t.l2.len(), full.l2.rows_for(x).len());
            assert_eq!(t.c2.len(), full.c2.rows_for(x).len());
            lazy.kernel_calls()
        };
        // A repeat query is a cache hit: no new kernel work.
        let _ = lazy.tables_for(&g, x);
        assert_eq!(lazy.kernel_calls(), first_calls);
        assert_eq!(lazy.built_anchors(), 1);
    }

    /// Asserts `got` and `want` carry identical rows (vertices, flows,
    /// delivered profiles) in identical order, table by table.
    fn assert_row_identical(got: &PathTables, want: &PathTables) {
        assert_eq!(got.first_row_divergence(want), None);
    }

    #[test]
    fn incremental_apply_matches_full_rebuild() {
        use tin_graph::{GraphDelta, Interaction, Node};
        let mut g = sample();
        let cfg = TablesConfig::default();
        let mut tables = PathTables::build_serial(&g, &cfg);
        let x = g.node_by_name("x").unwrap();
        let w = g.node_by_name("w").unwrap();
        // A batch that reshapes an existing edge, closes a new cycle through
        // a brand-new vertex, and touches a previously row-less anchor.
        let delta = GraphDelta::new(
            4,
            vec![Node { name: "q".into() }],
            vec![
                (x, w, Interaction::new(7, 2.0)),
                (w, NodeId(4), Interaction::new(8, 3.0)),
                (NodeId(4), x, Interaction::new(9, 1.0)),
            ],
        )
        .unwrap();
        let applied = g.apply(&delta).unwrap();
        let update = tables.apply(&g, &applied);
        assert!(!update.rebuilt);
        assert!(update.refreshed_groups > 0);
        assert_row_identical(&tables, &PathTables::build_serial(&g, &cfg));
    }

    #[test]
    fn incremental_apply_leaves_untouched_anchors_alone() {
        use tin_graph::{GraphDelta, Interaction};
        // Two disconnected 2-cycles; appending to one must not re-run the
        // kernel for the other.
        let mut g = from_records([
            ("a", "b", 1, 5.0),
            ("b", "a", 2, 3.0),
            ("c", "d", 1, 4.0),
            ("d", "c", 2, 2.0),
        ]);
        let cfg = TablesConfig::default();
        let mut tables = PathTables::build_serial(&g, &cfg);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let delta = GraphDelta::new(4, vec![], vec![(a, b, Interaction::new(3, 1.0))]).unwrap();
        let applied = g.apply(&delta).unwrap();
        let update = tables.apply(&g, &applied);
        assert!(!update.rebuilt);
        // Exactly two row groups: the `[a, b, *]` block and the `[b, a]`
        // closing cycle; the disconnected c/d cycle is never revisited.
        assert_eq!(update.refreshed_groups, 2);
        assert_row_identical(&tables, &PathTables::build_serial(&g, &cfg));
    }

    #[test]
    fn repeated_small_appends_compact_the_arena() {
        use tin_graph::{GraphDelta, Interaction};
        let mut g = from_records([("a", "b", 1, 5.0), ("b", "a", 2, 3.0)]);
        let cfg = TablesConfig::default();
        let mut tables = PathTables::build_serial(&g, &cfg);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        for t in 0..200 {
            let delta =
                GraphDelta::new(2, vec![], vec![(a, b, Interaction::new(3 + t, 1.0))]).unwrap();
            let applied = g.apply(&delta).unwrap();
            tables.apply(&g, &applied);
        }
        let rebuilt = PathTables::build_serial(&g, &cfg);
        assert_row_identical(&tables, &rebuilt);
        // Garbage from 200 replacements was compacted away: the live arena
        // is within a constant factor of a fresh build's.
        assert!(
            tables.l2.arena.len() <= 2 * rebuilt.l2.arena.len().max(1),
            "arena grew unboundedly: {} vs fresh {}",
            tables.l2.arena.len(),
            rebuilt.l2.arena.len()
        );
    }

    #[test]
    fn apply_on_truncated_tables_falls_back_to_rebuild() {
        use tin_graph::{GraphDelta, Interaction};
        let mut g = sample();
        let cfg = TablesConfig {
            max_rows: 1,
            ..TablesConfig::default()
        };
        let mut tables = PathTables::build_serial(&g, &cfg);
        assert!(tables.truncated);
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        let delta = GraphDelta::new(4, vec![], vec![(x, y, Interaction::new(9, 1.0))]).unwrap();
        let applied = g.apply(&delta).unwrap();
        let update = tables.apply(&g, &applied);
        assert!(update.rebuilt);
        assert!(tables.truncated, "cap still exceeded after the rebuild");
    }

    #[test]
    #[should_panic(expected = "for_anchors subset")]
    fn apply_on_an_anchor_subset_panics() {
        use tin_graph::{GraphDelta, Interaction};
        let mut g = sample();
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        let mut subset = PathTables::for_anchors(&g, &TablesConfig::default(), &[x]);
        let delta = GraphDelta::new(4, vec![], vec![(x, y, Interaction::new(9, 1.0))]).unwrap();
        let applied = g.apply(&delta).unwrap();
        let _ = subset.apply(&g, &applied);
    }

    #[test]
    fn lazy_apply_evicts_only_invalidated_anchors() {
        use tin_graph::{GraphDelta, Interaction};
        let mut g = from_records([
            ("a", "b", 1, 5.0),
            ("b", "a", 2, 3.0),
            ("c", "d", 1, 4.0),
            ("d", "c", 2, 2.0),
        ]);
        let cfg = TablesConfig::default();
        let mut lazy = LazyPathTables::new(cfg);
        for v in g.node_ids() {
            let _ = lazy.tables_for(&g, v);
        }
        assert_eq!(lazy.built_anchors(), 4);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let delta = GraphDelta::new(4, vec![], vec![(a, b, Interaction::new(3, 1.0))]).unwrap();
        let applied = g.apply(&delta).unwrap();
        let evicted = lazy.apply(&g, &applied);
        assert_eq!(evicted, 2, "exactly a and b drop out");
        assert_eq!(lazy.built_anchors(), 2);
        // Re-querying an evicted anchor rebuilds it against the grown graph.
        let full = PathTables::build_serial(&g, &cfg);
        let t = lazy.tables_for(&g, a);
        assert_eq!(t.l2.len(), full.l2.rows_for(a).len());
        let row = &t.l2.rows_for(a)[0];
        let want = &full.l2.rows_for(a)[0];
        assert_eq!(row.flow, want.flow);
    }

    #[test]
    fn lazy_single_anchor_does_anchor_local_work() {
        // A graph with one modest anchor and a large dense "elsewhere":
        // building tables for the anchor alone must not touch the dense part.
        let mut records: Vec<(String, String, i64, f64)> = Vec::new();
        let mut t = 0i64;
        let mut push = |a: String, b: String, records: &mut Vec<(String, String, i64, f64)>| {
            t += 1;
            records.push((a, b, t, 1.0));
        };
        // The anchor `a` has 3 successors, each with small out-degree.
        for i in 0..3 {
            push("a".into(), format!("s{i}"), &mut records);
            push(format!("s{i}"), "a".into(), &mut records);
            push(format!("s{i}"), format!("s{}", (i + 1) % 3), &mut records);
        }
        // A 14-vertex near-clique nowhere near `a`.
        for i in 0..14 {
            for j in 0..14 {
                if i != j {
                    push(format!("d{i}"), format!("d{j}"), &mut records);
                }
            }
        }
        let g = from_records(
            records
                .iter()
                .map(|(a, b, t, q)| (a.as_str(), b.as_str(), *t, *q)),
        );
        let cfg = TablesConfig::default();
        let full = PathTables::build_serial(&g, &cfg);
        let a = g.node_by_name("a").unwrap();
        let mut lazy = LazyPathTables::new(cfg);
        let _ = lazy.tables_for(&g, a);
        // O(deg²) bound: each out-edge (u,v) costs ≤ 1 L2 pass plus ≤ 2
        // passes (prefix + closing) per closing vertex w of v.
        let bound: u64 = g
            .out_neighbors(a)
            .map(|v| 1 + 2 * g.out_degree(v) as u64)
            .sum();
        assert!(
            lazy.kernel_calls() <= bound,
            "lazy build did {} kernel passes, O(deg²) bound is {bound}",
            lazy.kernel_calls()
        );
        // ... while the eager build pays for the dense region too.
        assert!(
            full.kernel_calls() > 10 * lazy.kernel_calls(),
            "full build ({} passes) should dwarf the lazy build ({} passes)",
            full.kernel_calls(),
            lazy.kernel_calls()
        );
    }
}
