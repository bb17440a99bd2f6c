//! Binary snapshots of the live state and the manifests that commit them.
//!
//! ## Snapshot file
//!
//! `snapshot-<seq>.snap` is a little-endian binary dump:
//!
//! ```text
//! magic "TINSNAP1" · version u32
//! journal position: segment u64 · offset u64 · frames u64
//! graph:  node count + names · edge count + per-edge
//!         (src, dst, interaction count, (time i64, quantity f64-bits)*)
//!         — tombstoned slots included, identifiers stay stable —
//!         · frontier (presence byte + i64)
//! tables: config (l2/l3/c2 flags, max_rows) · truncated flag ·
//!         3 tables × (row count, arena total, then one column per field:
//!         vertex counts u8*, vertices u32*, flow bits f64*,
//!         delivered counts u32*, delivered profiles (time, quantity bits)*)
//! trailing CRC-32 over everything above
//! ```
//!
//! Quantities are stored as `f64::to_bits`, so every value (infinities
//! included) round-trips bit-exactly. Table rows are dumped as *content*
//! (vertices, flow, delivered profile) in columnar blocks — restart latency
//! at standard scale is dominated by per-row decode overhead, and columns
//! turn that into bulk slice reads. The restore repacks the arena and
//! rebuilds the offset index via [`tin_patterns::PathTableBuilder`], which
//! resets garbage accounting to zero — row-identical under
//! [`tin_patterns::PathTables::first_row_divergence`], which never inspects
//! arena layout.
//!
//! ## Loading
//!
//! A load checks the file's length and both CRCs, decodes the header and
//! the graph, and checks the table section in place: every row the
//! builder would refuse (a vertex count other than 2 or 3, a row not
//! strictly after its predecessor, a profile past the arena or past the
//! `u32` offsets, an arena the rows do not use up) is refused there, with
//! the reason the decode would give. One reader serves the check and the
//! decode. Recovery stops at the check and decodes the tables only when
//! it keeps them; [`load_snapshot`] decodes them at once.
//!
//! ## Commit protocol
//!
//! Both the snapshot and its manifest are written to a `.tmp` name, fsynced,
//! and renamed into place; the *manifest* rename is the commit point. The
//! manifest (`manifest-<seq>.mf`) records the snapshot's name, byte length,
//! CRC, and the journal position the snapshot covers. A crash between the
//! two renames leaves a snapshot without a manifest — invisible to
//! recovery, exactly as if the snapshot had never been attempted.

use crate::crc::{crc32, Crc32};
use crate::error::DurabilityError;
use crate::journal::{sync_dir, JournalPos};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use tin_graph::{Edge, Interaction, Node, NodeId, TemporalGraph};
use tin_patterns::{PathTable, PathTableBuilder, PathTables, TablesConfig};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TINSNAP1";
const SNAPSHOT_VERSION: u32 = 1;

/// Path of snapshot `seq` under `dir`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:06}.snap"))
}

/// Path of manifest `seq` under `dir`.
pub fn manifest_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("manifest-{seq:06}.mf"))
}

/// Lists the manifests under `dir`, sorted by sequence number (ascending).
pub fn list_manifests(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(DurabilityError::from_io(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| DurabilityError::from_io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("manifest-")
            .and_then(|s| s.strip_suffix(".mf"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_unstable();
    Ok(found)
}

// ---------------------------------------------------------------------------
// Little-endian binary primitives.
// ---------------------------------------------------------------------------

struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    fn new() -> Self {
        BinWriter { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "unexpected end of snapshot at byte {} (wanted {n} more)",
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u64()?;
        // A corrupt count must not trigger an absurd allocation.
        if n > self.buf.len() as u64 {
            return Err(format!("{what} count {n} exceeds the snapshot size"));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.len("string byte")?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
    }
    fn done(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the snapshot body",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------------

fn serialize(graph: &TemporalGraph, tables: &PathTables, pos: JournalPos, frames: u64) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.buf.extend_from_slice(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u64(pos.segment);
    w.u64(pos.offset);
    w.u64(frames);
    // Graph: full tables, tombstones included, so identifiers stay stable.
    w.u64(graph.node_count() as u64);
    for node in graph.nodes() {
        w.str(&node.name);
    }
    w.u64(graph.edge_count() as u64);
    for edge in graph.edges() {
        w.u32(edge.src.0);
        w.u32(edge.dst.0);
        w.u64(edge.interactions.len() as u64);
        for i in &edge.interactions {
            w.i64(i.time);
            w.f64(i.quantity);
        }
    }
    match graph.frontier() {
        Some(f) => {
            w.u8(1);
            w.i64(f);
        }
        None => w.u8(0),
    }
    // Tables: configuration, truncation verdict, then row contents.
    let config = tables.config();
    w.u8(config.build_l2 as u8);
    w.u8(config.build_l3 as u8);
    w.u8(config.build_c2 as u8);
    w.u64(config.max_rows as u64);
    w.u8(tables.truncated as u8);
    // Tables are columnar: one contiguous block per field (vertex counts,
    // vertices, flows, delivered lengths, delivered profiles). Restore at
    // standard scale is dominated by per-row decode overhead, not data
    // volume (C2 runs to 10^5 rows); columns decode as bulk slices.
    for table in [&tables.l2, &tables.l3, &tables.c2] {
        w.u64(table.len() as u64);
        // Total delivered length up front so restore can size the arena in
        // one allocation instead of growing it row by row.
        let arena_total: u64 = table.iter().map(|r| table.delivered(r).len() as u64).sum();
        w.u64(arena_total);
        for row in table.iter() {
            w.u8(row.vertices().len() as u8);
        }
        for row in table.iter() {
            for v in row.vertices() {
                w.u32(v.0);
            }
        }
        for row in table.iter() {
            w.f64(row.flow);
        }
        for row in table.iter() {
            w.u32(table.delivered(row).len() as u32);
        }
        for row in table.iter() {
            for i in table.delivered(row) {
                w.i64(i.time);
                w.f64(i.quantity);
            }
        }
    }
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

/// Decodes a snapshot file up to its tables: the header and the graph
/// section are decoded and the graph validated, the table section is
/// checked in place ([`read_table`] without building) and left in the
/// returned [`StoredTables`]. Checksum verification is
/// [`open_snapshot`]'s job — this decoder is still bounds-checked and
/// panic-free on arbitrary bytes, so a caller bug in the verification
/// order degrades to a decode error, never a panic.
fn deserialize(bytes: Vec<u8>) -> Result<LoadedSnapshot, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err("file too short to be a snapshot".into());
    }
    let mut r = BinReader::new(&bytes[..bytes.len() - 4]);
    if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".into());
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(format!("unsupported snapshot version {version}"));
    }
    let pos = JournalPos {
        segment: r.u64()?,
        offset: r.u64()?,
    };
    let frames = r.u64()?;
    let node_count = r.len("node")?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(Node { name: r.str()? });
    }
    let edge_count = r.len("edge")?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let src = NodeId(r.u32()?);
        let dst = NodeId(r.u32()?);
        let n = r.len("interaction")?;
        let mut interactions = Vec::with_capacity(n);
        for _ in 0..n {
            let time = r.i64()?;
            let quantity = r.f64()?;
            interactions.push(Interaction::new(time, quantity));
        }
        edges.push(Edge {
            src,
            dst,
            interactions,
        });
    }
    let frontier = match r.u8()? {
        0 => None,
        1 => Some(r.i64()?),
        t => return Err(format!("bad frontier tag {t}")),
    };
    let config = TablesConfig {
        build_l2: r.u8()? != 0,
        build_l3: r.u8()? != 0,
        build_c2: r.u8()? != 0,
        // Not through `len`: max_rows is a cap, not an element count, and
        // legitimately exceeds the snapshot size (default 2M).
        max_rows: usize::try_from(r.u64()?).map_err(|_| "max_rows overflows usize")?,
    };
    let truncated = r.u8()? != 0;
    let rows_at = r.pos;
    for label in TABLE_LABELS {
        read_table(&mut r, label, false)?;
    }
    r.done()?;
    // `from_stored_parts` rebuilds adjacency and index from the edge table
    // and validates; any failure there is data corruption by construction.
    let graph = TemporalGraph::from_stored_parts(nodes, edges, frontier)
        .map_err(|e| format!("graph state is corrupt: {e}"))?;
    Ok(LoadedSnapshot {
        graph,
        pos,
        frames,
        tables: StoredTables {
            bytes,
            rows_at,
            config,
            truncated,
        },
    })
}

/// The stored tables in file order, as errors name them.
const TABLE_LABELS: [&str; 3] = ["L2", "L3", "C2"];

/// Reads one stored table at `r`; `label` names it in errors.
///
/// Without `build` this is the check ([`check_rows`]): the columns are
/// read in place and nothing is allocated. With `build`, each row streams
/// into a [`PathTableBuilder`], which refuses the rows the check refuses,
/// for the same reasons, and the finished table is returned: the decode
/// of a table that passed the check cannot fail.
fn read_table(
    r: &mut BinReader<'_>,
    label: &str,
    build: bool,
) -> Result<Option<PathTable>, String> {
    let rows = r.len("row")?;
    // Arena interactions are 16 bytes each in the snapshot, so this count
    // is bounded by the remaining bytes and safe to reserve.
    let arena_total = r.len("arena")?;
    // Columns are taken as whole slices up front — every bounds check after
    // `take` succeeds is against an exact precomputed block size, so the
    // per-row loops below run cursor arithmetic, not reader calls.
    let nverts_col = r.take(rows)?;
    let total_verts: usize = nverts_col.iter().map(|&b| b as usize).sum();
    let verts_col = r.take(total_verts.checked_mul(4).ok_or("vertex count overflows")?)?;
    let flow_col = r.take(rows.checked_mul(8).ok_or("row count overflows")?)?;
    let ndel_col = r.take(rows.checked_mul(4).ok_or("row count overflows")?)?;
    let deliv_col = r.take(
        arena_total
            .checked_mul(16)
            .ok_or("delivered count overflows")?,
    )?;
    if !build {
        check_rows(label, nverts_col, verts_col, ndel_col, arena_total)?;
        return Ok(None);
    }
    // Each row streams straight into the builder — one pass, no
    // intermediate pools: C2 can run to 10^5 rows, and this decode is the
    // dominant cost of a restart that keeps the snapshot's tables.
    let mut builder = PathTableBuilder::with_capacity(rows);
    builder.reserve_arena(arena_total);
    let mut verts = [NodeId(0); 3];
    let mut vpos = 0usize;
    let mut dpos = 0usize;
    for (i, &nv) in nverts_col.iter().enumerate() {
        let nverts = nv as usize;
        if nverts > verts.len() {
            return Err(format!("{label} row {i} has {nverts} vertices"));
        }
        let vbytes = &verts_col[vpos..vpos + nverts * 4];
        vpos += nverts * 4;
        for (slot, c) in verts.iter_mut().zip(vbytes.chunks_exact(4)) {
            *slot = NodeId(u32::from_le_bytes(c.try_into().expect("4 bytes")));
        }
        let fbytes: [u8; 8] = flow_col[i * 8..i * 8 + 8].try_into().expect("8 bytes");
        let flow = f64::from_bits(u64::from_le_bytes(fbytes));
        let nbytes: [u8; 4] = ndel_col[i * 4..i * 4 + 4].try_into().expect("4 bytes");
        let ndel = u32::from_le_bytes(nbytes) as usize;
        let dend = dpos
            .checked_add(ndel * 16)
            .filter(|&e| e <= deliv_col.len())
            .ok_or_else(|| format!("{label} row {i} delivered profile overruns arena"))?;
        let profile = deliv_col[dpos..dend].chunks_exact(16).map(|c| {
            let time = i64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let quantity = f64::from_bits(u64::from_le_bytes(c[8..].try_into().expect("8 bytes")));
            Interaction::new(time, quantity)
        });
        dpos = dend;
        builder
            .push_profile(&verts[..nverts], flow, profile)
            .map_err(|e| format!("{label} table is malformed: {e}"))?;
    }
    if dpos != deliv_col.len() {
        return Err(format!(
            "{label} arena length mismatch (declared {arena_total}, rows use {})",
            dpos / 16
        ));
    }
    Ok(Some(builder.finish()))
}

/// The check of one stored table's rows, given its vertex-count, vertex
/// and delivered-count columns and its declared arena length: each row
/// must have 2 or 3 vertices, a vertex sequence strictly after the row
/// before it, and a delivered profile inside the arena whose offsets fit
/// `u32`, and the rows must use up the arena. Each check runs where the
/// decode's runs, and fails with the decode's reason: its own for a
/// vertex count over 3 and a profile past the arena, the
/// [`PathTableBuilder`]'s for the rest.
fn check_rows(
    label: &str,
    nverts_col: &[u8],
    verts_col: &[u8],
    ndel_col: &[u8],
    arena_total: usize,
) -> Result<(), String> {
    let vertex = |at: usize| u32::from_le_bytes(verts_col[at..at + 4].try_into().expect("4 bytes"));
    let row = |at: usize, n: usize| -> Vec<NodeId> {
        (0..n).map(|k| NodeId(vertex(at + 4 * k))).collect()
    };
    let malformed = |reason: String| format!("{label} table is malformed: {reason}");
    // Each row's vertex sequence as one integer that orders as the
    // sequence does: each vertex plus one in 33 bits, from the top, and 0
    // where a shorter row has no vertex, so a prefix sorts first.
    let mut prev_key = 0u128;
    let mut prev_at = 0usize;
    let mut prev_len = 0usize;
    let mut vpos = 0usize;
    let mut dpos = 0usize;
    for (i, (&nv, nbytes)) in nverts_col.iter().zip(ndel_col.chunks_exact(4)).enumerate() {
        let nverts = nv as usize;
        if nverts > 3 {
            return Err(format!("{label} row {i} has {nverts} vertices"));
        }
        let ndel = u32::from_le_bytes(nbytes.try_into().expect("4 bytes"));
        let dend = dpos
            .checked_add(ndel as usize)
            .filter(|&e| e <= arena_total)
            .ok_or_else(|| format!("{label} row {i} delivered profile overruns arena"))?;
        if nverts < 2 {
            return Err(malformed(format!(
                "row {i} has {nverts} vertices (expected 2 or 3)"
            )));
        }
        let mut key = 0u128;
        for k in 0..3 {
            let v = if k < nverts {
                vertex(vpos + 4 * k) as u128 + 1
            } else {
                0
            };
            key = key << 33 | v;
        }
        if key <= prev_key {
            return Err(malformed(format!(
                "row {i} ({:?}) is not strictly after its predecessor ({:?})",
                row(vpos, nverts),
                row(prev_at, prev_len)
            )));
        }
        // A row's arena offsets are its start and its length, which both
        // fit `u32` when its end does.
        if dend > u32::MAX as usize {
            return Err(malformed(format!(
                "row {i} overflows the arena's u32 offsets"
            )));
        }
        (prev_key, prev_at, prev_len) = (key, vpos, nverts);
        vpos += 4 * nverts;
        dpos = dend;
    }
    if dpos != arena_total {
        return Err(format!(
            "{label} arena length mismatch (declared {arena_total}, rows use {dpos})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Write + commit.
// ---------------------------------------------------------------------------

/// Writes snapshot `seq` of `(graph, tables)` covering the journal up to
/// `pos` (`frames` frames), committing it atomically: snapshot tmp → fsync →
/// rename, then manifest tmp → fsync → rename (the commit point), then a
/// directory fsync. Returns the manifest path.
pub fn write_snapshot(
    dir: &Path,
    seq: u64,
    graph: &TemporalGraph,
    tables: &PathTables,
    pos: JournalPos,
    frames: u64,
) -> Result<PathBuf, DurabilityError> {
    fs::create_dir_all(dir).map_err(|e| DurabilityError::from_io(dir, e))?;
    let bytes = serialize(graph, tables, pos, frames);
    let snap = snapshot_path(dir, seq);
    write_atomic(dir, &snap, &bytes)?;
    let manifest_body = format!(
        "tin-snapshot-manifest v1\nsnapshot {}\nbytes {}\ncrc {:#010x}\nsegment {}\noffset {}\nframes {}\n",
        snap.file_name().expect("snapshot file name").to_string_lossy(),
        bytes.len(),
        crc32(&bytes),
        pos.segment,
        pos.offset,
        frames,
    );
    let manifest = manifest_path(dir, seq);
    write_atomic(dir, &manifest, manifest_body.as_bytes())?;
    Ok(manifest)
}

/// Temp-file + fsync + rename + directory fsync.
fn write_atomic(dir: &Path, target: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let tmp = target.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| DurabilityError::from_io(&tmp, e))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| DurabilityError::from_io(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, target).map_err(|e| DurabilityError::from_io(target, e))?;
    sync_dir(dir)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Load.
// ---------------------------------------------------------------------------

/// Parsed manifest contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Snapshot file name (relative to the durable directory).
    pub snapshot: String,
    /// Expected snapshot byte length.
    pub bytes: u64,
    /// Expected CRC-32 of the whole snapshot file.
    pub crc: u32,
    /// Journal position the snapshot covers.
    pub pos: JournalPos,
    /// Frames applied up to that position.
    pub frames: u64,
}

/// Parses a manifest file. Any malformation (torn write, wrong header) is a
/// [`DurabilityError::CorruptSnapshot`] naming the manifest.
pub fn read_manifest(path: &Path) -> Result<Manifest, DurabilityError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let corrupt = |reason: String| DurabilityError::CorruptSnapshot {
        file: name.clone(),
        reason,
    };
    let text =
        fs::read_to_string(path).map_err(|e| corrupt(format!("unreadable manifest: {e}")))?;
    let mut lines = text.lines();
    if lines.next() != Some("tin-snapshot-manifest v1") {
        return Err(corrupt("bad manifest header".into()));
    }
    let mut snapshot = None;
    let mut bytes = None;
    let mut crc = None;
    let mut segment = None;
    let mut offset = None;
    let mut frames = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once(' ') else {
            return Err(corrupt(format!("malformed manifest line `{line}`")));
        };
        match key {
            "snapshot" => snapshot = Some(value.to_string()),
            "bytes" => bytes = value.parse::<u64>().ok(),
            "crc" => {
                crc = value
                    .strip_prefix("0x")
                    .and_then(|v| u32::from_str_radix(v, 16).ok())
            }
            "segment" => segment = value.parse::<u64>().ok(),
            "offset" => offset = value.parse::<u64>().ok(),
            "frames" => frames = value.parse::<u64>().ok(),
            other => return Err(corrupt(format!("unknown manifest key `{other}`"))),
        }
    }
    match (snapshot, bytes, crc, segment, offset, frames) {
        (Some(snapshot), Some(bytes), Some(crc), Some(segment), Some(offset), Some(frames)) => {
            Ok(Manifest {
                snapshot,
                bytes,
                crc,
                pos: JournalPos { segment, offset },
                frames,
            })
        }
        _ => Err(corrupt("manifest is missing fields (torn write?)".into())),
    }
}

/// Loads and fully verifies the snapshot a manifest points at: byte length
/// and CRC against the manifest, then the snapshot's own trailing CRC, then
/// semantic validation of the decoded graph, then the decoded tables.
/// Recovery loads the same way but decodes the tables only when it keeps
/// them; this is that load (`open_snapshot`) followed by the decode.
pub fn load_snapshot(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(TemporalGraph, PathTables, JournalPos, u64), DurabilityError> {
    let LoadedSnapshot {
        graph,
        pos,
        frames,
        tables,
    } = open_snapshot(dir, manifest)?;
    Ok((graph, tables.decode(), pos, frames))
}

/// A snapshot loaded up to its tables, by [`open_snapshot`].
#[derive(Debug)]
pub(crate) struct LoadedSnapshot {
    /// The graph, decoded and validated.
    pub(crate) graph: TemporalGraph,
    /// The journal position the snapshot covers.
    pub(crate) pos: JournalPos,
    /// Frames applied up to that position.
    pub(crate) frames: u64,
    /// The table section, checked but not decoded.
    pub(crate) tables: StoredTables,
}

/// A snapshot's table section, checked in place but not decoded. It holds
/// the snapshot's bytes until [`StoredTables::decode`] builds the tables
/// from them; dropping it instead frees them unread.
#[derive(Debug)]
pub(crate) struct StoredTables {
    /// The whole snapshot file.
    bytes: Vec<u8>,
    /// Where the first table's columns begin in `bytes`.
    rows_at: usize,
    config: TablesConfig,
    truncated: bool,
}

impl StoredTables {
    /// The configuration the tables were built under.
    pub(crate) fn config(&self) -> &TablesConfig {
        &self.config
    }

    /// Builds the tables from the checked section and frees the snapshot's
    /// bytes.
    pub(crate) fn decode(self) -> PathTables {
        let mut r = BinReader::new(&self.bytes[..self.bytes.len() - 4]);
        r.pos = self.rows_at;
        let [l2, l3, c2] = TABLE_LABELS.map(|label| {
            read_table(&mut r, label, true)
                .ok()
                .flatten()
                .expect("the table section was checked when the snapshot loaded")
        });
        PathTables::from_stored_parts(self.config, self.truncated, l2, l3, c2)
    }
}

/// Loads the snapshot a manifest points at, all but its tables: byte
/// length and CRC against the manifest, then the snapshot's own trailing
/// CRC, then the graph decoded and validated and the table section checked
/// in place, then the journal position against the manifest's. Every
/// snapshot [`load_snapshot`] refuses is refused here, for the same
/// reason; the table section's check covers everything its decode relies
/// on, so [`StoredTables::decode`] cannot fail.
pub(crate) fn open_snapshot(
    dir: &Path,
    manifest: &Manifest,
) -> Result<LoadedSnapshot, DurabilityError> {
    let path = dir.join(&manifest.snapshot);
    let corrupt = |reason: String| DurabilityError::CorruptSnapshot {
        file: manifest.snapshot.clone(),
        reason,
    };
    let bytes = fs::read(&path).map_err(|e| corrupt(format!("unreadable snapshot: {e}")))?;
    if bytes.len() as u64 != manifest.bytes || bytes.len() < 4 {
        return Err(corrupt(format!(
            "length mismatch (manifest says {}, file has {})",
            manifest.bytes,
            bytes.len()
        )));
    }
    // One CRC pass yields both sums: the body CRC (compared against the
    // snapshot's own trailer) and, continuing over the trailer bytes, the
    // whole-file CRC the manifest recorded. Both checks run before the
    // decode, so `deserialize` only ever sees verified bytes here.
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let mut crc = Crc32::new();
    crc.update(body);
    let body_crc = crc.finish();
    let mut whole = crc;
    whole.update(trailer);
    let actual = whole.finish();
    if actual != manifest.crc {
        return Err(corrupt(format!(
            "manifest checksum mismatch (manifest {:#010x}, file {actual:#010x})",
            manifest.crc
        )));
    }
    let stored_crc = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    if body_crc != stored_crc {
        return Err(corrupt(format!(
            "checksum mismatch (stored {stored_crc:#010x}, computed {body_crc:#010x})"
        )));
    }
    let snapshot = deserialize(bytes).map_err(corrupt)?;
    if snapshot.pos != manifest.pos {
        return Err(corrupt(format!(
            "journal position mismatch (manifest {:?}, snapshot {:?})",
            manifest.pos, snapshot.pos
        )));
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::GraphDelta;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tin-snapshot-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn windowed_state() -> (TemporalGraph, PathTables) {
        // A graph that has lived: appends, then a window eviction that
        // tombstones an edge and sets the frontier.
        let mut g = TemporalGraph::new();
        let delta = GraphDelta::new(
            0,
            (0..5)
                .map(|i| Node {
                    name: format!("v{i} name"),
                })
                .collect(),
            vec![
                (NodeId(0), NodeId(1), Interaction::new(1, 5.0)),
                (NodeId(1), NodeId(0), Interaction::new(2, 3.0)),
                (NodeId(1), NodeId(2), Interaction::new(3, 4.0)),
                (NodeId(2), NodeId(0), Interaction::new(4, 2.0)),
                (NodeId(3), NodeId(4), Interaction::new(1, 7.0)),
            ],
        )
        .unwrap();
        let mut tables = PathTables::build(&g, &TablesConfig::default());
        let applied = g.apply(&delta).unwrap();
        tables.apply(&g, &applied);
        let evict = GraphDelta::new(5, vec![], vec![]).unwrap().expire_before(2);
        let applied = g.apply(&evict).unwrap();
        tables.apply(&g, &applied);
        g.validate().unwrap();
        assert!(g.frontier().is_some());
        assert!(g.edges().iter().any(Edge::is_tombstone));
        (g, tables)
    }

    #[test]
    fn snapshot_roundtrip_is_row_identical() {
        let dir = temp_dir("roundtrip");
        let (g, tables) = windowed_state();
        let pos = JournalPos {
            segment: 2,
            offset: 123,
        };
        write_snapshot(&dir, 1, &g, &tables, pos, 42).unwrap();
        let manifests = list_manifests(&dir).unwrap();
        assert_eq!(manifests.len(), 1);
        let manifest = read_manifest(&manifests[0].1).unwrap();
        assert_eq!(manifest.pos, pos);
        assert_eq!(manifest.frames, 42);
        let (g2, t2, pos2, frames2) = load_snapshot(&dir, &manifest).unwrap();
        assert_eq!(g2, g);
        g2.validate().unwrap();
        assert_eq!(pos2, pos);
        assert_eq!(frames2, 42);
        assert_eq!(tables.first_row_divergence(&t2), None);
        // No leftover temp files after a clean commit.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bitflip_in_snapshot_is_detected() {
        let dir = temp_dir("bitflip");
        let (g, tables) = windowed_state();
        write_snapshot(&dir, 0, &g, &tables, JournalPos::start(), 0).unwrap();
        let manifest = read_manifest(&manifest_path(&dir, 0)).unwrap();
        let snap = snapshot_path(&dir, 0);
        let clean = fs::read(&snap).unwrap();
        // Flip a byte at several positions (header, graph, tables, crc) and
        // verify the load always fails loudly.
        let positions: Vec<usize> = (0..clean.len())
            .step_by((clean.len() / 57).max(1))
            .collect();
        for &i in &positions {
            let mut corrupted = clean.clone();
            corrupted[i] ^= 0x20;
            fs::write(&snap, &corrupted).unwrap();
            let err = load_snapshot(&dir, &manifest).unwrap_err();
            assert!(
                matches!(err, DurabilityError::CorruptSnapshot { .. }),
                "flip at {i} gave {err:?}"
            );
        }
        fs::write(&snap, &clean).unwrap();
        load_snapshot(&dir, &manifest).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_and_manifest_are_detected() {
        let dir = temp_dir("truncate");
        let (g, tables) = windowed_state();
        write_snapshot(&dir, 0, &g, &tables, JournalPos::start(), 7).unwrap();
        let snap = snapshot_path(&dir, 0);
        let manifest = read_manifest(&manifest_path(&dir, 0)).unwrap();
        let clean = fs::read(&snap).unwrap();
        fs::write(&snap, &clean[..clean.len() / 2]).unwrap();
        assert!(matches!(
            load_snapshot(&dir, &manifest).unwrap_err(),
            DurabilityError::CorruptSnapshot { .. }
        ));
        fs::write(&snap, &clean).unwrap();
        // Torn manifest: cut mid-line.
        let mpath = manifest_path(&dir, 0);
        let mtext = fs::read(&mpath).unwrap();
        fs::write(&mpath, &mtext[..mtext.len() - 10]).unwrap();
        assert!(matches!(
            read_manifest(&mpath).unwrap_err(),
            DurabilityError::CorruptSnapshot { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The check without building refuses exactly the pairs of rows a
    /// builder refuses, with the builder's reason: every vertex count the
    /// builder sees, sequences of different lengths, equal rows, and
    /// vertices at both ends of the `u32` range.
    #[test]
    fn the_row_check_refuses_what_the_builder_refuses() {
        let values = [0, 1, 7, u32::MAX - 1, u32::MAX];
        let mut rows: Vec<Vec<u32>> = vec![vec![], vec![7]];
        for &a in &values {
            for &b in &values {
                rows.push(vec![a, b]);
                rows.extend(values.iter().map(|&c| vec![a, b, c]));
            }
        }
        let ids = |row: &[u32]| row.iter().map(|&v| NodeId(v)).collect::<Vec<_>>();
        for first in &rows {
            for second in &rows {
                let nverts = [first.len() as u8, second.len() as u8];
                let verts: Vec<u8> = first
                    .iter()
                    .chain(second)
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                let checked = check_rows("C2", &nverts, &verts, &[0; 8], 0);
                let mut builder = PathTableBuilder::new();
                let built = builder
                    .push(&ids(first), 1.0, &[])
                    .and_then(|()| builder.push(&ids(second), 1.0, &[]))
                    .map_err(|e| format!("C2 table is malformed: {e}"));
                assert_eq!(checked, built, "{first:?} then {second:?}");
            }
        }
    }
}
