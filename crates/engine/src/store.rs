//! The persistent snapshot + plan store (`.cqds` files).
//!
//! Restarting `cqd2-serve` used to throw away everything the paper says
//! to amortize: the facts were re-tokenized from text, the `O(‖D‖)`
//! statistics pass re-ran at publish time, and the plan cache came up
//! cold. This module makes the expensive preprocessing **durable**:
//!
//! - [`write_snapshot`] / [`read_snapshot`]: a versioned, checksummed
//!   binary format for a database snapshot. Each relation's tuples are
//!   laid out as one contiguous row-major `u64` buffer — exactly the
//!   [`cqd2_cq::FlatRelation`] buffer the database holds in memory — in
//!   a 64-byte-aligned section. Saving writes each section straight
//!   from that buffer; loading is one open + one bulk read, then per
//!   relation **one copy** of the section into a `Vec<u64>` that
//!   becomes the stored relation after **one** `O(n)` sorted-distinct
//!   verification ([`cqd2_cq::Database::insert_sorted_flat`]) — no
//!   per-row allocation, no tokenizing, no re-sort (mmap-ready: the
//!   sections could be mapped in place). Per-relation statistics
//!   (cardinality, per-column distinct counts) are persisted in the
//!   table of contents, so publishing a loaded snapshot skips the
//!   statistics pass entirely ([`publish_snapshot`] /
//!   [`swap_snapshot`]).
//! - `save_plans` / `load_plans` *(requires the `serde` feature)*:
//!   spill the engine's isomorphism-keyed plan cache to JSON and
//!   preload it on the next start. A record is the structure analysis
//!   of its representative hypergraph and nothing else, so it never
//!   goes stale across epochs; every record is validated against its
//!   representative before any enters the cache.
//!
//! Every way a file can be wrong — bad magic, future version, flipped
//! byte, truncation, oversized length field, unsorted tuples — is a
//! typed [`StoreError`], never a panic and never an allocation beyond
//! the file's actual size. See `docs/SNAPSHOT.md` for the normative
//! on-disk layout.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cqd2_cq::stats::{DatabaseStats, RelationStats};
use cqd2_cq::Database;

use crate::catalog::{Catalog, DatabaseSnapshot};
use crate::error::EngineError;

/// The 8-byte magic prefix of every `.cqds` file (also what
/// `cqd2-serve --db` sniffs to distinguish snapshots from text facts).
pub const MAGIC: [u8; 8] = *b"CQD2SNAP";

/// The schema version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header length in bytes.
const HEADER_LEN: usize = 64;

/// Every data section starts on a 64-byte boundary (cache-line and
/// mmap-page friendly; `u64`-aligned for an in-place view).
const SECTION_ALIGN: usize = 64;

/// Defensive cap on a persisted relation's arity. Real arities are
/// single digits; a corrupt length field must not drive column loops.
const MAX_ARITY: u32 = 1 << 16;

/// What can go wrong reading or writing a `.cqds` file. Cloneable and
/// comparable so it can ride inside [`EngineError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The operating system refused the read or write. The unstructured
    /// `io::Error` is carried as its message (keeping this type `Eq`).
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the `CQD2SNAP` magic — it is not a
    /// snapshot at all (e.g. a text facts file passed to the wrong
    /// loader).
    NotASnapshot,
    /// The file's schema version is not the one this build reads. Both
    /// versions are named so operators know which side to upgrade.
    Version {
        /// The version the file declares.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The file is structurally damaged: a checksum mismatch, a
    /// truncation, an out-of-bounds or misaligned section, or content
    /// violating the database invariants. `offset` is the byte position
    /// the damage was detected at.
    Corrupt {
        /// Byte offset of the detected damage.
        offset: u64,
        /// What exactly was wrong.
        message: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "snapshot I/O on {path}: {message}"),
            StoreError::NotASnapshot => {
                write!(f, "not a snapshot file (missing CQD2SNAP magic)")
            }
            StoreError::Version { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            StoreError::Corrupt { offset, message } => {
                write!(f, "corrupt snapshot at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn io(path: &Path, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    fn corrupt(offset: usize, message: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            offset: offset as u64,
            message: message.into(),
        }
    }
}

/// A fully decoded snapshot file: the database, the statistics
/// persisted alongside it, and the (reserved, version-1-ignored) flag
/// bits, preserved so round trips keep them intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// The database, with every invariant re-verified on load.
    pub db: Database,
    /// The statistics persisted at save time (trusted under the body
    /// checksum — loading never re-runs the collection pass).
    pub stats: DatabaseStats,
    /// The header's reserved flag bits. Version 1 defines none; readers
    /// ignore them, round trips preserve them.
    pub flags: u32,
}

/// One relation's table-of-contents entry, as [`inspect_snapshot`]
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSummary {
    /// Relation name.
    pub name: String,
    /// Arity (columns per tuple).
    pub arity: usize,
    /// Number of tuples.
    pub rows: u64,
    /// Absolute byte offset of the relation's data section
    /// (64-byte aligned).
    pub offset: u64,
    /// Persisted per-column distinct counts.
    pub distinct: Vec<u64>,
}

/// Header and table-of-contents summary of a snapshot file
/// (everything except the tuple data itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// Schema version.
    pub version: u32,
    /// Reserved flag bits.
    pub flags: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Per-relation entries, in name order.
    pub relations: Vec<RelationSummary>,
    /// Total tuples across all relations.
    pub total_tuples: u64,
}

// ---------------------------------------------------------------------
// Checksums and little-endian primitives.
// ---------------------------------------------------------------------

/// FNV-1a over `bytes`: dependency-free, and a single flipped byte
/// always changes the sum (the xor-then-multiply step is injective in
/// the flipped position), which is what the corruption sweep relies on.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Little-endian `u32` at `off`. Callers have already bounds-checked
/// (the fixed header is length-verified up front).
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(a)
}

/// Little-endian `u64` at `off` (same contract as [`u32_at`]).
fn u64_at(bytes: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(a)
}

/// Bounds-checked little-endian reads over the raw file bytes. Every
/// accessor returns a typed error instead of slicing out of range.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(StoreError::corrupt(
                self.pos,
                format!("{what} runs past the end of the file"),
            )),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

/// Encode `db` as a version-[`FORMAT_VERSION`] snapshot. Statistics are
/// computed here, once — the save is where the `O(‖D‖)` pass is paid so
/// every later load can skip it.
pub fn encode_snapshot(db: &Database) -> Vec<u8> {
    encode_snapshot_with(db, FORMAT_VERSION, 0)
}

/// [`encode_snapshot`] with an explicit schema version and flag word.
/// Test-only surface: the version-skew and reserved-flags tests need to
/// write files this build's reader must reject or preserve. Checksums
/// are always computed over what is actually written.
#[doc(hidden)]
pub fn encode_snapshot_with(db: &Database, version: u32, flags: u32) -> Vec<u8> {
    let rels: Vec<(&str, &cqd2_cq::database::StoredRelation)> = db.relations().collect();
    let toc_len: usize = rels
        .iter()
        .map(|(name, rel)| 4 + name.len() + 4 + 8 + 8 + 8 * rel.arity)
        .sum();
    let data_start = align_up(HEADER_LEN + toc_len);
    let mut offsets = Vec::with_capacity(rels.len());
    let mut end = data_start;
    for (_, rel) in &rels {
        end = align_up(end);
        offsets.push(end);
        end += rel.tuples.data().len() * 8;
    }
    let file_len = end;

    let mut buf = Vec::with_capacity(file_len);
    buf.resize(HEADER_LEN, 0);
    for ((name, rel), &offset) in rels.iter().zip(&offsets) {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(rel.arity as u32).to_le_bytes());
        buf.extend_from_slice(&(rel.tuples.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(offset as u64).to_le_bytes());
        for d in RelationStats::collect(rel).distinct {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
    }
    for ((_, rel), &offset) in rels.iter().zip(&offsets) {
        buf.resize(offset, 0);
        for v in rel.tuples.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    debug_assert_eq!(buf.len(), file_len);

    buf[0..8].copy_from_slice(&MAGIC);
    buf[8..12].copy_from_slice(&version.to_le_bytes());
    buf[12..16].copy_from_slice(&flags.to_le_bytes());
    buf[16..20].copy_from_slice(&(rels.len() as u32).to_le_bytes());
    // bytes 20..24 reserved (zero)
    buf[24..32].copy_from_slice(&(file_len as u64).to_le_bytes());
    // bytes 40..56 reserved (zero); checksums sealed below.
    reseal(&mut buf);
    buf
}

/// Recompute and rewrite the body and header checksums over the bytes
/// as they currently are. Test-only surface: the corruption sweep
/// patches structural fields (lengths, offsets, versions) and reseals,
/// so the *structural* validation is exercised rather than masked by a
/// checksum mismatch.
#[doc(hidden)]
pub fn reseal(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let body = fnv1a(&bytes[HEADER_LEN..]);
    bytes[32..40].copy_from_slice(&body.to_le_bytes());
    let header = fnv1a(&bytes[..56]);
    bytes[56..64].copy_from_slice(&header.to_le_bytes());
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Validate the header and table of contents of `bytes` (checksums,
/// version, every length/offset field) without materializing tuples.
pub fn inspect_bytes(bytes: &[u8]) -> Result<SnapshotSummary, StoreError> {
    // Magic first: anything without the prefix is "not a snapshot"
    // (however short), while a true snapshot cut below the header is
    // corruption.
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::NotASnapshot);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::corrupt(
            bytes.len(),
            format!(
                "file is {} bytes, shorter than the 64-byte header",
                bytes.len()
            ),
        ));
    }
    let header_sum = u64_at(bytes, 56);
    if fnv1a(&bytes[..56]) != header_sum {
        return Err(StoreError::corrupt(56, "header checksum mismatch"));
    }
    // The version check runs only on a checksum-clean header, so a
    // flipped version byte reads as corruption, not as a future format.
    let version = u32_at(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(StoreError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = u32_at(bytes, 12);
    let relation_count = u32_at(bytes, 16);
    let file_len = u64_at(bytes, 24);
    if file_len != bytes.len() as u64 {
        return Err(StoreError::corrupt(
            24,
            format!(
                "header declares {file_len} bytes but the file has {}",
                bytes.len()
            ),
        ));
    }
    let body_sum = u64_at(bytes, 32);
    if fnv1a(&bytes[HEADER_LEN..]) != body_sum {
        return Err(StoreError::corrupt(32, "body checksum mismatch"));
    }

    let mut cur = Cursor {
        bytes,
        pos: HEADER_LEN,
    };
    let mut relations = Vec::new();
    let mut total_tuples = 0u64;
    let mut prev_name: Option<String> = None;
    let mut prev_end = 0u64;
    for _ in 0..relation_count {
        let entry_at = cur.pos;
        let name_len = cur.u32("relation name length")? as usize;
        let name_bytes = cur.take(name_len, "relation name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| StoreError::corrupt(entry_at + 4, "relation name is not UTF-8"))?
            .to_string();
        if let Some(prev) = &prev_name {
            if *prev >= name {
                return Err(StoreError::corrupt(
                    entry_at,
                    format!("relation names out of order (`{prev}` then `{name}`)"),
                ));
            }
        }
        let arity = cur.u32("arity")?;
        if arity > MAX_ARITY {
            return Err(StoreError::corrupt(
                entry_at,
                format!("relation `{name}` declares arity {arity} (cap {MAX_ARITY})"),
            ));
        }
        let rows = cur.u64("row count")?;
        let offset = cur.u64("data offset")?;
        let section_bytes = rows
            .checked_mul(u64::from(arity))
            .and_then(|cells| cells.checked_mul(8))
            .ok_or_else(|| {
                StoreError::corrupt(
                    entry_at,
                    format!(
                        "relation `{name}` section size overflows (rows {rows} × arity {arity})"
                    ),
                )
            })?;
        let section_end = offset.checked_add(section_bytes).filter(|&e| e <= file_len);
        if section_end.is_none() || offset % SECTION_ALIGN as u64 != 0 || offset < prev_end {
            return Err(StoreError::corrupt(
                entry_at,
                format!(
                    "relation `{name}` data section [{offset}, +{section_bytes}) is out of \
                     bounds, misaligned, or overlapping"
                ),
            ));
        }
        if arity == 0 && rows > 1 {
            return Err(StoreError::corrupt(
                entry_at,
                format!("nullary relation `{name}` declares {rows} rows (at most 1 possible)"),
            ));
        }
        let mut distinct = Vec::with_capacity(arity as usize);
        for col in 0..arity {
            let d = cur.u64("distinct count")?;
            if d > rows || (rows > 0 && d == 0) {
                return Err(StoreError::corrupt(
                    entry_at,
                    format!(
                        "relation `{name}` column {col}: distinct count {d} impossible for \
                         {rows} rows"
                    ),
                ));
            }
            distinct.push(d);
        }
        total_tuples = total_tuples.checked_add(rows).ok_or_else(|| {
            StoreError::corrupt(entry_at, "total tuple count overflows".to_string())
        })?;
        // The safe unwrap: section_end was validated Some above.
        prev_end = section_end.unwrap_or(file_len);
        prev_name = Some(name.clone());
        relations.push(RelationSummary {
            name,
            arity: arity as usize,
            rows,
            offset,
            distinct,
        });
    }
    // Sections must live after the table of contents.
    let toc_end = cur.pos as u64;
    if let Some(first) = relations.iter().find(|r| r.offset < toc_end) {
        return Err(StoreError::corrupt(
            HEADER_LEN,
            format!(
                "relation `{}` data section at {} overlaps the table of contents (ends {toc_end})",
                first.name, first.offset
            ),
        ));
    }
    Ok(SnapshotSummary {
        version,
        flags,
        file_len,
        relations,
        total_tuples,
    })
}

/// Decode a full snapshot from `bytes`: validate everything
/// ([`inspect_bytes`]), then copy each data section into one `Vec<u64>`
/// and hand it to the database as the stored relation — its sorted,
/// distinct-tuples invariant verified once, in that hand-over — and
/// reassemble the persisted statistics. Allocation is one buffer per
/// relation, bounded by the actual file size: every row count was
/// already checked against the bytes present.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotFile, StoreError> {
    let summary = inspect_bytes(bytes)?;
    let mut db = Database::new();
    let mut stats: BTreeMap<String, RelationStats> = BTreeMap::new();
    for rel in &summary.relations {
        let start = rel.offset as usize;
        let rows = rel.rows as usize;
        let section = &bytes[start..start + rows * rel.arity * 8];
        let data: Vec<u64> = section.chunks_exact(8).map(|w| u64_at(w, 0)).collect();
        db.insert_sorted_flat(&rel.name, rel.arity, rows, data)
            .map_err(|e| StoreError::corrupt(start, e.to_string()))?;
        stats.insert(
            rel.name.clone(),
            RelationStats {
                cardinality: rel.rows as usize,
                distinct: rel.distinct.iter().map(|&d| d as usize).collect(),
            },
        );
    }
    Ok(SnapshotFile {
        db,
        stats: DatabaseStats::from_parts(stats),
        flags: summary.flags,
    })
}

// ---------------------------------------------------------------------
// File I/O and catalog integration.
// ---------------------------------------------------------------------

/// Replace the file at `path` with `bytes` atomically: write a
/// temporary file beside it, `sync_all`, then `rename` over the target
/// and sync the directory. A crash (or a full disk) at any point leaves
/// either the old file or the new one — never a torn mix that a later
/// load would have to reject.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    static NEXT_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    let n = NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(StoreError::io(path, &e));
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))
        .and_then(|d| d.sync_all())
        .map_err(|e| StoreError::io(path, &e))
}

/// Encode `db` and write it to `path` (atomically: a failed write leaves
/// any previous file intact). Returns the file size in bytes.
pub fn write_snapshot(path: impl AsRef<Path>, db: &Database) -> Result<u64, StoreError> {
    let bytes = encode_snapshot(db);
    write_atomic(path.as_ref(), &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read and decode the snapshot at `path`: one open, one bulk read,
/// checksum + invariant verification, no statistics pass.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<SnapshotFile, StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    decode_snapshot(&bytes)
}

/// Read and validate the header + table of contents at `path` without
/// materializing tuples (the `cqd2-analyze snapshot inspect` surface).
pub fn inspect_snapshot(path: impl AsRef<Path>) -> Result<SnapshotSummary, StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| StoreError::io(path, &e))?;
    inspect_bytes(&bytes)
}

/// Does `bytes` begin with the snapshot magic? (The `--db name=path`
/// format sniff: snapshots are loaded binary, everything else parses as
/// text facts.)
pub fn is_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// [`Catalog::publish`] from a snapshot file, reusing the persisted
/// statistics — the publish-time `O(‖D‖)` collection pass is skipped.
pub fn publish_snapshot(
    catalog: &Catalog,
    name: &str,
    path: impl AsRef<Path>,
) -> Result<Arc<DatabaseSnapshot>, EngineError> {
    let file = read_snapshot(path)?;
    catalog.publish_with_stats(name, file.db, file.stats)
}

/// [`Catalog::swap`] from a snapshot file (the `Reload { path }` server
/// path). On any error the catalog is untouched — the old epoch keeps
/// serving.
pub fn swap_snapshot(
    catalog: &Catalog,
    name: &str,
    path: impl AsRef<Path>,
) -> Result<Arc<DatabaseSnapshot>, EngineError> {
    let file = read_snapshot(path)?;
    catalog.swap_with_stats(name, file.db, file.stats)
}

// ---------------------------------------------------------------------
// Plan-cache spill (serde feature).
// ---------------------------------------------------------------------

#[cfg(feature = "serde")]
mod plans {
    use std::path::Path;
    use std::time::Duration;

    use cqd2_dilution::DilutionSequence;
    use cqd2_hypergraph::Hypergraph;

    use super::StoreError;
    use crate::engine::Engine;
    use crate::planner::PlannedStructure;

    /// Spill-format version (independent of the `.cqds` binary format).
    /// v3 dropped the catalog epochs and the per-record database names:
    /// a record is a function of its hypergraph alone, so it never goes
    /// stale.
    const PLAN_SPILL_VERSION: u64 = 3;

    /// One cached structure class, flattened for JSON. The
    /// representative hypergraph *is* the isomorphism-invariant key:
    /// re-inserting it recomputes the fingerprint, so the spill needs
    /// no explicit key field. `Duration` does not serialize; planning
    /// time travels as microseconds.
    #[derive(Debug, Clone)]
    #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
    struct PlanRecord {
        representative: Hypergraph,
        ghd: Option<cqd2_decomp::Ghd>,
        ghd_exact: bool,
        jigsaw_dilution: Option<DilutionSequence>,
        jigsaw_n: u64,
        hard_regime: bool,
        num_edges: usize,
        notes: Vec<String>,
        planning_micros: u64,
    }

    impl PlanRecord {
        /// Check the record against its own representative: the file is
        /// outside input with no checksum, and a GHD that does not fit
        /// would be translated onto every isomorphic query.
        fn validate(&self, index: usize) -> Result<(), StoreError> {
            let edges = self.representative.num_edges();
            if self.num_edges != edges {
                return Err(StoreError::corrupt(
                    0,
                    format!(
                        "plan spill record {index}: num_edges {} but the representative has {edges}",
                        self.num_edges
                    ),
                ));
            }
            if let Some(ghd) = &self.ghd {
                ghd.validate(&self.representative).map_err(|e| {
                    StoreError::corrupt(0, format!("plan spill record {index}: {e}"))
                })?;
            }
            Ok(())
        }
    }

    /// The spill file: a version stamp and the plans.
    #[derive(Debug, Clone)]
    #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
    struct PlanSpill {
        version: u64,
        plans: Vec<PlanRecord>,
    }

    /// Minimal first-pass decode of a spill file: just the version
    /// stamp, so format skew reports as [`StoreError::Version`] rather
    /// than a missing-field parse error from the full record shape.
    #[derive(Debug, Clone)]
    #[cfg_attr(feature = "serde", derive(serde::Deserialize))]
    struct SpillVersionProbe {
        version: u64,
    }

    /// Spill the engine's plan cache to `path` as JSON. Returns the
    /// number of plans written.
    pub fn save_plans(path: impl AsRef<Path>, engine: &Engine) -> Result<usize, StoreError> {
        let plans: Vec<PlanRecord> = engine
            .export_plans()
            .into_iter()
            .map(|(representative, s)| PlanRecord {
                representative,
                ghd: s.ghd,
                ghd_exact: s.ghd_exact,
                jigsaw_n: s.jigsaw.as_ref().map_or(0, |(_, n)| *n as u64),
                jigsaw_dilution: s.jigsaw.map(|(d, _)| d),
                hard_regime: s.hard_regime,
                num_edges: s.num_edges,
                notes: s.notes,
                planning_micros: s.planning_time.as_micros() as u64,
            })
            .collect();
        let count = plans.len();
        let spill = PlanSpill {
            version: PLAN_SPILL_VERSION,
            plans,
        };
        super::write_atomic(path.as_ref(), serde::json::to_string(&spill).as_bytes())?;
        Ok(count)
    }

    /// Load a plan spill from `path` and preload the engine's cache.
    /// Every record is checked against its representative before any
    /// is inserted: one that does not fit makes the whole file
    /// [`StoreError::Corrupt`] and preloads nothing. Returns the number
    /// of structures preloaded (already-cached isomorphs are skipped,
    /// not double-counted).
    pub fn load_plans(path: impl AsRef<Path>, engine: &Engine) -> Result<usize, StoreError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, &e))?;
        let probe: SpillVersionProbe = serde::json::from_str(&text)
            .map_err(|e| StoreError::corrupt(0, format!("plan spill: {e}")))?;
        if probe.version != PLAN_SPILL_VERSION {
            return Err(StoreError::Version {
                found: probe.version as u32,
                supported: PLAN_SPILL_VERSION as u32,
            });
        }
        let spill: PlanSpill = serde::json::from_str(&text)
            .map_err(|e| StoreError::corrupt(0, format!("plan spill: {e}")))?;
        for (index, rec) in spill.plans.iter().enumerate() {
            rec.validate(index)?;
        }
        let mut loaded = 0;
        for rec in spill.plans {
            let structure = PlannedStructure {
                ghd: rec.ghd,
                ghd_exact: rec.ghd_exact,
                jigsaw: rec.jigsaw_dilution.map(|d| (d, rec.jigsaw_n as usize)),
                hard_regime: rec.hard_regime,
                num_edges: rec.num_edges,
                notes: rec.notes,
                planning_time: Duration::from_micros(rec.planning_micros),
            };
            if engine.preload_plan(&rec.representative, structure) {
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

#[cfg(feature = "serde")]
pub use plans::{load_plans, save_plans};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.insert_all("R", &[vec![1, 2], vec![3, 4], vec![3, 9]]);
        db.insert_all("S", &[vec![2], vec![4]]);
        db.insert_all("Wide", &[vec![0, u64::MAX, 7, 7, 1]]);
        db.insert_sorted_relation("Empty", 2, vec![]).unwrap();
        db
    }

    #[test]
    fn encode_decode_round_trips_with_stats() {
        let db = sample_db();
        let bytes = encode_snapshot(&db);
        let file = decode_snapshot(&bytes).unwrap();
        assert_eq!(file.db, db);
        assert_eq!(file.stats, db.stats());
        assert_eq!(file.flags, 0);
        // Deterministic encoding: same database, same bytes.
        assert_eq!(encode_snapshot(&db), bytes);
    }

    #[test]
    fn sections_are_aligned_and_inspectable() {
        let db = sample_db();
        let bytes = encode_snapshot(&db);
        let summary = inspect_bytes(&bytes).unwrap();
        assert_eq!(summary.version, FORMAT_VERSION);
        assert_eq!(summary.file_len, bytes.len() as u64);
        assert_eq!(summary.relations.len(), 4);
        assert_eq!(summary.total_tuples, 6);
        for rel in &summary.relations {
            assert_eq!(rel.offset % SECTION_ALIGN as u64, 0, "{}", rel.name);
        }
        // Names arrive sorted, and the persisted stats match collect().
        let names: Vec<&str> = summary.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["Empty", "R", "S", "Wide"]);
        let r = summary.relations.iter().find(|r| r.name == "R").unwrap();
        assert_eq!((r.arity, r.rows), (2, 3));
        assert_eq!(r.distinct, vec![2, 3]);
    }

    #[test]
    fn flat_sections_match_the_kernel_layout() {
        use cqd2_cq::{FlatRelation, Var};
        let db = sample_db();
        let bytes = encode_snapshot(&db);
        let summary = inspect_bytes(&bytes).unwrap();
        let r = summary.relations.iter().find(|r| r.name == "R").unwrap();
        let start = r.offset as usize;
        let words: Vec<u64> = bytes[start..start + r.rows as usize * r.arity * 8]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // The persisted section IS the FlatRelation buffer — the one the
        // database holds, and the one the kernel builds from the rows.
        let vars: Vec<Var> = (0..r.arity as u32).map(Var).collect();
        let flat = FlatRelation::from_flat(vars.clone(), r.rows as usize, words.clone()).unwrap();
        let stored = &db.relation("R").unwrap().tuples;
        let reference = FlatRelation::from_rows(vars, &stored.to_tuples());
        assert_eq!(flat.data(), reference.data());
        assert_eq!(flat, reference);
        assert_eq!(&flat, stored);
    }

    #[test]
    fn version_skew_is_rejected_naming_both_versions() {
        let bytes = encode_snapshot_with(&sample_db(), FORMAT_VERSION + 1, 0);
        match decode_snapshot(&bytes) {
            Err(StoreError::Version { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("{other:?}"),
        }
        let msg = decode_snapshot(&bytes).unwrap_err().to_string();
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("version 1"), "{msg}");
    }

    #[test]
    fn reserved_flags_round_trip_untouched() {
        let db = sample_db();
        let bytes = encode_snapshot_with(&db, FORMAT_VERSION, 0xDEAD_BEEF);
        let file = decode_snapshot(&bytes).unwrap();
        assert_eq!(file.flags, 0xDEAD_BEEF);
        assert_eq!(file.db, db);
        // Re-encoding with the preserved flags is byte-identical.
        assert_eq!(
            encode_snapshot_with(&file.db, FORMAT_VERSION, file.flags),
            bytes
        );
    }

    #[test]
    fn not_a_snapshot_and_empty_inputs() {
        match decode_snapshot(b"") {
            Err(StoreError::NotASnapshot) => {}
            other => panic!("{other:?}"),
        }
        match decode_snapshot(b"R(1, 2)\nS(2, 3)\n text facts are never a snapshot") {
            Err(StoreError::NotASnapshot) => {}
            other => panic!("{other:?}"),
        }
        // A real snapshot cut below the 64-byte header is corruption.
        let head = encode_snapshot(&Database::new());
        match decode_snapshot(&head[..32]) {
            Err(StoreError::Corrupt { offset: 32, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(!is_snapshot(b"R(1, 2)"));
        assert!(is_snapshot(&encode_snapshot(&Database::new())));
    }

    #[test]
    fn catalog_publish_and_swap_from_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cqd2-store-test-{}.cqds", std::process::id()));
        let db = sample_db();
        write_snapshot(&path, &db).unwrap();

        let catalog = Catalog::new();
        let snap = publish_snapshot(&catalog, "main", &path).unwrap();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.db(), &db);
        assert_eq!(snap.stats(), &db.stats());

        let mut db2 = db.clone();
        db2.insert("R", &[100, 200]);
        write_snapshot(&path, &db2).unwrap();
        let snap2 = swap_snapshot(&catalog, "main", &path).unwrap();
        assert_eq!(snap2.epoch(), 1);
        assert_eq!(snap2.db(), &db2);

        // Writes are atomic replaces: the overwrite left no temporary
        // sibling behind, and a write that cannot land is a typed error.
        let target = path.file_name().unwrap().to_string_lossy().into_owned();
        let siblings = std::fs::read_dir(&dir).unwrap().flatten().filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&target) && name != target
        });
        assert_eq!(siblings.count(), 0);
        match write_snapshot(dir.join("cqd2-store-test-no-such-dir/x.cqds"), &db) {
            Err(StoreError::Io { .. }) => {}
            other => panic!("{other:?}"),
        }

        // A missing file is a typed error and leaves the epoch serving.
        let missing = dir.join("cqd2-store-test-definitely-missing.cqds");
        match swap_snapshot(&catalog, "main", &missing) {
            Err(EngineError::Store(StoreError::Io { .. })) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(catalog.snapshot("main").unwrap().epoch(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn plan_spill_saved_after_a_delta_loads_whole() {
        use cqd2_cq::ConjunctiveQuery;
        let path = std::env::temp_dir().join(format!(
            "cqd2-plan-spill-after-delta-{}.json",
            std::process::id()
        ));
        let q_a = ConjunctiveQuery::parse(&[("R", &["?x", "?y"]), ("S", &["?y", "?z"])]);
        let q_b = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?w"]),
        ]);
        let facts = "R(1, 2)\nS(2, 3)\nT(3, 4)\n";

        let catalog = Catalog::new();
        catalog.publish_str("a", facts).unwrap();
        let engine = crate::engine::Engine::default();
        let session = engine.session_in(&catalog, "a").unwrap();
        session.prepare(&q_a).unwrap();
        session.prepare(&q_b).unwrap();
        // The database moves on before the spill is written.
        crate::delta::apply_delta_text(&catalog, "a", "@insert\nR(7, 8)\n").unwrap();
        assert_eq!(save_plans(&path, &engine).unwrap(), 2);

        // A fresh process: a new engine, the catalog back at epoch 0.
        let restarted = Catalog::new();
        restarted.publish_str("a", facts).unwrap();
        let fresh = crate::engine::Engine::default();
        assert_eq!(load_plans(&path, &fresh).unwrap(), 2);
        let session = fresh.session_in(&restarted, "a").unwrap();
        for q in [&q_a, &q_b] {
            assert!(session.prepare(q).unwrap().cache_hit(), "{q:?}");
        }
        assert_eq!(fresh.cache_stats().misses, 0);
        // And the next spill writes them all again.
        assert_eq!(save_plans(&path, &fresh).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn plan_spill_with_an_invalid_ghd_is_corrupt_and_preloads_nothing() {
        use crate::engine::Workload;
        use cqd2_cq::ConjunctiveQuery;
        let path = std::env::temp_dir().join(format!(
            "cqd2-plan-spill-invalid-{}.json",
            std::process::id()
        ));
        // A chain R(x,y), S(y,z) whose one record is fine, then a
        // triangle whose first bag lost vertex 0: edge R#0 = {x, y}
        // fits in no bag.
        let chain = "{\"representative\":{\"vertex_names\":[\"?x\",\"?y\",\"?z\"],\"edge_names\":[\"R#0\",\"S#1\"],\"edges\":[[[0],[1]],[[1],[2]]],\"incidence\":[[[0]],[[0],[1]],[[1]]]},\"ghd\":{\"td\":{\"bags\":[[[0],[1]],[[1],[2]]],\"tree\":[[0,1]]},\"covers\":[[[0]],[[1]]]},\"ghd_exact\":true,\"jigsaw_dilution\":null,\"jigsaw_n\":0,\"hard_regime\":false,\"num_edges\":2,\"notes\":[],\"planning_micros\":1}";
        let triangle = "{\"representative\":{\"vertex_names\":[\"?x\",\"?y\",\"?z\"],\"edge_names\":[\"R#0\",\"S#1\",\"T#2\"],\"edges\":[[[0],[1]],[[1],[2]],[[0],[2]]],\"incidence\":[[[0],[2]],[[0],[1]],[[1],[2]]]},\"ghd\":{\"td\":{\"bags\":[[[1],[2]],[[1],[2]],[[2]]],\"tree\":[[0,1],[1,2]]},\"covers\":[[[0],[1]],[[1]],[[1]]]},\"ghd_exact\":true,\"jigsaw_dilution\":null,\"jigsaw_n\":0,\"hard_regime\":false,\"num_edges\":3,\"notes\":[],\"planning_micros\":1}";
        let engine = crate::engine::Engine::default();
        for (plans, what) in [
            (format!("{chain},{triangle}"), "invalid ghd"),
            (
                chain.replace("\"num_edges\":2", "\"num_edges\":3"),
                "edge count",
            ),
        ] {
            let text = format!("{{\"version\":3,\"plans\":[{plans}]}}");
            std::fs::write(&path, text).unwrap();
            match load_plans(&path, &engine) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("{what}: {other:?}"),
            }
            assert_eq!(engine.cache_stats().entries, 0, "{what}");
        }

        // The next prepare of the triangle plans fresh and answers.
        let catalog = Catalog::new();
        catalog
            .publish_str("a", "R(1, 2)\nS(2, 3)\nT(3, 1)\nR(4, 5)\n")
            .unwrap();
        let q = ConjunctiveQuery::parse(&[
            ("R", &["?x", "?y"]),
            ("S", &["?y", "?z"]),
            ("T", &["?z", "?x"]),
        ]);
        let prepared = engine
            .session_in(&catalog, "a")
            .unwrap()
            .prepare(&q)
            .unwrap();
        assert!(!prepared.cache_hit());
        assert_eq!(prepared.run(Workload::Count).answer.as_count(), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn plan_spill_version_skew_is_a_typed_error() {
        let path = std::env::temp_dir().join(format!(
            "cqd2-plan-spill-version-{}.json",
            std::process::id()
        ));
        let engine = crate::engine::Engine::default();
        for old in [1, 2] {
            let text = format!("{{\"version\": {old}, \"epochs\": {{}}, \"plans\": []}}");
            std::fs::write(&path, text).unwrap();
            match load_plans(&path, &engine) {
                Err(StoreError::Version {
                    found,
                    supported: 3,
                }) if found == old => {}
                other => panic!("{other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
