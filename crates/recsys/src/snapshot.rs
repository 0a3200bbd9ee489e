//! Versioned binary model snapshots (DESIGN.md §12, §16).
//!
//! A snapshot is the persisted artifact of a trained recommender: everything
//! the serving layer needs to answer top-K queries without retraining, plus
//! enough provenance (backend, seed, CSR fingerprints of the graphs the model
//! was fitted on) to detect when a snapshot no longer matches the data it
//! claims to describe.
//!
//! The format (version 2) is little-endian and hand-rolled (like the
//! telemetry JSON sink) so the workspace stays dependency-free. It separates
//! *header* from *payloads* so a million-user model can be memory-mapped with
//! zero deserialization copy:
//!
//! ```text
//! magic            8 B   b"MSOSNAP\0"
//! format version   u32   2
//! model kind       u8    0 = HetRec, 1 = MatrixFactorization
//! backend tag      u8    0 = dense, 1 = sparse
//! reserved         u16   0
//! seed             u64   model init seed
//! social fp        u64   CsrGraph::fingerprint of 𝒢ᵤ at fit time
//! item fp          u64   CsrGraph::fingerprint of 𝒢ᵢ at fit time
//! n_users          u64
//! n_items          u64
//! mu               f64   global-mean rating anchor
//! config len       u32   followed by that many bytes of config JSON
//! tensor count     u32
//! per tensor (directory entry):
//!   name len       u16   followed by that many bytes of UTF-8 name
//!   rank           u8    0, 1 or 2
//!   rows, cols     u64 × 2
//!   offset         u64   absolute, 64-byte aligned payload position
//!   payload fnv    u64   FNV-1a over [previous section end, payload end)
//! header checksum  u64   FNV-1a over every preceding byte
//! zero padding     to the first 64-byte boundary
//! payloads         f64 × rows·cols each, 64-byte aligned, zero padding
//!                  between; the file ends exactly at the last payload end
//! ```
//!
//! Because every payload section's checksum covers its *leading padding*
//! too, every byte of a file is covered by exactly one checksum (the
//! header's or one section's): any flipped byte is detected. The header is
//! self-validating without touching payloads, which is what makes
//! [`MappedSnapshot::open`] O(header) — load time is flat in model size.
//! Payload verification is opt-in via [`MappedSnapshot::verify_payloads`].
//!
//! The 64-byte section alignment plus a page-aligned (or `u64`-backed heap)
//! base guarantees payload pointers are 8-byte aligned, so
//! [`TensorView::data`] can hand out `&[f64]` straight into the map —
//! tensors round-trip bit-exactly, which is what makes served top-K lists
//! bit-identical to in-process predictions.
//!
//! Parsing never panics: malformed input — bad magic, any version other
//! than 2, truncation, checksum mismatch, inconsistent shapes, misaligned
//! sections — comes back as a typed [`SnapshotError`]. Snapshots are derived
//! artifacts, so an older format is refused with
//! [`SnapshotError::UnsupportedVersion`] rather than read: regenerate it
//! with `repro snapshot`. All read paths funnel through [`Snapshot::open`]
//! on a [`SnapshotSource`]; `load`/`from_bytes` are thin wrappers.
//! [`Snapshot::peek`] reads only the 64-byte prefix, so fingerprint checks
//! need not touch the rest of the file.
//!
//! Every writer — [`Snapshot::to_bytes`], [`Snapshot::save`] and the
//! streaming [`SnapshotWriter`] — emits sections through one code path, so
//! the three produce byte-identical files.

use std::fmt;
use std::io::{Cursor, Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use msopds_autograd::Tensor;
use msopds_recdata::Dataset;

use crate::graphops::Backend;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"MSOSNAP\0";

/// The snapshot format version this build reads and writes (the only one).
pub const FORMAT_VERSION: u32 = 2;

/// Alignment of every tensor payload (and of cache lines).
pub const SECTION_ALIGN: usize = 64;

/// Length of the fixed prefix.
const PREFIX_LEN: usize = 64;

/// Which model family a snapshot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// The Het-RecSys victim ([`crate::HetRec`]).
    HetRec,
    /// The MF surrogate ([`crate::MatrixFactorization`]).
    Mf,
}

impl ModelKind {
    fn tag(self) -> u8 {
        match self {
            ModelKind::HetRec => 0,
            ModelKind::Mf => 1,
        }
    }

    fn from_tag(t: u8) -> Result<Self, SnapshotError> {
        match t {
            0 => Ok(ModelKind::HetRec),
            1 => Ok(ModelKind::Mf),
            other => Err(SnapshotError::Corrupt { context: format!("unknown model kind {other}") }),
        }
    }
}

/// Everything a snapshot records besides the parameter tensors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnapshotHeader {
    /// Model family.
    pub kind: ModelKind,
    /// GraphOps backend the model was trained on. Serving math is
    /// backend-independent; this is provenance for experiment bookkeeping.
    pub backend: Backend,
    /// Parameter-init seed.
    pub seed: u64,
    /// Structural fingerprint of the social graph 𝒢ᵤ at fit time.
    pub social_fingerprint: u64,
    /// Structural fingerprint of the item graph 𝒢ᵢ at fit time.
    pub item_fingerprint: u64,
    /// User universe size (real + fake accounts).
    pub n_users: u64,
    /// Item universe size.
    pub n_items: u64,
    /// Global-mean rating anchor μ.
    pub mu: f64,
}

impl SnapshotHeader {
    /// True when this header's CSR fingerprints match `data`'s graphs — the
    /// invalidation test, answerable from a [`Snapshot::peek`] without
    /// reading tensor payloads.
    pub fn matches_dataset(&self, data: &Dataset) -> bool {
        let (social, item) = Snapshot::fingerprints_of(data);
        self.social_fingerprint == social && self.item_fingerprint == item
    }
}

/// A complete persisted model: header + config JSON + named tensors.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Provenance and dimensions.
    pub header: SnapshotHeader,
    /// The model's hyperparameter struct, serialized as JSON.
    pub config_json: String,
    /// Named parameter tensors in write order.
    pub tensors: Vec<(String, Tensor)>,
}

/// Where snapshot bytes come from — the single argument of
/// [`Snapshot::open`], [`Snapshot::peek`] and the serving loaders.
#[derive(Clone, Debug)]
pub enum SnapshotSource {
    /// Bytes already in memory (e.g. received over the wire).
    Owned(Vec<u8>),
    /// Read the whole file into the heap, then parse.
    File(PathBuf),
    /// Memory-map the file; tensor payloads are consumed in place with
    /// zero deserialization copy.
    Mmap(PathBuf),
}

impl SnapshotSource {
    /// A [`SnapshotSource::File`] for `path`.
    pub fn file(path: impl AsRef<Path>) -> Self {
        SnapshotSource::File(path.as_ref().to_path_buf())
    }

    /// A [`SnapshotSource::Mmap`] for `path`.
    pub fn mmap(path: impl AsRef<Path>) -> Self {
        SnapshotSource::Mmap(path.as_ref().to_path_buf())
    }

    /// Reads up to `buf.len()` leading bytes without consuming the source.
    fn read_head(&self, buf: &mut [u8]) -> Result<usize, SnapshotError> {
        match self {
            SnapshotSource::Owned(b) => {
                let n = b.len().min(buf.len());
                buf[..n].copy_from_slice(&b[..n]);
                Ok(n)
            }
            SnapshotSource::File(p) | SnapshotSource::Mmap(p) => {
                let mut f = std::fs::File::open(p)?;
                let mut filled = 0;
                while filled < buf.len() {
                    let n = f.read(&mut buf[filled..])?;
                    if n == 0 {
                        break;
                    }
                    filled += n;
                }
                Ok(filled)
            }
        }
    }
}

/// Why a snapshot could not be read (or did not describe a usable model).
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The 8 bytes actually found (zero-padded if the file is shorter).
        found: [u8; 8],
    },
    /// The format version is not the one this build reads — an older
    /// artifact (regenerate it with `repro snapshot`) or a newer build's.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// The only version this build reads ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The file ended before a field could be read.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A structurally invalid field (bad UTF-8, impossible shape, a
    /// misaligned or out-of-order payload section, …).
    Corrupt {
        /// Human-readable description.
        context: String,
    },
    /// A stored FNV-1a checksum (header or payload section)
    /// does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the content.
        computed: u64,
    },
    /// A tensor the model kind requires is absent.
    MissingTensor {
        /// The required tensor's name.
        name: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot file (magic {found:?}, expected {MAGIC:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} unsupported (this build reads only \
                     version {supported}); regenerate the snapshot with `repro snapshot`"
                )
            }
            SnapshotError::Truncated { context, needed, have } => {
                write!(
                    f,
                    "snapshot truncated reading {context}: needed {needed} bytes, {have} left"
                )
            }
            SnapshotError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SnapshotError::MissingTensor { name } => {
                write!(f, "snapshot is missing required tensor {name:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Incremental FNV-1a 64 — same family as the CSR fingerprint, so the whole
/// stack shares one hashing idiom.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.finish()
}

fn align_up(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

fn encode_backend(b: Backend) -> u8 {
    match b {
        Backend::Dense => 0,
        Backend::Sparse => 1,
    }
}

/// The reserved word after the tag is written as 0 and not interpreted.
/// Tag 2 (the retired row-sharded backend, which kept its shard count in
/// the reserved word) is refused like any other unknown tag.
fn decode_backend(tag: u8, _reserved: u16) -> Result<Backend, SnapshotError> {
    match tag {
        0 => Ok(Backend::Dense),
        1 => Ok(Backend::Sparse),
        other => Err(SnapshotError::Corrupt { context: format!("unknown backend tag {other}") }),
    }
}

/// The `Tensor` shape of a stored `(rank, rows, cols)` triple.
fn shape_of(rank: u8, rows: usize, cols: usize) -> Vec<usize> {
    match rank {
        0 => vec![],
        1 => vec![rows],
        _ => vec![rows, cols],
    }
}

fn shape_ok(rank: u8, rows: usize, cols: usize) -> bool {
    rank <= 2 && !(rank == 0 && (rows != 1 || cols != 1)) && !(rank == 1 && cols != 1)
}

/// The declared shape of one tensor a [`SnapshotWriter`] will stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorDecl {
    /// Tensor name (the lookup key of [`Snapshot::tensor`]).
    pub name: String,
    /// 0 (scalar), 1 (vector) or 2 (matrix).
    pub rank: u8,
    /// Row count (1 for scalars).
    pub rows: usize,
    /// Column count (1 for scalars and vectors).
    pub cols: usize,
}

impl TensorDecl {
    /// A rank-0 declaration.
    pub fn scalar(name: impl Into<String>) -> Self {
        Self { name: name.into(), rank: 0, rows: 1, cols: 1 }
    }

    /// A rank-1 declaration of length `n`.
    pub fn vector(name: impl Into<String>, n: usize) -> Self {
        Self { name: name.into(), rank: 1, rows: n, cols: 1 }
    }

    /// A rank-2 declaration.
    pub fn matrix(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self { name: name.into(), rank: 2, rows, cols }
    }

    /// The declaration matching an existing tensor.
    pub fn of(name: impl Into<String>, t: &Tensor) -> Self {
        Self { name: name.into(), rank: t.rank(), rows: t.rows(), cols: t.cols() }
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.rows * self.cols
    }
}

/// One parsed directory entry.
#[derive(Clone, Debug)]
struct DirEntry {
    name: String,
    rank: u8,
    rows: usize,
    cols: usize,
    /// Absolute, 64-aligned payload position.
    offset: usize,
    /// FNV-1a over `[payload_start, end)` — leading padding included.
    checksum: u64,
    /// End of the previous section (header region for the first entry).
    payload_start: usize,
}

impl DirEntry {
    fn numel(&self) -> usize {
        self.rows * self.cols
    }

    fn end(&self) -> usize {
        self.offset + self.numel() * 8
    }

    fn shape(&self) -> Vec<usize> {
        shape_of(self.rank, self.rows, self.cols)
    }
}

/// Appends the 64-byte prefix.
fn write_prefix(out: &mut Vec<u8>, header: &SnapshotHeader) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(header.kind.tag());
    out.push(encode_backend(header.backend));
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&header.seed.to_le_bytes());
    out.extend_from_slice(&header.social_fingerprint.to_le_bytes());
    out.extend_from_slice(&header.item_fingerprint.to_le_bytes());
    out.extend_from_slice(&header.n_users.to_le_bytes());
    out.extend_from_slice(&header.n_items.to_le_bytes());
    out.extend_from_slice(&header.mu.to_le_bytes());
    debug_assert_eq!(out.len() % PREFIX_LEN, 0, "prefix must be exactly {PREFIX_LEN} bytes");
}

/// Reads the 52 prefix bytes after magic + version.
fn read_header_fields(r: &mut Reader<'_>) -> Result<SnapshotHeader, SnapshotError> {
    let kind = ModelKind::from_tag(u8::from_le_bytes(r.take::<1>("model kind")?))?;
    let backend_tag = u8::from_le_bytes(r.take::<1>("backend tag")?);
    let reserved = u16::from_le_bytes(r.take::<2>("reserved")?);
    let backend = decode_backend(backend_tag, reserved)?;
    let seed = u64::from_le_bytes(r.take::<8>("seed")?);
    let social_fingerprint = u64::from_le_bytes(r.take::<8>("social fingerprint")?);
    let item_fingerprint = u64::from_le_bytes(r.take::<8>("item fingerprint")?);
    let n_users = u64::from_le_bytes(r.take::<8>("n_users")?);
    let n_items = u64::from_le_bytes(r.take::<8>("n_items")?);
    let mu = f64::from_le_bytes(r.take::<8>("mu")?);
    Ok(SnapshotHeader {
        kind,
        backend,
        seed,
        social_fingerprint,
        item_fingerprint,
        n_users,
        n_items,
        mu,
    })
}

/// Header-region length for the given config / declarations.
fn header_region_len(config_len: usize, decls: &[TensorDecl]) -> usize {
    PREFIX_LEN + 4 + config_len + 4 + decls.iter().map(|d| 35 + d.name.len()).sum::<usize>() + 8
}

/// 64-aligned payload offsets and the exact total file length.
fn payload_offsets(header_len: usize, decls: &[TensorDecl]) -> (Vec<usize>, usize) {
    let mut offsets = Vec::with_capacity(decls.len());
    let mut end = header_len;
    for d in decls {
        let off = align_up(end);
        offsets.push(off);
        end = off + d.numel() * 8;
    }
    (offsets, if decls.is_empty() { header_len } else { end })
}

/// The complete header region: prefix, config, directory, checksum.
fn build_header_region(
    header: &SnapshotHeader,
    config_json: &str,
    decls: &[TensorDecl],
    offsets: &[usize],
    checksums: &[u64],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(header_region_len(config_json.len(), decls));
    write_prefix(&mut out, header);
    out.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    out.extend_from_slice(config_json.as_bytes());
    out.extend_from_slice(&(decls.len() as u32).to_le_bytes());
    for ((d, &off), &ck) in decls.iter().zip(offsets).zip(checksums) {
        out.extend_from_slice(&(d.name.len() as u16).to_le_bytes());
        out.extend_from_slice(d.name.as_bytes());
        out.push(d.rank);
        out.extend_from_slice(&(d.rows as u64).to_le_bytes());
        out.extend_from_slice(&(d.cols as u64).to_le_bytes());
        out.extend_from_slice(&(off as u64).to_le_bytes());
        out.extend_from_slice(&ck.to_le_bytes());
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

impl Snapshot {
    /// The fingerprints a snapshot of `data` would carry — used both at save
    /// time and by [`Snapshot::matches_dataset`].
    pub fn fingerprints_of(data: &Dataset) -> (u64, u64) {
        (data.social.fingerprint(), data.item_graph.fingerprint())
    }

    /// Looks up a tensor by name.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Looks up a tensor by name, failing with [`SnapshotError::MissingTensor`].
    pub fn require(&self, name: &str) -> Result<&Tensor, SnapshotError> {
        self.tensor(name).ok_or_else(|| SnapshotError::MissingTensor { name: name.to_string() })
    }

    /// True when the snapshot's CSR fingerprints match `data`'s graphs — the
    /// invalidation test: a served model is only valid for the exact graph
    /// structure it was fitted on (DESIGN.md §12).
    pub fn matches_dataset(&self, data: &Dataset) -> bool {
        self.header.matches_dataset(data)
    }

    /// The declarations of this snapshot's tensors, in write order.
    fn decls(&self) -> Vec<TensorDecl> {
        self.tensors.iter().map(|(n, t)| TensorDecl::of(n.clone(), t)).collect()
    }

    /// Serializes the snapshot into its byte stream — the same bytes
    /// [`Snapshot::save`] and [`SnapshotWriter`] put on disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sink = Cursor::new(Vec::new());
        let mut w = SectionWriter::new(sink, self.header, &self.config_json, self.decls())
            .expect("in-memory write");
        for (_, t) in &self.tensors {
            w.write(t.data()).expect("in-memory write");
        }
        w.finish().expect("every declared value was written").into_inner()
    }

    /// Parses a snapshot from bytes, validating magic, version, structure
    /// and every checksum. Never panics on malformed input. Equivalent to
    /// [`Snapshot::open`] on [`SnapshotSource::Owned`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let parsed = parse_header(bytes)?;
        verify_sections(bytes, &parsed.entries)?;
        let mut tensors = Vec::with_capacity(parsed.entries.len());
        for e in &parsed.entries {
            let t =
                Tensor::from_le_bytes(&bytes[e.offset..e.end()], &e.shape()).ok_or_else(|| {
                    SnapshotError::Corrupt {
                        context: format!("tensor {:?} payload/shape mismatch", e.name),
                    }
                })?;
            tensors.push((e.name.clone(), t));
        }
        Ok(Snapshot { header: parsed.header, config_json: parsed.config_json, tensors })
    }

    /// The single full-parse entry point: every loader routes here.
    ///
    /// `Owned`/`File` parse on the heap; `Mmap` maps the file, verifies
    /// payloads, then materializes owned tensors (use [`MappedSnapshot`]
    /// directly to keep the zero-copy view).
    pub fn open(source: &SnapshotSource) -> Result<Self, SnapshotError> {
        match source {
            SnapshotSource::Owned(b) => Self::from_bytes(b),
            SnapshotSource::File(p) => Self::from_bytes(&std::fs::read(p)?),
            SnapshotSource::Mmap(p) => {
                let mapped = MappedSnapshot::open(p)?;
                mapped.verify_payloads()?;
                Ok(mapped.to_owned_snapshot())
            }
        }
    }

    /// Reads only the 64-byte prefix and returns the header — O(1) in model
    /// size, so fingerprint checks ([`SnapshotHeader::matches_dataset`],
    /// hot-swap guards) need not read tensor payloads.
    ///
    /// The prefix is *not* covered by a checksum on its own, so a peeked
    /// header is unauthenticated; full validation happens at
    /// [`Snapshot::open`] time.
    pub fn peek(source: &SnapshotSource) -> Result<SnapshotHeader, SnapshotError> {
        let mut buf = [0u8; PREFIX_LEN];
        let n = source.read_head(&mut buf)?;
        read_prefix(&mut Reader { bytes: &buf[..n], pos: 0 })
    }

    /// Writes the snapshot to `path` through a [`SnapshotWriter`]: a temp
    /// file that is synced to disk, then renamed into place, so a crash
    /// mid-write never leaves a half-snapshot behind.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut w = SnapshotWriter::create(path, self.header, &self.config_json, self.decls())?;
        for (_, t) in &self.tensors {
            w.write(t.data())?;
        }
        w.finish()
    }

    /// Reads and parses a snapshot from `path` — a thin wrapper over
    /// [`Snapshot::open`] with a [`SnapshotSource::File`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::open(&SnapshotSource::file(path))
    }
}

/// Parsed header region plus layout facts; payloads untouched.
struct ParsedHeader {
    header: SnapshotHeader,
    config_json: String,
    entries: Vec<DirEntry>,
    total_len: usize,
}

/// Reads and checks magic and version, then the rest of the 64-byte prefix.
/// Any version other than [`FORMAT_VERSION`] is refused here, before a
/// single field of an unknown layout is interpreted.
fn read_prefix(r: &mut Reader<'_>) -> Result<SnapshotHeader, SnapshotError> {
    let magic = r.take::<8>("magic")?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let found = u32::from_le_bytes(r.take::<4>("format version")?);
    if found != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found, supported: FORMAT_VERSION });
    }
    read_header_fields(r)
}

/// Parses and validates the header region (prefix, config, directory,
/// header checksum) and checks the declared layout against `bytes.len()`
/// — O(header), independent of payload size.
fn parse_header(bytes: &[u8]) -> Result<ParsedHeader, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let header = read_prefix(&mut r)?;
    let config_len = u32::from_le_bytes(r.take::<4>("config length")?) as usize;
    let config_bytes = r.slice(config_len, "config JSON")?;
    let config_json = std::str::from_utf8(config_bytes)
        .map_err(|_| SnapshotError::Corrupt { context: "config JSON is not UTF-8".into() })?
        .to_string();

    let count = u32::from_le_bytes(r.take::<4>("tensor count")?) as usize;
    let mut raw = Vec::with_capacity(count.min(64));
    for i in 0..count {
        let name_len = u16::from_le_bytes(r.take::<2>("tensor name length")?) as usize;
        let name = std::str::from_utf8(r.slice(name_len, "tensor name")?)
            .map_err(|_| SnapshotError::Corrupt {
                context: format!("tensor {i} name is not UTF-8"),
            })?
            .to_string();
        let rank = u8::from_le_bytes(r.take::<1>("tensor rank")?);
        let rows = u64::from_le_bytes(r.take::<8>("tensor rows")?) as usize;
        let cols = u64::from_le_bytes(r.take::<8>("tensor cols")?) as usize;
        let offset = u64::from_le_bytes(r.take::<8>("tensor offset")?) as usize;
        let checksum = u64::from_le_bytes(r.take::<8>("tensor checksum")?);
        raw.push((name, rank, rows, cols, offset, checksum));
    }
    let computed = fnv1a(&bytes[..r.pos]);
    let stored = u64::from_le_bytes(r.take::<8>("header checksum")?);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let header_len = r.pos;

    // The directory is now authenticated; validate shapes and the section
    // layout (monotone, 64-aligned, gap-free up to padding).
    let mut entries = Vec::with_capacity(raw.len());
    let mut prev_end = header_len;
    for (name, rank, rows, cols, offset, checksum) in raw {
        if !shape_ok(rank, rows, cols) {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "tensor {name:?} has impossible shape rank={rank} [{rows}, {cols}]"
                ),
            });
        }
        let numel = rows.checked_mul(cols).ok_or_else(|| SnapshotError::Corrupt {
            context: format!("tensor {name:?} shape overflows"),
        })?;
        let expected = align_up(prev_end);
        if offset != expected {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "tensor {name:?} payload at byte {offset}, expected the \
                     {SECTION_ALIGN}-aligned offset {expected}"
                ),
            });
        }
        let end = numel.checked_mul(8).and_then(|b| offset.checked_add(b)).ok_or_else(|| {
            SnapshotError::Corrupt { context: format!("tensor {name:?} payload extent overflows") }
        })?;
        entries.push(DirEntry {
            name,
            rank,
            rows,
            cols,
            offset,
            checksum,
            payload_start: prev_end,
        });
        prev_end = end;
    }
    let total_len = if entries.is_empty() { header_len } else { prev_end };
    if bytes.len() < total_len {
        return Err(SnapshotError::Truncated {
            context: "tensor payload section",
            needed: total_len,
            have: bytes.len(),
        });
    }
    if bytes.len() > total_len {
        return Err(SnapshotError::Corrupt {
            context: format!("{} trailing bytes after the last payload", bytes.len() - total_len),
        });
    }
    Ok(ParsedHeader { header, config_json, entries, total_len })
}

/// Checks every payload section's FNV-1a checksum, leading padding included.
fn verify_sections(bytes: &[u8], entries: &[DirEntry]) -> Result<(), SnapshotError> {
    for e in entries {
        let computed = fnv1a(&bytes[e.payload_start..e.end()]);
        if computed != e.checksum {
            return Err(SnapshotError::ChecksumMismatch { stored: e.checksum, computed });
        }
    }
    Ok(())
}

/// A bounds-checked little-endian cursor; every read failure carries the field
/// being read and the byte deficit.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], SnapshotError> {
        let s = self.slice(N, context)?;
        Ok(s.try_into().expect("slice of requested length"))
    }

    fn slice(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        let have = self.bytes.len().saturating_sub(self.pos);
        if have < n {
            return Err(SnapshotError::Truncated { context, needed: n, have });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Hand-rolled read-only `mmap`, following the workspace's no-libc-crate
/// precedent (serve-net's raw socket FFI): the symbols resolve through the
/// C library `std` already links on unix.
#[cfg(unix)]
mod mapping {
    use std::os::fd::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file. Page-aligned base, so
    /// any 64-aligned offset into it is `f64`-aligned.
    pub(super) struct MmapRegion {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // The mapping is PROT_READ and owned: sharing &self across threads only
    // ever reads immutable pages.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        /// Maps `len` bytes of `file`, or `None` when the kernel refuses
        /// (callers fall back to an aligned heap read).
        pub(super) fn map(file: &std::fs::File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(Self { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// The bytes behind a [`MappedSnapshot`]: a file mapping when the platform
/// grants one, else a `u64`-backed heap buffer. Both keep the base 8-byte
/// aligned (`Vec<u8>` would not), which together with 64-aligned section
/// offsets makes the `&[f64]` payload casts sound.
enum Backing {
    #[cfg(unix)]
    Mapped(mapping::MmapRegion),
    Heap {
        buf: Vec<u64>,
        len: usize,
    },
}

impl Backing {
    fn map_or_read(file: &std::fs::File, len: usize) -> Result<Self, SnapshotError> {
        #[cfg(unix)]
        if let Some(m) = mapping::MmapRegion::map(file, len) {
            return Ok(Backing::Mapped(m));
        }
        let mut buf = vec![0u64; len.div_ceil(8)];
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        let mut f = file;
        f.read_exact(dst)?;
        Ok(Backing::Heap { buf, len })
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            Backing::Heap { .. } => false,
        }
    }
}

/// A zero-copy view of one tensor inside a [`MappedSnapshot`].
#[derive(Clone, Copy)]
pub struct TensorView<'a> {
    rank: u8,
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> TensorView<'a> {
    /// 0, 1 or 2.
    pub fn rank(&self) -> u8 {
        self.rank
    }

    /// Row count (1 for scalars).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count (1 for scalars and vectors).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The row-major payload, straight out of the mapping — no copy.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// An owned copy as a [`Tensor`] (bit-exact).
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.data.to_vec(), &shape_of(self.rank, self.rows, self.cols))
    }
}

/// A snapshot consumed in place: the header region is parsed and
/// authenticated at [`MappedSnapshot::open`] time (O(header), flat in model
/// size), while tensor payloads stay in the file mapping and are handed out
/// as [`TensorView`]s without deserialization.
///
/// Payloads are *not* checksummed at open time — call
/// [`MappedSnapshot::verify_payloads`] when integrity matters more than
/// latency. Requires a little-endian host (payloads are IEEE-754 `f64` LE).
pub struct MappedSnapshot {
    header: SnapshotHeader,
    config_json: String,
    entries: Vec<DirEntry>,
    backing: Backing,
}

impl MappedSnapshot {
    /// Maps `path` and validates its header region (magic, version,
    /// directory shapes/offsets/alignment, header checksum, exact file
    /// length). Falls back to an aligned heap read when `mmap` is
    /// unavailable — the API contract is unchanged, only residency differs.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        if cfg!(target_endian = "big") {
            return Err(SnapshotError::Corrupt {
                context: "zero-copy snapshots require a little-endian host".into(),
            });
        }
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let backing = Backing::map_or_read(&file, len)?;
        let parsed = parse_header(backing.bytes())?;
        debug_assert_eq!(parsed.total_len, len);
        Ok(Self {
            header: parsed.header,
            config_json: parsed.config_json,
            entries: parsed.entries,
            backing,
        })
    }

    /// Provenance and dimensions.
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// The model's hyperparameter JSON.
    pub fn config_json(&self) -> &str {
        &self.config_json
    }

    /// A zero-copy view of the named tensor, if present.
    pub fn view(&self, name: &str) -> Option<TensorView<'_>> {
        let e = self.entries.iter().find(|e| e.name == name)?;
        let bytes = &self.backing.bytes()[e.offset..e.end()];
        debug_assert_eq!(bytes.as_ptr() as usize % 8, 0, "section alignment violated");
        let data = unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, e.numel()) };
        Some(TensorView { rank: e.rank, rows: e.rows, cols: e.cols, data })
    }

    /// Like [`MappedSnapshot::view`], failing with
    /// [`SnapshotError::MissingTensor`].
    pub fn require_view(&self, name: &str) -> Result<TensorView<'_>, SnapshotError> {
        self.view(name).ok_or_else(|| SnapshotError::MissingTensor { name: name.to_string() })
    }

    /// Verifies every payload section's FNV-1a checksum (padding included) —
    /// the full-integrity pass [`MappedSnapshot::open`] deliberately skips.
    pub fn verify_payloads(&self) -> Result<(), SnapshotError> {
        verify_sections(self.backing.bytes(), &self.entries)
    }

    /// Materializes an owned [`Snapshot`] (copies every payload).
    pub fn to_owned_snapshot(&self) -> Snapshot {
        let tensors = self
            .entries
            .iter()
            .map(|e| {
                let v = self.view(&e.name).expect("entry name views itself");
                (e.name.clone(), v.to_tensor())
            })
            .collect();
        Snapshot { header: self.header, config_json: self.config_json.clone(), tensors }
    }

    /// True when payloads live in a file mapping rather than the heap.
    pub fn is_zero_copy(&self) -> bool {
        self.backing.is_mapped()
    }
}

/// The one section encoder behind every writer: reserves the header region,
/// streams payload sections (leading zero padding, then little-endian
/// values) while checksumming each, and back-patches the header region at
/// [`SectionWriter::finish`]. Generic over the sink, so
/// [`Snapshot::to_bytes`] (an in-memory cursor) and [`SnapshotWriter`] (a
/// buffered file) emit the same bytes by construction.
struct SectionWriter<W: Write + Seek> {
    out: W,
    header: SnapshotHeader,
    config_json: String,
    decls: Vec<TensorDecl>,
    offsets: Vec<usize>,
    pos: usize,
    current: usize,
    remaining: usize,
    open: bool,
    fnv: Fnv,
    checksums: Vec<u64>,
    buf: Vec<u8>,
}

impl<W: Write + Seek> SectionWriter<W> {
    /// Starts a snapshot on `out` (positioned at 0) with a zeroed
    /// placeholder header region. `decls` must already be shape-checked.
    fn new(
        mut out: W,
        header: SnapshotHeader,
        config_json: &str,
        decls: Vec<TensorDecl>,
    ) -> Result<Self, SnapshotError> {
        let header_len = header_region_len(config_json.len(), &decls);
        let (offsets, _total) = payload_offsets(header_len, &decls);
        out.write_all(&vec![0u8; header_len])?;
        Ok(Self {
            out,
            header,
            config_json: config_json.to_string(),
            decls,
            offsets,
            pos: header_len,
            current: 0,
            remaining: 0,
            open: false,
            fnv: Fnv::new(),
            checksums: Vec::new(),
            buf: Vec::with_capacity(8 * 4096),
        })
    }

    /// Opens the next undrained tensor section (writing its leading
    /// padding); returns false when all declared tensors are complete.
    fn ensure_open(&mut self) -> Result<bool, SnapshotError> {
        while !self.open {
            if self.current >= self.decls.len() {
                return Ok(false);
            }
            let off = self.offsets[self.current];
            let pad = off - self.pos;
            let zeros = [0u8; SECTION_ALIGN];
            self.fnv.update(&zeros[..pad]);
            self.out.write_all(&zeros[..pad])?;
            self.pos = off;
            self.remaining = self.decls[self.current].numel();
            self.open = true;
            if self.remaining == 0 {
                self.close_current();
            }
        }
        Ok(true)
    }

    fn close_current(&mut self) {
        self.checksums.push(self.fnv.finish());
        self.fnv = Fnv::new();
        self.current += 1;
        self.open = false;
    }

    /// See [`SnapshotWriter::write`].
    fn write(&mut self, mut vals: &[f64]) -> Result<(), SnapshotError> {
        while !vals.is_empty() {
            if !self.ensure_open()? {
                return Err(SnapshotError::Corrupt {
                    context: "snapshot writer received more values than declared".into(),
                });
            }
            let take = vals.len().min(self.remaining);
            for chunk in vals[..take].chunks(4096) {
                self.buf.clear();
                for v in chunk {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
                self.fnv.update(&self.buf);
                self.out.write_all(&self.buf)?;
            }
            self.pos += take * 8;
            self.remaining -= take;
            if self.remaining == 0 {
                self.close_current();
            }
            vals = &vals[take..];
        }
        Ok(())
    }

    /// Verifies every declared tensor was fully written, rewrites the header
    /// region with the real checksums, and hands the sink back.
    fn finish(mut self) -> Result<W, SnapshotError> {
        if self.ensure_open()? {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "snapshot writer finished with tensor {:?} missing {} values",
                    self.decls[self.current].name, self.remaining
                ),
            });
        }
        debug_assert_eq!(self.checksums.len(), self.decls.len());
        let region = build_header_region(
            &self.header,
            &self.config_json,
            &self.decls,
            &self.offsets,
            &self.checksums,
        );
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&region)?;
        Ok(self.out)
    }
}

/// Streams a snapshot to disk without materializing any tensor: declare
/// shapes up front, then [`SnapshotWriter::write`] values in declaration
/// order (row-major, in as many calls as convenient — a million-user
/// embedding goes out chunk by chunk). [`SnapshotWriter::finish`]
/// back-patches the directory checksums, syncs the file and atomically
/// renames it into place.
pub struct SnapshotWriter {
    sections: SectionWriter<std::io::BufWriter<std::fs::File>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl SnapshotWriter {
    /// Starts a snapshot at `path` (via a `.snap.tmp` sibling). The header
    /// region is reserved with placeholder checksums and rewritten at
    /// [`SnapshotWriter::finish`] time.
    pub fn create(
        path: impl AsRef<Path>,
        header: SnapshotHeader,
        config_json: &str,
        decls: Vec<TensorDecl>,
    ) -> Result<Self, SnapshotError> {
        for d in &decls {
            if !shape_ok(d.rank, d.rows, d.cols) {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "declared tensor {:?} has impossible shape rank={} [{}, {}]",
                        d.name, d.rank, d.rows, d.cols
                    ),
                });
            }
        }
        let path = path.as_ref().to_path_buf();
        let tmp = path.with_extension("snap.tmp");
        let out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        let sections = SectionWriter::new(out, header, config_json, decls)?;
        Ok(Self { sections, tmp, path })
    }

    /// Appends `vals` to the payload stream, crossing tensor boundaries in
    /// declaration order. Fails with [`SnapshotError::Corrupt`] when more
    /// values arrive than were declared.
    pub fn write(&mut self, vals: &[f64]) -> Result<(), SnapshotError> {
        self.sections.write(vals)
    }

    /// Seals the file: verifies every declared tensor was fully written,
    /// rewrites the header region with the real checksums, syncs the temp
    /// file to disk, renames it over `path`, and syncs the directory.
    pub fn finish(self) -> Result<(), SnapshotError> {
        let file = self.sections.finish()?.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        // The rename is durable only once the directory entry is.
        #[cfg(unix)]
        {
            let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::HetRec,
                backend: Backend::Sparse,
                seed: 42,
                social_fingerprint: 0xdead,
                item_fingerprint: 0xbeef,
                n_users: 3,
                n_items: 2,
                mu: 3.25,
            },
            config_json: "{\"dim\":2}".to_string(),
            tensors: vec![
                ("a".to_string(), Tensor::from_vec(vec![1.0, -0.0, f64::MIN, 4.5e-300], &[2, 2])),
                ("b".to_string(), Tensor::from_vec(vec![0.5, 1.5, 2.5], &[3])),
                ("s".to_string(), Tensor::scalar(7.0)),
            ],
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("msopds-snap-{tag}-{}.snap", std::process::id()))
    }

    fn assert_same(a: &Snapshot, b: &Snapshot) {
        assert_eq!(a.header, b.header);
        assert_eq!(a.config_json, b.config_json);
        assert_eq!(a.tensors.len(), b.tensors.len());
        for ((n1, t1), (n2, t2)) in a.tensors.iter().zip(&b.tensors) {
            assert_eq!(n1, n2);
            assert!(t1.bit_eq(t2), "tensor {n1} changed bits");
        }
    }

    #[test]
    fn byte_round_trip_is_bit_exact() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        assert_same(&snap, &Snapshot::from_bytes(&bytes).unwrap());
    }

    /// The format is frozen: the bytes of the reference snapshot may not
    /// move, whichever writer emits them.
    #[test]
    fn to_bytes_is_pinned() {
        let bytes = tiny_snapshot().to_bytes();
        assert_eq!(bytes.len(), 392);
        assert_eq!(fnv1a(&bytes), 0xaf45_1779_2314_94f7);
    }

    #[test]
    fn file_round_trip() {
        let snap = tiny_snapshot();
        let path = temp_path("file");
        snap.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snap.to_bytes(), "save differs from to_bytes");
        let back = Snapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.header, snap.header);
        assert!(back.tensor("a").unwrap().bit_eq(snap.tensor("a").unwrap()));
    }

    #[test]
    fn open_reads_every_source_kind() {
        let snap = tiny_snapshot();
        let path = temp_path("open");
        snap.save(&path).unwrap();
        let owned = Snapshot::open(&SnapshotSource::Owned(snap.to_bytes())).unwrap();
        let file = Snapshot::open(&SnapshotSource::file(&path)).unwrap();
        let mapped = Snapshot::open(&SnapshotSource::mmap(&path)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_same(&snap, &owned);
        assert_same(&snap, &file);
        assert_same(&snap, &mapped);
    }

    #[test]
    fn peek_reads_header_without_payloads() {
        let snap = tiny_snapshot();
        // The prefix alone is enough — hand peek a 64-byte stub.
        let stub = SnapshotSource::Owned(snap.to_bytes()[..64].to_vec());
        assert_eq!(Snapshot::peek(&stub).unwrap(), snap.header);
        let mut short = snap.to_bytes();
        short.truncate(40);
        assert!(matches!(
            Snapshot::peek(&SnapshotSource::Owned(short)),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn retired_sharded_backend_tag_is_corrupt() {
        for reserved in [0, 4] {
            assert!(matches!(decode_backend(2, reserved), Err(SnapshotError::Corrupt { .. })));
        }
        assert_eq!(decode_backend(0, 0).unwrap(), Backend::Dense);
        assert_eq!(decode_backend(1, 0).unwrap(), Backend::Sparse);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::from_bytes(&bytes), Err(SnapshotError::BadMagic { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = tiny_snapshot().to_bytes();
        for cut in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut} gave unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let reference = tiny_snapshot().to_bytes();
        // Past the header region every byte (padding included) is covered by
        // exactly one payload-section checksum.
        let snap = tiny_snapshot();
        let first_payload = align_up(header_region_len(snap.config_json.len(), &snap.decls()));
        for pos in 0..reference.len() {
            let mut bytes = reference.clone();
            bytes[pos] ^= 0x40;
            let err = Snapshot::from_bytes(&bytes)
                .err()
                .unwrap_or_else(|| panic!("flip at {pos} went undetected"));
            if pos >= first_payload {
                assert!(
                    matches!(err, SnapshotError::ChecksumMismatch { .. }),
                    "payload flip at {pos} gave {err}"
                );
            }
        }
    }

    #[test]
    fn misaligned_section_offset_is_corrupt() {
        let snap = tiny_snapshot();
        let mut bytes = snap.to_bytes();
        // Directory entry 0's offset field position is fully determined by
        // the layout: prefix + config(len+json) + count + name(len+"a") +
        // rank + rows + cols.
        let field = 64 + 4 + snap.config_json.len() + 4 + 2 + 1 + 1 + 8 + 8;
        let stored = u64::from_le_bytes(bytes[field..field + 8].try_into().unwrap());
        bytes[field..field + 8].copy_from_slice(&(stored + 8).to_le_bytes());
        // Re-authenticate the header so only the alignment rule can object.
        let header_len = header_region_len(snap.config_json.len(), &snap.decls());
        let ck = fnv1a(&bytes[..header_len - 8]);
        bytes[header_len - 8..header_len].copy_from_slice(&ck.to_le_bytes());
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt { .. }), "got {err}");
        let path = temp_path("misaligned");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedSnapshot::open(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(mapped, Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn mapped_views_match_heap_tensors() {
        let snap = tiny_snapshot();
        let path = temp_path("mmap");
        snap.save(&path).unwrap();
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.header(), &snap.header);
        assert_eq!(mapped.config_json(), snap.config_json);
        for (name, t) in &snap.tensors {
            let v = mapped.require_view(name).unwrap();
            assert_eq!(v.data().as_ptr() as usize % 8, 0, "unaligned view");
            assert_eq!((v.rank(), v.rows(), v.cols()), (t.rank(), t.rows(), t.cols()));
            assert!(v.to_tensor().bit_eq(t), "view of {name} changed bits");
        }
        mapped.verify_payloads().unwrap();
        #[cfg(unix)]
        assert!(mapped.is_zero_copy());
        assert!(matches!(mapped.require_view("nope"), Err(SnapshotError::MissingTensor { .. })));
        assert_same(&snap, &mapped.to_owned_snapshot());
        // A payload flip is invisible to open() but caught by the opt-in pass.
        let mut bytes = snap.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let tampered = MappedSnapshot::open(&path).unwrap();
        assert!(matches!(tampered.verify_payloads(), Err(SnapshotError::ChecksumMismatch { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_streams_byte_identical_files() {
        let snap = tiny_snapshot();
        let path = temp_path("writer");
        let mut w =
            SnapshotWriter::create(&path, snap.header, &snap.config_json, snap.decls()).unwrap();
        // Deliberately ragged writes: cross tensor boundaries mid-call.
        let all: Vec<f64> =
            snap.tensors.iter().flat_map(|(_, t)| t.data().iter().copied()).collect();
        w.write(&all[..3]).unwrap();
        w.write(&all[3..5]).unwrap();
        w.write(&all[5..]).unwrap();
        w.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, snap.to_bytes(), "streamed file differs from to_bytes");
    }

    #[test]
    fn writer_rejects_wrong_cardinality() {
        let snap = tiny_snapshot();
        let path = temp_path("writer-err");
        let decls = snap.decls();
        let mut w =
            SnapshotWriter::create(&path, snap.header, &snap.config_json, decls.clone()).unwrap();
        w.write(&[0.0; 4]).unwrap();
        assert!(matches!(w.finish(), Err(SnapshotError::Corrupt { .. })));
        let mut w = SnapshotWriter::create(&path, snap.header, &snap.config_json, decls).unwrap();
        assert!(matches!(w.write(&[0.0; 9]), Err(SnapshotError::Corrupt { .. })));
        std::fs::remove_file(path.with_extension("snap.tmp")).ok();
    }

    #[test]
    fn missing_tensor_is_typed() {
        let snap = tiny_snapshot();
        assert!(snap.tensor("a").is_some());
        assert!(matches!(
            snap.require("nope"),
            Err(SnapshotError::MissingTensor { name }) if name == "nope"
        ));
    }
}
