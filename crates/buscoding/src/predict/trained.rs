//! Offline-trained prediction: the versioned artifact format and the
//! [`TrainedPredictor`] scheme that deploys it.
//!
//! Every other predictor in this crate learns *online*, inside the
//! trace it is priced on. A trained predictor splits that into two
//! phases: the `bustrain` crate fits tables over a *corpus* of traces
//! offline, persists them as a versioned artifact
//! (`<dir>/<name>-v1.bin`), and this module loads the artifact and
//! plugs it into the shared predictive engine as the scheme
//! `trained:<name>`. The tables are frozen at load time — the encoder
//! and decoder stay synchronized because neither end mutates them, and
//! only the (deterministic) value history differs per trace.
//!
//! Three table families ride in one artifact:
//!
//! * a **frequency-ranked codebook** — globally frequent values earn
//!   low-weight codewords regardless of recency (the fixed low-weight
//!   coder framing of Valentini/Chiani);
//! * **signature tables** — gem5-style variable-length signatures: an
//!   FNV hash of the last *k* values maps to the most frequent
//!   successor seen in training, tried longest-context first with
//!   fallback to shorter signatures;
//! * a **stride seed table** — the corpus's most frequent value deltas,
//!   offered as `last + delta` candidates.
//!
//! The on-disk format is hand-rolled in the same spirit as
//! [`bustrace::io`]: a magic, an explicit schema version, and
//! FNV-checksummed sections, validated on load with typed
//! [`ArtifactError`]s — never a panic, whatever the bytes.

use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use bustrace::hash::{fnv1a, FNV_OFFSET, FNV_PRIME};
use bustrace::{Width, Word};

use crate::energy::CostModel;
use crate::predict::{predictive_codec, PredictiveDecoder, PredictiveEncoder, Predictor};

/// Artifact file magic.
const MAGIC: [u8; 4] = *b"BTRN";

/// The artifact schema version this build reads and writes. The version
/// is part of the file *name* (`<name>-v1.bin`) as well as the header,
/// so incompatible artifacts never shadow each other on disk.
pub const ARTIFACT_VERSION: u32 = 1;

/// Hard ceiling on entries per table section — a corrupt length field
/// must not become a multi-gigabyte allocation.
const MAX_ENTRIES: usize = 1 << 22;

/// Longest accepted artifact name.
const MAX_NAME: usize = 64;

/// Longest accepted signature order (values hashed per context).
const MAX_ORDER: u32 = 16;

/// The file name an artifact of `name` is stored under.
pub fn artifact_file_name(name: &str) -> String {
    format!("{name}-v{ARTIFACT_VERSION}.bin")
}

/// Whether `name` is a valid artifact name: 1–64 ASCII characters from
/// `[a-z0-9_-]`. Artifact names appear inside scheme names
/// (`trained:<name>`) and file names, so the alphabet is deliberately
/// narrow.
pub fn valid_artifact_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
}

/// One signature table: hash of the last `order` values → the most
/// frequent successor observed in training. Entries are sorted by hash
/// (strictly ascending) so lookup is a binary search and the byte
/// encoding is canonical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureTable {
    /// How many preceding values form the signature.
    pub order: u32,
    /// `(signature hash, predicted successor)`, sorted by hash.
    pub entries: Vec<(u64, Word)>,
}

impl SignatureTable {
    /// The predicted successor for `hash`, if the table has it.
    pub fn lookup(&self, hash: u64) -> Option<Word> {
        self.entries
            .binary_search_by_key(&hash, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// Everything a trained artifact carries: the fitted tables plus the
/// provenance needed to reason about them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainedTables {
    /// Artifact name (also the `trained:<name>` scheme suffix).
    pub name: String,
    /// Bus width the tables were trained at; deployment widths must
    /// match.
    pub width: Width,
    /// Total words accumulated during training.
    pub trained_values: u64,
    /// Training traces accumulated.
    pub trained_traces: u32,
    /// Frequency-ranked values, most frequent first.
    pub codebook: Vec<Word>,
    /// Signature tables, orders strictly ascending.
    pub signatures: Vec<SignatureTable>,
    /// Frequency-ranked value deltas, most frequent first (never 0 —
    /// the engine's LAST rank already covers repeats).
    pub strides: Vec<Word>,
}

impl TrainedTables {
    /// An empty table set (useful as a starting point in tests).
    pub fn empty(name: impl Into<String>, width: Width) -> Self {
        TrainedTables {
            name: name.into(),
            width,
            trained_values: 0,
            trained_traces: 0,
            codebook: Vec::new(),
            signatures: Vec::new(),
            strides: Vec::new(),
        }
    }

    /// Structural validation shared by the encoder and decoder: name
    /// alphabet, ascending orders, sorted signature hashes, in-range
    /// values, bounded sizes.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        if !valid_artifact_name(&self.name) {
            return Err(ArtifactError::Malformed(format!(
                "artifact name {:?} is not 1-{MAX_NAME} chars of [a-z0-9_-]",
                self.name
            )));
        }
        let mask = self.width.mask();
        let check_values = |what: &str, values: &[Word]| -> Result<(), ArtifactError> {
            if values.len() > MAX_ENTRIES {
                return Err(ArtifactError::Malformed(format!(
                    "{what} has {} entries (max {MAX_ENTRIES})",
                    values.len()
                )));
            }
            match values.iter().find(|&&v| v > mask) {
                Some(v) => Err(ArtifactError::Malformed(format!(
                    "{what} value {v:#x} exceeds the {} mask",
                    self.width
                ))),
                None => Ok(()),
            }
        };
        check_values("codebook", &self.codebook)?;
        check_values("stride table", &self.strides)?;
        if self.strides.contains(&0) {
            return Err(ArtifactError::Malformed(
                "stride table contains 0 (covered by the LAST rank)".into(),
            ));
        }
        let mut prev_order = 0u32;
        for table in &self.signatures {
            if table.order <= prev_order || table.order > MAX_ORDER {
                return Err(ArtifactError::Malformed(format!(
                    "signature orders must be strictly ascending in 1..={MAX_ORDER}, got {}",
                    table.order
                )));
            }
            prev_order = table.order;
            if table.entries.len() > MAX_ENTRIES {
                return Err(ArtifactError::Malformed(format!(
                    "signature table (order {}) has {} entries (max {MAX_ENTRIES})",
                    table.order,
                    table.entries.len()
                )));
            }
            let mut prev_hash: Option<u64> = None;
            for &(hash, succ) in &table.entries {
                if prev_hash.is_some_and(|p| p >= hash) {
                    return Err(ArtifactError::Malformed(format!(
                        "signature table (order {}) hashes are not strictly ascending",
                        table.order
                    )));
                }
                prev_hash = Some(hash);
                if succ > mask {
                    return Err(ArtifactError::Malformed(format!(
                        "signature successor {succ:#x} exceeds the {} mask",
                        self.width
                    )));
                }
            }
        }
        Ok(())
    }

    /// Total entries across every table — the artifact's "size" for
    /// reporting.
    pub fn total_entries(&self) -> usize {
        self.codebook.len()
            + self.strides.len()
            + self
                .signatures
                .iter()
                .map(|t| t.entries.len())
                .sum::<usize>()
    }
}

/// Why an artifact could not be loaded (or written). Every variant is a
/// typed condition — corrupt bytes surface here, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// No artifact file at this path — the scheme was never trained
    /// here. The daemon maps this to its `artifact_missing` wire error.
    Missing {
        /// The path that was probed.
        path: PathBuf,
    },
    /// The file exists but could not be read or written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error, stringified.
        detail: String,
    },
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The header names a schema version this build does not read.
    UnsupportedVersion(u32),
    /// The file ended before the structure it promised.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored FNV checksum.
    ChecksumMismatch {
        /// The four-character section tag.
        section: String,
    },
    /// Structurally invalid content (bad name, unsorted tables,
    /// out-of-range values, unknown or duplicate sections, trailing
    /// bytes).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Missing { path } => write!(
                f,
                "trained artifact not found at {} (run `repro train` first)",
                path.display()
            ),
            ArtifactError::Io { path, detail } => {
                write!(f, "artifact i/o error at {}: {detail}", path.display())
            }
            ArtifactError::BadMagic => write!(f, "not a trained artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => write!(
                f,
                "artifact schema version {v} is not supported (this build reads v{ARTIFACT_VERSION})"
            ),
            ArtifactError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            ArtifactError::ChecksumMismatch { section } => {
                write!(f, "artifact section {section:?} fails its checksum")
            }
            ArtifactError::Malformed(detail) => write!(f, "malformed artifact: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Order-preserving FNV-1a over whole words — the signature hash. The
/// full 64-bit digest is kept (no table-index masking), so accidental
/// collisions are negligible and the trained tables stay exact.
pub fn signature_hash<I: Iterator<Item = Word>>(values: I) -> u64 {
    values.fold(FNV_OFFSET, |h, v| (h ^ v).wrapping_mul(FNV_PRIME))
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    push_u32(out, payload.len() as u32);
    push_u64(out, fnv1a(payload));
    out.extend_from_slice(payload);
}

/// Serializes `tables` into the versioned binary format. The encoding
/// is canonical: equal tables always produce identical bytes, which is
/// what makes the cross-run byte-identity guarantee checkable.
///
/// # Errors
///
/// [`ArtifactError::Malformed`] if the tables fail
/// [`TrainedTables::validate`].
pub fn encode_artifact(tables: &TrainedTables) -> Result<Vec<u8>, ArtifactError> {
    tables.validate()?;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, ARTIFACT_VERSION);
    push_u32(&mut out, tables.width.bits());
    push_u32(&mut out, tables.name.len() as u32);
    out.extend_from_slice(tables.name.as_bytes());
    push_u32(&mut out, 3 + tables.signatures.len() as u32);

    let mut meta = Vec::new();
    push_u64(&mut meta, tables.trained_values);
    push_u32(&mut meta, tables.trained_traces);
    push_u32(&mut meta, 0); // reserved
    push_section(&mut out, b"META", &meta);

    let mut cbok = Vec::new();
    push_u32(&mut cbok, tables.codebook.len() as u32);
    for &v in &tables.codebook {
        push_u64(&mut cbok, v);
    }
    push_section(&mut out, b"CBOK", &cbok);

    for table in &tables.signatures {
        let mut sig = Vec::new();
        push_u32(&mut sig, table.order);
        push_u32(&mut sig, table.entries.len() as u32);
        for &(hash, succ) in &table.entries {
            push_u64(&mut sig, hash);
            push_u64(&mut sig, succ);
        }
        push_section(&mut out, b"SIGT", &sig);
    }

    let mut strd = Vec::new();
    push_u32(&mut strd, tables.strides.len() as u32);
    for &v in &tables.strides {
        push_u64(&mut strd, v);
    }
    push_section(&mut out, b"STRD", &strd);
    Ok(out)
}

/// A bounds-checked little-endian reader: every read can fail with a
/// typed [`ArtifactError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ArtifactError::Truncated { context })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ArtifactError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ArtifactError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn read_count(r: &mut Reader<'_>, context: &'static str) -> Result<usize, ArtifactError> {
    let n = r.u32(context)? as usize;
    if n > MAX_ENTRIES {
        return Err(ArtifactError::Malformed(format!(
            "{context} promises {n} entries (max {MAX_ENTRIES})"
        )));
    }
    Ok(n)
}

/// Decodes an artifact from its exact byte image, validating magic,
/// version, section checksums, and table structure.
///
/// # Errors
///
/// A typed [`ArtifactError`] for every way the bytes can be wrong; this
/// function never panics on arbitrary input.
pub fn decode_artifact(bytes: &[u8]) -> Result<TrainedTables, ArtifactError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4, "magic")? != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = r.u32("version")?;
    if version != ARTIFACT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let bits = r.u32("width")?;
    let width = Width::new(bits)
        .map_err(|e| ArtifactError::Malformed(format!("header width {bits}: {e}")))?;
    let name_len = r.u32("name length")? as usize;
    if name_len > MAX_NAME {
        return Err(ArtifactError::Malformed(format!(
            "name length {name_len} exceeds {MAX_NAME}"
        )));
    }
    let name = std::str::from_utf8(r.take(name_len, "name")?)
        .map_err(|_| ArtifactError::Malformed("name is not UTF-8".into()))?
        .to_string();
    let section_count = r.u32("section count")? as usize;
    if section_count > 3 + MAX_ORDER as usize {
        return Err(ArtifactError::Malformed(format!(
            "{section_count} sections promised (max {})",
            3 + MAX_ORDER
        )));
    }

    let mut tables = TrainedTables::empty(name, width);
    let mut seen_meta = false;
    let mut seen_cbok = false;
    let mut seen_strd = false;
    for _ in 0..section_count {
        let tag: [u8; 4] = r.take(4, "section tag")?.try_into().expect("4 bytes");
        let len = r.u32("section length")? as usize;
        let checksum = r.u64("section checksum")?;
        let payload = r.take(len, "section payload")?;
        if fnv1a(payload) != checksum {
            return Err(ArtifactError::ChecksumMismatch {
                section: String::from_utf8_lossy(&tag).into_owned(),
            });
        }
        let mut s = Reader {
            bytes: payload,
            pos: 0,
        };
        match &tag {
            b"META" => {
                if seen_meta {
                    return Err(ArtifactError::Malformed("duplicate META section".into()));
                }
                seen_meta = true;
                tables.trained_values = s.u64("META values")?;
                tables.trained_traces = s.u32("META traces")?;
                let _reserved = s.u32("META reserved")?;
            }
            b"CBOK" => {
                if seen_cbok {
                    return Err(ArtifactError::Malformed("duplicate CBOK section".into()));
                }
                seen_cbok = true;
                let n = read_count(&mut s, "codebook")?;
                tables.codebook.reserve(n);
                for _ in 0..n {
                    tables.codebook.push(s.u64("codebook entry")?);
                }
            }
            b"SIGT" => {
                let order = s.u32("signature order")?;
                let n = read_count(&mut s, "signature table")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let hash = s.u64("signature hash")?;
                    let succ = s.u64("signature successor")?;
                    entries.push((hash, succ));
                }
                tables.signatures.push(SignatureTable { order, entries });
            }
            b"STRD" => {
                if seen_strd {
                    return Err(ArtifactError::Malformed("duplicate STRD section".into()));
                }
                seen_strd = true;
                let n = read_count(&mut s, "stride table")?;
                tables.strides.reserve(n);
                for _ in 0..n {
                    tables.strides.push(s.u64("stride entry")?);
                }
            }
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(other)
                )));
            }
        }
        if !s.done() {
            return Err(ArtifactError::Malformed(format!(
                "section {:?} carries trailing bytes",
                String::from_utf8_lossy(&tag)
            )));
        }
    }
    if !(seen_meta && seen_cbok && seen_strd) {
        return Err(ArtifactError::Malformed(
            "missing required section (META, CBOK, STRD)".into(),
        ));
    }
    if !r.done() {
        return Err(ArtifactError::Malformed(format!(
            "{} trailing bytes after the last section",
            bytes.len() - r.pos
        )));
    }
    tables.validate()?;
    Ok(tables)
}

/// Loads and validates an artifact file.
///
/// # Errors
///
/// [`ArtifactError::Missing`] when the file does not exist, `Io` when
/// it cannot be read, and the [`decode_artifact`] errors for bad bytes.
pub fn load_artifact(path: &Path) -> Result<TrainedTables, ArtifactError> {
    let bytes = std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            ArtifactError::Missing {
                path: path.to_path_buf(),
            }
        } else {
            ArtifactError::Io {
                path: path.to_path_buf(),
                detail: e.to_string(),
            }
        }
    })?;
    decode_artifact(&bytes)
}

/// Loads the artifact called `name` from `dir`
/// (`<dir>/<name>-v1.bin`).
///
/// # Errors
///
/// [`ArtifactError::Malformed`] for an invalid name, otherwise the
/// [`load_artifact`] errors; additionally `Malformed` when the file's
/// embedded name disagrees with the file name it was loaded under.
pub fn load_named_artifact(dir: &Path, name: &str) -> Result<TrainedTables, ArtifactError> {
    if !valid_artifact_name(name) {
        return Err(ArtifactError::Malformed(format!(
            "artifact name {name:?} is not 1-{MAX_NAME} chars of [a-z0-9_-]"
        )));
    }
    let tables = load_artifact(&dir.join(artifact_file_name(name)))?;
    if tables.name != name {
        return Err(ArtifactError::Malformed(format!(
            "artifact file for {name:?} embeds the name {:?}",
            tables.name
        )));
    }
    Ok(tables)
}

/// Writes `tables` to `<dir>/<name>-v1.bin` atomically (temp file +
/// rename, the `bustrace::io::save_trace` idiom), creating `dir` if
/// needed. Returns the final path.
///
/// # Errors
///
/// [`ArtifactError::Malformed`] if validation fails, `Io` for
/// filesystem errors.
pub fn save_artifact(tables: &TrainedTables, dir: &Path) -> Result<PathBuf, ArtifactError> {
    let bytes = encode_artifact(tables)?;
    let io_err = |path: &Path, e: std::io::Error| ArtifactError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(artifact_file_name(&tables.name));
    let tmp = path.with_extension("bin.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(&path, e)
    })?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Artifact directory resolution
// ---------------------------------------------------------------------

/// Process-wide artifact directory override (tests and the `repro`
/// binary set it; everything else falls back to the environment).
static ARTIFACT_DIR: RwLock<Option<PathBuf>> = RwLock::new(None);

/// Pins the artifact directory for this process, overriding the
/// environment-derived default. The `repro` front ends call this with
/// `<out>/trained` so the registry and the CLI agree on one location.
pub fn set_artifact_dir(dir: impl Into<PathBuf>) {
    *ARTIFACT_DIR
        .write()
        .unwrap_or_else(|e| e.into_inner()) = Some(dir.into());
}

/// Where `trained:<name>` schemes look for artifacts: the explicit
/// [`set_artifact_dir`] override if set, else `$BUSTRAIN_DIR`, else
/// `$REPRO_OUT/trained`, else `results/trained` — i.e. next to the
/// `REPRO_CACHE` trace store by default.
pub fn artifact_dir() -> PathBuf {
    if let Some(dir) = ARTIFACT_DIR
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
    {
        return dir;
    }
    if let Ok(dir) = std::env::var("BUSTRAIN_DIR") {
        return PathBuf::from(dir);
    }
    let out = std::env::var("REPRO_OUT").unwrap_or_else(|_| "results".into());
    Path::new(&out).join("trained")
}

/// The artifact names available under `dir`, sorted. A missing or
/// unreadable directory is simply empty — callers use this to decide
/// whether to advertise `trained:*` candidates at all.
pub fn available_artifacts(dir: &Path) -> Vec<String> {
    let suffix = format!("-v{ARTIFACT_VERSION}.bin");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter_map(|f| f.strip_suffix(&suffix).map(str::to_string))
                .filter(|n| valid_artifact_name(n))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names.dedup();
    names
}

// ---------------------------------------------------------------------
// The deployed predictor
// ---------------------------------------------------------------------

/// A predictor whose tables were fitted offline. Candidate order:
///
/// 1. the longest-signature match (variable-length fallback through the
///    shorter tables);
/// 2. `last + stride` for each trained stride, most frequent first;
/// 3. the frequency-ranked codebook values.
///
/// Only the value history mutates at run time; the tables are shared
/// (`Arc`) and frozen, so encoder and decoder instances stay
/// synchronized exactly like every online predictor in this crate.
#[derive(Debug, Clone)]
pub struct TrainedPredictor {
    tables: Arc<TrainedTables>,
    /// Last `max_order` observed values, newest at the back.
    history: VecDeque<Word>,
    max_order: usize,
}

impl TrainedPredictor {
    /// Wraps frozen tables in a power-on predictor.
    pub fn new(tables: Arc<TrainedTables>) -> Self {
        let max_order = tables
            .signatures
            .iter()
            .map(|t| t.order as usize)
            .max()
            .unwrap_or(0)
            .max(1);
        TrainedPredictor {
            tables,
            history: VecDeque::with_capacity(max_order),
            max_order,
        }
    }

    /// The frozen tables this predictor deploys.
    pub fn tables(&self) -> &TrainedTables {
        &self.tables
    }

    /// The longest-context signature prediction, falling back through
    /// shorter orders (the gem5 variable-length-signature walk).
    fn signature_prediction(&self) -> Option<Word> {
        for table in self.tables.signatures.iter().rev() {
            let k = table.order as usize;
            if self.history.len() < k {
                continue;
            }
            let hash = signature_hash(self.history.iter().skip(self.history.len() - k).copied());
            if let Some(succ) = table.lookup(hash) {
                return Some(succ);
            }
        }
        None
    }
}

impl Predictor for TrainedPredictor {
    fn name(&self) -> String {
        format!("trained:{}", self.tables.name)
    }

    fn max_candidates(&self) -> usize {
        1 + self.tables.strides.len() + self.tables.codebook.len()
    }

    fn candidate(&self, index: usize) -> Option<Word> {
        let mut index = index;
        if let Some(sig) = self.signature_prediction() {
            if index == 0 {
                return Some(sig);
            }
            index -= 1;
        }
        if let Some(&last) = self.history.back() {
            if index < self.tables.strides.len() {
                let stride = self.tables.strides[index];
                return Some(self.tables.width.truncate(last.wrapping_add(stride)));
            }
            index -= self.tables.strides.len();
        }
        self.tables.codebook.get(index).copied()
    }

    fn observe(&mut self, value: Word) {
        if self.history.len() == self.max_order {
            self.history.pop_front();
        }
        self.history.push_back(value);
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Builds a matched encoder/decoder pair deploying `tables`.
pub fn trained_codec(
    tables: Arc<TrainedTables>,
    cost: CostModel,
) -> (
    PredictiveEncoder<TrainedPredictor>,
    PredictiveDecoder<TrainedPredictor>,
) {
    predictive_codec(tables.width, TrainedPredictor::new(tables), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::verify_roundtrip;
    use bustrace::Trace;

    fn sample_tables() -> TrainedTables {
        TrainedTables {
            name: "sample".into(),
            width: Width::W32,
            trained_values: 1234,
            trained_traces: 3,
            codebook: vec![0xCAFE, 0xBEEF, 7, 0],
            signatures: vec![
                SignatureTable {
                    order: 1,
                    entries: {
                        let mut e = vec![
                            (signature_hash([10u64].into_iter()), 20u64),
                            (signature_hash([20u64].into_iter()), 30u64),
                        ];
                        e.sort_by_key(|&(h, _)| h);
                        e
                    },
                },
                SignatureTable {
                    order: 2,
                    entries: {
                        let mut e = vec![(signature_hash([10u64, 20].into_iter()), 31u64)];
                        e.sort_by_key(|&(h, _)| h);
                        e
                    },
                },
            ],
            strides: vec![4, 0x100],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let t = sample_tables();
        let bytes = encode_artifact(&t).unwrap();
        assert_eq!(decode_artifact(&bytes).unwrap(), t);
    }

    #[test]
    fn encoding_is_canonical() {
        let t = sample_tables();
        assert_eq!(encode_artifact(&t).unwrap(), encode_artifact(&t).unwrap());
    }

    #[test]
    fn bad_magic_version_and_truncation_are_typed() {
        let t = sample_tables();
        let bytes = encode_artifact(&t).unwrap();
        assert_eq!(decode_artifact(b"NOPE"), Err(ArtifactError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            decode_artifact(&wrong_version),
            Err(ArtifactError::UnsupportedVersion(9))
        );
        for cut in [0, 3, 7, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_artifact(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. }
                        | ArtifactError::BadMagic
                        | ArtifactError::Malformed(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_its_checksum() {
        let t = sample_tables();
        let mut bytes = encode_artifact(&t).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // inside the STRD payload
        assert!(matches!(
            decode_artifact(&bytes).unwrap_err(),
            ArtifactError::ChecksumMismatch { section } if section == "STRD"
        ));
    }

    #[test]
    fn invalid_tables_are_rejected_on_encode() {
        let mut t = sample_tables();
        t.name = "Not Valid!".into();
        assert!(matches!(
            encode_artifact(&t).unwrap_err(),
            ArtifactError::Malformed(_)
        ));
        let mut t = sample_tables();
        t.strides.push(0);
        assert!(encode_artifact(&t).is_err());
        let mut t = sample_tables();
        t.signatures[0].entries.reverse();
        assert!(encode_artifact(&t).is_err());
    }

    #[test]
    fn save_load_named_and_missing() {
        let dir = std::env::temp_dir().join(format!("trained-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = sample_tables();
        let path = save_artifact(&t, &dir).unwrap();
        assert_eq!(path, dir.join("sample-v1.bin"));
        assert_eq!(load_named_artifact(&dir, "sample").unwrap(), t);
        assert!(matches!(
            load_named_artifact(&dir, "absent").unwrap_err(),
            ArtifactError::Missing { .. }
        ));
        assert!(load_named_artifact(&dir, "BAD NAME").is_err());
        assert_eq!(available_artifacts(&dir), vec!["sample".to_string()]);
        assert!(available_artifacts(&dir.join("nope")).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predictor_offers_signature_then_strides_then_codebook() {
        let mut p = TrainedPredictor::new(Arc::new(sample_tables()));
        // Cold: no history, so no signature and no strides — codebook only.
        assert_eq!(p.candidate(0), Some(0xCAFE));
        p.observe(10);
        // History [10]: order-1 signature predicts 20, strides offer
        // 10+4 and 10+0x100, then the codebook.
        assert_eq!(p.candidate(0), Some(20));
        assert_eq!(p.candidate(1), Some(14));
        assert_eq!(p.candidate(2), Some(10 + 0x100));
        assert_eq!(p.candidate(3), Some(0xCAFE));
        p.observe(20);
        // History [10, 20]: the order-2 table wins over order-1.
        assert_eq!(p.candidate(0), Some(31));
        p.reset();
        assert_eq!(p.candidate(0), Some(0xCAFE));
    }

    #[test]
    fn trained_codec_round_trips_on_mixed_traffic() {
        let tables = Arc::new(sample_tables());
        let (mut enc, mut dec) = trained_codec(tables, CostModel::default());
        let mut trace = Trace::new(Width::W32);
        let mut x = 9u64;
        for i in 0..4000u64 {
            match i % 4 {
                0 => trace.push(10),
                1 => trace.push(20),
                2 => trace.push(0xCAFE),
                _ => {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                    trace.push(x >> 25);
                }
            }
        }
        verify_roundtrip(&mut enc, &mut dec, &trace).unwrap();
    }

    #[test]
    fn artifact_names_are_validated() {
        assert!(valid_artifact_name("demo"));
        assert!(valid_artifact_name("a-b_c9"));
        assert!(!valid_artifact_name(""));
        assert!(!valid_artifact_name("Demo"));
        assert!(!valid_artifact_name("a b"));
        assert!(!valid_artifact_name(&"x".repeat(65)));
    }
}
