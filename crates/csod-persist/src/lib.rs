//! # csod-persist — crash-safe cross-run context persistence
//!
//! The paper's second-execution guarantee (Section V-A2) — a corrupted
//! canary boosts its allocation context to 100 % "and is always
//! detected … during their second execution" — only holds if the boost
//! survives process death, *including death caused by the overflow
//! itself*. This crate is the durable half of that loop: an append-only
//! write-ahead log of context records (canary evidence, trap
//! signatures, mitigation confirmations) that the runtime appends to
//! *before* a report leaves the process, and replays on the next start.
//!
//! Durability discipline:
//!
//! * **Checksummed frames.** Every record is framed as
//!   `marker ‖ len ‖ fnv1a(payload) ‖ payload`, so a bit-flipped or
//!   torn record fails its checksum instead of being believed.
//! * **Versioned header.** Files open with `CSODWAL1` plus a format
//!   version; an unrecognized header demotes the whole file to a
//!   byte-scan, it never aborts recovery.
//! * **Skip-and-count recovery.** [`Wal::recover`] tolerates truncated
//!   tails, torn writes and corrupted bytes by resynchronizing on the
//!   frame marker, counting each skipped region in
//!   [`RecoveredState::skipped_corrupt`]. It never panics and never
//!   returns a record that failed validation.
//! * **Atomic compaction.** [`Wal::compact`] writes a fresh snapshot to
//!   a sibling temp file and `rename`s it into place, so a crash during
//!   compaction leaves either the old log or the new one, never a mix.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::perf)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: the first eight bytes of every WAL.
pub const MAGIC: [u8; 8] = *b"CSODWAL1";

/// Current on-disk format version, written after the magic.
pub const VERSION: u32 = 1;

/// Header length in bytes: magic plus little-endian version.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// Two-byte frame marker recovery resynchronizes on.
const MARKER: [u8; 2] = [0xC5, 0x0D];

/// Frame bytes before the payload: marker + payload length (u16 LE) +
/// FNV-1a checksum of the payload (u64 LE).
const FRAME_OVERHEAD: usize = 2 + 2 + 8;

/// Fixed payload prefix: record kind (u8) + boost in ppm (u32 LE).
const PAYLOAD_FIXED: usize = 1 + 4;

/// Probability scale: boosts are parts per million, so any decoded
/// value above this is hostile input and the record is rejected.
const PPM_SCALE: u32 = 1_000_000;

/// Longest signature preserved per record; longer ones are truncated at
/// a UTF-8 boundary on append so a pathological backtrace cannot
/// overrun the u16 length field.
pub const MAX_SIGNATURE_BYTES: usize = 4096;

/// What a persisted context record asserts about its context.
///
/// Ordered by evidential strength: a mitigation confirmation subsumes a
/// trap signature, which subsumes canary evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// A canary was found corrupted for this context (free-time or
    /// exit-sweep discovery) — certain overflow, imprecise site.
    CanaryEvidence,
    /// A hardware watchpoint trapped on this context — certain
    /// overflow, precise overflowing statement.
    TrapSignature,
    /// The runtime confirmed the context for hardened (mitigated)
    /// allocations.
    Mitigated,
}

impl RecordKind {
    /// Stable wire tag.
    pub fn tag(self) -> u8 {
        match self {
            RecordKind::CanaryEvidence => 1,
            RecordKind::TrapSignature => 2,
            RecordKind::Mitigated => 3,
        }
    }

    /// Decodes a wire tag; unknown tags are invalid records.
    pub fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::CanaryEvidence),
            2 => Some(RecordKind::TrapSignature),
            3 => Some(RecordKind::Mitigated),
            _ => None,
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordKind::CanaryEvidence => "canary-evidence",
            RecordKind::TrapSignature => "trap-signature",
            RecordKind::Mitigated => "mitigated",
        })
    }
}

/// One persisted context record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// What this record asserts.
    pub kind: RecordKind,
    /// The watch probability the context is entitled to on the next
    /// run, in parts per million (the paper pins evidence at 100 %).
    pub boost_ppm: u32,
    /// Canonical context signature: frame locations joined by `|`,
    /// innermost first (the evidence-store format).
    pub signature: String,
}

impl WalRecord {
    /// A record with the signature truncated to [`MAX_SIGNATURE_BYTES`]
    /// at a character boundary.
    pub fn new(kind: RecordKind, boost_ppm: u32, signature: impl Into<String>) -> WalRecord {
        let mut signature = signature.into();
        if signature.len() > MAX_SIGNATURE_BYTES {
            let mut cut = MAX_SIGNATURE_BYTES;
            while !signature.is_char_boundary(cut) {
                cut -= 1;
            }
            signature.truncate(cut);
        }
        WalRecord {
            kind,
            boost_ppm: boost_ppm.min(PPM_SCALE),
            signature,
        }
    }
}

/// What [`Wal::recover`] salvaged from a possibly hostile file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredState {
    /// Every record that passed checksum and payload validation, in
    /// append order.
    pub records: Vec<WalRecord>,
    /// `records.len()` as a counter (convenience for stats plumbing).
    pub recovered: u64,
    /// Corrupt regions skipped during the scan: one count per
    /// resynchronization, covering truncated tails, torn writes and
    /// bit-flipped frames (a bad header also counts one).
    pub skipped_corrupt: u64,
}

impl RecoveredState {
    /// Collapses the log to one record per signature, keeping the
    /// strongest kind and the highest boost seen — the snapshot
    /// [`Wal::compact`] is fed with. Delegates to the shared
    /// [`Strongest`] accumulator, so recovery compaction and the fleet
    /// aggregation engine can never disagree on what "strongest" means.
    pub fn strongest(&self) -> Vec<WalRecord> {
        let mut acc = Strongest::new();
        acc.absorb_all(&self.records);
        acc.into_records()
    }
}

/// The strongest-per-signature merge: the one shared definition of how
/// context records combine, used by WAL compaction
/// ([`RecoveredState::strongest`], the runtime's clean-exit compaction)
/// and by the fleet aggregation engine (`csod-fleet`) alike.
///
/// The merge is a join on the evidence lattice — per signature it keeps
/// the maximum [`RecordKind`] (mitigation confirmation ≥ trap signature
/// ≥ canary evidence) and the maximum boost — which makes it
/// **commutative, associative and idempotent**: any interleaving,
/// grouping or replay of the same records produces the same collapsed
/// state. That algebra is what lets thousands of per-process WALs be
/// merged chunk by chunk, in any order, in parallel (and is pinned by
/// the fleet merge property suite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Strongest {
    best: BTreeMap<String, (RecordKind, u32)>,
    absorbed: u64,
}

impl Strongest {
    /// An empty accumulator.
    pub fn new() -> Strongest {
        Strongest::default()
    }

    /// Folds one record in: its signature's entry keeps the strongest
    /// kind and the highest boost seen so far.
    pub fn absorb(&mut self, rec: &WalRecord) {
        self.absorb_parts(rec.kind, rec.boost_ppm, &rec.signature);
    }

    /// [`Strongest::absorb`] without requiring an assembled
    /// [`WalRecord`].
    pub fn absorb_parts(&mut self, kind: RecordKind, boost_ppm: u32, signature: &str) {
        self.absorbed += 1;
        match self.best.get_mut(signature) {
            Some(entry) => {
                entry.0 = entry.0.max(kind);
                entry.1 = entry.1.max(boost_ppm);
            }
            None => {
                self.best.insert(signature.to_owned(), (kind, boost_ppm));
            }
        }
    }

    /// Folds a batch of records in.
    pub fn absorb_all<'a>(&mut self, records: impl IntoIterator<Item = &'a WalRecord>) {
        for rec in records {
            self.absorb(rec);
        }
    }

    /// Merges another accumulator in (the fleet store joins each ingest
    /// chunk's accumulator into its own this way).
    pub fn merge(&mut self, other: &Strongest) {
        self.absorbed += other.absorbed;
        for (sig, &(kind, boost)) in &other.best {
            match self.best.get_mut(sig) {
                Some(entry) => {
                    entry.0 = entry.0.max(kind);
                    entry.1 = entry.1.max(boost);
                }
                None => {
                    self.best.insert(sig.clone(), (kind, boost));
                }
            }
        }
    }

    /// Distinct signatures absorbed so far.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// `true` when nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Total records folded in (before collapsing).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// The strongest evidence recorded for `signature`, if any.
    pub fn get(&self, signature: &str) -> Option<(RecordKind, u32)> {
        self.best.get(signature).copied()
    }

    /// Iterates the collapsed `(signature, kind, boost)` state in
    /// signature order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, RecordKind, u32)> {
        self.best.iter().map(|(s, &(k, b))| (s.as_str(), k, b))
    }

    /// The collapsed state as one [`WalRecord`] per signature, in
    /// signature order — ready for [`Wal::compact`].
    pub fn into_records(self) -> Vec<WalRecord> {
        self.best
            .into_iter()
            .map(|(signature, (kind, boost_ppm))| WalRecord {
                kind,
                boost_ppm,
                signature,
            })
            .collect()
    }
}

/// FNV-1a over a byte slice — the per-record checksum (dependency-free
/// and plenty for torn-write and bit-flip detection; this is not a
/// cryptographic integrity claim).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Serializes one record to its framed wire form.
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let rec = WalRecord::new(rec.kind, rec.boost_ppm, rec.signature.clone());
    let len = PAYLOAD_FIXED + rec.signature.len();
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + len);
    out.extend_from_slice(&MARKER);
    #[allow(clippy::cast_possible_truncation)] // len ≤ 5 + MAX_SIGNATURE_BYTES < u16::MAX
    out.extend_from_slice(&(len as u16).to_le_bytes());
    let mut payload = Vec::with_capacity(len);
    payload.push(rec.kind.tag());
    payload.extend_from_slice(&rec.boost_ppm.to_le_bytes());
    payload.extend_from_slice(rec.signature.as_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Attempts to decode one record at `pos`; `None` on any validation
/// failure (the caller resynchronizes). On success returns the record
/// and its total encoded length.
fn parse_record(bytes: &[u8], pos: usize) -> Option<(WalRecord, usize)> {
    let b = bytes.get(pos..)?;
    if b.len() < FRAME_OVERHEAD + PAYLOAD_FIXED || b[..2] != MARKER {
        return None;
    }
    let len = usize::from(u16::from_le_bytes([b[2], b[3]]));
    // No writer frames a signature longer than `MAX_SIGNATURE_BYTES`,
    // so a longer frame is damage, not a record.
    if !(PAYLOAD_FIXED..=PAYLOAD_FIXED + MAX_SIGNATURE_BYTES).contains(&len) {
        return None;
    }
    let total = FRAME_OVERHEAD + len;
    if b.len() < total {
        return None;
    }
    let checksum = u64::from_le_bytes(b[4..12].try_into().ok()?);
    let payload = &b[12..total];
    if fnv1a(payload) != checksum {
        return None;
    }
    let kind = RecordKind::from_tag(payload[0])?;
    let boost_ppm = u32::from_le_bytes(payload[1..5].try_into().ok()?);
    if boost_ppm > PPM_SCALE {
        return None;
    }
    let signature = std::str::from_utf8(&payload[5..]).ok()?.to_owned();
    Some((
        WalRecord {
            kind,
            boost_ppm,
            signature,
        },
        total,
    ))
}

/// The log image [`Wal::compact`] writes for `records`: the versioned
/// header, then each record's frame in order.
///
/// The framing is canonical: for any non-empty `bytes` whose [`scan`]
/// skips nothing, `snapshot(&scan(bytes).records) == bytes`. So two logs
/// that recover the same records cleanly hold the same bytes. (The
/// empty file scans clean too, but its snapshot is the bare header.)
pub fn snapshot(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    for rec in records {
        out.extend_from_slice(&encode_record(rec));
    }
    out
}

/// Scans raw log bytes, salvaging every valid record. Pure function of
/// the bytes, total (never panics), and shared by recovery and tests.
pub fn scan(bytes: &[u8]) -> RecoveredState {
    let mut state = RecoveredState::default();
    if bytes.is_empty() {
        return state;
    }
    let mut pos = 0;
    if bytes.len() >= HEADER_LEN
        && bytes[..MAGIC.len()] == MAGIC
        && u32::from_le_bytes(bytes[MAGIC.len()..HEADER_LEN].try_into().expect("4 bytes"))
            == VERSION
    {
        pos = HEADER_LEN;
    } else {
        // Unknown or damaged header: count it and fall back to a raw
        // scan of the whole file — the frames are self-validating.
        state.skipped_corrupt += 1;
    }
    let mut resyncing = false;
    while pos < bytes.len() {
        match parse_record(bytes, pos) {
            Some((rec, total)) => {
                state.records.push(rec);
                state.recovered += 1;
                pos += total;
                resyncing = false;
            }
            None => {
                if !resyncing {
                    state.skipped_corrupt += 1;
                    resyncing = true;
                }
                pos += 1;
            }
        }
    }
    state
}

/// An append-only write-ahead log handle.
///
/// Opening, appending and syncing are best-effort in the spirit of the
/// observability sinks: an unwritable path degrades to a no-op log
/// rather than taking the traced process down ([`Wal::is_open`] tells).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Option<File>,
    appended: u64,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending,
    /// writing the versioned header when the file is empty.
    pub fn open(path: &Path) -> Wal {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()
            .and_then(|mut f| {
                if f.metadata().ok()?.len() == 0 {
                    let mut header = Vec::with_capacity(HEADER_LEN);
                    header.extend_from_slice(&MAGIC);
                    header.extend_from_slice(&VERSION.to_le_bytes());
                    f.write_all(&header).ok()?;
                }
                Some(f)
            });
        Wal {
            path: path.to_owned(),
            file,
            appended: 0,
        }
    }

    /// The path this log writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `false` when the file could not be opened and appends are
    /// dropped.
    pub fn is_open(&self) -> bool {
        self.file.is_some()
    }

    /// Records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one record (best-effort, no sync).
    pub fn append(&mut self, rec: &WalRecord) {
        let encoded = encode_record(rec);
        if let Some(file) = self.file.as_mut() {
            if file.write_all(&encoded).is_ok() {
                self.appended += 1;
            }
        }
    }

    /// Appends only the first `keep` bytes of the record's encoding —
    /// a torn write, as left behind by a process killed mid-append.
    /// Exists for the kill-chaos harness and the recovery tests.
    pub fn append_partial(&mut self, rec: &WalRecord, keep: usize) {
        let encoded = encode_record(rec);
        let keep = keep.min(encoded.len());
        if let Some(file) = self.file.as_mut() {
            let _ = file.write_all(&encoded[..keep]);
        }
    }

    /// Forces appended records to stable storage (best-effort).
    pub fn sync(&mut self) {
        if let Some(file) = self.file.as_mut() {
            let _ = file.sync_all();
        }
    }

    /// Replays the log at `path`, salvaging everything salvageable.
    ///
    /// Never returns an error and never panics: a missing file is an
    /// empty state, an unreadable or hostile file yields whatever
    /// records validate, with the damage counted in
    /// [`RecoveredState::skipped_corrupt`].
    pub fn recover(path: &Path) -> RecoveredState {
        match fs::read(path) {
            Ok(bytes) => scan(&bytes),
            Err(_) => RecoveredState::default(),
        }
    }

    /// Atomically replaces the log at `path` with a fresh [`snapshot`]
    /// holding exactly `records`: the snapshot is written to a sibling
    /// temp file, synced, and `rename`d over the log, so a crash at any
    /// point leaves a complete old or new log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the snapshot (the
    /// old log is untouched on error).
    pub fn compact(path: &Path, records: &[WalRecord]) -> io::Result<()> {
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&snapshot(records))?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, sig: &str) -> WalRecord {
        WalRecord::new(kind, 1_000_000, sig)
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("csod-persist-unit");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.wal", std::process::id()))
    }

    #[test]
    fn round_trip_recovers_everything() {
        let path = temp("roundtrip");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        assert!(wal.is_open());
        let records = vec![
            rec(RecordKind::CanaryEvidence, "a.c:1|main.c:2"),
            rec(RecordKind::TrapSignature, "b.c:7|main.c:2"),
            rec(RecordKind::Mitigated, "a.c:1|main.c:2"),
        ];
        for r in &records {
            wal.append(r);
        }
        wal.sync();
        assert_eq!(wal.appended(), 3);
        let state = Wal::recover(&path);
        assert_eq!(state.records, records);
        assert_eq!(state.recovered, 3);
        assert_eq!(state.skipped_corrupt, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_state() {
        let state = Wal::recover(Path::new("/definitely/not/here.wal"));
        assert_eq!(state, RecoveredState::default());
    }

    #[test]
    fn truncated_tail_is_skipped_and_counted() {
        let path = temp("torn");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        wal.append(&rec(RecordKind::CanaryEvidence, "keep.c:1"));
        wal.append_partial(&rec(RecordKind::TrapSignature, "torn.c:2"), 9);
        drop(wal);
        let state = Wal::recover(&path);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].signature, "keep.c:1");
        assert_eq!(state.skipped_corrupt, 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_in_the_middle_resyncs_to_later_records() {
        let path = temp("middle");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        wal.append(&rec(RecordKind::CanaryEvidence, "one.c:1"));
        wal.append_partial(&rec(RecordKind::TrapSignature, "interrupted.c:9"), 7);
        wal.append(&rec(RecordKind::Mitigated, "two.c:2"));
        drop(wal);
        let state = Wal::recover(&path);
        let sigs: Vec<&str> = state.records.iter().map(|r| r.signature.as_str()).collect();
        assert_eq!(sigs, vec!["one.c:1", "two.c:2"]);
        assert!(state.skipped_corrupt >= 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_never_resurrects_the_record() {
        let path = temp("flip");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        let victim = rec(RecordKind::TrapSignature, "victim.c:3|main.c:1");
        wal.append(&victim);
        drop(wal);
        let clean = fs::read(&path).unwrap();
        // Flip one bit in every byte position in turn; recovery must
        // never panic and never yield a record that differs from the
        // original (a corrupted frame is dropped, not repaired).
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            let state = scan(&bytes);
            for r in &state.records {
                assert_eq!(r, &victim, "byte {i}: corrupted record resurrected");
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_header_version_demotes_to_raw_scan() {
        let path = temp("version");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        wal.append(&rec(RecordKind::CanaryEvidence, "still.c:4"));
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        bytes[MAGIC.len()] = 0xFF; // future version
        let state = scan(&bytes);
        assert_eq!(state.records.len(), 1, "frames are self-validating");
        assert!(state.skipped_corrupt >= 1, "bad header is counted");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_is_atomic_and_lossless() {
        let path = temp("compact");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        for i in 0..10 {
            wal.append(&rec(
                RecordKind::CanaryEvidence,
                &format!("dup.c:{}", i % 2),
            ));
        }
        wal.append(&rec(RecordKind::TrapSignature, "dup.c:0"));
        drop(wal);
        let strongest = Wal::recover(&path).strongest();
        assert_eq!(strongest.len(), 2);
        Wal::compact(&path, &strongest).unwrap();
        let state = Wal::recover(&path);
        assert_eq!(state.records, strongest);
        assert_eq!(state.skipped_corrupt, 0);
        let kinds: Vec<RecordKind> = state.records.iter().map(|r| r.kind).collect();
        assert!(
            kinds.contains(&RecordKind::TrapSignature),
            "strongest kind kept"
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn strongest_keeps_max_kind_and_boost() {
        let state = RecoveredState {
            records: vec![
                WalRecord::new(RecordKind::Mitigated, 900_000, "s"),
                WalRecord::new(RecordKind::CanaryEvidence, 1_000_000, "s"),
            ],
            recovered: 2,
            skipped_corrupt: 0,
        };
        let best = state.strongest();
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].kind, RecordKind::Mitigated);
        assert_eq!(best[0].boost_ppm, 1_000_000);
    }

    #[test]
    fn strongest_accumulator_is_order_and_grouping_insensitive() {
        let records = vec![
            WalRecord::new(RecordKind::CanaryEvidence, 700_000, "a"),
            WalRecord::new(RecordKind::TrapSignature, 400_000, "a"),
            WalRecord::new(RecordKind::Mitigated, 100_000, "b"),
            WalRecord::new(RecordKind::CanaryEvidence, 1_000_000, "b"),
        ];
        let mut forward = Strongest::new();
        forward.absorb_all(&records);
        let mut backward = Strongest::new();
        for rec in records.iter().rev() {
            backward.absorb(rec);
        }
        // Split into two accumulators, then merge (the k-way step).
        let mut left = Strongest::new();
        left.absorb_all(&records[..2]);
        let mut right = Strongest::new();
        right.absorb_all(&records[2..]);
        left.merge(&right);
        assert_eq!(forward.clone().into_records(), backward.into_records());
        assert_eq!(forward.clone().into_records(), left.into_records());
        // Idempotent: replaying the same records changes nothing.
        let once = forward.clone();
        forward.absorb_all(&records);
        assert_eq!(once.into_records(), forward.clone().into_records());
        // The collapse itself: max kind and max boost per signature.
        assert_eq!(forward.get("a"), Some((RecordKind::TrapSignature, 700_000)));
        assert_eq!(forward.get("b"), Some((RecordKind::Mitigated, 1_000_000)));
        assert_eq!(forward.len(), 2);
        assert_eq!(forward.absorbed(), 8);
    }

    #[test]
    fn hostile_garbage_never_panics() {
        // A few handfuls of adversarial byte soups, including ones that
        // embed valid-looking markers and absurd lengths.
        let mut soup = vec![0xC5u8, 0x0D, 0xFF, 0xFF];
        soup.extend_from_slice(&[0xC5, 0x0D]);
        soup.extend_from_slice(&[0xC5; 64]);
        for bytes in [&[][..], &[0xC5][..], &soup[..]] {
            let state = scan(bytes);
            assert!(state.records.is_empty());
        }
    }

    #[test]
    fn oversized_signature_is_truncated_not_lost() {
        let big = "x".repeat(MAX_SIGNATURE_BYTES + 100);
        let r = WalRecord::new(RecordKind::CanaryEvidence, 1, big);
        assert_eq!(r.signature.len(), MAX_SIGNATURE_BYTES);
        let encoded = encode_record(&r);
        let state = scan(&encoded);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].signature.len(), MAX_SIGNATURE_BYTES);
    }

    #[test]
    fn frame_longer_than_any_writer_makes_is_damage() {
        // A well-checksummed frame whose signature exceeds the append
        // cap: recovery skips and counts it, so every clean log stays
        // its own snapshot.
        let sig = "y".repeat(MAX_SIGNATURE_BYTES + 1);
        let mut payload = vec![RecordKind::Mitigated.tag()];
        payload.extend_from_slice(&PPM_SCALE.to_le_bytes());
        payload.extend_from_slice(sig.as_bytes());
        let mut bytes = snapshot(&[]);
        bytes.extend_from_slice(&MARKER);
        bytes.extend_from_slice(&u16::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let state = scan(&bytes);
        assert!(state.records.is_empty());
        assert_eq!(state.skipped_corrupt, 1);
        // The longest signature a writer does frame still round-trips.
        let longest = rec(RecordKind::Mitigated, &"y".repeat(MAX_SIGNATURE_BYTES));
        let image = snapshot(std::slice::from_ref(&longest));
        assert_eq!(scan(&image).records, vec![longest]);
        // The one clean input that is not its own snapshot.
        assert_eq!(scan(&[]), RecoveredState::default());
        assert_eq!(snapshot(&[]).len(), HEADER_LEN);
    }

    #[test]
    fn unwritable_path_degrades_silently() {
        let mut wal = Wal::open(Path::new("/nonexistent-dir/x/y.wal"));
        assert!(!wal.is_open());
        wal.append(&rec(RecordKind::CanaryEvidence, "dropped.c:1"));
        wal.sync();
        assert_eq!(wal.appended(), 0);
    }
}
