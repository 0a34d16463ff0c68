//! The supervisor journal: crash tolerance for the control plane.
//!
//! PR-7 gave each *worker* a WAL so a worker SIGKILL is lossless. This
//! module gives the *supervisor* the same discipline, so the process
//! that owns the metadata mirror, the books, the global LRU clock, and
//! the serve-loop state is no longer the single point of loss. Every
//! mirror mutation the supervisor commits is appended as a checksummed
//! frame in the store codec's container (`[len][body][checksum]`,
//! replayed with [`replay_frame_file`]'s torn-tail rules), and each
//! serve cycle is sealed by a [`JournalFrame::Commit`] carrying the
//! authoritative clock, per-shard seq high-water marks, shard health,
//! the [`ServeCheckpoint`] of the cycle loop, and the response lines this
//! commit made emittable.
//!
//! **Delta commits (format version 2).** The checkpoint's only field
//! that grows with the trace is the stats' `waits`. A WAL commit carries
//! just the waits appended since the previous sealed commit, labelled
//! with the count they start at (`waits_base`); the commit sealing a
//! compaction snapshot carries the full vector (base 0), and so does the
//! first commit of every journaled run. Recovery concatenates the deltas
//! while folding: a commit whose base is neither 0 nor the count sealed
//! so far is a corrupt frame, ending the log there, so recovery keeps
//! state through the previous sealed commit and never hands back a short
//! `waits`. The bytes a commit appends thus depend only on its cycle.
//!
//! **Commit granularity.** Mutation frames are buffered in memory and
//! written with their sealing `Commit` in one append, so the on-disk
//! log is a sequence of commit groups (plus at most one torn tail).
//! Recovery folds frames in order but only *keeps* state up to the last
//! complete `Commit`: a torn group is a cycle the supervisor died
//! inside, and the standby re-derives it by re-running the loop
//! iteration from the sealed checkpoint — deterministically, so the
//! response stream is byte-identical to a run that never died.
//!
//! **Metadata only.** Like the mirror itself, the journal stores
//! `(key → epoch, last_use)` and the books, never plan bytes: recovered
//! entries rehydrate as adopted metadata and the plans are fetched from
//! the workers' own WAL-backed stores on first hit. Failover therefore
//! preserves byte-identity exactly when worker persistence is on — the
//! same contract worker restarts already carry.
//!
//! Compaction follows PR-7 verbatim: a snapshot (per-shard state frames
//! plus the sealing `Commit`) is published tmp+rename, then the WAL is
//! truncated. Journal I/O failure is never fatal — the owner counts it
//! and drops the journal, degrading to the unjournaled tier.

use deco_core::codec::{put_u32, put_u64, put_u8, Reader};
use deco_core::DecoError;
use deco_serve::checkpoint::ServeCheckpoint;
use deco_serve::store::{
    append_frame, encode_frame, replay_frame_file, write_frames_atomic_cadenced,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version byte leading every journal frame body. Version 2 made commit
/// `waits` a delta; version 3 marks the word-wise content keys (keys
/// written under the byte-wise derivation name no entry this build can
/// reach) and drops the retry key-budget field from commit checkpoints.
/// Bodies of any other version are rejected as corrupt.
pub const JOURNAL_VERSION: u8 = 3;

/// WAL file name inside the journal directory (public so chaos tests
/// can truncate and corrupt it from outside).
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the journal directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const TAG_PUT: u8 = 1;
const TAG_TOUCH: u8 = 2;
const TAG_DEL: u8 = 3;
const TAG_STRIKE: u8 = 4;
const TAG_CLEAR_KEY: u8 = 5;
const TAG_QUARANTINE_KEY: u8 = 6;
const TAG_EPOCH: u8 = 7;
const TAG_PURGE: u8 = 8;
const TAG_DROP_SHARD: u8 = 9;
const TAG_COMMIT: u8 = 10;

fn corrupt(what: impl Into<String>) -> DecoError {
    DecoError::Store(format!("journal corrupt: {}", what.into()))
}

fn journal_err(op: &str, path: &Path, e: std::io::Error) -> DecoError {
    DecoError::Store(format!("journal {op} {}: {e}", path.display()))
}

/// Restart-strike standing of one shard at commit time, so a standby
/// rehydrates [`super::monitor::LivenessMonitor`] books instead of
/// granting every shard a fresh budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    pub strikes: u32,
    pub quarantined: bool,
}

/// The record sealing one committed serve cycle, as decoded.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// Supervisor cycle counter at the boundary.
    pub cycle: u64,
    /// The global LRU clock — authoritative over any folded `last_use`.
    pub clock: u64,
    /// Per-shard mutation seq high-water marks (`Hello.resume_seq` on
    /// re-adopt).
    pub shard_seqs: Vec<u64>,
    pub shard_health: Vec<ShardHealth>,
    /// The cycle loop's resumable state. In a decoded WAL frame,
    /// `serve.stats.waits` holds only the waits from index `waits_base`
    /// on; a recovered record always holds them all.
    pub serve: ServeCheckpoint,
    /// Index of `serve.stats.waits[0]` in the run's full waits vector:
    /// 0 for a full record, the previous commit's count for a delta.
    pub waits_base: u64,
    /// Canonical response lines this commit made emittable (the delta;
    /// lines before it number `serve.emitted - lines.len()`).
    pub lines: Vec<String>,
}

impl CommitRecord {
    /// Borrow the record as a commit to seal.
    pub fn view(&self) -> CommitView<'_> {
        CommitView {
            cycle: self.cycle,
            clock: self.clock,
            shard_seqs: &self.shard_seqs,
            shard_health: &self.shard_health,
            serve: &self.serve,
            lines: &self.lines,
        }
    }
}

/// A commit to seal, borrowed from its owners so sealing copies nothing
/// (see [`SupervisorJournal::commit`]). `serve.stats.waits` is the full
/// vector; the journal decides which suffix the WAL frame carries.
#[derive(Debug, Clone, Copy)]
pub struct CommitView<'a> {
    pub cycle: u64,
    pub clock: u64,
    pub shard_seqs: &'a [u64],
    pub shard_health: &'a [ShardHealth],
    pub serve: &'a ServeCheckpoint,
    pub lines: &'a [String],
}

/// Append a commit body (after the version byte) whose checkpoint
/// carries `waits` labelled as starting at `waits_base`. The checkpoint
/// is written in place behind a patched length word: encoded once.
fn put_commit(out: &mut Vec<u8>, c: &CommitView<'_>, waits_base: u64, waits: &[f64]) {
    put_u8(out, TAG_COMMIT);
    put_u64(out, c.cycle);
    put_u64(out, c.clock);
    put_u64(out, c.shard_seqs.len() as u64);
    for &s in c.shard_seqs {
        put_u64(out, s);
    }
    put_u64(out, c.shard_health.len() as u64);
    for h in c.shard_health {
        put_u32(out, h.strikes);
        put_u8(out, h.quarantined as u8);
    }
    let at = out.len();
    put_u64(out, 0);
    c.serve.encode_with_waits(out, waits_base, waits);
    let ck_len = (out.len() - at - 8) as u64;
    out[at..at + 8].copy_from_slice(&ck_len.to_le_bytes());
    put_u64(out, c.lines.len() as u64);
    for line in c.lines {
        put_u64(out, line.len() as u64);
        out.extend_from_slice(line.as_bytes());
    }
}

/// Append the body of a commit whose checkpoint carries
/// `waits[base..]` of the view's full vector.
fn put_commit_body(out: &mut Vec<u8>, c: &CommitView<'_>, base: usize) {
    put_u8(out, JOURNAL_VERSION);
    put_commit(out, c, base as u64, &c.serve.stats.waits[base..]);
}

/// The full frame of a commit whose checkpoint carries `waits[base..]`.
fn commit_frame(c: &CommitView<'_>, base: usize) -> Result<Vec<u8>, DecoError> {
    let mut body = Vec::new();
    put_commit_body(&mut body, c, base);
    encode_frame(&body)
}

/// One journal frame. Mutations mirror the supervisor→worker mutation
/// vocabulary (absolute values, so folding is idempotent); `Commit`
/// seals a group.
///
/// `Commit` carries a [`CommitRecord`] and dwarfs the bookkeeping
/// variants — the same inherent WAL asymmetry as
/// [`deco_serve::store::StoreFrame`], and frames are likewise transient
/// (encoded immediately), so no boxing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum JournalFrame {
    /// Entry inserted or superseded: `(key → epoch, last_use)`.
    Put {
        shard: u32,
        key: u64,
        epoch: u64,
        last_use: u64,
    },
    /// Recency-only stamp for an existing entry.
    Touch {
        shard: u32,
        key: u64,
        last_use: u64,
    },
    Del {
        shard: u32,
        key: u64,
    },
    /// Absolute strike total for a content key.
    Strike {
        shard: u32,
        key: u64,
        count: u32,
    },
    ClearKey {
        shard: u32,
        key: u64,
    },
    QuarantineKey {
        shard: u32,
        key: u64,
    },
    /// Calibration swap: every shard retains only `epoch` entries and
    /// clears its books (the refresh contract).
    Epoch {
        epoch: u64,
    },
    /// Stale purge: retain only `epoch` entries, books untouched.
    Purge {
        epoch: u64,
    },
    /// A shard's partition is gone (lost restart or quarantine).
    DropShard {
        shard: u32,
    },
    Commit(CommitRecord),
}

impl JournalFrame {
    /// Serialize the frame body (no container).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_body_into(&mut out);
        out
    }

    /// Append the frame body (no container) to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        put_u8(out, JOURNAL_VERSION);
        match self {
            JournalFrame::Put {
                shard,
                key,
                epoch,
                last_use,
            } => {
                put_u8(out, TAG_PUT);
                put_u32(out, *shard);
                put_u64(out, *key);
                put_u64(out, *epoch);
                put_u64(out, *last_use);
            }
            JournalFrame::Touch {
                shard,
                key,
                last_use,
            } => {
                put_u8(out, TAG_TOUCH);
                put_u32(out, *shard);
                put_u64(out, *key);
                put_u64(out, *last_use);
            }
            JournalFrame::Del { shard, key } => {
                put_u8(out, TAG_DEL);
                put_u32(out, *shard);
                put_u64(out, *key);
            }
            JournalFrame::Strike { shard, key, count } => {
                put_u8(out, TAG_STRIKE);
                put_u32(out, *shard);
                put_u64(out, *key);
                put_u32(out, *count);
            }
            JournalFrame::ClearKey { shard, key } => {
                put_u8(out, TAG_CLEAR_KEY);
                put_u32(out, *shard);
                put_u64(out, *key);
            }
            JournalFrame::QuarantineKey { shard, key } => {
                put_u8(out, TAG_QUARANTINE_KEY);
                put_u32(out, *shard);
                put_u64(out, *key);
            }
            JournalFrame::Epoch { epoch } => {
                put_u8(out, TAG_EPOCH);
                put_u64(out, *epoch);
            }
            JournalFrame::Purge { epoch } => {
                put_u8(out, TAG_PURGE);
                put_u64(out, *epoch);
            }
            JournalFrame::DropShard { shard } => {
                put_u8(out, TAG_DROP_SHARD);
                put_u32(out, *shard);
            }
            JournalFrame::Commit(rec) => {
                put_commit(out, &rec.view(), rec.waits_base, &rec.serve.stats.waits);
            }
        }
    }

    /// Parse one frame body. Any defect is a store error, never a panic.
    pub fn decode_body(body: &[u8]) -> Result<JournalFrame, DecoError> {
        let mut r = Reader::new(body);
        let version = r.u8()?;
        if version != JOURNAL_VERSION {
            return Err(corrupt(format!(
                "version {version}, expected {JOURNAL_VERSION}"
            )));
        }
        let tag = r.u8()?;
        let frame = match tag {
            TAG_PUT => JournalFrame::Put {
                shard: r.u32()?,
                key: r.u64()?,
                epoch: r.u64()?,
                last_use: r.u64()?,
            },
            TAG_TOUCH => JournalFrame::Touch {
                shard: r.u32()?,
                key: r.u64()?,
                last_use: r.u64()?,
            },
            TAG_DEL => JournalFrame::Del {
                shard: r.u32()?,
                key: r.u64()?,
            },
            TAG_STRIKE => JournalFrame::Strike {
                shard: r.u32()?,
                key: r.u64()?,
                count: r.u32()?,
            },
            TAG_CLEAR_KEY => JournalFrame::ClearKey {
                shard: r.u32()?,
                key: r.u64()?,
            },
            TAG_QUARANTINE_KEY => JournalFrame::QuarantineKey {
                shard: r.u32()?,
                key: r.u64()?,
            },
            TAG_EPOCH => JournalFrame::Epoch { epoch: r.u64()? },
            TAG_PURGE => JournalFrame::Purge { epoch: r.u64()? },
            TAG_DROP_SHARD => JournalFrame::DropShard { shard: r.u32()? },
            TAG_COMMIT => {
                let cycle = r.u64()?;
                let clock = r.u64()?;
                let n = r.len("shard seqs")?;
                let mut shard_seqs = Vec::with_capacity(n);
                for _ in 0..n {
                    shard_seqs.push(r.u64()?);
                }
                let n = r.len("shard health")?;
                let mut shard_health = Vec::with_capacity(n);
                for _ in 0..n {
                    let strikes = r.u32()?;
                    let quarantined = match r.u8()? {
                        0 => false,
                        1 => true,
                        t => return Err(corrupt(format!("quarantine flag {t}"))),
                    };
                    shard_health.push(ShardHealth {
                        strikes,
                        quarantined,
                    });
                }
                let ck_len = r.len("checkpoint")?;
                let (serve, waits_base) = ServeCheckpoint::decode_with_waits_base(r.take(ck_len)?)?;
                let n = r.len("lines")?;
                let mut lines = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.len("line")?;
                    let bytes = r.take(len)?;
                    lines.push(
                        String::from_utf8(bytes.to_vec())
                            .map_err(|_| corrupt("line is not UTF-8"))?,
                    );
                }
                JournalFrame::Commit(CommitRecord {
                    cycle,
                    clock,
                    shard_seqs,
                    shard_health,
                    serve,
                    waits_base,
                    lines,
                })
            }
            t => return Err(corrupt(format!("unknown frame tag {t}"))),
        };
        if !r.done() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(frame)
    }

    /// Serialize the full container frame (length, body, checksum). A
    /// body over the codec's cap is a [`DecoError::Store`].
    pub fn encode(&self) -> Result<Vec<u8>, DecoError> {
        encode_frame(&self.encode_body())
    }
}

/// One shard's folded metadata: the journal-side image of the mirror.
#[derive(Debug, Clone, Default)]
pub struct JournalShard {
    /// `key → (epoch, last_use)`.
    pub entries: BTreeMap<u64, (u64, u64)>,
    pub strikes: BTreeMap<u64, u32>,
    pub quarantine: BTreeSet<u64>,
}

/// The fold of every frame up to (and including) the last `Commit`.
#[derive(Debug, Clone, Default)]
struct FoldState {
    shards: Vec<JournalShard>,
}

impl FoldState {
    fn shard(&mut self, si: u32) -> &mut JournalShard {
        let si = si as usize;
        if si >= self.shards.len() {
            self.shards.resize_with(si + 1, JournalShard::default);
        }
        &mut self.shards[si]
    }

    fn apply(&mut self, frame: &JournalFrame) {
        match frame {
            JournalFrame::Put {
                shard,
                key,
                epoch,
                last_use,
            } => {
                self.shard(*shard).entries.insert(*key, (*epoch, *last_use));
            }
            JournalFrame::Touch {
                shard,
                key,
                last_use,
            } => {
                if let Some(e) = self.shard(*shard).entries.get_mut(key) {
                    e.1 = *last_use;
                }
            }
            JournalFrame::Del { shard, key } => {
                self.shard(*shard).entries.remove(key);
            }
            JournalFrame::Strike { shard, key, count } => {
                self.shard(*shard).strikes.insert(*key, *count);
            }
            JournalFrame::ClearKey { shard, key } => {
                self.shard(*shard).strikes.remove(key);
            }
            JournalFrame::QuarantineKey { shard, key } => {
                self.shard(*shard).quarantine.insert(*key);
            }
            JournalFrame::Epoch { epoch } => {
                for s in &mut self.shards {
                    s.entries.retain(|_, &mut (e, _)| e == *epoch);
                    s.strikes.clear();
                    s.quarantine.clear();
                }
            }
            JournalFrame::Purge { epoch } => {
                for s in &mut self.shards {
                    s.entries.retain(|_, &mut (e, _)| e == *epoch);
                }
            }
            JournalFrame::DropShard { shard } => {
                *self.shard(*shard) = JournalShard::default();
            }
            JournalFrame::Commit(_) => {}
        }
    }

    /// Re-encode the state as snapshot frames (no sealing commit).
    fn state_frames(&self) -> Result<Vec<Vec<u8>>, DecoError> {
        let mut frames = Vec::new();
        for (si, s) in self.shards.iter().enumerate() {
            let shard = si as u32;
            for (&key, &(epoch, last_use)) in &s.entries {
                frames.push(
                    JournalFrame::Put {
                        shard,
                        key,
                        epoch,
                        last_use,
                    }
                    .encode()?,
                );
            }
            for (&key, &count) in &s.strikes {
                frames.push(JournalFrame::Strike { shard, key, count }.encode()?);
            }
            for &key in &s.quarantine {
                frames.push(JournalFrame::QuarantineKey { shard, key }.encode()?);
            }
        }
        Ok(frames)
    }
}

/// What [`SupervisorJournal::open`] recovered: the folded mirror image
/// as of the last complete commit, the sealing commit record itself,
/// and the committed response lines still on record.
#[derive(Debug, Clone, Default)]
pub struct JournalRecovery {
    /// Folded per-shard metadata (empty when no commit was found).
    pub shards: Vec<JournalShard>,
    /// The last complete commit, `None` for a fresh or fully torn log.
    /// Always whole: `waits_base` 0 and every sealed wait, the deltas
    /// concatenated.
    pub commit: Option<CommitRecord>,
    /// Global response index of `lines[0]`.
    pub lines_start: u64,
    /// Committed canonical response lines accumulated across retained
    /// commits — what a standby re-emits before serving live.
    pub lines: Vec<String>,
    /// Checksum-valid frames replayed (both files).
    pub frames: u64,
    /// Bytes discarded as torn tails (both files).
    pub torn_bytes: u64,
}

/// Cheap observable counters for the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Mutation frames appended (buffered; durable at the next commit).
    pub appends: u64,
    pub commits: u64,
    pub snapshots: u64,
    pub syncs: u64,
}

/// Append-only journal for one supervisor. See the module docs for the
/// discipline; the short version: `append` buffers, `commit` seals and
/// writes one group, recovery trusts only sealed groups.
pub struct SupervisorJournal {
    dir: PathBuf,
    wal: File,
    /// Encoded frames of the open (uncommitted) group.
    buf: Vec<u8>,
    /// Reused body-encoding buffer.
    body: Vec<u8>,
    /// Decoded frames of the open group, folded into `state` at commit.
    pending: Vec<JournalFrame>,
    /// The committed fold — the compaction source.
    state: FoldState,
    /// `waits` sealed so far — the base of the next delta commit. `None`
    /// makes the next commit full.
    sealed_waits: Option<usize>,
    snapshot_every: u64,
    sync_every: u64,
    commits_since_compact: u64,
    commits_since_sync: u64,
    stats: JournalStats,
}

impl SupervisorJournal {
    /// Open (creating if absent) and recover the journal at `dir`:
    /// snapshot first, then the WAL, torn tails tolerated in both, state
    /// kept only through the last complete [`JournalFrame::Commit`],
    /// delta `waits` concatenated onto the recovered commit.
    /// The log is compacted immediately after recovery, so a standby
    /// starts from a one-snapshot journal whatever it inherited.
    pub fn open(
        dir: &Path,
        snapshot_every: u64,
        sync_every: u64,
    ) -> Result<(SupervisorJournal, JournalRecovery), DecoError> {
        std::fs::create_dir_all(dir).map_err(|e| journal_err("create dir", dir, e))?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        // Fold both files with commit-granularity retention: `tentative`
        // runs ahead frame by frame; `committed` advances only when a
        // sealing commit proves the group complete. `waits` is the
        // sealed waits vector the commits' deltas extend.
        let mut committed = FoldState::default();
        let mut tentative = FoldState::default();
        let mut last_commit: Option<CommitRecord> = None;
        let mut waits: Vec<f64> = Vec::new();
        let mut lines_start = 0u64;
        let mut lines: Vec<String> = Vec::new();
        let mut frames = 0u64;
        let mut torn = 0u64;
        for path in [&snapshot_path, &wal_path] {
            let mut apply = |body: &[u8]| -> bool {
                let Ok(frame) = JournalFrame::decode_body(body) else {
                    return false; // undecodable body: torn tail from here
                };
                if let JournalFrame::Commit(rec) = &frame {
                    if rec.waits_base != 0 && rec.waits_base != waits.len() as u64 {
                        // A delta that does not continue the sealed waits
                        // (a well-formed log never writes one): corrupt,
                        // the log ends here.
                        return false;
                    }
                }
                tentative.apply(&frame);
                if let JournalFrame::Commit(mut rec) = frame {
                    committed = tentative.clone();
                    if rec.waits_base == 0 {
                        waits.clear();
                    }
                    waits.append(&mut rec.serve.stats.waits);
                    let before =
                        rec.serve.emitted - (rec.lines.len() as u64).min(rec.serve.emitted);
                    if lines.is_empty() || before != lines_start + lines.len() as u64 {
                        // First retained commit — or a discontinuity a
                        // well-formed log never produces; resync rather
                        // than serve a misnumbered stream.
                        lines_start = before;
                        lines = rec.lines.clone();
                    } else {
                        lines.extend(rec.lines.iter().cloned());
                    }
                    last_commit = Some(rec);
                }
                true
            };
            let (f, t) = replay_frame_file(path, &mut apply)?;
            frames += f;
            torn += t;
        }
        // The recovered commit is whole: every sealed wait, base 0.
        let sealed_waits = waits.len();
        if let Some(rec) = last_commit.as_mut() {
            rec.serve.stats.waits = waits;
            rec.waits_base = 0;
        }
        let sealing = match &last_commit {
            Some(rec) => Some(commit_frame(&rec.view(), 0)?),
            None => None,
        };

        let recovery = JournalRecovery {
            shards: committed.shards.clone(),
            commit: last_commit,
            lines_start,
            lines,
            frames,
            torn_bytes: torn,
        };

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| journal_err("open wal", &wal_path, e))?;
        let mut journal = SupervisorJournal {
            dir: dir.to_path_buf(),
            wal,
            buf: Vec::new(),
            body: Vec::new(),
            pending: Vec::new(),
            state: committed,
            sealed_waits: Some(sealed_waits),
            snapshot_every,
            sync_every,
            commits_since_compact: 0,
            commits_since_sync: 0,
            stats: JournalStats::default(),
        };
        // Start every incarnation from a compact, internally consistent
        // log: the inherited WAL may end in the torn group we just
        // discarded, which a later reader must not see resurrected
        // behind new appends.
        journal.compact(sealing)?;
        Ok((journal, recovery))
    }

    /// Erase all recovered state: fresh-authority semantics for a
    /// supervisor constructed by [`super::supervisor::ShardSupervisor::new`]
    /// (as opposed to `recover`), which owns the world it spawns.
    pub fn reset(&mut self) -> Result<(), DecoError> {
        self.buf.clear();
        self.pending.clear();
        self.state = FoldState::default();
        self.sealed_waits = None;
        self.commits_since_compact = 0;
        self.commits_since_sync = 0;
        self.compact(None)
    }

    /// Make the next commit carry its full `waits`, whatever was sealed
    /// before. A journaled run calls this once at its start, so its deltas
    /// never extend another run's waits.
    pub fn rebase(&mut self) {
        self.sealed_waits = None;
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Buffer one mutation frame into the open group. The bytes become
    /// durable at the sealing [`commit`](Self::commit), and a crash
    /// before that loses exactly the frames recovery would discard as a
    /// torn group anyway. The only error is a frame over the codec's cap;
    /// the group is then unchanged and the owner degrades.
    pub fn append(&mut self, frame: JournalFrame) -> Result<(), DecoError> {
        self.body.clear();
        frame.encode_body_into(&mut self.body);
        append_frame(&mut self.buf, &self.body)?;
        self.stats.appends += 1;
        self.pending.push(frame);
        Ok(())
    }

    /// Seal the open group with `rec` and write it to the WAL in one
    /// append, then fsync / compact on their cadences. The commit frame
    /// carries only the `waits` appended since the previous sealed commit
    /// (all of them after [`rebase`](Self::rebase) or a reset), so its
    /// size depends on the cycle, not the trace; a compaction snapshot
    /// seals with the full record. An error means the group may not be
    /// durable — the owner degrades (drops the journal) rather than
    /// serving under a false durability claim.
    pub fn commit(&mut self, rec: CommitView<'_>) -> Result<(), DecoError> {
        let waits = rec.serve.stats.waits.len();
        let base = match self.sealed_waits {
            Some(n) if n <= waits => n,
            _ => 0,
        };
        self.body.clear();
        put_commit_body(&mut self.body, &rec, base);
        append_frame(&mut self.buf, &self.body)?;
        let dir = &self.dir;
        self.wal
            .write_all(&self.buf)
            .map_err(|e| journal_err("append", &dir.join(WAL_FILE), e))?;
        self.buf.clear();
        for f in self.pending.drain(..) {
            self.state.apply(&f);
        }
        self.sealed_waits = Some(waits);
        self.stats.commits += 1;
        self.commits_since_sync += 1;
        if self.sync_every > 0 && self.commits_since_sync >= self.sync_every {
            let dir = &self.dir;
            self.wal
                .sync_all()
                .map_err(|e| journal_err("sync", &dir.join(WAL_FILE), e))?;
            self.stats.syncs += 1;
            self.commits_since_sync = 0;
        }
        self.commits_since_compact += 1;
        if self.snapshot_every > 0 && self.commits_since_compact >= self.snapshot_every {
            self.compact(Some(commit_frame(&rec, 0)?))?;
        }
        Ok(())
    }

    /// Publish the committed fold, sealed by the full commit frame
    /// `sealing` (none before the first commit), as a fresh snapshot
    /// (tmp+rename) and truncate the WAL.
    ///
    /// The snapshot is fsynced only when `sync_every > 0`: an unsynced
    /// WAL cadence already trades power-loss durability for throughput,
    /// and compaction honors the same trade — tmp+rename alone is
    /// enough for the supervisor-kill failover the journal exists for.
    fn compact(&mut self, sealing: Option<Vec<u8>>) -> Result<(), DecoError> {
        let mut frames = self.state.state_frames()?;
        frames.extend(sealing);
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        if frames.is_empty() {
            // Nothing committed yet: an absent snapshot is the canonical
            // empty one.
            if snapshot_path.exists() {
                std::fs::remove_file(&snapshot_path)
                    .map_err(|e| journal_err("remove snapshot", &snapshot_path, e))?;
            }
        } else {
            write_frames_atomic_cadenced(&snapshot_path, &frames, self.sync_every > 0)?;
        }
        let wal_path = self.dir.join(WAL_FILE);
        self.wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_path)
            .map_err(|e| journal_err("truncate wal", &wal_path, e))?;
        self.stats.snapshots += 1;
        self.commits_since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deco_journal_{}_{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_commit(cycle: u64, emitted_before: u64, lines: Vec<String>) -> CommitRecord {
        let serve = ServeCheckpoint {
            emitted: emitted_before + lines.len() as u64,
            next: cycle * 3,
            ..ServeCheckpoint::default()
        };
        CommitRecord {
            cycle,
            clock: 10 + cycle,
            shard_seqs: vec![cycle, cycle * 2],
            shard_health: vec![
                ShardHealth {
                    strikes: 1,
                    quarantined: false,
                },
                ShardHealth {
                    strikes: 0,
                    quarantined: cycle > 5,
                },
            ],
            serve,
            waits_base: 0,
            lines,
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let frames = vec![
            JournalFrame::Put {
                shard: 1,
                key: 42,
                epoch: 3,
                last_use: 99,
            },
            JournalFrame::Touch {
                shard: 0,
                key: 42,
                last_use: 100,
            },
            JournalFrame::Del { shard: 1, key: 7 },
            JournalFrame::Strike {
                shard: 0,
                key: 9,
                count: 2,
            },
            JournalFrame::ClearKey { shard: 0, key: 9 },
            JournalFrame::QuarantineKey { shard: 1, key: 11 },
            JournalFrame::Epoch { epoch: 4 },
            JournalFrame::Purge { epoch: 4 },
            JournalFrame::DropShard { shard: 1 },
            JournalFrame::Commit(sample_commit(3, 5, vec!["seq=5 ok".into()])),
        ];
        for frame in &frames {
            let body = frame.encode_body();
            let back = JournalFrame::decode_body(&body).expect("decode");
            assert_eq!(
                back.encode_body(),
                body,
                "re-encode must be byte-identical: {frame:?}"
            );
        }
        // Container round trip through the shared codec.
        let wire = frames[9].encode().expect("encode");
        let (body, next) = deco_serve::store::raw_frame_at(&wire, 0).expect("container");
        assert_eq!(next, wire.len());
        match JournalFrame::decode_body(body).expect("decode") {
            JournalFrame::Commit(rec) => {
                assert_eq!(rec.cycle, 3);
                assert_eq!(rec.lines, vec!["seq=5 ok".to_string()]);
                assert_eq!(rec.serve.emitted, 6);
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_bodies_are_errors_never_panics() {
        assert!(JournalFrame::decode_body(&[]).is_err());
        assert!(JournalFrame::decode_body(&[9, TAG_PUT]).is_err(), "version");
        assert!(
            JournalFrame::decode_body(&[JOURNAL_VERSION, 200]).is_err(),
            "unknown tag"
        );
        let mut body = JournalFrame::Put {
            shard: 0,
            key: 1,
            epoch: 2,
            last_use: 3,
        }
        .encode_body();
        body.truncate(body.len() - 3);
        assert!(JournalFrame::decode_body(&body).is_err(), "truncated");
        let mut body = JournalFrame::Epoch { epoch: 1 }.encode_body();
        body.push(0);
        assert!(JournalFrame::decode_body(&body).is_err(), "trailing");
        // And an arbitrary prefix of a commit frame never panics.
        let full = JournalFrame::Commit(sample_commit(1, 0, vec!["a".into()])).encode_body();
        for cut in 0..full.len() {
            let _ = JournalFrame::decode_body(&full[..cut]);
        }
    }

    #[test]
    fn older_version_bodies_are_rejected_as_corrupt() {
        for frame in [
            JournalFrame::Epoch { epoch: 1 },
            JournalFrame::Touch {
                shard: 0,
                key: 7,
                last_use: 9,
            },
            JournalFrame::Commit(sample_commit(1, 0, vec!["a".into()])),
        ] {
            let mut body = frame.encode_body();
            assert!(JournalFrame::decode_body(&body).is_ok());
            // v1: absolute waits; v2: byte-wise content keys.
            for old in 1..JOURNAL_VERSION {
                body[0] = old;
                let err = JournalFrame::decode_body(&body).expect_err("an older version");
                assert!(err.to_string().contains("journal corrupt"), "{err}");
            }
        }
    }

    #[test]
    fn commit_bytes_do_not_grow_with_the_trace_and_deltas_recover_whole() {
        let dir = temp_journal_dir("delta");
        let wal_len = || std::fs::metadata(dir.join(WAL_FILE)).map_or(0, |m| m.len());
        let wait = |i: usize| i as f64 * 0.25;
        // One cycle of fixed size: five new waits and one line.
        let fixed_cycle = |rec: &mut CommitRecord| {
            rec.cycle += 1;
            let n = rec.serve.stats.waits.len();
            rec.serve.stats.waits.extend((n..n + 5).map(wait));
            rec.serve.stats.planned = rec.serve.stats.waits.len() as u64;
            rec.serve.emitted += 1;
            rec.lines = vec![format!("line{:06}", rec.cycle)];
        };
        let mut rec = sample_commit(0, 0, vec![]);
        {
            let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
            rec.serve.stats.waits = (0..10).map(wait).collect();
            j.commit(rec.view()).expect("first commit: full");
            fixed_cycle(&mut rec);
            let before = wal_len();
            j.commit(rec.view()).expect("commit after 10 waits");
            let early = wal_len() - before;
            rec.serve.stats.waits = (0..5_000).map(wait).collect();
            rec.cycle += 1;
            j.commit(rec.view()).expect("a long cycle");
            fixed_cycle(&mut rec);
            let before = wal_len();
            j.commit(rec.view()).expect("commit after 5000 waits");
            assert_eq!(
                wal_len() - before,
                early,
                "a commit's bytes depend on its cycle, not on the waits before it"
            );
        }
        // Reopen: the recovered commit is whole, and open() compacts it
        // into the snapshot. Then seal delta commits into a fresh WAL
        // and recover from snapshot + deltas.
        {
            let (mut j, recovery) = SupervisorJournal::open(&dir, 0, 0).expect("reopen");
            let got = recovery.commit.expect("commit");
            assert_eq!(got.waits_base, 0);
            assert_eq!(got.serve.stats.waits, rec.serve.stats.waits);
            for _ in 0..3 {
                fixed_cycle(&mut rec);
                j.commit(rec.view()).expect("delta commit");
            }
        }
        assert!(dir.join(SNAPSHOT_FILE).exists(), "snapshot holds the base");
        let (_j, recovery) = SupervisorJournal::open(&dir, 0, 0).expect("recover");
        let got = recovery.commit.expect("commit");
        assert_eq!(got.cycle, rec.cycle);
        assert_eq!(got.serve.stats.waits.len(), 5_020);
        assert_eq!(got.serve.stats.waits, rec.serve.stats.waits);
        assert_eq!(got.serve.stats.digest(), rec.serve.stats.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_delta_past_the_sealed_waits_ends_the_log() {
        let dir = temp_journal_dir("bad_base");
        std::fs::create_dir_all(&dir).expect("dir");
        let mut first = sample_commit(1, 0, vec!["line0".into()]);
        first.serve.stats.waits = vec![1.0, 2.0];
        let mut bad = sample_commit(2, 1, vec!["line1".into()]);
        bad.serve.stats.waits = vec![3.0];
        bad.waits_base = 5; // past the two sealed waits
        let mut wal = JournalFrame::Commit(first).encode().expect("encode");
        wal.extend(JournalFrame::Commit(bad).encode().expect("encode"));
        std::fs::write(dir.join(WAL_FILE), &wal).expect("write wal");
        let (_j, recovery) = SupervisorJournal::open(&dir, 0, 0).expect("recover");
        let got = recovery.commit.expect("the first commit survives");
        assert_eq!(got.cycle, 1);
        assert_eq!(got.serve.stats.waits, vec![1.0, 2.0]);
        assert_eq!(recovery.lines, vec!["line0"]);
        assert!(recovery.torn_bytes > 0, "the bad frame is discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_groups_recover_and_torn_groups_are_discarded() {
        let dir = temp_journal_dir("groups");
        {
            let (mut j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("open");
            assert!(rec.commit.is_none());
            j.append(JournalFrame::Put {
                shard: 0,
                key: 1,
                epoch: 1,
                last_use: 5,
            })
            .expect("append");
            j.append(JournalFrame::Strike {
                shard: 0,
                key: 9,
                count: 1,
            })
            .expect("append");
            j.commit(sample_commit(1, 0, vec!["line0".into(), "line1".into()]).view())
                .expect("commit 1");
            j.append(JournalFrame::Touch {
                shard: 0,
                key: 1,
                last_use: 8,
            })
            .expect("append");
            j.append(JournalFrame::QuarantineKey { shard: 1, key: 11 })
                .expect("append");
            j.commit(sample_commit(2, 2, vec!["line2".into()]).view())
                .expect("commit 2");
            // An open group that never commits: must vanish on recovery.
            j.append(JournalFrame::Del { shard: 0, key: 1 })
                .expect("append");
            // (dropped without commit)
        }
        let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("reopen");
        let c = rec.commit.expect("last commit");
        assert_eq!(c.cycle, 2);
        assert_eq!(rec.lines_start, 0);
        assert_eq!(rec.lines, vec!["line0", "line1", "line2"]);
        assert_eq!(rec.shards[0].entries.get(&1), Some(&(1, 8)), "touch folded");
        assert_eq!(rec.shards[0].strikes.get(&9), Some(&1));
        assert!(rec.shards[1].quarantine.contains(&11));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_final_group_is_discarded_at_every_byte_offset() {
        let dir = temp_journal_dir("torn");
        {
            let (mut j, _) = SupervisorJournal::open(&dir, 0, 0).expect("open");
            j.append(JournalFrame::Put {
                shard: 0,
                key: 1,
                epoch: 1,
                last_use: 5,
            })
            .expect("append");
            j.commit(sample_commit(1, 0, vec!["line0".into()]).view())
                .expect("commit 1");
            j.append(JournalFrame::Put {
                shard: 0,
                key: 2,
                epoch: 1,
                last_use: 6,
            })
            .expect("append");
            j.commit(sample_commit(2, 1, vec!["line1".into()]).view())
                .expect("commit 2");
        }
        // Reopen once: recovery folds the WAL and the post-recovery
        // compaction moves the sealed state into the snapshot, leaving
        // the WAL empty. Then build an uncompacted WAL by hand to fuzz
        // the torn tail.
        drop(SupervisorJournal::open(&dir, 0, 0).expect("compacting reopen"));
        let wal = dir.join(WAL_FILE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            &JournalFrame::Put {
                shard: 0,
                key: 3,
                epoch: 1,
                last_use: 7,
            }
            .encode()
            .expect("encode"),
        );
        let group_start = bytes.len();
        bytes.extend_from_slice(
            &JournalFrame::Commit(sample_commit(3, 2, vec![]))
                .encode()
                .expect("encode"),
        );
        for cut in group_start..bytes.len() {
            std::fs::write(&wal, &bytes[..cut]).expect("write torn wal");
            let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("recover never fails");
            let c = rec.commit.expect("snapshot commit survives");
            assert_eq!(c.cycle, 2, "torn group must not advance the commit");
            assert!(
                !rec.shards[0].entries.contains_key(&3),
                "torn group's put must be discarded at cut {cut}"
            );
            // open() compacted: restore the torn WAL for the next cut.
        }
        // The full group recovers.
        std::fs::write(&wal, &bytes).expect("write full wal");
        let (_j, rec) = SupervisorJournal::open(&dir, 0, 0).expect("recover");
        assert_eq!(rec.commit.expect("commit").cycle, 3);
        assert!(rec.shards[0].entries.contains_key(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_reset_erases_it() {
        let dir = temp_journal_dir("compact");
        {
            // snapshot_every = 1: compact after every commit.
            let (mut j, _) = SupervisorJournal::open(&dir, 1, 1).expect("open");
            for cycle in 1..=4u64 {
                j.append(JournalFrame::Put {
                    shard: 0,
                    key: cycle,
                    epoch: 1,
                    last_use: cycle,
                })
                .expect("append");
                j.commit(sample_commit(cycle, cycle - 1, vec![format!("line{cycle}")]).view())
                    .expect("commit");
            }
            assert!(j.stats().snapshots >= 4);
            assert!(j.stats().syncs >= 4);
        }
        let (mut j, rec) = SupervisorJournal::open(&dir, 1, 1).expect("reopen");
        assert_eq!(rec.shards[0].entries.len(), 4);
        assert_eq!(rec.commit.as_ref().expect("commit").cycle, 4);
        // Compaction keeps only the sealing commit's delta lines — the
        // worst-case unprinted suffix — so the numbering must hold.
        assert_eq!(rec.lines_start + rec.lines.len() as u64, 4);
        assert_eq!(rec.lines.last().expect("lines"), "line4");
        j.reset().expect("reset");
        drop(j);
        let (_j, rec) = SupervisorJournal::open(&dir, 1, 1).expect("open after reset");
        assert!(rec.commit.is_none());
        assert!(rec.shards.is_empty());
        assert_eq!(rec.lines.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
