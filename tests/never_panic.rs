//! Never-panic properties: arbitrary and mutated user input — WLog source
//! text, DAX documents, and supervisor-journal bytes — must flow through
//! parse → validate → plan (or WAL recovery) as typed [`DecoError`]s,
//! never as panics. Journal recovery must also never hand back a commit
//! whose delta-concatenated `waits` are short. The CI fuzz-smoke step
//! re-runs this suite at an elevated `PROPTEST_CASES` count.

use deco::cloud::{CloudSpec, MetadataStore};
use deco::engine::supervisor::plan_with_fallback;
use deco::engine::Deco;
use deco::serve::checkpoint::ServeCheckpoint;
use deco::shard::proc::{
    CommitRecord, JournalFrame, ShardHealth, SupervisorJournal, SNAPSHOT_FILE, WAL_FILE,
};
use deco::solver::{EvalBackend, SearchBudget};
use deco::wlog::program::WlogProgram;
use deco::workflow::dax::{emit_dax, parse_dax};
use deco::workflow::generators;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A WLog program every byte mutation starts from (Example 1's shape).
const WLOG_SEED_SRC: &str = r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline(90%, 3000s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
  configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
maxtime(Path,T) :- totalcost(T).
"#;

fn tiny_deco() -> Deco {
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec, 10);
    let mut d = Deco::new(store);
    // Keep the plan stage cheap: the property is "no panic", not quality.
    d.options.mc_iters = 4;
    d.options.search.max_states = 12;
    d.options.wlog_bins = 2;
    d
}

/// Feed one candidate WLog source through the full pipeline. Each layer is
/// allowed to reject; none is allowed to panic.
fn drive_wlog(src: &str) {
    let program = match WlogProgram::parse(src) {
        Ok(p) => p,
        Err(e) => {
            // Diagnostics must render (the caret snippet does char math).
            let _ = e.to_string();
            return;
        }
    };
    if program.validate().is_err() {
        return;
    }
    let d = tiny_deco();
    let wf = generators::pipeline(2, 300.0, 1 << 20);
    match d.plan_workflow_wlog(src, &wf, &EvalBackend::SeqCpu) {
        Ok(plan) => assert_eq!(plan.types.len(), wf.len()),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// Feed one candidate DAX document through parse → plan-with-fallback.
fn drive_dax(doc: &str) {
    let wf = match parse_dax(doc) {
        Ok(wf) => wf,
        Err(e) => {
            let _ = e.to_string();
            return;
        }
    };
    let d = tiny_deco();
    // A near-zero budget lands on the cheap fallback stages immediately;
    // structurally unusable workflows (e.g. zero tasks) must come back as
    // typed errors.
    match plan_with_fallback(&d, &wf, 1000.0, 0.9, &SearchBudget::ticks(1e-12)) {
        Ok(sup) => assert_eq!(sup.plan.types.len(), wf.len()),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// Apply `edits` random single-byte edits (replace, insert, or delete) to
/// `src`, staying within printable-ish bytes so parsers see plausible text.
fn mutate(src: &str, picks: &[(usize, u8, u8)]) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for &(pos, op, byte) in picks {
        if bytes.is_empty() {
            break;
        }
        let i = pos % bytes.len();
        match op % 3 {
            0 => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            _ => {
                bytes.remove(i);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A well-formed two-commit-group supervisor WAL every journal mutation
/// starts from, so the fuzz population reaches the fold logic and not
/// just the container checksum.
fn seed_wal() -> Vec<u8> {
    let commit = |cycle: u64, emitted: u64| {
        let mut serve = ServeCheckpoint {
            emitted,
            ..ServeCheckpoint::default()
        };
        serve.stats.planned = emitted;
        JournalFrame::Commit(CommitRecord {
            cycle,
            clock: 10 * cycle,
            shard_seqs: vec![3 * cycle, cycle],
            shard_health: vec![
                ShardHealth {
                    strikes: 1,
                    quarantined: false,
                },
                ShardHealth::default(),
            ],
            serve,
            waits_base: 0,
            lines: vec![format!("line {cycle}")],
        })
    };
    let frames = [
        JournalFrame::Put {
            shard: 0,
            key: 7,
            epoch: 1,
            last_use: 4,
        },
        JournalFrame::Touch {
            shard: 1,
            key: 9,
            last_use: 5,
        },
        JournalFrame::Strike {
            shard: 0,
            key: 7,
            count: 2,
        },
        commit(1, 1),
        JournalFrame::Put {
            shard: 1,
            key: 11,
            epoch: 1,
            last_use: 8,
        },
        JournalFrame::Del { shard: 0, key: 7 },
        commit(2, 2),
    ];
    encode_all(&frames)
}

fn encode_all(frames: &[JournalFrame]) -> Vec<u8> {
    frames
        .iter()
        .flat_map(|f| f.encode().expect("seed frames are small"))
        .collect()
}

/// Waits sealed by each commit of [`delta_wal`]'s chain.
const DELTA_WAITS: [u64; 4] = [2, 1, 3, 2];

/// A four-commit supervisor WAL whose commits carry delta `waits`: the
/// first is full (base 0), each later one extends its predecessor. Every
/// commit's `stats.planned` is the full count the fold must rebuild, so
/// a short recovered `waits` is detectable. With `bad_at = Some(i)`,
/// commit `i` claims a base past its predecessor's count.
fn delta_wal(bad_at: Option<usize>) -> Vec<u8> {
    let mut frames = Vec::new();
    let mut base = 0u64;
    for (i, &new) in DELTA_WAITS.iter().enumerate() {
        let cycle = i as u64 + 1;
        frames.push(JournalFrame::Put {
            shard: 0,
            key: cycle,
            epoch: 1,
            last_use: cycle,
        });
        let mut serve = ServeCheckpoint {
            emitted: cycle,
            ..ServeCheckpoint::default()
        };
        serve.stats.waits = (base..base + new).map(|w| w as f64 * 1.5).collect();
        serve.stats.planned = base + new;
        let waits_base = if bad_at == Some(i) {
            base + 1 + i as u64
        } else {
            base
        };
        frames.push(JournalFrame::Commit(CommitRecord {
            cycle,
            clock: 10 * cycle,
            shard_seqs: vec![cycle],
            shard_health: vec![ShardHealth::default()],
            serve,
            waits_base,
            lines: vec![format!("line {cycle}")],
        }));
        base += new;
    }
    encode_all(&frames)
}

/// [`drive_journal`] for delta WALs: whatever commit survives must hold
/// every wait its chain sealed — never a silently short vector.
fn drive_delta_journal(wal: &[u8]) -> Option<CommitRecord> {
    let commit = drive_journal(wal, None)?;
    assert_eq!(
        commit.serve.stats.waits.len() as u64,
        commit.serve.stats.planned,
        "commit {} recovered a short waits vector",
        commit.cycle
    );
    Some(commit)
}

/// Recover a journal directory holding exactly `wal` and (optionally)
/// `snapshot`. Open may reject the directory, never panic; a recovered
/// fold must not invent commits the bytes cannot contain. Returns the
/// recovered commit, if any.
fn drive_journal(wal: &[u8], snapshot: Option<&[u8]>) -> Option<CommitRecord> {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "deco_np_journal_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("journal fuzz dir");
    std::fs::write(dir.join(WAL_FILE), wal).expect("write wal");
    if let Some(bytes) = snapshot {
        std::fs::write(dir.join(SNAPSHOT_FILE), bytes).expect("write snapshot");
    }
    let commit = match SupervisorJournal::open(&dir, 0, 0) {
        Ok((_, rec)) => {
            // Whatever the fold kept must at least render and stay
            // internally consistent with the line accounting the serve
            // splice relies on.
            if let Some(commit) = &rec.commit {
                let _ = format!("{commit:?}");
                assert!(rec.lines_start <= commit.serve.emitted);
                assert_eq!(commit.waits_base, 0, "a recovered commit is whole");
            }
            rec.commit
        }
        Err(e) => {
            let _ = e.to_string();
            None
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    commit
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Arbitrary bytes, lossily decoded, never panic the WLog pipeline.
    #[test]
    fn arbitrary_bytes_never_panic_wlog(bytes in proptest::collection::vec(0u8..255, 0..160)) {
        drive_wlog(&String::from_utf8_lossy(&bytes));
    }

    /// Byte-level mutations of a valid program never panic the pipeline —
    /// this population actually reaches validate and plan.
    #[test]
    fn mutated_programs_never_panic_wlog(
        picks in proptest::collection::vec((0usize..4096, 0u8..3, 32u8..127), 1..6)
    ) {
        drive_wlog(&mutate(WLOG_SEED_SRC, &picks));
    }

    /// Arbitrary bytes never panic the DAX loader.
    #[test]
    fn arbitrary_bytes_never_panic_dax(bytes in proptest::collection::vec(0u8..255, 0..200)) {
        drive_dax(&String::from_utf8_lossy(&bytes));
    }

    /// Byte-level mutations of a valid DAX document never panic parse →
    /// plan; documents that survive parsing plan through the supervisor.
    #[test]
    fn mutated_documents_never_panic_dax(
        seed in 0u64..50,
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 32u8..127), 1..8)
    ) {
        let doc = emit_dax(&generators::montage(1, seed)).unwrap();
        drive_dax(&mutate(&doc, &picks));
    }

    /// Every truncation of a valid program is rejected or planned, never a
    /// panic (the EOF paths of the parser).
    #[test]
    fn truncated_programs_never_panic(cut in 0usize..4096) {
        let src = WLOG_SEED_SRC;
        let cut = cut % (src.len() + 1);
        if src.is_char_boundary(cut) {
            drive_wlog(&src[..cut]);
        }
    }

    /// Arbitrary bytes posing as a supervisor WAL never panic recovery.
    #[test]
    fn arbitrary_bytes_never_panic_journal(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        drive_journal(&bytes, None);
    }

    /// Byte-level corruption of a well-formed WAL (flip, insert, delete)
    /// never panics recovery — this population exercises the checksum
    /// reject paths and the commit-group retention fold, not just EOF.
    #[test]
    fn mutated_wals_never_panic_journal(
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let mut wal = seed_wal();
        for &(pos, op, byte) in &picks {
            if wal.is_empty() {
                break;
            }
            let i = pos % wal.len();
            match op % 3 {
                0 => wal[i] = byte,
                1 => wal.insert(i, byte),
                _ => {
                    wal.remove(i);
                }
            }
        }
        drive_journal(&wal, None);
    }

    /// Every truncation of a well-formed WAL recovers (torn tails are the
    /// journal's normal weather), and the snapshot path survives arbitrary
    /// bytes alongside it.
    #[test]
    fn truncated_wals_never_panic_journal(
        cut in 0usize..65536,
        snapshot in proptest::collection::vec(0u8..255, 0..64)
    ) {
        let wal = seed_wal();
        drive_journal(&wal[..cut % (wal.len() + 1)], Some(&snapshot));
    }

    /// Byte-level corruption of a multi-commit delta WAL never panics
    /// recovery, and the surviving commit's `waits` are never short.
    #[test]
    fn mutated_delta_wals_never_panic_journal(
        picks in proptest::collection::vec((0usize..65536, 0u8..3, 0u8..255), 1..6)
    ) {
        let mut wal = delta_wal(None);
        for &(pos, op, byte) in &picks {
            if wal.is_empty() {
                break;
            }
            let i = pos % wal.len();
            match op % 3 {
                0 => wal[i] = byte,
                1 => wal.insert(i, byte),
                _ => {
                    wal.remove(i);
                }
            }
        }
        drive_delta_journal(&wal);
    }

    /// Every truncation of a delta WAL recovers the last whole commit
    /// before the cut, with all of its waits.
    #[test]
    fn truncated_delta_wals_never_panic_journal(cut in 0usize..65536) {
        let wal = delta_wal(None);
        drive_delta_journal(&wal[..cut % (wal.len() + 1)]);
    }

    /// A commit whose waits base exceeds its predecessor's count is a
    /// detected corrupt frame: however the WAL is cut, recovery never
    /// keeps a commit at or past it.
    #[test]
    fn truncated_bad_base_delta_wals_never_pass_the_bad_commit(
        bad_at in 0usize..DELTA_WAITS.len(),
        cut in 0usize..65536
    ) {
        let wal = delta_wal(Some(bad_at));
        let commit = drive_delta_journal(&wal[..cut % (wal.len() + 1)]);
        prop_assert!(commit.map_or(0, |c| c.cycle) <= bad_at as u64);
    }
}

/// The whole bad-base WAL, for each position of the bad commit: recovery
/// keeps state through exactly the previous sealed commit.
#[test]
fn a_delta_past_the_sealed_waits_keeps_the_previous_commit() {
    for bad_at in 0..DELTA_WAITS.len() {
        let commit = drive_delta_journal(&delta_wal(Some(bad_at)));
        assert_eq!(
            commit.map(|c| c.cycle),
            (bad_at > 0).then_some(bad_at as u64),
            "bad commit at index {bad_at}"
        );
    }
}
