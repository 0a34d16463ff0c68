//! Serve-loop checkpoints: the complete replay state of
//! [`crate::server::serve_trace_backend`] at a cycle-commit boundary.
//!
//! The cycle loop is deterministic, so its entire continuation is a
//! small value: the trace cursor, the virtual clock, the pending queue,
//! the retry set, the shed-estimator feed, and the running stats. A
//! backend that opts into commits (see [`crate::ServeBackend`]'s
//! `wants_commits`/`commit_cycle`) receives a [`ServeCheckpoint`] after
//! every cycle; a standby that decodes the last committed checkpoint
//! and resumes the loop from it serves the *remaining* trace exactly as
//! the dead process would have — byte-identical responses, identical
//! final stats.
//!
//! The checkpoint references requests by **trace seq**: the queue and
//! every retry's waiters are stored as the seqs of their arrivals, and a
//! retry plans its first waiter's workflow. Nothing is copied out of the
//! trace, so a checkpoint's size depends on the queue and retry set, not
//! on workflow size — and resuming one requires the *same* trace (see
//! [`ServeCheckpoint::validate`]).
//!
//! The codec follows the system-wide discipline: little-endian
//! fixed-width integers via [`deco_core::codec`], f64s as raw bits,
//! budgets through the canonical [`deco_core::wire`] codec, collections
//! length-prefixed and walked in deterministic order. The stats' `waits`
//! are written as `[base][count][waits]`: a full checkpoint has base 0,
//! while the supervisor journal writes only the waits a cycle appended
//! (see [`ServeCheckpoint::encode_with_waits`]). `cycle_rows` are
//! deliberately not checkpointed: they are observability, excluded from
//! the stats digest, and a failover run only owes byte-identity on
//! digested state.

use crate::stats::ServeStats;
use deco_core::codec::{put_f64, put_u32, put_u64, Reader};
use deco_core::wire::{decode_budget, encode_budget};
use deco_core::DecoError;
use deco_solver::SearchBudget;
use std::collections::BTreeMap;

/// A retrying solve in flight at the checkpoint: the public image of
/// the server's internal `PendingSolve`, with every field needed to
/// resume the retry exactly (backoff deadline, remaining budget, the
/// waiters coalesced onto it).
#[derive(Debug, Clone)]
pub struct PendingCheckpoint {
    pub key: u64,
    pub deadline: f64,
    pub percentile: f64,
    pub budget: SearchBudget,
    pub attempt: u32,
    pub not_before: f64,
    /// Trace seqs of the requests answered by this solve, in join order.
    /// The first is the original requester, whose workflow is solved.
    pub waiters: Vec<u64>,
}

/// The serve loop's full continuation at a cycle-commit boundary.
#[derive(Debug, Clone, Default)]
pub struct ServeCheckpoint {
    /// Trace cursor: arrivals `[0, next)` have been admitted or rejected.
    pub next: u64,
    /// The virtual clock (service ticks) at the commit.
    pub now: f64,
    /// Calibration refreshes `[0, refresh_next)` have been applied.
    pub refresh_next: u64,
    /// Trace seqs of the admission queue's pending requests, FIFO order.
    pub queue: Vec<u64>,
    /// Retrying solves with their backoff deadlines and waiters.
    pub retries: Vec<PendingCheckpoint>,
    /// Per-shape observed service costs feeding `shed_estimate`, each
    /// shape's samples ascending by `f64::total_cmp`.
    pub shape_costs: BTreeMap<u64, Vec<f64>>,
    /// Running stats (without `cycle_rows`, which are not digested).
    pub stats: ServeStats,
    /// Responses emitted so far (the length of the response stream).
    pub emitted: u64,
}

fn corrupt(what: &str) -> DecoError {
    DecoError::Store(format!("serve checkpoint corrupt: {what}"))
}

fn put_stats(out: &mut Vec<u8>, s: &ServeStats, waits_base: u64, waits: &[f64]) {
    for v in [
        s.requests,
        s.planned,
        s.hits,
        s.misses,
        s.coalesced,
        s.rejected_overload,
        s.rejected_invalid,
        s.rejected_quota,
        s.solve_failures,
        s.evictions,
        s.stale_purged,
        s.cycles,
        s.stage_deco,
        s.stage_heuristic,
        s.stage_autoscaling,
        s.shed,
        s.worker_crashes,
        s.retries,
        s.escalated,
        s.quarantined,
        s.refreshes,
    ] {
        put_u64(out, v);
    }
    put_f64(out, s.straggler_ticks);
    put_u64(out, s.planned_by_tenant.len() as u64);
    for (&t, &n) in &s.planned_by_tenant {
        put_u32(out, t);
        put_u64(out, n);
    }
    put_u64(out, waits_base);
    put_u64(out, waits.len() as u64);
    for &w in waits {
        put_f64(out, w);
    }
}

/// Decode stats; returns them with the base index of their `waits`.
fn read_stats(r: &mut Reader<'_>) -> Result<(ServeStats, u64), DecoError> {
    let mut s = ServeStats::default();
    for slot in [
        &mut s.requests,
        &mut s.planned,
        &mut s.hits,
        &mut s.misses,
        &mut s.coalesced,
        &mut s.rejected_overload,
        &mut s.rejected_invalid,
        &mut s.rejected_quota,
        &mut s.solve_failures,
        &mut s.evictions,
        &mut s.stale_purged,
        &mut s.cycles,
        &mut s.stage_deco,
        &mut s.stage_heuristic,
        &mut s.stage_autoscaling,
        &mut s.shed,
        &mut s.worker_crashes,
        &mut s.retries,
        &mut s.escalated,
        &mut s.quarantined,
        &mut s.refreshes,
    ] {
        *slot = r.u64()?;
    }
    s.straggler_ticks = r.f64()?;
    let tenants = r.len("planned_by_tenant")?;
    for _ in 0..tenants {
        let t = r.u32()?;
        let n = r.u64()?;
        s.planned_by_tenant.insert(t, n);
    }
    let waits_base = r.u64()?;
    let waits = r.len("waits")?;
    s.waits.reserve(waits);
    for _ in 0..waits {
        s.waits.push(r.f64()?);
    }
    Ok((s, waits_base))
}

fn read_seqs(r: &mut Reader<'_>, what: &str) -> Result<Vec<u64>, DecoError> {
    let n = r.len(what)?;
    let mut seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seqs.push(r.u64()?);
    }
    Ok(seqs)
}

fn put_seqs(out: &mut Vec<u8>, seqs: &[u64]) {
    put_u64(out, seqs.len() as u64);
    for &s in seqs {
        put_u64(out, s);
    }
}

impl ServeCheckpoint {
    /// Serialize the checkpoint (no framing — the journal frames it).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_with_waits(&mut out, 0, &self.stats.waits);
        out
    }

    /// Append the checkpoint to `out` with `waits` written in place of
    /// `stats.waits`, labelled as starting at index `waits_base` of the
    /// run's full waits vector. [`ServeCheckpoint::encode`] is
    /// `(0, &stats.waits)`; the supervisor journal passes the suffix a
    /// cycle appended, so a commit's size does not grow with the trace.
    pub fn encode_with_waits(&self, out: &mut Vec<u8>, waits_base: u64, waits: &[f64]) {
        put_u64(out, self.next);
        put_f64(out, self.now);
        put_u64(out, self.refresh_next);
        put_seqs(out, &self.queue);
        put_u64(out, self.retries.len() as u64);
        for p in &self.retries {
            put_u64(out, p.key);
            put_f64(out, p.deadline);
            put_f64(out, p.percentile);
            encode_budget(out, &p.budget);
            put_u32(out, p.attempt);
            put_f64(out, p.not_before);
            put_seqs(out, &p.waiters);
        }
        put_u64(out, self.shape_costs.len() as u64);
        for (&shape, costs) in &self.shape_costs {
            put_u64(out, shape);
            put_u64(out, costs.len() as u64);
            for &c in costs {
                put_f64(out, c);
            }
        }
        put_stats(out, &self.stats, waits_base, waits);
        put_u64(out, self.emitted);
    }

    /// Decode a full checkpoint produced by [`ServeCheckpoint::encode`].
    /// Trailing bytes are an error: the payload is length-framed by its
    /// container, so extra bytes mean in-place corruption. A delta
    /// (nonzero waits base) is an error too: it is not resumable alone.
    pub fn decode(bytes: &[u8]) -> Result<ServeCheckpoint, DecoError> {
        match ServeCheckpoint::decode_with_waits_base(bytes)? {
            (ck, 0) => Ok(ck),
            (_, base) => Err(corrupt(&format!("waits start at {base}, not 0"))),
        }
    }

    /// Decode a checkpoint written by
    /// [`ServeCheckpoint::encode_with_waits`]: `stats.waits` holds only
    /// the written waits, and the base index they start at is returned.
    pub fn decode_with_waits_base(bytes: &[u8]) -> Result<(ServeCheckpoint, u64), DecoError> {
        let mut r = Reader::new(bytes);
        let next = r.u64()?;
        let now = r.f64()?;
        let refresh_next = r.u64()?;
        let queue = read_seqs(&mut r, "queue")?;
        let retry_len = r.len("retries")?;
        let mut retries = Vec::with_capacity(retry_len);
        for _ in 0..retry_len {
            let key = r.u64()?;
            let deadline = r.f64()?;
            let percentile = r.f64()?;
            let budget = decode_budget(&mut r)?;
            let attempt = r.u32()?;
            let not_before = r.f64()?;
            let waiters = read_seqs(&mut r, "retry waiters")?;
            retries.push(PendingCheckpoint {
                key,
                deadline,
                percentile,
                budget,
                attempt,
                not_before,
                waiters,
            });
        }
        let shape_len = r.len("shape_costs")?;
        let mut shape_costs = BTreeMap::new();
        for _ in 0..shape_len {
            let shape = r.u64()?;
            let cost_len = r.len("shape cost samples")?;
            let mut costs = Vec::with_capacity(cost_len);
            for _ in 0..cost_len {
                costs.push(r.f64()?);
            }
            shape_costs.insert(shape, costs);
        }
        let (stats, waits_base) = read_stats(&mut r)?;
        let emitted = r.u64()?;
        if !r.done() {
            return Err(corrupt("trailing bytes"));
        }
        let ck = ServeCheckpoint {
            next,
            now,
            refresh_next,
            queue,
            retries,
            shape_costs,
            stats,
            emitted,
        };
        Ok((ck, waits_base))
    }

    /// Check that this checkpoint can resume a replay of a trace of
    /// `trace_len` arrivals: the cursor lies within the trace, every
    /// stored seq lies before the cursor (it was admitted), and every
    /// retry has a first waiter to plan for. A checkpoint of another
    /// trace can still pass; one that would index outside this trace
    /// never does.
    pub fn validate(&self, trace_len: usize) -> Result<(), DecoError> {
        if self.next > trace_len as u64 {
            return Err(corrupt(&format!(
                "cursor {} is past the trace's {trace_len} arrivals",
                self.next
            )));
        }
        let waiters = self.retries.iter().flat_map(|p| &p.waiters);
        if let Some(seq) = self.queue.iter().chain(waiters).find(|&&s| s >= self.next) {
            return Err(corrupt(&format!(
                "seq {seq} is not before the cursor {}",
                self.next
            )));
        }
        if self.retries.iter().any(|p| p.waiters.is_empty()) {
            return Err(corrupt("a retry has no waiters"));
        }
        let ascending = |c: &Vec<f64>| c.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le());
        if !self.shape_costs.values().all(ascending) {
            return Err(corrupt("shape cost samples out of order"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeCheckpoint {
        let mut stats = ServeStats {
            requests: 17,
            planned: 11,
            cycles: 5,
            straggler_ticks: 3.5,
            ..ServeStats::default()
        };
        stats.planned_by_tenant.insert(1, 7);
        stats.planned_by_tenant.insert(9, 4);
        stats.waits = vec![0.0, 2.25, 7.5];
        let mut shape_costs = BTreeMap::new();
        shape_costs.insert(42u64, vec![1.0, 2.0, 4.0]);
        ServeCheckpoint {
            next: 13,
            now: 321.5,
            refresh_next: 1,
            queue: vec![12],
            retries: vec![PendingCheckpoint {
                key: 0xDEAD_BEEF,
                deadline: 600.0,
                percentile: 0.95,
                budget: SearchBudget::unlimited(),
                attempt: 2,
                not_before: 330.0,
                waiters: vec![9, 11],
            }],
            shape_costs,
            stats,
            emitted: 10,
        }
    }

    #[test]
    fn checkpoints_round_trip_bit_exactly() {
        let ck = sample();
        let bytes = ck.encode();
        let back = ServeCheckpoint::decode(&bytes).unwrap();
        assert_eq!(back.next, ck.next);
        assert_eq!(back.now.to_bits(), ck.now.to_bits());
        assert_eq!(back.refresh_next, ck.refresh_next);
        assert_eq!(back.queue, vec![12]);
        assert_eq!(back.retries.len(), 1);
        let p = &back.retries[0];
        assert_eq!(p.key, 0xDEAD_BEEF);
        assert_eq!(p.attempt, 2);
        assert_eq!(p.not_before.to_bits(), 330.0f64.to_bits());
        assert_eq!(p.waiters, vec![9, 11]);
        assert_eq!(back.shape_costs[&42], vec![1.0, 2.0, 4.0]);
        assert_eq!(back.stats.digest(), ck.stats.digest());
        assert_eq!(back.emitted, 10);
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn waits_deltas_carry_their_base_and_are_not_resumable_alone() {
        let ck = sample();
        let mut delta = Vec::new();
        ck.encode_with_waits(&mut delta, 2, &ck.stats.waits[2..]);
        let (back, base) = ServeCheckpoint::decode_with_waits_base(&delta).unwrap();
        assert_eq!(base, 2);
        assert_eq!(back.stats.waits, vec![7.5]);
        assert!(ServeCheckpoint::decode(&delta).is_err());
        assert!(
            delta.len() < ck.encode().len(),
            "a delta writes only its own waits"
        );
    }

    #[test]
    fn validation_rejects_seqs_outside_the_trace() {
        let ck = sample();
        assert!(ck.validate(13).is_ok());
        assert!(ck.validate(12).is_err(), "cursor past the trace");
        let mut bad = sample();
        bad.queue.push(13);
        assert!(bad.validate(100).is_err(), "queued seq at the cursor");
        let mut bad = sample();
        bad.retries[0].waiters.push(99);
        assert!(bad.validate(100).is_err(), "waiter seq past the cursor");
        let mut bad = sample();
        bad.retries[0].waiters.clear();
        assert!(bad.validate(100).is_err(), "a retry without a requester");
        let mut bad = sample();
        bad.shape_costs.insert(7, vec![2.0, 1.0]);
        assert!(bad.validate(100).is_err(), "unsorted shape cost samples");
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                ServeCheckpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail cleanly"
            );
        }
    }
}
