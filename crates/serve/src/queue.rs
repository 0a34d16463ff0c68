//! Admission control and fair-share budget allocation.
//!
//! The queue is bounded: once `capacity` requests are waiting, further
//! arrivals are refused with [`DecoError::Overloaded`] — backpressure is a
//! response, not a blocked caller — *unless* the deadline-aware shed
//! policy can identify an already-doomed waiter to sacrifice instead
//! (see [`AdmissionQueue::shed_unmeetable`]). Draining is ordered by
//! [`Priority`] class first, then FIFO within a class, so a queue of
//! all-default-priority requests drains exactly like the original FIFO
//! queue. An optional per-tenant quota rejects only the over-quota tenant
//! ([`DecoError::QuotaExceeded`]) while other tenants keep being
//! admitted. Within a solve cycle, the optional tick pool is split *per
//! tenant first*, then per job within each tenant, so one tenant flooding
//! the batch cannot starve another's search depth.

use crate::request::{PlanRequest, Priority, TenantId};
use crate::server::canonical_deadline;
use deco_core::DecoError;
use deco_solver::SearchBudget;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One queued request: its trace sequence number and arrival tick, plus
/// the scalars the queue policies read. The body stays in the borrowed
/// trace — the serve loop resolves it as `trace.arrivals()[seq]` — so
/// admission copies no workflow.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    pub seq: u64,
    pub arrived_at: f64,
    pub tenant: TenantId,
    pub priority: Priority,
    /// The requested (not yet canonicalized) deadline.
    pub deadline: f64,
}

impl QueuedRequest {
    /// The queue entry for trace arrival `seq` carrying `request`.
    pub fn of(seq: u64, arrived_at: f64, request: &PlanRequest) -> Self {
        QueuedRequest {
            seq,
            arrived_at,
            tenant: request.tenant,
            priority: request.priority,
            deadline: request.deadline,
        }
    }
}

/// A bounded admission queue, drained by (priority class, admission
/// order).
#[derive(Debug)]
pub struct AdmissionQueue {
    pending: VecDeque<QueuedRequest>,
    capacity: usize,
    /// Optional per-tenant bound on waiting requests.
    tenant_quota: Option<usize>,
}

impl AdmissionQueue {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity queue admits nothing");
        AdmissionQueue {
            pending: VecDeque::new(),
            capacity,
            tenant_quota: None,
        }
    }

    /// Bound each tenant to at most `quota` waiting requests.
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "a zero quota admits nothing for anyone");
        self.tenant_quota = Some(quota);
        self
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admit a request, or refuse it: [`DecoError::QuotaExceeded`] when
    /// its tenant already holds its full share of the queue,
    /// [`DecoError::Overloaded`] when the queue itself is full.
    pub fn try_admit(&mut self, entry: QueuedRequest) -> Result<(), DecoError> {
        if let Some(quota) = self.tenant_quota {
            let queued = self
                .pending
                .iter()
                .filter(|q| q.tenant == entry.tenant)
                .count();
            if queued >= quota {
                return Err(DecoError::QuotaExceeded {
                    tenant: u64::from(entry.tenant),
                    queued,
                    quota,
                });
            }
        }
        if self.pending.len() >= self.capacity {
            return Err(DecoError::Overloaded {
                queued: self.pending.len(),
                capacity: self.capacity,
            });
        }
        self.pending.push_back(entry);
        Ok(())
    }

    /// Pop up to `n` requests, priority classes first
    /// (`Interactive` → `Batch` → `Background`), admission order within a
    /// class. With uniform priorities this is exactly FIFO.
    pub fn drain_batch(&mut self, n: usize) -> Vec<QueuedRequest> {
        let take = n.min(self.pending.len());
        if take == 0 {
            return Vec::new();
        }
        // Rank by (priority, seq): stable and deterministic.
        let mut order: Vec<usize> = (0..self.pending.len()).collect();
        order.sort_by_key(|&i| (self.pending[i].priority, self.pending[i].seq));
        order.truncate(take);
        order.sort_unstable(); // remove back-to-front so indices stay valid
        let mut batch: Vec<QueuedRequest> = order
            .into_iter()
            .rev()
            .filter_map(|i| self.pending.remove(i))
            .collect();
        batch.sort_by_key(|q| (q.priority, q.seq));
        batch
    }

    /// The trace seqs of the waiting requests in admission (FIFO) order —
    /// what a checkpoint records. Every other field of an entry is a
    /// function of its trace arrival, and draining order is recomputed
    /// from priorities at every cycle, so the FIFO seqs are the whole
    /// queue state.
    pub fn pending_seqs(&self) -> Vec<u64> {
        self.pending.iter().map(|q| q.seq).collect()
    }

    /// Replace the queue contents with entries rebuilt from a checkpoint's
    /// [`AdmissionQueue::pending_seqs`] (FIFO order preserved). Capacity
    /// and quota stay as configured.
    pub fn restore_pending(&mut self, pending: Vec<QueuedRequest>) {
        self.pending = pending.into();
    }

    /// The deadline-aware shed policy: find the waiting request whose
    /// bucket-floored canonical deadline is already unmeetable — its
    /// remaining slack at `now`, minus the per-request service estimate
    /// `est_service_ticks(request)` for one more cycle, has run out — and
    /// remove it from the queue. The estimator is a function of the
    /// queue entry so callers can thread a per-shape solve-cost model (the
    /// server's `shed_estimate` flag feeds the mean observed
    /// `budget_spent` for the request's workflow shape); a constant
    /// `|_| 0.0` reproduces the conservative policy that only sheds
    /// already-expired waiters. Victims are chosen lowest [`Priority`]
    /// class first, then most-negative slack, then smallest `seq`; `None`
    /// when every waiter can still meet its deadline (the caller then
    /// falls back to rejecting the newest arrival, the pre-shed behavior).
    pub fn shed_unmeetable(
        &mut self,
        now: f64,
        deadline_bucket: f64,
        est_service_ticks: &dyn Fn(&QueuedRequest) -> f64,
    ) -> Option<QueuedRequest> {
        let mut victim: Option<(Priority, f64, u64, usize)> = None;
        for (i, q) in self.pending.iter().enumerate() {
            let cd = canonical_deadline(q.deadline, deadline_bucket);
            let slack = cd - (now - q.arrived_at) - est_service_ticks(q);
            if slack >= 0.0 {
                continue;
            }
            let cand = (q.priority, slack, q.seq, i);
            // Lowest class first (Background > Batch in the Ord), then
            // most expired (smallest slack), then earliest seq.
            let better = match &victim {
                None => true,
                Some((p, s, seq, _)) => {
                    cand.0 > *p
                        || (cand.0 == *p && (cand.1 < *s || (cand.1 == *s && cand.2 < *seq)))
                }
            };
            if better {
                victim = Some(cand);
            }
        }
        let (_, _, _, idx) = victim?;
        self.pending.remove(idx)
    }
}

/// Split a cycle's tick pool fairly across the tenants owning this
/// cycle's cold solves, then across each tenant's jobs. Returns one
/// budget per entry of `tenants`, in order. With no pool, every job gets
/// an unlimited cycle share (the per-request cap still applies).
pub fn fair_share_budgets(pool: Option<f64>, tenants: &[TenantId]) -> Vec<SearchBudget> {
    let Some(pool) = pool else {
        return vec![SearchBudget::unlimited(); tenants.len()];
    };
    let mut per_tenant: BTreeMap<TenantId, usize> = BTreeMap::new();
    for &t in tenants {
        *per_tenant.entry(t).or_insert(0) += 1;
    }
    let tenant_share = SearchBudget::ticks(pool).fair_share(per_tenant.len().max(1));
    tenants
        .iter()
        .map(|t| tenant_share.fair_share(per_tenant[t]))
        .collect()
}

/// Clamp a cycle share by the request's own budget hint: the effective
/// budget is the tighter of the two on every axis.
pub fn effective_budget(share: &SearchBudget, hint: Option<f64>) -> SearchBudget {
    let ticks = match (share.ticks, hint) {
        (Some(s), Some(h)) => Some(s.min(h)),
        (Some(s), None) => Some(s),
        (None, Some(h)) => Some(h),
        (None, None) => None,
    };
    SearchBudget {
        ticks,
        wall_seconds: share.wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators;

    fn req(t: TenantId) -> PlanRequest {
        PlanRequest {
            tenant: t,
            workflow: generators::pipeline(2, 10.0, 0),
            deadline: 100.0,
            percentile: 0.9,
            budget_hint: None,
            priority: Priority::default(),
        }
    }

    fn req_pri(t: TenantId, priority: Priority) -> PlanRequest {
        PlanRequest { priority, ..req(t) }
    }

    fn admit(q: &mut AdmissionQueue, seq: u64, at: f64, r: PlanRequest) -> Result<(), DecoError> {
        q.try_admit(QueuedRequest::of(seq, at, &r))
    }

    #[test]
    fn queue_rejects_above_capacity_and_drains_fifo() {
        let mut q = AdmissionQueue::new(2);
        admit(&mut q, 0, 0.0, req(1)).expect("admit");
        admit(&mut q, 1, 1.0, req(2)).expect("admit");
        let err = admit(&mut q, 2, 2.0, req(3)).expect_err("full");
        assert!(matches!(
            err,
            DecoError::Overloaded {
                queued: 2,
                capacity: 2
            }
        ));
        let batch = q.drain_batch(10);
        assert_eq!(batch.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(q.is_empty());
        // Draining frees capacity again.
        admit(&mut q, 3, 3.0, req(3)).expect("admit after drain");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn priority_classes_drain_ahead_of_fifo() {
        let mut q = AdmissionQueue::new(8);
        admit(&mut q, 0, 0.0, req_pri(1, Priority::Background)).expect("admit");
        admit(&mut q, 1, 0.0, req_pri(2, Priority::Batch)).expect("admit");
        admit(&mut q, 2, 0.0, req_pri(3, Priority::Interactive)).expect("admit");
        admit(&mut q, 3, 0.0, req_pri(4, Priority::Interactive)).expect("admit");
        // Interactive (seq order), then batch, then background.
        let batch = q.drain_batch(3);
        assert_eq!(
            batch.iter().map(|b| b.seq).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        let rest = q.drain_batch(3);
        assert_eq!(rest.iter().map(|b| b.seq).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn tenant_quota_rejects_only_the_over_quota_tenant() {
        let mut q = AdmissionQueue::new(8).with_tenant_quota(2);
        admit(&mut q, 0, 0.0, req(1)).expect("admit");
        admit(&mut q, 1, 0.0, req(1)).expect("admit");
        let err = admit(&mut q, 2, 0.0, req(1)).expect_err("tenant 1 over quota");
        assert!(matches!(
            err,
            DecoError::QuotaExceeded {
                tenant: 1,
                queued: 2,
                quota: 2
            }
        ));
        // Another tenant is still welcome.
        admit(&mut q, 3, 0.0, req(2)).expect("tenant 2 within quota");
        assert_eq!(q.len(), 3);
        // Draining tenant 1's requests frees its quota again.
        q.drain_batch(10);
        admit(&mut q, 4, 0.0, req(1)).expect("admit after drain");
    }

    #[test]
    fn shed_picks_the_expired_lowest_class_first() {
        let mut q = AdmissionQueue::new(8);
        // Deadline 100 s; bucket 60 floors it to 60 canonical ticks.
        // Both the interactive and background requests arrived at 0 and
        // have expired by now=500; the fresh one (arrived 490) has not.
        admit(&mut q, 0, 0.0, req_pri(1, Priority::Interactive)).expect("admit");
        admit(&mut q, 1, 0.0, req_pri(2, Priority::Background)).expect("admit");
        admit(&mut q, 2, 490.0, req_pri(3, Priority::Batch)).expect("admit");
        let victim = q
            .shed_unmeetable(500.0, 60.0, &|_| 0.0)
            .expect("two waiters are doomed");
        assert_eq!(victim.seq, 1, "background sheds before interactive");
        let victim = q
            .shed_unmeetable(500.0, 60.0, &|_| 0.0)
            .expect("the doomed interactive is next");
        assert_eq!(victim.seq, 0);
        assert!(
            q.shed_unmeetable(500.0, 60.0, &|_| 0.0).is_none(),
            "the fresh request still has slack"
        );
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn shed_accounts_for_the_per_request_service_estimate() {
        let mut q = AdmissionQueue::new(8);
        admit(&mut q, 0, 0.0, req(1)).expect("admit");
        // At now=30 with canonical deadline 60, slack is 30: alive with a
        // free cycle, doomed once a cycle is estimated to cost 40 ticks.
        assert!(q.shed_unmeetable(30.0, 60.0, &|_| 0.0).is_none());
        assert!(q.shed_unmeetable(30.0, 60.0, &|_| 40.0).is_some());
    }

    #[test]
    fn shed_estimator_sees_the_request_it_prices() {
        let mut q = AdmissionQueue::new(8);
        admit(&mut q, 0, 0.0, req(1)).expect("admit");
        admit(&mut q, 1, 0.0, req(2)).expect("admit");
        // A shape-aware estimator dooms only tenant 2's request.
        let est = |q: &QueuedRequest| if q.tenant == 2 { 80.0 } else { 0.0 };
        let victim = q
            .shed_unmeetable(10.0, 60.0, &est)
            .expect("tenant 2 estimated past its deadline");
        assert_eq!(victim.tenant, 2);
        assert!(q.shed_unmeetable(10.0, 60.0, &est).is_none());
    }

    #[test]
    fn fair_share_splits_per_tenant_then_per_job() {
        // Tenant 1 owns two jobs, tenant 2 one: pool 120 → 60 per tenant,
        // then 30/30 for tenant 1's jobs and 60 for tenant 2's.
        let budgets = fair_share_budgets(Some(120.0), &[1, 2, 1]);
        let ticks: Vec<f64> = budgets.iter().map(|b| b.ticks.expect("limited")).collect();
        assert_eq!(ticks, vec![30.0, 60.0, 30.0]);
        // No pool → unlimited shares.
        assert!(fair_share_budgets(None, &[1, 2])
            .iter()
            .all(|b| b.is_unlimited()));
    }

    #[test]
    fn hints_tighten_but_never_loosen_budgets() {
        let share = SearchBudget::ticks(50.0);
        assert_eq!(effective_budget(&share, Some(20.0)).ticks, Some(20.0));
        assert_eq!(effective_budget(&share, Some(80.0)).ticks, Some(50.0));
        assert_eq!(effective_budget(&share, None).ticks, Some(50.0));
        let open = SearchBudget::unlimited();
        assert_eq!(effective_budget(&open, Some(9.0)).ticks, Some(9.0));
        assert!(effective_budget(&open, None).is_unlimited());
    }
}
