//! The sharded serving tier: N shards behind one deterministic engine.
//!
//! [`ShardedServer`] implements [`ServeBackend`], so the *entire* cycle
//! loop — admission, classification, fault fates, budget fair-share,
//! response ordering — is the exact code `PlanServer` runs
//! ([`deco_serve::serve_trace_backend`]). What this type changes is only
//! where state lives and where solves run:
//!
//! * the plan cache and the quarantine/strike books are **partitioned by
//!   contiguous content-key range** ([`ShardRouter`]) — shard-local
//!   storage, but one *global* LRU clock and one global capacity, so
//!   eviction picks the same victim a single-map cache would;
//! * each cycle's solve jobs are routed to their owning shard and run on
//!   **per-shard worker pools** concurrently, results merging into one
//!   canonically-ordered map;
//! * every cache/book mutation appends a frame to the shard's WAL-backed
//!   [`PlanStore`]; a shard restart (injected by a [`ShardFaultPlan`] at
//!   a cycle boundary, or an explicit [`ShardedServer::restart_shard`])
//!   replays snapshot + WAL and resumes **warm** — with persistence, a
//!   restart is observationally a no-op, which is why the replay stays
//!   byte-identical even under a crash/restart schedule.
//!
//! Without a `persist_dir`, a restarted shard deterministically loses its
//! partition (the documented degraded mode): still byte-deterministic
//! for a fixed restart schedule, but no longer identical to an
//! undisturbed run. Store I/O failures never panic: the shard drops to
//! memory-only operation and the failure is counted in [`ShardStats`].

use crate::faults::ShardFaultPlan;
use crate::router::ShardRouter;
use deco_cloud::MetadataStore;
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoError};
use deco_serve::server::{serve_trace_backend, solve_jobs_on_pool, ServeBackend, SolveJob};
use deco_serve::store::{PlanStore, RecoveredState, StoreFrame};
use deco_serve::{request_key, ArrivalTrace, PlanResponse, ServeConfig, ServeSession, ServeStats};
use deco_solver::SearchBudget;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Policy for the sharded tier. `serve` is the inner engine policy —
/// shared by every shard, exactly as a single-process server would read
/// it (`cache_capacity` is the *global* bound, not per-shard).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of key-range shards.
    pub shards: usize,
    /// Solver threads per shard pool.
    pub workers_per_shard: usize,
    /// The engine policy (admission, cache, retry, ...) the cycle loop
    /// runs under.
    pub serve: ServeConfig,
    /// Root directory for the per-shard durable stores
    /// (`<dir>/shard-<i>/`). `None` runs memory-only: restarts lose the
    /// shard's partition.
    pub persist_dir: Option<PathBuf>,
    /// Compact a shard's WAL into a snapshot once this many frames have
    /// been appended since the last compaction. 0 disables automatic
    /// compaction.
    pub snapshot_every: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            workers_per_shard: 2,
            serve: ServeConfig::default(),
            persist_dir: None,
            snapshot_every: 0,
        }
    }
}

/// Environment for one sharded replay: the inner serving session (worker
/// faults + calibration refreshes) plus the shard restart schedule.
#[derive(Debug, Clone, Default)]
pub struct ShardSession {
    pub serve: ServeSession,
    pub shard_faults: ShardFaultPlan,
}

/// Counters for the tier's own machinery (the serving counters live in
/// the engine's [`ServeStats`]; these describe sharding and durability).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard restarts taken (injected or explicit).
    pub restarts: u64,
    /// Cache entries recovered warm across all restarts and warm starts.
    pub recovered_entries: u64,
    /// Valid WAL/snapshot frames replayed across recoveries.
    pub recovered_frames: u64,
    /// Bytes discarded from torn log tails across recoveries.
    pub torn_bytes: u64,
    /// Entries lost to restarts without persistence (degraded mode).
    pub lost_entries: u64,
    /// WAL frames appended.
    pub wal_appends: u64,
    /// Snapshot compactions performed.
    pub snapshots: u64,
    /// Store I/O failures that degraded a shard to memory-only.
    pub store_failures: u64,
}

/// One cached plan in a shard's partition.
#[derive(Debug, Clone)]
struct StoredEntry {
    plan: SupervisedPlan,
    epoch: u64,
    last_use: u64,
}

/// One shard: its slice of the cache and books, plus its durable store.
struct Shard {
    entries: BTreeMap<u64, StoredEntry>,
    strikes: BTreeMap<u64, u32>,
    quarantine: BTreeSet<u64>,
    store: Option<PlanStore>,
    /// Frames appended since the last compaction (the snapshot trigger).
    appends_since_compact: u64,
}

impl Shard {
    fn empty() -> Self {
        Shard {
            entries: BTreeMap::new(),
            strikes: BTreeMap::new(),
            quarantine: BTreeSet::new(),
            store: None,
            appends_since_compact: 0,
        }
    }

    fn adopt(&mut self, state: RecoveredState) {
        self.entries = state
            .entries
            .into_iter()
            .map(|(k, e)| {
                (
                    k,
                    StoredEntry {
                        plan: e.plan,
                        epoch: e.epoch,
                        last_use: e.last_use,
                    },
                )
            })
            .collect();
        self.strikes = state.strikes;
        self.quarantine = state.quarantine;
    }

    /// Append a frame, degrading to memory-only on I/O failure — the
    /// store must never make the serving path unavailable.
    fn append(&mut self, frame: &StoreFrame, stats: &mut ShardStats) {
        if let Some(store) = self.store.as_mut() {
            match store.append(frame) {
                Ok(()) => {
                    stats.wal_appends += 1;
                    self.appends_since_compact += 1;
                }
                Err(_) => {
                    stats.store_failures += 1;
                    self.store = None;
                }
            }
        }
    }
}

/// A sharded, optionally persistent [`ServeBackend`]. See the module
/// docs for the design; the headline contract is that for any shard
/// count N ≥ 1 (and any restart schedule, when persistence is on), a
/// replay is byte-identical to [`deco_serve::PlanServer`] serving the
/// same trace under the same [`ServeSession`].
pub struct ShardedServer {
    pub deco: Deco,
    config: ShardConfig,
    router: ShardRouter,
    shards: Vec<Shard>,
    /// The single global LRU clock — shared by all shards, bumped on
    /// every get and insert exactly like the single-process cache's.
    clock: u64,
    /// The restart schedule for the replay in flight.
    fault_plan: ShardFaultPlan,
    stats: ShardStats,
}

impl ShardedServer {
    /// Build the tier. With a `persist_dir`, every shard warm-starts
    /// from its recovered snapshot + WAL (cold-restart warm hits); store
    /// failures degrade the affected shard to memory-only instead of
    /// failing construction, and only an unusable directory itself is an
    /// error.
    pub fn new(deco: Deco, config: ShardConfig) -> Result<Self, DecoError> {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.workers_per_shard >= 1, "need at least one worker");
        assert!(
            config.serve.batch_size >= 1,
            "batch_size must be at least 1"
        );
        let router = ShardRouter::new(config.shards);
        let mut stats = ShardStats::default();
        let mut shards = Vec::with_capacity(config.shards);
        let mut clock = 0u64;
        for i in 0..config.shards {
            let mut shard = Shard::empty();
            if let Some(root) = &config.persist_dir {
                let dir = root.join(format!("shard-{i}"));
                let mut store = PlanStore::open(&dir)?;
                match store.recover() {
                    Ok(state) => {
                        stats.recovered_entries += state.entries.len() as u64;
                        stats.recovered_frames += store.stats().frames_recovered;
                        stats.torn_bytes += store.stats().torn_bytes;
                        shard.adopt(state);
                        for e in shard.entries.values() {
                            clock = clock.max(e.last_use);
                        }
                        shard.store = Some(store);
                    }
                    Err(_) => {
                        stats.store_failures += 1;
                    }
                }
            }
            shards.push(shard);
        }
        Ok(ShardedServer {
            deco,
            config,
            router,
            shards,
            clock,
            fault_plan: ShardFaultPlan::quiescent(),
            stats,
        })
    }

    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Tier counters (restarts, recoveries, WAL traffic).
    pub fn shard_stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Total cached entries across all shards.
    pub fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Cached entries in one shard's partition.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].entries.len()
    }

    /// Content keys currently quarantined, across all shards.
    pub fn quarantined_keys(&self) -> usize {
        self.shards.iter().map(|s| s.quarantine.len()).sum()
    }

    /// The content key the tier would derive for a request — identical
    /// to `PlanServer::key_for` under the same `serve` policy.
    pub fn key_for(&self, req: &deco_serve::PlanRequest) -> u64 {
        request_key(req, &self.deco, &self.config.serve)
    }

    /// Kill one shard and bring it back. With a store attached the shard
    /// recovers its exact partition (cache, LRU stamps, strike and
    /// quarantine books) from snapshot + WAL; without one, the partition
    /// is lost (degraded mode) and the loss is counted.
    pub fn restart_shard(&mut self, shard: usize) {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        self.stats.restarts += 1;
        let s = &mut self.shards[shard];
        let had = s.entries.len() as u64;
        s.entries.clear();
        s.strikes.clear();
        s.quarantine.clear();
        // Close the old handle before reopening the same files.
        let dir = s.store.take().map(|st| st.dir().to_path_buf());
        match dir {
            Some(dir) => match PlanStore::open(&dir) {
                Ok(mut store) => match store.recover() {
                    Ok(state) => {
                        self.stats.recovered_entries += state.entries.len() as u64;
                        self.stats.recovered_frames += store.stats().frames_recovered;
                        self.stats.torn_bytes += store.stats().torn_bytes;
                        s.adopt(state);
                        s.store = Some(store);
                    }
                    Err(_) => {
                        self.stats.store_failures += 1;
                        self.stats.lost_entries += had;
                    }
                },
                Err(_) => {
                    self.stats.store_failures += 1;
                    self.stats.lost_entries += had;
                }
            },
            None => {
                self.stats.lost_entries += had;
            }
        }
    }

    /// Compact one shard's WAL into a fresh snapshot of its live state.
    pub fn compact_shard(&mut self, shard: usize) {
        let epoch = self.deco.store.catalog_epoch();
        let s = &mut self.shards[shard];
        let Some(store) = s.store.as_mut() else {
            return;
        };
        let mut state = RecoveredState {
            epoch,
            ..RecoveredState::default()
        };
        for (&key, e) in &s.entries {
            state.entries.insert(
                key,
                deco_serve::store::RecoveredEntry {
                    plan: e.plan.clone(),
                    epoch: e.epoch,
                    last_use: e.last_use,
                },
            );
        }
        state.strikes = s.strikes.clone();
        state.quarantine = s.quarantine.clone();
        match store.compact(&state.to_frames()) {
            Ok(()) => {
                self.stats.snapshots += 1;
                s.appends_since_compact = 0;
            }
            Err(_) => {
                self.stats.store_failures += 1;
                s.store = None;
            }
        }
    }

    /// Replay a recorded trace under a quiescent session — no worker
    /// faults, no refreshes, no shard restarts.
    pub fn serve_trace(&mut self, trace: &ArrivalTrace) -> (Vec<PlanResponse>, ServeStats) {
        self.serve_trace_session(trace, &ShardSession::default())
    }

    /// Replay a recorded trace under an explicit [`ShardSession`].
    /// Byte-identical to `PlanServer::serve_trace_session` on the same
    /// `(trace, session.serve)` for any shard count — including under
    /// `session.shard_faults` when persistence is on.
    pub fn serve_trace_session(
        &mut self,
        trace: &ArrivalTrace,
        session: &ShardSession,
    ) -> (Vec<PlanResponse>, ServeStats) {
        self.fault_plan = session.shard_faults.clone();
        let workers = self.config.workers_per_shard;
        let (responses, stats) = serve_trace_backend(self, trace, workers, &session.serve);
        self.fault_plan = ShardFaultPlan::quiescent();
        (responses, stats)
    }
}

impl ServeBackend for ShardedServer {
    fn deco(&self) -> &Deco {
        &self.deco
    }

    fn config(&self) -> &ServeConfig {
        &self.config.serve
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        // Same clock discipline as the single-process cache: the clock
        // advances on every lookup, hit or miss.
        self.clock += 1;
        let clock = self.clock;
        let si = self.router.shard_of(key);
        let shard = &mut self.shards[si];
        let hit = match shard.entries.get_mut(&key) {
            Some(e) => {
                e.last_use = clock;
                Some(e.plan.clone())
            }
            None => None,
        };
        if hit.is_some() {
            shard.append(
                &StoreFrame::Touch {
                    key,
                    last_use: clock,
                },
                &mut self.stats,
            );
        }
        hit
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        self.clock += 1;
        let capacity = self.config.serve.cache_capacity;
        if capacity == 0 {
            return 0; // the documented no-op cache, tier-wide
        }
        let owner = self.router.shard_of(key);
        let mut evicted = 0usize;
        let total: usize = self.shards.iter().map(|s| s.entries.len()).sum();
        if !self.shards[owner].entries.contains_key(&key) && total >= capacity {
            // Global LRU victim: min (last_use, key) across every
            // shard's partition — exactly the single-map cache's choice.
            let mut victim: Option<(u64, u64, usize)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                for (&k, e) in &shard.entries {
                    let cand = (e.last_use, k, si);
                    if victim
                        .map(|v| (cand.0, cand.1) < (v.0, v.1))
                        .unwrap_or(true)
                    {
                        victim = Some(cand);
                    }
                }
            }
            if let Some((_, vk, vs)) = victim {
                self.shards[vs].entries.remove(&vk);
                self.shards[vs].append(&StoreFrame::Del { key: vk }, &mut self.stats);
                evicted = 1;
            }
        }
        let clock = self.clock;
        let shard = &mut self.shards[owner];
        shard.entries.insert(
            key,
            StoredEntry {
                plan: plan.clone(),
                epoch,
                last_use: clock,
            },
        );
        shard.append(
            &StoreFrame::Put {
                key,
                epoch,
                last_use: clock,
                plan: plan.clone(),
            },
            &mut self.stats,
        );
        evicted
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        let mut purged = 0usize;
        for shard in &mut self.shards {
            let stale: Vec<u64> = shard
                .entries
                .iter()
                .filter(|(_, e)| e.epoch != epoch)
                .map(|(&k, _)| k)
                .collect();
            for k in stale {
                shard.entries.remove(&k);
                shard.append(&StoreFrame::Del { key: k }, &mut self.stats);
                purged += 1;
            }
        }
        purged
    }

    fn is_key_quarantined(&self, key: u64) -> bool {
        self.shards[self.router.shard_of(key)]
            .quarantine
            .contains(&key)
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.shards[self.router.shard_of(key)]
            .strikes
            .get(&key)
            .copied()
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        let si = self.router.shard_of(key);
        let shard = &mut self.shards[si];
        let count = {
            let c = shard.strikes.entry(key).or_insert(0);
            *c += 1;
            *c
        };
        shard.append(&StoreFrame::Strike { key, count }, &mut self.stats);
        count
    }

    fn quarantine_key(&mut self, key: u64) {
        let si = self.router.shard_of(key);
        let shard = &mut self.shards[si];
        shard.quarantine.insert(key);
        shard.append(&StoreFrame::Quarantine { key }, &mut self.stats);
    }

    fn clear_strikes(&mut self, key: u64) {
        let si = self.router.shard_of(key);
        let shard = &mut self.shards[si];
        if shard.strikes.remove(&key).is_some() {
            shard.append(&StoreFrame::ClearKey { key }, &mut self.stats);
        }
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        if jobs.is_empty() {
            return BTreeMap::new();
        }
        // Route each job to its owning shard's pool; pools run
        // concurrently and the per-job results are deterministic, so the
        // merged canonical map is independent of pool interleaving.
        let mut groups: Vec<Vec<SolveJob>> = (0..self.config.shards).map(|_| Vec::new()).collect();
        for job in jobs {
            groups[self.router.shard_of(job.key)].push(job);
        }
        let deco = &self.deco;
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            for group in groups.into_iter().filter(|g| !g.is_empty()) {
                let tx = tx.clone();
                scope.spawn(move || {
                    let solved = solve_jobs_on_pool(deco, group, workers);
                    let _ = tx.send(solved);
                });
            }
            drop(tx);
            let mut merged = BTreeMap::new();
            for mut part in rx.iter() {
                merged.append(&mut part);
            }
            merged
        })
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        // Mirror PlanServer::refresh_calibration exactly: strictly
        // increasing epoch, stale purge, clean books — plus one Epoch
        // frame per shard so recovery applies the same discipline.
        let old = self.deco.store.catalog_epoch();
        self.deco.store = store;
        while self.deco.store.catalog_epoch() <= old {
            self.deco.store.bump_catalog_epoch();
        }
        let epoch = self.deco.store.catalog_epoch();
        let mut purged = 0usize;
        for shard in &mut self.shards {
            let before = shard.entries.len();
            shard.entries.retain(|_, e| e.epoch == epoch);
            purged += before - shard.entries.len();
            shard.strikes.clear();
            shard.quarantine.clear();
            shard.append(&StoreFrame::Epoch { epoch }, &mut self.stats);
        }
        (epoch, purged)
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        // Injected shard restarts land here, strictly between cycles,
        // in shard index order (deterministic for any schedule).
        if !self.fault_plan.is_quiescent() {
            for shard in 0..self.shards.len() {
                if self.fault_plan.restarts_at(cycle, shard) {
                    self.restart_shard(shard);
                }
            }
        }
        if self.config.snapshot_every > 0 {
            for shard in 0..self.shards.len() {
                if self.shards[shard].appends_since_compact >= self.config.snapshot_every {
                    self.compact_shard(shard);
                }
            }
        }
    }

    fn observability(&self) -> deco_serve::BackendObservability {
        deco_serve::BackendObservability {
            store_failures: self.stats.store_failures,
            transport_errors: 0, // in-process tier: no pipes to break
            restarts: self.stats.restarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::CloudSpec;
    use deco_core::supervisor::plan_with_fallback;
    use deco_workflow::generators;

    fn small_deco() -> Deco {
        let store = MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20);
        let mut deco = Deco::new(store);
        deco.options.mc_iters = 10;
        deco.options.search.max_states = 40;
        deco
    }

    fn dummy_plan(marker: u64) -> SupervisedPlan {
        let d = small_deco();
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &d.store.spec);
        let mut p = plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .expect("feasible");
        p.provenance.budget_spent += marker as f64;
        p
    }

    fn tier(shards: usize, capacity: usize) -> ShardedServer {
        ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards,
                workers_per_shard: 1,
                serve: ServeConfig {
                    cache_capacity: capacity,
                    ..ServeConfig::default()
                },
                persist_dir: None,
                snapshot_every: 0,
            },
        )
        .expect("memory-only construction cannot fail")
    }

    #[test]
    fn partitioned_lru_matches_the_single_map_cache() {
        // Reproduce cache.rs's LRU scenario across 4 shards: same
        // victims, same survivors, driven through the backend trait.
        let mut t = tier(4, 2);
        let p = dummy_plan(1);
        assert_eq!(t.cache_insert(1, &p, 0), 0);
        assert_eq!(t.cache_insert(u64::MAX / 2, &p, 0), 0);
        assert!(t.cache_get(1).is_some()); // refresh 1; victim is MAX/2
        assert_eq!(t.cache_insert(u64::MAX - 5, &p, 0), 1);
        assert!(t.cache_get(u64::MAX / 2).is_none(), "global LRU victim");
        assert!(t.cache_get(1).is_some());
        assert!(t.cache_get(u64::MAX - 5).is_some());
        assert_eq!(t.cache_len(), 2);
    }

    #[test]
    fn zero_capacity_is_a_tier_wide_no_op() {
        let mut t = tier(2, 0);
        let p = dummy_plan(1);
        assert_eq!(t.cache_insert(7, &p, 0), 0);
        assert!(t.cache_get(7).is_none());
        assert_eq!(t.cache_len(), 0);
    }

    #[test]
    fn books_partition_by_key_range() {
        let mut t = tier(2, 8);
        let low = 17u64; // shard 0
        let high = u64::MAX - 17; // shard 1
        assert_eq!(t.add_strike(low), 1);
        assert_eq!(t.add_strike(low), 2);
        assert_eq!(t.add_strike(high), 1);
        assert_eq!(t.strike_count(low), Some(2));
        assert_eq!(t.strike_count(high), Some(1));
        t.quarantine_key(high);
        assert!(t.is_key_quarantined(high));
        assert!(!t.is_key_quarantined(low));
        assert_eq!(t.quarantined_keys(), 1);
        t.clear_strikes(low);
        assert_eq!(t.strike_count(low), None);
        assert_eq!(t.shards[0].strikes.len(), 0);
        assert_eq!(t.shards[1].strikes.len(), 1);
    }

    #[test]
    fn restart_without_persistence_loses_the_partition() {
        let mut t = tier(2, 8);
        let p = dummy_plan(1);
        t.cache_insert(17, &p, 0); // shard 0
        t.cache_insert(u64::MAX - 17, &p, 0); // shard 1
        t.restart_shard(0);
        assert_eq!(t.cache_len(), 1, "shard 0's partition is gone");
        assert!(t.cache_get(17).is_none());
        assert!(t.cache_get(u64::MAX - 17).is_some());
        assert_eq!(t.shard_stats().restarts, 1);
        assert_eq!(t.shard_stats().lost_entries, 1);
    }

    #[test]
    fn restart_with_persistence_recovers_warm() {
        let dir =
            std::env::temp_dir().join(format!("deco_shard_{}_restart_warm", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards: 2,
                workers_per_shard: 1,
                serve: ServeConfig::default(),
                persist_dir: Some(dir.clone()),
                snapshot_every: 0,
            },
        )
        .unwrap();
        let p = dummy_plan(3);
        t.cache_insert(17, &p, 0);
        t.add_strike(17);
        t.quarantine_key(u64::MAX - 4);
        let before = (t.cache_len(), t.strike_count(17), t.quarantined_keys());
        t.restart_shard(0);
        t.restart_shard(1);
        assert_eq!(
            (t.cache_len(), t.strike_count(17), t.quarantined_keys()),
            before,
            "a persisted restart is observationally a no-op"
        );
        let got = t.cache_get(17).expect("recovered entry");
        assert_eq!(
            got.provenance.budget_spent.to_bits(),
            p.provenance.budget_spent.to_bits()
        );
        assert!(t.shard_stats().recovered_entries >= 1);
        assert_eq!(t.shard_stats().lost_entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_truncates_and_preserves_state() {
        let dir = std::env::temp_dir().join(format!("deco_shard_{}_compact", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = ShardedServer::new(
            small_deco(),
            ShardConfig {
                shards: 1,
                workers_per_shard: 1,
                serve: ServeConfig::default(),
                persist_dir: Some(dir.clone()),
                snapshot_every: 0,
            },
        )
        .unwrap();
        let p = dummy_plan(5);
        for k in 0..6u64 {
            t.cache_insert(k, &p, 0);
        }
        t.compact_shard(0);
        assert_eq!(t.shard_stats().snapshots, 1);
        t.restart_shard(0);
        assert_eq!(t.cache_len(), 6, "snapshot alone reproduces the state");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
