//! The content-addressed plan cache.
//!
//! A plan is a pure function of (workflow DAG shape, catalog facts, engine
//! options, canonical deadline, percentile, budget). The cache keys on a
//! digest of exactly those inputs:
//!
//! * the **workflow shape** — task profiles in task order and data edges
//!   as a set; task and workflow *names* are deliberately excluded, so
//!   two tenants submitting structurally identical DAX documents share
//!   one cache line;
//! * the **catalog epoch** ([`MetadataStore::catalog_epoch`]) plus a
//!   price-table fingerprint — a recalibration or price refresh bumps the
//!   epoch, which changes every key derived afterwards and strands the
//!   stale entries (reaped by [`PlanCache::purge_stale`] and LRU);
//! * the **engine options** that shape the search (MC iterations, beam
//!   width, seeds, retry policy);
//! * the **canonical deadline** (bucket-floored by the server), the
//!   percentile, and the request-level budget.
//!
//! A warm hit therefore returns a plan bit-identical to what a cold solve
//! of the same canonical request would produce — the property the
//! proptests pin.
//!
//! **Key derivation.** Keys are hashed on every request, hit or miss, so
//! the digest works a 64-bit word at a time (`KeyHasher`): one folded
//! 64×64→128-bit multiply per word and a SplitMix64 finish, with `f64`s
//! canonicalised by [`canonical_f64_bits`] as in
//! [`StableHasher::write_f64`] (`-0.0` equals `+0.0`, every NaN is one
//! NaN). Edges enter as a wrapping sum of
//! per-edge mixes of `(from, to, bytes)`: the sum ignores insertion
//! order, and [`Workflow::add_edge`] rejects duplicates, so the edge list
//! is a set and needs no sort. Keys are not durable across derivations:
//! bumping `KEY_DOMAIN` (or the mixer) strands every stored entry, which
//! is why the supervisor journal's version moves with it.
//!
//! [`StableHasher`]: deco_prob::hash::StableHasher
//! [`StableHasher::write_f64`]: deco_prob::hash::StableHasher::write_f64

use crate::request::PlanRequest;
use crate::server::{canonical_deadline, ServeConfig};
use deco_cloud::MetadataStore;
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoOptions};
use deco_prob::hash::canonical_f64_bits;
use deco_prob::rng::splitmix64;
use deco_workflow::Workflow;
use std::collections::HashMap;

/// Domain-separation seed: bump when the key derivation changes shape.
const KEY_DOMAIN: u64 = 0x5E72_ECAC_4E00_0002;

/// Odd multiplier of the per-word mix (the 64-bit golden ratio).
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Edge-mix whitening. `EDGE_ENDS` has its top bit set, so only a task
/// index ≥ 2^31 could cancel it; `EDGE_BYTES` is a NaN with a payload
/// [`canonical_f64_bits`] never produces. Neither operand of an edge's
/// multiply is therefore ever zero, so every edge moves the sum.
const EDGE_ENDS: u64 = 0xA076_1D64_78BD_642F;
const EDGE_BYTES: u64 = 0x7FF4_E703_7ED1_A0B4;

/// The low and high halves of the 128-bit product, folded by XOR.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The content-key hasher: a serial chain of one folded multiply per
/// 64-bit word, finished by SplitMix64. Private to key derivation — the
/// byte-wise `StableHasher` still seeds Monte-Carlo streams, WAL
/// checksums and fault schedules, whose values must never move.
struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    fn with_seed(seed: u64) -> Self {
        KeyHasher {
            state: splitmix64(seed),
        }
    }

    fn word(&mut self, w: u64) {
        self.state = fold_mul(self.state ^ w, WORD_MUL);
    }

    fn f64(&mut self, v: f64) {
        self.word(canonical_f64_bits(v));
    }

    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// One edge's contribution to the shape hash's order-free edge sum.
fn edge_mix(from: u32, to: u32, bytes: f64) -> u64 {
    let ends = (u64::from(from) << 32) | u64::from(to);
    fold_mul(ends ^ EDGE_ENDS, canonical_f64_bits(bytes) ^ EDGE_BYTES)
}

/// Canonical structural hash of a workflow: profiles and edges, no names.
pub fn workflow_shape_hash(wf: &Workflow) -> u64 {
    let mut h = KeyHasher::with_seed(KEY_DOMAIN ^ 0x0DA6);
    h.word(wf.len() as u64);
    for t in wf.tasks() {
        h.f64(t.profile.cpu_seconds);
        h.f64(t.profile.read_bytes);
        h.f64(t.profile.write_bytes);
    }
    // Insertion order is not content: the edges form a set, and a
    // wrapping sum is the same for every order of one set.
    let mut edges = 0u64;
    let mut sum = 0u64;
    for e in wf.edges() {
        edges += 1;
        sum = sum.wrapping_add(edge_mix(e.from.0, e.to.0, e.bytes));
    }
    h.word(edges);
    h.word(sum);
    h.finish()
}

/// Fingerprint of the catalog the planner consults: the epoch (the
/// monotonic staleness signal) plus the price table and billing geometry,
/// so even an un-bumped store swap cannot alias keys.
pub fn catalog_fingerprint(store: &MetadataStore) -> u64 {
    let mut h = KeyHasher::with_seed(KEY_DOMAIN ^ 0xCA7A);
    h.word(store.catalog_epoch());
    let spec = &store.spec;
    h.word(spec.types.len() as u64);
    for t in &spec.types {
        h.f64(t.price_per_hour);
        h.f64(t.ecu);
    }
    h.word(spec.regions.len() as u64);
    for r in &spec.regions {
        h.f64(r.price_multiplier);
    }
    h.f64(spec.billing_quantum);
    h.f64(spec.inter_region_price_per_gb);
    h.finish()
}

/// Fingerprint of every engine option that can change a solve's verdict.
pub fn options_fingerprint(options: &DecoOptions) -> u64 {
    let mut h = KeyHasher::with_seed(KEY_DOMAIN ^ 0x0975);
    h.word(options.mc_iters as u64);
    h.word(options.beam_width as u64);
    h.word(options.wlog_bins as u64);
    h.word(options.search.max_states as u64);
    h.word(options.search.patience as u64);
    h.word(options.search.batch as u64);
    h.word(options.search.seed);
    match &options.retry {
        None => h.word(0),
        Some(r) => {
            h.word(1);
            h.word(u64::from(r.max_attempts));
            h.f64(r.backoff_base);
            h.f64(r.backoff_cap);
        }
    }
    h.finish()
}

/// The full content-addressed key of one canonical plan request.
pub fn plan_key(
    wf: &Workflow,
    store: &MetadataStore,
    options: &DecoOptions,
    canonical_deadline: f64,
    percentile: f64,
    budget_ticks: Option<f64>,
) -> u64 {
    let mut h = KeyHasher::with_seed(KEY_DOMAIN);
    h.word(workflow_shape_hash(wf));
    h.word(catalog_fingerprint(store));
    h.word(options_fingerprint(options));
    h.f64(canonical_deadline);
    h.f64(percentile);
    match budget_ticks {
        None => h.word(0),
        Some(t) => {
            h.word(1);
            h.f64(t);
        }
    }
    h.finish()
}

/// The key a serving tier derives for `req` under `cfg`: the request's
/// deadline floored to its bucket, and its budget hint (or the
/// configured cap) as the budget component. Every tier's `key_for` and
/// the cycle loop go through here, so they cannot drift apart.
pub fn request_key(req: &PlanRequest, deco: &Deco, cfg: &ServeConfig) -> u64 {
    plan_key(
        &req.workflow,
        &deco.store,
        &deco.options,
        canonical_deadline(req.deadline, cfg.deadline_bucket),
        req.percentile,
        req.budget_hint.or(cfg.budget.ticks),
    )
}

struct Entry {
    plan: SupervisedPlan,
    /// Catalog epoch the plan was solved under (for `purge_stale`).
    epoch: u64,
    /// Logical last-use stamp for LRU eviction.
    last_use: u64,
}

/// A bounded LRU map from content key to supervised plan. Eviction is
/// deterministic: the least-recently-used entry goes first, ties broken by
/// smaller key.
///
/// A **zero-capacity cache is a documented no-op**: [`PlanCache::insert`]
/// never stores (and never evicts a phantom entry), every lookup misses,
/// and `len()` stays 0. A shard misconfigured with `cache_capacity: 0`
/// therefore fails soft — it serves every request as a cold solve instead
/// of panicking at construction.
pub struct PlanCache {
    map: HashMap<u64, Entry>,
    capacity: usize,
    clock: u64,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: HashMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// The configured entry bound (0 means the cache never stores).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a key, refreshing its LRU stamp on a hit.
    pub fn get(&mut self, key: u64) -> Option<&SupervisedPlan> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|e| {
            e.last_use = clock;
            &e.plan
        })
    }

    /// Insert a solved plan; returns how many entries were evicted to
    /// make room (0 or 1). With `capacity == 0` this is a no-op: nothing
    /// is stored, nothing is evicted.
    pub fn insert(&mut self, key: u64, plan: SupervisedPlan, epoch: u64) -> usize {
        self.clock += 1;
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .map(|(&k, e)| (e.last_use, k))
                .min()
                .map(|(_, k)| k)
            {
                self.map.remove(&victim);
                evicted = 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                plan,
                epoch,
                last_use: self.clock,
            },
        );
        evicted
    }

    /// Drop every entry solved under an older catalog epoch; returns the
    /// number purged. (Stale entries are already unreachable — the epoch
    /// is part of every key — so this is reclamation, not correctness.)
    pub fn purge_stale(&mut self, current_epoch: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|_, e| e.epoch == current_epoch);
        before - self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_cloud::{CloudSpec, MetadataStore};
    use deco_core::supervisor::plan_with_fallback;
    use deco_core::Deco;
    use deco_solver::SearchBudget;
    use deco_workflow::generators;

    fn store() -> MetadataStore {
        MetadataStore::from_ground_truth(CloudSpec::amazon_ec2(), 20)
    }

    #[test]
    fn shape_hash_ignores_names_but_not_structure() {
        let a = generators::montage(1, 5);
        let mut b = a.clone();
        b.name = "renamed".into();
        assert_eq!(workflow_shape_hash(&a), workflow_shape_hash(&b));
        let c = generators::montage(1, 6);
        assert_ne!(workflow_shape_hash(&a), workflow_shape_hash(&c));
        assert_ne!(
            workflow_shape_hash(&generators::pipeline(3, 10.0, 0)),
            workflow_shape_hash(&generators::pipeline(4, 10.0, 0))
        );
    }

    #[test]
    fn key_hasher_known_answers_never_change() {
        // Golden values: every content key, and so every stored plan's
        // address and every journaled key, hangs on these. Do not update
        // them to make a refactor pass; a deliberate change of the
        // derivation bumps KEY_DOMAIN and the journal version with them.
        let words = |seed: u64, ws: &[u64]| {
            let mut h = KeyHasher::with_seed(seed);
            for &w in ws {
                h.word(w);
            }
            h.finish()
        };
        assert_eq!(words(0, &[]), 0xA706_DD2F_4D19_7E6F);
        assert_eq!(words(KEY_DOMAIN, &[1, 2, 3]), 0xD3B7_2158_4BC0_1464);
        assert_eq!(edge_mix(0, 1, 1024.0), 0xFCC8_BEB9_4B0E_7E3A);
        assert_eq!(
            workflow_shape_hash(&generators::pipeline(3, 10.0, 0)),
            0xAD9F_E594_2BA5_9524
        );
        assert_eq!(
            workflow_shape_hash(&generators::montage(1, 5)),
            0xF76F_D8EA_29CB_17B4
        );
        assert_eq!(
            workflow_shape_hash(&generators::ligo(20, 3)),
            0x0E64_E808_9B7C_4410
        );
    }

    #[test]
    fn keys_track_epoch_deadline_budget_and_options() {
        let wf = generators::montage(1, 5);
        let mut st = store();
        let opts = DecoOptions::default();
        let base = plan_key(&wf, &st, &opts, 1000.0, 0.9, None);
        assert_eq!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, None));
        st.bump_catalog_epoch();
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, None));
        let st = store();
        assert_ne!(base, plan_key(&wf, &st, &opts, 2000.0, 0.9, None));
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.95, None));
        assert_ne!(base, plan_key(&wf, &st, &opts, 1000.0, 0.9, Some(50.0)));
        let mut tweaked = DecoOptions::default();
        tweaked.mc_iters += 1;
        assert_ne!(base, plan_key(&wf, &st, &tweaked, 1000.0, 0.9, None));
    }

    fn dummy_plan(seed: u64) -> SupervisedPlan {
        let st = store();
        let mut d = Deco::new(st);
        d.options.mc_iters = 10;
        d.options.search.max_states = 40;
        let wf = generators::pipeline(2, 50.0, 0);
        let (dmin, dmax) = deco_core::estimate::deadline_anchors(&wf, &d.store.spec);
        plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &SearchBudget::unlimited(),
        )
        .map(|mut p| {
            p.provenance.budget_spent += seed as f64; // distinguishable marker
            p
        })
        .expect("feasible")
    }

    #[test]
    fn lru_evicts_least_recently_used_deterministically() {
        let mut cache = PlanCache::new(2);
        assert_eq!(cache.insert(1, dummy_plan(1), 0), 0);
        assert_eq!(cache.insert(2, dummy_plan(2), 0), 0);
        assert!(cache.get(1).is_some()); // refresh 1; victim becomes 2
        assert_eq!(cache.insert(3, dummy_plan(3), 0), 1);
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_is_a_no_op() {
        let mut cache = PlanCache::new(0);
        assert_eq!(cache.capacity(), 0);
        assert_eq!(
            cache.insert(1, dummy_plan(1), 0),
            0,
            "no phantom eviction on a no-op insert"
        );
        assert!(cache.get(1).is_none(), "nothing is ever stored");
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        // Repeated inserts stay no-ops and never evict.
        for k in 0..10 {
            assert_eq!(cache.insert(k, dummy_plan(k), 0), 0);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.purge_stale(1), 0);
    }

    #[test]
    fn purge_drops_only_stale_epochs() {
        let mut cache = PlanCache::new(8);
        cache.insert(1, dummy_plan(1), 0);
        cache.insert(2, dummy_plan(2), 1);
        cache.insert(3, dummy_plan(3), 1);
        assert_eq!(cache.purge_stale(1), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none());
        assert_eq!(cache.purge_stale(2), 2);
        assert!(cache.is_empty());
    }
}
