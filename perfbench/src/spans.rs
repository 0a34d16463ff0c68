//! In-memory span tracing around the engine's public layer boundaries.
//!
//! The library is not instrumented: [`TracedBackend`] wraps any
//! [`ServeBackend`] and [`TracedProblem`] wraps a [`SchedulingProblem`],
//! recording one span per call into the wrapped layer. Spans stay in
//! memory and are written as JSON lines when the run ends.

use deco_cloud::MetadataStore;
use deco_core::estimate::{CompiledFrontier, EvalScratch, FrontierSkeleton};
use deco_core::supervisor::SupervisedPlan;
use deco_core::{Deco, DecoError, SchedulingProblem};
use deco_serve::{
    BackendObservability, PlanResponse, ServeBackend, ServeCheckpoint, ServeConfig, SolveJob,
};
use deco_solver::transform::TypeState;
use deco_solver::{Evaluation, SearchBudget, SearchProblem};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_REQ: u64 = u64::MAX;

/// One timed call. `n` is the call's item count (jobs in a solve batch,
/// states in a frontier block), 1 where there is nothing to count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shared, thread-safe span store.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
    }

    /// Open a span that children can name as their parent; close it with
    /// [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: u32, req: u64, n: u64) -> u32 {
        let start_ns = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            n,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, id: u32) {
        let end = self.now();
        self.lock()[id as usize].end_ns = end;
    }

    /// Time `f` as one leaf span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u32,
        req: u64,
        n: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            n,
        });
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Per-name totals: calls, summed duration, summed item count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    pub calls: u64,
    pub total_ns: u64,
    pub items: u64,
}

impl NameStat {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.calls as f64)
    }
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.items += s.n;
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once,
/// children running past the parent are clipped to it).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Span dumps stop after this many lines per file.
const DUMP_LIMIT: usize = 200_000;

/// Write `spans` to `<root>/.bench_out/<name>.jsonl`, reporting (not
/// failing on) I/O errors: the dump is a by-product of the run.
pub fn dump(root: &std::path::Path, name: &str, spans: &[Span]) {
    let path = root.join(".bench_out").join(format!("{name}.jsonl"));
    if let Err(e) = write_jsonl(spans, &path, DUMP_LIMIT) {
        eprintln!("writing {}: {e}", path.display());
    }
}

/// Write up to `limit` spans as JSON lines.
fn write_jsonl(spans: &[Span], path: &std::path::Path, limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate().take(limit) {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let req = if s.req == NO_REQ {
            "null".to_string()
        } else {
            s.req.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{req},\"n\":{}}}",
            s.name, s.start_ns, s.end_ns, s.n
        )?;
    }
    out.flush()
}

/// A [`ServeBackend`] that times every trait call into the wrapped
/// backend. A cycle span opens at [`ServeBackend::on_cycle_boundary`] and
/// closes at the cycle's closing [`ServeBackend::observability`] snapshot;
/// backend calls inside it are its children.
///
/// Request ids: the cycle loop classifies a batch in drain order and
/// issues exactly one cache lookup per valid, unquarantined request, so
/// with a single priority class the k-th lookup of a replay is trace
/// sequence `k`; `req_base` offsets it across replays.
pub struct TracedBackend<'r, B> {
    pub inner: B,
    rec: &'r Recorder,
    cycle: Cell<u32>,
    next_req: Cell<u64>,
}

impl<'r, B: ServeBackend> TracedBackend<'r, B> {
    pub fn new(inner: B, rec: &'r Recorder, req_base: u64) -> Self {
        TracedBackend {
            inner,
            rec,
            cycle: Cell::new(NO_PARENT),
            next_req: Cell::new(req_base),
        }
    }

    fn leaf<R>(&self, name: &'static str, n: u64, f: impl FnOnce() -> R) -> R {
        self.rec.time(name, self.cycle.get(), NO_REQ, n, f)
    }
}

impl<B: ServeBackend> ServeBackend for TracedBackend<'_, B> {
    fn deco(&self) -> &Deco {
        self.inner.deco()
    }

    fn config(&self) -> &ServeConfig {
        self.inner.config()
    }

    fn cache_get(&mut self, key: u64) -> Option<SupervisedPlan> {
        let req = self.next_req.get();
        self.next_req.set(req + 1);
        let inner = &mut self.inner;
        self.rec.time("cache.get", self.cycle.get(), req, 1, || {
            inner.cache_get(key)
        })
    }

    fn cache_insert(&mut self, key: u64, plan: &SupervisedPlan, epoch: u64) -> usize {
        let inner = &mut self.inner;
        self.rec
            .time("cache.insert", self.cycle.get(), NO_REQ, 1, || {
                inner.cache_insert(key, plan, epoch)
            })
    }

    fn cache_purge_stale(&mut self, epoch: u64) -> usize {
        let inner = &mut self.inner;
        self.rec
            .time("cache.purge", self.cycle.get(), NO_REQ, 1, || {
                inner.cache_purge_stale(epoch)
            })
    }

    fn is_key_quarantined(&self, key: u64) -> bool {
        self.leaf("books.is_quarantined", 1, || {
            self.inner.is_key_quarantined(key)
        })
    }

    fn strike_count(&self, key: u64) -> Option<u32> {
        self.leaf("books.strike_count", 1, || self.inner.strike_count(key))
    }

    fn add_strike(&mut self, key: u64) -> u32 {
        let inner = &mut self.inner;
        self.rec
            .time("books.add_strike", self.cycle.get(), NO_REQ, 1, || {
                inner.add_strike(key)
            })
    }

    fn quarantine_key(&mut self, key: u64) {
        let inner = &mut self.inner;
        self.rec
            .time("books.quarantine", self.cycle.get(), NO_REQ, 1, || {
                inner.quarantine_key(key)
            })
    }

    fn clear_strikes(&mut self, key: u64) {
        let inner = &mut self.inner;
        self.rec
            .time("books.clear_strikes", self.cycle.get(), NO_REQ, 1, || {
                inner.clear_strikes(key)
            })
    }

    fn solve_jobs(
        &self,
        jobs: Vec<SolveJob>,
        workers: usize,
    ) -> BTreeMap<u64, (SearchBudget, Result<SupervisedPlan, DecoError>)> {
        let n = jobs.len() as u64;
        self.leaf("supervisor.solve_batch", n, || {
            self.inner.solve_jobs(jobs, workers)
        })
    }

    fn refresh_calibration(&mut self, store: MetadataStore) -> (u64, usize) {
        let inner = &mut self.inner;
        self.rec
            .time("serve.refresh", self.cycle.get(), NO_REQ, 1, || {
                inner.refresh_calibration(store)
            })
    }

    fn on_cycle_boundary(&mut self, cycle: u64) {
        let id = self.rec.open("serve.cycle", NO_PARENT, NO_REQ, 1);
        self.cycle.set(id);
        let inner = &mut self.inner;
        self.rec.time("serve.cycle_boundary", id, NO_REQ, 1, || {
            inner.on_cycle_boundary(cycle)
        });
    }

    fn observability(&self) -> BackendObservability {
        let obs = self.leaf("serve.observability", 1, || self.inner.observability());
        let id = self.cycle.replace(NO_PARENT);
        if id != NO_PARENT {
            self.rec.close(id);
        }
        obs
    }

    fn wants_commits(&self) -> bool {
        self.inner.wants_commits()
    }

    fn commit_cycle(
        &mut self,
        checkpoint: &ServeCheckpoint,
        new_responses: &[PlanResponse],
    ) -> bool {
        let inner = &mut self.inner;
        self.rec.time("serve.commit", NO_PARENT, NO_REQ, 1, || {
            inner.commit_cycle(checkpoint, new_responses)
        })
    }
}

/// A [`SearchProblem`] that delegates every method to a
/// [`SchedulingProblem`] and times the expensive ones. After each
/// frontier block's `eval.frontier` span closes, a `trace.conform` span
/// checks whether [`CompiledFrontier::compile`] accepts the block against
/// a skeleton built here from the problem's own table, so the check is
/// excluded from both eval time and the caller's self time.
pub struct TracedProblem<'p, 'a> {
    pub inner: &'p SchedulingProblem<'a>,
    rec: &'p Recorder,
    parent: u32,
    req: u64,
    skeleton: FrontierSkeleton,
    blocks: AtomicUsize,
    conforming: AtomicUsize,
}

impl<'p, 'a> TracedProblem<'p, 'a> {
    pub fn new(inner: &'p SchedulingProblem<'a>, rec: &'p Recorder, parent: u32, req: u64) -> Self {
        TracedProblem {
            inner,
            rec,
            parent,
            req,
            skeleton: FrontierSkeleton::build(inner.wf, &inner.table),
            blocks: AtomicUsize::new(0),
            conforming: AtomicUsize::new(0),
        }
    }

    fn leaf<R>(&self, name: &'static str, n: u64, f: impl FnOnce() -> R) -> R {
        self.rec.time(name, self.parent, self.req, n, f)
    }

    /// `(frontier blocks evaluated, blocks the compiled frontier accepts)`.
    pub fn conformance(&self) -> (usize, usize) {
        (
            self.blocks.load(Ordering::Relaxed),
            self.conforming.load(Ordering::Relaxed),
        )
    }
}

impl SearchProblem for TracedProblem<'_, '_> {
    type State = TypeState;
    type Scratch = EvalScratch;

    fn initial(&self) -> TypeState {
        self.leaf("search.initial", 1, || self.inner.initial())
    }

    fn neighbors(&self, s: &TypeState) -> Vec<TypeState> {
        self.leaf("search.neighbors", 1, || self.inner.neighbors(s))
    }

    fn evaluate(&self, s: &TypeState, seed: u64) -> Evaluation {
        self.leaf("eval.state", 1, || self.inner.evaluate(s, seed))
    }

    fn evaluate_with(&self, s: &TypeState, seed: u64, scratch: &mut EvalScratch) -> Evaluation {
        self.leaf("eval.state", 1, || {
            self.inner.evaluate_with(s, seed, scratch)
        })
    }

    fn frontier_block(&self) -> usize {
        self.inner.frontier_block()
    }

    fn evaluate_frontier(
        &self,
        states: &[TypeState],
        seeds: &[u64],
        scratch: &mut EvalScratch,
    ) -> Vec<Evaluation> {
        let out = self.leaf("eval.frontier", states.len() as u64, || {
            self.inner.evaluate_frontier(states, seeds, scratch)
        });
        let accepted = self.leaf("trace.conform", 1, || {
            let plans: Vec<_> = states.iter().map(|s| self.inner.plan_of(s)).collect();
            CompiledFrontier::compile(&self.skeleton, self.inner.spec, &plans).is_some()
        });
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.conforming
            .fetch_add(usize::from(accepted), Ordering::Relaxed);
        out
    }

    fn minimize(&self) -> bool {
        self.inner.minimize()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn threads_per_state(&self) -> usize {
        self.inner.threads_per_state()
    }

    fn h_score(&self, s: &TypeState, eval: &Evaluation) -> f64 {
        self.inner.h_score(s, eval)
    }

    fn children_monotone(&self) -> bool {
        self.inner.children_monotone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            req: NO_REQ,
            n: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = [
            span(0, 100, NO_PARENT),
            // Overlapping children cover [10, 40]; the third is clipped
            // to the parent's end: [90, 100].
            span(10, 30, 0),
            span(20, 40, 0),
            span(90, 120, 0),
            // A grandchild is its parent's business, not the root's.
            span(12, 18, 1),
        ];
        assert_eq!(self_ns(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration_and_never_negative() {
        let spans = [span(5, 9, NO_PARENT), span(0, 50, 0)];
        assert_eq!(self_ns(&spans), vec![0, 50]);
    }

    #[test]
    fn by_name_sums_calls_durations_and_items() {
        let mut a = span(0, 10, NO_PARENT);
        a.n = 3;
        let spans = [a, span(10, 30, NO_PARENT)];
        let stats = by_name(&spans);
        assert_eq!(
            stats["x"],
            NameStat {
                calls: 2,
                total_ns: 30,
                items: 4
            }
        );
        assert_eq!(stats["x"].mean_us(), 0.015);
    }

    #[test]
    fn recorder_links_children_to_open_parents() {
        let rec = Recorder::default();
        let p = rec.open("outer", NO_PARENT, 7, 1);
        rec.time("inner", p, 7, 2, || ());
        rec.close(p);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, p);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
