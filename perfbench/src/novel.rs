//! `novel`: a closed loop of `nproc` clients, each submitting one
//! never-seen workflow per round. A round is one `serve_trace` call
//! holding one arrival per client, served as one cycle; every client
//! waits for it, so a request's latency is its round's wall time.

use crate::spans::{self, Recorder, TracedBackend, TracedProblem, NO_PARENT};
use crate::stats::{mean, median, ratio, tail_percentile};
use crate::{engine, gen, meta, top_up_setups, Args, Outcome};
use deco_cloud::CloudSpec;
use deco_core::supervisor::PlanStage;
use deco_core::{Deco, SchedulingProblem};
use deco_pegasus::waas::total_outcomes;
use deco_pegasus::Pegasus;
use deco_serve::{
    serve_trace_backend, Arrival, ArrivalTrace, PlanResponse, PlanServer, ServeConfig,
    ServeOutcome, ServeSession,
};
use deco_solver::{beam_search, EvalBackend, SearchBudget};
use std::collections::BTreeMap;
use std::time::Instant;

/// Plan-cache bound for this workload: far below the number of distinct
/// shapes a run submits, so the cache takes inserts and evictions.
const CACHE_CAPACITY: usize = 32;
/// Latency samples a run collects at least, so p90 has ten beyond it.
const MIN_SAMPLES: usize = 100;
const EXEC_SEED: u64 = 0xE7EC;

fn serve_config() -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    }
}

/// One round: the corpus shapes it submitted, one per client, and the
/// responses it got. The round's trace is rebuilt for the checks rather
/// than kept, so retained memory does not grow with the number of
/// rounds a run happens to fit.
struct Round {
    shapes: Vec<usize>,
    responses: Vec<PlanResponse>,
}

/// A round's trace: one arrival per client at tick 0.
fn round_trace(corpus: &[gen::Shape], shapes: &[usize]) -> ArrivalTrace {
    ArrivalTrace::new(
        shapes
            .iter()
            .enumerate()
            .map(|(client, &i)| Arrival {
                at_tick: 0.0,
                request: corpus[i].request(client as u32),
            })
            .collect(),
    )
}

#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
    latencies_ms: Vec<f64>,
    timed_s: f64,
    setups_s: Vec<f64>,
    cycles: u64,
    evictions: u64,
    /// Peak RSS after the first pass. Later passes run on fresh servers
    /// and add allocator-retained memory, and how many fit in a run
    /// depends on speed.
    first_pass_rss_mb: f64,
    pass_rates: Vec<f64>,
}

impl Phase {
    fn requests(&self) -> usize {
        self.rounds.iter().map(|r| r.responses.len()).sum()
    }

    /// Median over passes of each pass's requests per second of round
    /// time: every pass serves the same corpus, so a pass slowed by
    /// outside load does not move the figure.
    fn req_per_s(&self) -> f64 {
        median(&self.pass_rates)
    }
}

/// Serve whole passes over the corpus until both `seconds` of round time
/// and `MIN_SAMPLES` latencies are in. Each pass runs on a freshly set-up
/// server; with `rec`, every round goes through a [`TracedBackend`].
fn phase(args: &Args, corpus: &[gen::Shape], pass: &mut u64, rec: Option<&Recorder>) -> Phase {
    let clients = meta::nproc();
    let mut p = Phase::default();
    let mut req_base = 0u64;
    while p.timed_s < args.seconds || p.latencies_ms.len() < MIN_SAMPLES {
        let order = gen::novel_order(args.seed, *pass, corpus.len());
        *pass += 1;

        let t = Instant::now();
        let mut server = PlanServer::new(engine(), serve_config());
        p.setups_s.push(t.elapsed().as_secs_f64());

        let pass_start = p.timed_s;
        for chunk in order.chunks(clients) {
            let trace = round_trace(corpus, chunk);
            let t = Instant::now();
            let (responses, stats) = match rec {
                None => server.serve_trace(&trace, clients),
                Some(rec) => {
                    let mut traced = TracedBackend::new(server, rec, req_base);
                    let out =
                        serve_trace_backend(&mut traced, &trace, clients, &ServeSession::default());
                    server = traced.inner;
                    out
                }
            };
            let dt = t.elapsed().as_secs_f64();
            req_base += trace.len() as u64;
            p.timed_s += dt;
            p.latencies_ms
                .extend(std::iter::repeat_n(dt * 1e3, responses.len()));
            p.cycles += stats.cycles;
            p.evictions += stats.evictions;
            p.rounds.push(Round {
                shapes: chunk.to_vec(),
                responses,
            });
        }
        p.pass_rates
            .push(ratio(order.len() as f64, p.timed_s - pass_start));
        if *pass == 1 {
            p.first_pass_rss_mb = meta::peak_rss_mb();
        }
    }
    p
}

fn planned(r: &PlanResponse) -> Option<&deco_serve::ServedPlan> {
    match &r.outcome {
        ServeOutcome::Planned(s) => Some(s),
        _ => None,
    }
}

/// Outcome of replaying one request's Deco stage through
/// [`TracedProblem`].
struct Replay {
    /// The search's best state and its objective bits, if feasible.
    best: Option<(Vec<usize>, u64)>,
    truncated: bool,
    states: usize,
    batches: usize,
    tasks: usize,
    blocks: usize,
    conforming: usize,
}

impl Replay {
    /// Does the served response carry exactly this search's answer? A
    /// fallback answer must replay to "no feasible plan".
    fn reproduces(&self, resp: &PlanResponse) -> bool {
        match (planned(resp), &self.best) {
            (Some(s), Some((types, bits))) => {
                s.plan.provenance.stage == PlanStage::Deco
                    && *types == s.plan.plan.types
                    && *bits == s.plan.plan.evaluation.objective.to_bits()
            }
            (Some(s), None) => s.plan.provenance.stage != PlanStage::Deco,
            (None, _) => false,
        }
    }
}

/// Re-run the Deco stage of a served request exactly as the serving
/// worker did (same problem construction, options, unlimited budget,
/// sequential evaluator) through [`TracedProblem`]. Spans land in `rec`
/// under one `solve` span.
fn replay_one(
    deco: &Deco,
    rec: &Recorder,
    req: u64,
    arrival: &Arrival,
    resp: &PlanResponse,
) -> Replay {
    let deadline = planned(resp).map_or(arrival.request.deadline, |s| s.canonical_deadline);
    let wf = &arrival.request.workflow;
    let solve = rec.open("solve", NO_PARENT, req, 1);
    let problem = rec.time("estimate.table_build", solve, req, 1, || {
        let mut p = SchedulingProblem::new(
            wf,
            &deco.store.spec,
            &deco.store,
            deadline,
            arrival.request.percentile,
        );
        p.mc_iters = deco.options.mc_iters;
        p.frontier_block = deco.options.frontier_block;
        p
    });
    let mut opts = deco.options.search.clone();
    opts.budget = SearchBudget::unlimited();
    let search = rec.open("search.beam", solve, req, 1);
    let traced = TracedProblem::new(&problem, rec, search, req);
    let result = beam_search(
        &traced,
        &opts,
        deco.options.beam_width,
        &EvalBackend::SeqCpu,
    );
    rec.close(search);
    rec.close(solve);
    let (blocks, conforming) = traced.conformance();
    Replay {
        best: result
            .best
            .map(|(types, eval)| (types, eval.objective.to_bits())),
        truncated: result.stats.truncated,
        states: result.stats.states_evaluated,
        batches: result.stats.batches,
        tasks: wf.len(),
        blocks,
        conforming,
    }
}

pub fn run(args: &Args) -> Outcome {
    let spec = CloudSpec::amazon_ec2();
    let clients = meta::nproc();
    let mut out = Outcome::default();
    let t = Instant::now();
    let corpus = gen::novel_corpus(&spec);
    let gen_s = t.elapsed().as_secs_f64();
    let mut pass = 0u64;

    let untraced = phase(args, &corpus, &mut pass, None);
    let rec = Recorder::default();
    let traced = if args.trace {
        Some(phase(args, &corpus, &mut pass, Some(&rec)))
    } else {
        None
    };
    out.end_to_end
        .insert("peak_rss_mb", untraced.first_pass_rss_mb);
    // The run's figures come from the untraced phase; the traced phase
    // feeds the serve-layer spans and the overhead ratio.
    let p = &untraced;

    let mut setups = p.setups_s.clone();
    top_up_setups(&mut setups, || PlanServer::new(engine(), serve_config()));

    // --- output checks -------------------------------------------------
    let deco = engine();
    let traces: Vec<ArrivalTrace> = p
        .rounds
        .iter()
        .map(|r| round_trace(&corpus, &r.shapes))
        .collect();
    let all: Vec<(&Arrival, &PlanResponse)> = p
        .rounds
        .iter()
        .zip(&traces)
        .flat_map(|(r, trace)| {
            r.responses
                .iter()
                .map(move |resp| (&trace.arrivals()[resp.seq as usize], resp))
        })
        .collect();
    let attempted = all.len() as u64;
    let planned_plans: Vec<&deco_serve::ServedPlan> =
        all.iter().filter_map(|(_, r)| planned(r)).collect();
    out.attempted = attempted;
    out.succeeded = planned_plans.len() as u64;
    for round in &p.rounds {
        out.check(round.responses.len() == round.shapes.len(), || {
            "a round lost or duplicated a response".into()
        });
    }
    out.check(p.cycles == p.rounds.len() as u64, || {
        format!(
            "{} rounds took {} cycles; each round must be one cycle",
            p.rounds.len(),
            p.cycles
        )
    });

    // Each response reproduced type-for-type by a traced replay of its
    // Deco stage: one replay per distinct content key (every pass serves
    // the same corpus), on `clients` threads like the serving pool.
    let mut distinct: BTreeMap<u64, (&Arrival, &PlanResponse)> = BTreeMap::new();
    for &(a, r) in &all {
        distinct.entry(r.key).or_insert((a, r));
    }
    let jobs: Vec<(u64, &Arrival, &PlanResponse)> =
        distinct.iter().map(|(&k, &(a, r))| (k, a, r)).collect();
    let search_rec = Recorder::default();
    let replays: BTreeMap<u64, Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (deco, rec, jobs) = (&deco, &search_rec, &jobs);
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, &(key, a, r))| (key, replay_one(deco, rec, i as u64, a, r)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mismatched = all
        .iter()
        .filter(|(_, r)| !replays.get(&r.key).is_some_and(|rep| rep.reproduces(r)))
        .count();
    out.check(mismatched == 0, || {
        format!("{mismatched} novel responses not reproduced by the traced Deco replay")
    });
    let replays: Vec<Replay> = replays.into_values().collect();

    // Deadline outcomes: execute every planned response once, seeded.
    let pegasus = Pegasus::new(deco.store.clone());
    let (mut graded, mut violated) = (0u64, 0u64);
    for (i, (round, trace)) in p.rounds.iter().zip(&traces).enumerate() {
        match pegasus.classify_trace_outcomes(trace, &round.responses, EXEC_SEED ^ i as u64) {
            Ok(per_tenant) => {
                let t = total_outcomes(&per_tenant);
                graded += t.planned;
                violated += t.violated;
            }
            Err(e) => out.check(false, || {
                format!("executing a planned response failed: {e}")
            }),
        }
    }

    // --- end-to-end ---------------------------------------------------
    let costs: Vec<f64> = planned_plans
        .iter()
        .map(|s| s.plan.plan.evaluation.objective)
        .collect();
    let fallback = planned_plans
        .iter()
        .filter(|s| s.plan.provenance.stage != PlanStage::Deco)
        .count();
    out.end_to_end.insert("setup_s", median(&setups));
    out.end_to_end.insert("req_per_s", p.req_per_s());
    out.end_to_end.insert("plan_cost_mean", mean(&costs));

    let p50 = tail_percentile(&p.latencies_ms, 0.5);
    let p90 = tail_percentile(&p.latencies_ms, 0.9);
    println!(
        "novel: {clients} clients, {} rounds in {} passes of {} shapes, {} requests in {:.2}s \
         ({:.2} req/s), latency p50 {:?} ms p90 {:?} ms over {} samples, setup {:.4}s (median of {}), \
         generation {:.2}s, cache capacity {CACHE_CAPACITY}, evictions {}",
        p.rounds.len(),
        p.setups_s.len(),
        corpus.len(),
        attempted,
        p.timed_s,
        p.req_per_s(),
        p50,
        p90,
        p.latencies_ms.len(),
        median(&setups),
        setups.len(),
        gen_s,
        p.evictions,
    );
    let mix = gen::task_mix(all.iter().map(|(a, _)| &a.request.workflow));
    println!(
        "gen: novel distinct_shapes={} key_repeat_share=0 (each pass on a fresh server) \
         req_per_cycle={clients} task_mix={mix:?}",
        corpus.len()
    );

    // --- per layer ----------------------------------------------------
    let l = &mut out.per_layer;
    l.insert("latency_p50_ms", p50.unwrap_or(0.0));
    l.insert("latency_p90_ms", p90.unwrap_or(0.0));
    l.insert("latency.samples", p.latencies_ms.len() as f64);
    l.insert("deadline_miss_rate", ratio(violated as f64, graded as f64));
    l.insert(
        "fallback_share",
        ratio(fallback as f64, planned_plans.len() as f64),
    );

    let solves = replays.len() as f64;
    let sspans = search_rec.snapshot();
    let by = spans::by_name(&sspans);
    let selfs = spans::self_ns(&sspans);
    let search_self_ns: u64 = sspans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "search.beam")
        .map(|(_, &ns)| ns)
        .sum();
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let eval_ns = get("eval.frontier").total_ns + get("eval.state").total_ns;
    let draws: f64 = replays
        .iter()
        .map(|r| r.states as f64 * deco.options.mc_iters as f64 * r.tasks as f64)
        .sum();
    let blocks: usize = replays.iter().map(|r| r.blocks).sum();
    let conforming: usize = replays.iter().map(|r| r.conforming).sum();
    l.insert(
        "estimate.table_build_ms",
        get("estimate.table_build").mean_us() / 1e3,
    );
    l.insert(
        "eval.frontier_ms_per_solve",
        ratio(get("eval.frontier").total_ns as f64 / 1e6, solves),
    );
    l.insert("eval.ns_per_task_draw", ratio(eval_ns as f64, draws));
    l.insert(
        "eval.conform_share",
        ratio(conforming as f64, blocks as f64),
    );
    l.insert(
        "eval.states_per_block",
        ratio(
            get("eval.frontier").items as f64,
            get("eval.frontier").calls as f64,
        ),
    );
    // The conformance check runs inside the search span but is the
    // benchmark's own work.
    let search_ns = get("search.beam").total_ns - get("trace.conform").total_ns;
    l.insert("search.ms_per_solve", ratio(search_ns as f64 / 1e6, solves));
    l.insert(
        "search.self_ms_per_solve",
        ratio(search_self_ns as f64 / 1e6, solves),
    );
    l.insert(
        "search.states_per_solve",
        ratio(
            replays.iter().map(|r| r.states).sum::<usize>() as f64,
            solves,
        ),
    );
    l.insert(
        "search.batches_per_solve",
        ratio(
            replays.iter().map(|r| r.batches).sum::<usize>() as f64,
            solves,
        ),
    );
    l.insert("search.neighbors_us", get("search.neighbors").mean_us());
    l.insert(
        "search.truncated_share",
        ratio(
            replays.iter().filter(|r| r.truncated).count() as f64,
            solves,
        ),
    );
    println!(
        "novel: search {:.2} ms + eval {:.2} ms per solve against latency p50 {:.2} ms",
        l["search.self_ms_per_solve"],
        ratio(eval_ns as f64 / 1e6, solves),
        p50.unwrap_or(0.0),
    );

    if let Some(t) = &traced {
        let tspans = rec.snapshot();
        crate::journaled::serve_layer_metrics(&tspans, t.requests() as u64, &mut out.per_layer);
        out.per_layer.insert("cache.evictions", t.evictions as f64);
        // Covers only the serve-layer wrapping: the search and eval spans
        // come from the `TracedProblem` replays, which are not timed.
        out.per_layer
            .insert("trace.overhead_ratio", ratio(p.req_per_s(), t.req_per_s()));
        spans::dump(&args.root, "novel-serve", &tspans);
        spans::dump(&args.root, "novel-search", &sspans);
    }
    out
}
