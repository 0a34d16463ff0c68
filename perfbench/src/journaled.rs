//! `journaled`: the synthetic multi-tenant WaaS trace replayed through
//! `ShardSupervisor` (2 shards × 1 worker process) with the supervisor
//! journal on, halted late in the trace and resumed by a cold standby
//! from `ShardSupervisor::recover`. Set-up warms the worker stores, so
//! every timed request is a cache hit.
//!
//! Each takeover's spliced stream and `ServeStats` digest are checked
//! against a warmed `PlanServer` replay of the same trace. The traced run
//! also replays the trace on a traced `PlanServer` (the hit-path serve
//! layer) and on a `FleetServer` (the fleet layer), each checked against
//! the same reference.

use crate::spans::{self, Recorder, Span, TracedBackend, NO_PARENT};
use crate::stats::{median, ratio, tail_percentile};
use crate::{engine, gen, meta, top_up_setups, Args, Outcome};
use deco_cloud::plan::mean_schedule;
use deco_cloud::CloudSpec;
use deco_fleet::{private_pool_cost, FleetConfig, FleetPolicy, FleetReport, FleetServer};
use deco_serve::{
    serve_trace_backend, ArrivalTrace, PlanResponse, PlanServer, PlanSource, ServeConfig,
    ServeOutcome, ServeSession, ServeStats, ServedPlan,
};
use deco_shard::proc::{
    ShardSupervisor, SuperviseConfig, SuperviseSession, SuperviseStats, SupervisorFaultPlan,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Requests in the trace. Long enough that the journaled tier's
/// per-cycle slowdown and the takeover's recovery cost show.
const REQUESTS: usize = 6_000;
/// The journaled primary halts after this share of the trace's cycles.
const HALT_AT: f64 = 0.9;
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const SNAPSHOT_EVERY: u64 = 32;
const FLEET_SEED: u64 = 11;
/// Traced and untraced serve-loop replays each, for the overhead ratio.
const OVERHEAD_REPS: usize = 3;

fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// Render responses the way a client receives them.
fn render(responses: &[PlanResponse]) -> Vec<String> {
    responses.iter().map(PlanResponse::canonical_line).collect()
}

/// A warmed `PlanServer`: fresh engine, cache pre-warmed with every
/// distinct shape.
fn warm_plan_server(warmup: &ArrivalTrace) -> (PlanServer, Vec<PlanResponse>) {
    let mut server = PlanServer::new(engine(), serve_config());
    let (responses, _) = server.serve_trace(warmup, meta::nproc());
    (server, responses)
}

/// The reference every tier is checked against.
struct Reference {
    lines: Vec<String>,
    digest: u64,
    stats: ServeStats,
    responses: Vec<PlanResponse>,
    replay_s: f64,
    keys: Vec<u64>,
    key_us: f64,
}

fn reference(trace: &ArrivalTrace, warmup: &ArrivalTrace) -> Reference {
    let (mut server, _) = warm_plan_server(warmup);
    let t = Instant::now();
    let keys: Vec<u64> = trace
        .arrivals()
        .iter()
        .map(|a| server.key_for(&a.request))
        .collect();
    let key_us = ratio(t.elapsed().as_secs_f64() * 1e6, trace.len() as f64);
    let t = Instant::now();
    let (responses, stats) = server.serve_trace(trace, meta::nproc());
    let replay_s = t.elapsed().as_secs_f64();
    Reference {
        lines: render(&responses),
        digest: stats.digest(),
        stats,
        responses,
        replay_s,
        keys,
        key_us,
    }
}

fn supervise_config(persist: &Path, journal: Option<&Path>) -> SuperviseConfig {
    SuperviseConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        serve: serve_config(),
        persist_dir: Some(persist.to_path_buf()),
        journal_dir: journal.map(Path::to_path_buf),
        snapshot_every: SNAPSHOT_EVERY,
        ..SuperviseConfig::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn compare(out: &mut Outcome, what: &str, lines: &[String], stats: &ServeStats, r: &Reference) {
    let first_diff = lines.iter().zip(&r.lines).position(|(a, b)| a != b);
    out.check(lines.len() == r.lines.len() && first_diff.is_none(), || {
        format!(
            "{what}: response stream differs from the PlanServer reference \
             ({} vs {} lines, first difference at {first_diff:?})",
            lines.len(),
            r.lines.len()
        )
    });
    out.check(stats.digest() == r.digest, || {
        format!("{what}: ServeStats digest differs from the PlanServer reference")
    });
}

/// Serve-layer figures from [`TracedBackend`] spans: cycles, backend
/// calls inside them, and the loop's own time.
pub fn serve_layer_metrics(spans: &[Span], requests: u64, l: &mut BTreeMap<&'static str, f64>) {
    let by = spans::by_name(spans);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let selfs = spans::self_ns(spans);
    let cycles: Vec<(f64, u64)> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "serve.cycle")
        .map(|(s, &own)| (s.dur_ns() as f64 / 1e3, own))
        .collect();
    let cycle_us: Vec<f64> = cycles.iter().map(|c| c.0).collect();
    let loop_self_ns: u64 = cycles.iter().map(|c| c.1).sum();
    let batches: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "supervisor.solve_batch" && s.n > 0)
        .collect();
    let batch_ms: Vec<f64> = batches.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    l.insert("serve.cycles", cycles.len() as f64);
    l.insert(
        "serve.req_per_cycle",
        ratio(requests as f64, cycles.len() as f64),
    );
    l.insert(
        "serve.cycle_us.p50",
        tail_percentile(&cycle_us, 0.5).unwrap_or(0.0),
    );
    l.insert(
        "serve.cycle_us.p99",
        tail_percentile(&cycle_us, 0.99).unwrap_or(0.0),
    );
    l.insert(
        "serve.loop_self_us_per_req",
        ratio(loop_self_ns as f64 / 1e3, requests as f64),
    );
    l.insert("cache.get_us", get("cache.get").mean_us());
    l.insert("cache.get.calls", get("cache.get").calls as f64);
    l.insert("cache.insert_us", get("cache.insert").mean_us());
    l.insert("cache.insert.calls", get("cache.insert").calls as f64);
    l.insert("supervisor.solve_batch_ms", crate::stats::mean(&batch_ms));
    l.insert(
        "supervisor.jobs_per_batch",
        ratio(
            batches.iter().map(|s| s.n).sum::<u64>() as f64,
            batches.len() as f64,
        ),
    );
}

fn stats_metrics(stats: &ServeStats, l: &mut BTreeMap<&'static str, f64>) {
    l.insert(
        "cache.hit_ratio",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
    );
    l.insert("cache.evictions", stats.evictions as f64);
    l.insert(
        "queue.rejected",
        (stats.rejected_overload + stats.rejected_quota) as f64,
    );
    l.insert("queue.shed", stats.shed as f64);
    l.entry("serve.cycles").or_insert(stats.cycles as f64);
    l.entry("serve.req_per_cycle")
        .or_insert(ratio(stats.requests as f64, stats.cycles as f64));
}

/// What makes two served plans the same answer.
fn plan_identity(s: &ServedPlan) -> (&[usize], u64) {
    (
        &s.plan.plan.types,
        s.plan.plan.evaluation.objective.to_bits(),
    )
}

/// Warm hits must be bit-identical to the cold solves that filled the
/// cache.
fn check_warm_hits(out: &mut Outcome, warm: &[PlanResponse], responses: &[PlanResponse]) {
    let cold: BTreeMap<u64, (&[usize], u64)> = warm
        .iter()
        .filter_map(|r| match &r.outcome {
            ServeOutcome::Planned(s) => Some((r.key, plan_identity(s))),
            _ => None,
        })
        .collect();
    let bad = responses
        .iter()
        .filter(|r| match &r.outcome {
            ServeOutcome::Planned(s) => {
                s.source != PlanSource::Warm || cold.get(&r.key) != Some(&plan_identity(s))
            }
            _ => true,
        })
        .count();
    out.check(bad == 0, || {
        format!("{bad} timed responses were not warm hits identical to their cold solve")
    });
}

/// One journaled replay: the primary halts late in the trace, a cold
/// standby recovers from its journal and finishes the run.
struct Takeover {
    lines: Vec<String>,
    stats: ServeStats,
    replay_s: f64,
    recover_s: f64,
    resume_s: f64,
    /// Post-commit emission instant of every emitted response, by stream
    /// index, for the primary and for the standby (re-emitted lines have
    /// none).
    emitted_at: [BTreeMap<u64, Instant>; 2],
    /// Supervision counters of the primary and of the standby.
    sup: [SuperviseStats; 2],
    journal_bytes: u64,
    spliced_ok: bool,
}

fn takeover(
    deco: &deco_core::Deco,
    trace: &ArrivalTrace,
    halt_cycle: u64,
    dirs: (&Path, &Path),
    mut primary: ShardSupervisor,
) -> Takeover {
    let (persist, journal) = dirs;
    let mut first: Vec<(u64, String, Instant)> = Vec::new();
    let session = SuperviseSession {
        supervisor: SupervisorFaultPlan::halt_at_cycles([halt_cycle]),
        ..SuperviseSession::default()
    };
    let t0 = Instant::now();
    let (_, _, halted) = primary.serve_trace_journaled(trace, &session, None, &mut |i, r| {
        first.push((i, r.canonical_line(), Instant::now()))
    });
    let primary_s = t0.elapsed().as_secs_f64();
    let primary_sup = primary.stats();
    // The primary's death: in-process, so its teardown is not timed.
    primary.abandon();
    drop(primary);

    let t1 = Instant::now();
    let recovered =
        ShardSupervisor::recover(deco.clone(), supervise_config(persist, Some(journal)), &[]);
    let recover_s = t1.elapsed().as_secs_f64();
    let (mut standby, run) = match recovered {
        Ok((s, Some(run))) => (s, run),
        _ => {
            return Takeover {
                lines: Vec::new(),
                stats: ServeStats::default(),
                replay_s: primary_s + recover_s,
                recover_s,
                resume_s: 0.0,
                emitted_at: Default::default(),
                sup: [primary_sup, Default::default()],
                journal_bytes: 0,
                spliced_ok: false,
            }
        }
    };
    let mut second: Vec<(u64, String, Instant)> = Vec::new();
    let t2 = Instant::now();
    let (_, stats, halted_again) = standby.serve_trace_journaled(
        trace,
        &SuperviseSession::default(),
        Some(run.checkpoint),
        &mut |i, r| second.push((i, r.canonical_line(), Instant::now())),
    );
    let resume_s = t2.elapsed().as_secs_f64();
    let sup = [primary_sup, standby.stats()];
    drop(standby);
    let journal_bytes = dir_bytes(journal);

    // Splice: what the primary emitted, the committed lines it may not
    // have, then the standby's stream.
    let emitted = first.len() as u64;
    let skip = emitted.saturating_sub(run.lines_start) as usize;
    let mut lines: Vec<String> = first.iter().map(|(_, l, _)| l.clone()).collect();
    lines.extend(run.lines.iter().skip(skip).cloned());
    let resume_at = lines.len() as u64;
    lines.extend(second.iter().map(|(_, l, _)| l.clone()));
    let contiguous = first.iter().enumerate().all(|(k, (i, ..))| *i == k as u64)
        && run.lines_start <= emitted
        && second
            .iter()
            .enumerate()
            .all(|(k, (i, ..))| *i == resume_at + k as u64);
    let instants =
        |emitted: &[(u64, String, Instant)]| emitted.iter().map(|(i, _, t)| (*i, *t)).collect();
    Takeover {
        lines,
        stats,
        replay_s: primary_s + recover_s + resume_s,
        recover_s,
        resume_s,
        emitted_at: [instants(&first), instants(&second)],
        sup,
        journal_bytes,
        spliced_ok: halted && !halted_again && contiguous,
    }
}

/// Gaps between consecutive cycles' first post-commit emissions, µs, by
/// cycle index, kept apart for the primary and the standby so no gap
/// spans the halt.
struct CycleGaps {
    /// First stream index of each cycle.
    starts: Vec<u64>,
    by_cycle: [Vec<Vec<f64>>; 2],
}

impl CycleGaps {
    fn new(bursts: &[usize]) -> CycleGaps {
        let starts: Vec<u64> = bursts
            .iter()
            .scan(0u64, |acc, &k| {
                let s = *acc;
                *acc += k as u64;
                Some(s)
            })
            .collect();
        let n = starts.len();
        CycleGaps {
            starts,
            by_cycle: [vec![Vec::new(); n], vec![Vec::new(); n]],
        }
    }

    fn add(&mut self, run: &Takeover) {
        for (emitted, by_cycle) in run.emitted_at.iter().zip(&mut self.by_cycle) {
            for (pair, gaps) in self.starts.windows(2).zip(&mut by_cycle[1..]) {
                if let (Some(a), Some(b)) = (emitted.get(&pair[0]), emitted.get(&pair[1])) {
                    gaps.push(b.duration_since(*a).as_secs_f64() * 1e6);
                }
            }
        }
    }

    fn all(&self) -> Vec<f64> {
        self.by_cycle.iter().flatten().flatten().copied().collect()
    }

    /// Median gap of the primary's last tenth of cycles before the halt ÷
    /// that of its first tenth: growth within one supervisor.
    fn primary_growth(&self) -> f64 {
        let tenth = (self.starts.len() / 10).max(1);
        let cycles: Vec<&Vec<f64>> = self.by_cycle[0].iter().filter(|g| !g.is_empty()).collect();
        let head: Vec<f64> = cycles
            .iter()
            .take(tenth)
            .copied()
            .flatten()
            .copied()
            .collect();
        let tail: Vec<f64> = cycles
            .iter()
            .rev()
            .take(tenth)
            .copied()
            .flatten()
            .copied()
            .collect();
        ratio(median(&tail), median(&head))
    }
}

/// Scalars kept from a checked takeover.
struct Figures {
    replay_s: f64,
    recover_s: f64,
    resume_s: f64,
    sup: [SuperviseStats; 2],
    journal_bytes: u64,
}

pub fn run(args: &Args) -> Outcome {
    let spec = CloudSpec::amazon_ec2();
    let batch = serve_config().batch_size;
    let t = Instant::now();
    let waas = gen::waas_trace(&spec, args.seed, REQUESTS, batch);
    let gen_s = t.elapsed().as_secs_f64();

    let refr = reference(&waas.trace, &waas.warmup);
    let repeat = gen::repeat_share(&refr.keys);
    let mix = gen::task_mix(waas.trace.arrivals().iter().map(|a| &a.request.workflow));
    let per_cycle = ratio(REQUESTS as f64, waas.bursts.len() as f64);
    println!(
        "gen: synthetic trace, {REQUESTS} requests, distinct_shapes={} key_repeat_share={repeat:.4} \
         req_per_cycle={per_cycle:.2} (max {}) cycles={} tenants={} task_mix={mix:?} generation {gen_s:.2}s",
        waas.shapes.len(),
        waas.bursts.iter().max().copied().unwrap_or(0),
        waas.bursts.len(),
        gen::WAAS_TENANTS,
    );

    let mut out = Outcome::default();
    out.check(refr.stats.cycles == waas.bursts.len() as u64, || {
        format!(
            "reference took {} cycles for {} bursts; each burst must be one cycle",
            refr.stats.cycles,
            waas.bursts.len()
        )
    });
    let work = args
        .root
        .join(".bench_work")
        .join(std::process::id().to_string());

    let cycles = waas.bursts.len() as u64;
    let halt_cycle = ((cycles as f64 * HALT_AT) as u64).clamp(1, cycles.saturating_sub(1));
    let dirs = |iteration: u32| -> (PathBuf, PathBuf) {
        let p = work.join(format!("persist-{iteration}"));
        let j = work.join(format!("journal-{iteration}"));
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_dir_all(&j);
        (p, j)
    };
    // Set-up: calibrate, warm the worker stores with every distinct
    // shape, then start the journaled primary on them (process spawn,
    // warm start, journal open).
    let setup = |persist: &Path,
                 journal: &Path|
     -> Result<(deco_core::Deco, ShardSupervisor), String> {
        let deco = engine();
        let mut warm = ShardSupervisor::new(deco.clone(), supervise_config(persist, None))
            .map_err(|e| format!("warm tier: {e}"))?;
        warm.serve_trace(&waas.warmup);
        drop(warm);
        let primary = ShardSupervisor::new(deco.clone(), supervise_config(persist, Some(journal)))
            .map_err(|e| format!("journaled primary: {e}"))?;
        Ok((deco, primary))
    };

    // Each takeover is checked as soon as it ends and only its scalars
    // are kept, so the process's memory does not grow with the number of
    // takeovers that fit in the run.
    let mut setups_s = Vec::new();
    let mut runs: Vec<Figures> = Vec::new();
    let mut gaps = CycleGaps::new(&waas.bursts);
    let mut last_stats = None;
    let mut peak_rss_mb = 0.0;
    let mut elapsed = 0.0;
    let mut iteration = 0u32;
    while elapsed < args.seconds || runs.is_empty() {
        let (persist, journal) = dirs(iteration);
        iteration += 1;
        let t = Instant::now();
        let (deco, primary) = match setup(&persist, &journal) {
            Ok(x) => x,
            Err(e) => {
                out.check(false, || e);
                break;
            }
        };
        setups_s.push(t.elapsed().as_secs_f64());
        let run = takeover(
            &deco,
            &waas.trace,
            halt_cycle,
            (&persist, &journal),
            primary,
        );
        elapsed += run.replay_s;
        let _ = std::fs::remove_dir_all(&persist);
        let _ = std::fs::remove_dir_all(&journal);

        out.check(run.spliced_ok, || {
            "takeover splice is not a contiguous halt + recover + resume".into()
        });
        compare(
            &mut out,
            "journaled takeover",
            &run.lines,
            &run.stats,
            &refr,
        );
        let goodput = ratio(run.lines.len() as f64, waas.trace.len() as f64);
        out.check(goodput == 1.0, || {
            format!("takeover goodput {goodput}, expected exactly 1")
        });
        gaps.add(&run);
        runs.push(Figures {
            replay_s: run.replay_s,
            recover_s: run.recover_s,
            resume_s: run.resume_s,
            sup: run.sup,
            journal_bytes: run.journal_bytes,
        });
        last_stats = Some(run.stats);
        // Like `novel`, read the peak after the first takeover: the
        // memory of one takeover, however many more fit in the run.
        if runs.len() == 1 {
            peak_rss_mb = meta::peak_rss_mb();
        }
    }
    top_up_setups(&mut setups_s, || {
        let (p, j) = dirs(u32::MAX);
        let x = setup(&p, &j);
        drop(x);
        let _ = std::fs::remove_dir_all(&p);
        let _ = std::fs::remove_dir_all(&j);
    });
    let _ = std::fs::remove_dir_all(&work);

    // Every takeover answers the whole trace with the reference's plans.
    let replays_s: Vec<f64> = runs.iter().map(|r| r.replay_s).collect();
    let req_per_s = ratio(REQUESTS as f64, median(&replays_s));
    let planned: Vec<f64> = refr
        .responses
        .iter()
        .filter_map(|r| match &r.outcome {
            ServeOutcome::Planned(s) => Some(s.plan.plan.evaluation.objective),
            _ => None,
        })
        .collect();
    out.attempted = (REQUESTS * runs.len()) as u64;
    out.succeeded = (planned.len() * runs.len()) as u64;
    out.end_to_end.insert("setup_s", median(&setups_s));
    out.end_to_end.insert("req_per_s", req_per_s);
    out.end_to_end
        .insert("plan_cost_mean", crate::stats::mean(&planned));
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb);
    println!(
        "journaled: {} takeovers, halt after cycle {halt_cycle} of {cycles}, median replay {:.3}s \
         ({req_per_s:.1} req/s), recover median {:.1} ms, setup {:.3}s (median of {}), \
         reference PlanServer replay {:.3}s",
        runs.len(),
        median(&replays_s),
        1e3 * median(&runs.iter().map(|r| r.recover_s).collect::<Vec<_>>()),
        median(&setups_s),
        setups_s.len(),
        refr.replay_s,
    );
    if !args.trace {
        return out;
    }

    let l = &mut out.per_layer;
    l.insert("serve.key_us", refr.key_us);
    l.insert(
        "takeover_ms",
        1e3 * median(&runs.iter().map(|r| r.recover_s).collect::<Vec<_>>()),
    );
    l.insert(
        "takeover.resume_s",
        median(&runs.iter().map(|r| r.resume_s).collect::<Vec<_>>()),
    );
    let all_gaps = gaps.all();
    l.insert(
        "proc.cycle_us.p50",
        tail_percentile(&all_gaps, 0.5).unwrap_or(0.0),
    );
    l.insert(
        "proc.cycle_us.p99",
        tail_percentile(&all_gaps, 0.99).unwrap_or(0.0),
    );
    l.insert("proc.cycle_growth", gaps.primary_growth());
    // Counters of one whole takeover run: primary plus standby.
    let last = runs.last().expect("at least one takeover ran");
    let both = |f: fn(&SuperviseStats) -> u64| last.sup.iter().map(f).sum::<u64>() as f64;
    let commits = both(|s| s.journal_commits);
    l.insert(
        "journal.bytes_per_commit",
        ratio(last.journal_bytes as f64, commits),
    );
    l.insert("journal.appends", both(|s| s.journal_appends));
    l.insert("journal.commits", commits);
    l.insert("journal.snapshots", both(|s| s.journal_snapshots));
    l.insert("proc.transport_errors", both(|s| s.transport_errors));
    l.insert("proc.restarts", both(|s| s.restarts));
    l.insert(
        "takeover.frames_recovered",
        both(|s| s.journal_frames_recovered),
    );

    // Layers the supervised tier hides, on the same trace: the serve
    // loop's hit path (a traced, identically warmed `PlanServer`) and the
    // fleet. Tracing covers only the serve loop, so the overhead ratio is
    // that of the serve-loop replays.
    let (mut side_spans, overhead) = traced_serve_replay(&waas, &mut out);
    out.per_layer.insert("trace.overhead_ratio", overhead);
    if let Some(stats) = &last_stats {
        stats_metrics(stats, &mut out.per_layer);
    }
    let fleet = fleet_run(&waas, &refr, &mut out);
    side_spans.extend(fleet_layer_metrics(
        &waas,
        &refr,
        &spec,
        &fleet,
        &mut out.per_layer,
    ));
    spans::dump(&args.root, "journaled", &side_spans);
    out
}

/// A fleet tier: fresh engine, `fleet: true`, and the serving cache
/// pre-warmed (warm-up plans are not placed).
fn fleet_tier(warmup: &ArrivalTrace) -> FleetServer {
    let mut fleet = FleetServer::new(
        engine(),
        ServeConfig {
            fleet: true,
            ..serve_config()
        },
        FleetConfig {
            policy: FleetPolicy::default(),
            seed: FLEET_SEED,
        },
    )
    .expect("the default fleet policy validates");
    fleet.server.serve_trace(warmup, meta::nproc());
    fleet
}

/// One fleet replay on a freshly set-up tier, checked against the
/// reference.
struct FleetRun {
    replay_s: f64,
    responses: Vec<PlanResponse>,
    report: FleetReport,
}

fn fleet_run(waas: &gen::WaasTrace, refr: &Reference, out: &mut Outcome) -> FleetRun {
    let mut fleet = fleet_tier(&waas.warmup);
    let t = Instant::now();
    let (responses, stats, report) = fleet.serve_trace(&waas.trace, meta::nproc());
    let lines = render(&responses);
    let replay_s = t.elapsed().as_secs_f64();
    compare(out, "fleet", &lines, &stats, refr);
    out.check(report.isolation_violations == 0, || {
        format!(
            "fleet audited {} isolation violations",
            report.isolation_violations
        )
    });
    let private = private_pool_cost(&waas.trace, &responses, &fleet.manager.spec).0;
    println!(
        "fleet: compute cost {:.4} vs private pools {private:.4}, utilization {:.3}, {} instances, \
         {} gap-fills / {} placements, {} isolation violations, replay {replay_s:.3}s",
        report.compute_cost,
        report.utilization(),
        report.acquired,
        report.gap_fills,
        report.placed,
        report.isolation_violations,
    );
    FleetRun {
        replay_s,
        responses,
        report,
    }
}

/// Fleet-layer metrics of a fleet replay: placement time beyond the warm
/// `PlanServer` reference replay, group formation (`mean_schedule`, timed
/// here), and the ledger's counters. Returns the `mean_schedule` spans.
fn fleet_layer_metrics(
    waas: &gen::WaasTrace,
    refr: &Reference,
    spec: &CloudSpec,
    run: &FleetRun,
    l: &mut BTreeMap<&'static str, f64>,
) -> Vec<Span> {
    let recorder = Recorder::default();
    let arrivals = waas.trace.arrivals();
    let mut groups = 0u64;
    for r in &run.responses {
        if let ServeOutcome::Planned(s) = &r.outcome {
            let wf = &arrivals[r.seq as usize].request.workflow;
            let sched = recorder.time("fleet.mean_schedule", NO_PARENT, r.seq, 1, || {
                mean_schedule(wf, &s.plan.plan.plan, spec)
            });
            groups += sched.slot_spans.iter().flatten().count() as u64;
        }
    }
    let spans = recorder.snapshot();
    let by = spans::by_name(&spans);
    let rep = &run.report;
    let private = private_pool_cost(&waas.trace, &run.responses, spec).0;
    l.insert("fleet_cost_ratio", ratio(rep.compute_cost, private));
    l.insert(
        "fleet.mean_schedule_us",
        by.get("fleet.mean_schedule").map_or(0.0, |s| s.mean_us()),
    );
    l.insert("fleet.groups", groups as f64);
    l.insert(
        "fleet.place_us_per_group",
        ratio((run.replay_s - refr.replay_s).max(0.0) * 1e6, groups as f64),
    );
    l.insert("fleet.acquired", rep.acquired as f64);
    l.insert("fleet.gap_fills", rep.gap_fills as f64);
    l.insert("fleet.requeued", rep.requeued as f64);
    l.insert("fleet.unplaced", rep.unplaced as f64);
    l.insert("fleet.utilization", rep.utilization());
    spans
}

/// The serve loop's hit path on the trace: replays on an identically
/// warmed `PlanServer` through [`TracedBackend`], alternating with
/// untraced replays on another, its first responses checked as warm hits
/// equal to their cold solves. Returns the first traced replay's spans
/// and the median traced ÷ untraced replay time.
fn traced_serve_replay(waas: &gen::WaasTrace, out: &mut Outcome) -> (Vec<Span>, f64) {
    let (server, warm) = warm_plan_server(&waas.warmup);
    let (mut plain, _) = warm_plan_server(&waas.warmup);
    let recorder = Recorder::default();
    let mut traced = TracedBackend::new(server, &recorder, 0);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    for rep in 0..OVERHEAD_REPS {
        let t = Instant::now();
        let (responses, _) = plain.serve_trace(&waas.trace, meta::nproc());
        let _ = render(&responses);
        plain_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (responses, _) = serve_trace_backend(
            &mut traced,
            &waas.trace,
            meta::nproc(),
            &ServeSession::default(),
        );
        let _ = render(&responses);
        traced_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            check_warm_hits(out, &warm, &responses);
            spans = recorder.snapshot();
            serve_layer_metrics(&spans, responses.len() as u64, &mut out.per_layer);
        }
    }
    (spans, ratio(median(&traced_s), median(&plain_s)))
}
