//! End-to-end and per-layer benchmark of the Deco planning service.
//!
//! ```text
//! deco-perfbench --workload <novel|journaled> --seed <n> \
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` repeats the untraced measurement, then a traced one, and
//! prints the per-layer metrics plus the tracing overhead. The last line
//! of standard output is one JSON object; the exit code is non-zero when
//! any output check fails. See README.md for the workloads and metrics.

mod gen;
mod journaled;
mod meta;
mod novel;
mod spans;
mod stats;

use deco_cloud::calibration::calibrate;
use deco_cloud::CloudSpec;
use deco_core::Deco;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("plan_cost_mean", "usd"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics. A workload that never reaches a layer reports its
/// metrics as 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency.samples", "count"),
    ("deadline_miss_rate", "ratio"),
    ("fallback_share", "ratio"),
    ("failed_share", "ratio"),
    ("takeover_ms", "ms"),
    ("fleet_cost_ratio", "ratio"),
    ("estimate.table_build_ms", "ms"),
    ("eval.frontier_ms_per_solve", "ms"),
    ("eval.ns_per_task_draw", "ns"),
    ("eval.conform_share", "ratio"),
    ("eval.states_per_block", "count"),
    ("search.ms_per_solve", "ms"),
    ("search.self_ms_per_solve", "ms"),
    ("search.states_per_solve", "count"),
    ("search.batches_per_solve", "count"),
    ("search.neighbors_us", "us"),
    ("search.truncated_share", "ratio"),
    ("supervisor.solve_batch_ms", "ms"),
    ("supervisor.jobs_per_batch", "count"),
    ("serve.cycles", "count"),
    ("serve.req_per_cycle", "count"),
    ("serve.cycle_us.p50", "us"),
    ("serve.cycle_us.p99", "us"),
    ("serve.loop_self_us_per_req", "us"),
    ("serve.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.get.calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insert_us", "us"),
    ("cache.insert.calls", "count"),
    ("cache.evictions", "count"),
    ("queue.rejected", "count"),
    ("queue.shed", "count"),
    ("proc.cycle_us.p50", "us"),
    ("proc.cycle_us.p99", "us"),
    ("proc.cycle_growth", "ratio"),
    ("journal.bytes_per_commit", "B"),
    ("journal.appends", "count"),
    ("journal.commits", "count"),
    ("journal.snapshots", "count"),
    ("proc.transport_errors", "count"),
    ("proc.restarts", "count"),
    ("takeover.frames_recovered", "count"),
    ("takeover.resume_s", "s"),
    ("fleet.place_us_per_group", "us"),
    ("fleet.mean_schedule_us", "us"),
    ("fleet.groups", "count"),
    ("fleet.acquired", "count"),
    ("fleet.gap_fills", "count"),
    ("fleet.requeued", "count"),
    ("fleet.unplaced", "count"),
    ("fleet.utilization", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Engine calibration: samples per (task, type) and histogram bins. The
/// calibration seed is part of the engine, not of the workload.
const CAL_SAMPLES: usize = 2_000;
const CAL_BINS: usize = 40;
const CAL_SEED: u64 = 0xDEC0_2015;

/// The engine every workload serves with: a freshly calibrated catalog
/// and `DecoOptions::default()` search settings.
pub fn engine() -> Deco {
    let spec = CloudSpec::amazon_ec2();
    let (store, _) = calibrate(&spec, CAL_SAMPLES, CAL_BINS, CAL_SEED);
    Deco::new(store)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups repeat until they add up to at least this long, so a cheap
/// set-up is still a median over many samples.
const SETUP_MIN_TOTAL_S: f64 = 0.5;

/// Top `setups` up to [`SETUP_REPS`] samples and [`SETUP_MIN_TOTAL_S`]
/// seconds by repeating `setup` (and dropping what it built).
pub fn top_up_setups<T>(setups: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_TOTAL_S {
        let t = std::time::Instant::now();
        drop(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Novel,
    Journaled,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "novel" => Workload::Novel,
            "journaled" => Workload::Journaled,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Novel => "novel",
            Workload::Journaled => "journaled",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Checkout root (the working directory): scratch files and span
    /// dumps go under it.
    pub root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root: std::env::current_dir().map_err(|e| format!("working directory: {e}"))?,
    })
}

/// What a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Failed output checks, each a one-line description.
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub succeeded: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// A JSON number; a non-finite value (reported as a mismatch) prints as 0
/// so the line still parses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    // Shard workers are this executable re-run with the worker flag.
    deco_shard::proc::maybe_run_shard_worker();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("deco-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let options = deco_core::DecoOptions::default();
    println!(
        "meta: workload={} seed={} seconds={} trace={} git_rev={} nproc={} cpu=\"{}\" simd={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meta::git_rev(&args.root),
        meta::nproc(),
        meta::cpu_model(),
        meta::simd_features(),
    );
    println!(
        "meta: engine mc_iters={} beam_width={} max_states={} patience={} batch={} \
         frontier_block={} calibration={CAL_SAMPLES}x{CAL_BINS} bins",
        options.mc_iters,
        options.beam_width,
        options.search.max_states,
        options.search.patience,
        options.search.batch,
        options.frontier_block,
    );

    let mut out = match args.workload {
        Workload::Novel => novel::run(&args),
        Workload::Journaled => journaled::run(&args),
    };

    let failed = out.attempted - out.succeeded.min(out.attempted);
    out.per_layer.insert(
        "failed_share",
        stats::ratio(failed as f64, out.attempted as f64),
    );
    println!(
        "counts: workload={} attempted={} succeeded={} failed={failed}",
        args.workload.name(),
        out.attempted,
        out.succeeded,
    );
    let (table, values) = if args.trace {
        (&PER_LAYER[..], &out.per_layer)
    } else {
        (&END_TO_END[..], &out.end_to_end)
    };
    for (name, _) in table {
        if values.get(name).is_some_and(|v| !v.is_finite()) {
            out.mismatches
                .push(format!("metric {name} is not a finite number"));
        }
    }
    let metrics = metrics_json(table, values);
    for m in &out.mismatches {
        println!("MISMATCH: {m}");
    }
    let correct = out.mismatches.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            declared.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a metric the harness does not print"
        );
    }

    #[test]
    fn metrics_json_fills_every_declared_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.5);
        let json = metrics_json(&END_TO_END, &values);
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"req_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
    }
}
