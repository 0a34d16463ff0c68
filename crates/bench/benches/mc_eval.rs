//! Monte-Carlo evaluation throughput: the reference Algorithm 1 loop
//! (`mc_evaluate_plan_reference`, fresh topological sort and O(bins)
//! linear-scan sampling per realization) against the compiled frontier
//! kernel, both as the K=1 single-state path (`mc_evaluate_plan_scratch`:
//! a skeleton in the plan's own dispatch order, one candidate column, a
//! reusable `EvalScratch`) and as K-candidate batches over one shared
//! skeleton.
//!
//! Beyond the criterion output, the bench writes `BENCH_mc_eval.json` at
//! the repository root with the measured medians and speedups so future
//! PRs can track the trajectory without parsing bench logs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_core::estimate::{
    mc_evaluate_plan_reference, mc_evaluate_plan_scratch, CompiledFrontier, EvalScratch,
    ExecTimeTable, FrontierSkeleton,
};
use deco_workflow::generators;
use deco_workflow::Workflow;
use std::time::{Duration, Instant};

/// Monte-Carlo iterations per evaluation — the scale the scheduling
/// problem uses for one search state.
const MC_ITERS: usize = 200;
const HIST_BINS: usize = 12;
const SEED: u64 = 7;
/// Frontier widths the batched evaluator is measured at.
const FRONTIER_KS: [usize; 3] = [8, 32, 128];

/// A synthetic beam frontier: K distinct type vectors over the same DAG,
/// the shape `beam_search` hands to `evaluate_frontier`.
fn beam_plans(wf: &Workflow, spec: &CloudSpec, k: usize) -> Vec<Plan> {
    (0..k)
        .map(|i| {
            let types: Vec<usize> = (0..wf.len()).map(|j| 1 + (i * 7 + j * 3) % 3).collect();
            Plan::packed(wf, &types, 0, spec)
        })
        .collect()
}

fn frontier_seeds(k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

struct Case {
    name: &'static str,
    wf: Workflow,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "montage_8",
            wf: generators::montage(8, 1),
        },
        Case {
            name: "ligo_20",
            wf: generators::ligo(20, 1),
        },
        Case {
            name: "ligo_100",
            wf: generators::ligo(100, 1),
        },
        Case {
            name: "ligo_1000",
            wf: generators::ligo(1000, 1),
        },
    ]
}

/// Interleaved A/B timing: `samples` timed samples of `a` alternate with
/// `samples` of `b`, each sized to a wall-clock budget estimated from one
/// untimed warm-up call, so load drift on a shared machine hits both sides
/// alike. Returns the median seconds per call of each side and the median
/// of the per-pair ratios `a / b`.
fn paired_medians(
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    samples: usize,
    budget: Duration,
) -> (f64, f64, f64) {
    let per_sample = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        let once = t.elapsed().as_secs_f64().max(1e-9);
        ((budget.as_secs_f64() / samples as f64 / once).floor() as u64).max(1)
    };
    let (na, nb) = (per_sample(&mut a), per_sample(&mut b));
    let time = |f: &mut dyn FnMut(), n: u64| {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        t.elapsed().as_secs_f64() / n as f64
    };
    let (mut ta, mut tb, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let (x, y) = (time(&mut a, na), time(&mut b, nb));
        ta.push(x);
        tb.push(y);
        ratio.push(x / y);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|p, q| p.total_cmp(q));
        v[v.len() / 2]
    };
    (median(ta), median(tb), median(ratio))
}

fn mc_eval(c: &mut Criterion) {
    // Quick mode (CI): skip the criterion groups and the reference
    // medians, measure only the K=1 vs batched-frontier comparison with
    // small budgets, and fail if the frontier path is ever slower than
    // evaluating the same candidates one K=1 call at a time.
    let quick = std::env::var("MC_EVAL_QUICK").is_ok();
    let spec = CloudSpec::amazon_ec2();
    let store = MetadataStore::from_ground_truth(spec.clone(), 30);
    let mut rows = Vec::new();
    let mut frontier_rows = Vec::new();

    for case in cases() {
        let wf = &case.wf;
        let table = ExecTimeTable::build(wf, &store, HIST_BINS);
        let plan = Plan::packed(wf, &vec![1; wf.len()], 0, &spec);
        let deadline = 0.75
            * mc_evaluate_plan_reference(wf, &plan, &table, &spec, f64::INFINITY, 0.9, 32, SEED)
                .quantile_makespan;

        // Sanity: both paths must give the same verdict before we time them.
        let a = mc_evaluate_plan_reference(wf, &plan, &table, &spec, deadline, 0.9, 64, SEED);
        let mut scratch = EvalScratch::new();
        let b = mc_evaluate_plan_scratch(
            wf,
            &plan,
            &table,
            &spec,
            deadline,
            0.9,
            64,
            SEED,
            &mut scratch,
        );
        assert_eq!(a, b, "{}: K=1 path diverged from reference", case.name);

        // ---- Batched frontier vs K=1 evaluation ----
        let skel = FrontierSkeleton::build(wf, &table);
        let (budget, samples) = if quick {
            (Duration::from_millis(250), 7)
        } else {
            (Duration::from_millis(1500), 7)
        };
        let ks: &[usize] = if quick { &[32] } else { &FRONTIER_KS };
        for &k in ks {
            let plans = beam_plans(wf, &spec, k);
            let seeds = frontier_seeds(k);
            let frontier =
                CompiledFrontier::compile(&skel, &spec, &plans).expect("packer plans conform");

            // Sanity: bit-identical to the K=1 path.
            let batched = frontier.evaluate(deadline, 0.9, 64, &seeds, &mut scratch);
            for (i, (p, s)) in plans.iter().zip(&seeds).enumerate() {
                let one = mc_evaluate_plan_scratch(
                    wf,
                    p,
                    &table,
                    &spec,
                    deadline,
                    0.9,
                    64,
                    *s,
                    &mut scratch,
                );
                assert_eq!(
                    one, batched[i],
                    "{} k={k}: frontier diverged from K=1 at candidate {i}",
                    case.name
                );
            }

            let mut fscratch = EvalScratch::new();
            let (k1_s, frontier_s, speedup) = paired_medians(
                || {
                    for (p, s) in plans.iter().zip(&seeds) {
                        black_box(mc_evaluate_plan_scratch(
                            wf,
                            p,
                            &table,
                            &spec,
                            deadline,
                            0.9,
                            MC_ITERS,
                            *s,
                            &mut scratch,
                        ));
                    }
                },
                || {
                    let f = CompiledFrontier::compile(&skel, &spec, &plans)
                        .expect("packer plans conform");
                    black_box(f.evaluate(deadline, 0.9, MC_ITERS, &seeds, &mut fscratch));
                },
                samples,
                budget,
            );
            println!(
                "mc_eval {:<12} k={:<4} k1 {:>10.1} us/cand  frontier {:>10.1} us/cand  speedup {:.2}x",
                case.name,
                k,
                k1_s / k as f64 * 1e6,
                frontier_s / k as f64 * 1e6,
                speedup
            );
            frontier_rows.push(format!(
                "    {{\"name\": \"{}\", \"tasks\": {}, \"k\": {}, \"mc_iters\": {}, \
                 \"k1_us_per_cand\": {:.3}, \"frontier_us_per_cand\": {:.3}, \"speedup\": {:.3}}}",
                case.name,
                wf.len(),
                k,
                MC_ITERS,
                k1_s / k as f64 * 1e6,
                frontier_s / k as f64 * 1e6,
                speedup
            ));
            if quick {
                assert!(
                    speedup >= 1.0,
                    "{} k={k}: batched frontier slower than K=1 ({speedup:.2}x)",
                    case.name
                );
            }
        }

        if quick {
            continue;
        }

        let mut group = c.benchmark_group(&format!("mc_eval/{}", case.name));
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(1200));
        group.bench_function("reference", |bch| {
            bch.iter(|| {
                mc_evaluate_plan_reference(
                    wf,
                    &plan,
                    &table,
                    &spec,
                    black_box(deadline),
                    0.9,
                    MC_ITERS,
                    SEED,
                )
            })
        });
        group.bench_function("compiled", |bch| {
            bch.iter(|| {
                mc_evaluate_plan_scratch(
                    wf,
                    &plan,
                    &table,
                    &spec,
                    black_box(deadline),
                    0.9,
                    MC_ITERS,
                    SEED,
                    &mut scratch,
                )
            })
        });
        group.bench_function("compile_only", |bch| {
            bch.iter(|| {
                let own = FrontierSkeleton::for_plan(wf, &table, &plan);
                black_box(
                    CompiledFrontier::compile(&own, &spec, std::slice::from_ref(&plan)).is_some(),
                )
            })
        });
        group.finish();

        // Independent medians for the JSON record.
        let (ref_s, fast_s, speedup) = paired_medians(
            || {
                black_box(mc_evaluate_plan_reference(
                    wf, &plan, &table, &spec, deadline, 0.9, MC_ITERS, SEED,
                ));
            },
            || {
                black_box(mc_evaluate_plan_scratch(
                    wf,
                    &plan,
                    &table,
                    &spec,
                    deadline,
                    0.9,
                    MC_ITERS,
                    SEED,
                    &mut scratch,
                ));
            },
            7,
            Duration::from_millis(1500),
        );
        println!(
            "mc_eval {:<12} tasks={:<5} slots={:<5} reference {:>10.1} us  compiled {:>10.1} us  speedup {:.2}x",
            case.name,
            wf.len(),
            plan.slots.len(),
            ref_s * 1e6,
            fast_s * 1e6,
            speedup
        );
        rows.push(format!(
            "    {{\"name\": \"{}\", \"tasks\": {}, \"mc_iters\": {}, \
             \"reference_us\": {:.3}, \"compiled_us\": {:.3}, \"speedup\": {:.3}}}",
            case.name,
            wf.len(),
            MC_ITERS,
            ref_s * 1e6,
            fast_s * 1e6,
            speedup
        ));
    }

    if quick {
        println!("mc_eval quick mode: frontier >= K=1 on every case, skipping JSON");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"mc_eval\",\n  \"unit\": \"microseconds_per_evaluation\",\n  \
         \"cases\": [\n{}\n  ],\n  \"frontier\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        frontier_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mc_eval.json");
    std::fs::write(out, json).expect("write BENCH_mc_eval.json");
    println!("wrote {out}");
}

criterion_group!(mc_eval_benches, mc_eval);
criterion_main!(mc_eval_benches);
