//! `paper-sweep`: the paper's matching protocol on dense graphs.
//!
//! Set-up builds eight edge-heavy but cheap-to-build similarity graphs
//! with `build_graph_over`, one per function, each over its own draw of
//! D7. The timed region runs, per graph and
//! round: `sorted_edges` → `PreparedGraph::from_sorted` →
//! `SweepEngine::sweep_all` (8 algorithms × the paper grid) → one
//! `AlgorithmConfig::run` per algorithm at its best threshold. The
//! matching layers do nearly all of the timed work.

use std::time::Instant;

use er_core::{Matching, SimilarityGraph, ThresholdGrid};
use er_datasets::Dataset;
use er_eval::metrics::evaluate;
use er_eval::sweep::{sweep_naive, SweepEngine, SweepResult};
use er_matchers::{AlgorithmConfig, AlgorithmKind, Basis, PreparedGraph};
use er_pipeline::{build_graph_over, PipelineConfig};

use crate::report::{Metrics, Ops, Outcome};
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::{function_named, Bench};

/// Dataset scale: D7 at 0.05 is 303 × 391 records.
pub const SCALE: f64 = 0.05;

/// The similarity functions the graphs are built with.
pub const FUNCTIONS: [&str; 8] = [
    "sa-syn/c2/CosineTF",
    "sa-syn/c2/CosineTFIDF",
    "sa-syn/c3/CosineTF",
    "sa-syn/c3/CosineTFIDF",
    "sa-syn/c4/CosineTF",
    "sa-syn/c4/CosineTFIDF",
    "sa-syn/t1/CosineTFIDF",
    "sb-syn/name/Levenshtein",
];

/// Library calls per graph: sort, prepare, sweep and eight runs.
const CALLS_PER_GRAPH: f64 = 11.0;

struct Setup {
    datasets: Vec<Dataset>,
    graphs: Vec<SimilarityGraph>,
}

/// What one graph's timed calls returned.
struct GraphRun {
    sweep: Vec<SweepResult>,
    runs: Vec<Matching>,
    read_us: f64,
    write_us: f64,
}

fn config_for(r: &SweepResult) -> AlgorithmConfig {
    AlgorithmConfig {
        bmc_basis: if r.bmc_basis_right == Some(true) {
            Basis::Right
        } else {
            Basis::Left
        },
        ..AlgorithmConfig::default()
    }
}

fn same_result(a: &SweepResult, b: &SweepResult) -> bool {
    a.algorithm == b.algorithm
        && a.best_threshold.to_bits() == b.best_threshold.to_bits()
        && a.best.f1.to_bits() == b.best.f1.to_bits()
        && a.best.precision.to_bits() == b.best.precision.to_bits()
        && a.best.recall.to_bits() == b.best.recall.to_bits()
        && a.best.true_positives == b.best.true_positives
        && a.best.output_pairs == b.best.output_pairs
        && a.bmc_basis_right == b.bmc_basis_right
}

/// Run the workload.
pub fn run(bench: &Bench) -> Outcome {
    let tr = &bench.tracer;
    let pipeline = PipelineConfig::default();
    let mut build = || {
        let datasets = bench.generate();
        let graphs = FUNCTIONS
            .iter()
            .zip(&datasets)
            .enumerate()
            .map(|(i, (name, ds))| {
                let f = function_named(ds, name);
                tr.span("pipeline.dense_build", i as u64, || {
                    build_graph_over(&ds.left, &ds.right, &f, &pipeline)
                })
            })
            .collect();
        Setup { datasets, graphs }
    };
    let (setup, setup_times) = bench.setup(&mut build);
    let n_graphs = setup.graphs.len() as u64;
    let engine = SweepEngine::new(AlgorithmConfig::default());
    let grid = ThresholdGrid::paper();

    let mut ops = Ops::default();
    let mut f1s: Vec<f64> = Vec::new();
    // Latency samples: one per round, the round's read calls (sweep and
    // runs) and write calls (sort and prepare) summed over its graphs.
    let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
    let mut records = 0.0f64;
    let (mut ok_graphs, mut busy_s) = (0u64, 0.0f64);
    // Per round parity: [untraced, traced] graphs done and seconds.
    let mut parity = [(0u64, 0.0f64); 2];
    // The graph whose sweep is checked against `sweep_naive`.
    let check = (bench.args.seed % n_graphs) as usize;
    let mut check_sweep: Option<Vec<SweepResult>> = None;
    let mut round = 0u64;
    while busy_s < bench.args.seconds || (bench.args.trace && round < 2) {
        let traced = bench.args.trace && round % 2 == 1;
        tr.set_enabled(traced);
        let (mut round_read, mut round_write) = (0.0, 0.0);
        for (i, g) in setup.graphs.iter().enumerate() {
            let gt = &setup.datasets[i].ground_truth;
            let req = round * n_graphs + i as u64;
            let t0 = Instant::now();
            let out = ops.attempt(|| {
                Ok(tr.span("bench.graph", req, || {
                    let t = Instant::now();
                    let sorted = tr.span("core.sort", req, || g.sorted_edges());
                    let pg = tr.span("matchers.prepare", req, || {
                        PreparedGraph::from_sorted(g, sorted)
                    });
                    let write_us = t.elapsed().as_secs_f64() * 1e6;
                    let t = Instant::now();
                    let sweep = tr.span("eval.sweep_all", req, || engine.sweep_all(&pg, gt, &grid));
                    let runs: Vec<_> = sweep
                        .iter()
                        .map(|res| {
                            tr.span(
                                format!("matchers.run.{}", res.algorithm.name()),
                                req,
                                || config_for(res).run(res.algorithm, &pg, res.best_threshold),
                            )
                        })
                        .collect();
                    let read_us = t.elapsed().as_secs_f64() * 1e6;
                    GraphRun {
                        sweep,
                        runs,
                        read_us,
                        write_us,
                    }
                }))
            });
            let dt = t0.elapsed().as_secs_f64();
            busy_s += dt;
            let Some(out) = out else {
                f1s.extend([0.0; 8]);
                continue;
            };
            // Output check (untimed): the single run at the best
            // threshold reproduces the sweep's best F1 bit for bit.
            let agree = out
                .sweep
                .iter()
                .zip(&out.runs)
                .all(|(s, m)| s.best.f1.to_bits() == evaluate(m, gt).f1.to_bits());
            if !agree {
                ops.mismatch(format!(
                    "graph {i}: run F1 differs from the sweep's best F1"
                ));
                f1s.extend([0.0; 8]);
                continue;
            }
            ok_graphs += 1;
            parity[traced as usize].0 += 1;
            parity[traced as usize].1 += dt;
            f1s.extend(out.sweep.iter().map(|s| s.best.f1));
            records += setup.datasets[i].left.len() as f64;
            round_read += out.read_us;
            round_write += out.write_us;
            if i == check {
                check_sweep = Some(out.sweep);
            }
        }
        read_us.push(round_read);
        write_us.push(round_write);
        round += 1;
    }
    tr.set_enabled(bench.args.trace);

    // Output check (untimed): one graph per run against the naive
    // per-threshold re-run, bit for bit.
    if let Some(sweep) = &check_sweep {
        let g = &setup.graphs[check];
        let gt = &setup.datasets[check].ground_truth;
        let pg = PreparedGraph::new(g);
        let cfg = AlgorithmConfig::default();
        for res in sweep {
            let naive = sweep_naive(res.algorithm, &cfg, &pg, gt, &grid);
            if !same_result(&naive, res) {
                ops.mismatch(format!(
                    "graph {check}: {} sweep differs from sweep_naive",
                    res.algorithm.name()
                ));
            }
        }
    }

    let mut e2e = Metrics::default();
    e2e.set("ok_ratio", ops.ok_ratio());
    e2e.set("graphs_per_s", ok_graphs as f64 / busy_s);
    e2e.set("records_per_s", records / busy_s);
    e2e.set("f1_mean", mean(&f1s));
    e2e.set("ops_per_s", ok_graphs as f64 * CALLS_PER_GRAPH / busy_s);
    e2e.set("read_p50_us", percentile(&read_us, 0.5));
    e2e.set("read_p90_us", tail_percentile(&read_us));
    e2e.set("write_p50_us", percentile(&write_us, 0.5));
    e2e.set("write_p90_us", tail_percentile(&write_us));

    let mut layer = Metrics::default();
    if bench.args.trace {
        // Per-algorithm sweep breakdown through `sweep_algorithm`.
        tr.span("bench.breakdown", 0, || {
            for (i, g) in setup.graphs.iter().enumerate() {
                let gt = &setup.datasets[i].ground_truth;
                let pg = PreparedGraph::from_sorted(g, g.sorted_edges());
                for kind in AlgorithmKind::ALL {
                    tr.span(format!("eval.sweep.{}", kind.name()), i as u64, || {
                        engine.sweep_algorithm(kind, &pg, gt, &grid)
                    });
                }
            }
        });
        let per_round = |name: &str| median(&tr.grouped_self_ms(name, |s| s.req / n_graphs));
        layer.set("core.sort_ms", per_round("core.sort"));
        layer.set("matchers.prepare_ms", per_round("matchers.prepare"));
        layer.set("eval.sweep_all_ms", per_round("eval.sweep_all"));
        for kind in AlgorithmKind::ALL {
            let a = kind.name();
            layer.set(
                format!("matchers.run_ms.{a}"),
                per_round(&format!("matchers.run.{a}")),
            );
            layer.set(
                format!("eval.sweep_ms.{a}"),
                tr.self_ms(&format!("eval.sweep.{a}")).iter().sum::<f64>(),
            );
        }
        super::set_overhead(&mut layer, parity, tr.len());
    }

    let edges: usize = setup.graphs.iter().map(|g| g.n_edges()).sum();
    let mut out = Outcome {
        ops,
        e2e,
        layer,
        inputs: vec![
            ("dataset", "D7".into()),
            ("scale", SCALE.to_string()),
            ("draws", setup.datasets.len().to_string()),
            ("n_left", setup.datasets[0].left.len().to_string()),
            ("n_right", setup.datasets[0].right.len().to_string()),
            ("functions", FUNCTIONS.join(",")),
            ("graph_edges_total", edges.to_string()),
            ("rounds", round.to_string()),
            ("read_samples", read_us.len().to_string()),
            ("write_samples", write_us.len().to_string()),
            ("sweep_threads", crate::host::nproc().to_string()),
            ("pipeline_threads", pipeline.effective_threads().to_string()),
        ],
    };
    drop(setup);
    bench.finish_setup(
        setup_times,
        build,
        &["datasets.generate", "pipeline.dense_build"],
        &mut out,
    );
    out
}
