//! `linkage-ooc`: batch linkage of two sources through the out-of-core
//! path.
//!
//! Per similarity function and round, the timed region runs
//! `build_graph_sharded` (indexed candidates, top-k, spill, merge,
//! sort-order column) → `MappedCsr::open` → `PreparedGraph::from_mapped`
//! → `SweepEngine::sweep_all` off the mapping. Construction does nearly
//! all of the work. The three functions cover the three scorer
//! families: character kernels (`lev`), token-vector postings (`cos`)
//! and embeddings (`sem`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use er_core::{CsrGraph, MappedCsr, ThresholdGrid};
use er_datasets::Dataset;
use er_eval::sweep::SweepEngine;
use er_matchers::{AlgorithmConfig, PreparedGraph};
use er_pipeline::{
    build_graph_sharded, build_graph_topk_mode, CandidateMode, PipelineConfig, ShardedConfig,
    ShardedStats, SimilarityFunction,
};

use crate::report::{Metrics, Ops, Outcome, FUNCTION_TAGS};
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::{function_named, Bench};

/// Dataset scale: D7 at 0.25 is 1514 × 1953 records.
pub const SCALE: f64 = 0.25;

/// Edges kept per left record.
pub const K: usize = 5;

/// Independent draws of the dataset linked in each round.
pub const DRAWS: usize = 2;

/// Left rows per shard of the out-of-core build.
pub const SHARD_ROWS: usize = 64;

/// The functions, in [`FUNCTION_TAGS`] order.
pub const FUNCTIONS: [&str; 3] = [
    "sb-syn/name/Levenshtein",
    "sa-syn/t1/CosineTFIDF",
    "sb-sem/name/fastText-Cosine",
];

/// Library calls per linked function: build, open, prepare, sweep.
const CALLS_PER_FUNCTION: f64 = 4.0;

/// What one function's timed calls returned.
struct Linked {
    stats: ShardedStats,
    f1: Vec<f64>,
    store_bytes: usize,
    edge_copies: usize,
    write_us: f64,
    read_us: [f64; 3],
}

fn link(
    bench: &Bench,
    ds: &Dataset,
    f: &SimilarityFunction,
    tag: &str,
    dir: &Path,
    req: u64,
) -> Result<(Linked, MappedCsr), String> {
    let tr = &bench.tracer;
    let pipeline = PipelineConfig::default();
    let engine = SweepEngine::new(AlgorithmConfig::default());
    let grid = ThresholdGrid::paper();
    let out_path = dir.join(format!("{tag}.slab"));
    let sharding = ShardedConfig::new(SHARD_ROWS, dir.join(format!("spill-{tag}")));

    let t = Instant::now();
    let (built, stats, _frame) = tr
        .span(format!("pipeline.build.{tag}"), req, || {
            build_graph_sharded(
                &ds.left,
                &ds.right,
                f,
                K,
                CandidateMode::Indexed,
                &pipeline,
                &sharding,
                &out_path,
            )
        })
        .map_err(|e| format!("{tag}: build_graph_sharded: {e}"))?;
    let write_us = t.elapsed().as_secs_f64() * 1e6;
    drop(built);

    let t = Instant::now();
    let mapped = tr
        .span(format!("core.store_open.{tag}"), req, || {
            MappedCsr::open(&out_path)
        })
        .map_err(|e| format!("{tag}: open: {e}"))?;
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let pg = tr.span(format!("matchers.prepare.{tag}"), req, || {
        PreparedGraph::from_mapped(&mapped)
    });
    let prepare_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let sweep = tr.span(format!("eval.sweep_all.{tag}"), req, || {
        engine.sweep_all(&pg, &ds.ground_truth, &grid)
    });
    let sweep_us = t.elapsed().as_secs_f64() * 1e6;
    let edge_copies = pg.resident_edge_copies();
    drop(pg);
    let linked = Linked {
        stats,
        f1: sweep.iter().map(|r| r.best.f1).collect(),
        store_bytes: mapped.file_bytes(),
        edge_copies,
        write_us,
        read_us: [open_us, prepare_us, sweep_us],
    };
    Ok((linked, mapped))
}

/// The in-RAM reference for a function's store: the top-k build over the
/// same inputs, converted to CSR.
fn reference(ds: &Dataset, f: &SimilarityFunction) -> CsrGraph {
    let (g, _) = build_graph_topk_mode(
        &ds.left,
        &ds.right,
        f,
        K,
        CandidateMode::Indexed,
        &PipelineConfig::default(),
    );
    CsrGraph::from_graph(&g)
}

/// Run the workload.
pub fn run(bench: &Bench) -> Outcome {
    let tr = &bench.tracer;
    let (draws, setup_times) = bench.setup(|| bench.generate());
    let functions: Vec<SimilarityFunction> = FUNCTIONS
        .iter()
        .map(|n| function_named(&draws[0], n))
        .collect();
    let dir: PathBuf = bench
        .args
        .scratch
        .join(format!("linkage-{}", std::process::id()));
    // A failure here surfaces as failed builds.
    std::fs::create_dir_all(&dir).ok();
    let items: Vec<(usize, usize)> = (0..draws.len())
        .flat_map(|d| (0..functions.len()).map(move |i| (d, i)))
        .collect();

    let mut ops = Ops::default();
    let mut references: Vec<Option<CsrGraph>> = vec![None; items.len()];
    let mut last: Vec<Option<Linked>> = (0..items.len()).map(|_| None).collect();
    // Latency samples: one write sample per round, the round's builds
    // summed; one read sample per read call (open, prepare, sweep).
    let (mut f1s, mut read_us, mut write_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ok_links, mut records, mut busy_s) = (0u64, 0.0f64, 0.0f64);
    let mut parity = [(0u64, 0.0f64); 2];
    let mut round = 0u64;
    while busy_s < bench.args.seconds || (bench.args.trace && round < 2) {
        let traced = bench.args.trace && round % 2 == 1;
        tr.set_enabled(traced);
        let mut round_write = 0.0;
        for (item, &(d, i)) in items.iter().enumerate() {
            let ds = &draws[d];
            let req = round * items.len() as u64 + item as u64;
            let t0 = Instant::now();
            let out = ops.attempt(|| {
                tr.span("bench.function", req, || {
                    link(bench, ds, &functions[i], FUNCTION_TAGS[i], &dir, req)
                })
            });
            let dt = t0.elapsed().as_secs_f64();
            busy_s += dt;
            parity[traced as usize].1 += dt;
            let Some((out, store)) = out else {
                f1s.extend([0.0; 8]);
                continue;
            };
            // Output check (untimed): the store equals the in-RAM top-k
            // build over the same inputs.
            let csr = store.to_csr();
            drop(store);
            let want = references[item].get_or_insert_with(|| reference(ds, &functions[i]));
            if csr != *want {
                ops.mismatch(format!(
                    "{}: store differs from the in-RAM build",
                    FUNCTIONS[i]
                ));
                f1s.extend([0.0; 8]);
                continue;
            }
            ok_links += 1;
            records += ds.left.len() as f64;
            parity[traced as usize].0 += 1;
            f1s.extend(&out.f1);
            round_write += out.write_us;
            read_us.extend(out.read_us);
            last[item] = Some(out);
        }
        write_us.push(round_write);
        round += 1;
    }
    tr.set_enabled(bench.args.trace);
    std::fs::remove_dir_all(&dir).ok();

    let mut e2e = Metrics::default();
    e2e.set("ok_ratio", ops.ok_ratio());
    e2e.set("graphs_per_s", ok_links as f64 / busy_s);
    e2e.set("records_per_s", records / busy_s);
    e2e.set("f1_mean", mean(&f1s));
    e2e.set("ops_per_s", ok_links as f64 * CALLS_PER_FUNCTION / busy_s);
    e2e.set("read_p50_us", percentile(&read_us, 0.5));
    e2e.set("read_p90_us", tail_percentile(&read_us));
    e2e.set("write_p50_us", percentile(&write_us, 0.5));
    e2e.set("write_p90_us", tail_percentile(&write_us));

    let mut layer = Metrics::default();
    if bench.args.trace {
        for (i, tag) in FUNCTION_TAGS.iter().enumerate() {
            let per_call = |stem: &str| median(&tr.self_ms(&format!("{stem}.{tag}")));
            let build_ms = per_call("pipeline.build");
            layer.set(format!("pipeline.build_ms.{tag}"), build_ms);
            layer.set(
                format!("core.store_open_ms.{tag}"),
                per_call("core.store_open"),
            );
            layer.set(
                format!("matchers.prepare_ms.{tag}"),
                per_call("matchers.prepare"),
            );
            layer.set(
                format!("eval.sweep_all_ms.{tag}"),
                per_call("eval.sweep_all"),
            );
            // Counters: mean over the draws of the last successful call.
            let linked: Vec<&Linked> = items
                .iter()
                .zip(&last)
                .filter(|((_, j), _)| *j == i)
                .filter_map(|(_, l)| l.as_ref())
                .collect();
            if linked.is_empty() {
                continue;
            }
            let avg = |f: &dyn Fn(&Linked) -> usize| {
                linked.iter().map(|l| f(l) as f64).sum::<f64>() / linked.len() as f64
            };
            let pipe = |m: &str| format!("pipeline.{m}.{tag}");
            let generated = avg(&|l| l.stats.generated_pairs);
            let scored = avg(&|l| l.stats.scored_pairs);
            let retained = avg(&|l| l.stats.retained_edges);
            if scored > 0.0 {
                layer.set(pipe("ns_per_scored_pair"), build_ms * 1e6 / scored);
            }
            if generated > 0.0 {
                layer.set(pipe("retained_per_generated"), retained / generated);
            }
            layer.set(pipe("generated_pairs"), generated);
            layer.set(pipe("scored_pairs"), scored);
            layer.set(pipe("pruned_pairs"), avg(&|l| l.stats.pruned_pairs));
            layer.set(pipe("retained_edges"), retained);
            layer.set(
                pipe("peak_resident_edges"),
                avg(&|l| l.stats.peak_resident_edges),
            );
            layer.set(pipe("spilled_bytes"), avg(&|l| l.stats.spilled_bytes));
            layer.set(pipe("merged_bytes"), avg(&|l| l.stats.merged_bytes));
            layer.set(format!("core.store_bytes.{tag}"), avg(&|l| l.store_bytes));
            layer.set(
                format!("matchers.resident_edge_copies.{tag}"),
                avg(&|l| l.edge_copies),
            );
        }
        super::set_overhead(&mut layer, parity, tr.len());
    }

    let pipeline = PipelineConfig::default();
    let mut out = Outcome {
        ops,
        e2e,
        layer,
        inputs: vec![
            ("dataset", "D7".into()),
            ("scale", SCALE.to_string()),
            ("draws", draws.len().to_string()),
            ("n_left", draws[0].left.len().to_string()),
            ("n_right", draws[0].right.len().to_string()),
            ("k", K.to_string()),
            ("shard_rows", SHARD_ROWS.to_string()),
            ("candidates", "indexed".into()),
            ("functions", FUNCTIONS.join(",")),
            ("rounds", round.to_string()),
            ("read_samples", read_us.len().to_string()),
            ("write_samples", write_us.len().to_string()),
            ("sweep_threads", crate::host::nproc().to_string()),
            ("pipeline_threads", pipeline.effective_threads().to_string()),
        ],
    };
    drop(draws);
    bench.finish_setup(
        setup_times,
        || bench.generate(),
        &["datasets.generate"],
        &mut out,
    );
    out
}
