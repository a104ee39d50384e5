//! The parallel construction-engine benchmark: serial vs multi-threaded
//! similarity-graph construction, the candidate-restricted fast path vs
//! the old build-full-then-restrict flow, and the streaming top-k build
//! vs dense-then-prune.
//!
//! Recorded in docs/BENCH_BASELINE.md as this PR's before/after evidence.
//! Thread-count cases are pinned explicitly (1 vs 4) so the numbers mean
//! the same thing on any host; on a single-vCPU host the 4-thread case
//! measures the engine's sharding overhead instead of its speedup.

use criterion::{criterion_group, criterion_main, Criterion};

use er_datasets::{Dataset, DatasetId};
use er_embed::{EmbeddingModel, SemanticMeasure};
use er_pipeline::blocking::{restrict_graph, token_blocking};
use er_pipeline::{
    build_graph, build_graph_restricted, build_graph_topk, PipelineConfig, SemanticScope,
    SimilarityFunction,
};
use er_textsim::{CharMeasure, NGramScheme, SchemaBasedMeasure, VectorMeasure};

fn dataset() -> Dataset {
    // ~102 × 677 entities: big enough that per-pair scoring dominates the
    // serial prepare phase, small enough for CI smoke runs.
    Dataset::generate(DatasetId::D1, 0.3, 13)
}

fn cfg_threads(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// One function per scoring regime: all-pairs edit distance (the paper's
/// dominant construction cost), inverted-index vector scoring, and
/// cache-heavy Word Mover's.
fn cases() -> Vec<(&'static str, SimilarityFunction)> {
    vec![
        (
            "sb/levenshtein",
            SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
            },
        ),
        (
            "sa/vector-cosine-tfidf",
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTfIdf,
            },
        ),
        (
            "sem/fasttext-wmd",
            SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure: SemanticMeasure::WordMovers,
                scope: SemanticScope::SchemaBased {
                    attribute: "name".into(),
                },
            },
        ),
    ]
}

/// Serial vs 4-thread construction of the same graph.
fn bench_parallel_construction(c: &mut Criterion) {
    let d = dataset();
    let mut group = c.benchmark_group("graphgen_engine");
    group.sample_size(10);
    for (name, function) in cases() {
        for threads in [1usize, 4] {
            let cfg = cfg_threads(threads);
            group.bench_function(format!("{name}/threads{threads}"), |b| {
                b.iter(|| std::hint::black_box(build_graph(&d, &function, &cfg).n_edges()))
            });
        }
    }
    group.finish();
}

/// Candidate-restricted construction vs build-full-then-restrict, on the
/// purged token-blocking stack (raw token blocking on D1 keeps ~96% of
/// the cross product — purging the stop-word blocks is what makes
/// blocking a filter at all, here ~7% of all pairs survive).
fn bench_restricted_path(c: &mut Criterion) {
    let d = dataset();
    let cfg = cfg_threads(1);
    let all_pairs = d.left.len() as u64 * d.right.len() as u64;
    let candidates = token_blocking(&d.left, &d.right)
        .purge((all_pairs / 50).max(4))
        .candidate_pairs();
    let mut group = c.benchmark_group("graphgen_restricted");
    group.sample_size(10);
    for (name, function) in cases() {
        group.bench_function(format!("{name}/restricted_build"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    build_graph_restricted(&d.left, &d.right, &function, &candidates, &cfg)
                        .n_edges(),
                )
            })
        });
        group.bench_function(format!("{name}/full_then_restrict"), |b| {
            b.iter(|| {
                let full = build_graph(&d, &function, &cfg);
                std::hint::black_box(restrict_graph(&full, &candidates).n_edges())
            })
        });
    }
    group.finish();
}

/// Streaming top-k construction vs dense-then-prune, on the corpus where
/// the dense flow's per-edge costs bite: D5 movies at scale 0.25 (~1,280
/// × 1,514 entities, ~590k positive token-sharing pairs). The streaming
/// path disposes of a rejected candidate with one bounded-heap
/// comparison; the dense flow buffers, dedup-hashes and normalizes every
/// edge and then pays the prune sort on top. The full-scale portrait
/// (12M edges, ≥2x) is the `scalability` repro experiment.
fn bench_topk_path(c: &mut Criterion) {
    let d = Dataset::generate(DatasetId::D5, 0.25, 13);
    let cfg = cfg_threads(1);
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    let mut group = c.benchmark_group("graphgen_topk");
    group.sample_size(10);
    for k in [1usize, 10] {
        group.bench_function(format!("sa/vector-cosine-tfidf/topk_build/k{k}"), |b| {
            b.iter(|| std::hint::black_box(build_graph_topk(&d, &function, k, &cfg).n_edges()))
        });
        group.bench_function(
            format!("sa/vector-cosine-tfidf/dense_then_prune/k{k}"),
            |b| {
                b.iter(|| {
                    let dense = build_graph(&d, &function, &cfg);
                    std::hint::black_box(dense.pruned_top_k(k).n_edges())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_construction,
    bench_restricted_path,
    bench_topk_path
);
criterion_main!(benches);
