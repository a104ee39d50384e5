//! The naive graph reference the property suites compare every build
//! path against.
//!
//! It scores **every** cross pair with the public per-pair measures only
//! — no candidate index, no interning, no caches, no lane kernels, no
//! bounds — then applies the construction protocol itself: the
//! positivity filter and the floored min-max normalization, plus
//! `pruned_top_k(k)` for the top-k builds. Per branch:
//!
//! * schema-based measures: `CharMeasure::similarity` /
//!   `SchemaBasedMeasure::similarity` over the attribute values
//!   (entities missing the attribute have no edges);
//! * n-gram vectors: `VectorMeasure::similarity` over
//!   `VectorModel::vector`, weighted with the union `DfIndex` of both
//!   collections, with the per-collection indexes as the measure's DFs;
//! * n-gram graphs: `GraphSimilarity::similarity` over
//!   `NGramGraph::from_values`;
//! * both n-gram branches score only pairs that share a term (graph
//!   edge): a pair sharing none is no edge, even where a measure's
//!   empty-vs-empty convention scores it 1;
//! * dense semantic measures: `SemanticMeasure::similarity_vectors` over
//!   `Encoder::encode`;
//! * Word Mover's: `SemanticMeasure::similarity_tokens` over
//!   `Encoder::token_vectors` truncated to `wmd_token_cap`, skipping
//!   empty bags (the pipeline filters empty texts).

#![allow(dead_code)]

use er_core::{FxHashSet, GraphBuilder, SimilarityGraph};
use er_datasets::{EntityCollection, EntityProfile};
use er_embed::DenseVector;
use er_pipeline::{PipelineConfig, SemanticScope, SimilarityFunction};
use er_textsim::{DfIndex, NGramGraph, SchemaBasedMeasure, SparseVector, VectorModel};

/// The dense graph of `function` over every cross pair.
pub fn naive_graph(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    finalize(
        left,
        right,
        raw_scores(left, right, function, cfg, |_, _| true),
        cfg,
    )
}

/// [`naive_graph`] pruned to each left row's best `k` edges.
pub fn naive_topk(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    naive_graph(left, right, function, cfg).pruned_top_k(k)
}

/// The graph of `function` over the blocked `candidates` only,
/// normalized over the restricted score set.
pub fn naive_restricted(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    candidates: &FxHashSet<(u32, u32)>,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    let scores = raw_scores(left, right, function, cfg, |l, r| {
        candidates.contains(&(l, r))
    });
    finalize(left, right, scores, cfg)
}

/// Exact comparison up to edge order: the same `(left, right)` pairs
/// with the same weight bits.
pub fn assert_same_edges(want: &SimilarityGraph, got: &SimilarityGraph, what: &str) {
    assert_eq!(want.n_left(), got.n_left(), "{what}: n_left");
    assert_eq!(want.n_right(), got.n_right(), "{what}: n_right");
    let canon = |g: &SimilarityGraph| -> Vec<(u32, u32, u64)> {
        let mut v: Vec<_> = g
            .edges()
            .iter()
            .map(|e| (e.left, e.right, e.weight.to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    let (want, got) = (canon(want), canon(got));
    assert_eq!(want.len(), got.len(), "{what}: edge count");
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "{what}: edge (left, right, weight bits)");
    }
}

/// Raw scores of every cross pair `(l, r)` that `keep` admits, in
/// left-major order.
fn raw_scores(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
    keep: impl Fn(u32, u32) -> bool,
) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::new();
    let mut all_pairs = |score: &mut dyn FnMut(&EntityProfile, &EntityProfile) -> Option<f64>| {
        for a in &left.profiles {
            for b in &right.profiles {
                if keep(a.id, b.id) {
                    if let Some(w) = score(a, b) {
                        out.push((a.id, b.id, w));
                    }
                }
            }
        }
    };
    match function {
        SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => {
            all_pairs(&mut |a, b| {
                let (va, vb) = (a.value(attribute)?, b.value(attribute)?);
                Some(match measure {
                    SchemaBasedMeasure::Char(m) => m.similarity(va, vb),
                    SchemaBasedMeasure::Token(_) => measure.similarity(va, vb),
                })
            });
        }
        SimilarityFunction::SchemaAgnosticVector { scheme, measure } => {
            let model = VectorModel::new(*scheme);
            let (mut df_left, mut df_right, mut df_union) =
                (DfIndex::new(), DfIndex::new(), DfIndex::new());
            for (c, df) in [(left, &mut df_left), (right, &mut df_right)] {
                for p in &c.profiles {
                    let terms = model.term_frequencies(&p.all_values_text());
                    df.add_document(terms.keys().copied());
                    df_union.add_document(terms.keys().copied());
                }
            }
            let vector = |p: &EntityProfile| -> SparseVector {
                model.vector(&p.all_values_text(), measure.weighting(), Some(&df_union))
            };
            all_pairs(&mut |a, b| {
                let (va, vb) = (vector(a), vector(b));
                (va.common_terms(&vb) > 0)
                    .then(|| measure.similarity(&va, &vb, Some((&df_left, &df_right))))
            });
        }
        SimilarityFunction::SchemaAgnosticGraph { scheme, measure } => {
            all_pairs(&mut |a, b| {
                let ga = NGramGraph::from_values(a.values(), *scheme);
                let gb = NGramGraph::from_values(b.values(), *scheme);
                let keys: FxHashSet<(u64, u64)> = gb.edge_keys().collect();
                let shared = ga.edge_keys().any(|k| keys.contains(&k));
                shared.then(|| measure.similarity(&ga, &gb))
            });
        }
        SimilarityFunction::Semantic {
            model,
            measure,
            scope,
        } => {
            let enc = model.encoder();
            if measure.needs_token_vectors() {
                let bag = |p: &EntityProfile| -> Vec<DenseVector> {
                    let mut toks = enc.token_vectors(&scoped_text(p, scope));
                    toks.truncate(cfg.wmd_token_cap);
                    toks
                };
                all_pairs(&mut |a, b| {
                    let (ba, bb) = (bag(a), bag(b));
                    if ba.is_empty() || bb.is_empty() {
                        return None;
                    }
                    Some(measure.similarity_tokens(&ba, &bb))
                });
            } else {
                all_pairs(&mut |a, b| {
                    let va = enc.encode(&scoped_text(a, scope));
                    let vb = enc.encode(&scoped_text(b, scope));
                    Some(measure.similarity_vectors(&va, &vb))
                });
            }
        }
    }
    out
}

/// The text a semantic function compares for one profile.
fn scoped_text(p: &EntityProfile, scope: &SemanticScope) -> String {
    match scope {
        SemanticScope::SchemaBased { attribute } => {
            p.value(attribute).unwrap_or_default().to_string()
        }
        SemanticScope::SchemaAgnostic => p.all_values_text(),
    }
}

/// The positivity filter, then min-max normalization with a `0.0` floor
/// (a degenerate span maps every weight to 1).
fn finalize(
    left: &EntityCollection,
    right: &EntityCollection,
    mut scores: Vec<(u32, u32, f64)>,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    if cfg.keep_positive_only {
        scores.retain(|&(_, _, w)| w > 0.0);
    }
    let lo = scores.iter().map(|s| s.2).fold(f64::INFINITY, f64::min);
    let hi = scores.iter().map(|s| s.2).fold(f64::NEG_INFINITY, f64::max);
    let lo = lo.min(0.0);
    let span = hi - lo;
    let mut b = GraphBuilder::new(left.len() as u32, right.len() as u32);
    for (l, r, w) in scores {
        let w = if span <= f64::EPSILON || span.is_nan() {
            1.0
        } else {
            ((w - lo) / span).clamp(0.0, 1.0)
        };
        b.add_edge(l, r, w).expect("every cross pair once");
    }
    b.build()
}
