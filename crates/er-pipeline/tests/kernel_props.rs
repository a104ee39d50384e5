//! Kernel-equivalence property suite: the lane-parallel (SWAR) kernels
//! the construction engine scores with are **bit-identical** to the
//! scalar kernels and per-pair measures they stand for — not
//! approximately, not "up to an epsilon", but the same integers and the
//! same `f64` bit patterns.
//!
//! Layers covered:
//! * the multi-text Myers batch vs. the scalar bit-parallel pattern
//!   kernel, over arbitrary unicode (beyond-BMP scalars included),
//!   multi-block patterns (> 64 chars), and ragged batch tails;
//! * the batched length/counting-filter screens vs. the scalar
//!   per-candidate bound formulas, for all 7 character measures;
//! * the dimension-blocked semantic kernel (cosine and Euclidean, zero
//!   guards, signed zeros, extreme components, the gather path) vs. the
//!   scalar `SemanticMeasure::similarity_vectors`;
//! * whole graphs: for all 7 character measures, the three semantic
//!   measures (cosine, Euclidean, Word Mover's) and token-vector cosine,
//!   dense and top-k builds equal the naive all-pairs reference
//!   (`common::naive_graph`) bit for bit.

mod common;

use er_datasets::{EntityCollection, EntityProfile};
use er_embed::lanes::{self as embed_lanes, Probe, VectorBlocks};
use er_embed::{DenseVector, EmbeddingModel, SemanticMeasure};
use er_pipeline::{
    build_graph_over, build_graph_topk_mode, CandidateMode, PipelineConfig, SemanticScope,
    SimilarityFunction,
};
use er_textsim::lanes::{
    bag_upper_bounds_from_common, length_upper_bounds, sorted_common_counts, MyersBatch, LANE_WIDTH,
};
use er_textsim::{
    sorted_common_count, CharMeasure, MyersPattern, NGramScheme, SchemaBasedMeasure, VectorMeasure,
};
use proptest::prelude::*;

/// An alphabet that spans ASCII, Latin-1, BMP CJK, and beyond-BMP
/// scalars (𝄞 U+1D11E, 😀 U+1F600) — the char kernels operate on
/// unicode scalar values, so supplementary-plane chars must round-trip
/// exactly like ASCII.
const ALPHABET: [char; 10] = ['a', 'b', 'c', 'é', 'ß', 'Ω', '漢', 'か', '𝄞', '😀'];

/// Strings of 0..=max chars from [`ALPHABET`]; `max > 64` forces
/// multi-block Myers patterns with inter-block carries.
fn arb_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(ALPHABET.to_vec()), 0..=max)
        .prop_map(|cs| cs.into_iter().collect())
}

fn codes(s: &str) -> Vec<u32> {
    s.chars().map(u32::from).collect()
}

fn sorted_bag(s: &str) -> Vec<u32> {
    let mut bag = codes(s);
    bag.sort_unstable();
    bag
}

/// Collections whose "name" values come from the unicode alphabet —
/// small enough for dense reference builds, adversarial enough to hit
/// multi-block patterns and supplementary-plane chars in the pipeline.
fn arb_unicode_collection(max_entities: usize) -> impl Strategy<Value = EntityCollection> {
    proptest::collection::vec(arb_text(70), 1..=max_entities).prop_map(|names| EntityCollection {
        profiles: names
            .into_iter()
            .enumerate()
            .map(|(i, name)| EntityProfile::new(i as u32, vec![("name".to_string(), name)]))
            .collect(),
        attribute_names: vec!["name".into()],
    })
}

/// One vector component: mostly ordinary values, sometimes an extreme
/// one — signed zeros, the largest and smallest normal magnitudes, a
/// subnormal, and a large power of ten.
fn arb_component() -> impl Strategy<Value = f32> {
    (0usize..40, -1000.0f32..1000.0).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f32::MAX,
        3 => -f32::MAX,
        4 => f32::MIN_POSITIVE,
        5 => -f32::from_bits(1),
        6 => 1e30,
        _ => x,
    })
}

/// A `dim`-dimensional vector; about one in six is a zero vector, built
/// from `+0.0` or `-0.0` components.
fn arb_vector(dim: usize) -> impl Strategy<Value = DenseVector> {
    (0usize..12, proptest::collection::vec(arb_component(), dim)).prop_map(move |(pick, v)| {
        match pick {
            0 => DenseVector(vec![0.0; dim]),
            1 => DenseVector(vec![-0.0; dim]),
            _ => DenseVector(v),
        }
    })
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        threads: 1,
        wmd_token_cap: 4,
        ..PipelineConfig::default()
    }
}

/// Signed zeros, exhaustively: every 2-d vector over `{-1, -0, +0, 1}`
/// against every other. Random components almost never make every
/// product of a dot product `-0.0`; here many pairs do, and the block
/// kernel must keep the sign the scalar sum keeps.
#[test]
fn blocked_kernel_keeps_signed_zeros() {
    let values = [-1.0f32, -0.0, 0.0, 1.0];
    let vectors: Vec<DenseVector> = values
        .iter()
        .flat_map(|&x| values.iter().map(move |&y| DenseVector(vec![x, y])))
        .collect();
    let mut blocks = VectorBlocks::with_capacity(2, vectors.len());
    for v in &vectors {
        blocks.push(v);
    }
    let mut out = [0.0f64; embed_lanes::LANE_WIDTH];
    for a in &vectors {
        let probe = Probe::new(a);
        for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
            for block in 0..blocks.n_blocks() {
                blocks.similarity_block(m, &probe, block, &mut out);
                for (l, b) in vectors[block * embed_lanes::LANE_WIDTH..]
                    .iter()
                    .take(embed_lanes::LANE_WIDTH)
                    .enumerate()
                {
                    assert_eq!(
                        out[l].to_bits(),
                        m.similarity_vectors(a, b).to_bits(),
                        "{} {:?} vs {:?}",
                        m.name(),
                        a.0,
                        b.0
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The multi-text Myers batch returns exactly the scalar kernel's
    /// distances for every lane — any pattern length (0, 1..64, and
    /// multi-block > 64), any text lengths (ragged tails), any unicode.
    #[test]
    fn myers_batch_matches_scalar_pattern(
        pattern in arb_text(100),
        texts in proptest::collection::vec(arb_text(100), 1..=LANE_WIDTH),
    ) {
        let pattern = codes(&pattern);
        let text_codes: Vec<Vec<u32>> = texts.iter().map(|t| codes(t)).collect();
        let refs: Vec<&[u32]> = text_codes.iter().map(Vec::as_slice).collect();
        let mut batch = MyersBatch::new();
        batch.prepare(&pattern);
        let mut got = [0usize; LANE_WIDTH];
        batch.distances(&refs, &mut got);
        let mut scalar = MyersPattern::new();
        scalar.prepare(&pattern);
        for (l, t) in text_codes.iter().enumerate() {
            prop_assert_eq!(
                got[l],
                scalar.distance(t),
                "lane {} of {} (pattern {} chars, text {} chars)",
                l,
                refs.len(),
                pattern.len(),
                t.len()
            );
        }
    }

    /// The batched length and counting-filter screens compute the same
    /// `f64` bits as the scalar per-candidate bound calls, for all 7
    /// character measures (q-grams' missing bag bound maps to +∞, which
    /// never prunes — the scalar `None` behaviour).
    #[test]
    fn bound_screens_match_scalar_bits(
        a in arb_text(80),
        bs in proptest::collection::vec(arb_text(80), 1..=LANE_WIDTH),
    ) {
        let bag_a = sorted_bag(&a);
        let bags: Vec<Vec<u32>> = bs.iter().map(|b| sorted_bag(b)).collect();
        let refs: Vec<&[u32]> = bags.iter().map(Vec::as_slice).collect();
        let lens: Vec<usize> = bags.iter().map(Vec::len).collect();
        let la = bag_a.len();
        let mut commons = [0usize; LANE_WIDTH];
        sorted_common_counts(&bag_a, &refs, &mut commons[..refs.len()]);
        for (l, bag_b) in bags.iter().enumerate() {
            prop_assert_eq!(commons[l], sorted_common_count(&bag_a, bag_b));
        }
        for m in CharMeasure::all() {
            let mut len_ub = [0.0f64; LANE_WIDTH];
            length_upper_bounds(m, la, &lens, &mut len_ub[..lens.len()]);
            let mut bag_ub = [0.0f64; LANE_WIDTH];
            bag_upper_bounds_from_common(
                m,
                &commons[..lens.len()],
                la,
                &lens,
                &mut bag_ub[..lens.len()],
            );
            for (l, bag_b) in bags.iter().enumerate() {
                prop_assert_eq!(
                    len_ub[l].to_bits(),
                    m.length_upper_bound(la, lens[l]).to_bits(),
                    "{:?} length bound lane {}",
                    m,
                    l
                );
                match m.bag_upper_bound(&bag_a, bag_b) {
                    Some(ub) => prop_assert_eq!(
                        bag_ub[l].to_bits(),
                        ub.to_bits(),
                        "{:?} bag bound lane {}",
                        m,
                        l
                    ),
                    None => prop_assert_eq!(bag_ub[l], f64::INFINITY),
                }
            }
        }
    }

    /// The dimension-blocked kernel the semantic graph builds score with
    /// equals `SemanticMeasure::similarity_vectors` bit for bit, for
    /// cosine and Euclidean: the fastText/ALBERT dimensions and two odd
    /// ones, right-side counts off the lane width (ragged last blocks),
    /// zero vectors (either zero sign) on either side, and extreme
    /// components. The gather path (`push_from` into a one-block
    /// buffer) must score exactly like the vectors it copied.
    #[test]
    fn blocked_kernel_matches_scalar_bits(
        (a, bs) in proptest::sample::select(vec![1usize, 7, 300, 768]).prop_flat_map(|dim| (
            arb_vector(dim),
            proptest::collection::vec(arb_vector(dim), 1..=2 * embed_lanes::LANE_WIDTH + 3),
        )),
    ) {
        let mut blocks = VectorBlocks::with_capacity(a.dim(), bs.len());
        for b in &bs {
            blocks.push(b);
        }
        prop_assert_eq!(blocks.n_blocks(), bs.len().div_ceil(embed_lanes::LANE_WIDTH));
        let probe = Probe::new(&a);
        let mut out = [0.0f64; embed_lanes::LANE_WIDTH];
        let mut gathered = VectorBlocks::with_capacity(a.dim(), embed_lanes::LANE_WIDTH);
        for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
            for block in 0..blocks.n_blocks() {
                blocks.similarity_block(m, &probe, block, &mut out);
                let first = block * embed_lanes::LANE_WIDTH;
                for (l, b) in bs[first..].iter().take(embed_lanes::LANE_WIDTH).enumerate() {
                    prop_assert_eq!(
                        out[l].to_bits(),
                        m.similarity_vectors(&a, b).to_bits(),
                        "{} dim {} vector {}",
                        m.name(),
                        a.dim(),
                        first + l
                    );
                    prop_assert_eq!(blocks.is_zero(first + l), b.is_zero());
                }
            }
            // Gather every vector in reverse, one block at a time.
            let order: Vec<usize> = (0..bs.len()).rev().collect();
            for chunk in order.chunks(embed_lanes::LANE_WIDTH) {
                gathered.clear();
                for &j in chunk {
                    gathered.push_from(&blocks, j);
                }
                gathered.similarity_block(m, &probe, 0, &mut out);
                for (l, &j) in chunk.iter().enumerate() {
                    prop_assert_eq!(
                        out[l].to_bits(),
                        m.similarity_vectors(&a, &bs[j]).to_bits(),
                        "{} gathered vector {}",
                        m.name(),
                        j
                    );
                    prop_assert_eq!(gathered.is_zero(l), bs[j].is_zero());
                }
            }
        }
    }
}

proptest! {
    // Whole-graph equivalence builds dense reference graphs per measure,
    // so fewer, larger cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: for all 7 character measures, the three semantic
    /// measures and token-vector cosine, both the dense build and the
    /// pruned top-k build (both candidate modes) equal the naive
    /// all-pairs reference bit for bit. The unicode collections include
    /// > 64-char values (multi-block Myers) and supplementary-plane
    /// chars; right-side counts indivisible by the lane width exercise
    /// ragged tails through every chunked path.
    #[test]
    fn graphs_match_the_naive_reference(
        left in arb_unicode_collection(5),
        right in arb_unicode_collection(7),
        k in 1usize..=2,
    ) {
        let mut functions: Vec<SimilarityFunction> = CharMeasure::all()
            .into_iter()
            .map(|m| SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(m),
            })
            .collect();
        for measure in [
            SemanticMeasure::Cosine,
            SemanticMeasure::Euclidean,
            SemanticMeasure::WordMovers,
        ] {
            functions.push(SimilarityFunction::Semantic {
                model: EmbeddingModel::FastText,
                measure,
                scope: SemanticScope::SchemaAgnostic,
            });
        }
        // Token-vector cosine: the weighted-postings dot accumulator
        // must add candidate products in exactly the sorted-merge order.
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        });
        functions.push(SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Char(3),
            measure: VectorMeasure::CosineTf,
        });
        for function in functions {
            let reference = common::naive_graph(&left, &right, &function, &cfg());
            let dense = build_graph_over(&left, &right, &function, &cfg());
            common::assert_same_edges(&reference, &dense, &format!("{} dense", function.name()));
            let reference_topk = reference.pruned_top_k(k);
            for mode in [CandidateMode::Enumerated, CandidateMode::Indexed] {
                let (topk, _) = build_graph_topk_mode(&left, &right, &function, k, mode, &cfg());
                common::assert_same_edges(
                    &reference_topk,
                    &topk,
                    &format!("{} topk k={k} mode={mode:?}", function.name()),
                );
            }
        }
    }
}
