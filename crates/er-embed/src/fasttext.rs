//! FastText-like encoder: sub-word composition with hashed n-gram vectors.
//!
//! fastText "vectorizes a token by summing the embeddings of all its
//! character n-grams" (paper §4, citing Bojanowski et al.). We keep exactly
//! that composition — boundary-marked character 3–6-grams plus the whole
//! word — but draw the n-gram vectors from a deterministic hash kernel.
//! The defining behaviours survive: no out-of-vocabulary failures, and
//! typo'd tokens stay close to their originals because they share most
//! sub-word units.

use er_core::FxHashMap;
use er_textsim::normalize_text;

use crate::dense::DenseVector;
use crate::hashing::{anisotropy_direction, pseudo_unit_vector};

const FASTTEXT_SEED: u64 = 0xfa57_7e87;

/// The paper's fastText dimensionality.
pub const FASTTEXT_DIM: usize = 300;

/// Token vectors shared by a batch of texts (see
/// `FastTextLike::encode_with`).
///
/// [`plan`](TokenCache::plan) counts each token's occurrences in the
/// texts still to be encoded. A token's vector is computed at its first
/// occurrence, kept while planned occurrences remain, and dropped after
/// the last one, so the cache holds only vectors a later text will read.
/// Encoding an unplanned text, or a text more often than planned, is
/// still exact: the missing tokens are computed without being kept.
#[derive(Debug, Default)]
pub(crate) struct TokenCache {
    entries: FxHashMap<String, TokenEntry>,
}

#[derive(Debug)]
struct TokenEntry {
    /// Planned occurrences not encoded yet; the entry is removed at 0.
    remaining: u32,
    vector: Option<DenseVector>,
}

impl TokenCache {
    /// Count the tokens of one more text the cache will encode.
    pub(crate) fn plan(&mut self, text: &str) {
        for t in normalize_text(text).split_whitespace() {
            match self.entries.get_mut(t) {
                Some(entry) => entry.remaining += 1,
                None => {
                    self.entries.insert(
                        t.to_string(),
                        TokenEntry {
                            remaining: 1,
                            vector: None,
                        },
                    );
                }
            }
        }
    }
}

/// A fastText-like text encoder.
#[derive(Debug, Clone)]
pub struct FastTextLike {
    dim: usize,
    /// Blend factor of the shared anisotropy direction in `[0, 1)`:
    /// higher values push all pairwise similarities up, mimicking the
    /// embedding cone of real pre-trained models.
    anisotropy: f32,
    common: DenseVector,
}

impl Default for FastTextLike {
    fn default() -> Self {
        Self::new(FASTTEXT_DIM, 0.55)
    }
}

impl FastTextLike {
    /// Create an encoder with explicit dimension and anisotropy blend.
    pub fn new(dim: usize, anisotropy: f32) -> Self {
        assert!((0.0..1.0).contains(&anisotropy));
        FastTextLike {
            dim,
            anisotropy,
            common: anisotropy_direction(dim, FASTTEXT_SEED),
        }
    }

    /// Dimensionality of produced vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed one token: the normalized sum of its boundary-marked character
    /// 3–6-gram vectors plus the full-word vector.
    pub fn token_vector(&self, token: &str) -> DenseVector {
        let marked = format!("<{token}>");
        let chars: Vec<char> = marked.chars().collect();
        let mut sum = DenseVector::zeros(self.dim);
        let mut parts = 0usize;
        for n in 3..=6 {
            if chars.len() < n {
                break;
            }
            for w in chars.windows(n) {
                let gram: String = w.iter().collect();
                sum.add_assign(&pseudo_unit_vector(&gram, self.dim, FASTTEXT_SEED));
                parts += 1;
            }
        }
        // The whole word is always one of the units.
        sum.add_assign(&pseudo_unit_vector(&marked, self.dim, FASTTEXT_SEED));
        parts += 1;
        sum.scale(1.0 / parts as f32);
        sum.normalize();
        sum
    }

    /// Embed a text: mean of token vectors, blended with the anisotropy
    /// direction and re-normalized. Empty text embeds to the zero vector.
    pub fn encode(&self, text: &str) -> DenseVector {
        // Repeated tokens within a text are common in concatenated
        // schema-agnostic profiles.
        let mut cache = TokenCache::default();
        cache.plan(text);
        self.encode_with(text, &mut cache)
    }

    /// [`encode`](FastTextLike::encode) through a token-vector cache that
    /// spans a batch of texts. [`token_vector`] is a pure function of the
    /// token, so a cached vector is the one a fresh computation would
    /// produce and the result is bit-identical to `encode`.
    ///
    /// [`token_vector`]: FastTextLike::token_vector
    pub(crate) fn encode_with(&self, text: &str, cache: &mut TokenCache) -> DenseVector {
        let normalized = normalize_text(text);
        let toks: Vec<&str> = normalized.split_whitespace().collect();
        if toks.is_empty() {
            return DenseVector::zeros(self.dim);
        }
        let mut mean = DenseVector::zeros(self.dim);
        for &t in &toks {
            let Some(entry) = cache.entries.get_mut(t) else {
                mean.add_assign(&self.token_vector(t));
                continue;
            };
            mean.add_assign(entry.vector.get_or_insert_with(|| self.token_vector(t)));
            entry.remaining -= 1;
            if entry.remaining == 0 {
                cache.entries.remove(t);
            }
        }
        mean.scale(1.0 / toks.len() as f32);
        mean.normalize();
        // Blend into the cone: v ← (1-α)·v + α·common.
        let mut out = self.common.clone();
        out.scale(self.anisotropy);
        out.add_scaled(&mean, 1.0 - self.anisotropy);
        out.normalize();
        out
    }

    /// Per-token context-free vectors of a text (for Word Mover's
    /// similarity). Tokens embed *without* the anisotropy blend so the
    /// transport costs keep their contrast.
    pub fn token_vectors(&self, text: &str) -> Vec<DenseVector> {
        let normalized = normalize_text(text);
        normalized
            .split_whitespace()
            .map(|t| self.token_vector(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_unit_norm() {
        let ft = FastTextLike::default();
        let a = ft.encode("apple iphone 12 pro");
        let b = ft.encode("apple iphone 12 pro");
        assert_eq!(a, b);
        assert!((a.norm() - 1.0).abs() < 1e-5);
        assert_eq!(a.dim(), 300);
    }

    #[test]
    fn typos_stay_close_oov_robustness() {
        // The fastText property the paper selects it for: sub-word sharing
        // keeps misspellings similar.
        let ft = FastTextLike::new(300, 0.0); // raw content, no cone
        let a = ft.encode("panasonic");
        let b = ft.encode("panasonik");
        let c = ft.encode("xerox");
        assert!(
            a.cosine(&b) > a.cosine(&c) + 0.2,
            "typo {:.3} vs unrelated {:.3}",
            a.cosine(&b),
            c.cosine(&a)
        );
    }

    #[test]
    fn anisotropy_raises_all_similarities() {
        let flat = FastTextLike::new(300, 0.0);
        let cone = FastTextLike::default();
        let a_flat = flat.encode("samsung galaxy tab");
        let b_flat = flat.encode("publication database conference");
        let a_cone = cone.encode("samsung galaxy tab");
        let b_cone = cone.encode("publication database conference");
        let s_flat = a_flat.cosine(&b_flat);
        let s_cone = a_cone.cosine(&b_cone);
        assert!(
            s_cone > s_flat + 0.2,
            "cone must raise unrelated-pair similarity: {s_flat:.3} → {s_cone:.3}"
        );
        assert!(s_cone > 0.3, "paper: semantic sims are high for most pairs");
    }

    #[test]
    fn identical_texts_max_similarity() {
        let ft = FastTextLike::default();
        let a = ft.encode("dblp very large databases");
        assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_text_is_zero() {
        let ft = FastTextLike::default();
        assert!(ft.encode("").is_zero());
        assert!(ft.encode("   ").is_zero());
        assert!(ft.token_vectors("").is_empty());
    }

    #[test]
    fn token_order_does_not_matter_for_mean() {
        let ft = FastTextLike::default();
        let a = ft.encode("alpha beta gamma");
        let b = ft.encode("gamma alpha beta");
        assert!(a.cosine(&b) > 0.999, "bag-of-tokens mean is order-free");
    }
}
