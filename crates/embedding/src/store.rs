//! Embedding lookup store with averaging, OOV handling, and text I/O.
//!
//! Mirrors how LEAPME consumes GloVe vectors (paper §IV-D): per-word
//! lookup, unknown words mapped to the all-zeros vector, and the average
//! embedding of a token sequence as the representation of a property name
//! or instance value.

use crate::tokenize::tokenize;
use crate::EmbeddingError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::Mutex;

/// A word → vector lookup table of fixed dimensionality.
#[derive(Debug, Serialize, Deserialize)]
pub struct EmbeddingStore {
    dim: usize,
    vectors: HashMap<String, Vec<f32>>,
    /// When set, unknown words fall back to the vector of the closest
    /// in-vocabulary word within a small edit distance (see
    /// [`EmbeddingStore::set_fuzzy_oov`]).
    #[serde(default)]
    fuzzy_oov: bool,
    /// Memoized fuzzy lookups (OOV word → matched vocab word, if any).
    #[serde(skip)]
    fuzzy_cache: Mutex<HashMap<String, Option<String>>>,
}

impl Clone for EmbeddingStore {
    fn clone(&self) -> Self {
        EmbeddingStore {
            dim: self.dim,
            vectors: self.vectors.clone(),
            fuzzy_oov: self.fuzzy_oov,
            fuzzy_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl EmbeddingStore {
    /// An empty store of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        EmbeddingStore {
            dim,
            vectors: HashMap::new(),
            fuzzy_oov: false,
            fuzzy_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Enable/disable fuzzy out-of-vocabulary fallback.
    ///
    /// The paper maps unknown words to the zero vector, which works
    /// because its pre-trained vocabulary (1.9 M Common Crawl words)
    /// already contains most typos and truncations. A vocabulary trained
    /// on a small domain corpus does not, so noisy tokens would lose all
    /// semantics. With fuzzy fallback on, an unknown word of ≥ 4
    /// characters borrows the vector of the closest known word within
    /// edit distance 1 (length 4–6) or 2 (length ≥ 7); anything farther
    /// stays zero. This restores the *effective* OOV behaviour of the
    /// paper's setup (DESIGN.md §2).
    pub fn set_fuzzy_oov(&mut self, enabled: bool) {
        self.fuzzy_oov = enabled;
        self.fuzzy_cache.lock().expect("no poisoning").clear();
    }

    /// Whether fuzzy OOV fallback is enabled.
    pub fn fuzzy_oov(&self) -> bool {
        self.fuzzy_oov
    }

    /// Resolve a token to a vector, applying the fuzzy OOV policy.
    fn resolve(&self, word: &str) -> Option<&[f32]> {
        // Fault hook: treat this token as out-of-vocabulary, exercising
        // the zero-vector OOV degradation path.
        #[cfg(feature = "faults")]
        if leapme_faults::fires(leapme_faults::sites::EMBEDDING_LOOKUP)
            == Some(leapme_faults::FaultKind::MissingEmbedding)
        {
            return None;
        }
        if let Some(v) = self.vectors.get(word) {
            return Some(v.as_slice());
        }
        if !self.fuzzy_oov {
            return None;
        }
        let len = word.chars().count();
        if len < 4 || !word.chars().all(char::is_alphabetic) {
            return None;
        }
        let mut cache = self.fuzzy_cache.lock().expect("no poisoning");
        // Check with a borrowed key first: `entry` would allocate an
        // owned `String` on every call, including steady-state cache
        // hits, which is exactly the path the zero-allocation featurize
        // loop runs hot.
        if let Some(matched) = cache.get(word) {
            return matched
                .as_deref()
                .and_then(|w| self.vectors.get(w).map(Vec::as_slice));
        }
        let max_dist = if len <= 6 { 1 } else { 2 };
        let mut best: Option<(usize, &String)> = None;
        for candidate in self.vectors.keys() {
            let clen = candidate.chars().count();
            if clen.abs_diff(len) > max_dist || clen < 4 {
                continue;
            }
            let d = leapme_textsim::levenshtein::distance(word, candidate);
            if d <= max_dist && best.map(|(bd, bw)| (d, candidate) < (bd, bw)).unwrap_or(true) {
                best = Some((d, candidate));
            }
        }
        let matched = best.map(|(_, w)| w.clone());
        let resolved = matched
            .as_deref()
            .and_then(|w| self.vectors.get(w).map(Vec::as_slice));
        cache.insert(word.to_string(), matched);
        resolved
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored words.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the store holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Insert (or replace) a word vector.
    ///
    /// Errors if the vector length does not match the store dimension.
    pub fn insert(&mut self, word: &str, vector: Vec<f32>) -> Result<(), EmbeddingError> {
        if vector.len() != self.dim {
            return Err(EmbeddingError::InvalidConfig(format!(
                "vector for {word:?} has length {}, store dimension is {}",
                vector.len(),
                self.dim
            )));
        }
        self.vectors.insert(word.to_string(), vector);
        Ok(())
    }

    /// The vector for `word`, if known.
    pub fn get(&self, word: &str) -> Option<&[f32]> {
        self.vectors.get(word).map(Vec::as_slice)
    }

    /// The vector for `word`, or the zero vector for unknown words —
    /// the paper's OOV policy.
    pub fn get_or_zero(&self, word: &str) -> Vec<f32> {
        self.get(word)
            .map(<[f32]>::to_vec)
            .unwrap_or_else(|| vec![0.0; self.dim])
    }

    /// Average of the embeddings of `tokens` (unknown tokens contribute
    /// zero vectors but still count in the denominator, matching the
    /// paper's "average embeddings of the individual words").
    ///
    /// An empty token list yields the zero vector.
    pub fn average(&self, tokens: &[String]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        if tokens.is_empty() {
            return acc;
        }
        for t in tokens {
            if let Some(v) = self.resolve(t) {
                crate::kernels::add_assign(&mut acc, v);
            }
        }
        crate::kernels::div_assign(&mut acc, tokens.len() as f32);
        acc
    }

    /// Tokenize `text` with the crate tokenizer and average the embeddings.
    ///
    /// This is the allocating reference path; the hot loops use
    /// [`EmbeddingStore::average_text_into`], which is bitwise identical.
    pub fn average_text(&self, text: &str) -> Vec<f32> {
        self.average(&tokenize(text))
    }

    /// Zero-allocation counterpart of [`EmbeddingStore::average_text`]:
    /// stream tokens through [`crate::tokenize::for_each_token`] and
    /// accumulate directly into `out` (length must equal the store
    /// dimension). Same token order, same sum-then-divide arithmetic —
    /// bitwise identical to the reference path.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn average_text_into(&self, text: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output length != embedding dim");
        out.fill(0.0);
        let mut n = 0usize;
        crate::tokenize::for_each_token(text, |t| {
            n += 1;
            if let Some(v) = self.resolve(t) {
                crate::kernels::add_assign(out, v);
            }
        });
        if n > 0 {
            crate::kernels::div_assign(out, n as f32);
        }
    }

    /// Iterate over every stored `(word, vector)` entry in the map's
    /// (arbitrary) iteration order. Used by the feature-cache
    /// fingerprint, which combines per-entry hashes order-independently.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f32])> {
        self.vectors
            .iter()
            .map(|(w, v)| (w.as_str(), v.as_slice()))
    }

    /// Cosine similarity between the vectors of two words, if both known.
    pub fn cosine_similarity(&self, a: &str, b: &str) -> Option<f64> {
        let va = self.get(a)?;
        let vb = self.get(b)?;
        Some(cosine(va, vb))
    }

    /// The `k` nearest words to `word` by cosine similarity (excluding the
    /// word itself), sorted descending. Returns an empty vec for unknown
    /// words.
    pub fn nearest(&self, word: &str, k: usize) -> Vec<(String, f64)> {
        let Some(target) = self.get(word) else {
            return Vec::new();
        };
        let mut sims: Vec<(String, f64)> = self
            .vectors
            .iter()
            .filter(|(w, _)| w.as_str() != word)
            .map(|(w, v)| (w.clone(), cosine(target, v)))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(k);
        sims
    }

    /// Write in the standard GloVe text format: `word v1 v2 … vD` per line.
    ///
    /// The file goes through [`leapme_data::io::atomic_write`]
    /// (temp sibling, fsync, rename, directory fsync), so an interrupted
    /// save leaves either the previous file or the new one — never a
    /// torn vector table (DESIGN.md §9).
    pub fn save_text(&self, path: &Path) -> Result<(), EmbeddingError> {
        use std::fmt::Write as _;
        let mut text = String::new();
        let mut words: Vec<&String> = self.vectors.keys().collect();
        words.sort();
        for word in words {
            let _ = write!(text, "{word}");
            for v in &self.vectors[word] {
                let _ = write!(text, " {v}");
            }
            text.push('\n');
        }
        leapme_data::io::atomic_write(path, text.as_bytes())?;
        Ok(())
    }

    /// Load from the standard GloVe text format. The dimension is inferred
    /// from the first line; inconsistent lines are an error.
    pub fn load_text(path: &Path) -> Result<Self, EmbeddingError> {
        let file = std::fs::File::open(path)?;
        let reader = BufReader::new(file);
        let mut store: Option<EmbeddingStore> = None;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let word = parts.next().ok_or_else(|| EmbeddingError::ParseError {
                line: lineno + 1,
                message: "empty line with whitespace".into(),
            })?;
            let vec: Result<Vec<f32>, _> = parts.map(str::parse::<f32>).collect();
            let vec = vec.map_err(|e| EmbeddingError::ParseError {
                line: lineno + 1,
                message: format!("bad float: {e}"),
            })?;
            if vec.is_empty() {
                return Err(EmbeddingError::ParseError {
                    line: lineno + 1,
                    message: format!("no vector components for word {word:?}"),
                });
            }
            let s = store.get_or_insert_with(|| EmbeddingStore::new(vec.len()));
            if vec.len() != s.dim {
                return Err(EmbeddingError::ParseError {
                    line: lineno + 1,
                    message: format!("dimension {} != expected {}", vec.len(), s.dim),
                });
            }
            s.vectors.insert(word.to_string(), vec);
        }
        store.ok_or(EmbeddingError::EmptyVocabulary)
    }
}

/// Cosine similarity of two equal-length vectors, `0.0` if either is zero.
///
/// Delegates to the shared kernel module so blocking, the semantic
/// baselines and the store all use the same deterministic reduction.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::cosine(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(3);
        s.insert("camera", vec![1.0, 0.0, 0.0]).unwrap();
        s.insert("photo", vec![0.9, 0.1, 0.0]).unwrap();
        s.insert("battery", vec![0.0, 0.0, 1.0]).unwrap();
        s
    }

    #[test]
    fn insert_and_get() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("camera"), Some([1.0, 0.0, 0.0].as_slice()));
        assert_eq!(s.get("unknown"), None);
        assert_eq!(s.get_or_zero("unknown"), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn insert_rejects_wrong_dim() {
        let mut s = sample();
        assert!(s.insert("bad", vec![1.0]).is_err());
    }

    #[test]
    fn average_includes_oov_in_denominator() {
        let s = sample();
        let tokens = vec!["camera".to_string(), "zzz".to_string()];
        let avg = s.average(&tokens);
        assert_eq!(avg, vec![0.5, 0.0, 0.0]);
    }

    #[test]
    fn average_empty_is_zero() {
        let s = sample();
        assert_eq!(s.average(&[]), vec![0.0; 3]);
        assert_eq!(s.average_text("!!!"), vec![0.0; 3]);
    }

    #[test]
    fn average_text_tokenizes() {
        let s = sample();
        let avg = s.average_text("Camera photo");
        assert!((avg[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn cosine_properties() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_and_nearest() {
        let s = sample();
        let sim = s.cosine_similarity("camera", "photo").unwrap();
        assert!(sim > 0.99 && sim < 1.0);
        assert!(s.cosine_similarity("camera", "zzz").is_none());
        let nn = s.nearest("camera", 1);
        assert_eq!(nn[0].0, "photo");
        assert!(s.nearest("zzz", 3).is_empty());
    }

    #[test]
    fn text_io_round_trip() {
        let s = sample();
        let dir = std::env::temp_dir().join("leapme_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vectors.txt");
        s.save_text(&path).unwrap();
        let back = EmbeddingStore::load_text(&path).unwrap();
        assert_eq!(back.dim(), 3);
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("camera"), s.get("camera"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_ragged_file() {
        let dir = std::env::temp_dir().join("leapme_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.txt");
        std::fs::write(&path, "a 1.0 2.0\nb 1.0\n").unwrap();
        let err = EmbeddingStore::load_text(&path).unwrap_err();
        assert!(matches!(err, EmbeddingError::ParseError { line: 2, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_bad_float() {
        let dir = std::env::temp_dir().join("leapme_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("badfloat.txt");
        std::fs::write(&path, "a 1.0 oops\n").unwrap();
        assert!(EmbeddingStore::load_text(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_empty_file() {
        let dir = std::env::temp_dir().join("leapme_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.txt");
        std::fs::write(&path, "\n\n").unwrap();
        assert!(matches!(
            EmbeddingStore::load_text(&path),
            Err(EmbeddingError::EmptyVocabulary)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        EmbeddingStore::new(0);
    }

    fn fuzzy_store() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(2);
        s.insert("resolution", vec![1.0, 0.0]).unwrap();
        s.insert("battery", vec![0.0, 1.0]).unwrap();
        s.insert("mp", vec![0.5, 0.5]).unwrap();
        s.set_fuzzy_oov(true);
        s
    }

    #[test]
    fn fuzzy_oov_recovers_typos() {
        let s = fuzzy_store();
        // One transposition in a long word → resolves to "resolution".
        let avg = s.average(&["resoluiton".to_string()]);
        assert_eq!(avg, vec![1.0, 0.0]);
        // One dropped char.
        let avg = s.average(&["batery".to_string()]);
        assert_eq!(avg, vec![0.0, 1.0]);
    }

    #[test]
    fn fuzzy_oov_respects_distance_limits() {
        let s = fuzzy_store();
        // Entirely different word → still zero.
        assert_eq!(s.average(&["telephoto".to_string()]), vec![0.0, 0.0]);
        // Short words never fuzz ("mp" stays exact-only).
        assert_eq!(s.average(&["mq".to_string()]), vec![0.0, 0.0]);
        // Non-alphabetic tokens never fuzz.
        assert_eq!(s.average(&["r3solution".to_string()]), vec![0.0, 0.0]);
    }

    #[test]
    fn fuzzy_oov_off_by_default() {
        let mut s = fuzzy_store();
        s.set_fuzzy_oov(false);
        assert!(!s.fuzzy_oov());
        assert_eq!(s.average(&["resoluiton".to_string()]), vec![0.0, 0.0]);
        // Default construction is off.
        assert!(!EmbeddingStore::new(2).fuzzy_oov());
    }

    #[test]
    fn fuzzy_cache_survives_clone_semantics() {
        let s = fuzzy_store();
        let a = s.average(&["resoluiton".to_string()]);
        let s2 = s.clone();
        let b = s2.average(&["resoluiton".to_string()]);
        assert_eq!(a, b);
    }

    #[test]
    fn exact_get_never_fuzzes() {
        let s = fuzzy_store();
        assert!(s.get("resoluiton").is_none());
    }

    #[test]
    fn average_text_into_matches_reference_bitwise() {
        for store in [sample(), fuzzy_store()] {
            for text in [
                "",
                "Camera photo",
                "camera zzz unknownWord",
                "resoluiton batery",
                "20.1 MP résolution café",
                "!!! ---",
            ] {
                let reference = store.average_text(text);
                let mut fused = vec![7.0f32; store.dim()];
                store.average_text_into(text, &mut fused);
                assert_eq!(
                    fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "store dim {} text {text:?}",
                    store.dim()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "output length != embedding dim")]
    fn average_text_into_rejects_wrong_length() {
        let mut out = [0.0f32; 2];
        sample().average_text_into("camera", &mut out);
    }

    #[test]
    fn iter_visits_every_entry() {
        let s = sample();
        let mut words: Vec<&str> = s.iter().map(|(w, _)| w).collect();
        words.sort_unstable();
        assert_eq!(words, vec!["battery", "camera", "photo"]);
        for (_, v) in s.iter() {
            assert_eq!(v.len(), s.dim());
        }
    }
}
