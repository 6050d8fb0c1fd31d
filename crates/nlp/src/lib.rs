//! # glint-nlp
//!
//! NLP substrate for the Glint reproduction — the stand-in for spaCy
//! (`en_core_web_lg`), the Universal Sentence Encoder, and WordNet that the
//! paper's Algorithm 1 relies on.
//!
//! The pipeline is lexicon-driven and fully deterministic:
//!
//! 1. [`token`] — tokenizer with multi-word-expression merging ("air
//!    conditioner" → one token) and unit-aware number handling (85°F);
//! 2. [`pos`] — part-of-speech tagging from the domain [`lexicon`] with
//!    suffix-rule fallback;
//! 3. [`parse`] — shallow dependency extraction: root verb, direct objects,
//!    trigger/action split on discourse markers (if/when/then);
//! 4. [`embed`] — 300-d word vectors and 512-d sentence vectors built from
//!    concept/category prototypes so semantically related rule texts are
//!    close in embedding space (the property the downstream GNN needs),
//!    looked up in a per-space table of the lexicon's words;
//! 5. [`wordnet`] — synonym/hypernym/meronym/holonym queries over the
//!    smart-home vocabulary (Algorithm 1 lines 5–6);
//! 6. [`dtw`] — dynamic time warping similarity over token-embedding
//!    sequences (Algorithm 1 line 4).

pub mod affinity;
pub mod dtw;
pub mod embed;
pub mod lexicon;
pub mod parse;
pub mod pos;
pub mod stopwords;
pub mod token;
pub mod wordnet;

pub use embed::EmbeddingSpace;
pub use lexicon::{Category, Lexicon, Pos};
pub use parse::{parse_rule, ParsedRule, PhraseElements};
pub use token::tokenize;

/// Dimension of word-level embeddings (spaCy `en_core_web_lg` stand-in).
pub const WORD_DIM: usize = 300;
/// Dimension of sentence-level embeddings (Universal Sentence Encoder stand-in).
pub const SENTENCE_DIM: usize = 512;
