//! NLP node features pinned bit for bit.
//!
//! Every trained parameter, verdict and cause downstream of a rule starts
//! from its text features: `node_features` (the rule-level embedding the GNN
//! reads) and Algorithm 1's pair features (DTW over word vectors and the
//! averaged phrase embeddings). A change to how a word vector is derived,
//! looked up or accumulated moves their last bits.
//!
//! This test checks three FNV-1a checksums against recorded values:
//!
//! - `node_features` of every rule of the end-to-end benchmark's corpus
//!   (1,093 rules, 65 of them voice, so both embedding spaces are covered);
//! - `EmbeddingSpace::word_vec` in both spaces, for every lexicon head word
//!   and for six frequent corpus words the lexicon does not know;
//! - `correlation::pair_features` over a fixed set of corpus pairs, half of
//!   them correlated.
//!
//! A deliberate change to feature arithmetic re-records the constants from
//! the failure messages, which print the fresh checksum.

use glint_core::{node_features, pair_features};
use glint_nlp::{lexicon, EmbeddingSpace, Lexicon};
use glint_rules::correlation::action_triggers;
use glint_rules::{CorpusConfig, CorpusGenerator, Rule};
use std::collections::BTreeSet;

/// Content words of the corpus's rendered text that are not lexicon
/// entries; they take the derivation path of `word_vec`.
const OUT_OF_LEXICON: [&str; 6] = ["notification", "pressed", "sets", "p.m", "a.m", "state"];

/// The end-to-end benchmark's corpus (`e2ebench::setup::corpus`).
fn corpus() -> Vec<Rule> {
    CorpusGenerator::generate_corpus(&CorpusConfig {
        scale: 0.003,
        per_platform_cap: 1000,
        seed: 0x6117,
    })
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_vec(&mut self, v: &[f32]) {
        self.eat(&(v.len() as u64).to_le_bytes());
        for x in v {
            self.eat(&x.to_bits().to_le_bytes());
        }
    }
}

fn check(what: &str, sum: u64, pinned: u64) {
    assert_eq!(
        sum, pinned,
        "{what} bits moved: fresh checksum {sum:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn node_features_hold_their_pinned_bits() {
    let rules = corpus();
    assert_eq!(rules.len(), 1093);
    let voice = rules.iter().filter(|r| r.platform.is_voice()).count();
    assert_eq!(voice, 65, "both embedding spaces are covered");
    let mut sum = Fnv::new();
    for r in &rules {
        let f = node_features(r);
        assert_eq!(f.len(), if r.platform.is_voice() { 512 } else { 300 });
        sum.eat(&r.id.0.to_le_bytes());
        sum.eat_vec(&f);
    }
    check("node_features", sum.0, 0x315e_7e09_5c4c_bca8);
}

#[test]
fn word_vectors_hold_their_pinned_bits() {
    let lex = Lexicon::global();
    let words: BTreeSet<&str> = lexicon::all_entries().iter().map(|e| e.word).collect();
    assert_eq!(words.len(), lex.len());
    for w in OUT_OF_LEXICON {
        assert!(!lex.contains(w), "{w} is a lexicon word");
    }
    let spaces = [
        EmbeddingSpace::word_space(),
        EmbeddingSpace::sentence_space(),
    ];
    let mut sum = Fnv::new();
    for space in spaces {
        for w in words.iter().copied().chain(OUT_OF_LEXICON) {
            let v = space.word_vec(w);
            assert_eq!(v.len(), space.dim());
            sum.eat(w.as_bytes());
            sum.eat_vec(&v);
        }
    }
    check("word_vec", sum.0, 0xfd22_59ca_8aa2_52c7);
}

#[test]
fn pair_features_hold_their_pinned_bits() {
    let rules = corpus();
    let n = rules.len();
    // one correlated pair for each of the first 150 rules that trigger
    // another (the scan for a partner starts at a rule-dependent offset),
    // then 150 strided pairs, mostly uncorrelated
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .filter_map(|i| {
            (0..n)
                .map(|k| (i * 31 + k) % n)
                .find(|&j| i != j && action_triggers(&rules[i], &rules[j]).is_some())
                .map(|j| (i, j))
        })
        .take(150)
        .collect();
    assert_eq!(pairs.len(), 150);
    pairs.extend((0..150).map(|k| ((k * 37 + 5) % n, (k * 101 + 17) % n)));
    let mut sum = Fnv::new();
    for &(i, j) in &pairs {
        sum.eat(&(i as u64).to_le_bytes());
        sum.eat(&(j as u64).to_le_bytes());
        sum.eat_vec(&pair_features(&rules[i], &rules[j]));
    }
    check("pair_features", sum.0, 0x7b3d_2502_f74c_f6c4);
}
