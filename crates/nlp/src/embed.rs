//! Deterministic semantic embeddings.
//!
//! Stand-in for spaCy's `en_core_web_lg` word vectors (300-d) and the
//! Universal Sentence Encoder (512-d). Each word vector is a convex blend of
//! four unit-norm prototype vectors, each drawn from an RNG seeded by a
//! stable FNV-1a hash:
//!
//! `v(word) = 0.42·concept ⊕ 0.28·family ⊕ 0.20·category ⊕ 0.10·word-noise`
//! (renormalized)
//!
//! so synonyms are nearly identical, same-category words are close, and
//! unrelated words are near-orthogonal — exactly the geometry the paper's
//! similarity features and GNN node features rely on. The 512-d sentence
//! space uses an independent hash salt, so the two platforms' feature spaces
//! are genuinely heterogeneous (a requirement of the metapath projection
//! stage of ITGNN).
//!
//! Like spaCy's vectors, each space is a lookup table: the vectors of the
//! lexicon's words are derived once per process, on first use, and borrowed
//! from then on. Only words outside the lexicon are derived per call.

use crate::lexicon::{Category, Lexicon};
use crate::token::Token;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// An embedding space of a fixed dimension and hash salt.
#[derive(Clone, Copy, Debug)]
pub struct EmbeddingSpace {
    dim: usize,
    salt: u64,
    /// The space's vector table, filled on first use.
    table: &'static OnceLock<Table>,
}

/// Vectors that depend only on the space and a word, derived once per
/// process: every lexicon head word and the `"number"` prototype.
#[derive(Debug)]
struct Table {
    words: BTreeMap<&'static str, Vec<f32>>,
    number: Vec<f32>,
}

impl EmbeddingSpace {
    /// The 300-d word space (spaCy stand-in).
    pub fn word_space() -> Self {
        static TABLE: OnceLock<Table> = OnceLock::new();
        Self {
            dim: crate::WORD_DIM,
            salt: 0x5ac1_77e5,
            table: &TABLE,
        }
    }

    /// The 512-d sentence space (Universal Sentence Encoder stand-in).
    pub fn sentence_space() -> Self {
        static TABLE: OnceLock<Table> = OnceLock::new();
        Self {
            dim: crate::SENTENCE_DIM,
            salt: 0x05e4_7e4c_0de5_u64,
            table: &TABLE,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    fn table(&self) -> &'static Table {
        self.table.get_or_init(|| Table {
            words: crate::lexicon::all_entries()
                .iter()
                .map(|e| (e.word, self.derive_word_vec(e.word)))
                .collect(),
            number: self.unit_vec("number", 4),
        })
    }

    fn unit_vec(&self, key: &str, kind: u64) -> Vec<f32> {
        let seed = fnv1a(key)
            ^ self.salt.rotate_left(kind as u32 * 7 + 1)
            ^ kind.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        v
    }

    /// Word vector (unit norm): a row of the space's table for a lexicon
    /// word, derived on the spot for any other word.
    pub fn word_vec(&self, word: &str) -> Cow<'static, [f32]> {
        match self.table().words.get(word) {
            Some(v) => Cow::Borrowed(v),
            None => Cow::Owned(self.derive_word_vec(word)),
        }
    }

    /// Blends concept, concept *family* (so the verb "open", the state
    /// "open", and the event "opens" share geometry), category prototype,
    /// and word-specific noise.
    fn derive_word_vec(&self, word: &str) -> Vec<f32> {
        let lex = Lexicon::global();
        let concept = lex.concept_of(word);
        let category = lex.category(word);
        let family = concept_family(&concept);
        let c_vec = self.unit_vec(&concept, 1);
        let f_vec = self.unit_vec(family, 6);
        let cat_vec = self.unit_vec(category_key(category), 2);
        let w_vec = self.unit_vec(word, 3);
        let mut v: Vec<f32> = c_vec
            .iter()
            .zip(&f_vec)
            .zip(&cat_vec)
            .zip(&w_vec)
            .map(|(((c, f), k), w)| 0.42 * c + 0.28 * f + 0.20 * k + 0.10 * w)
            .collect();
        normalize(&mut v);
        v
    }

    /// Rule-level embedding (the paper's node feature): category-weighted
    /// average of word vectors. Devices, channels, and state words carry
    /// the discriminative signal for interaction analysis, so they are
    /// up-weighted relative to glue — the standard tf-idf-flavoured
    /// weighting a real embedding pipeline applies to domain text. Numeric
    /// tokens contribute a magnitude-modulated "number" prototype at weight
    /// 1 so thresholds are reflected in the embedding.
    pub fn rule_embedding(&self, tokens: &[Token]) -> Vec<f32> {
        let lex = Lexicon::global();
        let table = self.table();
        let mut acc = vec![0.0f32; self.dim];
        let mut total_w = 0.0f32;
        for t in tokens {
            // a word's vector enters at scale 1, and `x * 1.0 == x` exactly,
            // so both kinds of token share one accumulation
            let (v, scale, w) = match t.value {
                Some(x) => {
                    let scale = (x.abs() + 1.0).ln() / 5.0;
                    (Cow::Borrowed(table.number.as_slice()), scale, 1.0)
                }
                None if crate::stopwords::is_stopword(&t.word) => continue,
                None => {
                    let w = match lex.category(&t.word) {
                        Category::Device | Category::Channel => 2.5,
                        Category::State => 2.0,
                        Category::Action | Category::Event => 1.5,
                        Category::Location => 1.5,
                        Category::Time | Category::Value => 1.0,
                        Category::Agent => 0.5,
                        Category::Misc => 0.3,
                    };
                    (self.word_vec(&t.word), 1.0, w)
                }
            };
            for (a, b) in acc.iter_mut().zip(v.iter()) {
                *a += b * scale * w;
            }
            total_w += w;
        }
        if total_w > 0.0 {
            let inv = 1.0 / total_w;
            for a in &mut acc {
                *a *= inv;
            }
        }
        acc
    }
}

/// Map a concept to its semantic *family* — verb/state/event senses of one
/// real-world notion collapse onto one family vector. Defaults to the
/// concept itself.
fn concept_family(concept: &str) -> &str {
    match concept {
        "v_open" | "v_open_ev" | "st_open" | "window" | "garage_door" => "fam_open",
        "v_close" | "v_close_ev" | "st_closed" | "blinds" => "fam_close",
        "v_lock" | "st_locked" | "lock_dev" => "fam_lock",
        "v_unlock" | "st_unlocked" => "fam_unlock",
        "v_turn" | "st_on" | "switch" | "plug" => "fam_on",
        "v_turn_off" | "st_off" => "fam_off",
        "v_detect" | "st_detected" | "motion" | "motion_sensor" => "fam_detect",
        "v_beep" | "st_beeping" | "alarm" | "smoke_alarm" | "doorbell" => "fam_alarm",
        "v_heat" | "heater" | "temperature" | "thermostat" | "st_high" | "v_rise" => "fam_heat",
        "v_cool" | "ac" | "st_low" | "v_drop" => "fam_cool",
        "humidity" | "humidifier" | "dehumidifier" => "fam_humidity",
        "v_play" | "sound" | "speaker" | "tv" => "fam_media",
        "v_dim" | "v_brighten" | "light" | "illuminance" => "fam_light",
        "v_arm" | "st_armed" | "v_disarm" | "st_disarmed" | "home_mode" | "st_home" | "st_away" => {
            "fam_mode"
        }
        "presence" | "presence_sensor" | "st_occupied" | "v_arrive" | "v_leave" => "fam_presence",
        "smoke" => "fam_alarm",
        "contact" | "contact_sensor" | "door" => "fam_door",
        "leak" | "leak_sensor" | "valve" | "sprinkler" | "v_water" => "fam_water",
        other => other,
    }
}

fn category_key(c: Category) -> &'static str {
    match c {
        Category::Device => "cat_device",
        Category::Channel => "cat_channel",
        Category::State => "cat_state",
        Category::Action => "cat_action",
        Category::Event => "cat_event",
        Category::Location => "cat_location",
        Category::Time => "cat_time",
        Category::Value => "cat_value",
        Category::Agent => "cat_agent",
        Category::Misc => "cat_misc",
    }
}

fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

/// FNV-1a 64-bit hash (stable across runs and platforms).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        // rounding can push |dot| a few ulps past ‖a‖‖b‖ (e.g. a == b)
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    #[test]
    fn deterministic() {
        let s = EmbeddingSpace::word_space();
        assert_eq!(s.word_vec("light"), s.word_vec("light"));
    }

    #[test]
    fn synonyms_are_very_close() {
        let s = EmbeddingSpace::word_space();
        let sim = cosine(&s.word_vec("lamp"), &s.word_vec("bulb"));
        assert!(sim > 0.9, "lamp~bulb cosine {sim}");
    }

    #[test]
    fn same_category_closer_than_cross_category() {
        let s = EmbeddingSpace::word_space();
        let dev_dev = cosine(&s.word_vec("window"), &s.word_vec("door"));
        let dev_time = cosine(&s.word_vec("window"), &s.word_vec("sunset"));
        assert!(dev_dev > dev_time, "dev_dev={dev_dev} dev_time={dev_time}");
        assert!(dev_time < 0.35, "cross-category too similar: {dev_time}");
    }

    #[test]
    fn word_and_sentence_spaces_differ() {
        let w = EmbeddingSpace::word_space();
        let s = EmbeddingSpace::sentence_space();
        assert_eq!(w.dim(), 300);
        assert_eq!(s.dim(), 512);
        // same word maps to unrelated directions in the two spaces
        let vw = w.word_vec("light");
        let vs = s.word_vec("light");
        assert_ne!(vw.len(), vs.len());
    }

    #[test]
    fn related_rules_embed_close() {
        let s = EmbeddingSpace::word_space();
        let a = s.rule_embedding(&tokenize("If smoke is detected, open the window"));
        let b = s.rule_embedding(&tokenize("Open the windows when the smoke alarm beeps"));
        let c = s.rule_embedding(&tokenize("Play music in the living room at 3 pm"));
        assert!(
            cosine(&a, &b) > cosine(&a, &c),
            "related rule texts must be closer"
        );
    }

    #[test]
    fn numeric_tokens_modulate_embedding() {
        let s = EmbeddingSpace::word_space();
        let lo = s.rule_embedding(&tokenize("temperature above 30 degrees"));
        let hi = s.rule_embedding(&tokenize("temperature above 100 degrees"));
        assert!(lo != hi, "different thresholds must embed differently");
        let unrelated = s.rule_embedding(&tokenize("play music loudly"));
        assert!(cosine(&lo, &hi) > cosine(&lo, &unrelated));
    }

    #[test]
    fn cosine_bounds() {
        let s = EmbeddingSpace::word_space();
        for (a, b) in [("light", "light"), ("light", "door"), ("light", "sunset")] {
            let c = cosine(&s.word_vec(a), &s.word_vec(b));
            assert!((-1.0..=1.0).contains(&c));
        }
        assert!((cosine(&s.word_vec("light"), &s.word_vec("light")) - 1.0).abs() < 1e-5);
    }
}
