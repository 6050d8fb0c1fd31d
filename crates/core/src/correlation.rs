//! Rule-correlation discovery (Algorithm 1 + §4.1).
//!
//! Features for an (action, trigger) phrase pair:
//! - **V1** — DTW similarity of the verb sequences and of the noun sequences
//!   (dynamic time warping over word embeddings, since phrase lengths vary);
//! - **V2** — binary semantic relations between the verb sets (synonymy,
//!   hypernymy);
//! - **V3** — binary semantic relations between the noun sets (synonymy,
//!   hypernymy, meronymy/holonymy);
//! - **V4** — the summed averaged word embeddings of the two phrases.
//!
//! Ground-truth pair labels come from the physical oracle in
//! `glint_rules::correlation`; the classifiers below must recover that
//! function from text alone — the paper's Figure 6 experiment.

use glint_ml::{forest::RandomForest, knn::Knn, mlp::MlpClassifier, Classifier};
use glint_nlp::parse::PhraseElements;
use glint_nlp::{affinity, dtw, parse_rule, wordnet, EmbeddingSpace};
use glint_rules::correlation::action_triggers;
use glint_rules::{render::render_rule, Rule};
use glint_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Dimension of the embedding part of the pair features (V4). The full
/// 300-d sum is projected by averaging into coarse buckets to keep classical
/// models tractable at corpus scale.
pub const V4_BUCKETS: usize = 60;

/// Compute Algorithm 1's feature vector for an (action, trigger) pair of
/// parsed phrases.
/// Number of scalar (non-bucket) features.
pub const N_SCALAR_FEATURES: usize = 21;

pub fn pair_features_from_phrases(action: &PhraseElements, trigger: &PhraseElements) -> Vec<f32> {
    let space = EmbeddingSpace::word_space();
    let mut v = Vec::with_capacity(N_SCALAR_FEATURES + 2 * V4_BUCKETS);
    // V1: DTW similarities (verbs, nouns, states)
    v.push(dtw::word_sequence_similarity(
        &space,
        &action.verbs,
        &trigger.verbs,
    ));
    v.push(dtw::word_sequence_similarity(
        &space,
        &action.nouns,
        &trigger.nouns,
    ));
    v.push(dtw::word_sequence_similarity(
        &space,
        &action.states,
        &trigger.states,
    ));
    // V2: verb relations (synonym, hypernym, antonym)
    v.push(any_pair(&action.verbs, &trigger.verbs, wordnet::are_synonyms) as u8 as f32);
    v.push(any_pair(&action.verbs, &trigger.verbs, wordnet::hypernym_related) as u8 as f32);
    v.push(any_pair(&action.verbs, &trigger.verbs, wordnet::are_antonyms) as u8 as f32);
    // V3: noun relations (synonym, hypernym, meronym/holonym)
    v.push(any_pair(&action.nouns, &trigger.nouns, wordnet::are_synonyms) as u8 as f32);
    v.push(any_pair(&action.nouns, &trigger.nouns, wordnet::hypernym_related) as u8 as f32);
    v.push(any_pair(&action.nouns, &trigger.nouns, wordnet::meronym_related) as u8 as f32);
    // state alignment: synonym vs antonym ("open" action vs "opens" trigger)
    let a_state_words: Vec<String> = action
        .states
        .iter()
        .chain(action.verbs.iter())
        .cloned()
        .collect();
    let t_state_words: Vec<String> = trigger
        .states
        .iter()
        .chain(trigger.verbs.iter())
        .cloned()
        .collect();
    v.push(any_pair(&a_state_words, &t_state_words, wordnet::are_synonyms) as u8 as f32);
    v.push(any_pair(&a_state_words, &t_state_words, wordnet::are_antonyms) as u8 as f32);
    // noun-concept Jaccard overlap
    v.push(concept_jaccard(&action.nouns, &trigger.nouns));
    // location overlap (same-room evidence)
    let a_locs = location_words(action);
    let t_locs = location_words(trigger);
    v.push(if a_locs.is_empty() || t_locs.is_empty() {
        0.5 // unscoped rules couple with anything
    } else {
        concept_jaccard(&a_locs, &t_locs)
    });
    // global embedding cosine
    let e_a = phrase_embedding(&space, action);
    let e_t = phrase_embedding(&space, trigger);
    v.push(glint_nlp::embed::cosine(&e_a, &e_t));
    // channel-affinity features: does any action device word push a channel
    // the trigger watches, and in a compatible direction?
    let polarity = affinity::action_polarity(&a_state_words);
    let direction = affinity::trigger_direction(&t_state_words);
    // a device-state trigger is also a trigger on the channel that device
    // senses ("the door is open" watches Contact), so fold sensed channels in
    let mut trigger_channels: Vec<String> = trigger
        .nouns
        .iter()
        .filter_map(|n| affinity::channel_concept(n))
        .collect();
    for n in &trigger.nouns {
        trigger_channels.extend(affinity::sensed_channels(n).into_iter().map(str::to_string));
    }
    let mut chan_match = 0.0f32;
    let mut signed_match = 0.0f32;
    for n in &action.nouns {
        for (c, sign) in affinity::signed_channels(n) {
            if trigger_channels.iter().any(|tc| tc == c) {
                chan_match = 1.0;
                let effective = sign as i32 * if polarity < 0 { -1 } else { 1 };
                if direction == 0 || sign == 0 || effective == direction as i32 {
                    signed_match = 1.0;
                }
            }
        }
    }
    v.push(chan_match);
    v.push(signed_match);
    v.push(polarity as f32);
    v.push(direction as f32);
    // state-polarity agreement between the action and a device-state trigger
    let t_polarity = affinity::action_polarity(&t_state_words);
    v.push(if polarity != 0 && t_polarity != 0 {
        (polarity == t_polarity) as u8 as f32
    } else {
        0.5
    });
    // direct device watch: the action drives the very device concept the
    // trigger observes, and (separately) with an agreeing state polarity —
    // the textual analogue of the oracle's Via::Device path
    let lex = glint_nlp::Lexicon::global();
    let device_concepts = |nouns: &[String]| -> Vec<String> {
        nouns
            .iter()
            .filter(|n| lex.category(n) == glint_nlp::Category::Device)
            .map(|n| lex.concept_of(n))
            .collect()
    };
    let a_devs = device_concepts(&action.nouns);
    let t_devs = device_concepts(&trigger.nouns);
    let device_watch = a_devs.iter().any(|d| t_devs.contains(d));
    v.push(device_watch as u8 as f32);
    v.push(if device_watch && polarity != 0 && t_polarity != 0 {
        (polarity == t_polarity) as u8 as f32
    } else {
        0.5
    });
    debug_assert_eq!(v.len(), N_SCALAR_FEATURES);
    // V4: summed averaged embeddings + element-wise alignment, bucket-averaged
    let dim = e_a.len();
    let bucket = dim.div_ceil(V4_BUCKETS);
    for b in 0..V4_BUCKETS {
        let lo = b * bucket;
        let hi = ((b + 1) * bucket).min(dim);
        if lo >= hi {
            v.push(0.0);
            continue;
        }
        let sum: f32 = (lo..hi).map(|i| e_a[i] + e_t[i]).sum();
        v.push(sum / (hi - lo) as f32);
    }
    for b in 0..V4_BUCKETS {
        let lo = b * bucket;
        let hi = ((b + 1) * bucket).min(dim);
        if lo >= hi {
            v.push(0.0);
            continue;
        }
        let prod: f32 = (lo..hi).map(|i| e_a[i] * e_t[i]).sum();
        v.push(prod * 10.0 / (hi - lo) as f32);
    }
    v
}

fn concept_jaccard(a: &[String], b: &[String]) -> f32 {
    use std::collections::BTreeSet;
    let lex = glint_nlp::Lexicon::global();
    let ca: BTreeSet<String> = a.iter().map(|w| lex.concept_of(w)).collect();
    let cb: BTreeSet<String> = b.iter().map(|w| lex.concept_of(w)).collect();
    if ca.is_empty() && cb.is_empty() {
        return 0.0;
    }
    let inter = ca.intersection(&cb).count() as f32;
    let union = ca.union(&cb).count() as f32;
    inter / union.max(1.0)
}

fn location_words(p: &PhraseElements) -> Vec<String> {
    let lex = glint_nlp::Lexicon::global();
    p.nouns
        .iter()
        .filter(|n| lex.category(n) == glint_nlp::Category::Location)
        .cloned()
        .collect()
}

fn phrase_embedding(space: &EmbeddingSpace, p: &PhraseElements) -> Vec<f32> {
    let mut words: Vec<&str> = Vec::new();
    words.extend(p.verbs.iter().map(String::as_str));
    words.extend(p.nouns.iter().map(String::as_str));
    words.extend(p.states.iter().map(String::as_str));
    if words.is_empty() {
        return vec![0.0; space.dim()];
    }
    let mut acc = vec![0.0f32; space.dim()];
    for w in &words {
        for (a, b) in acc.iter_mut().zip(space.word_vec(w).iter()) {
            *a += b;
        }
    }
    let inv = 1.0 / words.len() as f32;
    acc.iter_mut().for_each(|x| *x *= inv);
    acc
}

fn any_pair(a: &[String], b: &[String], rel: impl Fn(&str, &str) -> bool) -> bool {
    a.iter().any(|x| b.iter().any(|y| rel(x, y)))
}

/// Features for a pair of *rules* from their rendered text: rule A's action
/// phrase against rule B's trigger phrase.
pub fn pair_features(a: &Rule, b: &Rule) -> Vec<f32> {
    let pa = parse_rule(&render_rule(a));
    let pb = parse_rule(&render_rule(b));
    // voice rules have no trigger clause; their whole sentence is the action
    let trigger_of_b = if pb.trigger.is_empty() {
        pb.action.clone()
    } else {
        pb.trigger
    };
    pair_features_from_phrases(&pa.action, &trigger_of_b)
}

/// A labeled action→trigger pair dataset (the §4.1 protocol: positives have
/// a real correlation, negatives do not).
pub struct PairDataset {
    pub x: Matrix,
    pub y: Vec<usize>,
    /// (rule index a, rule index b) per row.
    pub pairs: Vec<(usize, usize)>,
}

impl PairDataset {
    /// Sample `n_pos` correlated and `n_neg` uncorrelated pairs from the
    /// corpus and extract their features from rendered text.
    pub fn build(rules: &[Rule], n_pos: usize, n_neg: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // index positives
        let mut positives = Vec::new();
        for (i, a) in rules.iter().enumerate() {
            for (j, b) in rules.iter().enumerate() {
                if i != j && action_triggers(a, b).is_some() {
                    positives.push((i, j));
                }
            }
        }
        positives.shuffle(&mut rng);
        positives.truncate(n_pos);
        // Negatives are stratified: about half must be *hard* — pairs whose
        // device/channel surfaces overlap but which the oracle rejects (wrong
        // direction, state, or room). Uniform sampling yields almost only
        // easy, unrelated pairs, and a classifier trained on those over-fires
        // on near-miss pairs at deployment time.
        let want_hard = n_neg / 3;
        let mut hard = Vec::new();
        let mut easy = Vec::new();
        let mut guard = 0;
        while (hard.len() < want_hard || easy.len() < n_neg - want_hard) && guard < n_neg * 80 {
            guard += 1;
            let i = rng.gen_range(0..rules.len());
            let j = rng.gen_range(0..rules.len());
            if i == j || action_triggers(&rules[i], &rules[j]).is_some() {
                continue;
            }
            if glint_rules::correlation::shares_surface(&rules[i], &rules[j]) {
                hard.push((i, j));
            } else {
                easy.push((i, j));
            }
        }
        hard.truncate(want_hard);
        easy.truncate(n_neg - hard.len());
        let mut negatives = hard;
        negatives.append(&mut easy);
        let mut pairs: Vec<((usize, usize), usize)> = positives
            .into_iter()
            .map(|p| (p, 1usize))
            .chain(negatives.into_iter().map(|p| (p, 0usize)))
            .collect();
        pairs.shuffle(&mut rng);
        let rows: Vec<Vec<f32>> = pairs
            .iter()
            .map(|((i, j), _)| pair_features(&rules[*i], &rules[*j]))
            .collect();
        Self {
            x: Matrix::from_rows(&rows),
            y: pairs.iter().map(|(_, l)| *l).collect(),
            pairs: pairs.into_iter().map(|(p, _)| p).collect(),
        }
    }
}

/// The deployed correlation-discovery ensemble: MLP + Random Forest + kNN
/// majority vote (the paper picks these three by precision/recall/F1 and
/// falls back to manual review on disagreement — here, to the forest).
pub struct CorrelationDiscoverer {
    mlp: MlpClassifier,
    forest: RandomForest,
    knn: Knn,
    /// Per-column (mean, std) fitted on the training features. The binary
    /// scalar features and the small-magnitude embedding buckets live on very
    /// different scales; without standardization the distance-based kNN (and
    /// to a lesser degree the MLP) is dominated by whichever block happens to
    /// have the larger raw variance.
    scaler: Vec<(f32, f32)>,
    fitted: bool,
}

impl CorrelationDiscoverer {
    pub fn new(seed: u64) -> Self {
        Self {
            mlp: MlpClassifier::new(vec![64])
                .with_epochs(120)
                .with_seed(seed),
            forest: RandomForest::new(40).with_seed(seed),
            knn: Knn::new(5),
            scaler: Vec::new(),
            fitted: false,
        }
    }

    fn standardize(&self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        for i in 0..out.rows() {
            for (j, &(mean, std)) in self.scaler.iter().enumerate() {
                let v = out.get(i, j);
                out.set(i, j, (v - mean) / std);
            }
        }
        out
    }

    /// The z-scored scalar block (V1–V3 + affinity features) — the view the
    /// distance-based kNN votes on. Euclidean distance over the full vector
    /// is dominated by the 120 embedding buckets, which individually carry
    /// far less signal than the scalar similarities.
    fn knn_view(&self, z: &Matrix) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..z.rows())
            .map(|i| z.row(i)[..N_SCALAR_FEATURES].to_vec())
            .collect();
        Matrix::from_rows(&rows)
    }

    pub fn fit(&mut self, data: &PairDataset) {
        let (n, d) = (data.x.rows(), data.x.cols());
        self.scaler = (0..d)
            .map(|j| {
                let mean = (0..n).map(|i| data.x.get(i, j)).sum::<f32>() / n.max(1) as f32;
                let var = (0..n)
                    .map(|i| (data.x.get(i, j) - mean).powi(2))
                    .sum::<f32>()
                    / n.max(1) as f32;
                (mean, var.sqrt().max(1e-6))
            })
            .collect();
        let z = self.standardize(&data.x);
        self.mlp.fit(&z, &data.y);
        // trees are scale-invariant; give the forest the raw features
        self.forest.fit(&data.x, &data.y);
        self.knn.fit(&self.knn_view(&z), &data.y);
        self.fitted = true;
    }

    /// Ensemble vote per row: two-of-three majority across MLP, forest, and
    /// kNN. (The paper routes disagreements to manual review; with binary
    /// labels and three voters a majority always exists, so the vote is the
    /// automated analogue.)
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        assert!(self.fitted, "fit before predict");
        let z = self.standardize(x);
        let a = self.mlp.predict(&z);
        let b = self.forest.predict(x);
        let c = self.knn.predict(&self.knn_view(&z));
        (0..x.rows())
            .map(|i| usize::from(a[i] + b[i] + c[i] >= 2))
            .collect()
    }

    /// Predict whether rule `a`'s action invokes rule `b`'s trigger.
    pub fn predict_pair(&self, a: &Rule, b: &Rule) -> bool {
        let x = Matrix::from_rows(&[pair_features(a, b)]);
        self.predict(&x)[0] == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_ml::metrics::BinaryMetrics;
    use glint_rules::scenarios::table1_rules;
    use glint_rules::{CorpusConfig, CorpusGenerator};

    #[test]
    fn feature_vector_dimension_is_stable() {
        let rules = table1_rules();
        let f = pair_features(&rules[0], &rules[8]);
        assert_eq!(f.len(), N_SCALAR_FEATURES + 2 * V4_BUCKETS);
        // deterministic
        assert_eq!(f, pair_features(&rules[0], &rules[8]));
    }

    #[test]
    fn correlated_pair_scores_higher_dtw_than_uncorrelated() {
        let rules = table1_rules();
        // rule 1 (turn off lights) → rule 9 (trigger: lights off) correlated
        let f_pos = pair_features(&rules[0], &rules[8]);
        // rule 9 (lock door) → rule 7 (trigger: motion) uncorrelated
        let f_neg = pair_features(&rules[8], &rules[6]);
        // noun DTW similarity (feature 1) must be higher for the real pair
        assert!(f_pos[1] > f_neg[1], "pos={} neg={}", f_pos[1], f_neg[1]);
    }

    #[test]
    fn pair_dataset_builds_balanced_samples() {
        let cfg = CorpusConfig {
            scale: 0.0003,
            per_platform_cap: 120,
            seed: 9,
        };
        let rules = CorpusGenerator::generate_corpus(&cfg);
        let ds = PairDataset::build(&rules, 60, 80, 1);
        let pos = ds.y.iter().filter(|&&l| l == 1).count();
        let neg = ds.y.len() - pos;
        assert!(pos >= 40, "positives {pos}");
        assert_eq!(neg, 80);
        assert_eq!(ds.x.rows(), ds.y.len());
    }

    #[test]
    fn discoverer_learns_correlations_from_text() {
        let cfg = CorpusConfig {
            scale: 0.001,
            per_platform_cap: 350,
            seed: 10,
        };
        let rules = CorpusGenerator::generate_corpus(&cfg);
        let train = PairDataset::build(&rules, 300, 420, 2);
        let test = PairDataset::build(&rules, 60, 90, 3);
        let mut disc = CorrelationDiscoverer::new(0);
        disc.fit(&train);
        let pred = disc.predict(&test.x);
        let m = BinaryMetrics::from_predictions(&test.y, &pred);
        assert!(m.accuracy > 0.82, "correlation discovery too weak: {m}");
    }
}
