//! HAWatcher baseline (Fu et al., USENIX Sec '21): mine binary event
//! correlations from training logs, then flag runtime inconsistencies.
//!
//! Faithful to the comparison protocol of §4.8.1: HAWatcher only covers
//! *binary* short-window correlations; for the threat types it cannot
//! express (goal conflict, action revert, condition bypass — the
//! complex-correlation cases), the paper has it answer by a Bernoulli(0.5)
//! coin, which we reproduce.

use glint_rules::event::{EventKind, EventLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A mined binary correlation: antecedent event key → consequent event key
/// expected within `window` seconds, with observed confidence.
#[derive(Clone, Debug)]
pub struct Correlation {
    pub antecedent: String,
    pub consequent: String,
    pub confidence: f64,
    pub support: usize,
}

/// Discretized key of an event (device+state or channel event).
fn event_key(kind: &EventKind) -> Option<String> {
    match kind {
        EventKind::DeviceState {
            device,
            location,
            state,
        } => Some(format!("dev:{device:?}@{location:?}={state:?}")),
        EventKind::ChannelEvent { channel, location } => {
            Some(format!("chan:{channel:?}@{location:?}"))
        }
        _ => None,
    }
}

/// The HAWatcher-style detector.
pub struct HaWatcher {
    pub window: f64,
    pub min_confidence: f64,
    pub min_support: usize,
    correlations: Vec<Correlation>,
    /// Keys seen in training (events outside the vocabulary are suspicious).
    known_keys: BTreeMap<String, usize>,
    rng_seed: u64,
}

impl HaWatcher {
    pub fn new() -> Self {
        Self {
            window: 120.0,
            min_confidence: 0.8,
            min_support: 3,
            correlations: Vec::new(),
            known_keys: BTreeMap::new(),
            rng_seed: 0,
        }
    }

    /// Mine correlations from a clean training log (the paper's "21 days of
    /// training" phase).
    pub fn train(&mut self, log: &EventLog) {
        let events: Vec<(f64, String)> = log
            .records()
            .iter()
            .filter_map(|r| event_key(&r.kind).map(|k| (r.timestamp, k)))
            .collect();
        let mut antecedent_count: BTreeMap<String, usize> = BTreeMap::new();
        let mut pair_count: BTreeMap<(String, String), usize> = BTreeMap::new();
        for (i, (t, a)) in events.iter().enumerate() {
            *antecedent_count.entry(a.clone()).or_default() += 1;
            *self.known_keys.entry(a.clone()).or_default() += 1;
            let mut seen_after: Vec<String> = Vec::new();
            for (t2, b) in events.iter().skip(i + 1) {
                if *t2 - *t > self.window {
                    break;
                }
                if b != a && !seen_after.contains(b) {
                    seen_after.push(b.clone());
                    *pair_count.entry((a.clone(), b.clone())).or_default() += 1;
                }
            }
        }
        self.correlations = pair_count
            .into_iter()
            .filter_map(|((a, b), n)| {
                let total = antecedent_count[&a];
                let confidence = n as f64 / total as f64;
                (n >= self.min_support && confidence >= self.min_confidence).then_some(
                    Correlation {
                        antecedent: a,
                        consequent: b,
                        confidence,
                        support: n,
                    },
                )
            })
            .collect();
        self.correlations
            .sort_by(|a, b| (&a.antecedent, &a.consequent).cmp(&(&b.antecedent, &b.consequent)));
    }

    pub fn correlations(&self) -> &[Correlation] {
        &self.correlations
    }

    /// Check a runtime log window: anomalous iff some mined correlation is
    /// violated (antecedent without consequent) or an unknown event key
    /// appears. Returns true when a threat/anomaly is reported.
    pub fn check(&self, log: &EventLog) -> bool {
        let events: Vec<(f64, String)> = log
            .records()
            .iter()
            .filter_map(|r| event_key(&r.kind).map(|k| (r.timestamp, k)))
            .collect();
        // unknown vocabulary
        if events.iter().any(|(_, k)| !self.known_keys.contains_key(k)) {
            return true;
        }
        // violated correlations
        for (i, (t, a)) in events.iter().enumerate() {
            for c in self.correlations.iter().filter(|c| &c.antecedent == a) {
                let satisfied = events
                    .iter()
                    .skip(i + 1)
                    .take_while(|(t2, _)| *t2 - *t <= self.window)
                    .any(|(_, b)| *b == c.consequent);
                if !satisfied {
                    return true;
                }
            }
        }
        false
    }

    /// The §4.8.1 protocol for threat types outside HAWatcher's model:
    /// answer by a fair coin (Bernoulli 0.5), seeded per case.
    pub fn coin_flip_verdict(&self, case_id: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(self.rng_seed ^ case_id.wrapping_mul(0x9e37_79b9));
        rng.gen_bool(0.5)
    }
}

impl Default for HaWatcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glint_rules::event::EventRecord;
    use glint_rules::{Channel, DeviceKind, Location, StateValue};

    /// Training log with a reliable "motion → light on" correlation.
    fn train_log(repeats: usize) -> EventLog {
        let mut log = EventLog::new();
        for k in 0..repeats {
            let t = k as f64 * 600.0;
            log.push(EventRecord::new(
                t,
                EventKind::ChannelEvent {
                    channel: Channel::Motion,
                    location: Location::Hallway,
                },
            ));
            log.push(EventRecord::new(
                t + 5.0,
                EventKind::DeviceState {
                    device: DeviceKind::Light,
                    location: Location::Hallway,
                    state: StateValue::On,
                },
            ));
        }
        log
    }

    #[test]
    fn mines_the_motion_light_correlation() {
        let mut hw = HaWatcher::new();
        hw.train(&train_log(10));
        assert!(
            hw.correlations()
                .iter()
                .any(|c| c.antecedent.contains("Motion") && c.consequent.contains("Light")),
            "{:?}",
            hw.correlations()
        );
    }

    #[test]
    fn consistent_runtime_log_passes() {
        let mut hw = HaWatcher::new();
        hw.train(&train_log(10));
        assert!(!hw.check(&train_log(2)));
    }

    #[test]
    fn violated_correlation_is_flagged() {
        let mut hw = HaWatcher::new();
        hw.train(&train_log(10));
        // motion without the expected light-on
        let mut bad = EventLog::new();
        bad.push(EventRecord::new(
            0.0,
            EventKind::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
        ));
        assert!(hw.check(&bad));
    }

    #[test]
    fn unknown_event_is_flagged() {
        let mut hw = HaWatcher::new();
        hw.train(&train_log(10));
        let mut novel = train_log(1);
        novel.push(EventRecord::new(
            1e6,
            EventKind::DeviceState {
                device: DeviceKind::Sprinkler,
                location: Location::Garden,
                state: StateValue::On,
            },
        ));
        assert!(hw.check(&novel));
    }

    #[test]
    fn coin_flip_is_deterministic_per_case() {
        let hw = HaWatcher::new();
        assert_eq!(hw.coin_flip_verdict(42), hw.coin_flip_verdict(42));
        // and roughly fair
        let heads = (0..1000).filter(|&i| hw.coin_flip_verdict(i)).count();
        assert!((400..600).contains(&heads), "biased coin: {heads}/1000");
    }
}
