//! Seeded synthetic rule-corpus generation at Table 2 proportions.
//!
//! The generator samples *semantically coherent* rules: triggers only fire on
//! channels some device can produce, actions only target device attributes
//! that exist, and platform capability profiles are respected (IFTTT applets
//! are single-trigger, Alexa rules are mostly voice commands, SmartThings and
//! Home Assistant rules may carry conditions).

use crate::ast::{Action, Cmp, Condition, Rule, RuleId, StateValue, TimeSpec, Trigger};
use crate::channel::Channel;
use crate::device::{Attribute, DeviceKind, Location};
use crate::platform::Platform;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Corpus scale configuration.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Multiplier on Table 2 counts (1.0 = paper scale). The IFTTT count is
    /// additionally capped so laptop-scale runs stay tractable.
    pub scale: f64,
    /// Hard cap per platform after scaling.
    pub per_platform_cap: usize,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            scale: 0.01,
            per_platform_cap: 20_000,
            seed: 0x6117,
        }
    }
}

impl CorpusConfig {
    /// Read scale from the `GLINT_SCALE` env var (default 0.01).
    pub fn from_env() -> Self {
        let scale = std::env::var("GLINT_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.01);
        Self {
            scale,
            ..Self::default()
        }
    }

    /// Target rule count for a platform under this config (at least 30 so
    /// every platform stays usable at tiny scales).
    pub fn count_for(&self, platform: Platform) -> usize {
        let scaled = (platform.paper_rule_count() as f64 * self.scale).round() as usize;
        scaled.clamp(30, self.per_platform_cap)
    }
}

/// Deterministic rule generator.
pub struct CorpusGenerator {
    rng: StdRng,
    next_id: u32,
}

impl CorpusGenerator {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Generate a full multi-platform corpus under `config`.
    ///
    /// Every platform's pool is seeded with the paper's scenario rules
    /// (Table 1, Table 4) re-identified into the corpus id space — mirroring
    /// the fact that the crawled corpora contain the literature's known
    /// vulnerable apps (the paper cross-checks its SmartThings graphs
    /// against the known inter-app interaction chains).
    pub fn generate_corpus(config: &CorpusConfig) -> Vec<Rule> {
        let mut g = Self::new(config.seed);
        let mut rules = Vec::new();
        for &p in Platform::all() {
            let n = config.count_for(p);
            for _ in 0..n {
                rules.push(g.rule_for(p));
            }
        }
        let mut scenario = crate::scenarios::table1_rules();
        scenario.extend(crate::scenarios::table4_settings());
        for mut r in scenario {
            r.id = RuleId(g.fresh_id());
            rules.push(r);
        }
        rules
    }

    /// Generate `n` rules for one platform.
    pub fn generate_platform(&mut self, platform: Platform, n: usize) -> Vec<Rule> {
        (0..n).map(|_| self.rule_for(platform)).collect()
    }

    /// Sample one rule respecting the platform's capability profile.
    pub fn rule_for(&mut self, platform: Platform) -> Rule {
        let trigger = if platform.is_voice() && self.rng.gen_bool(0.7) {
            Trigger::Voice
        } else {
            self.sample_trigger()
        };
        let n_actions = if platform.supports_multi_action() && self.rng.gen_bool(0.25) {
            2
        } else {
            1
        };
        let mut actions: Vec<Action> = (0..n_actions).map(|_| self.sample_action()).collect();
        // occasionally append a notification (common in crawled corpora)
        if self.rng.gen_bool(0.12) {
            actions.push(Action::Notify);
        }
        let conditions = if platform.supports_conditions() && self.rng.gen_bool(0.35) {
            vec![self.sample_condition()]
        } else {
            Vec::new()
        };
        Rule {
            id: RuleId(self.fresh_id()),
            platform,
            trigger,
            conditions,
            actions,
        }
    }

    fn sample_location(&mut self) -> Location {
        // most crawled rules are room-scoped; house-wide rules couple with
        // everything and are the minority
        if self.rng.gen_bool(0.2) {
            Location::House
        } else {
            *Location::rooms()
                .choose(&mut self.rng)
                .expect("rooms nonempty")
        }
    }

    /// Sample a trigger that some device could plausibly produce. The mix
    /// mirrors crawled corpora: many schedule/voice-style rules, fewer
    /// environment thresholds.
    pub fn sample_trigger(&mut self) -> Trigger {
        match self.rng.gen_range(0..12) {
            0..=2 => {
                // device-state trigger on an actuatable device
                let device = self.sample_actuator();
                let (attribute, state) = self.sample_attr_state(device);
                Trigger::DeviceState {
                    device,
                    location: self.sample_location(),
                    attribute,
                    state,
                }
            }
            3 => {
                let (channel, lo, hi) = self.sample_numeric_channel();
                let cmp = if self.rng.gen_bool(0.5) {
                    Cmp::Above
                } else {
                    Cmp::Below
                };
                let value = self.rng.gen_range(lo..hi);
                Trigger::ChannelThreshold {
                    channel,
                    location: self.sample_location(),
                    cmp,
                    value: value.round(),
                }
            }
            4 => {
                let (channel, lo, hi) = self.sample_numeric_channel();
                let a = self.rng.gen_range(lo..hi).round();
                let b = self.rng.gen_range(lo..hi).round();
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Trigger::ChannelRange {
                    channel,
                    location: self.sample_location(),
                    lo,
                    hi: hi + 1.0,
                }
            }
            5 | 6 => {
                let channel = *[
                    Channel::Motion,
                    Channel::Smoke,
                    Channel::Leak,
                    Channel::Presence,
                    Channel::Sound,
                    Channel::Contact,
                ]
                .choose(&mut self.rng)
                .expect("nonempty");
                Trigger::ChannelEvent {
                    channel,
                    location: self.sample_location(),
                }
            }
            7..=9 => Trigger::Time(self.sample_time()),
            _ => Trigger::Manual,
        }
    }

    fn sample_time(&mut self) -> TimeSpec {
        match self.rng.gen_range(0..4) {
            0 => TimeSpec::Sunrise,
            1 => TimeSpec::Sunset,
            2 => TimeSpec::At(self.rng.gen_range(0..24) as f32),
            _ => {
                let a = self.rng.gen_range(0..24) as f32;
                let b = self.rng.gen_range(0..24) as f32;
                TimeSpec::Between(a, b)
            }
        }
    }

    fn sample_numeric_channel(&mut self) -> (Channel, f32, f32) {
        match self.rng.gen_range(0..4) {
            0 | 1 => (Channel::Temperature, 40.0, 100.0),
            2 => (Channel::Humidity, 10.0, 90.0),
            _ => (Channel::Illuminance, 0.0, 100.0),
        }
    }

    fn sample_actuator(&mut self) -> DeviceKind {
        let actuators = DeviceKind::actuators();
        *actuators.choose(&mut self.rng).expect("actuators nonempty")
    }

    fn sample_attr_state(&mut self, device: DeviceKind) -> (Attribute, StateValue) {
        let attrs = device.attributes();
        let attribute = *attrs.choose(&mut self.rng).expect("attrs nonempty");
        // polarity skew mirrors crawled corpora: automations mostly turn
        // things ON / open / lock, which also keeps coincidental opposing
        // action pairs at realistic rates
        let state = match attribute {
            Attribute::Power | Attribute::Playing | Attribute::Recording => {
                if self.rng.gen_bool(0.8) {
                    StateValue::On
                } else {
                    StateValue::Off
                }
            }
            Attribute::OpenClose => {
                if self.rng.gen_bool(0.75) {
                    StateValue::Open
                } else {
                    StateValue::Closed
                }
            }
            Attribute::LockState => {
                if self.rng.gen_bool(0.75) {
                    StateValue::Locked
                } else {
                    StateValue::Unlocked
                }
            }
            Attribute::Mode => *[
                StateValue::Armed,
                StateValue::Disarmed,
                StateValue::HomeMode,
                StateValue::AwayMode,
            ]
            .choose(&mut self.rng)
            .expect("nonempty"),
            Attribute::Level => StateValue::Level(self.rng.gen_range(1..100) as f32),
        };
        (attribute, state)
    }

    /// Sample an action on an actuatable device. A substantial share of
    /// crawled applets only notify (emails, spreadsheet rows, pings), which
    /// keeps the interaction density realistic.
    pub fn sample_action(&mut self) -> Action {
        if self.rng.gen_bool(0.3) {
            return Action::Notify;
        }
        let device = self.sample_actuator();
        let (attribute, state) = self.sample_attr_state(device);
        let location = self.sample_location();
        match state {
            StateValue::Level(v) => Action::SetLevel {
                device,
                location,
                attribute,
                value: v,
            },
            s => Action::SetState {
                device,
                location,
                attribute,
                state: s,
            },
        }
    }

    fn sample_condition(&mut self) -> Condition {
        match self.rng.gen_range(0..4) {
            0 => {
                let device = self.sample_actuator();
                let (attribute, state) = self.sample_attr_state(device);
                Condition::DeviceState {
                    device,
                    location: self.sample_location(),
                    attribute,
                    state,
                }
            }
            1 => {
                let (channel, lo, hi) = self.sample_numeric_channel();
                let cmp = if self.rng.gen_bool(0.5) {
                    Cmp::Above
                } else {
                    Cmp::Below
                };
                Condition::ChannelThreshold {
                    channel,
                    location: self.sample_location(),
                    cmp,
                    value: self.rng.gen_range(lo..hi).round(),
                }
            }
            2 => Condition::Time(self.sample_time()),
            _ => Condition::HomeMode(if self.rng.gen_bool(0.5) {
                StateValue::HomeMode
            } else {
                StateValue::AwayMode
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let cfg = CorpusConfig {
            scale: 0.001,
            per_platform_cap: 500,
            seed: 1,
        };
        let a = CorpusGenerator::generate_corpus(&cfg);
        let b = CorpusGenerator::generate_corpus(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn table2_proportions_hold() {
        let cfg = CorpusConfig {
            scale: 0.01,
            per_platform_cap: 100_000,
            seed: 2,
        };
        let rules = CorpusGenerator::generate_corpus(&cfg);
        let count = |p: Platform| rules.iter().filter(|r| r.platform == p).count();
        // generated counts plus the seeded scenario rules per platform
        // (Table 1: 6 SmartThings?/… — counted from the scenario fixtures)
        let scenario_count = |p: Platform| {
            let mut s = crate::scenarios::table1_rules();
            s.extend(crate::scenarios::table4_settings());
            s.iter().filter(|r| r.platform == p).count()
        };
        assert_eq!(
            count(Platform::Ifttt),
            3169 + scenario_count(Platform::Ifttt)
        );
        assert_eq!(count(Platform::Alexa), 55 + scenario_count(Platform::Alexa));
        assert_eq!(
            count(Platform::SmartThings),
            30 + scenario_count(Platform::SmartThings)
        );
        assert_eq!(
            count(Platform::HomeAssistant),
            30 + scenario_count(Platform::HomeAssistant)
        );
    }

    #[test]
    fn platform_capabilities_respected() {
        let mut g = CorpusGenerator::new(3);
        let ifttt = g.generate_platform(Platform::Ifttt, 300);
        assert!(
            ifttt.iter().all(|r| r.conditions.is_empty()),
            "IFTTT has no conditions"
        );
        let alexa = g.generate_platform(Platform::Alexa, 300);
        let voice = alexa.iter().filter(|r| r.trigger == Trigger::Voice).count();
        assert!(voice > 150, "Alexa should be mostly voice rules: {voice}");
        assert!(alexa.iter().all(|r| {
            // multi-action not supported (but an appended Notify is allowed)
            r.actions
                .iter()
                .filter(|a| !matches!(a, Action::Notify))
                .count()
                <= 1
        }));
    }

    #[test]
    fn rule_ids_are_unique() {
        let cfg = CorpusConfig {
            scale: 0.002,
            per_platform_cap: 1000,
            seed: 4,
        };
        let rules = CorpusGenerator::generate_corpus(&cfg);
        let ids: std::collections::BTreeSet<u32> = rules.iter().map(|r| r.id.0).collect();
        assert_eq!(ids.len(), rules.len());
    }

    #[test]
    fn generated_rules_render_nonempty() {
        let mut g = CorpusGenerator::new(5);
        for p in Platform::all() {
            for r in g.generate_platform(*p, 50) {
                let text = crate::render::render_rule(&r);
                assert!(text.len() > 10, "{r:?} → {text}");
                assert!(text.ends_with('.'));
            }
        }
    }

    #[test]
    fn corpus_has_correlated_pairs() {
        // sanity: a realistic corpus must contain some action→trigger pairs
        let mut g = CorpusGenerator::new(6);
        let rules = g.generate_platform(Platform::Ifttt, 300);
        let mut pairs = 0;
        for a in &rules {
            for b in &rules {
                if a.id != b.id && crate::correlation::action_triggers(a, b).is_some() {
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 100, "too few correlated pairs: {pairs}");
    }
}
