//! Ground-truth correlation semantics: Algorithm 1's rule pairs.
//!
//! This is the physical-world oracle: given rule A's action and rule B's
//! trigger, does executing A invoke B? The paper obtains these labels by
//! manual annotation (13,600 pairs, §4.1); here they follow mechanically from
//! the device/channel taxonomy, which is what makes large-scale corpus
//! labeling possible. The *learned* correlation classifier in `glint-core`
//! recovers this function from rendered text only.
//!
//! [`PairCorrelation`] is the one record of an ordered pair that every full
//! interaction graph is assembled from: its action→trigger, shared-device
//! and faked-condition edges (§3.2.2). [`TokenIndex`] finds the pairs worth
//! mining without trying every one.

use crate::ast::{Action, Cmp, Condition, Rule, StateValue, Trigger};
use crate::channel::{Channel, Effect};
use crate::device::{DeviceKind, Location};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How an action reaches a trigger.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Via {
    /// The trigger watches the very device the action sets.
    Device(DeviceKind),
    /// The action's physical side effect feeds the trigger's channel.
    Channel(Channel),
}

/// Effective channel influences of setting `device` to `state`.
/// Negative polarities (off/closed) flip Increase↔Decrease and suppress
/// pulses; `Set` effects persist either way.
pub fn effective_affects(device: DeviceKind, state: StateValue) -> Vec<(Channel, Effect)> {
    let positive = state.is_positive();
    device
        .affects()
        .iter()
        .filter_map(|&(c, e)| match (e, positive) {
            (Effect::Pulse, true) => Some((c, Effect::Pulse)),
            (Effect::Pulse, false) => None,
            (Effect::Increase, true) => Some((c, Effect::Increase)),
            (Effect::Increase, false) => Some((c, Effect::Decrease)),
            (Effect::Decrease, true) => Some((c, Effect::Decrease)),
            (Effect::Decrease, false) => Some((c, Effect::Increase)),
            (Effect::Set, _) => Some((c, Effect::Set)),
        })
        .collect()
}

/// Channels on which an Increase/Pulse constitutes a discrete *event*
/// ("motion detected", "smoke detected", "leak detected").
fn is_event_channel(c: Channel) -> bool {
    matches!(
        c,
        Channel::Motion
            | Channel::Smoke
            | Channel::Leak
            | Channel::Contact
            | Channel::Sound
            | Channel::Presence
    )
}

fn locations_couple(a: Location, b: Location, channel: Option<Channel>) -> bool {
    if channel.is_some_and(Channel::is_global) {
        return true;
    }
    a.couples_with(b)
}

/// Does `action` invoke `trigger`? Returns the mediating path if so.
pub fn action_invokes_trigger(action: &Action, trigger: &Trigger) -> Option<Via> {
    let (a_dev, a_loc, a_state) = match action {
        Action::SetState {
            device,
            location,
            state,
            ..
        } => (*device, *location, *state),
        Action::SetLevel {
            device,
            location,
            value,
            ..
        } => (*device, *location, StateValue::Level(*value)),
        // notifications and snapshots are sinks: nothing triggers on them
        Action::Notify | Action::Snapshot { .. } => return None,
    };

    match trigger {
        Trigger::DeviceState {
            device,
            location,
            attribute,
            state,
        } => {
            // direct watch: same device kind + coupled location + the action
            // drives the watched attribute to the watched state
            if *device == a_dev && locations_couple(a_loc, *location, None) {
                let matches_state = match (action, state) {
                    (
                        Action::SetState {
                            attribute: aa,
                            state: as_,
                            ..
                        },
                        s,
                    ) => aa == attribute && as_ == s,
                    (Action::SetLevel { attribute: aa, .. }, StateValue::Level(_)) => {
                        aa == attribute
                    }
                    _ => false,
                };
                if matches_state {
                    return Some(Via::Device(a_dev));
                }
            }
            // indirect: the action's side effect feeds the channel the
            // device-state trigger is observing (e.g. vacuum → motion sensor)
            let watched = crate::ast::device_state_channel(*device, *attribute)?;
            channel_path(a_dev, a_loc, a_state, watched, *location, None)
        }
        Trigger::ChannelEvent { channel, location } => {
            channel_path(a_dev, a_loc, a_state, *channel, *location, None)
                .filter(|_| is_event_channel(*channel))
        }
        Trigger::ChannelThreshold {
            channel,
            location,
            cmp,
            ..
        } => channel_path(a_dev, a_loc, a_state, *channel, *location, Some(*cmp)),
        Trigger::ChannelRange {
            channel, location, ..
        } => {
            // moving the channel in either direction can enter the range
            channel_path(a_dev, a_loc, a_state, *channel, *location, None)
        }
        Trigger::Time(_) | Trigger::Voice | Trigger::Manual => None,
    }
}

/// Can setting `a_dev` to `a_state` at `a_loc` move `channel` at `t_loc` in a
/// direction compatible with `cmp` (if any)?
fn channel_path(
    a_dev: DeviceKind,
    a_loc: Location,
    a_state: StateValue,
    channel: Channel,
    t_loc: Location,
    cmp: Option<Cmp>,
) -> Option<Via> {
    if !locations_couple(a_loc, t_loc, Some(channel)) {
        return None;
    }
    for (c, eff) in effective_affects(a_dev, a_state) {
        if c != channel {
            continue;
        }
        let compatible = matches!(
            (cmp, eff),
            (None, _)
                | (Some(Cmp::Above), Effect::Increase | Effect::Pulse)
                | (Some(Cmp::Below), Effect::Decrease)
                | (Some(_), Effect::Set)
        );
        if compatible {
            return Some(Via::Channel(channel));
        }
    }
    None
}

/// Does any action of `a` invoke the trigger of `b`? (Rule-level query used
/// by the graph builder.)
pub fn action_triggers(a: &Rule, b: &Rule) -> Option<Via> {
    a.actions
        .iter()
        .find_map(|act| action_invokes_trigger(act, &b.trigger))
}

/// Do `a`'s actions and `b`'s trigger reference an overlapping device/channel
/// surface at all? A pair can overlap here and still be uncorrelated (wrong
/// direction, incompatible state, uncoupled rooms) — those are the *hard
/// negatives* a correlation classifier must learn to reject, as opposed to
/// pairs about entirely unrelated devices.
pub fn shares_surface(a: &Rule, b: &Rule) -> bool {
    let mut devices = Vec::new();
    let mut channels = Vec::new();
    for act in &a.actions {
        if let Action::SetState { device, .. } | Action::SetLevel { device, .. } = act {
            devices.push(*device);
            channels.extend(device.affects().iter().map(|&(c, _)| c));
        }
    }
    match &b.trigger {
        Trigger::DeviceState {
            device, attribute, ..
        } => {
            devices.contains(device)
                || crate::ast::device_state_channel(*device, *attribute)
                    .is_some_and(|c| channels.contains(&c))
        }
        Trigger::ChannelEvent { channel, .. }
        | Trigger::ChannelThreshold { channel, .. }
        | Trigger::ChannelRange { channel, .. } => channels.contains(channel),
        Trigger::Time(_) | Trigger::Voice | Trigger::Manual => false,
    }
}

/// Do `a` and `b` actuate the same device kind at coupled locations? This
/// is Figure 1's device-mediated coupling, symmetric in `a` and `b`.
pub fn shares_device(a: &Rule, b: &Rule) -> bool {
    a.actions.iter().filter_map(Action::device).any(|(d1, l1)| {
        b.actions
            .iter()
            .filter_map(Action::device)
            .any(|(d2, l2)| d1 == d2 && l1.couples_with(l2))
    })
}

/// Action→trigger weight when the path is a directly watched device.
pub const WEIGHT_DEVICE: f32 = 1.0;
/// Action→trigger weight when the path is a physical channel side effect.
pub const WEIGHT_CHANNEL: f32 = 0.75;

/// Mined correlation record for one *ordered* rule pair `(a, b)`: the edges
/// from `a` to `b` in every full interaction graph holding both.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PairCorrelation {
    /// Action→trigger weight: `Some` when a's action invokes b's trigger.
    pub action_trigger: Option<f32>,
    /// a and b actuate the same device kind at coupled locations.
    pub shared_device: bool,
    /// How many of b's conditions an action of a can fake (each one is an
    /// `ActionCondition` edge, duplicates included).
    pub action_condition: u32,
}

impl PairCorrelation {
    /// Algorithm 1 on the ordered pair `(a, b)`.
    pub fn mine(a: &Rule, b: &Rule) -> Self {
        let action_condition = b
            .conditions
            .iter()
            .filter_map(Condition::as_trigger)
            .filter(|t| {
                a.actions
                    .iter()
                    .any(|act| action_invokes_trigger(act, t).is_some())
            })
            .count() as u32;
        Self {
            action_trigger: action_triggers(a, b).map(|via| match via {
                Via::Device(_) => WEIGHT_DEVICE,
                Via::Channel(_) => WEIGHT_CHANNEL,
            }),
            shared_device: shares_device(a, b),
            action_condition,
        }
    }

    /// True when the record carries no correlation at all.
    pub fn is_empty(&self) -> bool {
        self.action_trigger.is_none() && !self.shared_device && self.action_condition == 0
    }
}

/// One vocabulary token: a device kind or a physical channel. Two rules can
/// be correlated only if a token emitted by one's actions is consumed by the
/// other's trigger/conditions, or both actuate the same device token.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Token {
    Dev(DeviceKind),
    Chan(Channel),
}

/// Tokens a rule's actions *emit*: each actuated device kind, plus every
/// channel that device can physically affect (a superset of
/// `effective_affects` for any state, so no correlated pair escapes).
fn action_tokens(rule: &Rule) -> BTreeSet<Token> {
    let mut tokens = BTreeSet::new();
    for (dev, _) in rule.actions.iter().filter_map(Action::device) {
        tokens.insert(Token::Dev(dev));
        tokens.extend(dev.affects().iter().map(|&(c, _)| Token::Chan(c)));
    }
    tokens
}

/// Tokens a rule's trigger *and conditions* consume: the watched device
/// kind and/or channel. Time/voice/manual triggers consume nothing — the
/// oracle can never invoke them.
fn trigger_tokens(rule: &Rule) -> BTreeSet<Token> {
    let mut tokens = BTreeSet::new();
    let mut consume = |t: &Trigger| match *t {
        Trigger::DeviceState {
            device, attribute, ..
        } => {
            tokens.insert(Token::Dev(device));
            tokens.extend(crate::ast::device_state_channel(device, attribute).map(Token::Chan));
        }
        Trigger::ChannelThreshold { channel, .. }
        | Trigger::ChannelRange { channel, .. }
        | Trigger::ChannelEvent { channel, .. } => {
            tokens.insert(Token::Chan(channel));
        }
        Trigger::Time(_) | Trigger::Voice | Trigger::Manual => {}
    };
    consume(&rule.trigger);
    for t in rule.conditions.iter().filter_map(Condition::as_trigger) {
        consume(&t);
    }
    tokens
}

/// Rules indexed by vocabulary token, under caller-chosen keys (rule ids,
/// slice positions). Every edge family of [`PairCorrelation`] needs a shared
/// token: an action→trigger path needs a watched device or a fed channel, a
/// shared device is a common actuated device token, and a faked condition
/// is a trigger in disguise. So a rule's [`TokenIndex::neighborhood`] holds
/// every rule it can be correlated with, in either direction.
#[derive(Clone, Debug, Default)]
pub struct TokenIndex<K> {
    /// Token → rules whose *actions* emit it.
    emitters: BTreeMap<Token, BTreeSet<K>>,
    /// Token → rules whose *trigger/conditions* consume it.
    consumers: BTreeMap<Token, BTreeSet<K>>,
}

impl<K: Copy + Ord> TokenIndex<K> {
    pub fn add_rule(&mut self, key: K, rule: &Rule) {
        for t in action_tokens(rule) {
            self.emitters.entry(t).or_default().insert(key);
        }
        for t in trigger_tokens(rule) {
            self.consumers.entry(t).or_default().insert(key);
        }
    }

    /// Forget `rule`, added under `key`; tokens no rule uses any more go
    /// with it.
    pub fn remove_rule(&mut self, key: K, rule: &Rule) {
        fn forget<K: Ord>(side: &mut BTreeMap<Token, BTreeSet<K>>, t: Token, key: &K) {
            if let Some(keys) = side.get_mut(&t) {
                keys.remove(key);
                if keys.is_empty() {
                    side.remove(&t);
                }
            }
        }
        for t in action_tokens(rule) {
            forget(&mut self.emitters, t, &key);
        }
        for t in trigger_tokens(rule) {
            forget(&mut self.consumers, t, &key);
        }
    }

    /// Keys of the indexed rules that `rule` may be correlated with in
    /// either direction, ascending, `key` itself excluded.
    pub fn neighborhood(&self, key: K, rule: &Rule) -> BTreeSet<K> {
        let mut neigh = BTreeSet::new();
        for t in action_tokens(rule) {
            neigh.extend(self.consumers.get(&t).into_iter().flatten());
            // shared-device coupling is act×act, on device tokens only
            if matches!(t, Token::Dev(_)) {
                neigh.extend(self.emitters.get(&t).into_iter().flatten());
            }
        }
        for t in trigger_tokens(rule) {
            neigh.extend(self.emitters.get(&t).into_iter().flatten());
        }
        neigh.remove(&key);
        neigh
    }

    pub fn is_empty(&self) -> bool {
        self.emitters.is_empty() && self.consumers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Attribute;
    use crate::platform::Platform;

    fn set(
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        state: StateValue,
    ) -> Action {
        Action::SetState {
            device,
            location,
            attribute,
            state,
        }
    }

    #[test]
    fn direct_device_watch() {
        // "turn off lights" → "if all lights are turned off, lock the door"
        let act = set(
            DeviceKind::Light,
            Location::LivingRoom,
            Attribute::Power,
            StateValue::Off,
        );
        let trig = Trigger::DeviceState {
            device: DeviceKind::Light,
            location: Location::LivingRoom,
            attribute: Attribute::Power,
            state: StateValue::Off,
        };
        assert_eq!(
            action_invokes_trigger(&act, &trig),
            Some(Via::Device(DeviceKind::Light))
        );
    }

    #[test]
    fn opposite_state_does_not_trigger() {
        let act = set(
            DeviceKind::Light,
            Location::LivingRoom,
            Attribute::Power,
            StateValue::On,
        );
        let trig = Trigger::DeviceState {
            device: DeviceKind::Light,
            location: Location::LivingRoom,
            attribute: Attribute::Power,
            state: StateValue::Off,
        };
        // turning it ON cannot fire the "turned off" trigger directly…
        assert_ne!(
            action_invokes_trigger(&act, &trig),
            Some(Via::Device(DeviceKind::Light))
        );
    }

    #[test]
    fn ac_on_feeds_temperature_below_threshold() {
        // "turn on AC" → "if temperature is below 60, close windows"
        let act = set(
            DeviceKind::AirConditioner,
            Location::House,
            Attribute::Power,
            StateValue::On,
        );
        let trig = Trigger::ChannelThreshold {
            channel: Channel::Temperature,
            location: Location::LivingRoom,
            cmp: Cmp::Below,
            value: 60.0,
        };
        assert_eq!(
            action_invokes_trigger(&act, &trig),
            Some(Via::Channel(Channel::Temperature))
        );
        // …but it cannot push temperature ABOVE a threshold
        let trig_hi = Trigger::ChannelThreshold {
            channel: Channel::Temperature,
            location: Location::LivingRoom,
            cmp: Cmp::Above,
            value: 85.0,
        };
        assert_eq!(action_invokes_trigger(&act, &trig_hi), None);
    }

    #[test]
    fn heater_off_cools() {
        let act = set(
            DeviceKind::Heater,
            Location::Bedroom,
            Attribute::Power,
            StateValue::Off,
        );
        let trig = Trigger::ChannelThreshold {
            channel: Channel::Temperature,
            location: Location::Bedroom,
            cmp: Cmp::Below,
            value: 60.0,
        };
        assert!(action_invokes_trigger(&act, &trig).is_some());
    }

    #[test]
    fn vacuum_triggers_motion_sensor() {
        // the §4.7 "trigger intake" physical path
        let act = set(
            DeviceKind::Vacuum,
            Location::Hallway,
            Attribute::Power,
            StateValue::On,
        );
        let trig = Trigger::ChannelEvent {
            channel: Channel::Motion,
            location: Location::Hallway,
        };
        assert_eq!(
            action_invokes_trigger(&act, &trig),
            Some(Via::Channel(Channel::Motion))
        );
        // motion does not carry across uncoupled rooms
        let far = Trigger::ChannelEvent {
            channel: Channel::Motion,
            location: Location::Bedroom,
        };
        assert_eq!(action_invokes_trigger(&act, &far), None);
    }

    #[test]
    fn location_gating_respects_globals() {
        // smoke is global: oven in the kitchen can feed a house smoke trigger
        let act = set(
            DeviceKind::Oven,
            Location::Kitchen,
            Attribute::Power,
            StateValue::On,
        );
        let trig = Trigger::ChannelEvent {
            channel: Channel::Smoke,
            location: Location::Bedroom,
        };
        assert!(action_invokes_trigger(&act, &trig).is_some());
    }

    #[test]
    fn notify_is_a_sink() {
        let trig = Trigger::ChannelEvent {
            channel: Channel::Sound,
            location: Location::House,
        };
        assert_eq!(action_invokes_trigger(&Action::Notify, &trig), None);
    }

    #[test]
    fn time_and_voice_triggers_unreachable() {
        let act = set(
            DeviceKind::Light,
            Location::Bedroom,
            Attribute::Power,
            StateValue::On,
        );
        assert_eq!(action_invokes_trigger(&act, &Trigger::Voice), None);
        assert_eq!(
            action_invokes_trigger(&act, &Trigger::Time(crate::ast::TimeSpec::Sunset)),
            None
        );
    }

    #[test]
    fn correlated_pairs_lie_in_the_token_neighborhood() {
        // the structural guarantee behind neighborhood-scoped mining
        let mut rules = crate::scenarios::table1_rules();
        rules.extend(crate::scenarios::table4_settings());
        let mut index = TokenIndex::default();
        for (i, r) in rules.iter().enumerate() {
            index.add_rule(i, r);
        }
        for (i, a) in rules.iter().enumerate() {
            let neigh = index.neighborhood(i, a);
            assert!(!neigh.contains(&i));
            for (j, b) in rules.iter().enumerate() {
                if i != j && !PairCorrelation::mine(a, b).is_empty() {
                    assert!(neigh.contains(&j), "{}→{} outside", a.id.0, b.id.0);
                }
            }
        }
        for (i, r) in rules.iter().enumerate() {
            index.remove_rule(i, r);
        }
        assert!(index.is_empty());
    }

    #[test]
    fn mined_weights_follow_via() {
        let rules = crate::scenarios::table1_rules();
        for a in &rules {
            for b in &rules {
                let expected = action_triggers(a, b).map(|via| match via {
                    Via::Device(_) => WEIGHT_DEVICE,
                    Via::Channel(_) => WEIGHT_CHANNEL,
                });
                let mined = PairCorrelation::mine(a, b).action_trigger;
                assert_eq!(mined.map(f32::to_bits), expected.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn rule_level_query() {
        let a = Rule::simple(
            1,
            Platform::Alexa,
            Trigger::Voice,
            vec![set(
                DeviceKind::Light,
                Location::LivingRoom,
                Attribute::Power,
                StateValue::Off,
            )],
        );
        let b = Rule::simple(
            2,
            Platform::Alexa,
            Trigger::DeviceState {
                device: DeviceKind::Light,
                location: Location::LivingRoom,
                attribute: Attribute::Power,
                state: StateValue::Off,
            },
            vec![set(
                DeviceKind::Door,
                Location::Hallway,
                Attribute::LockState,
                StateValue::Locked,
            )],
        );
        assert!(action_triggers(&a, &b).is_some());
        assert!(action_triggers(&b, &a).is_none());
    }
}
