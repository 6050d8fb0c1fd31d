//! The trigger-condition-action rule AST.

use crate::channel::Channel;
use crate::device::{Attribute, DeviceKind, Location};
use crate::platform::Platform;
use serde::{Deserialize, Serialize};

/// Stable rule identifier within a corpus.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RuleId(pub u32);

/// Discrete or continuous state value of a device attribute.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StateValue {
    On,
    Off,
    Open,
    Closed,
    Locked,
    Unlocked,
    Armed,
    Disarmed,
    HomeMode,
    AwayMode,
    /// Continuous level (brightness %, setpoint °F, volume).
    Level(f32),
}

impl StateValue {
    /// Does this value negate `other` on the same attribute?
    pub fn opposes(self, other: StateValue) -> bool {
        use StateValue::*;
        matches!(
            (self, other),
            (On, Off)
                | (Off, On)
                | (Open, Closed)
                | (Closed, Open)
                | (Locked, Unlocked)
                | (Unlocked, Locked)
                | (Armed, Disarmed)
                | (Disarmed, Armed)
                | (HomeMode, AwayMode)
                | (AwayMode, HomeMode)
        )
    }

    /// Is this the "activating" polarity of its attribute (on/open/…)?
    pub fn is_positive(self) -> bool {
        use StateValue::*;
        matches!(self, On | Open | Unlocked | Armed | HomeMode | Level(_))
    }

    /// The opposite discrete value, if one exists.
    pub fn negated(self) -> Option<StateValue> {
        use StateValue::*;
        Some(match self {
            On => Off,
            Off => On,
            Open => Closed,
            Closed => Open,
            Locked => Unlocked,
            Unlocked => Locked,
            Armed => Disarmed,
            Disarmed => Armed,
            HomeMode => AwayMode,
            AwayMode => HomeMode,
            Level(_) => return None,
        })
    }
}

/// Comparison operator for threshold triggers/conditions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cmp {
    Above,
    Below,
}

impl Cmp {
    pub fn flipped(self) -> Cmp {
        match self {
            Cmp::Above => Cmp::Below,
            Cmp::Below => Cmp::Above,
        }
    }

    pub fn check(self, value: f32, threshold: f32) -> bool {
        match self {
            Cmp::Above => value > threshold,
            Cmp::Below => value < threshold,
        }
    }
}

/// Time specification for time triggers/conditions.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TimeSpec {
    /// Hour-of-day in `[0, 24)` (e.g. 19.5 = 7:30 pm).
    At(f32),
    /// Between two hours (wrapping allowed: 22 → 6).
    Between(f32, f32),
    Sunrise,
    Sunset,
}

impl TimeSpec {
    /// Is `hour` inside this spec (sunrise ≈ 6.5, sunset ≈ 19.5, windows of
    /// ±0.5h around point specs)?
    pub fn matches(self, hour: f32) -> bool {
        let h = hour.rem_euclid(24.0);
        match self {
            TimeSpec::At(t) => (h - t).abs() < 0.5 || (h - t).abs() > 23.5,
            TimeSpec::Between(lo, hi) => {
                if lo <= hi {
                    h >= lo && h <= hi
                } else {
                    h >= lo || h <= hi
                }
            }
            TimeSpec::Sunrise => (h - 6.5).abs() < 0.5,
            TimeSpec::Sunset => (h - 19.5).abs() < 0.5,
        }
    }
}

/// What fires a rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Trigger {
    /// A device attribute reaches a state ("when the door opens").
    DeviceState {
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        state: StateValue,
    },
    /// A channel crosses a threshold ("temperature above 85°F").
    ChannelThreshold {
        channel: Channel,
        location: Location,
        cmp: Cmp,
        value: f32,
    },
    /// A channel is inside a range ("between 65°F and 80°F").
    ChannelRange {
        channel: Channel,
        location: Location,
        lo: f32,
        hi: f32,
    },
    /// A discrete channel event ("motion detected", "smoke detected").
    ChannelEvent {
        channel: Channel,
        location: Location,
    },
    /// A scheduled time.
    Time(TimeSpec),
    /// A voice command ("Alexa, …").
    Voice,
    /// Manual interaction (button press / manual mode toggle).
    Manual,
}

impl Trigger {
    /// The channel this trigger listens on, if any.
    pub fn channel(&self) -> Option<Channel> {
        match self {
            Trigger::ChannelThreshold { channel, .. }
            | Trigger::ChannelRange { channel, .. }
            | Trigger::ChannelEvent { channel, .. } => Some(*channel),
            Trigger::DeviceState {
                device, attribute, ..
            } => device_state_channel(*device, *attribute),
            _ => None,
        }
    }

    /// The location the trigger is scoped to (House for global triggers).
    pub fn location(&self) -> Location {
        match self {
            Trigger::DeviceState { location, .. }
            | Trigger::ChannelThreshold { location, .. }
            | Trigger::ChannelRange { location, .. }
            | Trigger::ChannelEvent { location, .. } => *location,
            _ => Location::House,
        }
    }
}

/// The device-observable channel behind a `DeviceState` trigger, e.g.
/// watching a door's OpenClose is watching the Contact channel.
pub fn device_state_channel(device: DeviceKind, attribute: Attribute) -> Option<Channel> {
    use DeviceKind::*;
    match (device, attribute) {
        (Door | Window | GarageDoor | Blinds | Valve, Attribute::OpenClose) => {
            Some(Channel::Contact)
        }
        (Lock | Door, Attribute::LockState) => Some(Channel::Contact),
        (Light, Attribute::Power) => Some(Channel::Illuminance),
        (Alarm | SmokeAlarm, Attribute::Mode) => Some(Channel::HomeMode),
        (Tv | Speaker, Attribute::Playing | Attribute::Power) => Some(Channel::Sound),
        (_, Attribute::Power) => Some(Channel::Power),
        _ => None,
    }
}

/// Extra gating predicate (SmartThings/Home Assistant support these).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    DeviceState {
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        state: StateValue,
    },
    ChannelThreshold {
        channel: Channel,
        location: Location,
        cmp: Cmp,
        value: f32,
    },
    Time(TimeSpec),
    HomeMode(StateValue),
}

impl Condition {
    /// The trigger this condition would be if it fired the rule: an action
    /// that invokes it fakes the condition. Time and home-mode conditions
    /// have no such trigger.
    pub fn as_trigger(&self) -> Option<Trigger> {
        match *self {
            Condition::DeviceState {
                device,
                location,
                attribute,
                state,
            } => Some(Trigger::DeviceState {
                device,
                location,
                attribute,
                state,
            }),
            Condition::ChannelThreshold {
                channel,
                location,
                cmp,
                value,
            } => Some(Trigger::ChannelThreshold {
                channel,
                location,
                cmp,
                value,
            }),
            Condition::Time(_) | Condition::HomeMode(_) => None,
        }
    }
}

/// What a rule does when it fires.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Set a discrete device state ("turn on the light", "lock the door").
    SetState {
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        state: StateValue,
    },
    /// Set a continuous level ("set brightness to 100%").
    SetLevel {
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        value: f32,
    },
    /// Notify the user's phone.
    Notify,
    /// Take a camera snapshot.
    Snapshot { location: Location },
}

impl Action {
    /// Target device, if the action touches one.
    pub fn device(&self) -> Option<(DeviceKind, Location)> {
        match self {
            Action::SetState {
                device, location, ..
            }
            | Action::SetLevel {
                device, location, ..
            } => Some((*device, *location)),
            Action::Snapshot { location } => Some((DeviceKind::Camera, *location)),
            Action::Notify => None,
        }
    }

    pub fn location(&self) -> Location {
        self.device().map_or(Location::House, |(_, l)| l)
    }
}

/// A complete automation rule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    pub id: RuleId,
    pub platform: Platform,
    pub trigger: Trigger,
    pub conditions: Vec<Condition>,
    pub actions: Vec<Action>,
}

impl Rule {
    /// Construct with no conditions.
    pub fn simple(id: u32, platform: Platform, trigger: Trigger, actions: Vec<Action>) -> Self {
        Self {
            id: RuleId(id),
            platform,
            trigger,
            conditions: Vec::new(),
            actions,
        }
    }

    /// Devices this rule's actions touch.
    pub fn actuated_devices(&self) -> Vec<(DeviceKind, Location)> {
        self.actions.iter().filter_map(Action::device).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_opposition_is_symmetric() {
        use StateValue::*;
        for (a, b) in [
            (On, Off),
            (Open, Closed),
            (Locked, Unlocked),
            (Armed, Disarmed),
        ] {
            assert!(a.opposes(b) && b.opposes(a));
            assert_eq!(a.negated(), Some(b));
            assert_eq!(b.negated(), Some(a));
        }
        assert!(!On.opposes(Open));
        assert_eq!(Level(5.0).negated(), None);
    }

    #[test]
    fn cmp_check_and_flip() {
        assert!(Cmp::Above.check(90.0, 85.0));
        assert!(!Cmp::Above.check(80.0, 85.0));
        assert!(Cmp::Below.check(25.0, 30.0));
        assert_eq!(Cmp::Above.flipped(), Cmp::Below);
    }

    #[test]
    fn timespec_matching() {
        assert!(TimeSpec::At(19.0).matches(19.2));
        assert!(!TimeSpec::At(19.0).matches(21.0));
        assert!(TimeSpec::Between(22.0, 6.0).matches(23.0)); // wrap
        assert!(TimeSpec::Between(22.0, 6.0).matches(3.0));
        assert!(!TimeSpec::Between(22.0, 6.0).matches(12.0));
        assert!(TimeSpec::Sunset.matches(19.5));
        assert!(TimeSpec::Sunrise.matches(6.4));
    }

    #[test]
    fn trigger_channels() {
        let t = Trigger::DeviceState {
            device: DeviceKind::Door,
            location: Location::Hallway,
            attribute: Attribute::OpenClose,
            state: StateValue::Open,
        };
        assert_eq!(t.channel(), Some(Channel::Contact));
        let t2 = Trigger::ChannelEvent {
            channel: Channel::Smoke,
            location: Location::House,
        };
        assert_eq!(t2.channel(), Some(Channel::Smoke));
        assert_eq!(Trigger::Voice.channel(), None);
    }

    #[test]
    fn rule_actuated_devices() {
        let r = Rule::simple(
            1,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Smoke,
                location: Location::House,
            },
            vec![
                Action::SetState {
                    device: DeviceKind::Window,
                    location: Location::Bedroom,
                    attribute: Attribute::OpenClose,
                    state: StateValue::Open,
                },
                Action::Notify,
            ],
        );
        assert_eq!(
            r.actuated_devices(),
            vec![(DeviceKind::Window, Location::Bedroom)]
        );
    }
}
