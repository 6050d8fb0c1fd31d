//! Render structured rules into platform-flavoured natural-language
//! descriptions — the stand-in for the crawled app/applet/skill texts.
//!
//! Template choice is keyed on the rule id, so rendering is deterministic
//! but phrasing still varies across a corpus (as crawled descriptions do).

use crate::ast::{Action, Cmp, Condition, Rule, StateValue, TimeSpec, Trigger};
use crate::channel::Channel;
use crate::device::{Attribute, DeviceKind, Location};
use crate::platform::Platform;

fn state_word(attribute: Attribute, state: StateValue) -> String {
    match state {
        StateValue::On => "on".into(),
        StateValue::Off => "off".into(),
        StateValue::Open => "open".into(),
        StateValue::Closed => "closed".into(),
        StateValue::Locked => "locked".into(),
        StateValue::Unlocked => "unlocked".into(),
        StateValue::Armed => "armed".into(),
        StateValue::Disarmed => "disarmed".into(),
        StateValue::HomeMode => "home".into(),
        StateValue::AwayMode => "away".into(),
        StateValue::Level(v) => match attribute {
            Attribute::Level => format!("{v:.0}"),
            _ => format!("{v:.0}"),
        },
    }
}

fn action_verb(attribute: Attribute, state: StateValue) -> &'static str {
    match (attribute, state) {
        (Attribute::Power, StateValue::On) => "turn on",
        (Attribute::Power, StateValue::Off) => "turn off",
        (Attribute::OpenClose, StateValue::Open) => "open",
        (Attribute::OpenClose, StateValue::Closed) => "close",
        (Attribute::LockState, StateValue::Locked) => "lock",
        (Attribute::LockState, StateValue::Unlocked) => "unlock",
        (Attribute::Mode, StateValue::Armed) => "arm",
        (Attribute::Mode, StateValue::Disarmed) => "disarm",
        (Attribute::Playing, StateValue::On) => "play",
        (Attribute::Playing, StateValue::Off) => "stop",
        (Attribute::Recording, _) => "record",
        _ => "set",
    }
}

fn device_phrase(device: DeviceKind, location: Location, variant: u32) -> String {
    if location == Location::House || variant.is_multiple_of(2) {
        format!("the {}", device.noun())
    } else {
        format!("the {} {}", location.noun(), device.noun())
    }
}

fn channel_scope(channel: Channel, location: Location, variant: u32) -> String {
    if channel.is_global() || location == Location::House || variant.is_multiple_of(3) {
        channel.noun().to_string()
    } else if location == Location::Outdoor {
        format!("outdoor {}", channel.noun())
    } else {
        format!("{} {}", location.noun(), channel.noun())
    }
}

/// Render a trigger clause (no leading marker word).
pub fn render_trigger(trigger: &Trigger, variant: u32) -> String {
    match trigger {
        Trigger::DeviceState {
            device,
            location,
            attribute,
            state,
        } => {
            let dev = device_phrase(*device, *location, variant);
            match (attribute, state, variant % 2) {
                (Attribute::OpenClose, StateValue::Open, 0) => format!("{dev} opens"),
                (Attribute::OpenClose, StateValue::Closed, 0) => format!("{dev} closes"),
                _ => format!("{dev} is {}", state_word(*attribute, *state)),
            }
        }
        Trigger::ChannelThreshold {
            channel,
            location,
            cmp,
            value,
        } => {
            let scope = channel_scope(*channel, *location, variant);
            let dir = match cmp {
                Cmp::Above => "above",
                Cmp::Below => "below",
            };
            let unit = unit_for(*channel);
            format!("the {scope} is {dir} {value:.0}{unit}")
        }
        Trigger::ChannelRange {
            channel,
            location,
            lo,
            hi,
        } => {
            let scope = channel_scope(*channel, *location, variant);
            let unit = unit_for(*channel);
            format!("the {scope} is between {lo:.0}{unit} and {hi:.0}{unit}")
        }
        Trigger::ChannelEvent { channel, location } => match channel {
            Channel::Motion => {
                if *location == Location::House {
                    "motion is detected".into()
                } else {
                    format!("motion is detected at the {}", location.noun())
                }
            }
            Channel::Smoke => {
                if variant.is_multiple_of(2) {
                    "smoke is detected".into()
                } else {
                    "the smoke alarm is beeping".into()
                }
            }
            Channel::Leak => "a water leak is detected".into(),
            Channel::Presence => {
                if variant.is_multiple_of(2) {
                    "somebody arrives home".into()
                } else {
                    "presence is detected".into()
                }
            }
            Channel::Sound => "sound is detected".into(),
            Channel::Contact => "the contact sensor opens".into(),
            other => format!("{} is detected", other.noun()),
        },
        Trigger::Time(spec) => render_time(spec),
        Trigger::Voice => "a voice command is given".into(),
        Trigger::Manual => "the button is pressed".into(),
    }
}

fn unit_for(channel: Channel) -> &'static str {
    match channel {
        Channel::Temperature => "°F",
        Channel::Humidity => "%",
        _ => "",
    }
}

fn render_time(spec: &TimeSpec) -> String {
    match spec {
        TimeSpec::At(h) => {
            let hh = h.rem_euclid(24.0);
            let (display, suffix) = if hh < 12.0 {
                (if hh < 1.0 { 12.0 } else { hh }, "a.m.")
            } else {
                (if hh < 13.0 { 12.0 } else { hh - 12.0 }, "p.m.")
            };
            format!("time is {display:.0} {suffix}")
        }
        TimeSpec::Between(lo, hi) => format!("time is between {lo:.0} and {hi:.0} oclock"),
        TimeSpec::Sunrise => "sun rises".into(),
        TimeSpec::Sunset => "sun sets".into(),
    }
}

/// Render an action clause (imperative form).
pub fn render_action(action: &Action, variant: u32) -> String {
    match action {
        Action::SetState {
            device,
            location,
            attribute,
            state,
        } => {
            let verb = action_verb(*attribute, *state);
            let dev = device_phrase(*device, *location, variant);
            if *attribute == Attribute::Mode {
                match state {
                    StateValue::AwayMode => "set the home state to away".into(),
                    StateValue::HomeMode => "set the home state to home".into(),
                    _ => format!("{verb} {dev}"),
                }
            } else {
                format!("{verb} {dev}")
            }
        }
        Action::SetLevel {
            device,
            location,
            attribute,
            value,
        } => {
            let dev = device_phrase(*device, *location, variant);
            match attribute {
                Attribute::Level if *device == DeviceKind::Light => {
                    format!("set {dev} brightness to {value:.0}%")
                }
                Attribute::Level
                    if matches!(
                        device,
                        DeviceKind::Thermostat
                            | DeviceKind::Heater
                            | DeviceKind::Oven
                            | DeviceKind::AirConditioner
                            | DeviceKind::WaterHeater
                    ) =>
                {
                    format!("set {dev} temperature to {value:.0}°F")
                }
                _ => format!("set {dev} to {value:.0}"),
            }
        }
        Action::Notify => {
            if variant.is_multiple_of(2) {
                "send a notification".into()
            } else {
                "notify me".into()
            }
        }
        Action::Snapshot { location } => {
            if *location == Location::House {
                "send a camera snapshot".into()
            } else {
                format!("send a camera snapshot of the {}", location.noun())
            }
        }
    }
}

fn render_condition(cond: &Condition, variant: u32) -> String {
    match cond {
        Condition::DeviceState {
            device,
            location,
            attribute,
            state,
        } => {
            let dev = device_phrase(*device, *location, variant);
            format!("{dev} is {}", state_word(*attribute, *state))
        }
        Condition::ChannelThreshold {
            channel,
            location,
            cmp,
            value,
        } => {
            let scope = channel_scope(*channel, *location, variant);
            let dir = match cmp {
                Cmp::Above => "above",
                Cmp::Below => "below",
            };
            format!("the {scope} is {dir} {value:.0}{}", unit_for(*channel))
        }
        Condition::Time(spec) => render_time(spec),
        Condition::HomeMode(state) => {
            format!(
                "the home is in {} state",
                state_word(Attribute::Mode, *state)
            )
        }
    }
}

/// Render a full rule description in the platform's house style.
pub fn render_rule(rule: &Rule) -> String {
    let v = rule.id.0;
    let actions: Vec<String> = rule.actions.iter().map(|a| render_action(a, v)).collect();
    let action_str = match actions.split_last() {
        None => String::from("do nothing"),
        Some((only, [])) => only.clone(),
        Some((last, rest)) => format!("{} and {}", rest.join(", "), last),
    };
    let conds: Vec<String> = rule
        .conditions
        .iter()
        .map(|c| render_condition(c, v))
        .collect();
    let cond_str = if conds.is_empty() {
        String::new()
    } else {
        format!(" and {}", conds.join(" and "))
    };

    let sentence = match (&rule.trigger, rule.platform) {
        (Trigger::Voice, _) => {
            format!("Alexa, {action_str}")
        }
        (trigger, Platform::Ifttt) => {
            let t = render_trigger(trigger, v);
            if v.is_multiple_of(2) {
                format!("If {t}{cond_str}, then {action_str}")
            } else {
                format!("If {t}{cond_str}, {action_str}")
            }
        }
        (trigger, Platform::SmartThings) => {
            let t = render_trigger(trigger, v);
            match v % 3 {
                0 => format!("{} when {t}{cond_str}", capitalize(&action_str)),
                1 => format!("If {t}{cond_str}, then {action_str}"),
                _ => format!("{} if {t}{cond_str}", capitalize(&action_str)),
            }
        }
        (trigger, Platform::HomeAssistant) => {
            let t = render_trigger(trigger, v);
            format!("When {t}{cond_str}, {action_str}")
        }
        (trigger, Platform::Alexa | Platform::GoogleAssistant) => {
            let t = render_trigger(trigger, v);
            if v.is_multiple_of(2) {
                format!("{} if {t}", capitalize(&action_str))
            } else {
                format!("If {t}, {action_str}")
            }
        }
    };
    let mut s = capitalize(&sentence);
    s.push('.');
    s
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RuleId;

    fn rule(id: u32, platform: Platform, trigger: Trigger, actions: Vec<Action>) -> Rule {
        Rule {
            id: RuleId(id),
            platform,
            trigger,
            conditions: Vec::new(),
            actions,
        }
    }

    #[test]
    fn smoke_rule_renders() {
        let r = rule(
            6,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Smoke,
                location: Location::House,
            },
            vec![
                Action::SetState {
                    device: DeviceKind::Window,
                    location: Location::House,
                    attribute: Attribute::OpenClose,
                    state: StateValue::Open,
                },
                Action::SetState {
                    device: DeviceKind::Door,
                    location: Location::House,
                    attribute: Attribute::LockState,
                    state: StateValue::Unlocked,
                },
            ],
        );
        let text = render_rule(&r);
        assert!(text.to_lowercase().contains("smoke"), "{text}");
        assert!(text.to_lowercase().contains("open the window"), "{text}");
        assert!(text.to_lowercase().contains("unlock the door"), "{text}");
    }

    #[test]
    fn threshold_rule_renders_with_unit() {
        let r = rule(
            4,
            Platform::SmartThings,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::House,
                cmp: Cmp::Above,
                value: 85.0,
            },
            vec![Action::SetState {
                device: DeviceKind::AirConditioner,
                location: Location::House,
                attribute: Attribute::Power,
                state: StateValue::On,
            }],
        );
        let text = render_rule(&r);
        assert!(text.contains("85°F"), "{text}");
        assert!(text.to_lowercase().contains("air conditioner"), "{text}");
    }

    #[test]
    fn voice_rule_renders_as_alexa_command() {
        let r = rule(
            9,
            Platform::Alexa,
            Trigger::Voice,
            vec![Action::SetState {
                device: DeviceKind::Tv,
                location: Location::LivingRoom,
                attribute: Attribute::Playing,
                state: StateValue::On,
            }],
        );
        let text = render_rule(&r);
        assert!(text.starts_with("Alexa,"), "{text}");
    }

    #[test]
    fn rendered_text_round_trips_through_parser() {
        // the NLP pipeline must recover trigger/action nouns from our text
        let r = rule(
            2,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
            vec![Action::SetState {
                device: DeviceKind::Light,
                location: Location::Hallway,
                attribute: Attribute::Power,
                state: StateValue::On,
            }],
        );
        let text = render_rule(&r);
        let parsed = glint_nlp::parse_rule(&text);
        assert!(
            parsed.trigger.nouns.contains(&"motion".to_string()),
            "{text} → {:?}",
            parsed.trigger
        );
        assert!(
            parsed.action.nouns.contains(&"light".to_string()),
            "{text} → {:?}",
            parsed.action
        );
    }

    #[test]
    fn variants_differ_across_ids() {
        let make = |id| {
            rule(
                id,
                Platform::SmartThings,
                Trigger::ChannelEvent {
                    channel: Channel::Motion,
                    location: Location::House,
                },
                vec![Action::SetState {
                    device: DeviceKind::Light,
                    location: Location::Bedroom,
                    attribute: Attribute::Power,
                    state: StateValue::On,
                }],
            )
        };
        let texts: std::collections::BTreeSet<String> =
            (0..6).map(|i| render_rule(&make(i))).collect();
        assert!(texts.len() >= 2, "templates never vary: {texts:?}");
    }

    #[test]
    fn time_rendering() {
        assert_eq!(render_time(&TimeSpec::At(19.0)), "time is 7 p.m.");
        assert_eq!(render_time(&TimeSpec::At(7.0)), "time is 7 a.m.");
        assert_eq!(render_time(&TimeSpec::Sunset), "sun sets");
    }
}
