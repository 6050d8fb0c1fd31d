//! The paper's concrete rule sets: the Figure 1 / Table 1 running example,
//! the thirteen Table 4 settings behind the six literature threat types, and
//! the four §4.7 drift-discovered blueprint threats.

use crate::ast::{Action, Cmp, Condition, Rule, RuleId, StateValue, TimeSpec, Trigger};
use crate::channel::Channel;
use crate::device::{Attribute, DeviceKind, Location};
use crate::platform::Platform;

fn set(device: DeviceKind, location: Location, attribute: Attribute, state: StateValue) -> Action {
    Action::SetState {
        device,
        location,
        attribute,
        state,
    }
}

fn rule(id: u32, platform: Platform, trigger: Trigger, actions: Vec<Action>) -> Rule {
    Rule {
        id: RuleId(id),
        platform,
        trigger,
        conditions: Vec::new(),
        actions,
    }
}

/// The nine rules of Table 1 (the Figure 1 interaction graph), ids 1–9.
pub fn table1_rules() -> Vec<Rule> {
    use DeviceKind::*;
    use Location::House;
    use StateValue::*;
    vec![
        // 1. SmartThings: Turn off lights if playing movies.
        Rule {
            id: RuleId(1),
            platform: Platform::SmartThings,
            trigger: Trigger::DeviceState {
                device: Tv,
                location: Location::LivingRoom,
                attribute: Attribute::Playing,
                state: On,
            },
            conditions: vec![],
            actions: vec![set(Light, House, Attribute::Power, Off)],
        },
        // 2. SmartThings: If outdoor temperature 65–80°F, open windows after sunrise.
        Rule {
            id: RuleId(2),
            platform: Platform::SmartThings,
            trigger: Trigger::ChannelRange {
                channel: Channel::Temperature,
                location: Location::Outdoor,
                lo: 65.0,
                hi: 80.0,
            },
            conditions: vec![Condition::Time(TimeSpec::Sunrise)],
            actions: vec![set(Window, House, Attribute::OpenClose, Open)],
        },
        // 3. SmartThings: If outdoor temperature below 60°F, close windows.
        rule(
            3,
            Platform::SmartThings,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::Outdoor,
                cmp: Cmp::Below,
                value: 60.0,
            },
            vec![set(Window, House, Attribute::OpenClose, Closed)],
        ),
        // 4. SmartThings: Turn on AC when temperature above 85°F.
        rule(
            4,
            Platform::SmartThings,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: House,
                cmp: Cmp::Above,
                value: 85.0,
            },
            vec![set(AirConditioner, House, Attribute::Power, On)],
        ),
        // 5. IFTTT: If air conditioner is on, then close windows.
        rule(
            5,
            Platform::Ifttt,
            Trigger::DeviceState {
                device: AirConditioner,
                location: House,
                attribute: Attribute::Power,
                state: On,
            },
            vec![set(Window, House, Attribute::OpenClose, Closed)],
        ),
        // 6. IFTTT: If the smoke alarm is beeping, open the window and unlock the door.
        rule(
            6,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Smoke,
                location: House,
            },
            vec![
                set(Window, House, Attribute::OpenClose, Open),
                set(Door, House, Attribute::LockState, Unlocked),
            ],
        ),
        // 7. IFTTT: If motion is detected, turn on lights.
        rule(
            7,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
            vec![set(Light, Location::Hallway, Attribute::Power, On)],
        ),
        // 8. IFTTT: If motion is detected, open the door.
        rule(
            8,
            Platform::Ifttt,
            Trigger::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
            vec![set(Door, Location::Hallway, Attribute::OpenClose, Open)],
        ),
        // 9. Alexa: Lock the door if all lights are turned off.
        rule(
            9,
            Platform::Alexa,
            Trigger::DeviceState {
                device: Light,
                location: House,
                attribute: Attribute::Power,
                state: Off,
            },
            vec![set(Door, House, Attribute::LockState, Locked)],
        ),
    ]
}

/// The thirteen Table 4 settings, ids 101–113 (index = setting number + 100).
pub fn table4_settings() -> Vec<Rule> {
    use DeviceKind::*;
    use StateValue::*;
    vec![
        // 1. SmartThings: If outside temperature above 70°F and time is 11 am, open windows.
        Rule {
            id: RuleId(101),
            platform: Platform::SmartThings,
            trigger: Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::Outdoor,
                cmp: Cmp::Above,
                value: 70.0,
            },
            conditions: vec![Condition::Time(TimeSpec::At(11.0))],
            actions: vec![set(Window, Location::House, Attribute::OpenClose, Open)],
        },
        // 2. Alexa: If outside temperature above 70°F, open windows.
        rule(
            102,
            Platform::Alexa,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::Outdoor,
                cmp: Cmp::Above,
                value: 70.0,
            },
            vec![set(Window, Location::House, Attribute::OpenClose, Open)],
        ),
        // 3. IFTTT: If motion at the door and home armed, send a notification.
        Rule {
            id: RuleId(103),
            platform: Platform::Ifttt,
            trigger: Trigger::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
            conditions: vec![Condition::HomeMode(Armed)],
            actions: vec![Action::Notify],
        },
        // 4. IFTTT: When light is on, disarm home state.
        rule(
            104,
            Platform::Ifttt,
            Trigger::DeviceState {
                device: Light,
                location: Location::House,
                attribute: Attribute::Power,
                state: On,
            },
            vec![set(Alarm, Location::House, Attribute::Mode, Disarmed)],
        ),
        // 5. SmartThings: Turn on the light at 7 pm.
        rule(
            105,
            Platform::SmartThings,
            Trigger::Time(TimeSpec::At(19.0)),
            vec![set(Light, Location::House, Attribute::Power, On)],
        ),
        // 6. Alexa: Turn on the AC when temperature above 100°F.
        rule(
            106,
            Platform::Alexa,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::House,
                cmp: Cmp::Above,
                value: 100.0,
            },
            vec![set(AirConditioner, Location::House, Attribute::Power, On)],
        ),
        // 7. IFTTT: When humidity below 30%, turn on humidifier and turn off AC.
        rule(
            107,
            Platform::Ifttt,
            Trigger::ChannelThreshold {
                channel: Channel::Humidity,
                location: Location::House,
                cmp: Cmp::Below,
                value: 30.0,
            },
            vec![
                set(Humidifier, Location::House, Attribute::Power, On),
                set(AirConditioner, Location::House, Attribute::Power, Off),
            ],
        ),
        // 8. SmartThings: If smoke is detected, unlock the door.
        rule(
            108,
            Platform::SmartThings,
            Trigger::ChannelEvent {
                channel: Channel::Smoke,
                location: Location::House,
            },
            vec![set(Door, Location::House, Attribute::LockState, Unlocked)],
        ),
        // 9. Alexa: Lock the door at 10 pm every day.
        rule(
            109,
            Platform::Alexa,
            Trigger::Time(TimeSpec::At(22.0)),
            vec![set(Door, Location::House, Attribute::LockState, Locked)],
        ),
        // 10. IFTTT: Turn off the living-room light when bedroom light is on.
        rule(
            110,
            Platform::Ifttt,
            Trigger::DeviceState {
                device: Light,
                location: Location::Bedroom,
                attribute: Attribute::Power,
                state: On,
            },
            vec![set(Light, Location::LivingRoom, Attribute::Power, Off)],
        ),
        // 11. IFTTT: If living-room light turned off and home away, turn on bedroom light.
        Rule {
            id: RuleId(111),
            platform: Platform::Ifttt,
            trigger: Trigger::DeviceState {
                device: Light,
                location: Location::LivingRoom,
                attribute: Attribute::Power,
                state: Off,
            },
            conditions: vec![Condition::HomeMode(AwayMode)],
            actions: vec![set(Light, Location::Bedroom, Attribute::Power, On)],
        },
        // 12. Alexa: Turn on a heater.
        rule(
            112,
            Platform::Alexa,
            Trigger::Voice,
            vec![set(Heater, Location::Bathroom, Attribute::Power, On)],
        ),
        // 13. SmartThings: Open windows if indoor temperature above 80°F.
        rule(
            113,
            Platform::SmartThings,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::House,
                cmp: Cmp::Above,
                value: 80.0,
            },
            vec![set(Window, Location::House, Attribute::OpenClose, Open)],
        ),
    ]
}

/// Rule pairs per Table 4 threat type, as (name, rule ids) — the labeling
/// criteria the paper's volunteers used.
pub fn table4_threat_groups() -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("condition bypass", vec![101, 102]),
        ("condition block", vec![103, 104, 105]),
        ("action revert", vec![106, 107]),
        ("action conflict", vec![108, 109]),
        ("action loop", vec![110, 111]),
        ("goal conflict", vec![112, 113]),
    ]
}

/// §4.7 "action block": a manual-mode blocker defeats a dimming automation.
/// Ids 201–202 (Home Assistant blueprints).
pub fn action_block_blueprint() -> Vec<Rule> {
    use DeviceKind::*;
    vec![
        // 1. If the light is set in manual mode, keep brightness at 100%.
        Rule {
            id: RuleId(201),
            platform: Platform::HomeAssistant,
            trigger: Trigger::Manual,
            conditions: vec![],
            actions: vec![Action::SetLevel {
                device: Light,
                location: Location::LivingRoom,
                attribute: Attribute::Level,
                value: 100.0,
            }],
        },
        // 2. Dim lights when turning on the TV.
        rule(
            202,
            Platform::HomeAssistant,
            Trigger::DeviceState {
                device: Tv,
                location: Location::LivingRoom,
                attribute: Attribute::Power,
                state: StateValue::On,
            },
            vec![Action::SetLevel {
                device: Light,
                location: Location::LivingRoom,
                attribute: Attribute::Level,
                value: 20.0,
            }],
        ),
    ]
}

/// §4.7 "action ablation": AC-on (heat) vs humidity rule reverting it over
/// time. Ids 211–212.
pub fn action_ablation_blueprint() -> Vec<Rule> {
    use DeviceKind::*;
    use StateValue::*;
    vec![
        rule(
            211,
            Platform::HomeAssistant,
            Trigger::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::House,
                cmp: Cmp::Above,
                value: 95.0,
            },
            vec![set(AirConditioner, Location::House, Attribute::Power, On)],
        ),
        rule(
            212,
            Platform::HomeAssistant,
            Trigger::ChannelThreshold {
                channel: Channel::Humidity,
                location: Location::House,
                cmp: Cmp::Below,
                value: 30.0,
            },
            vec![
                set(Humidifier, Location::House, Attribute::Power, On),
                set(AirConditioner, Location::House, Attribute::Power, Off),
            ],
        ),
    ]
}

/// §4.7 "trigger intake": the 9 pm vacuum accidentally trips the motion
/// snapshot rule. Ids 221–222.
pub fn trigger_intake_blueprint() -> Vec<Rule> {
    use DeviceKind::*;
    use StateValue::*;
    vec![
        rule(
            221,
            Platform::HomeAssistant,
            Trigger::ChannelEvent {
                channel: Channel::Motion,
                location: Location::Hallway,
            },
            vec![
                Action::Snapshot {
                    location: Location::Hallway,
                },
                Action::Notify,
            ],
        ),
        rule(
            222,
            Platform::HomeAssistant,
            Trigger::Time(TimeSpec::At(21.0)),
            vec![set(Vacuum, Location::Hallway, Attribute::Power, On)],
        ),
    ]
}

/// §4.7 "condition duplicate": IFTTT music play fakes the occupancy
/// condition that gates the heating blueprint. Ids 231–233.
pub fn condition_duplicate_blueprint() -> Vec<Rule> {
    use DeviceKind::*;
    use StateValue::*;
    vec![
        // occupancy reporter: motion OR door shut OR media playing
        rule(
            231,
            Platform::HomeAssistant,
            Trigger::DeviceState {
                device: Speaker,
                location: Location::Bedroom,
                attribute: Attribute::Playing,
                state: On,
            },
            vec![set(
                PresenceSensor,
                Location::Bedroom,
                Attribute::Mode,
                HomeMode,
            )],
        ),
        // IFTTT: play music in the room from 3 pm to 4 pm
        rule(
            232,
            Platform::Ifttt,
            Trigger::Time(TimeSpec::Between(15.0, 16.0)),
            vec![set(Speaker, Location::Bedroom, Attribute::Playing, On)],
        ),
        // heating when occupied and below 60°F
        Rule {
            id: RuleId(233),
            platform: Platform::HomeAssistant,
            trigger: Trigger::ChannelEvent {
                channel: Channel::Presence,
                location: Location::Bedroom,
            },
            conditions: vec![Condition::ChannelThreshold {
                channel: Channel::Temperature,
                location: Location::Bedroom,
                cmp: Cmp::Below,
                value: 60.0,
            }],
            actions: vec![set(Heater, Location::Bedroom, Attribute::Power, On)],
        },
    ]
}

/// All four §4.7 drift blueprints with their paper-assigned names.
pub fn drift_blueprints() -> Vec<(&'static str, Vec<Rule>)> {
    vec![
        ("action block", action_block_blueprint()),
        ("action ablation", action_ablation_blueprint()),
        ("trigger intake", trigger_intake_blueprint()),
        ("condition duplicate", condition_duplicate_blueprint()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::action_triggers;

    #[test]
    fn table1_has_nine_rules_from_three_platforms() {
        let rules = table1_rules();
        assert_eq!(rules.len(), 9);
        let platforms: std::collections::BTreeSet<_> = rules.iter().map(|r| r.platform).collect();
        assert_eq!(platforms.len(), 3);
    }

    #[test]
    fn running_example_correlations_hold() {
        let rules = table1_rules();
        let get = |id: u32| rules.iter().find(|r| r.id.0 == id).expect("rule id exists");
        // Rule 1 (turn off lights) triggers Rule 9 (lock door when lights off)
        assert!(
            action_triggers(get(1), get(9)).is_some(),
            "1→9 must correlate"
        );
        // Rule 4 (AC on) triggers Rule 5 (close windows when AC on)
        assert!(
            action_triggers(get(4), get(5)).is_some(),
            "4→5 must correlate"
        );
        // Rule 5 (close windows) conflicts with Rule 6's goal, but 6 (open
        // windows) can feed Rule 3's channel? No: rule 3 triggers on LOW
        // outdoor temperature — not caused by opening a window indoors.
        assert!(
            action_triggers(get(6), get(5)).is_none(),
            "6 does not invoke 5"
        );
    }

    #[test]
    fn table4_settings_complete() {
        let rules = table4_settings();
        assert_eq!(rules.len(), 13);
        let groups = table4_threat_groups();
        assert_eq!(groups.len(), 6);
        for (_, ids) in &groups {
            for id in ids {
                assert!(rules.iter().any(|r| r.id.0 == *id), "missing setting {id}");
            }
        }
    }

    #[test]
    fn action_loop_pair_is_cyclic() {
        let rules = table4_settings();
        let get = |id: u32| rules.iter().find(|r| r.id.0 == id).expect("rule exists");
        // settings 10 and 11: bedroom light on → living room off → bedroom on…
        assert!(action_triggers(get(110), get(111)).is_some(), "110→111");
        assert!(action_triggers(get(111), get(110)).is_some(), "111→110");
    }

    #[test]
    fn trigger_intake_physical_path_exists() {
        let rules = trigger_intake_blueprint();
        let vacuum = &rules[1];
        let snapshot = &rules[0];
        assert!(
            action_triggers(vacuum, snapshot).is_some(),
            "vacuum must trip the motion rule"
        );
    }

    #[test]
    fn drift_blueprints_named_like_the_paper() {
        let names: Vec<&str> = drift_blueprints().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "action block",
                "action ablation",
                "trigger intake",
                "condition duplicate"
            ]
        );
    }

    #[test]
    fn all_scenario_rules_render() {
        let mut all = table1_rules();
        all.extend(table4_settings());
        for (_, bp) in drift_blueprints() {
            all.extend(bp);
        }
        for r in &all {
            let text = crate::render::render_rule(r);
            assert!(!text.is_empty());
        }
    }
}
