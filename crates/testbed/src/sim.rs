//! Discrete-event smart-home simulator: environment dynamics, resident
//! activity, and the rule-execution engine that writes event logs.

use crate::home::Home;
use glint_rules::event::{EventKind, EventLog, EventRecord};
use glint_rules::{
    Action, Attribute, Channel, Condition, DeviceKind, Location, Rule, StateValue, Trigger,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub seed: u64,
    /// Simulated duration in hours (the paper's collection: one week = 168).
    pub duration_hours: f64,
    /// Environment tick length in minutes.
    pub tick_minutes: f64,
    /// Mean resident activity events per hour.
    pub activity_rate: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            duration_hours: 168.0,
            tick_minutes: 10.0,
            activity_rate: 4.0,
        }
    }
}

/// Continuous environment state.
#[derive(Clone, Debug)]
pub struct Environment {
    /// (channel, house zone) → value. Temperature in °F, humidity %, etc.
    values: BTreeMap<(Channel, Location), f64>,
}

impl Environment {
    fn new() -> Self {
        let mut values = BTreeMap::new();
        values.insert((Channel::Temperature, Location::Outdoor), 70.0);
        values.insert((Channel::Temperature, Location::House), 72.0);
        values.insert((Channel::Humidity, Location::House), 45.0);
        values.insert((Channel::Illuminance, Location::House), 50.0);
        Self { values }
    }

    pub fn get(&self, channel: Channel, location: Location) -> f64 {
        // room-level queries fall back to the house zone; outdoor is its own
        *self
            .values
            .get(&(channel, location))
            .or_else(|| self.values.get(&(channel, zone_of(location))))
            .unwrap_or(&0.0)
    }

    fn set(&mut self, channel: Channel, location: Location, v: f64) {
        self.values.insert((channel, zone_of(location)), v);
    }
}

fn zone_of(location: Location) -> Location {
    if location == Location::Outdoor {
        Location::Outdoor
    } else {
        Location::House
    }
}

/// The simulator: home + rules + environment + activity script.
pub struct Simulator {
    pub home: Home,
    rules: Vec<Rule>,
    pub env: Environment,
    config: SimConfig,
    rng: StdRng,
    log: EventLog,
    now: f64,
    /// Per-rule time triggers already fired in the current hour-window.
    time_fired: BTreeMap<u32, i64>,
}

impl Simulator {
    pub fn new(home: Home, rules: Vec<Rule>, config: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            home,
            rules,
            env: Environment::new(),
            config,
            rng,
            log: EventLog::new(),
            now: 0.0,
            time_fired: BTreeMap::new(),
        }
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn now(&self) -> f64 {
        self.now
    }

    fn hour_of_day(&self) -> f32 {
        ((self.now / 3600.0) % 24.0) as f32
    }

    fn record(&mut self, kind: EventKind) {
        self.log.push(EventRecord::new(self.now, kind));
    }

    /// Run the configured duration and return the collected log.
    pub fn run(mut self) -> EventLog {
        let tick = self.config.tick_minutes * 60.0;
        let end = self.config.duration_hours * 3600.0;
        let p_activity = (self.config.activity_rate * tick / 3600.0).min(1.0);
        while self.now < end {
            self.environment_tick(tick);
            self.time_triggers();
            self.threshold_triggers();
            if self.rng.gen_bool(p_activity) {
                self.resident_activity();
            }
            self.now += tick;
        }
        self.log
    }

    /// Diurnal outdoor temperature, indoor drift, device physics.
    fn environment_tick(&mut self, dt: f64) {
        let h = self.hour_of_day() as f64;
        let outdoor = 70.0 + 15.0 * ((h - 14.0) * std::f64::consts::PI / 12.0).cos();
        self.env
            .set(Channel::Temperature, Location::Outdoor, outdoor);
        let indoor = self.env.get(Channel::Temperature, Location::House);
        let mut delta = (outdoor - indoor) * 0.02 * (dt / 600.0);
        let mut hum_delta = (45.0 - self.env.get(Channel::Humidity, Location::House)) * 0.05;
        // device physics
        for d in &self.home.devices {
            let on = d.get(Attribute::Power) == Some(StateValue::On);
            if !on {
                continue;
            }
            match d.kind {
                DeviceKind::AirConditioner => {
                    delta -= 1.0 * (dt / 600.0);
                    hum_delta -= 0.8;
                }
                DeviceKind::Heater | DeviceKind::Oven => delta += 1.0 * (dt / 600.0),
                DeviceKind::Humidifier => hum_delta += 1.0,
                DeviceKind::Dehumidifier => hum_delta -= 1.0,
                _ => {}
            }
        }
        self.env
            .set(Channel::Temperature, Location::House, indoor + delta);
        let hum = self.env.get(Channel::Humidity, Location::House);
        self.env.set(
            Channel::Humidity,
            Location::House,
            (hum + hum_delta * (dt / 600.0)).clamp(5.0, 95.0),
        );
        // periodic sensor readings in the log
        self.record(EventKind::ChannelReading {
            channel: Channel::Temperature,
            location: Location::House,
            value: self.env.get(Channel::Temperature, Location::House) as f32,
        });
    }

    /// Fire time-scheduled rules once per matching hour window.
    fn time_triggers(&mut self) {
        let hour_slot = (self.now / 3600.0).floor() as i64;
        let hour = self.hour_of_day();
        let due: Vec<u32> = self
            .rules
            .iter()
            .filter(|r| {
                matches!(&r.trigger, Trigger::Time(spec) if spec.matches(hour))
                    && self.time_fired.get(&r.id.0) != Some(&hour_slot)
            })
            .map(|r| r.id.0)
            .collect();
        for id in due {
            self.time_fired.insert(id, hour_slot);
            self.fire_rule(id, 0);
        }
    }

    /// Fire threshold/range rules when the environment satisfies them.
    fn threshold_triggers(&mut self) {
        let due: Vec<u32> = self
            .rules
            .iter()
            .filter(|r| match &r.trigger {
                Trigger::ChannelThreshold {
                    channel,
                    location,
                    cmp,
                    value,
                } => cmp.check(self.env.get(*channel, *location) as f32, *value),
                Trigger::ChannelRange {
                    channel,
                    location,
                    lo,
                    hi,
                } => {
                    let v = self.env.get(*channel, *location) as f32;
                    v >= *lo && v <= *hi
                }
                _ => false,
            })
            .map(|r| r.id.0)
            .collect();
        // a threshold keeps a rule "latched": re-firing is suppressed within
        // the hour to avoid log spam, like debounced real systems
        let hour_slot = (self.now / 3600.0).floor() as i64;
        for id in due {
            if self.time_fired.get(&(id | 0x8000_0000)) == Some(&hour_slot) {
                continue;
            }
            self.time_fired.insert(id | 0x8000_0000, hour_slot);
            self.fire_rule(id, 0);
        }
    }

    /// Seeded resident behavior: motion, doors, buttons, presence, TV.
    fn resident_activity(&mut self) {
        let rooms = [
            Location::Hallway,
            Location::LivingRoom,
            Location::Kitchen,
            Location::Bedroom,
        ];
        match self.rng.gen_range(0..6) {
            0 | 1 => {
                let room = rooms[self.rng.gen_range(0..rooms.len())];
                self.emit_channel_event(Channel::Motion, room);
            }
            2 => {
                self.emit_channel_event(Channel::Presence, Location::Hallway);
            }
            3 => {
                // open/close the hallway door manually
                let state = if self.rng.gen_bool(0.5) {
                    StateValue::Open
                } else {
                    StateValue::Closed
                };
                self.apply_device_change(
                    DeviceKind::Door,
                    Location::Hallway,
                    Attribute::OpenClose,
                    state,
                    0,
                );
            }
            4 => {
                // evening TV session
                if self.hour_of_day() > 18.0 {
                    self.apply_device_change(
                        DeviceKind::Tv,
                        Location::LivingRoom,
                        Attribute::Playing,
                        StateValue::On,
                        0,
                    );
                }
            }
            _ => {
                // button press (Manual triggers)
                self.record(EventKind::DeviceState {
                    device: DeviceKind::Button,
                    location: Location::Bedroom,
                    state: StateValue::On,
                });
                let manual: Vec<u32> = self
                    .rules
                    .iter()
                    .filter(|r| r.trigger == Trigger::Manual)
                    .map(|r| r.id.0)
                    .collect();
                for id in manual {
                    self.fire_rule(id, 0);
                }
            }
        }
    }

    /// Emit a discrete channel event and dispatch rules listening on it.
    pub fn emit_channel_event(&mut self, channel: Channel, location: Location) {
        self.record(EventKind::ChannelEvent { channel, location });
        let due: Vec<u32> = self
            .rules
            .iter()
            .filter(|r| match &r.trigger {
                Trigger::ChannelEvent {
                    channel: c,
                    location: l,
                } => *c == channel && (channel.is_global() || l.couples_with(location)),
                _ => false,
            })
            .map(|r| r.id.0)
            .collect();
        for id in due {
            self.fire_rule(id, 0);
        }
    }

    /// Check a rule's conditions against current state.
    fn conditions_hold(&self, rule: &Rule) -> bool {
        rule.conditions.iter().all(|c| match c {
            Condition::ChannelThreshold {
                channel,
                location,
                cmp,
                value,
            } => cmp.check(self.env.get(*channel, *location) as f32, *value),
            Condition::Time(spec) => spec.matches(self.hour_of_day()),
            Condition::DeviceState {
                device,
                location,
                attribute,
                state,
            } => self
                .home
                .find(*device, *location)
                .map(|i| self.home.device(i).get(*attribute) == Some(*state))
                .unwrap_or(false),
            Condition::HomeMode(mode) => self
                .home
                .find(DeviceKind::Alarm, Location::House)
                .map(|i| self.home.device(i).get(Attribute::Mode) == Some(*mode))
                .unwrap_or(*mode == StateValue::Disarmed),
        })
    }

    /// Execute one rule: log the firing, apply its actions, cascade.
    pub fn fire_rule(&mut self, rule_id: u32, depth: usize) {
        if depth > 6 {
            return; // cascade guard (action loops terminate in the log)
        }
        let Some(rule) = self.rules.iter().find(|r| r.id.0 == rule_id).cloned() else {
            return;
        };
        if !self.conditions_hold(&rule) {
            return;
        }
        self.record(EventKind::RuleFired { rule_id });
        for action in rule.actions.clone() {
            match action {
                Action::SetState {
                    device,
                    location,
                    attribute,
                    state,
                } => {
                    self.apply_device_change(device, location, attribute, state, depth + 1);
                }
                Action::SetLevel {
                    device,
                    location,
                    attribute,
                    value,
                } => {
                    self.apply_device_change(
                        device,
                        location,
                        attribute,
                        StateValue::Level(value),
                        depth + 1,
                    );
                }
                Action::Notify | Action::Snapshot { .. } => {
                    // notifications are sinks: logged only
                }
            }
        }
        // nudge time forward so causality is visible in timestamps
        self.now += 1.0;
    }

    /// Apply a device state change, log it, and dispatch device-state
    /// triggers plus physical side effects.
    pub fn apply_device_change(
        &mut self,
        device: DeviceKind,
        location: Location,
        attribute: Attribute,
        state: StateValue,
        depth: usize,
    ) {
        let Some(idx) = self.home.find(device, location) else {
            return;
        };
        let changed = self.home.device_mut(idx).set(attribute, state);
        if !changed {
            return;
        }
        let loc = self.home.device(idx).location;
        self.record(EventKind::DeviceState {
            device,
            location: loc,
            state,
        });
        // physical side effects: vacuum motion, TV sound, etc.
        if state == StateValue::On {
            match device {
                DeviceKind::Vacuum => self.emit_channel_event(Channel::Motion, loc),
                DeviceKind::Speaker | DeviceKind::Tv => {
                    self.emit_channel_event(Channel::Sound, loc)
                }
                _ => {}
            }
        }
        // dispatch device-state triggers
        let due: Vec<u32> = self
            .rules
            .iter()
            .filter(|r| match &r.trigger {
                Trigger::DeviceState {
                    device: d,
                    location: l,
                    attribute: a,
                    state: s,
                } => *d == device && *a == attribute && *s == state && l.couples_with(loc),
                _ => false,
            })
            .map(|r| r.id.0)
            .collect();
        for id in due {
            self.fire_rule(id, depth + 1);
        }
    }

    /// Fire a voice rule directly (the resident speaking to the assistant).
    pub fn voice_command(&mut self, rule_id: u32) {
        self.fire_rule(rule_id, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::figure10_home;
    use glint_rules::scenarios::table1_rules;

    fn one_day_sim() -> EventLog {
        let config = SimConfig {
            seed: 3,
            duration_hours: 24.0,
            ..Default::default()
        };
        Simulator::new(figure10_home(), table1_rules(), config).run()
    }

    #[test]
    fn produces_a_nonempty_ordered_log() {
        let log = one_day_sim();
        assert!(log.len() > 100, "log too sparse: {}", log.len());
        let times: Vec<f64> = log.records().iter().map(|r| r.timestamp).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn motion_rules_cascade_into_device_changes() {
        let log = one_day_sim();
        // rule 7: motion → light on; the log must contain rule firings and
        // consequent light state changes
        let fired7 = log
            .records()
            .iter()
            .any(|r| matches!(r.kind, EventKind::RuleFired { rule_id: 7 }));
        assert!(fired7, "motion rule never fired in a day of activity");
        let light_on = log.records().iter().any(|r| {
            matches!(
                r.kind,
                EventKind::DeviceState {
                    device: DeviceKind::Light,
                    state: StateValue::On,
                    ..
                }
            )
        });
        assert!(light_on);
    }

    #[test]
    fn smoke_event_opens_window_and_unlocks_door() {
        let config = SimConfig {
            seed: 4,
            duration_hours: 1.0,
            ..Default::default()
        };
        let mut sim = Simulator::new(figure10_home(), table1_rules(), config);
        sim.emit_channel_event(Channel::Smoke, Location::Kitchen);
        let log = sim.log.clone();
        let window_open = log.records().iter().any(|r| {
            matches!(
                r.kind,
                EventKind::DeviceState {
                    device: DeviceKind::Window,
                    state: StateValue::Open,
                    ..
                }
            )
        });
        let door_unlocked = log.records().iter().any(|r| {
            matches!(
                r.kind,
                EventKind::DeviceState {
                    device: DeviceKind::Door,
                    state: StateValue::Unlocked,
                    ..
                }
            )
        });
        assert!(
            window_open && door_unlocked,
            "smoke rule 6 must actuate both devices"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = one_day_sim();
        let b = one_day_sim();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.records()[..20], b.records()[..20]);
    }

    #[test]
    fn cascade_depth_is_bounded() {
        // rules 110/111 of Table 4 form an action loop; the engine must not
        // recurse forever
        let rules = glint_rules::scenarios::table4_settings();
        let config = SimConfig {
            seed: 5,
            duration_hours: 0.5,
            ..Default::default()
        };
        let mut sim = Simulator::new(figure10_home(), rules, config);
        sim.apply_device_change(
            DeviceKind::Light,
            Location::Bedroom,
            Attribute::Power,
            StateValue::On,
            0,
        );
        assert!(
            sim.log.len() < 100,
            "loop guard failed: {} events",
            sim.log.len()
        );
    }

    #[test]
    fn week_long_log_matches_paper_order_of_magnitude() {
        let config = SimConfig {
            seed: 6,
            duration_hours: 168.0,
            tick_minutes: 10.0,
            activity_rate: 4.0,
        };
        let log = Simulator::new(figure10_home(), table1_rules(), config).run();
        // paper: 1,813 events in a week; periodic readings dominate here —
        // the automation-relevant subset should be in the same ballpark
        let automation_events = log
            .records()
            .iter()
            .filter(|r| !matches!(r.kind, EventKind::ChannelReading { .. }))
            .count();
        assert!(
            (300..12_000).contains(&automation_events),
            "unrealistic weekly event count: {automation_events}"
        );
    }
}
