//! The testbed home: device inventory and layout (Figure 10).

use glint_rules::{Attribute, DeviceKind, Location, StateValue};
use std::collections::BTreeMap;

/// One deployed device instance.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceInstance {
    pub kind: DeviceKind,
    pub location: Location,
    /// Current attribute states.
    pub state: BTreeMap<Attribute, StateValue>,
}

impl DeviceInstance {
    pub fn new(kind: DeviceKind, location: Location) -> Self {
        let mut state = BTreeMap::new();
        for &attr in kind.attributes() {
            state.insert(attr, default_state(attr));
        }
        Self {
            kind,
            location,
            state,
        }
    }

    pub fn get(&self, attr: Attribute) -> Option<StateValue> {
        self.state.get(&attr).copied()
    }

    /// Set an attribute; returns true when the value actually changed.
    pub fn set(&mut self, attr: Attribute, value: StateValue) -> bool {
        match self.state.get_mut(&attr) {
            Some(slot) if *slot != value => {
                *slot = value;
                true
            }
            Some(_) => false,
            None => false,
        }
    }
}

fn default_state(attr: Attribute) -> StateValue {
    match attr {
        Attribute::Power | Attribute::Playing | Attribute::Recording => StateValue::Off,
        Attribute::OpenClose => StateValue::Closed,
        Attribute::LockState => StateValue::Locked,
        Attribute::Mode => StateValue::Disarmed,
        Attribute::Level => StateValue::Level(50.0),
    }
}

/// The deployed home: devices plus continuous environment channels per zone.
#[derive(Clone, Debug, Default)]
pub struct Home {
    pub devices: Vec<DeviceInstance>,
}

impl Home {
    pub fn add(&mut self, kind: DeviceKind, location: Location) -> usize {
        self.devices.push(DeviceInstance::new(kind, location));
        self.devices.len() - 1
    }

    /// Find the first device of a kind at a coupled location.
    pub fn find(&self, kind: DeviceKind, location: Location) -> Option<usize> {
        self.devices
            .iter()
            .position(|d| d.kind == kind && d.location.couples_with(location))
    }

    pub fn device(&self, i: usize) -> &DeviceInstance {
        &self.devices[i]
    }

    pub fn device_mut(&mut self, i: usize) -> &mut DeviceInstance {
        &mut self.devices[i]
    }

    /// How many devices of a kind are deployed.
    pub fn count(&self, kind: DeviceKind) -> usize {
        self.devices.iter().filter(|d| d.kind == kind).count()
    }
}

/// The Figure 10 home: lights, motion/contact/temperature/presence sensors,
/// a camera, a smart button, plus the actuated devices the §4.8 scenarios
/// exercise (lock, window, AC, vacuum, TV, smoke alarm).
pub fn figure10_home() -> Home {
    use DeviceKind::*;
    use Location::*;
    let mut home = Home::default();
    // Figure 10 inventory
    home.add(Light, LivingRoom);
    home.add(Light, Bedroom);
    home.add(Light, Kitchen);
    home.add(Light, Hallway);
    home.add(MotionSensor, Hallway);
    home.add(MotionSensor, LivingRoom);
    home.add(ContactSensor, Hallway);
    home.add(TemperatureSensor, LivingRoom);
    home.add(PresenceSensor, Hallway);
    home.add(Camera, Hallway);
    home.add(Button, Bedroom);
    // devices the scenario rules actuate
    home.add(Door, Hallway);
    home.add(Lock, Hallway);
    home.add(Window, LivingRoom);
    home.add(Window, Bedroom);
    home.add(AirConditioner, House);
    home.add(Vacuum, Hallway);
    home.add(Tv, LivingRoom);
    home.add(SmokeAlarm, Kitchen);
    home.add(Speaker, Bedroom);
    home.add(Heater, Bathroom);
    home.add(Humidifier, House);
    home
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_inventory() {
        let home = figure10_home();
        assert_eq!(home.count(DeviceKind::Light), 4);
        assert_eq!(home.count(DeviceKind::MotionSensor), 2);
        assert_eq!(home.count(DeviceKind::Camera), 1);
        assert_eq!(home.count(DeviceKind::Button), 1);
        assert!(home.devices.len() >= 20);
    }

    #[test]
    fn device_defaults_and_set() {
        let mut d = DeviceInstance::new(DeviceKind::Light, Location::Bedroom);
        assert_eq!(d.get(Attribute::Power), Some(StateValue::Off));
        assert!(d.set(Attribute::Power, StateValue::On));
        assert!(
            !d.set(Attribute::Power, StateValue::On),
            "idempotent set reports no change"
        );
        assert!(
            !d.set(Attribute::OpenClose, StateValue::Open),
            "unknown attribute ignored"
        );
    }

    #[test]
    fn find_respects_location_coupling() {
        let home = figure10_home();
        // AC is house-wide: findable from any room
        assert!(home
            .find(DeviceKind::AirConditioner, Location::Bedroom)
            .is_some());
        // hallway motion sensor is not in the bedroom
        let hallway_motion = home.find(DeviceKind::MotionSensor, Location::Hallway);
        assert!(hallway_motion.is_some());
    }
}
