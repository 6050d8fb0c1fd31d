//! Device taxonomy: what each device kind can sense, actuate, and influence.

use crate::channel::{Channel, Effect};
use serde::{Deserialize, Serialize};

/// Kinds of smart-home devices appearing across the five platforms.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceKind {
    Light,
    Window,
    Door,
    Lock,
    Thermostat,
    Heater,
    AirConditioner,
    Humidifier,
    Dehumidifier,
    Fan,
    Camera,
    Vacuum,
    Tv,
    Oven,
    Alarm,
    SmokeAlarm,
    MotionSensor,
    ContactSensor,
    PresenceSensor,
    TemperatureSensor,
    HumiditySensor,
    LeakSensor,
    Switch,
    Plug,
    Speaker,
    Doorbell,
    Sprinkler,
    Valve,
    Blinds,
    GarageDoor,
    CoffeeMaker,
    Washer,
    Dryer,
    Dishwasher,
    Button,
    WaterHeater,
    Purifier,
}

/// Controllable / observable attribute of a device.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Attribute {
    /// On/off power state.
    Power,
    /// Open/closed.
    OpenClose,
    /// Locked/unlocked.
    LockState,
    /// Armed/disarmed or home/away.
    Mode,
    /// Continuous setpoint or level (brightness, temperature, volume).
    Level,
    /// Playing media.
    Playing,
    /// Recording / snapshotting.
    Recording,
}

/// Rooms and zones of the house (Figure 10's layout vocabulary).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Location {
    Kitchen,
    Bedroom,
    Bathroom,
    LivingRoom,
    Hallway,
    Garage,
    Garden,
    Office,
    Basement,
    Outdoor,
    /// Whole-house / unspecified.
    House,
}

impl Location {
    /// Can a physical effect at `self` reach a sensor at `other`?
    /// Same room always; `House` couples with every indoor zone; `Outdoor`
    /// couples only with itself and `Garden`.
    pub fn couples_with(self, other: Location) -> bool {
        use Location::*;
        if self == other {
            return true;
        }
        match (self, other) {
            (House, Outdoor) | (Outdoor, House) => false,
            (House, _) | (_, House) => true,
            (Outdoor, Garden) | (Garden, Outdoor) => true,
            (Outdoor, _) | (_, Outdoor) => false,
            _ => false,
        }
    }

    pub fn noun(self) -> &'static str {
        match self {
            Location::Kitchen => "kitchen",
            Location::Bedroom => "bedroom",
            Location::Bathroom => "bathroom",
            Location::LivingRoom => "living room",
            Location::Hallway => "hallway",
            Location::Garage => "garage",
            Location::Garden => "garden",
            Location::Office => "office",
            Location::Basement => "basement",
            Location::Outdoor => "outside",
            Location::House => "house",
        }
    }

    pub fn all() -> &'static [Location] {
        use Location::*;
        &[
            Kitchen, Bedroom, Bathroom, LivingRoom, Hallway, Garage, Garden, Office, Basement,
            Outdoor, House,
        ]
    }

    /// Indoor rooms suitable for placing most devices.
    pub fn rooms() -> &'static [Location] {
        use Location::*;
        &[
            Kitchen, Bedroom, Bathroom, LivingRoom, Hallway, Garage, Office, Basement,
        ]
    }
}

impl DeviceKind {
    /// The lexicon noun used in rendered rule text.
    pub fn noun(self) -> &'static str {
        match self {
            DeviceKind::Light => "light",
            DeviceKind::Window => "window",
            DeviceKind::Door => "door",
            DeviceKind::Lock => "lock",
            DeviceKind::Thermostat => "thermostat",
            DeviceKind::Heater => "heater",
            DeviceKind::AirConditioner => "air conditioner",
            DeviceKind::Humidifier => "humidifier",
            DeviceKind::Dehumidifier => "dehumidifier",
            DeviceKind::Fan => "fan",
            DeviceKind::Camera => "camera",
            DeviceKind::Vacuum => "vacuum",
            DeviceKind::Tv => "tv",
            DeviceKind::Oven => "oven",
            DeviceKind::Alarm => "alarm",
            DeviceKind::SmokeAlarm => "smoke alarm",
            DeviceKind::MotionSensor => "motion sensor",
            DeviceKind::ContactSensor => "contact sensor",
            DeviceKind::PresenceSensor => "presence sensor",
            DeviceKind::TemperatureSensor => "temperature sensor",
            DeviceKind::HumiditySensor => "humidity sensor",
            DeviceKind::LeakSensor => "leak sensor",
            DeviceKind::Switch => "switch",
            DeviceKind::Plug => "plug",
            DeviceKind::Speaker => "speaker",
            DeviceKind::Doorbell => "doorbell",
            DeviceKind::Sprinkler => "sprinkler",
            DeviceKind::Valve => "valve",
            DeviceKind::Blinds => "blinds",
            DeviceKind::GarageDoor => "garage door",
            DeviceKind::CoffeeMaker => "coffee maker",
            DeviceKind::Washer => "washer",
            DeviceKind::Dryer => "dryer",
            DeviceKind::Dishwasher => "dishwasher",
            DeviceKind::Button => "button",
            DeviceKind::WaterHeater => "water heater",
            DeviceKind::Purifier => "purifier",
        }
    }

    /// Attributes this device exposes for control.
    pub fn attributes(self) -> &'static [Attribute] {
        use Attribute::*;
        use DeviceKind::*;
        match self {
            Light => &[Power, Level],
            Window | Blinds | GarageDoor | Valve => &[OpenClose],
            Door => &[OpenClose, LockState],
            Lock => &[LockState],
            Thermostat => &[Power, Level, Mode],
            Heater | AirConditioner | Humidifier | Dehumidifier | Fan | Purifier | WaterHeater => {
                &[Power, Level]
            }
            Camera => &[Power, Recording],
            Vacuum | CoffeeMaker | Washer | Dryer | Dishwasher | Oven | Sprinkler => &[Power],
            Tv | Speaker => &[Power, Playing, Level],
            Alarm | SmokeAlarm => &[Power, Mode],
            MotionSensor | ContactSensor | PresenceSensor | TemperatureSensor | HumiditySensor
            | LeakSensor | Doorbell | Button => &[],
            Switch | Plug => &[Power],
        }
    }

    /// Channels this device can *sense* (what its triggers fire on).
    pub fn senses(self) -> &'static [Channel] {
        use Channel::*;
        use DeviceKind::*;
        match self {
            MotionSensor => &[Motion],
            ContactSensor => &[Contact],
            PresenceSensor => &[Presence],
            TemperatureSensor | Thermostat => &[Temperature],
            HumiditySensor => &[Humidity],
            LeakSensor => &[Leak],
            SmokeAlarm => &[Smoke],
            Camera => &[Motion],
            Doorbell => &[Sound, Motion],
            Button => &[],
            Purifier => &[AirQuality],
            _ => &[],
        }
    }

    /// Channels an *action* on this device influences, with direction.
    /// This is the physical ground truth used for correlation labels and
    /// the threat oracle; direction is for the Power=on / Open action —
    /// turning off / closing flips Increase↔Decrease.
    pub fn affects(self) -> &'static [(Channel, Effect)] {
        use Channel::*;
        use DeviceKind::*;
        use Effect::*;
        match self {
            Light => &[(Illuminance, Increase)],
            Window => &[
                (Temperature, Decrease),
                (Contact, Set),
                (AirQuality, Increase),
            ],
            Door => &[(Contact, Set), (Motion, Pulse)],
            GarageDoor => &[(Contact, Set)],
            Lock => &[(Contact, Set)],
            Heater | WaterHeater => &[(Temperature, Increase), (Power, Increase)],
            AirConditioner => &[
                (Temperature, Decrease),
                (Humidity, Decrease),
                (Power, Increase),
            ],
            Thermostat => &[(Temperature, Increase)],
            Humidifier => &[(Humidity, Increase)],
            Dehumidifier => &[(Humidity, Decrease)],
            Fan => &[(Temperature, Decrease), (Sound, Increase)],
            Vacuum => &[(Motion, Pulse), (Sound, Increase)],
            Tv => &[(Sound, Increase), (Illuminance, Increase)],
            Speaker => &[(Sound, Increase)],
            Oven => &[(Temperature, Increase), (Smoke, Pulse)],
            Alarm => &[(Sound, Increase), (HomeMode, Set)],
            SmokeAlarm => &[(Sound, Increase)],
            Sprinkler => &[(Leak, Increase), (Humidity, Increase)],
            Valve => &[(Leak, Increase)],
            Blinds => &[(Illuminance, Decrease)],
            CoffeeMaker => &[(Power, Increase)],
            Washer | Dryer | Dishwasher => {
                &[(Sound, Increase), (Power, Increase), (Humidity, Increase)]
            }
            Camera => &[],
            Switch | Plug => &[(Power, Increase)],
            Purifier => &[(AirQuality, Decrease), (Power, Increase)],
            MotionSensor | ContactSensor | PresenceSensor | TemperatureSensor | HumiditySensor
            | LeakSensor | Doorbell | Button => &[],
        }
    }

    /// Is this a pure sensor (no controllable attributes)?
    pub fn is_sensor(self) -> bool {
        self.attributes().is_empty()
    }

    /// Actuatable devices (targets of actions).
    pub fn actuators() -> Vec<DeviceKind> {
        Self::all()
            .iter()
            .copied()
            .filter(|d| !d.is_sensor())
            .collect()
    }

    /// Every device kind.
    pub fn all() -> &'static [DeviceKind] {
        use DeviceKind::*;
        &[
            Light,
            Window,
            Door,
            Lock,
            Thermostat,
            Heater,
            AirConditioner,
            Humidifier,
            Dehumidifier,
            Fan,
            Camera,
            Vacuum,
            Tv,
            Oven,
            Alarm,
            SmokeAlarm,
            MotionSensor,
            ContactSensor,
            PresenceSensor,
            TemperatureSensor,
            HumiditySensor,
            LeakSensor,
            Switch,
            Plug,
            Speaker,
            Doorbell,
            Sprinkler,
            Valve,
            Blinds,
            GarageDoor,
            CoffeeMaker,
            Washer,
            Dryer,
            Dishwasher,
            Button,
            WaterHeater,
            Purifier,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensors_have_no_attributes() {
        assert!(DeviceKind::MotionSensor.is_sensor());
        assert!(DeviceKind::Button.is_sensor());
        assert!(!DeviceKind::Light.is_sensor());
    }

    #[test]
    fn ac_and_heater_oppose_on_temperature() {
        let ac: Vec<_> = DeviceKind::AirConditioner.affects().iter().collect();
        let heater: Vec<_> = DeviceKind::Heater.affects().iter().collect();
        let ac_t = ac.iter().find(|(c, _)| *c == Channel::Temperature).unwrap();
        let h_t = heater
            .iter()
            .find(|(c, _)| *c == Channel::Temperature)
            .unwrap();
        assert!(ac_t.1.opposes(h_t.1));
    }

    #[test]
    fn location_coupling() {
        assert!(Location::Kitchen.couples_with(Location::Kitchen));
        assert!(Location::House.couples_with(Location::Bedroom));
        assert!(!Location::Kitchen.couples_with(Location::Bedroom));
        assert!(!Location::Outdoor.couples_with(Location::Kitchen));
        assert!(Location::Outdoor.couples_with(Location::Garden));
        // symmetry
        for &a in Location::all() {
            for &b in Location::all() {
                assert_eq!(a.couples_with(b), b.couples_with(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn every_actuator_affects_or_notifies() {
        // Every non-sensor device except the camera must influence a channel;
        // camera actions only produce notifications/snapshots.
        for d in DeviceKind::actuators() {
            if d == DeviceKind::Camera {
                continue;
            }
            assert!(!d.affects().is_empty(), "{d:?} affects nothing");
        }
    }

    #[test]
    fn all_list_is_exhaustive_and_unique() {
        let all = DeviceKind::all();
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        assert!(all.len() >= 35);
    }
}
