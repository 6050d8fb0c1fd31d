//! Offline shim of the `serde` API surface used by this workspace.
//!
//! The real serde visitor architecture is replaced by a small self-describing
//! value tree: [`Serialize`] renders any supported type into a [`Value`],
//! [`Deserialize`] reads one back. The `derive` feature re-exports the
//! companion `serde_derive` proc macros, which generate `to_value` /
//! `from_value` impls structurally. `serde_json` (also shimmed) is a thin
//! text layer over the same [`Value`].
//!
//! Encoding is self-consistent (round-trips within this shim) but is *not*
//! guaranteed byte-compatible with upstream serde_json.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Generic JSON-shaped value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

impl Value {
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The value under `key`, when `self` is a map that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(x) => Some(*x as f64),
            Value::U64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(x) => Some(*x),
            Value::U64(x) => i64::try_from(*x).ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// Short tag for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Ser/de error with a plain message.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(pub String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    pub fn expected(what: &str, got: &Value) -> Self {
        Error(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Render `self` as a [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;

    /// `self` as a [`Value`] to read from: borrowed when `self` already is
    /// one, so writing a [`Value`] does not copy it.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
    }
}

/// Rebuild `Self` from a [`Value`].
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Lookup helper used by derived code: the field `key` of the map `v`.
pub fn map_get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, Error> {
    v.get(key)
        .ok_or_else(|| Error::msg(format!("missing field `{key}`")))
}

// ---------------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Map keys must render to / parse from strings.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::msg(format!("bad integer map key `{key}`")))
            }
        }
    )*};
}
int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------------

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", v)),
        }
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = v.as_i64().map(i128::from)
                    .or_else(|| v.as_u64().map(i128::from))
                    .ok_or_else(|| Error::expected("integer", v))?;
                <$t>::try_from(raw).map_err(|_| Error::msg(format!(
                    "integer {raw} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(f32::NAN),
            _ => v
                .as_f64()
                .map(|x| x as f32)
                .ok_or_else(|| Error::expected("number", v)),
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| Error::expected("number", v)),
        }
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", v))
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::expected("string", v))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg("expected single-char string")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::expected("sequence", v))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let vec: Vec<T> = Deserialize::from_value(v)?;
        let n = vec.len();
        vec.try_into()
            .map_err(|_| Error::msg(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! de_tuple {
    ($(($len:expr; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::expected("sequence", v))?;
                if s.len() != $len {
                    return Err(Error::msg(format!("expected tuple of {}, got {}", $len, s.len())));
                }
                Ok(($($t::from_value(&s[$n])?,)+))
            }
        }
    )*};
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::expected("map", v))?
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        let v: Vec<u8> = vec![1, 2, 3];
        assert_eq!(Vec::<u8>::from_value(&v.to_value()).unwrap(), v);
    }

    #[test]
    fn nan_round_trips_via_null() {
        let v = f32::NAN.to_value();
        // shim policy: non-finite floats serialize as a plain number value,
        // NaN deserializes from null
        assert!(f32::from_value(&Value::Null).unwrap().is_nan());
        let _ = v;
    }
}
