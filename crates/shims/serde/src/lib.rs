//! Offline stand-in for the `serde` crate.
//!
//! This build environment has no access to a crate registry, so the workspace
//! vendors a minimal serialization framework under the `serde` name. It keeps
//! the public surface the Plankton crates actually use — the `Serialize` /
//! `Deserialize` derive pair plus JSON conversion through `serde_json` — but
//! is implemented over an explicit [`Value`] tree instead of serde's
//! visitor machinery:
//!
//! * `#[derive(Serialize, Deserialize)]` (from the companion `serde_derive`
//!   proc-macro crate) generates [`Serialize::to_value`] /
//!   [`Deserialize::from_value`] impls;
//! * `#[serde(skip)]` on a field omits it when serializing and fills it with
//!   `Default::default()` when deserializing;
//! * `#[serde(default)]` on a field serializes normally but tolerates the
//!   field being absent (or null) on deserialization, filling it with
//!   `Default::default()` — for backward-compatible schema growth;
//! * newtype structs serialize transparently as their inner value, tuple
//!   structs as arrays, enums in serde's externally-tagged form;
//! * maps serialize as arrays of `[key, value]` pairs so non-string keys
//!   round-trip without a string conversion;
//! * [`Serialize::stream`] walks the same tree shape into a [`Sink`] without
//!   building it — what content hashing uses, so a hot path pays no
//!   allocation per hashed value. Derived impls and the impls in this file
//!   emit exactly the events a walk of [`Serialize::to_value`] would.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the data model everything serializes through.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// A new error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A consumer of the event stream of a value tree, in pre-order: one call
/// per scalar; `array(len)` is followed by `len` values; `object(len)` by
/// `len` pairs of a `key` and a value.
pub trait Sink {
    /// A null.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn int(&mut self, n: i64);
    /// An unsigned integer.
    fn uint(&mut self, n: u64);
    /// A float.
    fn float(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// The start of an array of `len` values.
    fn array(&mut self, len: usize);
    /// The start of an object of `len` key/value pairs.
    fn object(&mut self, len: usize);
    /// The key of the next object value.
    fn key(&mut self, k: &str);
}

/// Types that can convert themselves into a [`Value`].
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;

    /// Emit the events of [`Serialize::to_value`]'s tree into `sink` without
    /// building the tree. The default goes through the tree, so a hand
    /// written impl that only provides `to_value` stays correct.
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        self.to_value().stream(sink)
    }
}

/// Types that can reconstruct themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parse `self` out of a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

fn unexpected<T>(expected: &str, got: &Value) -> Result<T, Error> {
    Err(Error::msg(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

// ---------------------------------------------------------------------------
// Derive-support helpers (referenced by serde_derive-generated code).
// ---------------------------------------------------------------------------

/// Fetch and deserialize a struct field; missing fields deserialize from
/// `Null` so `Option` fields tolerate omission.
pub fn __get_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(field) => T::from_value(field).map_err(|e| Error::msg(format!("field `{name}`: {e}"))),
        None => {
            T::from_value(&Value::Null).map_err(|_| Error::msg(format!("missing field `{name}`")))
        }
    }
}

/// Fetch and deserialize a struct field marked `#[serde(default)]`: a
/// missing (or null) field falls back to `Default::default()` instead of
/// erroring, so added fields stay backward-compatible with old documents.
pub fn __get_field_or_default<T: Deserialize + Default>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(Value::Null) | None => Ok(T::default()),
        Some(field) => T::from_value(field).map_err(|e| Error::msg(format!("field `{name}`: {e}"))),
    }
}

/// Fetch and deserialize a positional (tuple) field.
pub fn __get_index<T: Deserialize>(v: &Value, idx: usize) -> Result<T, Error> {
    match v {
        Value::Array(items) => match items.get(idx) {
            Some(item) => {
                T::from_value(item).map_err(|e| Error::msg(format!("element {idx}: {e}")))
            }
            None => Err(Error::msg(format!("missing tuple element {idx}"))),
        },
        other => unexpected("array", other),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
            fn stream<S: Sink + ?Sized>(&self, sink: &mut S) { sink.uint(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg("integer out of range")),
                    Value::Int(n) => u64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| Error::msg("integer out of range")),
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Ok(*f as $t),
                    other => unexpected("unsigned integer", other),
                }
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
            fn stream<S: Sink + ?Sized>(&self, sink: &mut S) { sink.int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg("integer out of range")),
                    Value::UInt(n) => i64::try_from(*n)
                        .ok()
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| Error::msg("integer out of range")),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => unexpected("integer", other),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Float(*self as f64) }
            fn stream<S: Sink + ?Sized>(&self, sink: &mut S) { sink.float(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    other => unexpected("number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => unexpected("bool", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => unexpected("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => unexpected("single-character string", other),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.null()
    }
}

impl Deserialize for () {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reference / smart-pointer impls.
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).stream(sink)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).stream(sink)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).stream(sink)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).stream(sink)
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Rc::new)
    }
}

// ---------------------------------------------------------------------------
// Option / collections / tuples.
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            Some(t) => t.stream(sink),
            None => sink.null(),
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_seq(self.len(), self.iter(), sink)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("array", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_seq(self.len(), self.iter(), sink)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_seq(self.len(), self.iter(), sink)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("array", other),
        }
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_seq(self.len(), self.iter(), sink)
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("array", other),
        }
    }
}

fn stream_seq<'a, T: Serialize + 'a, S: Sink + ?Sized>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    sink: &mut S,
) {
    sink.array(len);
    for item in items {
        item.stream(sink);
    }
}

fn stream_map<'a, K: Serialize + 'a, V: Serialize + 'a, S: Sink + ?Sized>(
    len: usize,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    sink: &mut S,
) {
    sink.array(len);
    for (k, v) in entries {
        sink.array(2);
        k.stream(sink);
        v.stream(sink);
    }
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Array(
        entries
            .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

fn map_entry<K: Deserialize, V: Deserialize>(item: &Value) -> Result<(K, V), Error> {
    match item {
        Value::Array(pair) if pair.len() == 2 => {
            Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
        }
        other => unexpected("[key, value] pair", other),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_map(self.len(), self.iter(), sink)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(map_entry).collect(),
            other => unexpected("array of pairs", other),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        stream_map(self.len(), self.iter(), sink)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(map_entry).collect(),
            other => unexpected("array of pairs", other),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
            fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
                sink.array([$($i),+].len());
                $(self.$i.stream(sink);)+
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => Ok(($(
                        $t::from_value(
                            items.get($i).ok_or_else(|| Error::msg("tuple too short"))?
                        )?,
                    )+)),
                    other => unexpected("array", other),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn stream<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            Value::Null => sink.null(),
            Value::Bool(b) => sink.bool(*b),
            Value::Int(n) => sink.int(*n),
            Value::UInt(n) => sink.uint(*n),
            Value::Float(f) => sink.float(*f),
            Value::Str(s) => sink.str(s),
            Value::Array(items) => stream_seq(items.len(), items.iter(), sink),
            Value::Object(fields) => {
                sink.object(fields.len());
                for (k, v) in fields {
                    sink.key(k);
                    v.stream(sink);
                }
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn options_and_collections_roundtrip() {
        let v: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&v.to_value()).unwrap(), None);
        let xs = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&xs.to_value()).unwrap(), xs);
        let mut m = BTreeMap::new();
        m.insert(3u32, "x".to_string());
        assert_eq!(
            BTreeMap::<u32, String>::from_value(&m.to_value()).unwrap(),
            m
        );
    }

    #[test]
    fn missing_field_is_null_for_options() {
        let obj = Value::Object(vec![]);
        let got: Option<u32> = __get_field(&obj, "absent").unwrap();
        assert_eq!(got, None);
        assert!(__get_field::<u32>(&obj, "absent").is_err());
    }
}
