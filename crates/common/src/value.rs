//! The value model.
//!
//! Tuples flowing through dcape carry a small, fixed repertoire of value
//! types — enough to express the paper's workloads (integer join keys,
//! textual attributes like `brokerName`, prices) plus one dcape-specific
//! addition, [`Value::Pad`]:
//!
//! The paper's tuples occupy real bytes in a 2 GB machine; our scaled
//! experiments account for state size explicitly (see
//! [`crate::mem::HeapSize`]). `Pad(n)` is an *accounting-only* payload: it
//! contributes `n` bytes to the measured state size (and `n` bytes of cost
//! to spill/relocation transfer models) without actually allocating them,
//! so simulations can run paper-scale state sizes on a laptop. Workloads
//! that want physically real payloads use [`Value::Blob`] instead.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::codec::RawValue;
use crate::hash::fx_hash;
use bytes::Bytes;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer; the usual join-key type in the experiments.
    Int(i64),
    /// 64-bit float (prices, exchange rates). Compared and hashed by bit
    /// pattern, so `NaN == NaN` here — acceptable for a workload value
    /// model, and necessary for values to serve as hash-join keys.
    Double(f64),
    /// Boolean flag.
    Bool(bool),
    /// Interned string (broker names, currency codes).
    Text(Arc<str>),
    /// Physically real opaque payload bytes.
    Blob(Bytes),
    /// Accounting-only payload of the given virtual byte length.
    Pad(u32),
}

impl Value {
    /// Text constructor from anything string-like.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float if this is a `Double`.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Returns the string slice if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Is this SQL NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as it is encoded, borrowing its text or blob bytes: the
    /// one form the codec, the partitioner and a generator that never
    /// builds a `Value` share.
    #[inline]
    pub fn as_raw(&self) -> RawValue<'_> {
        match self {
            Value::Null => RawValue::Null,
            Value::Int(i) => RawValue::Int(*i),
            Value::Double(d) => RawValue::Double(d.to_bits()),
            Value::Bool(b) => RawValue::Bool(*b),
            Value::Text(s) => RawValue::Text(s.as_bytes()),
            Value::Blob(b) => RawValue::Blob(b),
            Value::Pad(n) => RawValue::Pad(*n),
        }
    }

    /// Deterministic 64-bit hash of the value, used by split operators to
    /// derive partition IDs. Stable across runs and processes.
    #[inline]
    pub fn partition_hash(&self) -> u64 {
        self.as_raw().partition_hash()
    }

    /// Estimated heap bytes attributable to this value *in operator
    /// state*, beyond the enum's inline size. `Pad(n)` reports `n` by
    /// design (see module docs).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Value::Text(s) => s.len(),
            Value::Blob(b) => b.len(),
            Value::Pad(n) => *n as usize,
            _ => 0,
        }
    }

    /// Total-order comparison usable for min/max aggregates. Values of
    /// different types order by type tag; `Double` uses IEEE total order.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Double(_) => 3,
                Text(_) => 4,
                Blob(_) => 5,
                Pad(_) => 6,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (Pad(a), Pad(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl RawValue<'_> {
    /// [`Value::partition_hash`] of the value this encodes, read in
    /// place.
    #[inline]
    pub fn partition_hash(&self) -> u64 {
        match *self {
            RawValue::Null => fx_hash(&0xA110_0000_0000_0001u64),
            RawValue::Int(i) => fx_hash(&i),
            RawValue::Double(bits) => fx_hash(&bits),
            RawValue::Bool(b) => fx_hash(&(b as u64 | 0xB001_0000)),
            RawValue::Text(bytes) | RawValue::Blob(bytes) => fx_hash(bytes),
            RawValue::Pad(n) => fx_hash(&(n as u64 | 0x9AD0_0000_0000_0000)),
        }
    }

    /// Build the value: text and blob bytes are copied out, text is
    /// checked for UTF-8 (raw text is not, see [`raw_value`](crate::codec::raw_value)).
    #[inline]
    pub fn to_value(self) -> crate::error::Result<Value> {
        Ok(match self {
            RawValue::Null => Value::Null,
            RawValue::Int(i) => Value::Int(i),
            RawValue::Double(bits) => Value::Double(f64::from_bits(bits)),
            RawValue::Bool(b) => Value::Bool(b),
            RawValue::Text(bytes) => std::str::from_utf8(bytes)
                .map(Value::text)
                .map_err(|e| crate::error::DcapeError::codec(format!("text: invalid utf8: {e}")))?,
            RawValue::Blob(bytes) => Value::Blob(Bytes::copy_from_slice(bytes)),
            RawValue::Pad(n) => Value::Pad(n),
        })
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Text(a), Text(b)) => a == b,
            (Blob(a), Blob(b)) => a == b,
            (Pad(a), Pad(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Tag + payload, consistent with PartialEq above.
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Value::Double(d) => {
                state.write_u8(2);
                state.write_u64(d.to_bits());
            }
            Value::Bool(b) => {
                state.write_u8(3);
                state.write_u8(*b as u8);
            }
            Value::Text(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
            Value::Blob(b) => {
                state.write_u8(5);
                state.write(b);
            }
            Value::Pad(n) => {
                state.write_u8(6);
                state.write_u32(*n);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Blob(b) => write!(f, "<blob {}B>", b.len()),
            Value::Pad(n) => write!(f, "<pad {n}B>"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_hash_are_consistent() {
        let pairs = [
            (Value::Int(5), Value::Int(5)),
            (Value::Double(1.5), Value::Double(1.5)),
            (Value::text("abc"), Value::text("abc")),
            (Value::Bool(true), Value::Bool(true)),
            (Value::Null, Value::Null),
            (Value::Pad(16), Value::Pad(16)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(crate::hash::fx_hash(&a), crate::hash::fx_hash(&b));
        }
        assert_ne!(Value::Int(5), Value::Double(5.0));
        assert_ne!(Value::Int(1), Value::Int(2));
    }

    #[test]
    fn nan_equals_itself_for_join_keys() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(a.partition_hash(), b.partition_hash());
    }

    #[test]
    fn partition_hash_is_stable_and_type_tagged() {
        assert_eq!(
            Value::Int(7).partition_hash(),
            Value::Int(7).partition_hash()
        );
        assert_ne!(Value::Int(0).partition_hash(), Value::Null.partition_hash());
        assert_ne!(
            Value::Bool(false).partition_hash(),
            Value::Int(0).partition_hash()
        );
    }

    #[test]
    fn payload_bytes() {
        assert_eq!(Value::Int(1).payload_bytes(), 0);
        assert_eq!(Value::text("abcd").payload_bytes(), 4);
        assert_eq!(Value::Blob(Bytes::from_static(b"xyz")).payload_bytes(), 3);
        assert_eq!(Value::Pad(1024).payload_bytes(), 1024);
    }

    #[test]
    fn total_cmp_orders_within_and_across_types() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).total_cmp(&Value::Int(2)), Less);
        assert_eq!(Value::Double(2.0).total_cmp(&Value::Double(1.0)), Greater);
        assert_eq!(Value::text("a").total_cmp(&Value::text("b")), Less);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Less);
    }

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(2.5f64).as_double(), Some(2.5));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert!(Value::Null.is_null());
        assert!(!Value::from(true).is_null());
        assert_eq!(Value::Int(1).as_text(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Pad(8).to_string(), "<pad 8B>");
        assert_eq!(Value::text("x").to_string(), "\"x\"");
    }
}
