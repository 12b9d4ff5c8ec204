//! The tuple model.
//!
//! A [`Tuple`] is an immutable row tagged with its origin stream, a
//! per-stream sequence number, and the virtual arrival timestamp. Tuples
//! are reference-counted: a tuple sitting in a join's operator state and
//! the same tuple embedded in a downstream result share one allocation, so
//! cloning on the hot path is an atomic increment.
//!
//! Memory accounting intentionally charges the *full* estimated size to
//! every state that stores the tuple (see [`crate::mem`]): the paper's
//! machines each hold their own physical copy, and partition groups are
//! the unit whose sizes drive every adaptation decision.

use std::fmt;
use std::sync::Arc;

use crate::ids::StreamId;
use crate::mem::HeapSize;
use crate::time::VirtualTime;
use crate::value::Value;

/// Shared, immutable tuple payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TupleData {
    /// Which input stream produced the tuple.
    pub stream: StreamId,
    /// Per-stream sequence number (0-based arrival order).
    pub seq: u64,
    /// Virtual arrival timestamp.
    pub ts: VirtualTime,
    /// Column values.
    pub values: Box<[Value]>,
}

/// A reference-counted immutable tuple.
///
/// The [`HeapSize`] estimate is computed once at construction and cached
/// next to the `Arc`: accounting reads it on every insert, spill, purge
/// and snapshot, and tuples are immutable, so re-summing the payload per
/// call is pure waste on the hot path.
#[derive(Debug, Clone)]
pub struct Tuple {
    data: Arc<TupleData>,
    heap: usize,
}

/// Accounted heap bytes of a tuple with `arity` columns whose values'
/// [`Value::payload_bytes`] sum to `payload`: `Arc` control block,
/// [`TupleData`] inline fields and per-value enum slots, then the
/// variable payloads. The one formula behind [`Tuple::heap_size`] and
/// behind the size a [`TupleBatch`](crate::batch::TupleBatch) row is
/// accounted at, so a row and the tuple it encodes always agree.
pub fn heap_size(arity: usize, payload: usize) -> usize {
    const ARC_OVERHEAD: usize = 16;
    ARC_OVERHEAD + std::mem::size_of::<TupleData>() + arity * std::mem::size_of::<Value>() + payload
}

fn compute_heap_size(data: &TupleData) -> usize {
    let payload = data.values.iter().map(Value::payload_bytes).sum();
    heap_size(data.values.len(), payload)
}

impl Tuple {
    /// Build a tuple directly from parts.
    pub fn new(stream: StreamId, seq: u64, ts: VirtualTime, values: Vec<Value>) -> Self {
        let data = TupleData {
            stream,
            seq,
            ts,
            values: values.into_boxed_slice(),
        };
        let heap = compute_heap_size(&data);
        Tuple {
            data: Arc::new(data),
            heap,
        }
    }

    /// Origin stream.
    #[inline]
    pub fn stream(&self) -> StreamId {
        self.data.stream
    }

    /// Per-stream arrival sequence number.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.data.seq
    }

    /// Virtual arrival timestamp.
    #[inline]
    pub fn ts(&self) -> VirtualTime {
        self.data.ts
    }

    /// All column values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.data.values
    }

    /// The value in column `idx`, if present.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.data.values.get(idx)
    }

    /// Column count.
    #[inline]
    pub fn arity(&self) -> usize {
        self.data.values.len()
    }

    /// Access to the shared payload (for codecs).
    #[inline]
    pub fn data(&self) -> &TupleData {
        &self.data
    }

    /// A globally unique identity for result-dedup checks in tests:
    /// (stream, seq) pairs are unique by construction.
    #[inline]
    pub fn identity(&self) -> (StreamId, u64) {
        (self.data.stream, self.data.seq)
    }
}

impl From<TupleData> for Tuple {
    fn from(d: TupleData) -> Self {
        let heap = compute_heap_size(&d);
        Tuple {
            data: Arc::new(d),
            heap,
        }
    }
}

// Equality and hashing look only at the shared payload: the cached heap
// estimate is a pure function of it.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl HeapSize for Tuple {
    #[inline]
    fn heap_size(&self) -> usize {
        self.heap
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}(", self.stream(), self.seq())?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Fluent builder for tuples, used heavily in tests and examples.
#[derive(Debug, Default)]
pub struct TupleBuilder {
    stream: StreamId,
    seq: u64,
    ts: VirtualTime,
    values: Vec<Value>,
}

impl TupleBuilder {
    /// Start building a tuple for the given stream.
    pub fn new(stream: StreamId) -> Self {
        TupleBuilder {
            stream,
            ..Default::default()
        }
    }

    /// Set the per-stream sequence number.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Set the virtual arrival timestamp.
    pub fn ts(mut self, ts: VirtualTime) -> Self {
        self.ts = ts;
        self
    }

    /// Append one column value.
    pub fn value(mut self, v: impl Into<Value>) -> Self {
        self.values.push(v.into());
        self
    }

    /// Append an accounting-only padding column of `n` virtual bytes.
    pub fn pad(mut self, n: u32) -> Self {
        self.values.push(Value::Pad(n));
        self
    }

    /// Finish the tuple.
    pub fn build(self) -> Tuple {
        Tuple::new(self.stream, self.seq, self.ts, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tuple {
        TupleBuilder::new(StreamId(1))
            .seq(7)
            .ts(VirtualTime::from_millis(30))
            .value(42i64)
            .value("EUR")
            .pad(100)
            .build()
    }

    #[test]
    fn accessors() {
        let t = t();
        assert_eq!(t.stream(), StreamId(1));
        assert_eq!(t.seq(), 7);
        assert_eq!(t.ts().as_millis(), 30);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::Int(42)));
        assert_eq!(
            t.get(1).and_then(|v| v.as_text().map(str::to_owned)),
            Some("EUR".into())
        );
        assert_eq!(t.get(9), None);
        assert_eq!(t.identity(), (StreamId(1), 7));
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = t();
        let b = a.clone();
        assert_eq!(a, b);
        // Same allocation: data pointers coincide.
        assert!(std::ptr::eq(a.data(), b.data()));
    }

    #[test]
    fn heap_size_counts_pad_and_text() {
        let small = TupleBuilder::new(StreamId(0)).value(1i64).build();
        let padded = TupleBuilder::new(StreamId(0)).value(1i64).pad(1000).build();
        assert!(padded.heap_size() >= small.heap_size() + 1000 - std::mem::size_of::<Value>());
        assert!(small.heap_size() > 0);
    }

    #[test]
    fn display_mentions_stream_and_values() {
        let s = t().to_string();
        assert!(s.starts_with("S1#7("), "{s}");
        assert!(s.contains("42"), "{s}");
    }
}
