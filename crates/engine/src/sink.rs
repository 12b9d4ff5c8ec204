//! Result sinks.
//!
//! Join results are delivered through a [`ResultSink`] rather than
//! returned as allocated vectors: the experiments count millions of
//! results per run, and the paper's metric of interest is the *output
//! rate*, not the output contents. [`CountingSink`] makes the hot path
//! allocation-free; [`CollectingSink`] materializes results for
//! correctness tests and the cleanup-completeness proofs.
//!
//! Delivery is **span-based**: producers hand a whole probe product to
//! the sink as one [`ProbeSpans`] via [`ResultSink::emit_product`].
//! The default implementation enumerates every window-valid combination
//! and calls [`ResultSink::emit`] — exact per-result semantics for
//! collecting sinks — while count-only sinks override it to count
//! without enumerating (see [`ProbeSpans::count_valid`]).

use crate::probe::ProbeSpans;
use dcape_common::tuple::Tuple;

/// Receiver of m-way join results.
///
/// `parts` holds one matched tuple per input stream, in stream order
/// (`parts[s]` came from stream `s`).
pub trait ResultSink {
    /// Deliver one result.
    fn emit(&mut self, parts: &[&Tuple]);

    /// Deliver a whole probe product in one call, returning the number
    /// of window-valid results it contained. The default enumerates
    /// every valid combination through [`emit`](Self::emit); count-only
    /// sinks override it to count in O(m) instead.
    fn emit_product(&mut self, spans: &ProbeSpans<'_, '_>) -> u64 {
        let mut emitted = 0u64;
        spans.for_each_valid(|parts| {
            self.emit(parts);
            emitted += 1;
        });
        emitted
    }

    /// Does this sink ever dereference result tuples? Count-only sinks
    /// return `false`, letting a probe deliver timestamp-only span
    /// lists without materializing rows — what decides whether a product
    /// is counted or enumerated is the sink, never an option. A sink
    /// answering `false` must not call [`crate::probe::SpanList::get`]
    /// (i.e. must not enumerate through `emit`).
    fn wants_rows(&self) -> bool {
        true
    }
}

/// Counts results without materializing them.
#[derive(Debug, Default)]
pub struct CountingSink {
    count: u64,
}

impl CountingSink {
    /// New sink with a zero count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Results seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl ResultSink for CountingSink {
    #[inline]
    fn emit(&mut self, _parts: &[&Tuple]) {
        self.count += 1;
    }

    /// Count-only fast path: no enumeration, just
    /// [`ProbeSpans::count_valid`].
    #[inline]
    fn emit_product(&mut self, spans: &ProbeSpans<'_, '_>) -> u64 {
        let n = spans.count_valid();
        self.count += n;
        n
    }

    #[inline]
    fn wants_rows(&self) -> bool {
        false
    }
}

/// Materializes every result as a boxed slice of tuples (stream order).
#[derive(Debug, Default)]
pub struct CollectingSink {
    results: Vec<Box<[Tuple]>>,
}

impl CollectingSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected results.
    pub fn results(&self) -> &[Box<[Tuple]>] {
        &self.results
    }

    /// Consume the sink, returning the results.
    pub fn into_results(self) -> Vec<Box<[Tuple]>> {
        self.results
    }

    /// Move every result of `other` to the end of this sink (one
    /// multiset out of per-engine sinks).
    pub fn append(&mut self, other: CollectingSink) {
        self.results.extend(other.results);
    }

    /// Result count.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Canonical identities of all results — each result reduced to the
    /// sorted-by-stream list of `(stream, seq)` pairs — for multiset
    /// comparison against a reference join in tests.
    pub fn identities(&self) -> Vec<Vec<(u8, u64)>> {
        let mut ids: Vec<Vec<(u8, u64)>> = self
            .results
            .iter()
            .map(|r| r.iter().map(|t| (t.stream().0, t.seq())).collect())
            .collect();
        ids.sort();
        ids
    }
}

impl ResultSink for CollectingSink {
    fn emit(&mut self, parts: &[&Tuple]) {
        self.results
            .push(parts.iter().map(|&t| t.clone()).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;

    fn tuples() -> Vec<Tuple> {
        (0..3u8)
            .map(|s| {
                TupleBuilder::new(StreamId(s))
                    .seq(s as u64)
                    .value(1i64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn counting_sink_counts() {
        let ts = tuples();
        let parts: Vec<&Tuple> = ts.iter().collect();
        let mut sink = CountingSink::new();
        sink.emit(&parts);
        sink.emit(&parts);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn collecting_sink_materializes_in_stream_order() {
        let ts = tuples();
        let parts: Vec<&Tuple> = ts.iter().collect();
        let mut sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.emit(&parts);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.results()[0].len(), 3);
        assert_eq!(sink.results()[0][1].stream(), StreamId(1));
        let ids = sink.identities();
        assert_eq!(ids, vec![vec![(0, 0), (1, 1), (2, 2)]]);
    }

    #[test]
    fn counting_sink_emit_product_matches_enumeration() {
        use crate::probe::SpanList;
        let a = tuples();
        let b = tuples();
        let lists = [SpanList::Slice(&a), SpanList::Slice(&b)];
        let spans = ProbeSpans::new(&lists, None, true);
        let mut fast = CountingSink::new();
        let mut slow = CollectingSink::new();
        assert_eq!(fast.emit_product(&spans), 9);
        assert_eq!(slow.emit_product(&spans), 9);
        assert_eq!(fast.count(), slow.len() as u64);
    }

    #[test]
    fn collecting_sink_emit_product_enumerates() {
        use crate::probe::SpanList;
        let a = tuples();
        let single = tuples();
        let lists = [SpanList::Slice(&a), SpanList::One(&single[0])];
        let spans = ProbeSpans::new(&lists, None, true);
        let mut sink = CollectingSink::new();
        assert_eq!(sink.emit_product(&spans), 3);
        assert_eq!(sink.len(), 3);
        for r in sink.results() {
            assert_eq!(r.len(), 2);
        }
    }
}
