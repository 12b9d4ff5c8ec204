//! The arena encoded rows rest in: a list of pages of fixed capacity.
//!
//! Rows sit back to back inside a page and never straddle two, so a row
//! is one contiguous slice wherever it is read — by a probe, by the
//! block codec, by the cleanup merge. Appending never reallocates and
//! never moves an earlier row: a page that cannot take the next row is
//! closed as it is and a new one opened. Retiring a prefix frees whole
//! pages. The join state, a snapshot and a decoded segment all hold
//! their rows in this one container and hand it to each other by move.
//!
//! A row's address is `(page, end)`: the number of its page and the
//! offset in it where the row ends. It starts where the previous row
//! ended when that one shares the page, at 0 when it does not — so the
//! holder of the addresses, in row order, needs no start column. Page
//! numbers only go up (they wrap at 2³², far beyond the pages 4 GiB of
//! rows can fill), so the address of a live row stays good while rows
//! before it are dropped.
//!
//! How large a page is, is a rule and not a setting: a new page gets the
//! bytes the arena already holds, rounded up to a power of two, within
//! [`PAGE_MIN`]`..=`[`PAGE_MAX`] — a ~2 KB arena of a windowed join
//! stays ~2 KB, a 180 KiB one carries at most one page of slack, and
//! every page freed is one of seven sizes the allocator hands out again
//! exactly. A row larger than that gets a page of exactly its size.

use std::collections::VecDeque;

/// Capacity of an empty arena's first page.
pub const PAGE_MIN: usize = 512;

/// Largest capacity the growth rule gives a page; only a single row
/// larger than this gets a larger one.
pub const PAGE_MAX: usize = 32 << 10;

/// A row's address: the number of its page and the offset in that page
/// where the row ends.
pub type RowAt = (u32, u32);

/// Encoded rows in pages; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct RowPages {
    /// Pages no row will be added to any more, oldest first; the last
    /// one is page `open_no - 1`.
    closed: VecDeque<Vec<u8>>,
    /// The page rows are appended to, a field of its own so that an
    /// append reads nothing else. Its capacity never changes once
    /// allocated.
    open: Vec<u8>,
    /// The open page's number.
    open_no: u32,
    /// Bytes of all rows held.
    len: usize,
}

impl RowPages {
    /// Bytes of all rows held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no row bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the pages occupy: the sum of their capacities.
    pub fn reserved(&self) -> usize {
        self.open.capacity() + self.closed.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Append `row` and return its address.
    #[inline]
    pub fn push(&mut self, row: &[u8]) -> RowAt {
        if row.len() > self.open.capacity() - self.open.len() {
            self.turn_page(row.len());
        }
        self.open.extend_from_slice(row);
        self.len += row.len();
        (self.open_no, self.open.len() as u32)
    }

    /// Append a row of at most `len` bytes that `write` appends to the
    /// page it is given (and does nothing else to), and return its
    /// address: for a caller that encodes the row rather than holds it.
    pub fn push_with(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) -> RowAt {
        if len > self.open.capacity() - self.open.len() {
            self.turn_page(len);
        }
        let (start, capacity) = (self.open.len(), self.open.capacity());
        write(&mut self.open);
        assert!(
            self.open.len() >= start && self.open.capacity() == capacity,
            "a row of at most {len} bytes was announced"
        );
        self.len += self.open.len() - start;
        (self.open_no, self.open.len() as u32)
    }

    /// Close the open page and open one that holds `need` bytes.
    #[cold]
    fn turn_page(&mut self, need: usize) {
        assert!(need <= u32::MAX as usize, "a row's end is a u32 offset");
        let rule = self.len.next_power_of_two().clamp(PAGE_MIN, PAGE_MAX);
        let full = std::mem::replace(&mut self.open, Vec::with_capacity(rule.max(need)));
        // A page nothing was written to gives its number to the new one.
        if !full.is_empty() {
            self.closed.push_back(full);
            self.open_no = self.open_no.wrapping_add(1);
        }
    }

    fn page(&self, page: u32) -> &[u8] {
        match self.open_no.wrapping_sub(page) as usize {
            0 => &self.open,
            back => &self.closed[self.closed.len() - back],
        }
    }

    /// The row at address `at`, `prev` being the address of the row
    /// pushed before it (`None` for the first row held).
    #[inline]
    pub fn row(&self, prev: Option<RowAt>, (page, end): RowAt) -> &[u8] {
        let start = match prev {
            Some((before, end)) if before == page => end,
            _ => 0,
        };
        &self.page(page)[start as usize..end as usize]
    }

    /// Let go of every row that ends at or before `offset` of page
    /// `page`: the pages before it are freed whole, and the rows left in
    /// `page` move to its front — `offset` comes off the `end` of each.
    /// To drop every row, [`clear`](Self::clear) instead.
    pub fn drop_before(&mut self, page: u32, offset: u32) {
        let kept = self.open_no.wrapping_sub(page) as usize;
        for gone in self.closed.drain(..self.closed.len() - kept) {
            self.len -= gone.len();
        }
        let first = self.closed.front_mut().unwrap_or(&mut self.open);
        first.drain(..offset as usize);
        self.len -= offset as usize;
    }

    /// Free every page. No page number in use so far is handed out
    /// again.
    pub fn clear(&mut self) {
        self.closed.clear();
        self.open = Vec::new();
        self.open_no = self.open_no.wrapping_add(1);
        self.len = 0;
    }

    /// Take `later`'s pages in behind these, moving them as they are,
    /// and return what to add (wrapping) to the page of every address
    /// `later` handed out.
    pub fn absorb(&mut self, later: RowPages) -> u32 {
        let open = std::mem::replace(&mut self.open, later.open);
        if !open.is_empty() {
            self.closed.push_back(open);
            self.open_no = self.open_no.wrapping_add(1);
        }
        let first = later.open_no.wrapping_sub(later.closed.len() as u32);
        let shift = self.open_no.wrapping_sub(first);
        self.open_no = self.open_no.wrapping_add(later.closed.len() as u32);
        self.closed.extend(later.closed);
        self.len += later.len;
        shift
    }

    /// Test-only: every page's capacity, oldest first.
    #[cfg(test)]
    fn capacities(&self) -> Vec<usize> {
        let pages = self.closed.iter().chain([&self.open]);
        pages.map(Vec::capacity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `n` bytes no other row of a test has.
    fn row_of(n: usize, tag: u8) -> Vec<u8> {
        (0..n).map(|i| tag.wrapping_add(i as u8)).collect()
    }

    #[test]
    fn a_small_arena_stays_small_and_pages_double_up_to_the_cap() {
        let mut pages = RowPages::default();
        assert_eq!((pages.len(), pages.reserved()), (0, 0));
        let mut rows = Vec::new();
        for i in 0..200 {
            rows.push(pages.push(&row_of(10, i as u8)));
        }
        assert_eq!(pages.len(), 2000);
        // 51 rows fill 510 of 512 bytes; the page after 1 020 bytes held
        // is one of 1 024.
        assert_eq!(pages.capacities(), [512, 512, 1024]);
        assert_eq!(rows[50], (0, 510));
        assert_eq!(rows[51], (1, 10));
        for i in 200..20_000 {
            rows.push(pages.push(&row_of(10, i as u8)));
        }
        let capacities = pages.capacities();
        assert_eq!(capacities[..7], [512, 512, 1024, 2048, 4096, 8192, 16384]);
        assert!(capacities[7..].iter().all(|&c| c == PAGE_MAX));
        for (i, &at) in rows.iter().enumerate() {
            let prev = i.checked_sub(1).map(|j| rows[j]);
            assert_eq!(pages.row(prev, at), row_of(10, i as u8));
        }
    }

    #[test]
    fn a_row_larger_than_a_page_gets_one_of_exactly_its_size() {
        let mut pages = RowPages::default();
        let small = pages.push(&row_of(10, 1));
        let huge = pages.push(&row_of(PAGE_MAX + 7, 2));
        let next = pages.push(&row_of(10, 3));
        assert_eq!(pages.capacities(), [PAGE_MIN, PAGE_MAX + 7, PAGE_MAX]);
        assert_eq!(
            (small.0, huge, next),
            (0, (1, (PAGE_MAX + 7) as u32), (2, 10))
        );
        assert_eq!(pages.row(Some(small), huge), row_of(PAGE_MAX + 7, 2));
        assert_eq!(pages.row(Some(huge), next), row_of(10, 3));
        // Also the first row of an empty arena, larger than `PAGE_MIN`.
        let mut pages = RowPages::default();
        pages.push(&row_of(1040, 4));
        pages.push(&row_of(1040, 5));
        assert_eq!(pages.capacities(), [1040, 2048]);
    }

    #[test]
    fn dropping_a_prefix_frees_whole_pages_and_moves_one_pages_tail() {
        let mut pages = RowPages::default();
        let rows: Vec<_> = (0..120).map(|i| pages.push(&row_of(10, i))).collect();
        assert_eq!(pages.capacities(), [512, 512, 1024]);
        // Row 60 is the tenth of page 1: page 0 goes, 90 bytes of
        // page 1 go, and what page 2 holds is not touched.
        assert_eq!((rows[59], rows[60]), ((1, 90), (1, 100)));
        pages.drop_before(1, 90);
        assert_eq!(pages.capacities(), [512, 1024]);
        assert_eq!(pages.len(), 600);
        assert_eq!(pages.row(None, (1, 10)), row_of(10, 60));
        assert_eq!(pages.row(Some((1, 10)), (1, 20)), row_of(10, 61));
        assert_eq!(pages.row(Some(rows[101]), rows[102]), row_of(10, 102));
        // Appending goes on in the open page under its old number.
        assert_eq!(pages.push(&row_of(10, 120)), (2, 190));
    }

    #[test]
    fn a_row_encoded_into_its_page_reads_back() {
        let mut pages = RowPages::default();
        let (mut prev, mut bytes) = (None, 0);
        for i in 0..100u8 {
            let row = row_of(7 + i as usize, i);
            // Two bytes announced and not written: a page may turn early.
            let at = pages.push_with(row.len() + 2, |page| page.extend_from_slice(&row));
            assert_eq!(pages.row(prev, at), row);
            prev = Some(at);
            bytes += row.len();
        }
        assert_eq!(pages.len(), bytes);
        assert!(pages.capacities().len() > 3);
    }

    #[test]
    #[should_panic(expected = "was announced")]
    fn a_row_that_outgrows_what_it_announced_is_a_bug() {
        RowPages::default().push_with(4, |page| page.extend_from_slice(&[0; PAGE_MIN + 1]));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize),
        /// Drop this share (in 1/8) of the live rows, oldest first.
        DropBefore(usize),
        Clear,
        /// Absorb an arena of rows of these lengths.
        Absorb(Vec<usize>),
    }

    fn len_strategy() -> impl Strategy<Value = usize> {
        // Unweighted arms: short rows are listed more than once so that
        // pages hold many of them.
        prop_oneof![
            0usize..40,
            0usize..40,
            0usize..40,
            300usize..1500,
            5000usize..9000,
            PAGE_MAX + 1..PAGE_MAX + 100,
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            len_strategy().prop_map(Op::Push),
            len_strategy().prop_map(Op::Push),
            len_strategy().prop_map(Op::Push),
            len_strategy().prop_map(Op::Push),
            (0usize..9).prop_map(Op::DropBefore),
            (0usize..9).prop_map(Op::DropBefore),
            (0usize..1).prop_map(|_| Op::Clear),
            proptest::collection::vec(len_strategy(), 0..12).prop_map(Op::Absorb),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: crate::testing::proptest_cases(64),
            ..ProptestConfig::default()
        })]

        /// Random pushes, prefix drops, clears and absorbs against a
        /// list of the live rows and their addresses.
        #[test]
        fn pages_match_a_list_of_rows(ops in proptest::collection::vec(op_strategy(), 1..250)) {
            let mut pages = RowPages::default();
            // The live rows, oldest first: address and bytes.
            let mut live: Vec<(RowAt, Vec<u8>)> = Vec::new();
            // Every page number below this one has been freed.
            let mut freed_below = 0u32;
            let mut longest = 0usize;
            let mut tag = 0u8;
            let mut fresh = |n: usize| {
                tag = tag.wrapping_add(1);
                row_of(n, tag)
            };
            for op in ops {
                match op {
                    Op::Push(n) => {
                        let row = fresh(n);
                        longest = longest.max(n);
                        let at = pages.push(&row);
                        prop_assert!(at.0 >= freed_below, "page {} handed out again", at.0);
                        live.push((at, row));
                    }
                    Op::DropBefore(eighths) => {
                        let k = live.len() * eighths / 8;
                        if k == live.len() {
                            pages.clear();
                            freed_below = live.last().map_or(freed_below, |(at, _)| at.0 + 1);
                            live.clear();
                        } else if k > 0 {
                            let ((last_gone, cut), _) = live[k - 1];
                            let page = live[k].0 .0;
                            let cut = if last_gone == page { cut } else { 0 };
                            pages.drop_before(page, cut);
                            freed_below = page;
                            live.drain(..k);
                            for (at, _) in live.iter_mut().take_while(|(at, _)| at.0 == page) {
                                at.1 -= cut;
                            }
                        }
                    }
                    Op::Clear => {
                        pages.clear();
                        freed_below = live.last().map_or(freed_below, |(at, _)| at.0 + 1);
                        live.clear();
                    }
                    Op::Absorb(lens) => {
                        let mut later = RowPages::default();
                        // A cleared arena does not restart its numbers.
                        later.push(&[1]);
                        later.clear();
                        let rows: Vec<_> = lens.iter().map(|&n| fresh(n)).collect();
                        let held: Vec<_> = rows.iter().map(|row| later.push(row)).collect();
                        longest = lens.iter().fold(longest, |l, &n| l.max(n));
                        let shift = pages.absorb(later);
                        for ((page, end), row) in held.into_iter().zip(rows) {
                            let at = (page.wrapping_add(shift), end);
                            prop_assert!(at.0 >= freed_below, "page {} handed out again", at.0);
                            live.push((at, row));
                        }
                    }
                }
                prop_assert_eq!(pages.len(), live.iter().map(|(_, row)| row.len()).sum::<usize>());
                prop_assert_eq!(pages.is_empty(), live.iter().all(|(_, row)| row.is_empty()));
                let mut prev = None;
                for (at, row) in &live {
                    // One slice of one page: a row never straddles two.
                    prop_assert_eq!(pages.row(prev, *at), &row[..]);
                    prev = Some(*at);
                }
                let capacities = pages.capacities();
                prop_assert!(capacities.iter().all(|&c| c <= PAGE_MAX.max(longest)));
                prop_assert_eq!(pages.reserved(), capacities.iter().sum::<usize>());
                // At most the rows and, per page, its unused tail.
                prop_assert!(live.is_empty() || pages.reserved() >= pages.len());
            }
        }
    }
}
