//! Intrusive LRU list over cache-slot indices (§4.6), shared by every
//! slot-indexed cache in the workspace.
//!
//! The paper keeps the LRU list in DRAM ("these structures are not needed
//! to be persistently stored in NVM as they can be reconstructed on the
//! startup of system"). Links are index-based — no per-node allocation on
//! the hot path. The slots `0..capacity` split into `sets` equal runs of
//! consecutive indices, each with its own MRU head and LRU tail:
//!
//! * Tinca's entry LRU and UBJ's clean-entry list pass `sets = 1`;
//! * Classic (Flashcache) passes its set count, so each set of its
//!   set-associative cache ages independently.
//!
//! Two replacement policies stay separate on purpose. `fssim`'s DRAM page
//! cache is keyed by sparse `u64` block numbers, not dense slot indices,
//! so an index-linked list would need a key-to-slot map of its own. kvdb
//! evicts the lowest clean page id, not the least recent one: it is a
//! memory bound on decoded pages, not a modelled cache.

const NIL: u32 = u32::MAX;

/// A set-partitioned, doubly-linked LRU list over `0..capacity` indices.
///
/// Each set's `head` is its MRU end and `tail` its LRU end. All
/// operations are O(1); iteration from a set's LRU end is used for
/// victim selection.
#[derive(Clone, Debug)]
pub struct LruList {
    prev: Vec<u32>, // towards MRU
    next: Vec<u32>, // towards LRU
    linked: Vec<bool>,
    head: Vec<u32>, // per set
    tail: Vec<u32>, // per set
    set_size: u32,
    len: usize,
}

impl LruList {
    /// Creates an empty list able to hold indices `0..capacity`, split
    /// into `sets` sets of `capacity / sets` consecutive indices.
    pub fn new(capacity: u32, sets: u32) -> Self {
        assert!(
            sets > 0 && capacity.is_multiple_of(sets),
            "{capacity} slots do not split into {sets} equal sets"
        );
        Self {
            prev: vec![NIL; capacity as usize],
            next: vec![NIL; capacity as usize],
            linked: vec![false; capacity as usize],
            head: vec![NIL; sets as usize],
            tail: vec![NIL; sets as usize],
            set_size: (capacity / sets).max(1),
            len: 0,
        }
    }

    fn set_of(&self, idx: u32) -> usize {
        (idx / self.set_size) as usize
    }

    /// Linked indices over all sets.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, idx: u32) -> bool {
        self.linked[idx as usize]
    }

    /// Inserts `idx` at its set's MRU end. Panics if already present.
    pub fn push_mru(&mut self, idx: u32) {
        assert!(
            !self.linked[idx as usize],
            "index {idx} already in LRU list"
        );
        let set = self.set_of(idx);
        let i = idx as usize;
        self.prev[i] = NIL;
        self.next[i] = self.head[set];
        if self.head[set] != NIL {
            self.prev[self.head[set] as usize] = idx;
        } else {
            self.tail[set] = idx;
        }
        self.head[set] = idx;
        self.linked[i] = true;
        self.len += 1;
    }

    /// Removes `idx` from the list. Panics if absent.
    pub fn remove(&mut self, idx: u32) {
        assert!(self.linked[idx as usize], "index {idx} not in LRU list");
        let set = self.set_of(idx);
        let i = idx as usize;
        let (p, n) = (self.prev[i], self.next[i]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head[set] = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail[set] = p;
        }
        self.prev[i] = NIL;
        self.next[i] = NIL;
        self.linked[i] = false;
        self.len -= 1;
    }

    /// Moves `idx` to its set's MRU end (a cache hit).
    pub fn touch(&mut self, idx: u32) {
        if self.head[self.set_of(idx)] == idx {
            return;
        }
        self.remove(idx);
        self.push_mru(idx);
    }

    /// The LRU-end index of `set`, if the set has any linked index.
    pub fn lru(&self, set: u32) -> Option<u32> {
        let t = self.tail[set as usize];
        (t != NIL).then_some(t)
    }

    /// Iterates `set`'s indices from LRU to MRU (victim-selection order).
    pub fn iter_lru(&self, set: u32) -> LruIter<'_> {
        LruIter {
            list: self,
            cur: self.tail[set as usize],
        }
    }
}

/// Iterator over one set of an [`LruList`] from the LRU end towards MRU.
pub struct LruIter<'a> {
    list: &'a LruList,
    cur: u32,
}

impl Iterator for LruIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NIL {
            return None;
        }
        let idx = self.cur;
        self.cur = self.list.prev[idx as usize];
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn order(l: &LruList, set: u32) -> Vec<u32> {
        l.iter_lru(set).collect()
    }

    #[test]
    fn push_and_order() {
        let mut l = LruList::new(8, 1);
        l.push_mru(1);
        l.push_mru(2);
        l.push_mru(3);
        assert_eq!(order(&l, 0), vec![1, 2, 3]);
        assert_eq!(l.lru(0), Some(1));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut l = LruList::new(8, 1);
        for i in 0..4 {
            l.push_mru(i);
        }
        l.touch(0);
        assert_eq!(order(&l, 0), vec![1, 2, 3, 0]);
        assert_eq!(l.lru(0), Some(1));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new(4, 1);
        l.push_mru(1);
        l.push_mru(2);
        l.touch(2);
        assert_eq!(order(&l, 0), vec![1, 2]);
    }

    #[test]
    fn remove_middle_head_tail() {
        let mut l = LruList::new(8, 1);
        for i in 0..5 {
            l.push_mru(i);
        }
        l.remove(2); // middle
        l.remove(4); // head (MRU)
        l.remove(0); // tail (LRU)
        assert_eq!(order(&l, 0), vec![1, 3]);
        assert!(!l.contains(2));
        assert!(l.contains(3));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn remove_last_element_empties() {
        let mut l = LruList::new(2, 1);
        l.push_mru(0);
        l.remove(0);
        assert!(l.is_empty());
        assert_eq!(l.lru(0), None);
        // reuse after emptying works
        l.push_mru(1);
        assert_eq!(l.lru(0), Some(1));
    }

    #[test]
    fn per_set_isolation() {
        let mut l = LruList::new(8, 2);
        l.push_mru(0); // set 0
        l.push_mru(5); // set 1
        l.push_mru(1); // set 0
        assert_eq!(l.lru(0), Some(0));
        assert_eq!(l.lru(1), Some(5));
        l.touch(0);
        assert_eq!(l.lru(0), Some(1));
        assert_eq!(l.lru(1), Some(5), "other set untouched");
        assert_eq!(order(&l, 0), vec![1, 0]);
        assert_eq!(l.len(), 3, "len counts every set");
        l.remove(5);
        assert_eq!(l.lru(1), None);
        assert_eq!(l.lru(0), Some(1), "emptying one set leaves the other");
    }

    #[test]
    #[should_panic(expected = "already in LRU")]
    fn double_push_panics() {
        let mut l = LruList::new(2, 1);
        l.push_mru(0);
        l.push_mru(0);
    }

    #[test]
    #[should_panic(expected = "not in LRU")]
    fn remove_absent_panics() {
        let mut l = LruList::new(2, 1);
        l.remove(1);
    }

    #[test]
    #[should_panic(expected = "equal sets")]
    fn uneven_sets_panic() {
        LruList::new(10, 4);
    }

    /// Random push/touch/remove against one `VecDeque` per set (front =
    /// MRU), for a single list and a set-partitioned one.
    #[test]
    fn stress_against_reference_model() {
        for sets in [1u32, 4] {
            let mut l = LruList::new(64, sets);
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); sets as usize];
            let set_of = |idx: u32| (idx / (64 / sets)) as usize;
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for step in 0..10_000u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = (x >> 33) as u32 % 64;
                let m = &mut model[set_of(idx)];
                match step % 3 {
                    0 => {
                        if !l.contains(idx) {
                            l.push_mru(idx);
                            m.push_front(idx);
                        }
                    }
                    1 => {
                        if l.contains(idx) {
                            l.touch(idx);
                            m.retain(|&v| v != idx);
                            m.push_front(idx);
                        }
                    }
                    _ => {
                        if l.contains(idx) {
                            l.remove(idx);
                            m.retain(|&v| v != idx);
                        }
                    }
                }
                assert_eq!(l.len(), model.iter().map(VecDeque::len).sum::<usize>());
            }
            for (set, m) in model.iter().enumerate() {
                let want: Vec<u32> = m.iter().rev().copied().collect();
                assert_eq!(order(&l, set as u32), want, "sets={sets} set={set}");
                assert_eq!(l.lru(set as u32), want.first().copied());
            }
        }
    }
}
