//! Classic's per-set LRU ordering, as it uses the shared
//! [`blockdev::LruList`]: slots `set * assoc .. (set + 1) * assoc` form one
//! set, and each set ages on its own (Flashcache's LRU within a set).

#[cfg(test)]
mod tests {
    use blockdev::LruList;

    /// The list the cache builds for `num_sets` sets of `assoc` slots.
    fn set_lru(num_sets: u32, assoc: u32) -> LruList {
        LruList::new(num_sets * assoc, num_sets)
    }

    #[test]
    fn remove_updates_tail() {
        let mut l = set_lru(2, 4);
        l.push_mru(4); // set 1
        l.push_mru(5);
        l.remove(4);
        assert_eq!(l.lru(1), Some(5));
        l.remove(5);
        assert_eq!(l.lru(1), None);
        assert_eq!(l.lru(0), None, "set 0 was never linked");
    }

    #[test]
    fn touch_mru_noop() {
        let mut l = set_lru(2, 4);
        l.push_mru(6); // set 1
        l.push_mru(7);
        l.touch(7);
        assert_eq!(l.lru(1), Some(6));
        assert_eq!(l.iter_lru(1).collect::<Vec<_>>(), vec![6, 7]);
    }

    #[test]
    #[should_panic(expected = "already in LRU")]
    fn double_push_panics() {
        let mut l = set_lru(2, 4);
        l.push_mru(0);
        l.push_mru(0);
    }
}
