//! An LRU result cache keyed by canonical instance bytes.
//!
//! The cache maps the full cache key (problem + execution mode + canonical
//! instance blob, see `SolveRequest::cache_key`) to the pre-encoded result
//! body, so a hit is a byte copy — no recomputation, no re-encoding. Keys
//! are compared by their full bytes (the FNV digest is only a reporting
//! convenience elsewhere), so hash collisions cannot serve a wrong result.
//!
//! The implementation is a classic slab-backed intrusive doubly linked list
//! plus a `HashMap` from key to slot: `get`, `insert` and eviction are all
//! O(1) (amortised). Hit/miss/eviction counters live here and are reported
//! through the service's stats endpoint.

use std::collections::HashMap;

const NIL: usize = usize::MAX;

struct Slot {
    key: Vec<u8>,
    value: Vec<u8>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache with counters.
pub struct LruCache {
    cap: usize,
    /// Resident-byte budget over keys + values. Entry counts alone do not
    /// bound memory — a key embeds a whole canonical instance blob, so a
    /// stream of large-but-valid instances could otherwise pin `cap` ×
    /// hundreds of MB long after the requests finish.
    byte_budget: usize,
    /// Resident bytes currently held (see [`Self::entry_bytes`]: keys count
    /// twice because the slot and the map each hold a copy).
    bytes: usize,
    map: HashMap<Vec<u8>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruCache {
    /// A cache holding at most `cap` entries with an unlimited byte budget
    /// (`cap == 0` disables caching: every lookup misses and inserts are
    /// dropped).
    pub fn new(cap: usize) -> LruCache {
        LruCache::with_byte_budget(cap, usize::MAX)
    }

    /// A cache holding at most `cap` entries and at most `byte_budget`
    /// resident bytes (each key counted twice — slot + map copy — plus the
    /// value), whichever bound bites first. An entry larger than the whole
    /// budget is not cached at all.
    pub fn with_byte_budget(cap: usize, byte_budget: usize) -> LruCache {
        LruCache {
            cap,
            byte_budget,
            bytes: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks `key` up, marking the entry most-recently-used on a hit.
    /// Counts a hit or a miss.
    pub fn get(&mut self, key: &[u8]) -> Option<&[u8]> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(&self.slots[i].value[..])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// True when `key` is cached. Counts nothing and leaves the recency
    /// order alone, so a caller can decide whether a whole request is
    /// served from cache before [`Self::get`] counts and touches each hit.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Bytes an entry pins: the key is held twice (the slot's copy plus the
    /// `HashMap`'s own key), the value once.
    fn entry_bytes(key: &[u8], value: &[u8]) -> usize {
        2 * key.len() + value.len()
    }

    /// Drops the least-recently-used entry, releasing its bytes.
    fn evict_tail(&mut self) {
        let lru = self.tail;
        debug_assert_ne!(lru, NIL);
        self.unlink(lru);
        let old_key = std::mem::take(&mut self.slots[lru].key);
        let old_val = std::mem::take(&mut self.slots[lru].value);
        self.bytes -= Self::entry_bytes(&old_key, &old_val);
        self.map.remove(&old_key);
        self.free.push(lru);
        self.evictions += 1;
    }

    /// Inserts (or replaces) `key`, evicting least-recently-used entries
    /// while over the entry capacity or the byte budget.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        if self.cap == 0 {
            return;
        }
        let entry = Self::entry_bytes(&key, &value);
        if entry > self.byte_budget {
            return; // evicting everything still would not make it fit
        }
        if let Some(&i) = self.map.get(&key) {
            self.bytes = self.bytes - self.slots[i].value.len() + value.len();
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
            // A grown replacement can push past the budget; the refreshed
            // entry sits at the head and alone fits, so this terminates.
            while self.bytes > self.byte_budget {
                self.evict_tail();
            }
            return;
        }
        while self.map.len() >= self.cap || self.bytes + entry > self.byte_budget {
            if self.tail == NIL {
                break;
            }
            self.evict_tail();
        }
        self.bytes += entry;
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot { key: key.clone(), value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slots.push(Slot { key: key.clone(), value, prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.push_front(i);
        self.map.insert(key, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(b: u8) -> Vec<u8> {
        vec![b; 4]
    }

    #[test]
    fn hit_miss_counters() {
        let mut c = LruCache::new(4);
        assert_eq!(c.get(&k(1)), None);
        c.insert(k(1), vec![10]);
        assert_eq!(c.get(&k(1)), Some(&[10][..]));
        assert_eq!(c.counters(), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn contains_counts_nothing_and_keeps_the_order() {
        let mut c = LruCache::new(2);
        c.insert(k(1), vec![1]);
        c.insert(k(2), vec![2]);
        assert!(c.contains(&k(1)));
        assert!(!c.contains(&k(3)));
        assert_eq!(c.counters(), (0, 0, 0));
        // `contains` did not refresh 1, so it is still the LRU entry.
        c.insert(k(3), vec![3]);
        assert!(!c.contains(&k(1)));
        assert!(c.contains(&k(2)));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(k(1), vec![1]);
        c.insert(k(2), vec![2]);
        c.insert(k(3), vec![3]);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&k(1)).is_some());
        c.insert(k(4), vec![4]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&k(2)), None, "LRU entry evicted");
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(3)).is_some());
        assert!(c.get(&k(4)).is_some());
        let (_, _, evictions) = c.counters();
        assert_eq!(evictions, 1);
    }

    #[test]
    fn eviction_order_is_exact() {
        let mut c = LruCache::new(2);
        for i in 0..10u8 {
            c.insert(k(i), vec![i]);
        }
        // Only the two most recent survive.
        assert!(c.get(&k(8)).is_some());
        assert!(c.get(&k(9)).is_some());
        for i in 0..8u8 {
            assert_eq!(c.get(&k(i)), None, "entry {i}");
        }
        assert_eq!(c.counters().2, 8);
    }

    #[test]
    fn replace_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(k(1), vec![1]);
        c.insert(k(1), vec![9]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k(1)), Some(&[9][..]));
        assert_eq!(c.counters().2, 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert(k(1), vec![1]);
        assert_eq!(c.get(&k(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn byte_budget_bounds_resident_bytes() {
        // Three 60-byte entries (the key is held twice: 2·20 + 20) fit a
        // 150-byte budget only two at a time.
        let mut c = LruCache::with_byte_budget(16, 150);
        c.insert(vec![1; 20], vec![1; 20]);
        c.insert(vec![2; 20], vec![2; 20]);
        c.insert(vec![3; 20], vec![3; 20]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().2, 1);
        assert_eq!(c.get(&[1u8; 20][..]), None, "oldest evicted by the byte budget");
        assert!(c.get(&[3u8; 20][..]).is_some());
        // An entry larger than the whole budget is not cached at all.
        c.insert(vec![4; 60], vec![4; 60]);
        assert_eq!(c.len(), 2);
        // A replacement that grows an entry evicts others to stay in budget.
        c.insert(vec![3; 20], vec![3; 70]);
        assert_eq!(c.len(), 1);
        assert!(c.get(&[3u8; 20][..]).is_some());
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = LruCache::new(1);
        for i in 0..100u8 {
            c.insert(k(i), vec![i]);
        }
        // One live slot, the rest recycled through the free list.
        assert_eq!(c.len(), 1);
        assert!(c.slots.len() <= 2);
    }
}
