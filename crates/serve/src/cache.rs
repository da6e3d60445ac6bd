//! Warm-start cache: completed solutions keyed by problem fingerprint.
//!
//! A serving workload re-submits near-identical problems constantly
//! (receding-horizon MPC re-solves the same controller every tick). The
//! cache keys final [`VarStore`]s by
//! [`crate::protocol::request_fingerprint`] — a hash of topology, ρ/α
//! *and* each factor's prox-operator encoding — so an exact
//! re-submission starts from the previous solution instead of zeros,
//! while a same-shaped problem with a different objective gets its own
//! key (requests whose operators have no stable encoding are never
//! cache-keyed at all). Warm-starting changes the *trajectory*, not
//! the contract: a served warm-started run stays bit-identical to a
//! solo run given the same warm start.

use std::collections::HashMap;

use paradmm_graph::VarStore;

/// Bounded LRU map from problem fingerprint to final solver state.
#[derive(Debug, Default)]
pub(crate) struct WarmStartCache {
    capacity: usize,
    map: HashMap<u64, VarStore>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
}

impl WarmStartCache {
    /// A cache holding at most `capacity` entries (`0` disables caching:
    /// every lookup misses and inserts are dropped).
    pub(crate) fn new(capacity: usize) -> Self {
        WarmStartCache {
            capacity,
            ..WarmStartCache::default()
        }
    }

    fn touch(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push(key);
    }

    /// The cached solution for `key`, bumping its recency.
    pub(crate) fn get(&mut self, key: u64) -> Option<VarStore> {
        let store = self.map.get(&key).cloned()?;
        self.touch(key);
        Some(store)
    }

    /// Caches `store` under `key`, evicting the least-recently-used
    /// entry if the cache is full.
    pub(crate) fn insert(&mut self, key: u64, store: VarStore) {
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(&oldest) = self.order.first() {
                self.order.remove(0);
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, store);
        self.touch(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: f64) -> VarStore {
        let mut s = VarStore::zeros_shape(1, 1, 1);
        s.x[0] = tag;
        s
    }

    #[test]
    fn get_returns_inserted_store() {
        let mut c = WarmStartCache::new(4);
        assert!(c.get(7).is_none());
        c.insert(7, store(1.5));
        let hit = c.get(7).expect("cached");
        assert_eq!(hit.x[0], 1.5);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = WarmStartCache::new(2);
        c.insert(1, store(1.0));
        c.insert(2, store(2.0));
        let _ = c.get(1); // 2 is now the LRU entry
        c.insert(3, store(3.0));
        assert_eq!(c.map.len(), 2);
        assert!(c.get(2).is_none(), "LRU entry evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = WarmStartCache::new(0);
        c.insert(1, store(1.0));
        assert!(c.map.is_empty());
        assert!(c.get(1).is_none());
    }

    #[test]
    fn reinsert_overwrites_without_eviction() {
        let mut c = WarmStartCache::new(2);
        c.insert(1, store(1.0));
        c.insert(2, store(2.0));
        c.insert(1, store(9.0));
        assert_eq!(c.map.len(), 2);
        assert_eq!(c.get(1).unwrap().x[0], 9.0);
        assert!(c.get(2).is_some());
    }
}
