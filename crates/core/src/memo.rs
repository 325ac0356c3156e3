//! The single-threaded memo table behind the GA's fitness pipeline.
//!
//! [`Memo`] is an `FxHashMap` in a [`RefCell`], so the owning
//! [`crate::fitness::FitnessContext`] can memoize through `&self`.
//! Every operation borrows the map only for its own duration and
//! hands values out by clone (callers store `Arc`s, so a clone is a
//! pointer bump). No borrow is ever held across a computation: a
//! group evaluation re-enters the segment memo while its own key is
//! still a miss.

use fxhash::FxHashMap;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::hash::Hash;

/// A memo map with interior mutability; see the module docs.
pub(crate) struct Memo<K, V> {
    map: RefCell<FxHashMap<K, V>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self { map: RefCell::new(FxHashMap::default()) }
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// Recalls a memoized value.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.borrow().get(key).cloned()
    }

    /// Whether a key is memoized.
    pub(crate) fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.borrow().contains_key(key)
    }

    /// Memoizes `value` under `key` and hands it back.
    pub(crate) fn insert(&self, key: K, value: V) -> V {
        self.map.borrow_mut().insert(key, value.clone());
        value
    }

    /// Drops one entry, returning its value if it was present.
    pub(crate) fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.borrow_mut().remove(key)
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        self.map.borrow_mut().clear();
    }

    /// Pre-sizes the map for `additional` more entries.
    pub(crate) fn reserve(&self, additional: usize) {
        self.map.borrow_mut().reserve(additional);
    }
}
