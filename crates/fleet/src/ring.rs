//! The consistent-hash ring placing tenants on shards.
//!
//! Placement must be three things at once:
//!
//! 1. **deterministic** — the ring is a pure function of
//!    `(FleetConfig::seed, live shard set)`, never of insertion order or
//!    wall clock, so two coordinators (or one coordinator before and after
//!    a restart) agree on every tenant's home;
//! 2. **balanced** — each shard owns many small arcs (virtual nodes) of
//!    the hash circle rather than one big one, so tenant mass spreads
//!    within a provable bound;
//! 3. **minimally disruptive** — removing a shard deletes only *its* arcs;
//!    every tenant whose point falls elsewhere keeps its home. This is the
//!    bounded-movement invariant failover relies on: only the dead shard's
//!    tenants move.
//!
//! Hashing is the same SplitMix64 avalanche mix the rest of the repo
//! derives RNG streams with ([`emoleak_exec::derive_seed`]), applied to a
//! FNV-1a digest of the tenant name — no external hash crate needed, and
//! the mapping is stable across platforms.

use emoleak_exec::derive_seed;
use std::collections::BTreeSet;

/// FNV-1a over the tenant name: a stable, platform-independent digest to
/// feed the SplitMix64 finisher.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seeded consistent-hash ring over shard ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    /// `(point, shard)` sorted by point (shard id breaks the — practically
    /// impossible — 64-bit point tie, keeping the order total).
    points: Vec<(u64, u32)>,
    shards: BTreeSet<u32>,
}

impl HashRing {
    /// A ring of `shards` shards (ids `0..shards`), `vnodes` virtual nodes
    /// each, hashed under `seed`.
    pub fn new(seed: u64, shards: u32, vnodes: usize) -> HashRing {
        let mut ring = HashRing { seed, vnodes, points: Vec::new(), shards: BTreeSet::new() };
        for id in 0..shards {
            ring.insert_shard(id);
        }
        ring
    }

    /// Adds a shard's virtual nodes (idempotent).
    pub fn insert_shard(&mut self, id: u32) {
        if !self.shards.insert(id) {
            return;
        }
        let shard_seed = derive_seed(self.seed, u64::from(id));
        for v in 0..self.vnodes {
            self.points.push((derive_seed(shard_seed, v as u64), id));
        }
        self.points.sort_unstable();
    }

    /// Removes a shard's virtual nodes; tenants hashed elsewhere keep
    /// their homes (the bounded-movement invariant). Returns whether the
    /// shard was present.
    pub fn remove_shard(&mut self, id: u32) -> bool {
        if !self.shards.remove(&id) {
            return false;
        }
        self.points.retain(|(_, s)| *s != id);
        true
    }

    /// Whether `id` is live in the ring.
    pub fn contains(&self, id: u32) -> bool {
        self.shards.contains(&id)
    }

    /// Live shard ids, ascending.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.iter().copied().collect()
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards at all.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The tenant's point on the hash circle.
    fn point(&self, tenant: &str) -> u64 {
        derive_seed(self.seed, fnv1a(tenant))
    }

    /// The index of the first virtual node at or after `point` (wrapping).
    fn successor(&self, point: u64) -> usize {
        match self.points.binary_search(&(point, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The tenant's home shard.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty — routing against a dead fleet is a
    /// caller bug, not a recoverable condition.
    pub fn route(&self, tenant: &str) -> u32 {
        assert!(!self.points.is_empty(), "route on an empty ring");
        self.points[self.successor(self.point(tenant))].1
    }

    /// The shard's deterministic follower: the first *other* live shard
    /// encountered walking the circle from the shard's first virtual node.
    ///
    /// This is the replication chain: shard `id`'s journal is shipped to
    /// `successor_shard(id)`. The choice is a pure function of
    /// `(seed, live shard set)` — rebalance-aware (removing an unrelated
    /// shard usually keeps the pairing; removing the follower itself
    /// deterministically promotes the next shard on the walk) and
    /// agreed-on by any two coordinators without coordination. `None` when
    /// the shard is not live or has no peer to replicate to.
    pub fn successor_shard(&self, id: u32) -> Option<u32> {
        if !self.shards.contains(&id) || self.shards.len() < 2 {
            return None;
        }
        let shard_seed = derive_seed(self.seed, u64::from(id));
        let start = self.successor(derive_seed(shard_seed, 0));
        for k in 0..self.points.len() {
            let shard = self.points[(start + k) % self.points.len()].1;
            if shard != id {
                return Some(shard);
            }
        }
        None
    }

    /// Every live shard in the tenant's preference order: the home shard
    /// first, then each remaining shard in ring-walk order. Failover uses
    /// this as the migration chain — the chain's prefix is stable under
    /// removal of any *other* shard.
    pub fn route_chain(&self, tenant: &str) -> Vec<u32> {
        let mut chain = Vec::with_capacity(self.shards.len());
        if self.points.is_empty() {
            return chain;
        }
        let start = self.successor(self.point(tenant));
        for k in 0..self.points.len() {
            let shard = self.points[(start + k) % self.points.len()].1;
            if !chain.contains(&shard) {
                chain.push(shard);
                if chain.len() == self.shards.len() {
                    break;
                }
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_a_pure_function_of_seed_and_shard_set() {
        let a = HashRing::new(0xE40, 4, 32);
        let mut b = HashRing::new(0xE40, 0, 32);
        // Insertion order must not matter.
        for id in [3, 1, 0, 2] {
            b.insert_shard(id);
        }
        assert_eq!(a, b);
        for t in 0..200 {
            let tenant = format!("tenant-{t}");
            assert_eq!(a.route(&tenant), b.route(&tenant));
        }
        // A different seed is a different ring.
        let c = HashRing::new(0xE41, 4, 32);
        assert!((0..200).any(|t| {
            let tenant = format!("tenant-{t}");
            a.route(&tenant) != c.route(&tenant)
        }));
    }

    #[test]
    fn removal_moves_only_the_dead_shards_tenants() {
        let full = HashRing::new(7, 4, 64);
        let mut cut = full.clone();
        assert!(cut.remove_shard(2));
        assert!(!cut.remove_shard(2), "double remove reports absence");
        let mut moved = 0;
        for t in 0..500 {
            let tenant = format!("tenant-{t}");
            let before = full.route(&tenant);
            let after = cut.route(&tenant);
            if before == 2 {
                moved += 1;
                assert_ne!(after, 2);
            } else {
                assert_eq!(before, after, "tenant {tenant} moved without cause");
            }
        }
        assert!(moved > 0, "shard 2 owned no tenants — vnode count too low");
    }

    #[test]
    fn successor_shard_is_deterministic_and_rebalance_aware() {
        let ring = HashRing::new(0xE40, 4, 64);
        for id in 0..4 {
            let follower = ring.successor_shard(id).expect("4-shard ring has followers");
            assert_ne!(follower, id, "a shard cannot follow itself");
            assert_eq!(ring.successor_shard(id), Some(follower), "must be stable");
        }
        // Removing the follower promotes a new one deterministically; the
        // primary never pairs with a dead shard.
        let mut cut = ring.clone();
        let follower = ring.successor_shard(0).unwrap();
        cut.remove_shard(follower);
        let promoted = cut.successor_shard(0).expect("two live peers remain");
        assert_ne!(promoted, follower);
        assert_ne!(promoted, 0);
        // A lone shard (or a dead one) has no follower.
        let solo = HashRing::new(0xE40, 1, 64);
        assert_eq!(solo.successor_shard(0), None);
        assert_eq!(ring.successor_shard(99), None);
    }

    #[test]
    fn route_chain_starts_at_home_and_covers_every_live_shard() {
        let ring = HashRing::new(11, 4, 32);
        for t in 0..100 {
            let tenant = format!("tenant-{t}");
            let chain = ring.route_chain(&tenant);
            assert_eq!(chain[0], ring.route(&tenant));
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "chain misses a shard: {chain:?}");
        }
    }
}
