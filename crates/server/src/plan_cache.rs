//! Epoch-keyed cache of optimized located plans.
//!
//! The PR-5 `ImplicationMemo` caches single policy-implication *verdicts*
//! keyed by query predicate × expression id × catalog epoch. This
//! module applies the same idea one level up: it caches whole
//! [`OptimizedQuery`]s (the located physical plan plus its annotated
//! traits) keyed by
//!
//! > query structural fingerprint × tenant × policy-catalog epoch.
//!
//! * **Epoch-bump invalidation.** The policy-catalog epoch is a content
//!   hash of the tenant's policy expressions, so any policy change moves
//!   every lookup to a fresh key — stale plans simply stop being found
//!   (and [`PlanCache::purge_tenant`] reclaims their slots eagerly).
//! * **LRU eviction.** The cache holds at most `capacity` entries; the
//!   least-recently-used entry is evicted when a fresh plan needs a slot.
//! * **Collision safety is the caller's job.** Two different queries could
//!   in principle hash to the same fingerprint. The service therefore
//!   re-audits every cache hit with the Definition-1 checker before reuse
//!   and calls [`PlanCache::invalidate`] when the audit refuses the plan —
//!   a collision costs one re-optimization, never a non-compliant plan.

use geoqp_common::Location;
use geoqp_core::OptimizedQuery;
use geoqp_plan::LogicalPlan;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Structural fingerprint of a query: a hash of the full logical plan tree
/// plus the requested result location. Policies do **not** contribute —
/// the policy catalog is keyed separately through the epoch component of
/// [`PlanKey`], so the same query text maps to the same fingerprint under
/// every tenant.
pub fn query_fingerprint(plan: &LogicalPlan, result_location: Option<&Location>) -> u64 {
    let mut h = DefaultHasher::new();
    plan.hash(&mut h);
    result_location.hash(&mut h);
    h.finish()
}

/// The full cache key: fingerprint × tenant × policy-catalog epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Tenant index inside the service. Plans never cross tenants even
    /// when their policy catalogs happen to hash to the same epoch.
    pub tenant: usize,
    /// Structural query fingerprint from [`query_fingerprint`].
    pub fingerprint: u64,
    /// The tenant's policy-catalog epoch when the plan was optimized.
    pub epoch: u64,
}

/// Counter snapshot for observability (`\tenants`, bench JSON).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups served from the cache (net of invalidated collisions).
    pub hits: u64,
    /// Lookups that missed (including invalidated collisions).
    pub misses: u64,
    /// Entries evicted by the LRU policy to make room.
    pub evictions: u64,
    /// Cache hits the caller's re-audit refused (fingerprint collisions).
    pub invalidations: u64,
    /// Live entries.
    pub len: usize,
    /// Maximum entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache; 0 when never used.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<OptimizedQuery>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<PlanKey, Entry>,
    /// Logical clock for LRU stamping; bumped on every touch.
    tick: u64,
}

/// Thread-safe LRU cache of optimized located plans. Interior mutability
/// throughout: workers share it behind an `Arc` without outer locking.
pub struct PlanCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (floored at 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up a plan, refreshing its LRU stamp and counting hit/miss.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<OptimizedQuery>> {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        match st.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or replace) a plan, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&self, key: PlanKey, plan: Arc<OptimizedQuery>) {
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        if !st.map.contains_key(&key) && st.map.len() >= self.capacity {
            if let Some(victim) = st
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                st.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        st.map.insert(
            key,
            Entry {
                plan,
                last_used: tick,
            },
        );
    }

    /// Drop an entry whose re-audit failed (fingerprint collision) and
    /// reclassify the hit [`lookup`](PlanCache::lookup) just counted as a
    /// miss. Must only be called immediately after a successful lookup of
    /// the same key by the same caller.
    pub fn invalidate(&self, key: &PlanKey) {
        let mut st = self.state.lock().unwrap();
        if st.map.remove(key).is_some() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.hits.fetch_sub(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Eagerly drop every entry belonging to `tenant` (policy update):
    /// the epoch component of the key already makes them unreachable, but
    /// purging frees their LRU slots immediately. Returns how many entries
    /// were dropped.
    pub fn purge_tenant(&self, tenant: usize) -> usize {
        let mut st = self.state.lock().unwrap();
        let before = st.map.len();
        st.map.retain(|k, _| k.tenant != tenant);
        before - st.map.len()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}
