//! The implication memo: optimizer-side caching of `P_q ⟹ P_e` verdicts.
//!
//! Algorithm 1's line-3 implication test dominates policy-evaluation
//! cost, and the optimizer asks it for the *same* (query predicate,
//! policy expression) pairs over and over: annotation rules AR1–AR4
//! evaluate overlapping subtrees of one query, the dynamic-programming
//! enumeration revisits the same local queries under different join
//! orders, and the resilient loop re-plans the same query after every
//! fault. The prover is pure — its verdict depends only on the two
//! predicates — so the verdicts memoize perfectly.
//!
//! Verdicts are filed under a 64-bit predicate fingerprint and the
//! expression id, scoped to one policy-catalog **epoch**
//! ([`crate::PolicyCatalog::epoch`]): the first probe under a new epoch
//! clears the table, so a changed catalog can never serve stale verdicts
//! (expression ids are reused across registrations, fingerprints are not
//! content-bound to the catalog). A fingerprint alone is not trusted:
//! each one stores the predicate its verdicts were proven for, and a probe
//! with a different predicate under the same fingerprint proves fresh and
//! caches nothing. The Definition-1 audit shares this memo with the
//! optimizer, so a collision served as a hit would grant the same ship in
//! both. Hit/miss counters feed the engine's optimizer metrics.

use geoqp_expr::ScalarExpr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Fingerprint of an optional query predicate, as used in memo keys.
/// Structural: two structurally equal predicates collide intentionally.
pub fn predicate_fingerprint(p: Option<&ScalarExpr>) -> u64 {
    let mut h = DefaultHasher::new();
    match p {
        None => 0u8.hash(&mut h),
        Some(e) => {
            1u8.hash(&mut h);
            e.hash(&mut h);
        }
    }
    h.finish()
}

/// The verdicts proven for one predicate, kept next to that predicate so
/// a fingerprint match can be confirmed.
#[derive(Debug)]
struct Proven {
    predicate: Option<ScalarExpr>,
    /// `(expression id, verdict)`: few per predicate, so a linear scan
    /// serves them without a hash table per predicate.
    verdicts: Vec<(usize, bool)>,
}

/// A shared, epoch-scoped cache of implication verdicts.
#[derive(Debug, Default)]
pub struct ImplicationMemo {
    /// `(current epoch, proven predicates by fingerprint)`; one lock so an
    /// epoch check and the probe it guards are atomic.
    state: Mutex<(u64, HashMap<u64, Proven>)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ImplicationMemo {
    /// An empty memo.
    pub fn new() -> ImplicationMemo {
        ImplicationMemo::default()
    }

    /// Return the memoized verdict for `predicate` (whose fingerprint is
    /// `pred_fp`) and `expr_id` under `epoch`, computing and storing it via
    /// `prove` on a miss. An epoch change (policy catalog edited) drops
    /// every cached verdict first. When `pred_fp` already belongs to a
    /// different predicate, the verdict is proven fresh, counted as a
    /// miss, and not cached.
    pub fn check(
        &self,
        epoch: u64,
        pred_fp: u64,
        predicate: Option<&ScalarExpr>,
        expr_id: usize,
        prove: impl FnOnce() -> bool,
    ) -> bool {
        let mut state = self.state.lock().expect("memo lock poisoned");
        if state.0 != epoch {
            state.0 = epoch;
            state.1.clear();
        }
        let proven = state.1.entry(pred_fp).or_insert_with(|| Proven {
            predicate: predicate.cloned(),
            verdicts: Vec::new(),
        });
        let same = proven.predicate.as_ref() == predicate;
        match proven.verdicts.iter().find(|(id, _)| *id == expr_id) {
            Some(&(_, v)) if same => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            _ => {
                // The prover is pure and lock-cheap at this scale; holding
                // the lock keeps concurrent re-plans from proving the same
                // pair twice.
                let v = prove();
                // On a fingerprint collision the slot belongs to another
                // predicate: the fresh verdict is used once, never cached.
                if same {
                    proven.verdicts.push((expr_id, v));
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                v
            }
        }
    }

    /// Memo hits since creation (or the last [`reset_counters`]).
    ///
    /// [`reset_counters`]: ImplicationMemo::reset_counters
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo misses (= implication proofs actually run through the memo).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached verdicts currently held.
    pub fn len(&self) -> usize {
        let state = self.state.lock().expect("memo lock poisoned");
        state.1.values().map(|p| p.verdicts.len()).sum()
    }

    /// True when no verdicts are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of lookups served from the cache since creation (or the
    /// last counter reset); 0 when nothing has been looked up.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Zero the hit/miss counters (cached verdicts are kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_per_key_and_counts() {
        let m = ImplicationMemo::new();
        let mut proofs = 0;
        for _ in 0..3 {
            let v = m.check(1, 42, None, 7, || {
                proofs += 1;
                true
            });
            assert!(v);
        }
        assert_eq!(proofs, 1, "verdict must be proven once");
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 1);
        // A different key proves again.
        assert!(!m.check(1, 42, None, 8, || false));
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let m = ImplicationMemo::new();
        assert!(m.check(1, 5, None, 0, || true));
        assert_eq!(m.len(), 1);
        // Same key, new epoch: the old verdict must not be served.
        assert!(!m.check(2, 5, None, 0, || false));
        assert_eq!(m.len(), 1);
        assert_eq!(m.hits(), 0);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn fingerprint_collision_proves_fresh_and_caches_nothing() {
        use geoqp_expr::ScalarExpr as E;
        let a = E::col("x").gt(E::lit(5i64));
        let b = E::col("y").lt(E::lit(1i64));
        let m = ImplicationMemo::new();
        // Both predicates filed under one (forced) fingerprint.
        assert!(m.check(1, 42, Some(&a), 0, || true));
        assert!(
            !m.check(1, 42, Some(&b), 0, || false),
            "a colliding predicate must never be served another's verdict"
        );
        assert_eq!((m.hits(), m.misses()), (0, 2));
        // The owner still hits; the intruder proves again every time.
        assert!(m.check(1, 42, Some(&a), 0, || unreachable!()));
        let mut proofs = 0;
        for _ in 0..2 {
            assert!(!m.check(1, 42, Some(&b), 0, || {
                proofs += 1;
                false
            }));
        }
        assert_eq!(proofs, 2);
        assert!(!m.check(1, 42, None, 0, || false));
        assert_eq!((m.hits(), m.misses()), (1, 5));
        assert_eq!(m.len(), 1, "only the owner's verdict is cached");
    }

    #[test]
    fn predicate_fingerprint_is_structural() {
        use geoqp_expr::ScalarExpr as E;
        let a = E::col("x").gt(E::lit(5i64));
        let b = E::col("x").gt(E::lit(5i64));
        let c = E::col("x").gt(E::lit(6i64));
        assert_eq!(
            predicate_fingerprint(Some(&a)),
            predicate_fingerprint(Some(&b))
        );
        assert_ne!(
            predicate_fingerprint(Some(&a)),
            predicate_fingerprint(Some(&c))
        );
        assert_ne!(predicate_fingerprint(None), predicate_fingerprint(Some(&a)));
    }
}
