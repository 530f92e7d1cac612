//! The policy catalog (Figure 2's "policy catalog").

use crate::expression::{PolicyExpression, PolicyKind};
use geoqp_common::{Result, Schema, TableRef};
use std::collections::BTreeSet;
use std::fmt;

/// A policy expression as stored in the catalog: validated against the
/// governed table's schema, with `ship *` expanded and the table's full
/// attribute set recorded (needed by the evaluator's multi-table grouping
/// check).
#[derive(Debug, Clone)]
pub struct RegisteredExpression {
    /// Stable id (registration order).
    pub id: usize,
    /// The original expression.
    pub expr: PolicyExpression,
    /// `A_e`, fully expanded.
    pub attrs: BTreeSet<String>,
    /// All attributes of the governed table.
    pub table_attrs: BTreeSet<String>,
}

impl RegisteredExpression {
    /// True when the expression governs `table` (any of its tables).
    pub fn governs(&self, table: &TableRef) -> bool {
        self.expr.tables().any(|t| t.matches(table))
    }

    /// True when the expression applies to a query reading `tables`:
    /// every governed table must be among the query's tables (a
    /// multi-table expression only speaks for the *joined* data; paper
    /// footnote 4).
    pub fn applies_to<'a>(&self, mut tables: impl Iterator<Item = &'a TableRef> + Clone) -> bool {
        self.expr
            .tables()
            .all(|et| tables.clone().any(|qt| et.matches(qt)))
            && tables.any(|qt| self.governs(qt))
    }
}

impl fmt::Display for RegisteredExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}: {}", self.id, self.expr)
    }
}

/// FNV-1a offset basis: the content epoch of an empty catalog.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Extend a content epoch by one expression: FNV-1a over its canonical
/// display form, then a `0xff` separator byte.
fn fold_epoch(mut h: u64, e: &RegisteredExpression) -> u64 {
    for b in e.to_string().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= 0xff;
    h.wrapping_mul(FNV_PRIME)
}

/// All dataflow policies known to the deployment. Populated offline by the
/// data officers (Figure 2), read at optimization time by the policy
/// evaluator.
#[derive(Debug, Clone)]
pub struct PolicyCatalog {
    expressions: Vec<RegisteredExpression>,
    /// The content hash of `expressions`, extended by every `register`
    /// so that reading the epoch never re-renders the catalog.
    content_epoch: u64,
    /// When the catalog is a snapshot materialized from a versioned
    /// catalog log, the log's deterministic chain epoch overrides the
    /// content hash — so revoke-then-regrant can never silently return
    /// to an old epoch and resurrect stale checkpoints or memo verdicts.
    pinned_epoch: Option<u64>,
}

impl Default for PolicyCatalog {
    fn default() -> PolicyCatalog {
        PolicyCatalog {
            expressions: Vec::new(),
            content_epoch: FNV_OFFSET,
            pinned_epoch: None,
        }
    }
}

impl PolicyCatalog {
    /// Empty catalog.
    pub fn new() -> PolicyCatalog {
        PolicyCatalog::default()
    }

    /// Register an expression, validating it against the governed table's
    /// schema. Returns the assigned id.
    pub fn register(&mut self, expr: PolicyExpression, table_schema: &Schema) -> Result<usize> {
        let attrs = expr.validate(table_schema)?;
        let table_attrs = table_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let id = self.expressions.len();
        let registered = RegisteredExpression {
            id,
            expr,
            attrs,
            table_attrs,
        };
        self.content_epoch = fold_epoch(self.content_epoch, &registered);
        self.expressions.push(registered);
        Ok(id)
    }

    /// Crate-internal: rebuild a catalog from already-validated
    /// registered expressions — the versioned log's materialization
    /// path, where validation happened once at append time. Callers are
    /// responsible for id renumbering (registration order).
    pub(crate) fn from_registered(expressions: Vec<RegisteredExpression>) -> PolicyCatalog {
        debug_assert!(expressions.iter().enumerate().all(|(i, e)| e.id == i));
        PolicyCatalog {
            content_epoch: expressions.iter().fold(FNV_OFFSET, fold_epoch),
            expressions,
            pinned_epoch: None,
        }
    }

    /// All expressions, in registration order.
    pub fn expressions(&self) -> &[RegisteredExpression] {
        &self.expressions
    }

    /// Expressions governing a table.
    pub fn for_table<'a>(
        &'a self,
        table: &'a TableRef,
    ) -> impl Iterator<Item = &'a RegisteredExpression> + 'a {
        self.expressions.iter().filter(move |e| e.governs(table))
    }

    /// Number of registered expressions.
    pub fn len(&self) -> usize {
        self.expressions.len()
    }

    /// True when no expression is registered — under the conservative
    /// disclosure model this means *nothing* may leave its source site.
    pub fn is_empty(&self) -> bool {
        self.expressions.is_empty()
    }

    /// A stable content hash of the registered expressions — the
    /// *policy-catalog epoch*. Checkpoint fingerprints mix this in so
    /// that intermediate results retained under one policy set can never
    /// be resumed under a different one: a changed catalog changes every
    /// fingerprint, and every lookup misses.
    pub fn epoch(&self) -> u64 {
        self.pinned_epoch.unwrap_or(self.content_epoch)
    }

    /// The content hash itself, ignoring any pinned log epoch: FNV-1a
    /// over each expression's canonical display form, maintained as the
    /// expressions are registered.
    pub fn content_epoch(&self) -> u64 {
        self.content_epoch
    }

    /// Pin the catalog's epoch to a versioned-log chain epoch. Set by
    /// [`CatalogLog::materialize`](crate::CatalogLog::materialize) on
    /// every snapshot it produces; everything keyed by `epoch()` —
    /// checkpoint fingerprints, the implication memo, the server's plan
    /// cache — then follows the log's history instead of raw content.
    pub fn pin_epoch(&mut self, epoch: u64) {
        self.pinned_epoch = Some(epoch);
    }

    /// The canonical byte rendering of the catalog's registered
    /// expressions, one display line per expression. Two catalogs are
    /// the *same* exactly when these bytes match — the replication
    /// property tests compare coordinator and replica snapshots with it.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.expressions {
            out.extend_from_slice(e.to_string().as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Count of basic / aggregate expressions (experiment reporting).
    pub fn kind_counts(&self) -> (usize, usize) {
        let basic = self
            .expressions
            .iter()
            .filter(|e| matches!(e.expr.kind, PolicyKind::Basic))
            .count();
        (basic, self.expressions.len() - basic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::ShipAttrs;
    use geoqp_common::{DataType, Field, LocationPattern};
    use geoqp_expr::AggFunc;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn register_and_filter_by_table() {
        let mut cat = PolicyCatalog::new();
        cat.register(
            PolicyExpression::basic(
                TableRef::qualified("db-1", "t"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        cat.register(
            PolicyExpression::aggregate(
                TableRef::qualified("db-2", "u"),
                ShipAttrs::list(["a"]),
                [AggFunc::Sum],
                [],
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.kind_counts(), (1, 1));
        assert_eq!(cat.for_table(&TableRef::qualified("db-1", "t")).count(), 1);
        // A bare reference matches any database's table of that name.
        assert_eq!(cat.for_table(&TableRef::bare("u")).count(), 1);
        assert_eq!(cat.for_table(&TableRef::bare("nope")).count(), 0);
    }

    #[test]
    fn register_rejects_invalid() {
        let mut cat = PolicyCatalog::new();
        let bad = PolicyExpression::basic(
            TableRef::bare("t"),
            ShipAttrs::list(["ghost"]),
            LocationPattern::Star,
            None,
        );
        assert!(cat.register(bad, &schema()).is_err());
        assert!(cat.is_empty());
    }

    #[test]
    fn epoch_tracks_catalog_content() {
        let mut a = PolicyCatalog::new();
        let mut b = PolicyCatalog::new();
        assert_eq!(a.epoch(), b.epoch(), "empty catalogs share an epoch");
        let expr = || {
            PolicyExpression::basic(
                TableRef::bare("t"),
                ShipAttrs::list(["a"]),
                LocationPattern::Star,
                None,
            )
        };
        a.register(expr(), &schema()).unwrap();
        assert_ne!(a.epoch(), b.epoch(), "registering must change the epoch");
        b.register(expr(), &schema()).unwrap();
        assert_eq!(a.epoch(), b.epoch(), "same content, same epoch");
    }

    /// Distinct expressions over `t`, in registration order.
    fn sample_exprs() -> Vec<PolicyExpression> {
        vec![
            PolicyExpression::basic(
                TableRef::bare("t"),
                ShipAttrs::list(["a"]),
                LocationPattern::Star,
                None,
            ),
            PolicyExpression::basic(
                TableRef::qualified("db-1", "t"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            PolicyExpression::aggregate(
                TableRef::bare("t"),
                ShipAttrs::list(["a"]),
                [AggFunc::Sum],
                ["b".to_string()],
                LocationPattern::Star,
                None,
            ),
        ]
    }

    /// The content epoch recomputed from scratch: FNV-1a over every
    /// expression's display line, each followed by a `0xff` byte.
    fn epoch_from_scratch(cat: &PolicyCatalog) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for line in cat.expressions().iter().map(|e| e.to_string()) {
            for b in line.bytes().chain([0xff]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn cached_epoch_matches_a_fold_from_scratch_after_every_register() {
        let mut cat = PolicyCatalog::new();
        assert_eq!(cat.content_epoch(), epoch_from_scratch(&cat));
        for expr in sample_exprs() {
            let before = cat.epoch();
            cat.register(expr, &schema()).unwrap();
            assert_ne!(cat.epoch(), before);
            assert_eq!(cat.content_epoch(), epoch_from_scratch(&cat));
            assert_eq!(cat.epoch(), cat.content_epoch());
        }
    }

    #[test]
    fn a_clone_that_registers_more_diverges_from_its_original() {
        let mut original = PolicyCatalog::new();
        let mut exprs = sample_exprs();
        let last = exprs.pop().unwrap();
        for expr in exprs {
            original.register(expr, &schema()).unwrap();
        }
        let epoch = original.epoch();
        let mut clone = original.clone();
        assert_eq!(clone.epoch(), epoch);
        clone.register(last, &schema()).unwrap();
        assert_ne!(clone.epoch(), epoch);
        assert_eq!(clone.content_epoch(), epoch_from_scratch(&clone));
        assert_eq!(original.epoch(), epoch, "the original keeps its epoch");
        assert_eq!(original.content_epoch(), epoch_from_scratch(&original));
    }

    #[test]
    fn from_registered_reproduces_the_registered_epoch() {
        let mut cat = PolicyCatalog::new();
        for expr in sample_exprs() {
            cat.register(expr, &schema()).unwrap();
        }
        let rebuilt = PolicyCatalog::from_registered(cat.expressions().to_vec());
        assert_eq!(rebuilt.content_epoch(), cat.content_epoch());
        assert_eq!(rebuilt.epoch(), cat.epoch());
        let empty = PolicyCatalog::from_registered(Vec::new());
        assert_eq!(empty.epoch(), PolicyCatalog::new().epoch());
    }

    #[test]
    fn pin_epoch_overrides_the_content_epoch() {
        let mut cat = PolicyCatalog::new();
        let mut exprs = sample_exprs().into_iter();
        cat.register(exprs.next().unwrap(), &schema()).unwrap();
        let content = cat.content_epoch();
        cat.pin_epoch(0x5eed);
        assert_eq!(cat.epoch(), 0x5eed);
        assert_eq!(cat.content_epoch(), content);
        // Registering moves the content hash, never the pin.
        cat.register(exprs.next().unwrap(), &schema()).unwrap();
        assert_eq!(cat.epoch(), 0x5eed);
        assert_eq!(cat.content_epoch(), epoch_from_scratch(&cat));
    }

    #[test]
    fn star_attrs_expand_and_table_attrs_recorded() {
        let mut cat = PolicyCatalog::new();
        cat.register(
            PolicyExpression::basic(
                TableRef::bare("t"),
                ShipAttrs::Star,
                LocationPattern::Star,
                None,
            ),
            &schema(),
        )
        .unwrap();
        let e = &cat.expressions()[0];
        assert_eq!(e.attrs.len(), 2);
        assert_eq!(e.table_attrs.len(), 2);
    }
}
