//! The benchmark's only doorway into the program. Every layer is reached
//! through its public entry points, and only from here, so a change to
//! an entry point (such as collapsing `Engine`'s execution methods)
//! changes this file alone. Each call runs inside a span named after the
//! layer it enters.

use crate::trace::Tracer;
use geoqp_common::{GeoError, Result, Rows};
use geoqp_core::annotate::{fill_stats, AnnotateMode};
use geoqp_core::memo::Memo;
use geoqp_core::normalize::normalize_plan;
use geoqp_core::rules::{default_rules, explore};
use geoqp_core::{
    select_sites_with, Annotator, CheckpointStore, Engine, FailoverOpts, OptimizeStats,
    OptimizedQuery, OptimizerMode, OptimizerOptions,
};
use geoqp_exec::RetryPolicy;
use geoqp_net::{FaultPlan, TransferLog};
use geoqp_plan::logical::LogicalPlan;
use geoqp_plan::PhysicalPlan;
use geoqp_policy::{PolicyCatalog, PolicyEvaluator};
use geoqp_server::{PlanCache, PlanKey, QueryRequest, QueryService, QueryTicket, TenantId};
use geoqp_storage::Catalog;
use std::sync::Arc;
use std::time::Instant;

/// Parse and lower one SQL query against `catalog`.
pub fn parse_lower(sql: &str, catalog: &Catalog, t: &Tracer, q: u64) -> Result<Arc<LogicalPlan>> {
    let ast = t.span("parser.parse", q, || geoqp_parser::parse_query(sql))?;
    t.span("parser.lower", q, || {
        geoqp_parser::lower_query(&ast, catalog)
    })
}

/// Optimize in compliant mode with the result left where it is cheapest.
/// Untraced, this is `Engine::optimize`. Traced, it makes the same calls
/// as `Engine::optimize` through the phases' own public entry points, so
/// each phase gets its own span and the same plan comes out.
pub fn optimize(
    engine: &Engine,
    plan: &Arc<LogicalPlan>,
    t: &Tracer,
    q: u64,
) -> Result<OptimizedQuery> {
    if !t.enabled() {
        return engine.optimize(plan, OptimizerMode::Compliant, None);
    }
    let t0 = Instant::now();
    let normalized = t.span("core.normalize", q, || normalize_plan(plan))?;
    let (memo, root) = t.span("core.explore", q, || -> Result<_> {
        let mut memo = Memo::new();
        let root = memo.copy_in(&normalized)?;
        explore(&mut memo, &default_rules())?;
        Ok((memo, root))
    })?;
    let implication = engine.implication_memo();
    let (hits0, misses0) = (implication.hits(), implication.misses());
    let evaluator =
        PolicyEvaluator::with_memo(engine.policies(), engine.catalog().locations(), implication);
    let (annotated, candidates) = t.span("core.annotate", q, || -> Result<_> {
        let frontiers = Annotator::new(engine.catalog(), &evaluator, AnnotateMode::Compliant)
            .annotate(&memo)?;
        let best = frontiers.best_root(root, None).ok_or_else(|| {
            GeoError::QueryRejected(
                "no compliant execution plan exists in the explored search space".into(),
            )
        })?;
        let mut annotated = frontiers.extract(&memo, best);
        fill_stats(&mut annotated, &best.logical, engine.catalog());
        Ok((annotated, frontiers.stats().candidates))
    })?;
    let objective = OptimizerOptions::default().objective;
    let sited = t.span("core.site_select", q, || {
        select_sites_with(&annotated, engine.topology(), None, objective)
    })?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(OptimizedQuery {
        physical: sited.physical,
        annotated,
        logical: normalized,
        result_location: sited.result_location,
        stats: OptimizeStats {
            total_ms,
            memo_groups: memo.group_count(),
            memo_exprs: memo.expr_count(),
            candidates,
            eta: evaluator.eta(),
            policy_invocations: evaluator.invocations(),
            est_ship_cost_ms: sited.est_ship_cost_ms,
            memo_hits: implication.hits() - hits0,
            memo_misses: implication.misses() - misses0,
            dp_states: sited.dp_states,
            ..OptimizeStats::default()
        },
    })
}

/// Definition-1 audit of a located plan.
pub fn audit(engine: &Engine, plan: &PhysicalPlan, t: &Tracer, q: u64) -> Result<()> {
    t.span("core.audit", q, || engine.audit(plan))
}

/// How a located plan is executed.
pub enum Path<'a> {
    /// The row-at-a-time recursive interpreter: the answer oracle.
    Oracle,
    /// The sequential columnar engine (the service's bare path).
    Columnar,
    /// The sequential columnar failover path under an empty fault plan,
    /// capturing checkpoints into `store` (the service's path for
    /// requests with a deadline).
    Resilient {
        /// Where completed SHIP edges are retained.
        store: &'a CheckpointStore,
        /// Failover options (deadline, churn watch, …).
        opts: &'a FailoverOpts,
    },
}

/// What an execution returned.
pub struct Executed {
    /// Result rows.
    pub rows: Rows,
    /// Every transfer made.
    pub transfers: TransferLog,
}

/// Execute `optimized` along `path`.
pub fn execute(
    engine: &Engine,
    optimized: &OptimizedQuery,
    path: Path<'_>,
    t: &Tracer,
    q: u64,
) -> Result<Executed> {
    let plain = |r: geoqp_core::ExecutionResult| Executed {
        rows: r.rows,
        transfers: r.transfers,
    };
    match path {
        Path::Oracle => t
            .span("exec.row", q, || engine.execute(&optimized.physical))
            .map(plain),
        Path::Columnar => t
            .span("exec.columnar", q, || {
                engine.execute_columnar(&optimized.physical)
            })
            .map(plain),
        Path::Resilient { store, opts } => t
            .span("runtime.resilient", q, || {
                engine.execute_resilient_store(
                    optimized,
                    &FaultPlan::new(0),
                    &RetryPolicy::default(),
                    opts,
                    store,
                )
            })
            .map(|r| Executed {
                rows: r.rows,
                transfers: r.transfers,
            }),
    }
}

/// Submit a query to the service.
pub fn submit(svc: &QueryService, tenant: TenantId, request: QueryRequest) -> Result<QueryTicket> {
    svc.submit(tenant, request)
}

/// Move a tenant to a new policy set (a policy write).
pub fn update_policies(
    svc: &QueryService,
    tenant: TenantId,
    policies: Arc<PolicyCatalog>,
    t: &Tracer,
    q: u64,
) -> Result<()> {
    t.span("server.update", q, || {
        svc.update_tenant_policies(tenant, policies)
    })
    .map(|_| ())
}

/// Look a plan up in the service's plan cache.
pub fn cache_lookup(
    cache: &PlanCache,
    key: &PlanKey,
    t: &Tracer,
    q: u64,
) -> Option<Arc<OptimizedQuery>> {
    t.span("server.cache", q, || cache.lookup(key))
}

/// Store a plan in the service's plan cache.
pub fn cache_insert(
    cache: &PlanCache,
    key: PlanKey,
    plan: Arc<OptimizedQuery>,
    t: &Tracer,
    q: u64,
) {
    t.span("server.cache", q, || cache.insert(key, plan))
}
