//! `service-mix`: four tenants (T, C, CR and CR+A, 10 expressions each)
//! on one `QueryService` with 2 workers over SF 0.002 data, driven by an
//! open loop: seeded Poisson arrivals at 50 per second, split 4:3:2:1
//! across the tenants. Queries come from per-tenant pools of 100 ad-hoc
//! queries, so the working set fits the 1024-entry plan cache. Half the
//! requests carry a simulated-clock deadline that never fires, which
//! sends them down the resilient path (checkpoint capture and the churn
//! watch) instead of bare columnar execution. About 1% of operations are
//! policy writes: a tenant's write grants a duplicate of one of its own
//! expressions and its next write revokes it, so every write bumps the
//! epoch while the set of admissible queries stays the same.
//!
//! The deployment (data, policy sets and query pools) is fixed; `--seed`
//! drives the arrival times, the order of requests, the order each
//! tenant walks its pool in, the deadlines and the writes. Each tenant
//! walks seeded permutations of its pool, so a run that covers whole
//! laps asks every pool query equally often.

use crate::calls::{self, Path};
use crate::check::{Counters, Observed};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{self, geomean, mean, percentile, ratio};
use crate::trace::Tracer;
use crate::{Opts, Setups, Size, DEPLOYMENT_SEED};
use geoqp_common::{QueryDeadline, Result};
use geoqp_core::{CheckpointStore, ChurnOpts, Engine, FailoverOpts, OptimizedQuery};
use geoqp_net::NetworkTopology;
use geoqp_policy::PolicyCatalog;
use geoqp_server::{
    query_fingerprint, PlanKey, QueryRequest, QueryService, QueryTicket, ServiceConfig,
    TenantConfig, TenantId,
};
use geoqp_storage::Catalog;
use geoqp_tpch::adhoc::{generate_adhoc, AdhocQuery};
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const TEMPLATES: [PolicyTemplate; 4] = [
    PolicyTemplate::T,
    PolicyTemplate::C,
    PolicyTemplate::CR,
    PolicyTemplate::CRA,
];
/// Share of traffic per tenant.
const WEIGHTS: [u32; 4] = [4, 3, 2, 1];
/// Policy expressions per tenant.
const EXPRESSIONS: usize = 10;
/// Service worker threads.
const WORKERS: usize = 2;
/// Plan-cache entries.
const CACHE: usize = 1024;
/// Share of operations that are policy writes.
const WRITE_SHARE: f64 = 0.01;
/// Simulated-clock budget of a deadline that never fires, ms.
const NEVER_MS: f64 = 1e12;
/// Re-plans the service allows a resilient execution.
const MAX_REPLANS: usize = 4;

struct Config {
    sf: f64,
    pool: usize,
    /// Arrivals per second.
    rate: f64,
}

fn config(size: Size) -> Config {
    match size {
        Size::Full => Config {
            sf: 0.002,
            pool: 100,
            rate: 50.0,
        },
        Size::Tiny => Config {
            sf: 0.001,
            pool: 8,
            rate: 40.0,
        },
    }
}

struct Deployment {
    catalog: Arc<Catalog>,
    policies: Vec<Arc<PolicyCatalog>>,
    pools: Vec<Vec<AdhocQuery>>,
    svc: QueryService,
    tenants: Vec<TenantId>,
}

fn setup(cfg: &Config, times: &mut Setups) -> Deployment {
    let t0 = Setups::start();
    let catalog = Arc::new(geoqp_tpch::paper_catalog(cfg.sf));
    Setups::time(&mut times.populate_s, 1.0, || {
        geoqp_tpch::populate(&catalog, cfg.sf, DEPLOYMENT_SEED).expect("populate")
    });
    let policies: Vec<Arc<PolicyCatalog>> = Setups::time(&mut times.policy_gen_ms, 1e3, || {
        TEMPLATES
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let p =
                    generate_policies(&catalog, *t, EXPRESSIONS, DEPLOYMENT_SEED ^ (i as u64 + 1));
                Arc::new(p.expect("policies"))
            })
            .collect()
    });
    let pools = Setups::time(&mut times.adhoc_gen_ms, 1e3, || {
        (0..TEMPLATES.len())
            .map(|i| {
                generate_adhoc(&catalog, cfg.pool, DEPLOYMENT_SEED ^ ((i as u64 + 1) << 8))
                    .expect("ad-hoc pool")
            })
            .collect()
    });
    let svc = QueryService::new(ServiceConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        columnar: true,
        max_replans: MAX_REPLANS,
    });
    let tenants = TEMPLATES
        .iter()
        .zip(&policies)
        .map(|(t, p)| {
            svc.add_tenant(
                t.name(),
                Arc::clone(&catalog),
                Arc::clone(p),
                NetworkTopology::paper_wan(),
                TenantConfig {
                    max_inflight: 8,
                    max_queue: 1 << 20,
                    quantum: 1,
                },
            )
        })
        .collect();
    times.total_s.push(t0.elapsed().as_secs_f64());
    Deployment {
        catalog,
        policies,
        pools,
        svc,
        tenants,
    }
}

/// One scheduled operation.
#[derive(Debug, Clone)]
enum Kind {
    /// A query from tenant `tenant`'s pool.
    Read {
        tenant: usize,
        query: usize,
        deadline: bool,
    },
    /// A policy write: grant a duplicate of expression `Some(k)`, or
    /// revoke the duplicate (`None`).
    Write { tenant: usize, grant: Option<usize> },
}

#[derive(Debug, Clone)]
struct Op {
    due_ms: f64,
    kind: Kind,
}

/// The seeded schedule. Reads are split across the tenants in exact
/// 4:3:2:1 proportions, and each tenant walks its pool in seeded
/// permutations, lap after lap, so a run whose length covers whole laps
/// asks every pool query equally often. Writes are added on top. All
/// operations arrive at uniformly random instants of the window: a
/// Poisson process conditioned on its count. Half the reads carry a
/// deadline.
fn schedule(cfg: &Config, seed: u64, seconds: f64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x5E4C);
    let total_weight: u32 = WEIGHTS.iter().sum();
    let laps = ((cfg.rate * seconds / total_weight as f64).round() as usize).max(1);
    let mut kinds = Vec::new();
    for (tenant, w) in WEIGHTS.iter().enumerate() {
        let mut order: Vec<usize> = Vec::new();
        let mut lap = 0;
        for _ in 0..laps * *w as usize {
            if order.is_empty() {
                order = (0..cfg.pool).collect();
                rng.shuffle(&mut order);
                lap += 1;
            }
            let query = order.pop().expect("refilled");
            // Which visits carry a deadline is fixed, not seeded: the
            // resilient path costs more on some queries, and the runs
            // should differ in timing, not in work.
            kinds.push(Kind::Read {
                tenant,
                query,
                deadline: (query + lap) % 2 == 1,
            });
        }
    }
    rng.shuffle(&mut kinds);
    let writes = (kinds.len() as f64 * WRITE_SHARE / (1.0 - WRITE_SHARE)).round() as usize;
    let mut duplicated: Vec<Option<usize>> = vec![None; TEMPLATES.len()];
    for _ in 0..writes {
        let tenant = rng.weighted(&WEIGHTS);
        let grant = match duplicated[tenant] {
            Some(_) => None,
            None => Some(rng.below(EXPRESSIONS)),
        };
        duplicated[tenant] = grant;
        let at = rng.below(kinds.len() + 1);
        kinds.insert(at, Kind::Write { tenant, grant });
    }
    let mut due: Vec<f64> = kinds.iter().map(|_| rng.unit() * seconds * 1e3).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .zip(kinds)
        .map(|(due_ms, kind)| Op { due_ms, kind })
        .collect()
}

/// The policy set a write moves a tenant to: its base set, plus a
/// duplicate of expression `grant` when granting.
fn write_target(dep: &Deployment, tenant: usize, grant: Option<usize>) -> Arc<PolicyCatalog> {
    let base = &dep.policies[tenant];
    let Some(k) = grant else {
        return Arc::clone(base);
    };
    let mut p = (**base).clone();
    let expr = base.expressions()[k].expr.clone();
    let table = dep
        .catalog
        .resolve_one(&expr.table)
        .expect("governed table");
    p.register(expr, &table.schema)
        .expect("duplicate registers");
    Arc::new(p)
}

fn request(dep: &Deployment, tenant: usize, query: usize, deadline: bool) -> QueryRequest {
    let r = QueryRequest::new(&dep.pools[tenant][query].sql);
    if deadline {
        r.with_deadline(QueryDeadline::new(NEVER_MS))
    } else {
        r
    }
}

/// What the open loop saw for one read.
struct Reply {
    op: usize,
    /// From the due time to completion, ms.
    e2e_ms: f64,
    outcome: std::result::Result<Observed, String>,
}

struct OpenLoop {
    replies: Vec<Reply>,
    lag_ms: Vec<f64>,
    window_ms: f64,
    failed_writes: Vec<String>,
    stats_rejected: u64,
    held: Held,
}

/// Plans the service held in its plan cache, each with the engine of the
/// epoch it was cached under, and the cache lookups made to collect them.
#[derive(Default)]
struct Held {
    plans: Vec<(usize, usize, Arc<Engine>, Arc<OptimizedQuery>)>,
    hits: u64,
    misses: u64,
}

impl Held {
    /// Collect the plans the service holds for `tenant`'s pool queries
    /// under its current epoch. A write purges them, so taking them just
    /// before each write and once at the end covers every epoch.
    fn collect(&mut self, dep: &Deployment, refs: &References, tenant: usize) {
        let id = dep.tenants[tenant];
        let engine = dep.svc.tenant_engine(id).expect("tenant");
        let epoch = dep.svc.tenant_epoch(id).expect("tenant");
        for (&(_, query), r) in refs.range((tenant, 0)..(tenant + 1, 0)) {
            let key = PlanKey {
                tenant: id.0,
                fingerprint: r.fingerprint,
                epoch,
            };
            match dep.svc.cache().lookup(&key) {
                Some(plan) => {
                    self.hits += 1;
                    self.plans.push((tenant, query, Arc::clone(&engine), plan));
                }
                None => self.misses += 1,
            }
        }
    }
}

/// Drive the schedule against the service: this thread submits each
/// operation at its due time, one collector thread waits for the replies.
fn open_loop(dep: &Deployment, ops: &[Op], refs: &References) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<(usize, f64, QueryTicket)>();
    let collector = std::thread::spawn(move || {
        rx.into_iter()
            .map(|(op, submit_lag_ms, ticket)| {
                let outcome = ticket.wait();
                match outcome {
                    Ok(reply) => Reply {
                        op,
                        e2e_ms: submit_lag_ms + reply.latency_ms,
                        outcome: Ok(Observed::of(&reply.rows, &reply.transfers)),
                    },
                    Err(e) => Reply {
                        op,
                        e2e_ms: f64::NAN,
                        outcome: Err(e.to_string()),
                    },
                }
            })
            .collect::<Vec<_>>()
    });
    let mut lag_ms = Vec::with_capacity(ops.len());
    let mut failed_writes = Vec::new();
    let mut early = Vec::new();
    let mut held = Held::default();
    let start = Instant::now() + Duration::from_millis(20);
    let off = Tracer::off();
    for (i, op) in ops.iter().enumerate() {
        let due = start + Duration::from_secs_f64(op.due_ms / 1e3);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        lag_ms.push(lag);
        match op.kind {
            Kind::Read {
                tenant,
                query,
                deadline,
            } => {
                let req = request(dep, tenant, query, deadline);
                match calls::submit(&dep.svc, dep.tenants[tenant], req) {
                    Ok(ticket) => {
                        let _ = tx.send((i, lag, ticket));
                    }
                    Err(e) => early.push(Reply {
                        op: i,
                        e2e_ms: f64::NAN,
                        outcome: Err(e.to_string()),
                    }),
                }
            }
            Kind::Write { tenant, grant } => {
                held.collect(dep, refs, tenant);
                let target = write_target(dep, tenant, grant);
                if let Err(e) =
                    calls::update_policies(&dep.svc, dep.tenants[tenant], target, &off, i as u64)
                {
                    failed_writes.push(format!("write {i}: {e}"));
                }
            }
        }
    }
    drop(tx);
    let mut replies = collector.join().expect("collector thread");
    dep.svc.wait_idle();
    for tenant in 0..TEMPLATES.len() {
        held.collect(dep, refs, tenant);
    }
    replies.extend(early);
    replies.sort_by_key(|r| r.op);
    let window_ms = replies
        .iter()
        .map(|r| ops[r.op].due_ms + r.e2e_ms)
        .filter(|t| t.is_finite())
        .fold(ops.last().map_or(0.0, |o| o.due_ms), f64::max);
    OpenLoop {
        replies,
        lag_ms,
        window_ms,
        failed_writes,
        stats_rejected: dep.svc.all_stats().iter().map(|s| s.rejected).sum(),
        held,
    }
}

/// The reference for one pool query: planned alone on a fresh engine
/// over the tenant's base policies, plan audited, and executed by the
/// row interpreter.
struct Reference {
    /// The service's plan-cache fingerprint of the lowered query.
    fingerprint: u64,
    plan: OptimizedQuery,
    observed: Observed,
}

type References = BTreeMap<(usize, usize), Reference>;

/// The reference of every pool query the schedule asks.
fn references(dep: &Deployment, ops: &[Op], report: &mut Report) -> References {
    let off = Tracer::off();
    let engines: Vec<Engine> = dep
        .policies
        .iter()
        .map(|p| {
            Engine::new(
                Arc::clone(&dep.catalog),
                Arc::clone(p),
                NetworkTopology::paper_wan(),
            )
        })
        .collect();
    let mut refs = BTreeMap::new();
    for op in ops {
        let Kind::Read { tenant, query, .. } = op.kind else {
            continue;
        };
        if refs.contains_key(&(tenant, query)) {
            continue;
        }
        let engine = &engines[tenant];
        let made = (|| -> Result<Reference> {
            let plan = calls::parse_lower(&dep.pools[tenant][query].sql, &dep.catalog, &off, 0)?;
            let o = calls::optimize(engine, &plan, &off, 0)?;
            calls::audit(engine, &o.physical, &off, 0)?;
            let e = calls::execute(engine, &o, Path::Oracle, &off, 0)?;
            Ok(Reference {
                fingerprint: query_fingerprint(&plan, None),
                observed: Observed::of_executed(&e),
                plan: o,
            })
        })();
        match made {
            Ok(r) => {
                refs.insert((tenant, query), r);
            }
            Err(e) => report.problem(format!("tenant {tenant} query {query}: reference: {e}")),
        }
    }
    refs
}

/// Set-ups timed per run in each of three groups: before the references,
/// before the open loop and at the end. One takes tens of ms, so the
/// median of many is cheap.
const SETUP_GROUP: usize = 7;

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let cfg = config(opts.size);
    let mut report = Report::default();
    let mut times = Setups::default();
    let mut set_up = |n: usize, dep: &mut Option<Deployment>| {
        for _ in 0..n {
            drop(dep.take());
            *dep = Some(setup(&cfg, &mut times));
        }
    };
    let mut dep = None;
    set_up(SETUP_GROUP, &mut dep);
    let ops = schedule(&cfg, opts.seed, opts.seconds);
    // The deployment is fixed, so references made on one set-up hold for
    // the next.
    let refs = references(dep.as_ref().expect("set up"), &ops, &mut report);
    set_up(SETUP_GROUP, &mut dep);
    let dep = dep.expect("set up");

    stats::reset_peak_rss();
    let run = open_loop(&dep, &ops, &refs);
    report.set("peak_rss_mb", stats::peak_rss_mb());

    let mut e2e = Vec::new();
    let mut reads = Vec::new();
    report.attempted = ops.len() as u64;
    for w in &run.failed_writes {
        report.fail(w.clone());
    }
    for r in &run.replies {
        let Kind::Read { tenant, query, .. } = ops[r.op].kind else {
            continue;
        };
        match (&r.outcome, refs.get(&(tenant, query))) {
            (Ok(obs), Some(reference)) => {
                if let Some(m) = obs.mismatch(&reference.observed) {
                    report.fail(format!("op {} (tenant {tenant} query {query}): {m}", r.op));
                }
                e2e.push(r.e2e_ms);
                reads.push((r.op, obs, reference));
            }
            (Ok(_), None) => report.fail(format!("op {}: no reference", r.op)),
            (Err(e), _) => report.fail(format!("op {}: {e}", r.op)),
        }
    }
    // Audit every plan the service held, under the policies of the epoch
    // it was cached under.
    for (tenant, query, engine, plan) in &run.held.plans {
        if let Err(e) = calls::audit(engine, &plan.physical, &Tracer::off(), 0) {
            report.fail(format!(
                "tenant {tenant} query {query}: cached plan fails audit: {e}"
            ));
        }
    }

    report.set("throughput_qps", e2e.len() as f64 / (run.window_ms / 1e3));
    report.set("latency_p50_ms", percentile(&e2e, 0.5));
    report.set("latency_p90_ms", percentile(&e2e, 0.90));
    report.set("bench.latency_p99_ms", percentile(&e2e, 0.99));
    report.set("latency_geomean_ms", geomean(&e2e));
    let per_read = |f: &dyn Fn(&Observed, &Reference) -> f64| {
        mean(&reads.iter().map(|(_, o, r)| f(o, r)).collect::<Vec<_>>())
    };
    report.set("wan_bytes_per_query", per_read(&|o, _| o.wan_bytes as f64));
    report.set("sim_wan_ms_per_query", per_read(&|o, _| o.sim_ms));
    report.set(
        "plan_cost_ms",
        per_read(&|_, r| r.plan.stats.est_ship_cost_ms),
    );

    // The service's own counters, and the generator's health.
    let stats = dep.svc.all_stats();
    let cache = dep.svc.cache_stats();
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let reruns: u64 = stats.iter().map(|s| s.churn_reruns).sum();
    // Net of the lookups made to collect the held plans.
    let hits = cache.hits - run.held.hits;
    let lookups = cache.hits + cache.misses - run.held.hits - run.held.misses;
    report.set("server.cache_hit_rate", ratio(hits as f64, lookups as f64));
    report.set("server.cache_evictions", cache.evictions as f64);
    report.set("server.churn_reruns", reruns as f64);
    report.set("server.rerun_ratio", ratio(reruns as f64, completed as f64));
    report.set("server.admission_rejects", run.stats_rejected as f64);
    report.set("bench.gen_lag_p99_ms", percentile(&run.lag_ms, 0.99));
    let tenth = (e2e.len() / 10).max(1);
    let backlog = ratio(
        percentile(&e2e[e2e.len().saturating_sub(tenth)..], 0.5),
        percentile(&e2e[..tenth.min(e2e.len())], 0.5),
    );
    report.set("bench.backlog_ratio", backlog);
    if backlog > 3.0 {
        eprintln!(
            "warning: median latency of the last tenth is {backlog:.2}x the first tenth's: \
             a backlog built up, the arrival rate exceeds what the service sustains"
        );
    }

    let mut counters = Counters::default();
    counters.add("operations", ops.len());
    let mut per_op = Counters::default();
    for (op, obs, _) in &reads {
        per_op.add(&op.to_string(), (&ops[*op].kind, obs));
    }
    counters.add("per_op_digest", per_op.digest());
    for ((tenant, query), r) in &refs {
        counters.add(
            &format!("t{tenant}q{query}"),
            (
                &r.observed,
                r.plan.stats.est_ship_cost_ms,
                r.plan.stats.dp_states,
            ),
        );
    }
    crate::check_counters(opts, &counters, &mut report);

    if opts.trace {
        // Fresh deployments for the replays; their set-ups are not timed.
        let mut untimed = Setups::default();
        let untraced = replay(
            &setup(&cfg, &mut untimed),
            &ops,
            &refs,
            &Tracer::off(),
            &mut report,
        );
        let t = Tracer::on();
        let traced = replay(&setup(&cfg, &mut untimed), &ops, &refs, &t, &mut report);
        layer_metrics(opts, &t, &run, &ops, &untraced, &traced, &mut report);
    }
    drop(dep);
    set_up(SETUP_GROUP, &mut None);
    times.report(&mut report);
    report
}

/// What a sequential replay measured.
struct Replayed {
    /// Wall time of each operation, ms, by schedule index.
    op_ms: Vec<f64>,
    /// Resilient time minus plain columnar time of the same plan, ms.
    checkpoint_ms: Vec<f64>,
    /// Checkpointed bytes per resilient execution.
    checkpoint_bytes: Vec<f64>,
    /// Optimizations made (plan-cache misses).
    optimized: Vec<geoqp_core::OptimizeStats>,
    /// Executions made.
    executed: Vec<(Observed, usize)>,
}

/// Replay the schedule one operation at a time on a fresh deployment,
/// making the service's own calls (parse, lower, plan-cache lookup,
/// re-audit or optimize, then bare or resilient execution, and policy
/// writes) through the layers' entry points.
fn replay(
    dep: &Deployment,
    ops: &[Op],
    refs: &References,
    t: &Tracer,
    report: &mut Report,
) -> Replayed {
    let mut out = Replayed {
        op_ms: Vec::with_capacity(ops.len()),
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: Vec::new(),
        optimized: Vec::new(),
        executed: Vec::new(),
    };
    let cache = dep.svc.cache();
    for (i, op) in ops.iter().enumerate() {
        let q = i as u64;
        match op.kind {
            Kind::Write { tenant, grant } => {
                let target = write_target(dep, tenant, grant);
                let (r, ms) = t.op(q, || {
                    calls::update_policies(&dep.svc, dep.tenants[tenant], target, t, q)
                });
                if let Err(e) = r {
                    report.problem(format!("replayed write {i}: {e}"));
                }
                out.op_ms.push(ms);
            }
            Kind::Read {
                tenant,
                query,
                deadline,
            } => {
                let id = dep.tenants[tenant];
                let engine = dep.svc.tenant_engine(id).expect("tenant");
                let churn = dep.svc.tenant_catalog(id).expect("tenant");
                let pin = churn.head();
                let sql = &dep.pools[tenant][query].sql;
                let store = CheckpointStore::new();
                let mut fresh = None;
                let mut resilient_ms = 0.0;
                let (r, ms) = t.op(q, || -> Result<(Arc<OptimizedQuery>, calls::Executed)> {
                    let plan = calls::parse_lower(sql, engine.catalog(), t, q)?;
                    let key = PlanKey {
                        tenant: id.0,
                        fingerprint: query_fingerprint(&plan, None),
                        epoch: pin.epoch,
                    };
                    let optimized = match calls::cache_lookup(cache, &key, t, q) {
                        Some(hit) if calls::audit(&engine, &hit.physical, t, q).is_ok() => hit,
                        held => {
                            if held.is_some() {
                                cache.invalidate(&key);
                            }
                            let o = Arc::new(calls::optimize(&engine, &plan, t, q)?);
                            fresh = Some(o.stats.clone());
                            calls::cache_insert(cache, key, Arc::clone(&o), t, q);
                            o
                        }
                    };
                    let e = if deadline {
                        let opts = FailoverOpts {
                            deadline: Some(QueryDeadline::new(NEVER_MS)),
                            churn: Some(ChurnOpts {
                                service: Arc::clone(&churn),
                                pin,
                            }),
                            ..FailoverOpts::new(MAX_REPLANS).with_columnar(true)
                        };
                        let t0 = Instant::now();
                        let e = calls::execute(
                            &engine,
                            &optimized,
                            Path::Resilient {
                                store: &store,
                                opts: &opts,
                            },
                            t,
                            q,
                        )?;
                        resilient_ms = t0.elapsed().as_secs_f64() * 1e3;
                        e
                    } else {
                        calls::execute(&engine, &optimized, Path::Columnar, t, q)?
                    };
                    Ok((optimized, e))
                });
                out.op_ms.push(ms);
                out.optimized.extend(fresh);
                match r {
                    Ok((optimized, e)) => {
                        let obs = Observed::of_executed(&e);
                        if let Some(m) = obs.mismatch(&refs[&(tenant, query)].observed) {
                            report.fail(format!("replayed op {i}: {m}"));
                        }
                        out.executed.push((obs, e.transfers.fault_count()));
                        drop(e);
                        if deadline && t.enabled() {
                            // The plain call on the same plan, beside the
                            // operation: what checkpointing costs.
                            let t0 = Instant::now();
                            let plain = t.span("bench.check", q, || {
                                calls::execute(&engine, &optimized, Path::Columnar, t, q)
                            });
                            let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
                            if plain.is_ok() {
                                out.checkpoint_ms.push(resilient_ms - plain_ms);
                            }
                            let bytes: usize =
                                store.snapshot().iter().map(|c| c.encoded.len()).sum();
                            out.checkpoint_bytes.push(bytes as f64);
                        }
                    }
                    Err(e) => report.fail(format!("replayed op {i}: {e}")),
                }
            }
        }
    }
    out
}

/// Per-layer metrics from the two replays and the open loop.
fn layer_metrics(
    opts: &Opts,
    t: &Tracer,
    run: &OpenLoop,
    ops: &[Op],
    untraced: &Replayed,
    traced: &Replayed,
    report: &mut Report,
) {
    let table = t.table();
    crate::write_trace(opts, t, &table);
    for (metric, span) in [
        ("parser.parse_ms", "parser.parse"),
        ("parser.lower_ms", "parser.lower"),
        ("core.normalize_ms", "core.normalize"),
        ("core.explore_ms", "core.explore"),
        ("core.annotate_ms", "core.annotate"),
        ("core.site_select_ms", "core.site_select"),
        ("core.audit_ms", "core.audit"),
        ("server.cache_ms", "server.cache"),
        ("server.update_ms", "server.update"),
        ("exec.columnar_ms", "exec.columnar"),
    ] {
        report.set(metric, table.mean_ms(span));
    }
    let opt = &traced.optimized;
    let avg =
        |f: fn(&geoqp_core::OptimizeStats) -> f64| mean(&opt.iter().map(f).collect::<Vec<_>>());
    report.set("core.memo_exprs", avg(|s| s.memo_exprs as f64));
    report.set("core.candidates", avg(|s| s.candidates as f64));
    report.set("core.dp_states", avg(|s| s.dp_states as f64));
    report.set("policy.invocations", avg(|s| s.policy_invocations as f64));
    report.set("policy.eta", avg(|s| s.eta as f64));
    let hits: u64 = opt.iter().map(|s| s.memo_hits).sum();
    let misses: u64 = opt.iter().map(|s| s.memo_misses).sum();
    report.set(
        "policy.memo_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    report.set("runtime.checkpoint_ms", mean(&traced.checkpoint_ms));
    report.set("runtime.checkpoint_bytes", mean(&traced.checkpoint_bytes));
    let ex = &traced.executed;
    report.set(
        "net.transfers",
        mean(
            &ex.iter()
                .map(|(o, _)| o.transfers as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "net.bytes",
        mean(
            &ex.iter()
                .map(|(o, _)| o.wan_bytes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "net.sim_cost_ms",
        mean(&ex.iter().map(|(o, _)| o.sim_ms).collect::<Vec<_>>()),
    );
    report.set("net.faults", ex.iter().map(|(_, f)| *f as f64).sum());
    // Derived, not measured: open-loop latency minus the same read's
    // unloaded service time in the untraced replay.
    let waits: Vec<f64> = run
        .replies
        .iter()
        .filter(|r| r.e2e_ms.is_finite() && matches!(ops[r.op].kind, Kind::Read { .. }))
        .map(|r| r.e2e_ms - untraced.op_ms[r.op])
        .collect();
    report.set("server.derived_queue_wait_p50_ms", percentile(&waits, 0.5));
    report.set("server.derived_queue_wait_p99_ms", percentile(&waits, 0.99));
    report.set(
        "bench.trace_overhead",
        ratio(traced.op_ms.iter().sum(), untraced.op_ms.iter().sum()),
    );
    report.set("bench.layer_coverage", table.coverage());
    report.set("bench.traced_ops", table.ops as f64);
}
