//! `adhoc-plan`: fresh seeded ad-hoc queries, never repeated, planned
//! round-robin on four engines (T with 8 expressions; C, CR and CR+A
//! with 50) over SF 10 statistics by one closed-loop client. Each query
//! is parsed, lowered, optimized and audited; nothing executes. This is
//! the paper's optimization-overhead experiment: the optimizer and the
//! policy evaluator do all the work.

use crate::calls;
use crate::check::Counters;
use crate::report::Report;
use crate::stats::{self, fast_slices, geomean, mean, percentile, ratio, slices};
use crate::trace::Tracer;
use crate::{Opts, Setups, Size, CHEAP_SETUPS, DEPLOYMENT_SEED};
use geoqp_common::Result;
use geoqp_core::{AnnotatedNode, Engine};
use geoqp_net::NetworkTopology;
use geoqp_plan::{PhysOp, PhysicalPlan};
use geoqp_tpch::adhoc::{generate_adhoc, AdhocQuery};
use geoqp_tpch::policy_gen::{generate_policies, PolicyTemplate};
use std::sync::Arc;
use std::time::Instant;

/// Statistics scale factor (the paper's SF 10); no data is populated.
const SF: f64 = 10.0;
const TEMPLATES: [PolicyTemplate; 4] = [
    PolicyTemplate::T,
    PolicyTemplate::C,
    PolicyTemplate::CR,
    PolicyTemplate::CRA,
];

/// Time slices of the timed pass: enough that a slow spell of a few
/// seconds leaves most of them alone.
const SLICES: usize = 20;

/// The paper's ad-hoc setting: T has only its 8 base expressions, the
/// others 50.
fn expressions(t: PolicyTemplate) -> usize {
    match t {
        PolicyTemplate::T => 8,
        _ => 50,
    }
}

struct Config {
    /// Queries generated per engine; the timed pass stops early if it
    /// runs out.
    per_engine: usize,
    /// Leading queries the timed pass always plans: the exact metrics and
    /// counters are taken over them.
    prefix: usize,
    /// Leading queries replayed on fresh set-ups to check that every
    /// counter repeats, and to trace.
    replay: usize,
}

fn config(size: Size) -> Config {
    match size {
        Size::Full => Config {
            per_engine: 20_000,
            prefix: 8000,
            replay: 2000,
        },
        Size::Tiny => Config {
            per_engine: 12,
            prefix: 40,
            replay: 40,
        },
    }
}

struct Deployment {
    engines: Vec<Engine>,
    queries: Vec<Vec<AdhocQuery>>,
}

fn setup(cfg: &Config, seed: u64, times: &mut Setups) -> Deployment {
    let t0 = Setups::start();
    let catalog = Arc::new(geoqp_tpch::paper_catalog(SF));
    times.populate_s.push(0.0);
    let policies = Setups::time(&mut times.policy_gen_ms, 1e3, || {
        TEMPLATES
            .iter()
            .enumerate()
            .map(|(i, t)| {
                generate_policies(
                    &catalog,
                    *t,
                    expressions(*t),
                    DEPLOYMENT_SEED ^ (i as u64 + 1),
                )
                .expect("policies")
            })
            .collect::<Vec<_>>()
    });
    let queries = Setups::time(&mut times.adhoc_gen_ms, 1e3, || {
        (0..TEMPLATES.len())
            .map(|i| {
                generate_adhoc(&catalog, cfg.per_engine, seed ^ ((i as u64 + 1) << 8))
                    .expect("ad-hoc queries")
            })
            .collect()
    });
    let engines = policies
        .into_iter()
        .map(|p| {
            Engine::new(
                Arc::clone(&catalog),
                Arc::new(p),
                NetworkTopology::paper_wan(),
            )
        })
        .collect();
    times.total_s.push(t0.elapsed().as_secs_f64());
    Deployment { engines, queries }
}

/// The exact outcome of planning one query.
#[derive(Debug, Clone, PartialEq)]
struct Planned {
    est_cost_ms: f64,
    est_wan_bytes: f64,
    dp_states: usize,
    candidates: usize,
    memo_exprs: usize,
    eta: u64,
    invocations: u64,
    memo_hits: u64,
    memo_misses: u64,
}

/// Bytes the chosen plan's SHIP edges carry by the optimizer's estimate.
/// The located plan mirrors the annotated tree, with a SHIP inserted on
/// every edge whose endpoints sit at different sites.
fn est_wan_bytes(p: &PhysicalPlan, a: &AnnotatedNode) -> f64 {
    p.inputs
        .iter()
        .zip(&a.children)
        .map(|(child, ac)| {
            let mut child = child;
            let mut shipped = 0.0;
            while matches!(child.op, PhysOp::Ship) && !child.inputs.is_empty() {
                shipped += ac.bytes();
                child = &child.inputs[0];
            }
            shipped + est_wan_bytes(child, ac)
        })
        .sum()
}

/// Parse → lower → optimize → audit. Returns the outcome and the
/// optimizer call's own time, ms.
fn plan_one(engine: &Engine, sql: &str, t: &Tracer, q: u64) -> Result<(Planned, f64)> {
    let plan = calls::parse_lower(sql, engine.catalog(), t, q)?;
    let t0 = Instant::now();
    let o = calls::optimize(engine, &plan, t, q)?;
    let optimize_ms = t0.elapsed().as_secs_f64() * 1e3;
    calls::audit(engine, &o.physical, t, q)?;
    let s = &o.stats;
    let planned = Planned {
        est_cost_ms: s.est_ship_cost_ms,
        est_wan_bytes: est_wan_bytes(&o.physical, &o.annotated),
        dp_states: s.dp_states,
        candidates: s.candidates,
        memo_exprs: s.memo_exprs,
        eta: s.eta,
        invocations: s.policy_invocations,
        memo_hits: s.memo_hits,
        memo_misses: s.memo_misses,
    };
    Ok((planned, optimize_ms))
}

fn query(dep: &Deployment, i: usize) -> (&Engine, &str) {
    let e = i % dep.engines.len();
    (&dep.engines[e], &dep.queries[e][i / dep.engines.len()].sql)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let cfg = config(opts.size);
    let mut report = Report::default();
    let mut times = Setups::default();
    // Two of the set-ups are timed at the end of the run instead.
    let mut dep = None;
    for _ in 0..CHEAP_SETUPS - 2 {
        drop(dep.take());
        dep = Some(setup(&cfg, opts.seed, &mut times));
    }
    let dep = dep.expect("set up");
    let capacity = dep.engines.len() * cfg.per_engine;
    let prefix = cfg.prefix.min(capacity);
    let off = Tracer::off();

    let mut latencies = Vec::new();
    let mut starts = Vec::new();
    let mut planned: Vec<Option<Planned>> = Vec::new();
    stats::reset_peak_rss();
    let started = Instant::now();
    let mut i = 0;
    while i < capacity && (i < prefix || started.elapsed().as_secs_f64() < opts.seconds) {
        let (engine, sql) = query(&dep, i);
        let t0 = Instant::now();
        starts.push((t0 - started).as_secs_f64());
        let r = plan_one(engine, sql, &off, i as u64);
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        let outcome = match r {
            Ok((p, _)) => Some(p),
            Err(e) => {
                report.fail(format!("query {i}: {e}"));
                None
            }
        };
        if i < prefix {
            planned.push(outcome);
        }
        i += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    report.set("peak_rss_mb", stats::peak_rss_mb());
    drop(dep);
    // Each figure is the slice's own, read across the time slices at the
    // fast end (`FAST_END`), so that the host's slow spells do not set
    // it.
    let by_start = slices(
        starts.iter().copied().zip(latencies.iter().copied()),
        wall_s,
        SLICES,
    );
    let slice_s = wall_s / SLICES as f64;
    report.set(
        "throughput_qps",
        fast_slices(&by_start, true, |s| s.len() as f64 / slice_s),
    );
    report.set(
        "latency_p50_ms",
        fast_slices(&by_start, false, |s| percentile(s, 0.5)),
    );
    report.set(
        "latency_p90_ms",
        fast_slices(&by_start, false, |s| percentile(s, 0.90)),
    );
    report.set("latency_geomean_ms", fast_slices(&by_start, false, geomean));
    report.set("bench.latency_p99_ms", percentile(&latencies, 0.99));
    let ok: Vec<&Planned> = planned.iter().flatten().collect();
    // Nothing executes here, so the WAN figures are the optimizer's
    // estimates for the chosen plans.
    let cost = mean(&ok.iter().map(|p| p.est_cost_ms).collect::<Vec<_>>());
    report.set("plan_cost_ms", cost);
    report.set("sim_wan_ms_per_query", cost);
    report.set(
        "wan_bytes_per_query",
        mean(&ok.iter().map(|p| p.est_wan_bytes).collect::<Vec<_>>()),
    );

    let mut counters = Counters::default();
    counters.add("queries", planned.len());
    counters.add(
        "plan_cost_sum",
        ok.iter().map(|p| p.est_cost_ms).sum::<f64>(),
    );
    counters.add("dp_states", ok.iter().map(|p| p.dp_states).sum::<usize>());
    counters.add("memo_hits", ok.iter().map(|p| p.memo_hits).sum::<u64>());
    counters.add("memo_misses", ok.iter().map(|p| p.memo_misses).sum::<u64>());
    counters.add("candidates", ok.iter().map(|p| p.candidates).sum::<usize>());
    counters.add("eta", ok.iter().map(|p| p.eta).sum::<u64>());
    let mut all = Counters::default();
    for p in &planned {
        all.add("q", p);
    }
    counters.add("per_query_digest", all.digest());
    crate::check_counters(opts, &counters, &mut report);

    // Replay the prefix on a fresh set-up with the same calls: every
    // counter must repeat exactly. With tracing, the traced replay on a
    // second fresh set-up runs beside it and must agree with it too.
    // These set-ups are not timed.
    let fresh = || {
        let mut dep = setup(&cfg, opts.seed, &mut Setups::default());
        let keep = cfg.replay.div_ceil(TEMPLATES.len());
        dep.queries.iter_mut().for_each(|q| q.truncate(keep));
        dep
    };
    let check_dep = fresh();
    let traced_dep = if opts.trace { Some(fresh()) } else { None };
    let t = if opts.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut optimize_ms = Vec::new();
    let mut traced_ok = Vec::new();
    let mut traced_ms = 0.0;
    let mut untraced_ms = 0.0;
    for (j, expected) in planned.iter().take(cfg.replay).enumerate() {
        let (engine, sql) = query(&check_dep, j);
        let t0 = Instant::now();
        let replayed = plan_one(engine, sql, &off, j as u64);
        untraced_ms += t0.elapsed().as_secs_f64() * 1e3;
        let again = replayed.as_ref().ok().map(|(p, _)| p.clone());
        if again.as_ref() != expected.as_ref() {
            report.problem(format!(
                "query {j}: exact counters differ on replay: {expected:?} then {again:?}"
            ));
        }
        if let Ok((_, ms)) = replayed {
            optimize_ms.push(ms);
        }
        if let Some(traced_dep) = &traced_dep {
            let (engine, sql) = query(traced_dep, j);
            let (r, ms) = t.op(j as u64, || plan_one(engine, sql, &t, j as u64));
            traced_ms += ms;
            let traced = r.ok().map(|(p, _)| p);
            if traced.as_ref() != expected.as_ref() {
                report.problem(format!(
                    "query {j}: traced optimizer phases disagree with Engine::optimize: \
                     {traced:?} vs {expected:?}"
                ));
            }
            traced_ok.extend(traced);
        }
    }
    if opts.trace {
        let table = t.table();
        crate::write_trace(opts, &t, &table);
        for (metric, span) in [
            ("parser.parse_ms", "parser.parse"),
            ("parser.lower_ms", "parser.lower"),
            ("core.normalize_ms", "core.normalize"),
            ("core.explore_ms", "core.explore"),
            ("core.annotate_ms", "core.annotate"),
            ("core.site_select_ms", "core.site_select"),
            ("core.audit_ms", "core.audit"),
        ] {
            report.set(metric, table.mean_ms(span));
        }
        let phases: f64 = [
            "core.normalize",
            "core.explore",
            "core.annotate",
            "core.site_select",
        ]
        .iter()
        .map(|s| table.total_ms(s))
        .sum();
        report.set("core.optimize_ms", mean(&optimize_ms));
        report.set(
            "core.phase_sum_ratio",
            ratio(phases, optimize_ms.iter().sum()),
        );
        let avg = |f: fn(&Planned) -> f64| mean(&traced_ok.iter().map(f).collect::<Vec<_>>());
        report.set("core.memo_exprs", avg(|p| p.memo_exprs as f64));
        report.set("core.candidates", avg(|p| p.candidates as f64));
        report.set("core.dp_states", avg(|p| p.dp_states as f64));
        report.set("policy.invocations", avg(|p| p.invocations as f64));
        report.set("policy.eta", avg(|p| p.eta as f64));
        let hits: u64 = traced_ok.iter().map(|p| p.memo_hits).sum();
        let misses: u64 = traced_ok.iter().map(|p| p.memo_misses).sum();
        report.set(
            "policy.memo_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
        // Against the untraced replay of the same queries beside it.
        report.set("bench.trace_overhead", ratio(traced_ms, untraced_ms));
        report.set("bench.layer_coverage", table.coverage());
        report.set("bench.traced_ops", table.ops as f64);
    }
    drop((check_dep, traced_dep));
    // The run's last two set-up samples.
    for _ in 0..2 {
        setup(&cfg, opts.seed, &mut times);
    }
    times.report(&mut report);
    report
}
