//! # geoqp-perfbench
//!
//! One benchmark for the whole repository: two seeded workloads, each
//! measured end to end with tracing off, then replayed one call at a
//! time through the layers' public entry points with spans on. See
//! `README.md` for the workloads, the metrics and what each layer metric
//! is expected to move.

pub mod adhoc_plan;
pub mod calls;
pub mod check;
pub mod report;
pub mod rng;
pub mod service_mix;
pub mod stats;
pub mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["service-mix", "adhoc-plan"];

/// Input sizes: `Full` is the benchmark, and what the command line runs;
/// `Tiny` runs every code path on small inputs, for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// Small inputs for tests.
    Tiny,
}

impl Size {
    /// Name used in output file names.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed pass measures.
    pub seconds: f64,
    /// Whether to run the traced pass and print per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where spans, layer tables and exact counters are written.
    pub out: PathBuf,
}

impl Opts {
    /// File-name stem for this run's outputs.
    pub fn stem(&self) -> String {
        format!("{}-{}-seed{}", self.workload, self.size.name(), self.seed)
    }
}

/// Run the named workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = match opts.workload.as_str() {
        "service-mix" => service_mix::run(opts),
        "adhoc-plan" => adhoc_plan::run(opts),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "success_rate",
        (attempted - report.failed as f64) / attempted,
    );
    Ok(report)
}

/// Set-up time samples of one run.
#[derive(Debug, Default)]
pub struct Setups {
    /// Whole set-up, s.
    pub total_s: Vec<f64>,
    /// Data population, s.
    pub populate_s: Vec<f64>,
    /// Policy generation, ms.
    pub policy_gen_ms: Vec<f64>,
    /// Ad-hoc query generation, ms.
    pub adhoc_gen_ms: Vec<f64>,
}

impl Setups {
    /// Start timing one set-up. Freed heap is handed back to the system
    /// first, so that every set-up starts from a heap like a fresh
    /// process's and pays for the memory it touches: one that reuses the
    /// pages an earlier set-up freed takes about a quarter less time on
    /// `adhoc-plan`, and the run's median would flip between the two.
    pub fn start() -> Instant {
        stats::trim_heap();
        Instant::now()
    }

    /// Time one step, recording it into `into`, in `scale` units per s.
    pub fn time<R>(into: &mut Vec<f64>, scale: f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        into.push(t0.elapsed().as_secs_f64() * scale);
        out
    }

    /// Report the medians.
    pub fn report(&self, r: &mut Report) {
        r.set("setup_s", stats::median(&self.total_s));
        r.set("tpch.populate_s", stats::median(&self.populate_s));
        r.set("tpch.policy_gen_ms", stats::median(&self.policy_gen_ms));
        r.set("tpch.adhoc_gen_ms", stats::median(&self.adhoc_gen_ms));
    }
}

/// Set-ups per run where one takes about a second; the median is
/// reported. Each workload times some of its set-ups before the timed
/// pass and the rest at the end of the run, so that the median spans the
/// machine's slow and fast spells instead of one burst.
pub const CHEAP_SETUPS: usize = 5;

/// Seed of the fixed parts of a deployment: the service tenants' data,
/// policies and query pools, and the planning engines' policies. It is
/// the experiment runner's seed, so these are the deployments its
/// service and optimizer experiments use. `--seed` drives the rest.
pub const DEPLOYMENT_SEED: u64 = 2021;

/// Write the traced pass's spans and per-layer table next to the other
/// outputs, and echo the table to stderr.
pub fn write_trace(opts: &Opts, tracer: &trace::Tracer, table: &trace::LayerTable) {
    let _ = std::fs::create_dir_all(&opts.out);
    let stem = opts.stem();
    let _ = std::fs::write(
        opts.out.join(format!("{stem}.spans.jsonl")),
        tracer.spans_jsonl(),
    );
    let rendered = table.render();
    let _ = std::fs::write(opts.out.join(format!("{stem}.layers.txt")), &rendered);
    eprint!("{rendered}");
}

/// Compare this run's exact counters with an earlier run of the same
/// seed, recording a problem when they differ.
pub fn check_counters(opts: &Opts, counters: &check::Counters, report: &mut Report) {
    report.counters = Some(counters.digest());
    let dir = opts.out.join("counters");
    if let Some(diff) = check::against_previous(&dir, &opts.stem(), counters) {
        report.problem(diff);
    }
}
