//! The correctness gate: answer fingerprints compared against a
//! reference, and exact counters compared between runs of one seed.

use crate::calls::Executed;
use geoqp_common::Rows;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// What an execution's answer and shipping looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Result rows.
    pub rows: usize,
    /// Exact encoded size of the result.
    pub result_bytes: usize,
    /// Order-sensitive hash of every value.
    pub digest: u64,
    /// Bytes shipped across sites.
    pub wan_bytes: u64,
    /// Simulated WAN time of all transfers, ms.
    pub sim_ms: f64,
    /// Transfer records logged (per batch or per edge, by executor).
    pub transfers: usize,
    /// Hash of the bytes and rows shipped per (from, to) site pair.
    pub shipping: u64,
}

impl Observed {
    /// Fingerprint an answer and its transfer log.
    pub fn of(rows: &Rows, transfers: &geoqp_net::TransferLog) -> Observed {
        let mut h = DefaultHasher::new();
        for row in rows.iter() {
            row.hash(&mut h);
        }
        let digest = h.finish();
        // Shipping per (from, to) pair: the pipelined runtime logs one
        // record per batch where the sequential engines log one per edge,
        // but both move the same bytes and rows between the same sites.
        let mut edges: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for r in transfers.records() {
            let e = edges
                .entry((r.from.to_string(), r.to.to_string()))
                .or_default();
            e.0 += r.bytes;
            e.1 += r.rows;
        }
        let mut h = DefaultHasher::new();
        edges.hash(&mut h);
        Observed {
            rows: rows.len(),
            result_bytes: rows.encoded_size(),
            digest,
            wan_bytes: transfers.total_bytes(),
            sim_ms: transfers.total_cost_ms(),
            transfers: transfers.transfer_count(),
            shipping: h.finish(),
        }
    }

    /// Fingerprint an execution.
    pub fn of_executed(e: &Executed) -> Observed {
        Observed::of(&e.rows, &e.transfers)
    }

    /// `None` when `self` matches `reference`, else what differs. The
    /// simulated time may differ in its last bits, since executors that
    /// ship in batches sum it in another order; everything else is exact.
    pub fn mismatch(&self, reference: &Observed) -> Option<String> {
        let r = reference;
        let sim_close = (self.sim_ms - r.sim_ms).abs() <= 1e-9 * r.sim_ms.abs().max(1.0);
        if self.rows == r.rows
            && self.result_bytes == r.result_bytes
            && self.digest == r.digest
            && self.wan_bytes == r.wan_bytes
            && self.shipping == r.shipping
            && sim_close
        {
            None
        } else {
            Some(format!("got {self:?}, reference {reference:?}"))
        }
    }
}

/// Exact counters of one run, written as `name value` lines.
#[derive(Debug, Default)]
pub struct Counters {
    lines: Vec<String>,
}

impl Counters {
    /// Add one counter. Floats are written with every digit.
    pub fn add(&mut self, name: &str, value: impl std::fmt::Debug) {
        self.lines.push(format!("{name} {value:?}"));
    }

    /// The counters as text.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for l in &self.lines {
            let _ = writeln!(s, "{l}");
        }
        s
    }

    /// A hash of every counter.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.lines.hash(&mut h);
        h.finish()
    }
}

/// Identity of the running executable: a rebuilt binary is a different
/// program whose counters may legitimately differ.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let modified = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}:{}", m.len(), modified)
        })
        .unwrap_or_default()
}

/// Compare `counters` with those an earlier run of the same build, workload,
/// size and seed left in `dir`, then leave this run's for the next one.
/// Returns the differing lines, if any.
pub fn against_previous(dir: &Path, key: &str, counters: &Counters) -> Option<String> {
    let path: PathBuf = dir.join(format!("{key}.counters"));
    let id = build_id();
    let text = counters.text();
    let mut verdict = None;
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if let Some((prev_id, prev_text)) = prev.split_once('\n') {
            if prev_id == id && prev_text != text {
                let diff: Vec<_> = prev_text
                    .lines()
                    .zip(text.lines())
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| format!("{a} -> {b}"))
                    .take(5)
                    .collect();
                verdict = Some(format!(
                    "exact counters differ from an earlier run with the same seed: {}",
                    diff.join("; ")
                ));
            }
        }
    }
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(&path, format!("{id}\n{text}"));
    }
    verdict
}
