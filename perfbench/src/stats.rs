//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Split `(at, value)` samples into `n` equal slices of `[0, span)` by
/// `at`; samples at or past `span` go to the last slice.
pub fn slices(samples: impl IntoIterator<Item = (f64, f64)>, span: f64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for (at, v) in samples {
        out[((at / span * n as f64) as usize).min(n - 1)].push(v);
    }
    out
}

/// Where a run's speed figures are read among its time slices, as a
/// share of the way from the slowest slice to the fastest. The host's
/// slow spells only ever slow a slice down, so a fast slice follows the
/// program more steadily than the median one; not the fastest itself, so
/// that one lucky slice does not set the figure.
pub const FAST_END: f64 = 0.9;

/// A statistic of each non-empty slice, read at [`FAST_END`] across the
/// slices: toward the high end when `higher_is_faster`, as for a
/// throughput, and toward the low end otherwise, as for a latency.
pub fn fast_slices(
    slices: &[Vec<f64>],
    higher_is_faster: bool,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let stats: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stat(s))
        .collect();
    let at = if higher_is_faster {
        FAST_END
    } else {
        1.0 - FAST_END
    };
    percentile(&stats, at)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive samples; 0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let logs: f64 = samples.iter().map(|x| x.max(1e-9).ln()).sum();
    (logs / samples.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Hand freed heap pages back to the system.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Start a new peak-memory window: hand freed heap pages back to the
/// system, then reset `VmHWM` to the current resident set, so that the
/// next [`peak_rss_mb`] reads the peak of what ran in between and not of
/// the set-ups and reference passes before it.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (or since it started), MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
