//! The benchmark's own arithmetic: quantiles, the goodput deadline and
//! peak-RSS parsing.  Kept apart from the workloads so it can be unit-tested
//! against hand-computed values.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two nearest ranks (`numpy.quantile`'s default method).
/// Returns `None` for an empty slice or a slice holding a NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Latency limits a completion must meet to count towards goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyLimits {
    /// Limit on the time to first token, in seconds.
    pub ttft_s: f64,
    /// Limit on each later gap between output tokens, in seconds.
    pub tpot_s: f64,
}

impl LatencyLimits {
    /// The latest completion time a request may have and still count:
    /// `arrival + ttft + tpot × (output_tokens − 1)`.  A request with a
    /// single output token has only the first-token limit.
    pub fn deadline(&self, arrival: f64, output_tokens: usize) -> f64 {
        arrival + self.ttft_s + self.tpot_s * output_tokens.saturating_sub(1) as f64
    }

    /// Whether a request completing at `completed_at` met its deadline.
    pub fn met(&self, arrival: f64, output_tokens: usize, completed_at: f64) -> bool {
        completed_at <= self.deadline(arrival, output_tokens)
    }
}

/// Parses the peak resident set size (`VmHWM`) out of the text of
/// `/proc/self/status`, in MiB.  `None` when the line is missing or
/// malformed.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    let scale = match fields.next()? {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_peak_rss_mib(&status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        // Position 1.5 between 2 and 3.
        assert_eq!(median(&v), Some(2.5));
        // Position 0.75 × 3 = 2.25 → 3 + 0.25 × (4 − 3).
        assert_eq!(quantile(&v, 0.75), Some(3.25));
        assert_eq!(quantile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn quantile_of_nothing_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
    }

    #[test]
    fn goodput_deadline_adds_one_gap_per_later_token() {
        let limits = LatencyLimits {
            ttft_s: 2.0,
            tpot_s: 0.5,
        };
        assert_eq!(limits.deadline(10.0, 1), 12.0);
        assert_eq!(limits.deadline(10.0, 5), 14.0);
        // Zero output tokens cannot underflow.
        assert_eq!(limits.deadline(10.0, 0), 12.0);
        assert!(limits.met(10.0, 5, 14.0));
        assert!(!limits.met(10.0, 5, 14.000001));
    }

    #[test]
    fn peak_rss_is_read_from_vmhwm() {
        let status =
            "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(200.0));
        assert_eq!(parse_peak_rss_mib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t12 parsecs\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mib = peak_rss_mib().expect("/proc/self/status carries VmHWM");
        assert!(mib > 0.0);
    }
}
