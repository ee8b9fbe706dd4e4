//! The `BENCH_net.json` summary written by `skewbound-load`.
//!
//! Mirrors `BENCH_grid.json`: a flat, hand-rendered JSON object (the
//! workspace has no JSON dependency) whose fields CI greps by name. The
//! headline numbers are the closed-loop latency percentiles of a TCP
//! loopback run, placed next to the paper's two reference lines — the
//! `d + ε` out-of-protocol bound Algorithm 1 promises and the `2d`
//! folklore round-trip it beats.

use skewbound_sim::stats::LatencySummary;
use skewbound_sim::time::SimDuration;

/// The measured summary of one `skewbound-load` run.
#[derive(Debug, Clone, Copy)]
pub struct NetReport {
    /// Closed-loop sessions completed.
    pub sessions: u64,
    /// Operations completed (all sessions).
    pub ops: u64,
    /// Replica processes driven.
    pub servers: u64,
    /// Distinct namespace keys touched.
    pub keys: u64,
    /// Per-key histories that passed the linearizability check.
    pub keys_checked: u64,
    /// Client-observed operation latencies (ticks = µs).
    pub latency: LatencySummary,
    /// The `d + ε` reference line (Algorithm 1's accessor bound).
    pub ref_d_plus_eps: SimDuration,
    /// The `2d` reference line (centralized folklore bound).
    pub ref_two_d: SimDuration,
}

impl NetReport {
    /// Renders the flat JSON object, one field per line, `_micros`
    /// suffixes marking the µs-tick fields CI greps for.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"sessions\": {},\n  \"ops\": {},\n  \"servers\": {},\n  \
             \"keys\": {},\n  \"keys_checked\": {},\n  \
             \"latency_min_micros\": {},\n  \"latency_mean_micros\": {},\n  \
             \"latency_p50_micros\": {},\n  \"latency_p99_micros\": {},\n  \
             \"latency_max_micros\": {},\n  \"ref_d_plus_eps_micros\": {},\n  \
             \"ref_two_d_micros\": {}\n}}\n",
            self.sessions,
            self.ops,
            self.servers,
            self.keys,
            self.keys_checked,
            self.latency.min.as_ticks(),
            self.latency.mean.as_ticks(),
            self.latency.p50.as_ticks(),
            self.latency.p99.as_ticks(),
            self.latency.max.as_ticks(),
            self.ref_d_plus_eps.as_ticks(),
            self.ref_two_d.as_ticks(),
        )
    }

    /// Writes [`NetReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_every_grepped_field() {
        let latency = LatencySummary::from_latencies(&[
            SimDuration::from_ticks(1_500),
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(10_400),
        ])
        .unwrap();
        let report = NetReport {
            sessions: 1_000,
            ops: 3_000,
            servers: 3,
            keys: 32,
            keys_checked: 32,
            latency,
            ref_d_plus_eps: SimDuration::from_ticks(10_600),
            ref_two_d: SimDuration::from_ticks(18_000),
        };
        let json = report.to_json();
        for field in [
            "\"sessions\": 1000",
            "\"latency_p50_micros\": 9000",
            "\"latency_p99_micros\": 10400",
            "\"latency_max_micros\": 10400",
            "\"ref_d_plus_eps_micros\": 10600",
            "\"ref_two_d_micros\": 18000",
            "\"keys_checked\": 32",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
