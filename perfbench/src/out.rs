//! What a run reports: named metrics with units, correctness checks counted
//! as operations, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

/// Metrics in emission order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} is not [A-Za-z0-9_.-]+");
        assert!(self.get(&name).is_none(), "metric {name} emitted twice");
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Correctness checks. Every check is one attempted operation; a check that
/// does not hold is one failed operation and is described on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The last stdout line of a run.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let mut s = String::new();
    let correct = checks.failed == 0 && metrics.entries.iter().all(|e| e.1.is_finite());
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted, checks.failed
    )
    .expect("write to String");
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values cannot be JSON numbers; they also make the run
        // incorrect (above), so `null` only ever accompanies a failure.
        let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
        write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            .expect("write to String");
    }
    s.push_str("}}");
    s
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile, `q` in `[0, 1]`, of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// FNV-1a over a value's `Debug` text. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal fingerprints mean bit-identical
/// values. The text is hashed as it is written, never held in memory.
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked() {
        assert!(valid_name("cluster.sched.swrd.pick_share"));
        assert!(valid_name("t3_r2_groupby"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn json_carries_every_digit() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.0 / 3.0, "s");
        let checks = Checks { attempted: 3, failed: 0 };
        let line = result_json(&checks, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn fingerprints_tell_values_apart() {
        assert_eq!(fingerprint(&(1.0f64, "a")), fingerprint(&(1.0f64, "a")));
        assert_ne!(fingerprint(&0.1f64), fingerprint(&(0.1f64 + f64::EPSILON)));
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }
}
