//! Named metrics, the statistics the benchmark reports, and the run's
//! outcome tally.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Metrics by name: value and unit.
#[derive(Debug, Default)]
pub struct Metrics {
    map: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name`, replacing an earlier value.
    ///
    /// # Panics
    ///
    /// Panics on a name outside `[A-Za-z0-9_.-]+` (a benchmark bug).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            valid_name(&name),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
        self.map.insert(name, (value, unit));
    }

    /// Every metric in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.map.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).map(|&(v, _)| v)
    }

    /// The unit of `name`, if recorded.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.map.get(name).map(|&(_, u)| u)
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile with at least [`TAIL_SUPPORT`] samples beyond
/// it: the value of the sample ranked `TAIL_SUPPORT + 1` from the top,
/// and its percentile `100 · (n − TAIL_SUPPORT) / n`. `None` when there
/// are too few samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = n - TAIL_SUPPORT - 1;
    Some((100.0 * (rank + 1) as f64 / n as f64, s[rank]))
}

/// Queries attempted and how they failed, shared by load threads.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    errored: AtomicU64,
    refused: AtomicU64,
    wrong: AtomicU64,
}

impl Tally {
    /// One more query attempted.
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::SeqCst);
    }

    /// A query ended in a typed error or a caught panic.
    pub fn error(&self) {
        self.errored.fetch_add(1, Ordering::SeqCst);
    }

    /// A session was refused or shed; `queries` were attempted with it.
    pub fn refuse(&self, queries: u64) {
        self.attempted.fetch_add(queries, Ordering::SeqCst);
        self.refused.fetch_add(queries, Ordering::SeqCst);
    }

    /// A query's logits differed from the reference.
    pub fn wrong(&self) {
        self.wrong.fetch_add(1, Ordering::SeqCst);
    }

    /// `(attempted, errored, refused, wrong)`.
    pub fn read(&self) -> (u64, u64, u64, u64) {
        (
            self.attempted.load(Ordering::SeqCst),
            self.errored.load(Ordering::SeqCst),
            self.refused.load(Ordering::SeqCst),
            self.wrong.load(Ordering::SeqCst),
        )
    }

    /// Attempted queries that did not return the reference logits.
    pub fn failed(&self) -> u64 {
        let (_, errored, refused, wrong) = self.read();
        errored + refused + wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_the_support_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("eleven samples support a tail");
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("tail");
        assert_eq!((pct, v), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_SUPPORT);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("tail");
        assert_eq!((pct, v), (99.0, 989.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_SUPPORT);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["setup_s", "gc.and_gates.gelu", "net.send_ms.client", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "p95 ms", "net/bytes", "gc.and_gates{gelu}", "é"] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
