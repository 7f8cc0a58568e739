//! Scoped spans for control-plane operations.
//!
//! A span brackets an episode with a beginning and an end in simulation
//! time — a BGP signal waiting to become an installed rule, a
//! retry/backoff episode, a reconcile divergence window. Spans are keyed
//! by `(name, key)` so many episodes of the same kind can be in flight
//! at once (one per rule id, say). Durations land in the owning
//! [`crate::Obs`]'s histogram `span.<name>_us`; this tracker only keeps
//! the pairing state (and that histogram's name, so closing a span
//! formats nothing).

use std::collections::BTreeMap;

/// Everything kept per span name. Keying the tracker on the name alone
/// lets every call look it up by `&str`; only the first span of a name
/// allocates (the name and its histogram's).
#[derive(Debug, Clone)]
struct Episodes {
    /// `span.<name>_us`, built once.
    histogram: String,
    /// Start time of every open span, by key.
    open: BTreeMap<u64, u64>,
    completed: u64,
}

/// Open/closed span bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    spans: BTreeMap<String, Episodes>,
}

impl SpanTracker {
    /// A tracker with no spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the span `(name, key)` at `now_us`. A span that is already
    /// open keeps its original start (the first signal wins — reopening
    /// must not shrink the measured episode).
    pub fn start(&mut self, name: &str, key: u64, now_us: u64) {
        match self.spans.get_mut(name) {
            Some(episodes) => {
                episodes.open.entry(key).or_insert(now_us);
            }
            None => {
                let episodes = Episodes {
                    histogram: format!("span.{name}_us"),
                    open: BTreeMap::from([(key, now_us)]),
                    completed: 0,
                };
                self.spans.insert(name.to_string(), episodes);
            }
        }
    }

    /// Whether the span `(name, key)` is currently open.
    pub fn is_open(&self, name: &str, key: u64) -> bool {
        self.spans
            .get(name)
            .is_some_and(|e| e.open.contains_key(&key))
    }

    /// Closes the span `(name, key)` at `now_us`, returning the name of
    /// the histogram its duration belongs in (`span.<name>_us`) and the
    /// duration. Closing a span that was never opened returns `None` (and
    /// records nothing — unmatched ends are a caller bug, not a panic).
    pub fn end(&mut self, name: &str, key: u64, now_us: u64) -> Option<(&str, u64)> {
        let episodes = self.spans.get_mut(name)?;
        let start = episodes.open.remove(&key)?;
        episodes.completed += 1;
        Some((&episodes.histogram, now_us.saturating_sub(start)))
    }

    /// Discards an open span without completing it (e.g. the rule was
    /// withdrawn mid-retry). Returns true if it was open.
    pub fn abandon(&mut self, name: &str, key: u64) -> bool {
        self.spans
            .get_mut(name)
            .is_some_and(|e| e.open.remove(&key).is_some())
    }

    /// Completed-span counts per name that completed any, in name order.
    pub fn completed(&self) -> impl Iterator<Item = (&str, u64)> {
        self.spans
            .iter()
            .filter(|(_, e)| e.completed > 0)
            .map(|(name, e)| (name.as_str(), e.completed))
    }

    /// Number of completed spans for `name`.
    pub fn completed_count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |e| e.completed)
    }

    /// Open-span counts per name that has any open, in name order.
    pub fn open_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.spans
            .iter()
            .filter(|(_, e)| !e.open.is_empty())
            .map(|(name, e)| (name.as_str(), e.open.len() as u64))
    }

    /// Total spans currently open.
    pub fn open_total(&self) -> usize {
        self.spans.values().map(|e| e.open.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lifecycle_measures_duration() {
        let mut t = SpanTracker::new();
        t.start("install", 7, 1_000);
        assert!(t.is_open("install", 7));
        assert_eq!(t.end("install", 7, 4_500), Some(("span.install_us", 3_500)));
        assert!(!t.is_open("install", 7));
        assert_eq!(t.completed_count("install"), 1);
        assert_eq!(t.end("install", 7, 9_000), None);
    }

    #[test]
    fn reopening_keeps_the_original_start() {
        let mut t = SpanTracker::new();
        t.start("retry", 1, 100);
        t.start("retry", 1, 900); // later re-open: ignored
        assert_eq!(t.end("retry", 1, 1_000), Some(("span.retry_us", 900)));
    }

    #[test]
    fn abandon_drops_without_completing() {
        let mut t = SpanTracker::new();
        t.start("retry", 3, 0);
        assert!(t.abandon("retry", 3));
        assert!(!t.abandon("retry", 3));
        assert_eq!(t.completed_count("retry"), 0);
        assert_eq!(t.open_total(), 0);
    }

    #[test]
    fn open_counts_group_by_name() {
        let mut t = SpanTracker::new();
        t.start("a", 1, 0);
        t.start("a", 2, 0);
        t.start("b", 1, 0);
        assert!(t.open_counts().eq([("a", 2), ("b", 1)]));
        // Neither listing carries zeros: `b` has nothing open any more,
        // `a` has completed nothing yet.
        t.end("b", 1, 5);
        assert!(t.open_counts().eq([("a", 2)]));
        assert!(t.completed().eq([("b", 1)]));
    }
}
