//! The metrics registry: counters, gauges and histograms keyed by
//! dot-separated names, plus one typed, sparse per-port table.
//!
//! Everything lives in `BTreeMap`s so iteration — and therefore the
//! exported JSON — has one stable order regardless of insertion history
//! or hash seeds. Time never enters the registry except as sample
//! values: callers clock every observation off simulation microseconds,
//! which is what makes the snapshot a determinism oracle.
//!
//! Per-port telemetry is not a family of named series: a platform has
//! 10^5–10^6 ports and a handful under attack, so the registry keeps one
//! [`PortRow`] per *active* port (any non-zero column) and the number of
//! ports it was offered. An absent port is all-zero, which together with
//! the total keeps the export lossless while its cost scales with what
//! is active, not with what exists.

use crate::hist::LogLinearHistogram;
use serde::{Content, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write;

/// One member port's scrape: rule/shaper population and the cumulative
/// queue counters, `u64` end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortRow {
    /// The fabric-unique port id.
    pub port: u32,
    /// Rules installed on the port.
    pub rules: u64,
    /// Shaping queues on the port.
    pub shape_queues: u64,
    /// Bytes forwarded to the member.
    pub forwarded_bytes: u64,
    /// Bytes discarded by drop rules.
    pub dropped_bytes: u64,
    /// Bytes a shaper let through.
    pub shaped_bytes: u64,
    /// Bytes a shaper discarded.
    pub shape_dropped_bytes: u64,
    /// Bytes lost to port congestion.
    pub congestion_dropped_bytes: u64,
}

impl PortRow {
    /// Column names, in the order [`PortRow::cells`] yields values.
    pub const COLUMNS: [&'static str; 8] = [
        "port",
        "rules",
        "shape_queues",
        "forwarded_bytes",
        "dropped_bytes",
        "shaped_bytes",
        "shape_dropped_bytes",
        "congestion_dropped_bytes",
    ];

    /// The row as exported: the port id, then every value column.
    pub fn cells(&self) -> [u64; 8] {
        [
            u64::from(self.port),
            self.rules,
            self.shape_queues,
            self.forwarded_bytes,
            self.dropped_bytes,
            self.shaped_bytes,
            self.shape_dropped_bytes,
            self.congestion_dropped_bytes,
        ]
    }

    /// Whether any value column is non-zero — only such rows are kept.
    pub fn is_active(&self) -> bool {
        self.cells()[1..].iter().any(|&v| v != 0)
    }
}

/// The registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
    /// Active ports of the latest scrape, strictly ascending by id.
    ports: Vec<PortRow>,
    /// Ports the latest scrape offered, active or not.
    ports_total: u64,
}

/// Applies `update` to the series `name`, created at its default on
/// first use. Looks up by `&str` first: only the first push to a name
/// allocates its key.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, update: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => update(v),
        None => update(map.entry(name.to_string()).or_default()),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (creating it at zero). Saturates
    /// instead of overflowing: counters carrying cardinality-derived
    /// magnitudes (e.g. `verify.ladder.widened_keys`) legitimately pin
    /// at `u64::MAX`.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        update(&mut self.counters, name, |c| *c = c.saturating_add(v));
    }

    /// Increments the counter `name` by one.
    pub fn counter_inc(&mut self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets the counter `name` to an absolute value. For pull-scraped
    /// counters whose source of truth accumulates elsewhere (a subsystem's
    /// own stats struct): re-scraping overwrites instead of double-counts.
    pub fn counter_set(&mut self, name: &str, v: u64) {
        update(&mut self.counters, name, |c| *c = v);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        update(&mut self.gauges, name, |g| *g = v);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        update(&mut self.histograms, name, |h| h.record(v));
    }

    /// The histogram `name`, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms.get(name)
    }

    /// Replaces the per-port table with one scrape: counts every offered
    /// row, keeps the active ones and sorts them by port id, whatever
    /// order (PoP by PoP, say) they arrive in. Replacing — never merging —
    /// is what keeps a port whose last rule was withdrawn, counters still
    /// zero, from lingering as a stale row. Port ids must be unique.
    pub fn replace_ports(&mut self, rows: impl IntoIterator<Item = PortRow>) {
        self.ports.clear();
        self.ports_total = 0;
        for row in rows {
            self.ports_total += 1;
            if row.is_active() {
                self.ports.push(row);
            }
        }
        self.ports.sort_unstable_by_key(|r| r.port);
    }

    /// The latest scrape of port `id`. A port the scrape offered but did
    /// not keep was all-zero, so absent reads as the zero row.
    pub fn port(&self, id: u32) -> PortRow {
        match self.ports.binary_search_by_key(&id, |r| r.port) {
            Ok(i) => self.ports[i],
            Err(_) => PortRow {
                port: id,
                ..PortRow::default()
            },
        }
    }

    /// The active rows of the latest scrape, strictly ascending by port.
    pub fn port_rows(&self) -> &[PortRow] {
        &self.ports
    }

    /// Ports the latest scrape offered, active or not.
    pub fn ports_total(&self) -> u64 {
        self.ports_total
    }

    /// Lowers the registry into the serialization data model. Histograms
    /// carry exact count/sum/min/max, the p50/p95/p99 summary, and their
    /// non-empty buckets; the per-port table rides along as `ports`.
    pub fn to_content(&self) -> Content {
        let mut sections = self.series_content();
        let rows: Vec<[u64; 8]> = self.ports.iter().map(PortRow::cells).collect();
        let ports = serde_json::json!({
            "total": self.ports_total,
            "reported": rows.len(),
            "columns": PortRow::COLUMNS,
            "rows": rows,
        });
        sections.push(("ports".into(), ports));
        Content::Map(sections)
    }

    /// Writes the `ports` member of [`MetricsRegistry::to_content`] as
    /// pretty JSON at its place in the snapshot (nesting depth 2) straight
    /// into `out` — one row per line, no `Content` node per cell. `{:?}`
    /// of a `u64` array, or of plain-identifier strings, is its JSON.
    pub(crate) fn write_ports_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "    \"ports\": {{\n      \"total\": {},\n      \"reported\": {},\n      \"columns\": {:?},\n      \"rows\": [",
            self.ports_total,
            self.ports.len(),
            PortRow::COLUMNS,
        );
        let mut sep = "";
        for row in &self.ports {
            let _ = write!(out, "{sep}\n        {:?}", row.cells());
            sep = ",";
        }
        if !self.ports.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }

    /// The named series — `counters`, `gauges`, `histograms` — lowered
    /// into the serialization data model.
    pub(crate) fn series_content(&self) -> Vec<(String, Content)> {
        let histograms = self.histograms.iter().map(|(k, h)| {
            let summary = serde_json::json!({
                "count": h.count(),
                "sum": h.sum(),
                "min": h.min(),
                "max": h.max(),
                "p50": h.quantile(0.50),
                "p95": h.quantile(0.95),
                "p99": h.quantile(0.99),
                "buckets": h.buckets(),
            });
            (k.clone(), summary)
        });
        vec![
            ("counters".into(), self.counters.to_content()),
            ("gauges".into(), self.gauges.to_content()),
            ("histograms".into(), Content::Map(histograms.collect())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.counter_inc("a.b");
        r.counter_add("a.b", 4);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.gauge_set("g", 7);
        r.gauge_set("g", -2);
        assert_eq!(r.gauge("g"), Some(-2));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn snapshot_order_is_insertion_independent() {
        let mut a = MetricsRegistry::new();
        a.counter_inc("z");
        a.counter_inc("a");
        a.gauge_set("m", 1);
        a.observe("h", 10);
        let mut b = MetricsRegistry::new();
        b.observe("h", 10);
        b.gauge_set("m", 1);
        b.counter_inc("a");
        b.counter_inc("z");
        let ja = serde_json::to_string(&a.to_content()).unwrap();
        let jb = serde_json::to_string(&b.to_content()).unwrap();
        assert_eq!(ja, jb);
        // And names come out sorted.
        assert!(ja.find("\"a\"").unwrap() < ja.find("\"z\"").unwrap());
    }

    #[test]
    fn histogram_summary_appears_in_snapshot() {
        let mut r = MetricsRegistry::new();
        for v in 1..=100u64 {
            r.observe("lat_us", v);
        }
        let json = serde_json::to_string(&r.to_content()).unwrap();
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p99\""));
        assert_eq!(r.histogram("lat_us").unwrap().count(), 100);
    }

    fn row(port: u32, rules: u64, forwarded_bytes: u64) -> PortRow {
        PortRow {
            port,
            rules,
            forwarded_bytes,
            ..PortRow::default()
        }
    }

    #[test]
    fn port_table_keeps_active_rows_sorted_and_absent_reads_zero() {
        let mut r = MetricsRegistry::new();
        r.replace_ports([row(9, 1, 0), row(4, 0, 0), row(2, 0, 700), row(7, 0, 0)]);
        assert_eq!(r.ports_total(), 4);
        assert_eq!(r.port_rows(), [row(2, 0, 700), row(9, 1, 0)]);
        assert_eq!(r.port(2).forwarded_bytes, 700);
        assert_eq!(r.port(4), row(4, 0, 0));
        let json = serde_json::to_string(&r.to_content()).unwrap();
        assert!(
            json.contains("\"ports\":{\"total\":4,\"reported\":2,\"columns\":[\"port\",\"rules\",")
        );
        assert!(json.contains("\"rows\":[[2,0,0,700,0,0,0,0],[9,1,0,0,0,0,0,0]]"));
    }

    #[test]
    fn a_scrape_replaces_the_port_table() {
        let mut r = MetricsRegistry::new();
        r.replace_ports([row(1, 2, 0), row(2, 0, 5)]);
        // Port 1's last rule is withdrawn, its counters still zero; port
        // 3 is new. The stale row must not survive the next scrape.
        r.replace_ports([row(1, 0, 0), row(2, 0, 5), row(3, 0, 0)]);
        assert_eq!(r.ports_total(), 3);
        assert_eq!(r.port_rows(), [row(2, 0, 5)]);
        assert_eq!(r.port(1), row(1, 0, 0));
    }
}
