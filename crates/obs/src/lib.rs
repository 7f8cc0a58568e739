//! # stellar-obs
//!
//! Deterministic, sim-time-driven observability for the Stellar
//! reproduction: the paper's telemetry claim (§3.1) and its control-plane
//! latency evaluation (Fig. 10a/b) both rest on accurate accounting and
//! observable timing, so the repro instruments itself with
//!
//! - a [`MetricsRegistry`] of counters, gauges and log-linear
//!   [`LogLinearHistogram`]s with p50/p95/p99 summaries, plus one typed,
//!   sparse per-port table ([`PortRow`]: only active ports are kept),
//! - a [`SpanTracker`] bracketing control-plane episodes (BGP signal →
//!   rule installed, retry/backoff, reconcile divergence windows),
//! - a bounded [`FlightRecorder`] ring buffer of structured events for
//!   dumping on fault or at end-of-run,
//!
//! bundled behind the [`Obs`] facade plus a stable-ordering JSON
//! [`Obs::snapshot_json`] export.
//!
//! **Determinism is the design constraint**: every observation is clocked
//! off simulation microseconds — no wall clock, no `std::time::Instant`
//! anywhere in this crate — and every container iterates in a stable
//! order. Two runs with the same seed therefore export byte-identical
//! snapshots, which turns observability itself into a determinism oracle:
//! CI diffs the JSON of two identically-seeded runs and fails on any
//! divergence.

pub mod hist;
pub mod recorder;
pub mod registry;
pub mod span;

pub use hist::LogLinearHistogram;
pub use recorder::{FlightEvent, FlightRecorder};
pub use registry::{MetricsRegistry, PortRow};
pub use span::SpanTracker;

use serde::Content;
use std::io;
use std::path::Path;

/// Schema tag stamped into every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "stellar-obs/v2";

/// The observability bundle a subsystem owns: registry + spans + flight
/// recorder, with span durations flowing into `span.<name>_us`
/// histograms automatically.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The metrics registry.
    pub registry: MetricsRegistry,
    /// Span pairing state.
    pub spans: SpanTracker,
    /// The flight recorder.
    pub recorder: FlightRecorder,
}

impl Obs {
    /// An empty bundle with the default flight-recorder capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bundle with a custom flight-recorder capacity.
    pub fn with_recorder_capacity(cap: usize) -> Self {
        Obs {
            recorder: FlightRecorder::new(cap),
            ..Default::default()
        }
    }

    /// Opens the span `(name, key)` at `now_us`.
    pub fn span_start(&mut self, name: &str, key: u64, now_us: u64) {
        self.spans.start(name, key, now_us);
    }

    /// Closes the span `(name, key)` at `now_us`. The duration is
    /// recorded into the histogram `span.<name>_us` and returned;
    /// unmatched ends record nothing.
    pub fn span_end(&mut self, name: &str, key: u64, now_us: u64) -> Option<u64> {
        let (histogram, d) = self.spans.end(name, key, now_us)?;
        self.registry.observe(histogram, d);
        Some(d)
    }

    /// Records a flight-recorder event.
    pub fn event(&mut self, at_us: u64, kind: &str, fields: Vec<(String, String)>) {
        self.recorder.record(at_us, kind, fields);
    }

    /// The snapshot sections around `metrics`: meta, span counts and the
    /// flight recorder, each in stable order.
    fn sections(&self, now_us: u64) -> [Content; 3] {
        fn counts<'a>(per_name: impl Iterator<Item = (&'a str, u64)>) -> Content {
            Content::Map(per_name.map(|(k, n)| (k.into(), Content::U64(n))).collect())
        }
        let meta = serde_json::json!({ "schema": SNAPSHOT_SCHEMA, "now_us": now_us });
        let spans = serde_json::json!({
            "completed": counts(self.spans.completed()),
            "open": counts(self.spans.open_counts()),
        });
        [meta, spans, self.recorder.to_content()]
    }

    /// Assembles the full snapshot: schema + registry + span counts +
    /// flight recorder, every section in stable order.
    pub fn snapshot(&self, now_us: u64) -> Content {
        let [meta, spans, flight_recorder] = self.sections(now_us);
        Content::Map(vec![
            ("meta".into(), meta),
            ("metrics".into(), self.registry.to_content()),
            ("spans".into(), spans),
            ("flight_recorder".into(), flight_recorder),
        ])
    }

    /// The snapshot as pretty JSON text — the document [`Obs::snapshot`]
    /// describes, with the per-port rows written one per line straight
    /// into the output. Byte-identical across runs that made the same
    /// observations.
    pub fn snapshot_json(&self, now_us: u64) -> String {
        let [meta, spans, flight_recorder] = self.sections(now_us);
        let mut out = String::from("{\n");
        push_member(&mut out, "  ", "meta", &meta);
        out.push_str(",\n  \"metrics\": {\n");
        for (name, series) in self.registry.series_content() {
            push_member(&mut out, "    ", &name, &series);
            out.push_str(",\n");
        }
        self.registry.write_ports_json(&mut out);
        out.push_str("\n  },\n");
        push_member(&mut out, "  ", "spans", &spans);
        out.push_str(",\n");
        push_member(&mut out, "  ", "flight_recorder", &flight_recorder);
        out.push_str("\n}\n");
        out
    }

    /// Writes the snapshot to `path`, creating parent directories.
    pub fn export(&self, path: impl AsRef<Path>, now_us: u64) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.snapshot_json(now_us))
    }
}

/// Appends `"key": value` as pretty JSON on a line indented by `pad`:
/// `serde_json` renders from column zero, so every continuation line is
/// shifted right by `pad`. String contents never hold a raw newline
/// (JSON escapes them), so splitting on one only ever splits structure.
fn push_member(out: &mut String, pad: &str, key: &str, value: &Content) {
    let text = serde_json::to_string_pretty(value).expect("obs snapshot is always serializable");
    out.push_str(pad);
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(pad);
        }
        out.push_str(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_durations_flow_into_histograms() {
        let mut o = Obs::new();
        o.span_start("install", 1, 100);
        o.span_start("install", 2, 200);
        assert_eq!(o.span_end("install", 1, 600), Some(500));
        assert_eq!(o.span_end("install", 2, 1_200), Some(1_000));
        assert_eq!(o.span_end("install", 9, 1_300), None);
        let h = o.registry.histogram("span.install_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 500);
        assert_eq!(o.spans.completed_count("install"), 2);
    }

    #[test]
    fn snapshot_is_reproducible_and_tagged() {
        let drive = |o: &mut Obs| {
            o.registry.counter_inc("core.installs");
            o.registry.gauge_set("dataplane.tcam.l34_used", 12);
            o.registry.observe("core.signal_to_install_us", 42_000);
            o.span_start("retry", 5, 0);
            o.span_end("retry", 5, 77);
            o.event(
                10,
                "fault.brownout",
                vec![("dur_us".into(), "800000".into())],
            );
        };
        let mut a = Obs::new();
        let mut b = Obs::new();
        drive(&mut a);
        drive(&mut b);
        let ja = a.snapshot_json(1_000);
        let jb = b.snapshot_json(1_000);
        assert_eq!(ja, jb);
        assert!(ja.contains(SNAPSHOT_SCHEMA));
        assert!(ja.contains("span.retry_us"));
        assert!(ja.ends_with('\n'));
    }

    #[test]
    fn export_writes_file() {
        let mut o = Obs::new();
        o.registry.counter_inc("x");
        let dir = std::env::temp_dir().join("stellar_obs_test");
        let path = dir.join("snap.json");
        o.export(&path, 5).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, o.snapshot_json(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `snapshot_json` writes the ports rows itself; everything else goes
    /// through `serde_json`. Both must describe one document.
    #[test]
    fn snapshot_json_is_the_snapshot_document() {
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        let mut o = Obs::new();
        o.registry.counter_inc("core.installs");
        o.registry.gauge_set("g", -4);
        o.registry.observe("h", 9);
        o.span_start("retry", 5, 0);
        o.event(10, "fault.brownout", vec![("k".into(), "v".into())]);
        let compact = |o: &Obs| serde_json::to_string(&o.snapshot(7)).unwrap();
        let json = o.snapshot_json(7);
        assert_eq!(squeeze(&json), compact(&o));
        assert!(json.contains("\"reported\": 0,"));
        assert!(json.contains("\n      \"rows\": []\n    }\n  },"));

        // A counter above `i64::MAX` survives: rows are `u64` end to end.
        let big = u64::MAX - 1;
        let row = |port, dropped_bytes| PortRow {
            port,
            dropped_bytes,
            ..PortRow::default()
        };
        o.registry
            .replace_ports([row(8, big), row(3, 1), row(5, 0)]);
        let json = o.snapshot_json(7);
        assert_eq!(squeeze(&json), compact(&o));
        assert!(json.contains("\"total\": 3,\n      \"reported\": 2,"));
        assert!(json.contains(&format!(
            "\n        [3, 0, 0, 0, 1, 0, 0, 0],\n        [8, 0, 0, 0, {big}, 0, 0, 0]\n      ]\n    }}\n  }},"
        )));
    }
}
