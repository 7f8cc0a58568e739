//! Spans for the staged (`--trace 1`) run.
//!
//! The staged driver brackets every call it makes into a layer with a
//! span: name, start, end, the span that caused it and the op it belongs
//! to. Spans are kept in memory and written out once, when the run ends.
//! A layer's self time is its span's duration minus the part its child
//! spans cover.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Which part of the run a span belongs to. Per-layer numbers come from
/// the measured window; layers that only run while the standing state is
/// built (the signalling path of a tick workload) are read from set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Setup,
    Warmup,
    Window,
    Quiet,
}

impl Stage {
    fn label(self) -> &'static str {
        match self {
            Stage::Setup => "setup",
            Stage::Warmup => "warmup",
            Stage::Window => "window",
            Stage::Quiet => "quiet",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by direct children.
    child_ns: u64,
    stage: Stage,
}

/// Totals of one span name over one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Open spans, innermost last, as rows of `spans`.
    open: Vec<u32>,
    op: u32,
    pub stage: Stage,
}

impl Tracer {
    /// `expected_spans` is reserved up front so the span log does not
    /// reallocate inside a timed op.
    pub fn new(expected_spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(expected_spans),
            open: Vec::with_capacity(8),
            op: 0,
            stage: Stage::Setup,
        }
    }

    /// Opens a span; pair with [`Tracer::close`]. Spans opened before it
    /// is closed become its children.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let name = match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        } as u16;
        let row = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(row);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
            stage: self.stage,
        });
        row
    }

    pub fn close(&mut self, row: u32) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        assert_eq!(popped, Some(row), "spans must close innermost first");
        let span = &mut self.spans[row as usize];
        span.end_ns = end_ns;
        let (parent, duration) = (span.parent, end_ns - span.start_ns);
        if parent != NO_PARENT {
            self.spans[parent as usize].child_ns += duration;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let row = self.open(name);
        let out = f();
        self.close(row);
        out
    }

    /// Opens the root span of the next op; the spans under it share a
    /// fresh op identifier.
    pub fn open_op(&mut self) -> u32 {
        self.op += 1;
        self.open("op")
    }

    /// Per-name totals over one stage.
    pub fn totals(&self, stage: Stage) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.stage == stage) {
            let t = out.entry(self.names[s.name as usize]).or_default();
            let duration = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(s.child_ns);
        }
        out
    }

    /// The layers of the measured window by self time, largest first, each
    /// with its share of all span time there (ops, upkeep and exports).
    pub fn window_shares(&self) -> Vec<(&'static str, f64)> {
        let totals = self.totals(Stage::Window);
        let all_ns: u64 = totals.values().map(|t| t.self_ns).sum();
        let mut shares: Vec<_> = totals
            .iter()
            .filter(|(name, _)| **name != "op")
            .map(|(name, t)| (*name, t.self_ns as f64 / all_ns.max(1) as f64))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        shares
    }

    /// Writes the span log. Spans are rows of
    /// `[name index, start ns, end ns, parent row or -1, op id, stage index]`.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let stages = [Stage::Setup, Stage::Warmup, Stage::Window, Stage::Quiet];
        let quoted = |items: &mut dyn Iterator<Item = &str>| {
            items.map(json::quote).collect::<Vec<_>>().join(",")
        };
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"schema\":\"stellar-benchmark-trace/v1\",\"workload\":{},\"seed\":{seed},\
             \"clock\":\"ns since the tracer was created\",\
             \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\",\"stage\"],\
             \"names\":[{}],\"stages\":[{}],\"spans\":[",
            json::quote(workload),
            quoted(&mut self.names.iter().copied()),
            quoted(&mut stages.iter().map(|s| s.label())),
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let stage = stages.iter().position(|x| *x == s.stage).unwrap_or(0);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "[{},{},{},{parent},{},{stage}]{sep}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.write_all(b"]}\n")?;
        // A dropped BufWriter swallows write errors; flush returns them.
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(8);
        t.stage = Stage::Window;
        let root = t.open_op();
        t.span("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("layer.b", || ());
        t.close(root);
        let totals = t.totals(Stage::Window);
        let (op, a, b) = (totals["op"], totals["layer.a"], totals["layer.b"]);
        assert_eq!(a.calls, 1);
        assert!(a.self_ns >= 2_000_000);
        assert_eq!(a.self_ns, a.total_ns);
        // The root's self time is what its children did not cover.
        assert_eq!(op.self_ns, op.total_ns - a.total_ns - b.total_ns);
        assert!(t.totals(Stage::Setup).is_empty());
    }

    #[test]
    fn the_log_is_valid_json() {
        let mut t = Tracer::new(4);
        let root = t.open_op();
        t.span("layer.a", || ());
        t.close(root);
        let path = std::env::temp_dir().join(format!("stellar_trace_{}.json", std::process::id()));
        t.write(&path, "unit", 7).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let spans = doc.get("spans").and_then(json::Value::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].as_arr().unwrap()[3].as_f64(), Some(0.0));
    }
}
