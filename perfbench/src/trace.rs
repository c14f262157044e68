//! In-memory spans around the benchmark's calls into the library.
//!
//! Nothing inside the library is instrumented: a span covers one call
//! the benchmark makes into a layer's public function. A span's layer is
//! its name up to the first `.` (`context.execute_into` belongs to
//! `context`); the root span of every op is named `op`, so the `op`
//! layer's self time is the part of an op that no layer call covers.
//!
//! Only every other op is traced. The untraced ops run under the same
//! conditions, interleaved, and give the baseline for
//! `trace.overhead_frac`.

use std::sync::OnceLock;
use std::time::Instant;

use crate::report::Json;

/// Op ids at or above this mark probe calls, which replay an operation
/// through the layer below outside the workload's own loop.
pub const PROBE_OP_BASE: u64 = 1 << 40;

/// Handle of an open span; `None` when the op is not traced.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One clock for every span of the process, so spans of different
/// workloads line up in the written file.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    next_probe: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        now_ns();
        Tracer {
            on,
            next_probe: PROBE_OP_BASE,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether op `op` of the workload loop is traced.
    pub fn traces(&self, op: u64) -> bool {
        self.on && op % 2 == 1
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Open the root span of loop op `op`, if that op is traced.
    pub fn root(&mut self, op: u64) -> SpanId {
        if self.traces(op) {
            self.open("op", op, None)
        } else {
            None
        }
    }

    /// Open a span for a call made inside `parent`.
    pub fn child(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        let p = parent?;
        let op = self.spans[p].op;
        self.open(name, op, Some(p))
    }

    /// Open the root span of a probe call (always traced when on).
    pub fn probe(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        self.next_probe += 1;
        self.open(name, self.next_probe, None)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = now_ns();
        }
    }

    /// Time `f` under a probe span and return its result and duration.
    pub fn time_probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.probe(name);
        let t = Instant::now();
        let r = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.end(id);
        (r, ms)
    }

    /// Durations in ms of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(Span::ms)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// `(root - Σ children) / root`, summed over the traced loop ops.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.self_ms();
        let (mut gap, mut total) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(&own) {
            if s.parent.is_none() && s.op < PROBE_OP_BASE {
                gap += own;
                total += s.ms();
            }
        }
        gap / total
    }

    /// Self time per layer in ms, separately for the loop ops and the
    /// probe calls, sorted by layer name.
    pub fn self_time_by_layer(&self) -> Json {
        let own = self.self_ms();
        let mut ops: Vec<(&str, f64)> = Vec::new();
        let mut probes: Vec<(&str, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            let table = if s.op < PROBE_OP_BASE {
                &mut ops
            } else {
                &mut probes
            };
            match table.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, t)) => *t += own,
                None => table.push((s.layer(), own)),
            }
        }
        let render = |mut t: Vec<(&str, f64)>| {
            t.sort_by(|a, b| a.0.cmp(b.0));
            Json::obj(t.into_iter().map(|(l, ms)| (l, Json::Num(ms))))
        };
        Json::obj([("ops_ms", render(ops)), ("probes_ms", render(probes))])
    }

    /// One JSON line per span: name, start, end, parent, op id.
    pub fn span_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("workload", Json::str(workload)),
                ("id", Json::Num(i as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Num(f64::NAN), |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_odd_ops_are_traced_and_children_inherit_the_op() {
        let mut tr = Tracer::new(true);
        assert_eq!(tr.root(0), None);
        assert_eq!(tr.child(None, "context.x"), None);
        let root = tr.root(3);
        let kid = tr.child(root, "context.x");
        tr.end(kid);
        tr.end(root);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].op, 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(!Tracer::new(false).traces(1));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                op: 1,
            },
            Span {
                name: "shard.submit",
                start_ns: 0,
                end_ns: 2_000_000,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "shard.wait",
                start_ns: 5_000_000,
                end_ns: 9_000_000,
                parent: Some(0),
                op: 1,
            },
        ];
        assert!((tr.unattributed_frac() - 0.4).abs() < 1e-12);
        let by_layer = tr.self_time_by_layer().render();
        assert_eq!(
            by_layer,
            r#"{"ops_ms": {"op": 4, "shard": 6}, "probes_ms": {}}"#
        );
    }
}
