//! In-memory spans timed around calls into the toolchain's public API.
//!
//! A [`Tracer`] records one [`Span`] per timed call: its name (the
//! layer is the prefix before the first `.`), the op it belongs to (one
//! id per cell, program or request), its parent span and its start and
//! end. Nothing is written while a workload runs; [`Tracer::to_json`]
//! renders the spans at the end. A disabled tracer (`Tracer::new(false)`)
//! calls the timed closure directly and records nothing, so untraced
//! code paths pay one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;
use zolc_bench::json::Json;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name, e.g. `cfg.retarget`.
    pub name: &'static str,
    /// The cell, program or request the call belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Number of spans.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time of their child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per call, microseconds (0 without calls).
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }

    fn add(&mut self, other: Agg) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Records spans (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer; `on == false` makes every span a plain call.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` of the current op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        out
    }

    /// Times `f` as the top-level span of op `op` (a cell, program or
    /// request); spans opened inside it carry the same op id.
    pub fn op_span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let outer = std::mem::replace(&mut self.op, op);
        let out = self.span(name, f);
        self.op = outer;
        out
    }

    /// Aggregates by span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            out.entry(s.name).or_default().add(Agg {
                calls: 1,
                total_ns: s.dur_ns(),
                self_ns: s.dur_ns().saturating_sub(child),
            });
        }
        out
    }

    /// Aggregates by layer (the span-name prefix).
    pub fn by_layer(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (name, agg) in self.by_name() {
            out.entry(name.split('.').next().unwrap_or(name))
                .or_default()
                .add(agg);
        }
        out
    }

    /// Appends `other`'s spans (re-based onto this tracer's clock).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// The spans as a JSON array, at most `limit` of them (the first
    /// ones in start order), plus the number left out.
    pub fn to_json(&self, limit: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .take(limit)
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::u64(s.op)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::u64(u64::from(p))),
                    ),
                    ("start_ns".into(), Json::u64(s.start_ns)),
                    ("end_ns".into(), Json::u64(s.end_ns)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            (
                "omitted".into(),
                Json::u64(self.spans.len().saturating_sub(limit) as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.op_span("bench.op", 7, |t| {
            t.span("cfg.retarget", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let by = t.by_name();
        let op = by["bench.op"];
        let r = by["cfg.retarget"];
        assert_eq!((op.calls, r.calls), (1, 1));
        assert!(r.self_ns >= 2_000_000);
        assert_eq!(op.self_ns + r.total_ns, op.total_ns);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.by_layer()["cfg"].calls, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("sim.compile", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
