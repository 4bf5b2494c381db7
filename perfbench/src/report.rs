//! Workload outcomes and the metrics derived from them.
//!
//! Every workload returns an [`Outcome`]. [`end_to_end`] turns it into
//! the gated metrics every workload reports; [`per_layer`] turns a traced
//! outcome's spans and counters into the per-layer metrics, every name
//! present on every workload (0 for a layer the workload never calls).

use crate::run::Counters;
use crate::trace::Tracer;
use zolc_bench::json::Json;

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a traced workload recorded besides its end-to-end outcome.
#[derive(Debug)]
pub struct Layers {
    /// Spans of the set-up phase (layer means only, no time shares).
    pub setup: Tracer,
    /// Spans of the measured phase.
    pub measure: Tracer,
    /// Wall time of the measured phase the spans account for.
    pub wall_ns: u64,
    /// Counters of the wrapped runs and retarget outcomes.
    pub counters: Counters,
    /// Traced throughput against the same work untraced, percent slower.
    pub trace_overhead_pct: f64,
    /// Mean clock-read cost of one timed hook call, nanoseconds.
    pub clock_ns: f64,
    /// Daemon-side figures (`zolcd_mixed` only).
    pub daemon: DaemonLayer,
}

/// The `daemon.*` per-layer figures.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonLayer {
    /// Mean request + response encoding time, microseconds.
    pub encode_us: f64,
    /// Mean offline `server::*_result` time of the job mix, microseconds.
    pub compute_us: f64,
    /// Median warm round trip minus encoding, milliseconds.
    pub wire_ms: f64,
    /// Cache hits reported by the `stats` op.
    pub cache_hits: u64,
    /// Cache misses reported by the `stats` op.
    pub cache_misses: u64,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted (cells, runs, programs, requests).
    pub attempted: u64,
    /// Ops that failed or did not match their expected output.
    pub failed: u64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Ops per second (median over the measured slices).
    pub ops_per_s: f64,
    /// Latency of every measured op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Share of loops mapped onto ZOLClite hardware, percent.
    pub hw_loop_pct: f64,
    /// Threads the measured phase used.
    pub threads: usize,
    /// The workload's own named metrics (reported, not gated).
    pub named: Vec<Metric>,
    /// Spans and counters (traced runs only).
    pub layers: Option<Layers>,
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of `samples`: the highest percentile of 99, 95, 90, 75 and
/// 50 with at least ten samples beyond it, as `(percentile, value)`; the
/// maximum (`100`) when there are too few samples for any of them.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in [99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= 10 + rank {
            return (p, s[rank - 1]);
        }
    }
    (100.0, s.last().copied().unwrap_or(0.0))
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Consecutive repeats of an op that one latency sample summarises.
pub const REPEATS_PER_SAMPLE: usize = 5;

/// Latency samples of a workload that repeats a fixed set of ops: the
/// median of every [`REPEATS_PER_SAMPLE`] consecutive repeats of each op.
/// Repeats of one op lie a pass apart, so a brief stall of the host
/// shifts one repeat and no sample; an op that is slow stays slow.
pub fn repeat_medians(per_op: &[Vec<f64>]) -> Vec<f64> {
    per_op
        .iter()
        .flat_map(|s| s.chunks(REPEATS_PER_SAMPLE).map(median))
        .collect()
}

/// Ops per second of a workload that repeats a fixed set of ops: the
/// number of ops over the sum of each op's median latency (ms).
pub fn repeated_ops_per_s(per_op: &[Vec<f64>]) -> f64 {
    let total_ms: f64 = per_op.iter().map(|s| median(s)).sum();
    per_op.len() as f64 * 1e3 / total_ms
}

/// Geometric mean of positive `values` (0 when empty).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Named metrics for a latency distribution: `<prefix>_p50_ms` and
/// `<prefix>_tail_ms`, the tail's percentile and sample count noted in
/// a companion `<prefix>_tail_pct` / `<prefix>_samples` pair.
pub fn latency_metrics(prefix: &str, samples: &[f64]) -> Vec<Metric> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let (p, t) = tail(&s);
    vec![
        Metric::new(format!("{prefix}_p50_ms"), percentile(&s, 50.0), "ms"),
        Metric::new(format!("{prefix}_tail_ms"), t, "ms"),
        Metric::new(format!("{prefix}_tail_pct"), p, "percentile"),
        Metric::new(format!("{prefix}_samples"), s.len() as f64, "count"),
    ]
}

/// The gated end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let mut lat = o.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let correct = if o.attempted == 0 {
        0.0
    } else {
        100.0 * (o.attempted - o.failed) as f64 / o.attempted as f64
    };
    vec![
        Metric::new("setup_s", o.setup_s, "s"),
        Metric::new("correct_pct", correct, "%"),
        Metric::new("ops_per_s", o.ops_per_s, "1/s"),
        Metric::new("op_p50_ms", percentile(&lat, 50.0), "ms"),
        Metric::new("op_tail_ms", tail(&lat).1, "ms"),
        Metric::new("hw_loop_pct", o.hw_loop_pct, "%"),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    let by_name = {
        let mut m = l.setup.by_name();
        for (k, v) in l.measure.by_name() {
            let e = m.entry(k).or_default();
            e.calls += v.calls;
            e.total_ns += v.total_ns;
            e.self_ns += v.self_ns;
        }
        m
    };
    let mean_us = |name: &str| by_name.get(name).map_or(0.0, |a| a.mean_self_us());
    let c = &l.counters;
    let ns_per_instr = |tier: &'static str, active: bool| {
        c.exec
            .get(&(tier, active))
            .filter(|t| t.retired > 0)
            .map_or(0.0, |t| t.ns as f64 / t.retired as f64)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Hook cost per call, from the timed probe runs with the clock
    // reads taken out; used to split the controller's share of exec.
    let timed_calls = c.timed_hooks.calls();
    let hook_ns_per_call = if timed_calls == 0 {
        0.0
    } else {
        (c.timed_hooks.hook_ns as f64 / timed_calls as f64 - l.clock_ns).max(0.0)
    };
    let hook_ns_per_instr = if c.timed_retired == 0 {
        0.0
    } else {
        hook_ns_per_call * timed_calls as f64 / c.timed_retired as f64
    };

    let layers = l.measure.by_layer();
    let self_ns = |layer: &str| layers.get(layer).map_or(0, |a| a.self_ns) as f64;
    let wall = l.wall_ns.max(1) as f64;
    let core_est = (hook_ns_per_call * c.hooks.calls() as f64).min(self_ns("sim"));
    let share = |ns: f64| 100.0 * ns / wall;
    let shares = [
        ("gen.time_pct", share(self_ns("gen"))),
        ("lang.time_pct", share(self_ns("lang"))),
        ("ir.time_pct", share(self_ns("ir"))),
        ("cfg.time_pct", share(self_ns("cfg"))),
        ("sim.time_pct", share(self_ns("sim") - core_est)),
        ("core.time_pct", share(self_ns("core") + core_est)),
        ("daemon.time_pct", share(self_ns("daemon"))),
    ];
    let accounted: f64 = shares.iter().map(|(_, v)| v).sum();

    let mut out = vec![
        Metric::new("gen.generate_us", mean_us("gen.generate"), "us"),
        Metric::new("gen.assemble_us", mean_us("gen.assemble"), "us"),
        Metric::new("lang.compile_us", mean_us("lang.compile"), "us"),
        Metric::new("ir.build_us", mean_us("ir.build"), "us"),
        Metric::new("cfg.retarget_us", mean_us("cfg.retarget"), "us"),
        Metric::new("cfg.lint_us", mean_us("cfg.lint"), "us"),
        Metric::new(
            "cfg.hw_loop_ratio",
            ratio(c.hw_loops, c.loops_attempted),
            "ratio",
        ),
        Metric::new("cfg.retarget_refusals", c.refusals as f64, "count"),
        Metric::new("sim.compile_us", mean_us("sim.compile"), "us"),
    ];
    for t in ["pipeline", "functional", "nest"] {
        let name = format!("sim.setup.{t}");
        out.push(Metric::new(
            format!("sim.setup_us.{t}"),
            mean_us(&name),
            "us",
        ));
    }
    for t in ["pipeline", "functional", "compiled", "nest"] {
        for (class, active) in [("passive", false), ("active", true)] {
            out.push(Metric::new(
                format!("sim.exec_ns_per_instr.{t}.{class}"),
                ns_per_instr(t, active),
                "ns",
            ));
        }
    }
    out.extend([
        Metric::new("sim.retired", c.retired as f64, "count"),
        Metric::new("sim.cycles", c.cycles as f64, "count"),
        Metric::new("core.fetch_calls", c.hooks.fetch as f64, "count"),
        Metric::new("core.execute_calls", c.hooks.execute as f64, "count"),
        Metric::new("core.redirects", c.hooks.redirects as f64, "count"),
        Metric::new("core.flushes", c.hooks.flushes as f64, "count"),
        Metric::new("core.violations", c.violations as f64, "count"),
        Metric::new(
            "core.fetch_calls_per_retired",
            ratio(c.active_hooks.fetch, c.active_retired),
            "ratio",
        ),
        Metric::new("core.hook_ns_per_instr", hook_ns_per_instr, "ns"),
        Metric::new("bench.residual_pct", 100.0 - accounted, "%"),
        Metric::new("bench.trace_overhead_pct", l.trace_overhead_pct, "%"),
        Metric::new("daemon.encode_us", l.daemon.encode_us, "us"),
        Metric::new("daemon.compute_us", l.daemon.compute_us, "us"),
        Metric::new("daemon.wire_ms", l.daemon.wire_ms, "ms"),
        Metric::new("daemon.cache_hits", l.daemon.cache_hits as f64, "count"),
        Metric::new("daemon.cache_misses", l.daemon.cache_misses as f64, "count"),
        Metric::new(
            "daemon.hit_ratio",
            ratio(
                l.daemon.cache_hits,
                l.daemon.cache_hits + l.daemon.cache_misses,
            ),
            "ratio",
        ),
    ]);
    out.extend(shares.iter().map(|(n, v)| Metric::new(*n, *v, "%")));
    out
}

/// The measured phase's spans by name: calls, mean self time (µs) and
/// self-time share of the accounted wall time (%).
pub fn span_table(l: &Layers) -> Vec<(&'static str, u64, f64, f64)> {
    let wall = l.wall_ns.max(1) as f64;
    l.measure
        .by_name()
        .into_iter()
        .map(|(name, a)| {
            (
                name,
                a.calls,
                a.mean_self_us(),
                100.0 * a.self_ns as f64 / wall,
            )
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}` for the result line (a
/// value that is not finite, from an empty measurement, becomes 0).
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        (
                            "value".into(),
                            Json::f64(if m.value.is_finite() { m.value } else { 0.0 }),
                        ),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s), (95.0, 190.0));
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), (99.0, 990.0));
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn percentile_and_median() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(median(&s), 2.5);
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
