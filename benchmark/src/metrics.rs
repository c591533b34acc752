//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark emits, with its unit and direction, and for each layer
//! metric the end-to-end metrics it should move. `BENCHMARK.json`
//! declares the same names; the schema test keeps the two in step.

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Single-model `leapme serve`, one fresh connection per request.
    ServeFresh,
    /// Registry `leapme serve --models` over kept-alive connections.
    ServeKeepalive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::ServeFresh, Workload::ServeKeepalive];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeKeepalive => "serve-keepalive",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Percentile `latency_tail_ms` reports: the highest with at least
    /// ten samples beyond it at the number of timed requests a 25-second
    /// window holds (700 at 40 rps on serve-fresh, about 1,000 on
    /// serve-keepalive). It is fixed, so a commit that changes the sample
    /// count does not change the statistic.
    pub const TAIL_PERCENTILE: f64 = 95.0;
}

/// An end-to-end metric: what a user of `leapme` sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Every end-to-end metric. Every workload emits all of them; their
/// bounds are in `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "throughput_pairs_per_s",
        unit: "pairs/s",
        better: "higher",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "f1",
        unit: "ratio",
        better: "higher",
    },
];

/// How far a metric may worsen before a comparison calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Relative(f64),
    /// An amount in the metric's unit, for metrics whose baseline is 0
    /// or whose scale is fixed.
    Absolute(f64),
}

/// An end-to-end metric that only some workloads have. `BENCHMARK.json`
/// lists only metrics every workload emits, so these are declared here
/// with their bounds: an untraced run of each listed workload reports
/// them beside the common ones, and `--compare` judges them.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound.
    pub bound: Bound,
    /// Workloads that report it.
    pub workloads: &'static [Workload],
}

/// Every workload-specific end-to-end metric.
pub const WORKLOAD_METRICS: [WorkloadMetric; 3] = [
    // Failed requests (non-200 answers, resets, timeouts) over attempted
    // ones.
    WorkloadMetric {
        name: "error_rate",
        unit: "ratio",
        better: "lower",
        bound: Bound::Absolute(0.001),
        workloads: &Workload::ALL,
    },
    // Highest ladder step whose p95 from due time meets the SLO. The
    // ladder doubles, so a drop of one step is a drop of a half.
    WorkloadMetric {
        name: "max_rps_at_slo",
        unit: "1/s",
        better: "higher",
        bound: Bound::Relative(0.25),
        workloads: &[Workload::ServeFresh],
    },
    // Median `POST /reload` exchange beside the `/score` traffic.
    WorkloadMetric {
        name: "reload_p50_ms",
        unit: "ms",
        better: "lower",
        bound: Bound::Relative(0.10),
        workloads: &[Workload::ServeKeepalive],
    },
];

/// The workload-specific metrics `w` reports.
pub fn workload_metrics(w: Workload) -> impl Iterator<Item = &'static WorkloadMetric> {
    WORKLOAD_METRICS
        .iter()
        .filter(move |m| m.workloads.contains(&w))
}

/// A per-layer metric, taken from a `--trace 1` run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name: the module, then what was measured.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics this layer should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static str,
}

const P50: &str = "latency_p50_ms";
const TAIL: &str = "latency_tail_ms";
const TPUT: &str = "throughput_pairs_per_s";
const SETUP: &str = "setup_s";
const F1: &str = "f1";
const ERRORS: &str = "error_rate";
const MAX_RPS: &str = "max_rps_at_slo";
const RELOAD: &str = "reload_p50_ms";
const SERVE: &str = "serve-fresh, serve-keepalive";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, [$($m:expr),*], $on:expr) => {
        Layer { name: $name, unit: $unit, better: $better, moves: &[$($m),*], on: $on }
    };
}

/// Every per-layer metric. A traced run emits all of them; a layer the
/// workload does not run reads 0.
pub const LAYERS: &[Layer] = &[
    // The server's inputs, opened in-process the way a launch opens them.
    layer!(
        "data.load_s",
        "s",
        "lower",
        [SETUP],
        "set-up of serve-fresh"
    ),
    layer!(
        "embedding.load_s",
        "s",
        "lower",
        [SETUP],
        "set-up of serve-fresh"
    ),
    layer!(
        "feature_cache.open_ms",
        "ms",
        "lower",
        [SETUP, RELOAD],
        "set-up of the serve workloads; reloads on serve-keepalive"
    ),
    layer!(
        "model.open_ms",
        "ms",
        "lower",
        [SETUP, RELOAD],
        "set-up of the serve workloads; reloads on serve-keepalive"
    ),
    // Transport, seen from the client.
    layer!(
        "http.connect_ms.p50",
        "ms",
        "lower",
        [P50, TAIL, TPUT, MAX_RPS],
        SERVE
    ),
    layer!(
        "http.ttfb_ms.p50",
        "ms",
        "lower",
        [P50, TPUT, MAX_RPS],
        "serve-fresh (the accept poll lands here)"
    ),
    layer!("http.ttfb_ms.p95", "ms", "lower", [TAIL], SERVE),
    layer!(
        "http.read_ms.p50",
        "ms",
        "lower",
        [P50, TPUT],
        "serve-keepalive (a held-back body write lands here)"
    ),
    layer!(
        "http.exchange_ms.p50",
        "ms",
        "lower",
        [P50],
        "serve (traced; against the untraced p50 it is the tracing overhead)"
    ),
    // The request handler, run in-process on the same bodies.
    layer!("serve.handle_ms.p50", "ms", "lower", [P50, TPUT], SERVE),
    layer!("serve.handle_ms.p95", "ms", "lower", [TAIL], SERVE),
    layer!(
        "serve.score_pairs_ms.p50",
        "ms",
        "lower",
        [P50, TPUT],
        SERVE
    ),
    layer!(
        "serve.handler_overhead_ms",
        "ms",
        "lower",
        [P50, TPUT],
        "serve (handle - score_pairs on the same pairs)"
    ),
    layer!(
        "serve.unaccounted_ms",
        "ms",
        "lower",
        [P50, TAIL, TPUT, MAX_RPS],
        "serve (exchange p50 - handle p50)"
    ),
    // Server counters, deltas of GET /metrics over the timed window.
    layer!("serve.admitted", "count", "higher", [TPUT], SERVE),
    layer!("serve.completed", "count", "higher", [TPUT], SERVE),
    layer!("serve.shed", "count", "lower", [TPUT, ERRORS], SERVE),
    layer!("serve.degraded", "count", "lower", [F1, ERRORS], SERVE),
    layer!(
        "serve.client_errors",
        "count",
        "lower",
        [TPUT, ERRORS],
        SERVE
    ),
    layer!("serve.disconnects", "count", "lower", [TPUT, ERRORS], SERVE),
    layer!(
        "serve.write_failures",
        "count",
        "lower",
        [TPUT, ERRORS],
        SERVE
    ),
    layer!(
        "serve.reloads",
        "count",
        "lower",
        [TAIL, RELOAD],
        "serve-keepalive"
    ),
    // Registry.
    layer!(
        "registry.faultins",
        "count",
        "lower",
        [TAIL, TPUT],
        "serve-keepalive; 0 on serve-fresh"
    ),
    layer!(
        "registry.evictions",
        "count",
        "lower",
        [TAIL, TPUT],
        "serve-keepalive; 0 on serve-fresh"
    ),
    layer!(
        "registry.hit_ratio",
        "ratio",
        "higher",
        [TAIL, TPUT],
        "serve-keepalive; 0 on serve-fresh"
    ),
    layer!(
        "registry.faultin_ms",
        "ms",
        "lower",
        [TAIL, SETUP],
        "serve-keepalive (probe)"
    ),
    layer!(
        "registry.reload_ms",
        "ms",
        "lower",
        [TAIL, RELOAD],
        "serve-keepalive"
    ),
    // The load generator itself.
    layer!(
        "loadgen.lag_p95_ms",
        "ms",
        "lower",
        [P50, TAIL, MAX_RPS],
        "serve-fresh (the open loop held its schedule)"
    ),
    layer!("loadgen.sent", "count", "higher", [TPUT], SERVE),
];

/// Unit of a declared metric of any kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            WORKLOAD_METRICS
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .or_else(|| LAYERS.iter().find(|l| l.name == name).map(|l| l.unit))
}
