//! End-to-end and per-layer benchmark of the requiem simulator.
//!
//! One run drives one workload through the program's public APIs for a
//! time budget, in whole seeded rounds (see [`workloads`]). Untraced
//! rounds give the end-to-end metrics; traced rounds, with host timers
//! around every call into a layer and an aggregated probe, give the
//! per-layer metrics. Every round is checked: accounting identities,
//! the durability oracle, same-seed repeatability, and traced ==
//! untraced simulated results. See `README.md` for the metric
//! definitions.

pub mod timing;
pub mod workloads;

use std::time::{Duration, Instant};

use requiem_sim::probe::{Cause, Layer};
use timing::median;
use workloads::{Round, Scale, SimResult, Trace, Workload};

/// End-to-end metrics (untraced rounds): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "op/s"),
    ("sim_p50_us", "us"),
    ("sim_wa", "ratio"),
];

/// Per-layer metrics (traced rounds) other than the probe's span
/// buckets: name and unit. A layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workload.gen_s", "s"),
    ("workload.draws", "count"),
    ("workload.gen_ns_per_draw", "ns"),
    ("db.run_s", "s"),
    ("db.exec_self_s", "s"),
    ("db.commits", "count"),
    ("db.txns_per_force", "ratio"),
    ("db.coalesced", "count"),
    ("db.read_stall_ms", "ms"),
    ("db.steal_stall_ms", "ms"),
    ("db.commit_stall_ms", "ms"),
    ("db.storage_s", "s"),
    ("db.storage_calls", "count"),
    ("db.page_reads", "count"),
    ("db.page_writes", "count"),
    ("db.steal_writes", "count"),
    ("db.logical_writes", "count"),
    ("db.pool_miss_ratio", "ratio"),
    ("db.cross_txns", "count"),
    ("db.prepares", "count"),
    ("db.aborted", "count"),
    ("db.recover_s", "s"),
    ("db.records_replayed", "count"),
    ("wal.call_s", "s"),
    ("wal.calls", "count"),
    ("wal.log_forces", "count"),
    ("wal.log_bytes", "B"),
    ("pcm.wear_skew", "ratio"),
    ("block.ios", "count"),
    ("block.software_share", "ratio"),
    ("block.lat_p99_us", "us"),
    ("iface.relocations_patched", "count"),
    ("ssd.submit_s", "s"),
    ("ssd.host_reads", "count"),
    ("ssd.host_writes", "count"),
    ("ssd.flash_reads", "count"),
    ("ssd.flash_programs", "count"),
    ("ssd.flash_erases", "count"),
    ("ssd.gc_runs", "count"),
    ("ssd.gc_pages_moved", "count"),
    ("ssd.gc_moved_per_run", "ratio"),
    ("ssd.gc_debt_peak", "blocks"),
    ("ssd.wa_plateau", "ratio"),
    ("sim.device_cmds", "count"),
    ("sim.host_ns_per_cmd", "ns"),
    ("sim.probe_overhead_s", "s"),
    ("sim.latency_samples", "count"),
];

/// Simulated end-to-end results that cannot carry a bound, reported
/// with the per-layer metrics: the tails (an `oltp_block` round has a
/// few hundred transactions, so its p99s move by more than a quarter
/// from seed to seed), p99.9 (0 unless at least 10 samples lie beyond
/// it), recovery time (0 without a crash phase) and the failed share
/// (0 when nothing fails).
pub const PER_LAYER_EXTRA: [(&str, &str); 5] = [
    ("sim_p99_us", "us"),
    ("sim_read_p99_us", "us"),
    ("sim_p999_us", "us"),
    ("sim_recovery_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// The probe's `(layer, cause)` buckets the per-layer report names, as
/// `span.<layer>.<cause>_ms`: the union over the three workloads. A
/// bucket a workload does not produce reports 0.
pub const SPANS: [(Layer, Cause); 16] = [
    (Layer::Wal, Cause::Queue),
    (Layer::Wal, Cause::Transfer),
    (Layer::Wal, Cause::PcmPersist),
    (Layer::Block, Cause::Overhead),
    (Layer::Block, Cause::Queue),
    (Layer::Controller, Cause::Overhead),
    (Layer::Channel, Cause::Command),
    (Layer::Channel, Cause::Queue),
    (Layer::Channel, Cause::Transfer),
    (Layer::Flash, Cause::Queue),
    (Layer::Flash, Cause::GcStall),
    (Layer::Flash, Cause::CellRead),
    (Layer::Flash, Cause::CellProgram),
    (Layer::Flash, Cause::CellErase),
    (Layer::HostLink, Cause::Queue),
    (Layer::HostLink, Cause::Transfer),
];

/// The per-layer metrics that carry host time, one per layer.
pub const HOST_LAYERS: [&str; 6] = [
    "workload.gen_s",
    "db.exec_self_s",
    "db.storage_s",
    "wal.call_s",
    "db.recover_s",
    "ssd.submit_s",
];

/// The host-time layer that grew most from `before` to `after` (two
/// traced outcomes), if any grew.
pub fn grown_layer(before: &Outcome, after: &Outcome) -> Option<&'static str> {
    let value = |o: &Outcome, name: &str| {
        o.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    HOST_LAYERS
        .iter()
        .map(|&l| (l, value(after, l) - value(before, l)))
        .filter(|&(_, grew)| grew > 0.0)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(l, _)| l)
}

/// Name of a probe bucket's metric.
pub fn span_name(layer: Layer, cause: Cause) -> String {
    format!("span.{}.{}_ms", layer.as_str(), cause.as_str())
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .chain(PER_LAYER_EXTRA.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .chain(SPANS.iter().map(|&(l, c)| (span_name(l, c), "ms")))
        .collect()
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one benchmark run found.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// The metrics of the result line (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable report: every metric, with notes and violations.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Field-by-field differences between two rounds' simulated results.
fn sim_diff(a: &SimResult, b: &SimResult) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = |name: &str, same: bool| {
        if !same {
            out.push(name.to_string());
        }
    };
    field("attempted", a.attempted == b.attempted);
    field("completed", a.completed == b.completed);
    field("failed", a.failed == b.failed);
    field("makespan", a.makespan_ns == b.makespan_ns);
    field("latency", a.latency == b.latency);
    field("read_latency", a.read_latency == b.read_latency);
    field("programs", a.programs == b.programs);
    field("logical_writes", a.logical_writes == b.logical_writes);
    field("recovery", a.recovery_ns == b.recovery_ns);
    for (k, v) in &a.counts {
        field(k, b.counts.get(k) == Some(v));
    }
    out
}

/// The simulated end-to-end values of one round: `sim_*` by name.
fn sim_values(sim: &SimResult) -> Vec<(&'static str, f64)> {
    let secs = sim.makespan_ns as f64 * 1e-9;
    let us = |ns: u64| ns as f64 / 1e3;
    vec![
        (
            "sim_ops_per_s",
            if secs > 0.0 {
                sim.completed as f64 / secs
            } else {
                0.0
            },
        ),
        ("sim_p50_us", us(sim.latency.p50())),
        ("sim_p99_us", us(sim.latency.p99())),
        ("sim_read_p99_us", us(sim.read_latency.p99())),
        (
            "sim_wa",
            if sim.logical_writes == 0 {
                0.0
            } else {
                sim.programs as f64 / sim.logical_writes as f64
            },
        ),
    ]
}

/// p99.9 latency in µs when at least 10 samples lie beyond it.
fn p999_us(sim: &SimResult) -> Option<f64> {
    (sim.latency.count() >= 10_000).then(|| sim.latency.quantile(0.999) as f64 / 1e3)
}

/// Time of the measured phase over same-seed rounds, in reference
/// seconds: the median over the rounds.
fn measured_wall_s(rounds: &[Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| r.chunks.reference().iter().sum())
            .collect::<Vec<_>>(),
    )
}

/// Hard cap on measuring, whatever the budget: a run must end well
/// inside three minutes.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Run `workload` for up to `seconds` of measuring, in whole rounds: at
/// least two untraced rounds, or with `traced` at least one untraced and
/// one traced round, alternating. A round is not started when it would
/// likely overrun the budget.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, scale: &Scale) -> Outcome {
    run_with(workload, seed, seconds, traced, scale, &|_| {})
}

/// [`run`], letting `instrument` adjust each traced round's [`Trace`]
/// before the round starts (the attribution self-test injects host work
/// into one layer's wrapper this way).
pub fn run_with(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    instrument: &dyn Fn(&Trace),
) -> Outcome {
    let budget = Duration::from_secs_f64(seconds).min(HARD_CAP);
    let start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut probed: Vec<Round> = Vec::new();
    loop {
        let round_start = Instant::now();
        plain.push(workload.round(seed, scale, &Trace::off()));
        if traced {
            let trace = Trace::on();
            instrument(&trace);
            probed.push(workload.round(seed, scale, &trace));
        }
        let enough = traced || plain.len() >= 2;
        if enough && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    summarize(workload, &plain, &probed, traced)
}

fn summarize(workload: Workload, plain: &[Round], probed: &[Round], traced: bool) -> Outcome {
    let first = &plain[0].sim;
    let mut violations: Vec<String> = Vec::new();
    for (i, r) in plain.iter().chain(probed).enumerate() {
        violations.extend(r.violations.iter().map(|v| format!("round {i}: {v}")));
    }
    for (i, r) in plain.iter().enumerate().skip(1) {
        let d = sim_diff(first, &r.sim);
        if !d.is_empty() {
            violations.push(format!(
                "untraced round {i} differs from round 0 with the same seed: {}",
                d.join(", ")
            ));
        }
    }
    for (i, r) in probed.iter().enumerate() {
        let d = sim_diff(first, &r.sim);
        if !d.is_empty() {
            violations.push(format!(
                "traced round {i} differs from the untraced run: {}",
                d.join(", ")
            ));
        }
    }
    let attempted: u64 = plain.iter().chain(probed).map(|r| r.sim.attempted).sum();
    let failed: u64 = plain.iter().chain(probed).map(|r| r.sim.failed).sum();

    let wall_s = measured_wall_s(plain);
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_s.iter().map(|s| s * r.chunks.speed()))
        .collect();
    let mut e2e = vec![
        ("wall_s", wall_s),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    e2e.extend(sim_values(first));
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit,
            value: e2e.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1),
        })
        .collect();

    let mut report = vec![format!(
        "workload {}: {} untraced and {} traced rounds of {} ops each",
        workload.name(),
        plain.len(),
        probed.len(),
        first.attempted
    )];
    let walls: Vec<f64> = plain.iter().map(|r| r.chunks.secs().iter().sum()).collect();
    report.push(format!(
        "  untraced rounds, host s: min {:.4} median {:.4} max {:.4}; reference s per host s: {:.4}",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        median(&plain.iter().map(|r| r.chunks.speed()).collect::<Vec<_>>()),
    ));
    for m in &e2e {
        report.push(format!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit));
    }
    for (name, value) in sim_values(first) {
        if !END_TO_END.iter().any(|&(n, _)| n == name) {
            report.push(format!("  {name:<28} {value:>16.6} us"));
        }
    }
    let samples = first.latency.count();
    report.push(match p999_us(first) {
        Some(v) => format!("  {:<28} {:>16.6} us ({samples} samples)", "sim_p999_us", v),
        None => format!(
            "  {:<28} {:>16} (only {samples} samples: fewer than 10 beyond p99.9)",
            "sim_p999_us", "n/a"
        ),
    });
    report.push(format!(
        "  {:<28} {:>16.6} ms{}",
        "sim_recovery_ms",
        first.recovery_ns as f64 / 1e6,
        if first.recovery_ns == 0 {
            " (no crash phase)"
        } else {
            ""
        }
    ));
    report.push(format!(
        "  {:<28} {:>16.6} ratio ({failed} of {attempted} ops)",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    ));

    let metrics = if traced {
        let layer = per_layer(plain, probed, failed, attempted);
        report.push("per-layer (traced rounds):".to_string());
        for m in &layer {
            report.push(format!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit));
        }
        let host = layer
            .iter()
            .filter(|m| HOST_LAYERS.contains(&m.name.as_str()));
        if let Some(top) = host.max_by(|a, b| a.value.total_cmp(&b.value)) {
            // scaled like the per-layer host times
            let traced_wall = median(
                &probed
                    .iter()
                    .map(|r| r.chunks.secs().iter().sum::<f64>() * r.chunks.speed())
                    .collect::<Vec<_>>(),
            );
            report.push(format!(
                "  largest host layer: {} ({:.1} % of the traced wall_s)",
                top.name,
                100.0 * top.value / traced_wall
            ));
        }
        if let Some(summary) = &probed[0].probe {
            for (&(l, c), stat) in &summary.by_layer_cause {
                if !SPANS.contains(&(l, c)) {
                    report.push(format!(
                        "  unlisted probe bucket {} = {:.6} ms",
                        span_name(l, c),
                        stat.total.as_nanos() as f64 / 1e6
                    ));
                }
            }
        }
        layer
    } else {
        e2e
    };
    for v in &violations {
        report.push(format!("CHECK FAILED: {v}"));
    }
    Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        report,
    }
}

fn per_layer(plain: &[Round], probed: &[Round], failed: u64, attempted: u64) -> Vec<Metric> {
    // host seconds to reference seconds
    // host seconds to reference seconds, at each round's own speed
    let med = |f: &dyn Fn(&Round) -> f64| {
        median(
            &probed
                .iter()
                .map(|r| f(r) * r.chunks.speed())
                .collect::<Vec<_>>(),
        )
    };
    let untraced_wall_s = measured_wall_s(plain);
    let sim = &plain[0].sim;
    let count = |k: &str| sim.counts.get(k).copied().unwrap_or(0.0);
    let gen_s = med(&|r| r.gen_s);
    let run_s = med(&|r| r.run_s);
    let storage_s = med(&|r| r.storage.0);
    let wal_s = med(&|r| r.wal.0);
    let traced_wall = measured_wall_s(probed);
    let draws = count("workload.draws");
    let cmds = count("sim.device_cmds");
    let host = [
        ("workload.gen_s", gen_s),
        ("workload.gen_ns_per_draw", gen_s * 1e9 / draws.max(1.0)),
        ("db.run_s", run_s),
        (
            "db.exec_self_s",
            if run_s > 0.0 {
                run_s - storage_s - wal_s
            } else {
                0.0
            },
        ),
        ("db.storage_s", storage_s),
        ("db.storage_calls", probed[0].storage.1 as f64),
        ("db.recover_s", med(&|r| r.recover_s)),
        ("wal.call_s", wal_s),
        ("wal.calls", probed[0].wal.1 as f64),
        ("ssd.submit_s", med(&|r| r.submit.0)),
        ("sim.host_ns_per_cmd", untraced_wall_s * 1e9 / cmds.max(1.0)),
        ("sim.probe_overhead_s", traced_wall - untraced_wall_s),
        ("sim.latency_samples", sim.latency.count() as f64),
        ("sim_p999_us", p999_us(sim).unwrap_or(0.0)),
        ("sim_recovery_ms", sim.recovery_ns as f64 / 1e6),
        ("failed_ratio", failed as f64 / attempted.max(1) as f64),
    ]
    .into_iter()
    .chain(sim_values(sim))
    .collect::<Vec<_>>();
    let spans = probed[0].probe.clone().unwrap_or_default();
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = if let Some(&(_, v)) = host.iter().find(|(n, _)| *n == name) {
                v
            } else if let Some(&(l, c)) = SPANS.iter().find(|&&(l, c)| span_name(l, c) == name) {
                spans
                    .by_layer_cause
                    .get(&(l, c))
                    .map_or(0.0, |s| s.total.as_nanos() as f64 / 1e6)
            } else {
                count(&name)
            };
            Metric { name, unit, value }
        })
        .collect()
}
