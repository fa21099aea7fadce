//! The per-layer metric vocabulary: which layer values each strategy
//! reports, with units, and how they are read from the runtime's
//! public metrics registry.

use regent_runtime::metrics::{Counter, MetricSet, Timer};
use regent_serve::Strategy;
use std::collections::BTreeMap;

/// Control-replicated strategies: they share the shard data plane.
pub const CR: [Strategy; 3] = [Strategy::Spmd, Strategy::Hybrid, Strategy::Log];

/// Layer keys every strategy but `seq` reports.
const PAR_KEYS: [(&str, &str); 5] = [
    ("kernel_s", "s"),
    ("tasks", "count"),
    ("critical_path_s", "s"),
    ("blame_residual_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Layer keys of the shard data plane, collectives and integrity.
const CR_KEYS: [(&str, &str); 9] = [
    ("copy_issue_s", "s"),
    ("copy_wait_s", "s"),
    ("copies", "count"),
    ("elements_sent", "count"),
    ("pool_reuse_ratio", "ratio"),
    ("collective_wait_s", "s"),
    ("barrier_wait_s", "s"),
    ("collectives", "count"),
    ("integrity_s", "s"),
];

/// Keys of the strategy's own control layer.
fn own_keys(s: Strategy) -> &'static [(&'static str, &'static str)] {
    match s {
        Strategy::Implicit => &[("analysis_s", "s"), ("dep_checks", "count")],
        Strategy::MemoImplicit => &[
            ("analysis_s", "s"),
            ("dep_checks", "count"),
            ("replayed_tasks", "count"),
            ("hit_ratio", "ratio"),
        ],
        Strategy::Log => &[
            ("combine_s", "s"),
            ("analysis_s", "s"),
            ("batch_records", "records/batch"),
            ("cursor_lag", "batches"),
        ],
        Strategy::Hybrid => &[
            ("sequential_tasks", "count"),
            ("replicated_segments", "count"),
        ],
        Strategy::Sequential | Strategy::Spmd => &[],
    }
}

/// Set-up layers (`regent-cr`, `runtime::plan`, `region`).
pub const SETUP_KEYS: [(&str, &str); 7] = [
    ("region.build_s", "s"),
    ("core.compile_s", "s"),
    ("core.copies", "count"),
    ("plan.shallow_s", "s"),
    ("plan.complete_s", "s"),
    ("plan.pairs", "count"),
    ("plan.elements", "count"),
];

/// Service layers (`regent-serve`, checkpointing), per completed job
/// where a mean is meaningful.
pub const SERVICE_KEYS: [(&str, &str); 7] = [
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.retries", "count"),
    ("service.shed", "count"),
    ("service.checkpoint_s", "s"),
    ("service.checkpoints", "count"),
    ("service.job_p99_s", "s"),
];

/// Every `(key, unit)` strategy `s` reports, without the strategy prefix.
pub fn strategy_keys(s: Strategy) -> Vec<(&'static str, &'static str)> {
    let mut keys = vec![("cpu_s", "s")];
    if s != Strategy::Sequential {
        keys.extend(PAR_KEYS);
    }
    keys.extend_from_slice(own_keys(s));
    if CR.contains(&s) {
        keys.extend(CR_KEYS);
    }
    keys
}

/// Every per-layer metric name with its unit, in a stable order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for s in Strategy::ALL {
        for (k, u) in strategy_keys(s) {
            out.push((format!("{}.{k}", s.label()), u));
        }
    }
    for (k, u) in SETUP_KEYS.iter().chain(SERVICE_KEYS.iter()) {
        out.push((k.to_string(), *u));
    }
    out.push(("fail_frac".to_string(), "ratio"));
    out
}

/// One solve's layer values for one strategy, keyed as in
/// [`strategy_keys`].
#[derive(Clone, Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

fn secs(m: &MetricSet, t: Timer) -> f64 {
    m.timer(t).sum_ns as f64 / 1e9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    /// Reads strategy `s`'s layer values from a registry snapshot that
    /// covers exactly the work being attributed.
    pub fn from_registry(s: Strategy, m: &MetricSet) -> Layers {
        let c = |k| m.get(k) as f64;
        let mut v = BTreeMap::new();
        if s != Strategy::Sequential {
            v.insert("kernel_s", secs(m, Timer::TaskRunNs));
            v.insert("tasks", c(Counter::TaskRuns) + c(Counter::SequentialTasks));
        }
        match s {
            Strategy::Implicit | Strategy::MemoImplicit => {
                v.insert("analysis_s", secs(m, Timer::DepAnalysisNs));
                v.insert("dep_checks", c(Counter::DepChecks));
                if s == Strategy::MemoImplicit {
                    v.insert("replayed_tasks", c(Counter::MemoReplayedTasks));
                    let hits = m.get(Counter::MemoHits);
                    v.insert("hit_ratio", ratio(hits, hits + m.get(Counter::MemoMisses)));
                }
            }
            Strategy::Log => {
                v.insert("combine_s", secs(m, Timer::LogCombineNs));
                v.insert("analysis_s", secs(m, Timer::LogAnalysisNs));
                v.insert(
                    "batch_records",
                    ratio(
                        m.get(Counter::LogCombinedRecords),
                        m.get(Counter::LogCombinedBatches),
                    ),
                );
                v.insert(
                    "cursor_lag",
                    ratio(m.get(Counter::LogCursorLag), m.get(Counter::LogAnalyses)),
                );
            }
            Strategy::Hybrid => {
                v.insert("sequential_tasks", c(Counter::SequentialTasks));
                v.insert("replicated_segments", c(Counter::ReplicatedSegments));
            }
            Strategy::Sequential | Strategy::Spmd => {}
        }
        if CR.contains(&s) {
            v.insert("copy_issue_s", secs(m, Timer::CopyIssueNs));
            v.insert("copy_wait_s", secs(m, Timer::CopyWaitNs));
            v.insert("copies", c(Counter::CopiesIssued));
            v.insert("elements_sent", 0.0);
            let reuses = m.get(Counter::PoolReuses);
            v.insert(
                "pool_reuse_ratio",
                ratio(reuses, reuses + m.get(Counter::PoolAllocs)),
            );
            v.insert("collective_wait_s", secs(m, Timer::CollectiveWaitNs));
            v.insert("barrier_wait_s", secs(m, Timer::BarrierWaitNs));
            v.insert("collectives", c(Counter::CollectiveWaits));
            v.insert("integrity_s", secs(m, Timer::IntegrityNs));
        }
        Layers(v)
    }

    /// Records the elements a control-replicated run sent (reported by
    /// the executor's `ShardStats`, not the registry).
    pub fn set_elements_sent(&mut self, s: Strategy, elements: f64) {
        if CR.contains(&s) {
            self.0.insert("elements_sent", elements);
        }
    }
}
