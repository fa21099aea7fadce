//! The measured passes over the solve workloads: untraced end-to-end
//! timing and the traced per-layer pass.

use crate::layers::{per_layer_names, Layers, SETUP_KEYS};
use crate::report::{median, peak_rss_mb, quantile, RunResult, END_TO_END};
use crate::solve::{setup_once, Prepared, SetupSample};
use crate::workload::{app, App, Scale, Workload};
use regent_serve::Strategy;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Shards (and implicit-executor workers) every solve uses.
pub const SHARDS: usize = 2;

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which inputs to run.
    pub workload: Workload,
    /// Seed for generated inputs (the `serve-mix` job sequence).
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `false`: untraced end-to-end pass; `true`: per-layer pass.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
    /// Self-test: corrupt the first checked result.
    pub perturb: bool,
}

/// Runs one pass of the benchmark and returns its result.
pub fn run(opts: &Options) -> RunResult {
    match app(opts.workload, opts.scale) {
        Some(app) => run_solves(opts, &app),
        None => crate::serve::run(opts),
    }
}

/// Set-up samples, repeated until `budget` has passed (at least `min`).
pub fn repeat_setup<T>(min: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (t0.elapsed() < budget && out.len() < 1001) {
        out.push(f());
    }
    out
}

/// Per-layer values that belong to no strategy, with their sample counts.
pub type OtherLayers = BTreeMap<&'static str, (f64, usize)>;

/// Medians of each set-up layer over `samples`, as per-layer metrics.
pub fn setup_layers(samples: &[SetupSample]) -> OtherLayers {
    let pick = |f: fn(&SetupSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let values = [
        pick(|s| s.build_s),
        pick(|s| s.compile_s),
        pick(|s| s.copies as f64),
        pick(|s| s.shallow_s),
        pick(|s| s.complete_s),
        pick(|s| s.pairs as f64),
        pick(|s| s.elements as f64),
    ];
    SETUP_KEYS
        .iter()
        .zip(values)
        .map(|((k, _), v)| (*k, (v, samples.len())))
        .collect()
}

/// Position of `s` in `Strategy::ALL`; per-strategy data is indexed by it.
pub fn idx(s: Strategy) -> usize {
    Strategy::ALL
        .iter()
        .position(|&x| x == s)
        .expect("Strategy::ALL lists every strategy")
}

/// Strategy order of half-round `h`: forward on even, reversed on odd,
/// so consecutive half-rounds form the ABBA pattern.
pub fn abba(h: usize) -> Vec<Strategy> {
    let mut order = Strategy::ALL.to_vec();
    if h % 2 == 1 {
        order.reverse();
    }
    order
}

/// Which solves one step of a block makes (`true` = traced). The
/// untraced pass makes untraced solves only; the traced pass pairs an
/// untraced with a traced solve, swapping their order every half-round.
/// The sequential interpreter has no tracer, so it is never traced.
pub fn solve_order(trace: bool, s: Strategy, h: usize) -> &'static [bool] {
    match (trace, s) {
        (false, _) | (true, Strategy::Sequential) => &[false],
        _ if h % 2 == 1 => &[true, false],
        _ => &[false, true],
    }
}

/// Per-strategy samples gathered over a pass.
#[derive(Default)]
pub struct Samples {
    /// Untraced wall seconds.
    pub wall: Vec<f64>,
    /// Untraced process CPU seconds.
    pub cpu: Vec<f64>,
    /// Traced wall seconds.
    pub traced_wall: Vec<f64>,
    /// Critical path of traced runs, seconds.
    pub critical_path: Vec<f64>,
    /// Layer values of untraced runs.
    pub layers: Vec<Layers>,
}

impl Samples {
    /// Layer values summarised by `centre`, plus the trace-derived
    /// ratios.
    pub fn summarise(&self, centre: fn(&[f64]) -> f64) -> BTreeMap<&'static str, f64> {
        let mut keys: Vec<&'static str> = self
            .layers
            .iter()
            .flat_map(|l| l.0.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out: BTreeMap<&'static str, f64> = keys
            .into_iter()
            .map(|k| {
                let v: Vec<f64> = self
                    .layers
                    .iter()
                    .filter_map(|l| l.0.get(k).copied())
                    .collect();
                (k, centre(&v))
            })
            .collect();
        out.insert("cpu_s", centre(&self.cpu));
        if !self.critical_path.is_empty() {
            let traced = centre(&self.traced_wall);
            let residual: Vec<f64> = self
                .traced_wall
                .iter()
                .zip(&self.critical_path)
                .map(|(w, cp)| (w - cp) / w)
                .collect();
            out.insert("critical_path_s", centre(&self.critical_path));
            out.insert("blame_residual_frac", centre(&residual));
            out.insert("trace_overhead_frac", traced / centre(&self.wall) - 1.0);
        }
        out
    }
}

/// Writes every per-layer metric: strategy layers from `per_strategy`,
/// summarised by `centre`, the rest from `other`; anything a workload
/// does not exercise is 0.
pub fn push_per_layer(
    res: &mut RunResult,
    per_strategy: &[Samples],
    centre: fn(&[f64]) -> f64,
    other: &OtherLayers,
) {
    let summaries: BTreeMap<&str, (BTreeMap<&'static str, f64>, usize)> = Strategy::ALL
        .iter()
        .zip(per_strategy)
        .map(|(s, smp)| (s.label(), (smp.summarise(centre), smp.wall.len())))
        .collect();
    let fail_frac = res.failed as f64 / res.attempted.max(1) as f64;
    for (name, unit) in per_layer_names() {
        let (value, n) = match name.split_once('.') {
            Some((prefix, key)) if summaries.contains_key(prefix) => {
                let (m, n) = &summaries[prefix];
                (m.get(key).copied().unwrap_or(0.0), *n)
            }
            _ if name == "fail_frac" => (fail_frac, res.attempted as usize),
            _ => other.get(name.as_str()).copied().unwrap_or((0.0, 0)),
        };
        res.push(name, unit, value, n);
    }
}

/// How `job_p50_s` and `job_p90_s` summarise the per-strategy latencies.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum JobQuantiles {
    /// Quantiles of all latencies pooled: the client-observed job
    /// stream of `serve-mix`, where strategies are drawn uniformly.
    Pooled,
    /// Each strategy's quantile, averaged over the six strategies: the
    /// solve workloads give each strategy equal time, not equal counts,
    /// so a pooled quantile would depend on their relative speed.
    StrategyMean,
}

/// Writes the end-to-end metrics from per-strategy latencies.
pub fn push_end_to_end(
    res: &mut RunResult,
    latencies: &[Vec<f64>],
    setup: &[f64],
    jobs_per_s: f64,
    jobs: JobQuantiles,
) {
    let pooled: Vec<f64> = latencies.iter().flatten().copied().collect();
    let job_quantile = |q: f64| match jobs {
        JobQuantiles::Pooled => quantile(&pooled, q),
        JobQuantiles::StrategyMean => {
            latencies.iter().map(|v| quantile(v, q)).sum::<f64>() / latencies.len() as f64
        }
    };
    for (name, unit) in END_TO_END {
        let (value, n) = match name {
            "setup_s" => (median(setup), setup.len()),
            "peak_rss_mb" => (peak_rss_mb(), 1),
            "jobs_per_s" => (jobs_per_s, pooled.len()),
            "job_p50_s" => (job_quantile(0.5), pooled.len()),
            "job_p90_s" => (job_quantile(0.9), pooled.len()),
            _ => {
                let label = name.trim_end_matches("_s");
                let s = Strategy::ALL
                    .into_iter()
                    .find(|s| s.label() == label)
                    .expect("end-to-end strategy metric");
                let v = &latencies[idx(s)];
                (median(v), v.len())
            }
        };
        res.push(name, unit, value, n);
    }
}

fn run_solves(opts: &Options, app: &App) -> RunResult {
    let mut res = RunResult::default();
    let prepared = Prepared::new(&app.factory, SHARDS);
    let reference = prepared.reference();
    let mut perturb = opts.perturb;
    let mut check = |res: &mut RunResult, s: Strategy, solved: &mut crate::solve::Solved| {
        res.record(prepared.verify(s, solved, &reference, app.tolerance, perturb));
        perturb = false;
    };

    // One discarded warm-up solve per strategy.
    for s in Strategy::ALL {
        let mut solved = prepared.solve(s, false);
        check(&mut res, s, &mut solved);
    }

    let mut samples: Vec<Samples> = Strategy::ALL.iter().map(|_| Samples::default()).collect();
    let mut setups = Vec::new();
    let block = Duration::from_secs_f64(opts.seconds / 96.0);
    let t0 = Instant::now();
    'window: for h in 0.. {
        for s in abba(h) {
            if h >= 2 && t0.elapsed().as_secs_f64() >= opts.seconds {
                break 'window;
            }
            // Set-up passes for 5% of each block, so that set-up is
            // sampled across the whole window rather than in one burst.
            setups.extend(repeat_setup(1, block / 20, || {
                setup_once(&app.factory, SHARDS).2
            }));
            let b0 = Instant::now();
            loop {
                let smp = &mut samples[idx(s)];
                for &traced in solve_order(opts.trace, s, h) {
                    if traced {
                        let mut solved = prepared.solve(s, true);
                        smp.traced_wall.push(solved.wall_s);
                        smp.critical_path
                            .push(solved.critical_path_ns.unwrap_or(0) as f64 / 1e9);
                        check(&mut res, s, &mut solved);
                    } else {
                        let (mut solved, layers) = prepared.solve_with_layers(s);
                        smp.wall.push(solved.wall_s);
                        smp.cpu.push(solved.cpu_s);
                        smp.layers.push(layers);
                        check(&mut res, s, &mut solved);
                    }
                }
                if b0.elapsed() >= block {
                    break;
                }
            }
        }
    }

    if opts.trace {
        let other = setup_layers(&setups);
        push_per_layer(&mut res, &samples, median, &other);
    } else {
        let latencies: Vec<Vec<f64>> = samples.iter().map(|smp| smp.wall.clone()).collect();
        let n: usize = latencies.iter().map(Vec::len).sum();
        let busy: f64 = latencies.iter().flatten().sum();
        let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        push_end_to_end(
            &mut res,
            &latencies,
            &setup,
            n as f64 / busy,
            JobQuantiles::StrategyMean,
        );
    }
    res
}
