//! `serve-mix`: a closed loop of two clients against one `Service`,
//! over a seeded mix of {stencil, circuit, pennant} × six strategies.

use crate::layers::{Layers, SERVICE_KEYS};
use crate::report::{mean, quantile, RunResult};
use crate::run::{
    abba, idx, push_end_to_end, push_per_layer, repeat_setup, setup_layers, solve_order,
    JobQuantiles, Options, OtherLayers, Samples, SHARDS,
};
use crate::solve::{setup_once, Prepared, SetupSample};
use regent_apps::rng::SplitMix64;
use regent_runtime::metrics::{self, process_cpu_ns, Counter, Timer};
use regent_serve::jobs::{circuit_factory, pennant_factory, stencil_factory};
use regent_serve::{JobOutcome, JobSpec, ProgramFactory, Service, ServiceConfig, Strategy};
use regent_trace::blame_report;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// The program a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MixApp {
    /// A small PRK stencil.
    Stencil,
    /// A small circuit simulation on the graph of this seed
    /// (`circuit_factory(seed)`).
    Circuit(u64),
    /// A small PENNANT run.
    Pennant,
}

impl MixApp {
    fn factory(self) -> ProgramFactory {
        match self {
            MixApp::Stencil => stencil_factory(24, 6),
            MixApp::Circuit(seed) => circuit_factory(seed),
            MixApp::Pennant => pennant_factory(),
        }
    }

    fn tolerance(self) -> f64 {
        match self {
            MixApp::Stencil => 0.0,
            MixApp::Circuit(_) => 1e-12,
            MixApp::Pennant => 1e-11,
        }
    }

    /// Admission cost units, as the service's prefabricated jobs use.
    fn cost(self) -> u64 {
        match self {
            MixApp::Stencil => 8,
            MixApp::Circuit(_) => 12,
            MixApp::Pennant => 10,
        }
    }

    fn name(self) -> &'static str {
        match self {
            MixApp::Stencil => "stencil",
            MixApp::Circuit(_) => "circuit",
            MixApp::Pennant => "pennant",
        }
    }
}

/// One job of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobKind {
    /// The program.
    pub app: MixApp,
    /// The strategy it runs under.
    pub strategy: Strategy,
}

/// Every program the mix of `seed` draws from: the circuit graph is
/// the workload seed's.
pub fn mix_apps(seed: u64) -> [MixApp; 3] {
    [MixApp::Stencil, MixApp::Circuit(seed), MixApp::Pennant]
}

/// The job sequence client `client` submits under `seed`: uniform over
/// programs and strategies, the same for the same seed.
pub struct JobSequence {
    rng: SplitMix64,
    apps: [MixApp; 3],
}

impl JobSequence {
    /// The sequence of `client` under `seed`.
    pub fn new(seed: u64, client: usize) -> JobSequence {
        JobSequence {
            rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client as u64),
            apps: mix_apps(seed),
        }
    }
}

impl Iterator for JobSequence {
    type Item = JobKind;

    fn next(&mut self) -> Option<JobKind> {
        let app = self.apps[self.rng.gen_range(3) as usize];
        let strategy = Strategy::ALL[self.rng.gen_range(Strategy::ALL.len() as u64) as usize];
        Some(JobKind { app, strategy })
    }
}

/// Expected result digest of every (program, strategy) pair, each
/// checked against the sequential interpreter before the loop starts.
struct Expected {
    digests: BTreeMap<(MixApp, usize), u64>,
    factories: BTreeMap<MixApp, ProgramFactory>,
}

impl Expected {
    fn build(apps: &[MixApp], res: &mut RunResult, perturb: bool) -> Expected {
        let mut digests = BTreeMap::new();
        let mut factories = BTreeMap::new();
        let mut perturb = perturb;
        for &a in apps {
            let factory = a.factory();
            let prepared = Prepared::new(&factory, SHARDS);
            let reference = prepared.reference();
            for s in Strategy::ALL {
                let mut solved = prepared.solve(s, false);
                let digest = prepared.digest(s, &solved);
                res.record(prepared.verify(s, &mut solved, &reference, a.tolerance(), perturb));
                perturb = false;
                digests.insert((a, idx(s)), digest);
            }
            factories.insert(a, factory);
        }
        Expected { digests, factories }
    }

    fn spec(&self, kind: JobKind, tenant: u32) -> JobSpec {
        JobSpec::new(
            tenant,
            format!("{}/{}", kind.app.name(), kind.strategy.label()),
            kind.strategy,
            SHARDS,
            kind.app.cost(),
            Arc::clone(&self.factories[&kind.app]),
        )
    }

    fn check(&self, kind: JobKind, outcome: &JobOutcome) -> Result<(), String> {
        let want = self.digests[&(kind.app, idx(kind.strategy))];
        match outcome {
            JobOutcome::Completed { digest, .. } if *digest == want => Ok(()),
            JobOutcome::Completed { digest, .. } => Err(format!(
                "{}/{}: digest {digest:#x}, expected {want:#x}",
                kind.app.name(),
                kind.strategy.label()
            )),
            other => Err(format!(
                "{}/{}: job ended {other:?}",
                kind.app.name(),
                kind.strategy.label()
            )),
        }
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: SHARDS,
        shard_cap: SHARDS,
        ..ServiceConfig::new()
    }
}

/// One finished job as its client saw it.
struct JobRecord {
    strategy: Strategy,
    latency_s: f64,
    warm_up: bool,
    check: Result<(), String>,
}

/// Runs the closed loop for `seconds`; each client discards its first
/// job of every strategy as warm-up. Returns records and wall seconds.
fn closed_loop(svc: &Service, exp: &Expected, seed: u64, seconds: f64) -> (Vec<JobRecord>, f64) {
    let records = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let records = &records;
            scope.spawn(move || {
                let mut seen = [false; Strategy::ALL.len()];
                let mut mine = Vec::new();
                for kind in JobSequence::new(seed, client) {
                    if t0.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    let warm_up = !std::mem::replace(&mut seen[idx(kind.strategy)], true);
                    let spec = exp.spec(kind, client as u32 + 1);
                    let s0 = Instant::now();
                    let check = match svc.submit(spec) {
                        Ok(h) => exp.check(kind, &h.wait()),
                        Err(o) => {
                            // A refused job counts as failed.
                            std::thread::sleep(Duration::from_millis(1));
                            Err(format!("shed: {o}"))
                        }
                    };
                    mine.push(JobRecord {
                        strategy: kind.strategy,
                        latency_s: s0.elapsed().as_secs_f64(),
                        warm_up,
                        check,
                    });
                }
                records.lock().expect("records lock").extend(mine);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (records.into_inner().expect("records lock"), wall)
}

/// `Service::start` until the first job is admitted, seconds.
fn start_to_first_admit(exp: &Expected, first: JobKind, res: &mut RunResult) -> f64 {
    let t0 = Instant::now();
    let svc = Service::start(service_config());
    let h = svc.submit(exp.spec(first, 1)).expect("idle service admits");
    let admitted = t0.elapsed().as_secs_f64();
    res.record(exp.check(first, &h.wait()));
    svc.shutdown();
    admitted
}

/// Runs one pass of `serve-mix`.
pub fn run(opts: &Options) -> RunResult {
    let mut res = RunResult::default();
    let apps = mix_apps(opts.seed);
    let exp = Expected::build(&apps, &mut res, opts.perturb);
    let first = JobSequence::new(opts.seed, 0)
        .next()
        .expect("endless sequence");
    let budget = Duration::from_secs_f64(opts.seconds * 0.03);
    if opts.trace {
        // Set-up layers are medians over passes of all three programs.
        let setups: Vec<SetupSample> = repeat_setup(9, budget, || {
            apps.map(|a| setup_once(&a.factory(), SHARDS).2)
        })
        .concat();
        let per_strategy = solo_jobs(&exp, opts, &mut res);
        let mut other = setup_layers(&setups);
        other.extend(service_layers(&exp, opts, &mut res));
        // Means, not medians: jobs of three programs are pooled, and a
        // median would read only the middle program's value (0 for a
        // layer only pennant uses, such as collectives).
        push_per_layer(&mut res, &per_strategy, mean, &other);
    } else {
        // Set-up is sampled in two bursts, before and after the loop,
        // so one slow moment of the host does not decide it.
        let mut setup = repeat_setup(11, budget / 2, || {
            start_to_first_admit(&exp, first, &mut res)
        });
        let svc = Service::start(service_config());
        let (records, wall) = closed_loop(&svc, &exp, opts.seed, opts.seconds);
        svc.shutdown();
        setup.extend(repeat_setup(11, budget / 2, || {
            start_to_first_admit(&exp, first, &mut res)
        }));
        let mut latencies: Vec<Vec<f64>> = Strategy::ALL.iter().map(|_| Vec::new()).collect();
        let mut completed = 0usize;
        for r in records {
            if r.check.is_ok() {
                completed += 1;
                if !r.warm_up {
                    latencies[idx(r.strategy)].push(r.latency_s);
                }
            }
            res.record(r.check);
        }
        push_end_to_end(
            &mut res,
            &latencies,
            &setup,
            completed as f64 / wall,
            JobQuantiles::Pooled,
        );
    }
    res
}

/// Per-strategy layers from jobs run one at a time (concurrent jobs
/// would share the global registry), untraced and traced in
/// alternation, over the first half of the window.
fn solo_jobs(exp: &Expected, opts: &Options, res: &mut RunResult) -> Vec<Samples> {
    let plain = Service::start(service_config());
    let traced_svc = Service::start(service_config().with_job_tracing());
    let mut samples: Vec<Samples> = Strategy::ALL.iter().map(|_| Samples::default()).collect();
    let apps: Vec<MixApp> = exp.factories.keys().copied().collect();
    let mut next_app = 0usize;
    let block = Duration::from_secs_f64(opts.seconds / 96.0);
    let t0 = Instant::now();
    let mut h = 0;
    while h < 2 || t0.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        for s in abba(h) {
            let b0 = Instant::now();
            let first = h == 0;
            loop {
                let kind = JobKind {
                    app: apps[next_app % apps.len()],
                    strategy: s,
                };
                next_app += 1;
                for &traced in solve_order(true, s, h) {
                    let svc = if traced { &traced_svc } else { &plain };
                    metrics::global().reset();
                    let cpu0 = process_cpu_ns();
                    let s0 = Instant::now();
                    let outcome = svc
                        .submit(exp.spec(kind, 1))
                        .map(|handle| handle.wait())
                        .map_err(|o| format!("shed: {o}"));
                    let wall = s0.elapsed().as_secs_f64();
                    let cpu = (process_cpu_ns() - cpu0) as f64 / 1e9;
                    let layers = Layers::from_registry(s, &metrics::global().aggregate());
                    let outcome = match outcome {
                        Ok(o) => o,
                        Err(e) => {
                            res.record(Err(e));
                            continue;
                        }
                    };
                    res.record(exp.check(kind, &outcome));
                    if first {
                        continue; // warm-up
                    }
                    let smp = &mut samples[idx(s)];
                    if traced {
                        let cp = outcome
                            .trace()
                            .map(|t| blame_report(t).expect("job trace forms a graph"))
                            .map_or(0, |b| b.critical_path_ns);
                        smp.traced_wall.push(wall);
                        smp.critical_path.push(cp as f64 / 1e9);
                    } else {
                        smp.wall.push(wall);
                        smp.cpu.push(cpu);
                        smp.layers.push(layers);
                    }
                }
                if b0.elapsed() >= block {
                    break;
                }
            }
        }
        h += 1;
    }
    plain.shutdown();
    traced_svc.shutdown();
    samples
}

/// Service layers from the closed loop over the second half of the
/// window, read from the registry once the service has drained.
fn service_layers(exp: &Expected, opts: &Options, res: &mut RunResult) -> OtherLayers {
    metrics::global().reset();
    let svc = Service::start(service_config());
    let (records, _) = closed_loop(&svc, exp, opts.seed, opts.seconds / 2.0);
    svc.shutdown();
    let m = metrics::global().aggregate();
    let lat: Vec<f64> = records
        .iter()
        .filter(|r| !r.warm_up)
        .map(|r| r.latency_s)
        .collect();
    let mean_latency = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let mut shed = 0u64;
    for r in records {
        if matches!(&r.check, Err(e) if e.starts_with("shed")) {
            shed += 1;
        }
        res.record(r.check);
    }
    let jobs = m.get(Counter::JobsCompleted).max(1) as f64;
    let queue = m.timer(Timer::QueueWaitNs);
    let queue_wait = queue.sum_ns as f64 / queue.count.max(1) as f64 / 1e9;
    let values = [
        queue_wait,
        mean_latency - queue_wait,
        m.get(Counter::JobsRetried) as f64,
        (m.get(Counter::JobsShed).max(shed)) as f64,
        m.timer(Timer::CheckpointNs).sum_ns as f64 / 1e9 / jobs,
        m.get(Counter::Checkpoints) as f64 / jobs,
        quantile(&lat, 0.99),
    ];
    SERVICE_KEYS
        .iter()
        .zip(values)
        .map(|((k, _), v)| (*k, (v, lat.len())))
        .collect()
}
