//! Service-level robustness tests: the soak invariant (every admitted
//! job reaches exactly one terminal outcome), overload shedding,
//! deadline cancellation, transient retry with checkpoint resume, and
//! tenant isolation under a quarantined panic.

use regent_ir::interp;
use regent_serve::{digest_store, jobs, JobOutcome, JobSpec, Service, ServiceConfig, Strategy};
use std::sync::Arc;
use std::time::Duration;

/// Reference digest: run the factory's program under the sequential
/// interpreter, outside the service.
fn solo_digest(factory: &regent_serve::ProgramFactory) -> u64 {
    let (prog, mut store) = factory();
    let roots = prog.root_regions();
    let (env, _) = interp::run(&prog, &mut store);
    digest_store(&prog.forest, &store, &roots, &env)
}

#[test]
fn all_strategies_complete_and_agree() {
    let svc = Service::start(ServiceConfig::new());
    let baseline = solo_digest(&jobs::stencil_factory(24, 6));
    let handles: Vec<_> = Strategy::ALL
        .iter()
        .map(|&s| svc.submit(jobs::stencil_job(1, s, 2)).expect("admitted"))
        .collect();
    for (h, &s) in handles.iter().zip(Strategy::ALL.iter()) {
        match h.wait() {
            JobOutcome::Completed {
                digest, attempts, ..
            } => {
                assert_eq!(attempts, 1, "{}: unexpected retry", s.label());
                // Stencil has no reductions, so every strategy is
                // bit-identical to the sequential reference.
                assert_eq!(digest, baseline, "{}: result diverged", s.label());
            }
            other => panic!("{}: expected completion, got {other:?}", s.label()),
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.shed, 0);
    svc.shutdown();
}

#[test]
fn overload_sheds_with_overloaded() {
    let cfg = ServiceConfig {
        workers: 1,
        queue_depth: 2,
        shed_budget: 1_000,
        ..ServiceConfig::new()
    };
    let svc = Service::start(cfg);
    // Occupy the single worker long enough for the flood to hit the
    // queue-depth limit deterministically.
    let slow = Arc::new(|| {
        std::thread::sleep(Duration::from_millis(120));
        jobs::stencil_factory(24, 2)()
    });
    let first = svc
        .submit(JobSpec::new(1, "slow", Strategy::Sequential, 1, 1, slow))
        .expect("first job admitted");
    std::thread::sleep(Duration::from_millis(20)); // let the worker pick it up
    let mut admitted = vec![first];
    let mut shed = 0usize;
    for i in 0..10 {
        match svc.submit(jobs::stencil_job(1, Strategy::Sequential, 1)) {
            Ok(h) => admitted.push(h),
            Err(over) => {
                shed += 1;
                assert!(over.queued >= 2, "shed below queue depth: {over} (job {i})");
            }
        }
    }
    assert!(shed > 0, "flood past a busy depth-2 queue must shed");
    for h in &admitted {
        assert!(h.wait().is_completed(), "admitted jobs must complete");
    }
    let stats = svc.stats();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.completed, admitted.len() as u64);
    svc.shutdown();
}

#[test]
fn cost_budget_sheds_before_queue_depth() {
    let cfg = ServiceConfig {
        workers: 1,
        queue_depth: 100,
        shed_budget: 20,
        ..ServiceConfig::new()
    };
    let svc = Service::start(cfg);
    let slow = Arc::new(|| {
        std::thread::sleep(Duration::from_millis(80));
        jobs::stencil_factory(24, 2)()
    });
    svc.submit(JobSpec::new(1, "slow", Strategy::Sequential, 1, 1, slow))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(15));
    let mut shed_budget_hit = false;
    for _ in 0..6 {
        // cost 8 each: the third queued job projects past budget 20.
        if let Err(over) = svc.submit(jobs::stencil_job(1, Strategy::Sequential, 1)) {
            assert_eq!(over.budget, 20, "cost budget should be the binding limit");
            shed_budget_hit = true;
        }
    }
    assert!(shed_budget_hit, "cost budget never bound");
    svc.shutdown();
}

#[test]
fn deadline_budget_cancels() {
    let cfg = ServiceConfig {
        workers: 1,
        deadline: Some(Duration::from_millis(20)),
        ..ServiceConfig::new()
    };
    let svc = Service::start(cfg);
    // The factory burns the whole budget before the executor starts;
    // the SPMD executor's first epoch-boundary check then fires the
    // deadline cooperatively.
    let slow = Arc::new(|| {
        std::thread::sleep(Duration::from_millis(80));
        jobs::stencil_factory(24, 4)()
    });
    let h = svc
        .submit(JobSpec::new(1, "late", Strategy::Spmd, 2, 4, slow))
        .expect("admitted");
    match h.wait() {
        JobOutcome::Cancelled { reason } => {
            assert!(reason.contains("deadline"), "unexpected reason: {reason}")
        }
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    assert_eq!(svc.stats().cancelled, 1);
    svc.shutdown();
}

#[test]
fn transient_fault_retries_and_resumes_bit_identical() {
    let svc = Service::start(ServiceConfig::new());
    let baseline = solo_digest(&jobs::stencil_factory(24, 6));
    let spec = jobs::stencil_job(3, Strategy::Spmd, 2).with_transient_at(2);
    let h = svc.submit(spec).expect("admitted");
    match h.wait() {
        JobOutcome::Completed {
            attempts, digest, ..
        } => {
            assert_eq!(attempts, 2, "transient must consume exactly one retry");
            assert_eq!(
                digest, baseline,
                "retry resumed from checkpoint must stay bit-identical"
            );
        }
        other => panic!("expected retried completion, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.quarantined, 0);
    svc.shutdown();
}

#[test]
fn quarantine_isolates_tenants() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::new()
    });
    let baseline = solo_digest(&jobs::stencil_factory(24, 6));
    let bomb: regent_serve::ProgramFactory = Arc::new(|| panic!("kernel bug: boom"));
    let bad = svc
        .submit(JobSpec::new(1, "boom", Strategy::Sequential, 1, 1, bomb))
        .expect("admitted");
    let good: Vec<_> = (0..4)
        .map(|_| {
            svc.submit(jobs::stencil_job(2, Strategy::Spmd, 2))
                .expect("admitted")
        })
        .collect();
    match bad.wait() {
        JobOutcome::Quarantined { error } => {
            assert!(error.contains("kernel bug"), "unexpected error: {error}")
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    for h in &good {
        match h.wait() {
            JobOutcome::Completed { digest, .. } => assert_eq!(
                digest, baseline,
                "neighbour tenant's results perturbed by a quarantined panic"
            ),
            other => panic!("neighbour job died with the panicking tenant: {other:?}"),
        }
    }
    // The panicking job's worker recycled itself: the pool must still
    // serve new work afterwards.
    let after = svc
        .submit(jobs::stencil_job(2, Strategy::Log, 2))
        .expect("admitted");
    assert!(
        after.wait().is_completed(),
        "pool not recycled after quarantine"
    );
    assert_eq!(svc.stats().quarantined, 1);
    svc.shutdown();
}

#[test]
fn degradation_halves_shard_cap_under_sustained_sheds() {
    let cfg = ServiceConfig {
        workers: 1,
        queue_depth: 1,
        degrade_after: 3,
        ..ServiceConfig::new()
    };
    let svc = Service::start(cfg);
    let slow = Arc::new(|| {
        std::thread::sleep(Duration::from_millis(100));
        jobs::stencil_factory(24, 2)()
    });
    svc.submit(JobSpec::new(9, "slow", Strategy::Sequential, 1, 1, slow))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(15));
    svc.submit(jobs::stencil_job(9, Strategy::Sequential, 1))
        .expect("one queued job fits");
    let mut sheds = 0;
    while svc.stats().degraded == 0 && sheds < 20 {
        if svc
            .submit(jobs::stencil_job(9, Strategy::Sequential, 1))
            .is_err()
        {
            sheds += 1;
        }
    }
    assert!(svc.stats().degraded >= 1, "sustained sheds must degrade");
    assert_eq!(
        svc.tenant_shard_cap(9),
        Some(2),
        "cap should halve from the default 4"
    );
    svc.shutdown();
}

#[test]
fn trace_records_service_events() {
    use regent_trace::{EventKind, Tracer};
    let tracer = Tracer::enabled();
    let cfg = ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..ServiceConfig::new()
    }
    .with_tracer(Arc::clone(&tracer));
    let svc = Service::start(cfg);
    let slow = Arc::new(|| {
        std::thread::sleep(Duration::from_millis(60));
        jobs::stencil_factory(24, 2)()
    });
    let first = svc
        .submit(JobSpec::new(1, "slow", Strategy::Sequential, 1, 1, slow))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(10));
    svc.submit(jobs::stencil_job(1, Strategy::Sequential, 1))
        .expect("queued");
    let mut shed = 0;
    while shed == 0 {
        if svc
            .submit(jobs::stencil_job(1, Strategy::Sequential, 1))
            .is_err()
        {
            shed += 1;
        }
    }
    let retry = loop {
        // Shed rejections just mean the queue is still saturated; keep
        // offering until the retry job is admitted.
        if let Ok(h) = svc.submit(jobs::stencil_job(1, Strategy::Spmd, 2).with_transient_at(1)) {
            break h;
        }
    };
    assert!(first.wait().is_completed());
    assert!(retry.wait().is_completed());
    svc.shutdown();
    let trace = tracer.take();
    let mut admits = 0;
    let mut sheds = 0;
    let mut retries = 0;
    let mut admit_wait_ns = 0u64;
    for t in &trace.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::JobAdmit { .. } => {
                    admits += 1;
                    admit_wait_ns += e.dur;
                }
                EventKind::JobShed { .. } => sheds += 1,
                EventKind::JobRetry { .. } => retries += 1,
                _ => {}
            }
        }
    }
    assert_eq!(admits, 3, "one JobAdmit span per dispatched job");
    assert!(sheds >= 1, "the saturated queue must record sheds");
    assert_eq!(retries, 1);
    assert!(
        admit_wait_ns > 0,
        "queued jobs must record nonzero queue wait"
    );
}

/// The soak acceptance invariant: under offered load well past the
/// shed threshold, with seeded fault injection active, every job ends
/// in exactly one of {completed, shed-with-Overloaded,
/// deadline-cancelled, retried-then-completed} — and nothing is
/// quarantined or lost.
#[test]
fn soak_every_job_reaches_exactly_one_outcome() {
    let cfg = ServiceConfig {
        workers: 2,
        queue_depth: 4,
        shed_budget: 48,
        fault_seed: Some(7),
        degrade_after: 4,
        ..ServiceConfig::new()
    };
    let svc = Arc::new(Service::start(cfg));
    let strategies = Strategy::ALL;
    let mut clients = Vec::new();
    for tenant in 1..=3u32 {
        let svc = Arc::clone(&svc);
        clients.push(std::thread::spawn(move || {
            let mut completed = 0u64;
            let mut retried_completed = 0u64;
            let mut shed = 0u64;
            let mut other = Vec::new();
            // Semi-open loop: submit in bursts of 3, then wait the
            // burst out — 3 clients × burst 3 comfortably exceeds the
            // depth-4 queue plus both workers, so shedding is exercised.
            for burst in 0..6u64 {
                let mut handles = Vec::new();
                for j in 0..3u64 {
                    let i = burst * 3 + j;
                    let strategy = strategies[(i as usize + tenant as usize) % strategies.len()];
                    let spec = match i % 3 {
                        0 => jobs::stencil_job(tenant, strategy, 2),
                        1 => jobs::circuit_job(tenant, strategy, 2),
                        _ => jobs::pennant_job(tenant, strategy, 2),
                    };
                    match svc.submit(spec) {
                        Ok(h) => handles.push((i, h)),
                        Err(_) => shed += 1,
                    }
                }
                for (i, h) in handles {
                    match h.wait() {
                        JobOutcome::Completed { attempts, .. } => {
                            completed += 1;
                            if attempts > 1 {
                                retried_completed += 1;
                            }
                        }
                        outcome => other.push(format!("job {i}: {outcome:?}")),
                    }
                }
            }
            (completed, retried_completed, shed, other)
        }));
    }
    let mut total_completed = 0;
    let mut total_retried = 0;
    let mut total_shed = 0;
    for c in clients {
        let (completed, retried_completed, shed, other) = c.join().expect("client thread");
        assert!(other.is_empty(), "unexpected terminal outcomes: {other:?}");
        total_completed += completed;
        total_retried += retried_completed;
        total_shed += shed;
    }
    assert_eq!(total_completed + total_shed, 54, "a job went missing");
    assert!(
        total_retried > 0,
        "seeded injection (~25% of jobs) produced no retries"
    );
    let stats = Arc::try_unwrap(svc)
        .map(|svc| {
            let s = svc.stats();
            svc.shutdown();
            s
        })
        .unwrap_or_else(|_| panic!("client threads still hold the service"));
    assert_eq!(stats.quarantined, 0, "soak must not quarantine anything");
    assert_eq!(stats.completed, total_completed);
    assert_eq!(stats.shed, total_shed);
}

/// A tenant's one memo cache serves every program that tenant submits.
/// Two circuit graphs (different seeds) build their forests through the
/// same sequence of creations, so only the forests' *content* tells
/// them apart: the second graph must drop the first one's templates
/// (an invalidation) and capture its own, never replay a schedule whose
/// edges came from the other graph.
#[test]
fn shared_memo_cache_never_replays_another_graphs_template() {
    use regent_runtime::{execute_implicit, ImplicitOptions, MemoCache};
    let cache = MemoCache::shared();
    let memoized = |seed: u64| {
        let factory = jobs::circuit_factory(seed);
        let (prog, mut store) = factory();
        let roots = prog.root_regions();
        let opts = ImplicitOptions::with_workers(2).with_memo(Arc::clone(&cache));
        let (env, stats) = execute_implicit(&prog, &mut store, opts);
        let digest = digest_store(&prog.forest, &store, &roots, &env);
        (digest, solo_digest(&factory), stats)
    };
    let (got, want, first) = memoized(7);
    assert_eq!(got, want, "first graph must match the interpreter");
    assert!(first.memo_hits > 0, "first graph replays its own template");
    let (got, want, second) = memoized(11);
    assert_eq!(
        got, want,
        "second graph must match the interpreter bit for bit"
    );
    assert_eq!(
        second.memo_invalidations, 1,
        "the other graph's templates must be invalidated"
    );
    assert_eq!(
        second.memo_captures, 1,
        "the second graph's first epoch is captured, not replayed"
    );
    assert_eq!(
        second.memo_hits, first.memo_hits,
        "each graph replays only the template it captured itself"
    );
}
