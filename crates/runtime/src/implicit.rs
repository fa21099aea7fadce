//! The implicitly parallel executor — the non-control-replicated
//! baseline ("Regent w/o CR" in Figures 6–9).
//!
//! A single control thread walks the program in issue order, performs
//! dynamic dependence analysis for every point task (the Legion model
//! of §4.1: "Legion discovers parallelism between tasks by computing a
//! dynamic dependence graph over the tasks in an executing program"),
//! and hands ready tasks to a worker pool. Two tasks conflict when they
//! touch possibly-overlapping regions with incompatible privileges.
//!
//! ## Region-indexed user lists
//!
//! Like Legion's region-tree analysis, the control thread keeps, per
//! logical region, the list of *users* — earlier accesses (task,
//! privilege) to that region not yet known to be ordered before some
//! later access covering them. An *interference cache* maps each region
//! to the regions seen so far that may share elements with it (same
//! tree, not [`provably_disjoint`](regent_region::RegionForest::provably_disjoint),
//! overlapping domains); it is filled once per region, the first time
//! the region is accessed. A new access on `r` scans only the user
//! lists of `r`'s interfering regions, skips reader–reader pairs, and
//! records one edge per conflicting predecessor task.
//!
//! A mutating access (read-write or reduce) on `r` then *retires* the
//! users it just ordered after itself: a user on `r` or on a
//! subregion of `r` at once, any other user once the union of later
//! mutators' domains covers its whole region (each mutator subtracts
//! its domain from the user's `remaining` points). That is how a
//! stencil's halo readers leave the lists once their neighbours' tiles
//! are rewritten. Retirement is sound because any later access that
//! conflicts with a retired user overlaps it at a point some later
//! mutator covered; a mutator conflicts with every privilege, so the
//! later access is ordered after that mutator (or, if the mutator was
//! retired in turn, after the mutator covering the point next), which
//! is itself ordered after the retired user. Orderings are therefore
//! complete up to transitivity, which is all the happens-before
//! relation (and the Spy validator, which certifies by graph
//! reachability) needs.
//!
//! The control thread does O(N) analysis work per time step — one
//! bounded scan per point task — and that is precisely the per-task
//! overhead that grows with the machine. The executor counts it
//! ([`ImplicitStats::dependence_checks`]) so the machine model in
//! `regent-machine` can charge it when projecting to large node counts,
//! and — when [`ImplicitOptions::tracer`] is enabled — records every
//! launch, analysis span, dependence edge, and kernel run as structured
//! events for the `regent-trace` consumers.
//!
//! Drains (scalar reductions and futures, memo fences) order everything
//! issued before them, so they clear every user list. Past 4,096 live
//! user records the lists drop users whose tasks already finished
//! (their completion happened before any later launch). While a memo
//! epoch is being captured, pruning waits until 65,536 records and then
//! also poisons the epoch: a dropped intra-epoch predecessor would leave
//! the template short an edge.
//!
//! Reduction privileges are serialized against each other here (rather
//! than staged through temporaries), which keeps fold order identical
//! to program order — executions are bit-identical to the sequential
//! interpreter, which the test suite exploits.
//!
//! ## Epoch-trace memoization
//!
//! With [`ImplicitOptions::memo`] set, the control thread memoizes one
//! epoch's (outermost-loop iteration's) dependence analysis as a
//! template and replays it on subsequent structurally identical epochs
//! (see [`crate::memo`]). A replayed epoch begins with a pool drain —
//! the trace fence that orders everything older before it — and then
//! issues each launch with the template's intra-epoch edges instead of
//! scanning user lists. Each replayed launch still resolves its region
//! arguments and consults the [`Mapper`], so mapping decisions are
//! honored identically with and without replay; only the analysis is
//! skipped. Any divergence from the predicted template falls back to
//! full analysis mid-epoch, so memoization never changes results —
//! executions stay bit-identical to the interpreter.

use crate::mapper::{DefaultMapper, Mapper};
use crate::memo::{self, EpochTemplate, MemoCache};
use crate::metrics::{self, Counter, MetricsHandle, Timer};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{interp::resolve_arg, ArgSlot, Privilege, Program, Stmt, Store, TaskCtx, TaskId};
use regent_region::{Instance, RegionForest, RegionId};
use regent_trace::{fields_mask, EventKind, PrivCode, TraceBuf, Tracer};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// Options for the implicit executor.
#[derive(Clone)]
pub struct ImplicitOptions {
    /// Worker threads executing ready tasks.
    pub num_workers: usize,
    /// The mapping policy assigning point tasks to workers (§4.2).
    pub mapper: Arc<dyn Mapper>,
    /// Event recorder; [`Tracer::disabled`] makes recording free.
    pub tracer: Arc<Tracer>,
    /// Epoch-trace memoization cache; `None` runs every epoch through
    /// full dependence analysis. Share one cache
    /// ([`MemoCache::shared`]) across executions to replay from the
    /// very first epoch of a re-run.
    pub memo: Option<Arc<Mutex<MemoCache>>>,
}

impl ImplicitOptions {
    /// `num_workers` workers with the default round-robin mapper,
    /// tracing off, and memoization off.
    pub fn with_workers(num_workers: usize) -> Self {
        ImplicitOptions {
            num_workers,
            mapper: Arc::new(DefaultMapper),
            tracer: Tracer::disabled(),
            memo: None,
        }
    }

    /// Enables epoch-trace memoization backed by `cache`.
    pub fn with_memo(mut self, cache: Arc<Mutex<MemoCache>>) -> Self {
        self.memo = Some(cache);
        self
    }
}

impl Default for ImplicitOptions {
    fn default() -> Self {
        ImplicitOptions::with_workers(4)
    }
}

/// Statistics from an implicit execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ImplicitStats {
    /// Point tasks launched.
    pub tasks_launched: u64,
    /// Pairwise dependence checks performed by the control thread: one
    /// per user record a new access examined in the lists of its
    /// interfering regions — the dynamic-analysis work that makes
    /// single-control-thread execution stop scaling (§1). Retirement
    /// keeps each scan bounded by the accesses still live around the
    /// region, so the count grows linearly with the tasks issued.
    pub dependence_checks: u64,
    /// Dependence edges recorded.
    pub dependence_edges: u64,
    /// Peak number of live user records across all region user lists
    /// (the analysis state a new access could have to scan).
    pub max_window: usize,
    /// Epochs captured as reusable memoization templates.
    pub memo_captures: u64,
    /// Epochs fully replayed from a template (no analysis ran).
    pub memo_hits: u64,
    /// Replay attempts that diverged back to full analysis.
    pub memo_misses: u64,
    /// Template-cache invalidations observed (region-forest changes).
    pub memo_invalidations: u64,
    /// Point tasks issued by replay, without dependence analysis.
    pub memo_replayed_tasks: u64,
}

/// Raw instance pointer made sendable; exclusivity is guaranteed by the
/// dependence analysis (conflicting tasks are ordered by edges).
struct InstPtr(*mut Instance);
unsafe impl Send for InstPtr {}
unsafe impl Sync for InstPtr {}

struct JobArg {
    domain: Domain,
    privilege: Privilege,
    fields: Vec<regent_region::FieldId>,
    inst: InstPtr,
}

struct Job {
    task: TaskId,
    args: Vec<JobArg>,
    scalars: Vec<f64>,
    point: DynPoint,
    /// Dynamic launch sequence number (trace identity).
    launch: u32,
    /// Position in the launch domain (trace identity).
    pos: u32,
    /// Worker chosen by the mapper (§4.2).
    worker: usize,
    ret: Mutex<Option<f64>>,
    /// Dependencies not yet satisfied; the job is ready at zero.
    remaining: AtomicUsize,
    /// Jobs to notify on completion. Guarded together with `done`.
    dependents: Mutex<Vec<Arc<Job>>>,
    done: AtomicBool,
}

struct Pool {
    /// One ready queue per worker; the mapper picks the queue.
    ready_tx: Vec<Sender<Option<Arc<Job>>>>,
    outstanding: Mutex<usize>,
    drained: Condvar,
}

impl Pool {
    fn submit(&self, job: Arc<Job>) {
        let w = job.worker;
        self.ready_tx[w].send(Some(job)).unwrap();
    }

    fn complete_one(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn register(&self) {
        *self.outstanding.lock().unwrap() += 1;
    }

    fn wait_drained(&self) {
        let mut n = self.outstanding.lock().unwrap();
        while *n > 0 {
            let (guard, timeout) = self
                .drained
                .wait_timeout(n, crate::collective::hang_timeout())
                .unwrap();
            n = guard;
            if timeout.timed_out() && *n > 0 {
                panic!(
                    "likely deadlock: control thread waited {:?} for the worker pool to drain ({} tasks still outstanding)",
                    crate::collective::hang_timeout(),
                    *n
                );
            }
        }
    }
}

fn run_job(
    job: &Job,
    tasks: &[regent_ir::TaskDecl],
    pool: &Pool,
    tb: &mut TraceBuf,
    mx: &mut MetricsHandle,
) {
    let decl = &tasks[job.task.0 as usize];
    let mut slots: Vec<ArgSlot> = job
        .args
        .iter()
        .map(|a| {
            // SAFETY: the dependence graph orders all conflicting
            // accesses; compatible concurrent accesses are read-read
            // (or serialized reductions), so constructing aliasing
            // slots here is race-free.
            unsafe { ArgSlot::new(a.domain.clone(), a.privilege, a.fields.clone(), a.inst.0) }
        })
        .collect();
    let mut ctx = TaskCtx::new(&mut slots, &job.scalars, job.point);
    let t0 = tb.now();
    let m0 = mx.start();
    (decl.kernel)(&mut ctx);
    mx.incr(Counter::TaskRuns);
    mx.record_since(m0, Timer::TaskRunNs);
    tb.span_since(
        t0,
        EventKind::TaskRun {
            launch: job.launch,
            pos: job.pos,
            task: job.task.0,
        },
    );
    *job.ret.lock().unwrap() = ctx.return_value;
    // Mark done and release dependents under the lock so late
    // edge-additions observe a consistent state.
    let deps = {
        let mut d = job.dependents.lock().unwrap();
        job.done.store(true, Ordering::SeqCst);
        std::mem::take(&mut *d)
    };
    for dep in deps {
        if dep.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            pool.submit(dep);
        }
    }
    pool.complete_one();
}

/// Live user records past which finished users are pruned.
const PRUNE_AT: usize = 4096;
/// Live user records past which a memo epoch under capture prunes
/// anyway (and is poisoned).
const EPOCH_PRUNE_AT: usize = 65536;

/// One live access in a region's user list.
struct User {
    privilege: Privilege,
    job: Arc<Job>,
    /// The part of the region no later mutator ordered after this user
    /// has rewritten yet; `None` while that is still the whole region.
    remaining: Option<Domain>,
}

/// Control-thread dependence state: per-region user lists and the
/// interference cache saying which lists an access must scan. Both are
/// indexed by [`RegionId`] (the forest is fixed during an execution).
struct Users {
    lists: Vec<Vec<User>>,
    /// Per region, the regions seen so far that may share elements with
    /// it (itself included); `None` until the region is first accessed.
    interference: Vec<Option<Vec<RegionId>>>,
    /// Regions accessed so far, in first-access order.
    seen: Vec<RegionId>,
    /// Live user records across every list.
    live: usize,
}

impl Users {
    fn new(forest: &RegionForest) -> Self {
        let n = forest.num_regions();
        Users {
            lists: (0..n).map(|_| Vec::new()).collect(),
            interference: vec![None; n],
            seen: Vec::new(),
            live: 0,
        }
    }

    /// Fills `r`'s interference entry on its first access, adding `r`
    /// to the entries of the seen regions it may overlap.
    fn note_region(&mut self, forest: &RegionForest, r: RegionId) {
        if self.interference[r.0 as usize].is_some() {
            return;
        }
        let dom = forest.domain(r);
        let mut mine = Vec::new();
        if !dom.is_empty() {
            mine.push(r);
        }
        for &s in &self.seen {
            // Regions of different trees are provably disjoint.
            if !forest.provably_disjoint(r, s) && dom.overlaps(forest.domain(s)) {
                mine.push(s);
                self.interference[s.0 as usize]
                    .as_mut()
                    .expect("seen regions have an interference entry")
                    .push(r);
            }
        }
        self.seen.push(r);
        self.interference[r.0 as usize] = Some(mine);
    }

    /// Dependence analysis of one access (`r`, `p`): scans the users of
    /// every region interfering with `r`, adds each conflicting job to
    /// `preds` once, and — when `p` mutates — retires the users this
    /// access now covers. Returns the user records examined.
    fn analyze(
        &mut self,
        forest: &RegionForest,
        r: RegionId,
        p: Privilege,
        preds: &mut Vec<Arc<Job>>,
    ) -> u64 {
        self.note_region(forest, r);
        let mutates = p != Privilege::Read;
        let dom = forest.domain(r);
        let mut checks = 0u64;
        let mut retired = 0usize;
        for &q in self.interference[r.0 as usize]
            .as_deref()
            .expect("noted above")
        {
            let covers = mutates && forest.is_ancestor_or_self(r, q);
            self.lists[q.0 as usize].retain_mut(|u| {
                checks += 1;
                if !needs_edge(u.privilege, p) {
                    return true;
                }
                if !preds.iter().any(|j| Arc::ptr_eq(j, &u.job)) {
                    preds.push(Arc::clone(&u.job));
                }
                if !mutates {
                    return true;
                }
                let keep = !covers && {
                    let rest = u
                        .remaining
                        .as_ref()
                        .unwrap_or(forest.domain(q))
                        .subtract(dom);
                    let keep = !rest.is_empty();
                    u.remaining = Some(rest);
                    keep
                };
                retired += usize::from(!keep);
                keep
            });
        }
        self.live -= retired;
        checks
    }

    /// Appends a user of `r` (no analysis, no retirement).
    fn push(&mut self, forest: &RegionForest, r: RegionId, privilege: Privilege, job: &Arc<Job>) {
        self.note_region(forest, r);
        self.lists[r.0 as usize].push(User {
            privilege,
            job: Arc::clone(job),
            remaining: None,
        });
        self.live += 1;
    }

    /// Forgets every user: a drain ordered them all before what follows.
    fn clear(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
        self.live = 0;
    }

    /// Drops users whose tasks already finished.
    fn prune(&mut self) {
        for list in &mut self.lists {
            list.retain(|u| !u.job.done.load(Ordering::SeqCst));
        }
        self.live = self.lists.iter().map(Vec::len).sum();
    }
}

/// Control-thread bookkeeping threaded through statement execution:
/// statistics, the event recorder, the trace identity counters, and
/// the memoization state.
struct Ctl {
    stats: ImplicitStats,
    tb: TraceBuf,
    mx: MetricsHandle,
    launch_seq: u32,
    loop_depth: u32,
    memo: Option<MemoRt>,
}

impl Ctl {
    /// Emits the drain marker after the pool quiesced (a full barrier
    /// in the happens-before graph).
    fn drained(&mut self) {
        self.tb.instant(EventKind::Drain);
    }
}

/// Memoization runtime state: the shared template cache plus the epoch
/// currently being recorded or replayed.
struct MemoRt {
    cache: Arc<Mutex<MemoCache>>,
    /// Open while the control flow is inside an outermost-loop
    /// iteration.
    epoch: Option<EpochRec>,
}

/// Recording/replay state of one open epoch.
struct EpochRec {
    /// Outermost-loop iteration number (trace identity).
    step: u64,
    /// Region-forest fingerprint the epoch runs against (stamped into
    /// any template captured from it).
    forest_fingerprint: u64,
    /// Launch signatures in issue order.
    sigs: Vec<u64>,
    /// Intra-epoch predecessor indices per launch — the template
    /// payload. Kept parallel to `sigs` in both modes.
    edges: Vec<Vec<u32>>,
    /// Job handles by epoch index (replay edge targets).
    jobs: Vec<Arc<Job>>,
    /// Job identity (`Arc` pointer) → epoch index, for recognizing
    /// intra-epoch predecessors during capture.
    index_of: std::collections::HashMap<usize, u32>,
    /// The template being replayed; `None` in capture mode or after a
    /// divergence.
    replay: Option<EpochTemplate>,
    /// Next template position to match during replay.
    cursor: usize,
    /// A replay diverged somewhere in this epoch.
    missed: bool,
    /// The user lists overflowed the hard cap mid-epoch and were
    /// pruned; the recorded edges may be incomplete, so no template may
    /// be stored.
    poisoned: bool,
    /// Pairwise dependence checks paid inside this epoch.
    checks: u64,
    /// Tasks issued via replay in this epoch.
    replayed: u64,
}

/// Opens a new epoch at an outermost-loop iteration boundary: closes
/// the previous epoch, validates the template cache against the region
/// forest, and decides between replay (fence + template) and capture.
fn memo_begin_epoch(program: &Program, pool: &Pool, users: &mut Users, ctl: &mut Ctl, step: u64) {
    if ctl.memo.is_none() {
        return;
    }
    memo_end_epoch(ctl);
    let fingerprint = program.forest.fingerprint();
    let (replay, invalidated) = {
        let m = ctl.memo.as_ref().unwrap();
        let mut cache = m.cache.lock().unwrap();
        let dropped = cache.validate_forest(fingerprint);
        (
            cache
                .predicted_template()
                .filter(|t| !t.is_empty())
                .cloned(),
            dropped,
        )
    };
    if invalidated > 0 {
        ctl.tb.instant(EventKind::MemoInvalidate {
            templates: invalidated as u32,
        });
        ctl.stats.memo_invalidations += 1;
    }
    if replay.is_some() {
        // Trace fence: quiesce the pool so everything issued before
        // this epoch happens-before everything inside it. The
        // template's intra-epoch edges then cover every ordering the
        // epoch needs, so no cross-epoch analysis is required.
        pool.wait_drained();
        ctl.drained();
        users.clear();
    }
    let m = ctl.memo.as_mut().unwrap();
    m.epoch = Some(EpochRec {
        step,
        forest_fingerprint: fingerprint,
        sigs: Vec::new(),
        edges: Vec::new(),
        jobs: Vec::new(),
        index_of: std::collections::HashMap::new(),
        replay,
        cursor: 0,
        missed: false,
        poisoned: false,
        checks: 0,
        replayed: 0,
    });
}

/// Closes the open epoch, if any: classifies it as a hit, miss, or
/// capture, updates the template cache, and records the epoch's key as
/// the replay prediction for the next epoch.
fn memo_end_epoch(ctl: &mut Ctl) {
    let Some(m) = ctl.memo.as_mut() else { return };
    let Some(ep) = m.epoch.take() else { return };
    let key = memo::epoch_key(&ep.sigs);
    let tasks = ep.sigs.len() as u32;
    let mut cache = m.cache.lock().unwrap();
    cache.stats.replayed_tasks += ep.replayed;
    let storable = !ep.poisoned && !ep.sigs.is_empty();
    let template = |ep: &EpochRec| EpochTemplate {
        key,
        launch_sigs: ep.sigs.clone(),
        edges: ep.edges.clone(),
        forest_fingerprint: ep.forest_fingerprint,
        capture_checks: ep.checks,
    };
    match (&ep.replay, ep.missed) {
        (Some(t), _) if ep.cursor == t.len() => {
            // Full replay (a divergence would have cleared `replay`).
            ctl.tb.instant(EventKind::MemoHit {
                epoch: ep.step,
                key,
                tasks,
            });
            ctl.stats.memo_hits += 1;
            ctl.mx.incr(Counter::MemoHits);
            cache.stats.hits += 1;
        }
        (Some(_), _) => {
            // The epoch ended while the template expected more
            // launches: a divergence at the epoch boundary.
            ctl.tb.instant(EventKind::MemoMiss {
                epoch: ep.step,
                at: ep.cursor as u32,
            });
            ctl.stats.memo_misses += 1;
            ctl.mx.incr(Counter::MemoMisses);
            cache.stats.misses += 1;
            if storable {
                cache.insert(template(&ep));
            }
        }
        (None, true) => {
            // Diverged mid-epoch (the miss event was emitted at the
            // divergence point). Keep the freshly analyzed shape so a
            // stable new pattern replays from its next occurrence.
            cache.stats.misses += 1;
            if storable {
                cache.insert(template(&ep));
            }
        }
        (None, false) => {
            // Analyzed end to end: capture (first occurrence wins).
            if storable && cache.get(key).is_none() {
                cache.insert(template(&ep));
                ctl.tb.instant(EventKind::MemoCapture {
                    epoch: ep.step,
                    key,
                    tasks,
                });
                ctl.stats.memo_captures += 1;
                ctl.mx.incr(Counter::MemoCaptures);
                cache.stats.captures += 1;
            }
        }
    }
    cache.set_predicted(key);
}

/// Maps an IR privilege to its trace-event code (shared with the SPMD
/// executor so both logs speak the same access language).
pub(crate) fn priv_code(p: Privilege) -> PrivCode {
    match p {
        Privilege::Read => PrivCode::Read,
        Privilege::ReadWrite => PrivCode::Write,
        Privilege::Reduce(op) => PrivCode::Reduce(op as u8),
    }
}

/// Do two privileges require an ordering edge when their regions
/// overlap? Reductions are serialized (see module docs).
fn needs_edge(a: Privilege, b: Privilege) -> bool {
    !matches!((a, b), (Privilege::Read, Privilege::Read))
}

/// Executes a program with implicit parallelism, returning the final
/// scalar environment and statistics. Results are bit-identical to
/// [`regent_ir::interp::run`].
pub fn execute_implicit(
    program: &Program,
    store: &mut Store,
    opts: ImplicitOptions,
) -> (Vec<f64>, ImplicitStats) {
    assert!(opts.num_workers > 0);
    let mut env: Vec<f64> = program.scalars.iter().map(|s| s.init).collect();

    // Cache raw pointers to every root instance (the map is not
    // mutated while workers run).
    let roots = program.root_regions();
    let mut inst_ptrs: std::collections::HashMap<RegionId, InstPtr> =
        std::collections::HashMap::new();
    for r in roots {
        inst_ptrs.insert(r, InstPtr(store.instance_mut(program, r) as *mut Instance));
    }

    let mut senders = Vec::with_capacity(opts.num_workers);
    let mut receivers = Vec::with_capacity(opts.num_workers);
    for _ in 0..opts.num_workers {
        let (tx, rx) = channel::<Option<Arc<Job>>>();
        senders.push(tx);
        receivers.push(rx);
    }
    let pool = Pool {
        ready_tx: senders,
        outstanding: Mutex::new(0),
        drained: Condvar::new(),
    };

    let mut ctl = Ctl {
        stats: ImplicitStats::default(),
        tb: opts.tracer.buffer("control"),
        mx: metrics::global().handle("control"),
        launch_seq: 0,
        loop_depth: 0,
        memo: opts.memo.as_ref().map(|c| MemoRt {
            cache: Arc::clone(c),
            epoch: None,
        }),
    };

    std::thread::scope(|scope| {
        for (w, rx) in receivers.into_iter().enumerate() {
            let pool = &pool;
            let tasks = &program.tasks;
            let tracer = Arc::clone(&opts.tracer);
            scope.spawn(move || {
                let mut tb = tracer.buffer(&format!("worker-{w}"));
                let mut mx = metrics::global().handle(&format!("worker-{w}"));
                // Bounded waits: a worker starved past the hang
                // timeout keeps polling (the control thread may just
                // be slow), but a disconnected channel or poison pill
                // ends the loop. The timeout exists so a worker stuck
                // on a job someone else deadlocked behind surfaces in
                // thread dumps at a known cadence rather than parking
                // forever in an unbounded recv().
                loop {
                    match rx.recv_timeout(crate::collective::hang_timeout()) {
                        Ok(Some(job)) => run_job(&job, tasks, pool, &mut tb, &mut mx),
                        Ok(None) => break,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
            });
        }

        let mut users = Users::new(&program.forest);
        let route = Route {
            mapper: Arc::clone(&opts.mapper),
            num_workers: opts.num_workers,
        };
        exec_stmts(
            program,
            &program.body,
            &mut env,
            &inst_ptrs,
            &pool,
            &route,
            &mut users,
            &mut ctl,
        );
        memo_end_epoch(&mut ctl);
        pool.wait_drained();
        ctl.drained();
        // Poison pills: one per worker so every thread exits recv().
        for tx in &pool.ready_tx {
            tx.send(None).unwrap();
        }
    });

    ctl.tb.flush();
    let stats = ctl.stats;
    // Dropping `ctl` merges the control thread's metrics into the
    // global registry before the export below reads it.
    drop(ctl);
    metrics::export_env();
    (env, stats)
}

/// The routing policy: which worker a point task lands on.
struct Route {
    mapper: Arc<dyn Mapper>,
    num_workers: usize,
}

#[allow(clippy::too_many_arguments)]
fn exec_stmts(
    program: &Program,
    stmts: &[Stmt],
    env: &mut Vec<f64>,
    inst_ptrs: &std::collections::HashMap<RegionId, InstPtr>,
    pool: &Pool,
    route: &Route,
    users: &mut Users,
    ctl: &mut Ctl,
) {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => {
                let decl = program.task(il.task);
                let scalar_args: Vec<f64> = il.scalar_args.iter().map(|e| e.eval(env)).collect();
                let launch_seq = ctl.launch_seq;
                ctl.launch_seq += 1;
                let mut launch_jobs: Vec<Arc<Job>> = Vec::new();
                for (pos, &i) in il.launch_domain.iter().enumerate() {
                    let regions: Vec<RegionId> =
                        il.args.iter().map(|a| resolve_arg(program, a, i)).collect();
                    let job = issue_task(
                        program,
                        il.task,
                        &regions,
                        scalar_args.clone(),
                        i,
                        (launch_seq, pos as u32),
                        inst_ptrs,
                        pool,
                        route,
                        users,
                        ctl,
                    );
                    launch_jobs.push(job);
                }
                if let Some((var, op)) = il.reduce_result {
                    // Scalar reduction: wait for the launch, fold returns
                    // in launch order (§4.4).
                    pool.wait_drained();
                    ctl.drained();
                    let mut acc: Option<f64> = None;
                    for j in &launch_jobs {
                        let v = j
                            .ret
                            .lock()
                            .unwrap()
                            .unwrap_or_else(|| panic!("task {} returned no value", decl.name));
                        acc = Some(match acc {
                            None => v,
                            Some(a) => op.fold(a, v),
                        });
                    }
                    env[var.0 as usize] = acc.unwrap_or_else(|| op.identity());
                    users.clear();
                }
            }
            Stmt::SingleLaunch(sl) => {
                let scalar_args: Vec<f64> = sl.scalar_args.iter().map(|e| e.eval(env)).collect();
                let launch_seq = ctl.launch_seq;
                ctl.launch_seq += 1;
                let job = issue_task(
                    program,
                    sl.task,
                    &sl.args,
                    scalar_args,
                    DynPoint::from(0),
                    (launch_seq, 0),
                    inst_ptrs,
                    pool,
                    route,
                    users,
                    ctl,
                );
                if let Some(var) = sl.result {
                    pool.wait_drained();
                    ctl.drained();
                    env[var.0 as usize] = job.ret.lock().unwrap().unwrap_or_else(|| {
                        panic!("task {} returned no value", program.task(sl.task).name)
                    });
                    users.clear();
                }
            }
            Stmt::For { count, body } => {
                let n = count.eval(env).max(0.0) as u64;
                for it in 0..n {
                    if ctl.loop_depth == 0 {
                        ctl.tb.instant(EventKind::StepBegin { step: it });
                        memo_begin_epoch(program, pool, users, ctl, it);
                    }
                    ctl.loop_depth += 1;
                    exec_stmts(program, body, env, inst_ptrs, pool, route, users, ctl);
                    ctl.loop_depth -= 1;
                }
                if ctl.loop_depth == 0 {
                    memo_end_epoch(ctl);
                }
            }
            Stmt::While { cond, body } => {
                let mut it = 0u64;
                while cond.eval(env) != 0.0 {
                    if ctl.loop_depth == 0 {
                        ctl.tb.instant(EventKind::StepBegin { step: it });
                        memo_begin_epoch(program, pool, users, ctl, it);
                    }
                    ctl.loop_depth += 1;
                    exec_stmts(program, body, env, inst_ptrs, pool, route, users, ctl);
                    ctl.loop_depth -= 1;
                    it += 1;
                }
                if ctl.loop_depth == 0 {
                    memo_end_epoch(ctl);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if cond.eval(env) != 0.0 {
                    exec_stmts(program, then_body, env, inst_ptrs, pool, route, users, ctl);
                } else {
                    exec_stmts(program, else_body, env, inst_ptrs, pool, route, users, ctl);
                }
            }
            Stmt::SetScalar { var, expr } => env[var.0 as usize] = expr.eval(env),
        }
    }
}

/// Issues one point task: dependence analysis against the user lists,
/// then submission (deferred-execution style — the control thread never
/// blocks on the task itself).
#[allow(clippy::too_many_arguments)]
fn issue_task(
    program: &Program,
    task: TaskId,
    regions: &[RegionId],
    scalars: Vec<f64>,
    point: DynPoint,
    (launch, pos): (u32, u32),
    inst_ptrs: &std::collections::HashMap<RegionId, InstPtr>,
    pool: &Pool,
    route: &Route,
    users: &mut Users,
    ctl: &mut Ctl,
) -> Arc<Job> {
    let decl = program.task(task);
    let accesses: Vec<(RegionId, Privilege)> = regions
        .iter()
        .zip(&decl.params)
        .map(|(&r, p)| (r, p.privilege))
        .collect();
    let args: Vec<JobArg> = regions
        .iter()
        .zip(&decl.params)
        .map(|(&r, p)| {
            let root = program.forest.root_of(r);
            JobArg {
                domain: program.forest.domain(r).clone(),
                privilege: p.privilege,
                fields: p.fields.clone(),
                inst: InstPtr(inst_ptrs[&root].0),
            }
        })
        .collect();
    ctl.tb.instant(EventKind::TaskLaunch {
        launch,
        pos,
        task: task.0,
    });
    ctl.mx.incr(Counter::Launches);
    if ctl.tb.is_enabled() {
        // One access event per region argument; the instance identity
        // is the root region (all implicit-executor tasks share root
        // instances).
        for (&(r, p), param) in accesses.iter().zip(&decl.params) {
            ctl.tb.instant(EventKind::TaskAccess {
                launch,
                pos,
                region: r.0,
                inst: program.forest.root_of(r).0 as u64,
                fields: fields_mask(param.fields.iter().map(|f| f.0)),
                privilege: priv_code(p),
            });
        }
    }
    // `remaining` starts at 1: a sentinel held by the control thread
    // while edges are being added, preventing a predecessor that
    // completes mid-analysis from submitting the job twice.
    let worker = route.mapper.map_task(task, point, route.num_workers);
    assert!(
        worker < route.num_workers,
        "mapper chose worker {worker} of {}",
        route.num_workers
    );
    let job = Arc::new(Job {
        task,
        args,
        scalars,
        point,
        launch,
        pos,
        worker,
        ret: Mutex::new(None),
        remaining: AtomicUsize::new(1),
        dependents: Mutex::new(Vec::new()),
        done: AtomicBool::new(false),
    });

    // Epoch-trace memoization: while an epoch is open every launch gets
    // a structural signature; a predicted epoch replays template edges
    // instead of scanning user lists.
    let sig = match &ctl.memo {
        Some(m) if m.epoch.is_some() => Some(memo::launch_sig(task.0, &point, &accesses)),
        _ => None,
    };
    let mut replayed = false;
    if let Some(sig) = sig {
        let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
        if let Some(t) = &ep.replay {
            if ep.cursor < t.len() && t.launch_sigs[ep.cursor] == sig {
                // Replay: apply the template's intra-epoch predecessors
                // directly — no list scan, no analysis span. The
                // bookkeeping that remains (edge application) is
                // recorded as a MemoReplay span, the memo-path
                // counterpart of DepAnalysis in blame reports.
                let replay_start = ctl.tb.now();
                let preds = t.edges[ep.cursor].clone();
                let mut n_deps = 0usize;
                for &p in &preds {
                    let prev_job = &ep.jobs[p as usize];
                    ctl.tb.instant(EventKind::DepEdge {
                        from_launch: prev_job.launch,
                        from_pos: prev_job.pos,
                        to_launch: launch,
                        to_pos: pos,
                    });
                    let mut deps = prev_job.dependents.lock().unwrap();
                    if !prev_job.done.load(Ordering::SeqCst) {
                        job.remaining.fetch_add(1, Ordering::SeqCst);
                        deps.push(Arc::clone(&job));
                        n_deps += 1;
                    }
                }
                ep.edges.push(preds);
                ep.cursor += 1;
                ep.replayed += 1;
                ctl.tb
                    .span_since(replay_start, EventKind::MemoReplay { launch, pos });
                ctl.stats.memo_replayed_tasks += 1;
                ctl.mx.incr(Counter::MemoReplayedTasks);
                ctl.stats.dependence_edges += n_deps as u64;
                replayed = true;
            } else {
                // Divergence: this epoch stopped matching the predicted
                // template. Fall back to full analysis for the rest of
                // the epoch — sound, because the replayed prefix sits
                // in the user lists and the pre-epoch fence ordered
                // everything older.
                ctl.tb.instant(EventKind::MemoMiss {
                    epoch: ep.step,
                    at: ep.cursor as u32,
                });
                ctl.stats.memo_misses += 1;
                ctl.mx.incr(Counter::MemoMisses);
                ep.missed = true;
                ep.replay = None;
            }
        }
    }

    if !replayed {
        // Dependence analysis (the per-task control overhead).
        let analysis_start = ctl.tb.now();
        let analysis_m0 = ctl.mx.start();
        let mut preds: Vec<Arc<Job>> = Vec::new();
        let mut checks = 0u64;
        for &(r, p) in &accesses {
            checks += users.analyze(&program.forest, r, p, &mut preds);
        }
        // Issue order, so edge events and template predecessor lists are
        // deterministic.
        preds.sort_by_key(|j| (j.launch, j.pos));
        let mut n_deps = 0usize;
        let mut epoch_preds: Vec<u32> = Vec::new();
        for prev_job in &preds {
            // The edge is recorded even when the predecessor already
            // finished: its completion happened-before this launch, so
            // the ordering is real either way (the trace validator
            // relies on it).
            ctl.tb.instant(EventKind::DepEdge {
                from_launch: prev_job.launch,
                from_pos: prev_job.pos,
                to_launch: launch,
                to_pos: pos,
            });
            // Intra-epoch conflicts feed the template being captured.
            if let Some(m) = &ctl.memo {
                if let Some(ep) = &m.epoch {
                    if let Some(&idx) = ep.index_of.get(&(Arc::as_ptr(prev_job) as usize)) {
                        epoch_preds.push(idx);
                    }
                }
            }
            // Register the edge unless the predecessor already finished.
            let mut deps = prev_job.dependents.lock().unwrap();
            if !prev_job.done.load(Ordering::SeqCst) {
                job.remaining.fetch_add(1, Ordering::SeqCst);
                deps.push(Arc::clone(&job));
                n_deps += 1;
            }
        }
        ctl.stats.dependence_checks += checks;
        ctl.tb.span_since(
            analysis_start,
            EventKind::DepAnalysis {
                launch,
                pos,
                checks: checks as u32,
            },
        );
        ctl.mx.record_since(analysis_m0, Timer::DepAnalysisNs);
        ctl.mx.add(Counter::DepChecks, checks);
        ctl.stats.dependence_edges += n_deps as u64;
        if sig.is_some() {
            let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
            ep.edges.push(epoch_preds);
            ep.checks += checks;
        }
    }
    ctl.stats.tasks_launched += 1;
    pool.register();
    // Release the sentinel; submit if no edges remain.
    if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        pool.submit(Arc::clone(&job));
    }
    for &(r, p) in &accesses {
        users.push(&program.forest, r, p, &job);
    }
    ctl.stats.max_window = ctl.stats.max_window.max(users.live);
    // Record the launch in the open epoch (both modes), keeping `sigs`
    // parallel to the `edges` entry pushed above.
    if let Some(sig) = sig {
        let ep = ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap();
        ep.index_of
            .insert(Arc::as_ptr(&job) as usize, ep.sigs.len() as u32);
        ep.sigs.push(sig);
        ep.jobs.push(Arc::clone(&job));
    }
    if users.live > PRUNE_AT {
        if sig.is_none() {
            users.prune();
        } else if users.live > EPOCH_PRUNE_AT {
            // Pruning mid-epoch can drop a completed intra-epoch
            // predecessor and leave the captured template missing an
            // edge, so while an epoch is open the lists only shrink
            // past a hard cap — and the epoch is poisoned (no template
            // stored).
            ctl.memo.as_mut().unwrap().epoch.as_mut().unwrap().poisoned = true;
            users.prune();
        }
    }
    job
}
