//! One solve of one program under one strategy, timed from outside by
//! calling the executors' public entry points, and checked against the
//! sequential interpreter.

use crate::layers::Layers;
use regent_cr::hybrid::replicate_ranges;
use regent_cr::{control_replicate, CrOptions, HybridProgram, SpmdProgram};
use regent_ir::{interp, Program, Store};
use regent_region::{FieldType, RegionForest, RegionId};
use regent_runtime::metrics::{self, process_cpu_ns};
use regent_runtime::{
    build_exchange_plan, execute_hybrid_traced, execute_implicit, execute_log_traced,
    execute_spmd_traced, ImplicitOptions, MemoCache,
};
use regent_serve::{digest_store, ProgramFactory, Strategy};
use regent_trace::{blame_report, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Wall times of one pass through the set-up pipeline (seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSample {
    /// Program build plus store initialisation.
    pub build_s: f64,
    /// `control_replicate`.
    pub compile_s: f64,
    /// Shallow phase of `build_exchange_plan`.
    pub shallow_s: f64,
    /// Complete phase of `build_exchange_plan`.
    pub complete_s: f64,
    /// The whole pipeline, wall clock.
    pub total_s: f64,
    /// Copy statements in the compiled SPMD program.
    pub copies: usize,
    /// Intersection pairs in the exchange plan.
    pub pairs: usize,
    /// Elements across all intersection pairs.
    pub elements: u64,
}

/// Builds, initialises, control-replicates and plans `factory`'s
/// program once, returning the compiled program and its initial store.
pub fn setup_once(factory: &ProgramFactory, shards: usize) -> (SpmdProgram, Store, SetupSample) {
    let t0 = Instant::now();
    let (prog, store) = factory();
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let spmd = control_replicate(prog, &CrOptions::new(shards)).expect("control_replicate");
    let compile_s = t1.elapsed().as_secs_f64();
    let plan = build_exchange_plan(&spmd);
    let total_s = t0.elapsed().as_secs_f64();
    let sample = SetupSample {
        build_s,
        compile_s,
        shallow_s: plan.setup.shallow_seconds,
        complete_s: plan.setup.complete_seconds,
        total_s,
        copies: spmd.count_copies(),
        pairs: plan.setup.num_pairs,
        elements: plan.setup.total_elements,
    };
    (spmd, store, sample)
}

/// A program compiled once for every strategy, plus its pristine
/// initial store; each solve runs on a fresh copy of that store.
pub struct Prepared {
    prog: Program,
    spmd: SpmdProgram,
    hybrid: HybridProgram,
    pristine: Store,
    roots: Vec<RegionId>,
    shards: usize,
}

/// The result a solve produced, before it is checked.
pub struct Solved {
    /// Wall seconds of the executor call alone.
    pub wall_s: f64,
    /// Process CPU seconds over the executor call.
    pub cpu_s: f64,
    /// Final scalar environment.
    pub env: Vec<f64>,
    /// Final store.
    pub store: Store,
    /// Point tasks the executor reports.
    pub tasks: u64,
    /// Elements sent between shards, where the executor reports them.
    pub elements_sent: u64,
    /// Critical path of the traced run, nanoseconds.
    pub critical_path_ns: Option<u64>,
}

/// What every strategy must reproduce: the sequential interpreter's
/// final state.
pub struct Reference {
    env: Vec<f64>,
    tasks: u64,
    digest: u64,
    store: Store,
}

impl Prepared {
    /// Compiles `factory`'s program for every strategy at `shards`.
    pub fn new(factory: &ProgramFactory, shards: usize) -> Prepared {
        let (prog, pristine) = factory();
        let roots = prog.root_regions();
        let (spmd, _, _) = setup_once(factory, shards);
        let hybrid =
            replicate_ranges(factory().0, &CrOptions::new(shards)).expect("replicate_ranges");
        Prepared {
            prog,
            spmd,
            hybrid,
            pristine,
            roots,
            shards,
        }
    }

    fn forest(&self, s: Strategy) -> &RegionForest {
        match s {
            Strategy::Sequential | Strategy::Implicit | Strategy::MemoImplicit => &self.prog.forest,
            Strategy::Spmd | Strategy::Log => &self.spmd.forest,
            Strategy::Hybrid => &self.hybrid.base.forest,
        }
    }

    fn fresh_store(&self, forest: &RegionForest) -> Store {
        let mut store = Store::from_forest(forest);
        for (root, inst) in self.pristine.iter() {
            *store.instance_mut_in(forest, root) = inst.clone();
        }
        store
    }

    /// Runs the sequential interpreter once and keeps its result.
    pub fn reference(&self) -> Reference {
        let solved = self.solve(Strategy::Sequential, false);
        let digest = digest_store(&self.prog.forest, &solved.store, &self.roots, &solved.env);
        Reference {
            env: solved.env,
            tasks: solved.tasks,
            digest,
            store: solved.store,
        }
    }

    /// One solve under `s`, traced when `traced` (the sequential
    /// interpreter has no tracer and ignores it). Only the executor
    /// call is timed; store copy and trace analysis are not.
    pub fn solve(&self, s: Strategy, traced: bool) -> Solved {
        let mut store = self.fresh_store(self.forest(s));
        let tracer = if traced {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let (env, tasks, elements_sent) = match s {
            Strategy::Sequential => {
                let (env, st) = interp::run(&self.prog, &mut store);
                (env, st.tasks_executed, 0)
            }
            Strategy::Implicit | Strategy::MemoImplicit => {
                let mut opts = ImplicitOptions::with_workers(self.shards);
                opts.tracer = Arc::clone(&tracer);
                if s == Strategy::MemoImplicit {
                    opts = opts.with_memo(MemoCache::shared());
                }
                let (env, st) = execute_implicit(&self.prog, &mut store, opts);
                (env, st.tasks_launched, 0)
            }
            Strategy::Spmd => {
                let r = execute_spmd_traced(&self.spmd, &mut store, &tracer);
                (r.env, r.stats.tasks_executed, r.stats.elements_sent)
            }
            Strategy::Hybrid => {
                let r = execute_hybrid_traced(&self.hybrid, &mut store, &tracer);
                let tasks = r.spmd_stats.tasks_executed + r.sequential_tasks;
                (r.env, tasks, r.spmd_stats.elements_sent)
            }
            Strategy::Log => {
                let r = execute_log_traced(&self.spmd, &mut store, &tracer);
                (r.env, r.stats.tasks_executed, r.stats.elements_sent)
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
        let critical_path_ns = traced.then(|| {
            blame_report(&tracer.take())
                .expect("executor trace must form an acyclic graph")
                .critical_path_ns
        });
        Solved {
            wall_s,
            cpu_s,
            env,
            store,
            tasks,
            elements_sent,
            critical_path_ns,
        }
    }

    /// A solve with the global metrics registry reset before it and
    /// read after it, so the layer counters cover this solve alone.
    pub fn solve_with_layers(&self, s: Strategy) -> (Solved, Layers) {
        metrics::global().reset();
        let solved = self.solve(s, false);
        let mut layers = Layers::from_registry(s, &metrics::global().aggregate());
        layers.set_elements_sent(s, solved.elements_sent as f64);
        (solved, layers)
    }

    /// The digest of a solve's result.
    pub fn digest(&self, s: Strategy, solved: &Solved) -> u64 {
        digest_store(self.forest(s), &solved.store, &self.roots, &solved.env)
    }

    /// Checks a solve against the reference: equal digests, or — when
    /// `tolerance > 0` — every `f64` within `tolerance` relative, every
    /// integer, scalar and the task count (hence any `While` trip
    /// count) exact. `perturb` flips one stored value first, the
    /// benchmark's self-test that a wrong result is caught.
    pub fn verify(
        &self,
        s: Strategy,
        solved: &mut Solved,
        reference: &Reference,
        tolerance: f64,
        perturb: bool,
    ) -> Result<(), String> {
        let forest = self.forest(s);
        if perturb {
            perturb_store(forest, &mut solved.store, &self.roots);
        }
        if solved.tasks != reference.tasks {
            return Err(format!(
                "{}: {} tasks, reference {}",
                s.label(),
                solved.tasks,
                reference.tasks
            ));
        }
        if solved.env != reference.env {
            return Err(format!("{}: scalar environment differs", s.label()));
        }
        if self.digest(s, solved) == reference.digest {
            return Ok(());
        }
        if tolerance == 0.0 {
            return Err(format!(
                "{}: store digest differs (bit-exact app)",
                s.label()
            ));
        }
        for &root in &self.roots {
            let a = reference.store.instance_in(&self.prog.forest, root);
            let b = solved.store.instance_in(forest, root);
            for (fid, def) in self.prog.forest.fields(root).iter() {
                let ok = match def.ty {
                    FieldType::F64 => {
                        a.f64_col(fid).iter().zip(b.f64_col(fid)).all(|(x, y)| {
                            (x - y).abs() <= tolerance * x.abs().max(y.abs()).max(1.0)
                        })
                    }
                    FieldType::I64 => a.i64_col(fid) == b.i64_col(fid),
                };
                if !ok {
                    return Err(format!(
                        "{}: field {} outside tolerance {tolerance:e}",
                        s.label(),
                        def.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Adds 1.0 to the first `f64` value of the first root region.
pub fn perturb_store(forest: &RegionForest, store: &mut Store, roots: &[RegionId]) {
    for &root in roots {
        if let Some((fid, _)) = forest
            .fields(root)
            .iter()
            .find(|(_, d)| d.ty == FieldType::F64)
        {
            if let Some(v) = store
                .instance_mut_in(forest, root)
                .f64_col_mut(fid)
                .first_mut()
            {
                *v += 1.0;
                return;
            }
        }
    }
}
