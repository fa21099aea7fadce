//! The implicit executor's region-indexed dependence analysis: per-region
//! user lists, the interference cache, and cover retirement
//! (`crates/runtime/src/implicit.rs`).
//!
//! Every case is a traced run that must be bit-identical to the
//! sequential interpreter and certified by the Spy validator. Beyond
//! that, the recorded `DepEdge` events pin the mechanism itself: a user
//! retired by a later mutator gets no direct edge to the next
//! conflicting access — that access is ordered through the mutator —
//! and Spy, which certifies happens-before by graph reachability,
//! accepts the transitive ordering.

use regent_apps::stencil;
use regent_cr::ForestOracle;
use regent_geometry::{Domain, DynPoint, DynRect};
use regent_ir::{interp, Program, ProgramBuilder, RegionArg, RegionParam, Store, TaskDecl, TaskId};
use regent_region::{ops, Disjointness, FieldSpace, FieldType, ReductionOp, RegionId};
use regent_runtime::{execute_implicit, ImplicitOptions, ImplicitStats};
use regent_trace::{validate, EventKind, Trace, Tracer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Runs the program `build` returns under the interpreter and, traced,
/// under the implicit executor; asserts bit-identity and Spy
/// certification.
fn run_checked(build: impl Fn() -> (Program, Store)) -> (Trace, ImplicitStats) {
    let (prog, mut seq) = build();
    let (env_seq, _) = interp::run(&prog, &mut seq);
    let (prog, mut store) = build();
    let tracer = Tracer::enabled();
    let opts = ImplicitOptions {
        tracer: tracer.clone(),
        ..ImplicitOptions::with_workers(4)
    };
    let (env, stats) = execute_implicit(&prog, &mut store, opts);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&env_seq), bits(&env), "scalar environment");
    for root in prog.root_regions() {
        let (a, b) = (seq.instance(&prog, root), store.instance(&prog, root));
        for (fid, def) in prog.forest.fields(root).iter() {
            for pt in prog.forest.domain(root).iter() {
                let (va, vb) = (a.read_f64(fid, pt), b.read_f64(fid, pt));
                assert!(
                    va.to_bits() == vb.to_bits(),
                    "field {:?} at {pt:?}: interpreter {va} vs implicit {vb}",
                    def.name
                );
            }
        }
    }
    let trace = tracer.take();
    let report = validate(&trace, &ForestOracle::new(&prog.forest)).expect("complete log");
    assert!(report.ok(), "spy violations: {:?}", report.violations);
    (trace, stats)
}

/// The `(launch, pos)` predecessors recorded for point task `to`.
fn preds_of(trace: &Trace, to: (u32, u32)) -> BTreeSet<(u32, u32)> {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            EventKind::DepEdge {
                from_launch,
                from_pos,
                to_launch,
                to_pos,
            } if (to_launch, to_pos) == to => Some((from_launch, from_pos)),
            _ => None,
        })
        .collect()
}

/// The predecessors of single launch `to`.
fn single_preds(trace: &Trace, to: u32) -> BTreeSet<(u32, u32)> {
    preds_of(trace, (to, 0))
}

/// Single-launch predecessors, `(launch, 0)`, for the expected sets.
fn singles(launches: &[u32]) -> BTreeSet<(u32, u32)> {
    launches.iter().map(|&l| (l, 0)).collect()
}

/// A data region `r` = [0, 16) with field `x`, split into halves
/// `a` = [0, 7] and `b` = [8, 15] (disjoint) and an aliased middle `h`
/// = [4, 11]; plus an output region of single-element cells, field `y`,
/// that readers write so their reads have an observable effect.
struct Fixture {
    b: ProgramBuilder,
    r: RegionId,
    a: RegionId,
    bh: RegionId,
    h: RegionId,
    cells: Vec<RegionId>,
    /// RW `x`: x = 1.5·x + 1.
    bump: TaskId,
    /// Read `x` on arg 0, RW `y` on arg 1: y = 0.5·y + Σx.
    sum_into: TaskId,
    /// Reduce(+) into `x`.
    acc: TaskId,
    /// Read `x` and discard the sum.
    peek: TaskId,
}

fn fixture() -> Fixture {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let out_fs = FieldSpace::of(&[("y", FieldType::F64)]);
    let y = out_fs.lookup("y").unwrap();
    let r = b.forest.create_region(Domain::range(16), fs);
    let halves = ops::block(&mut b.forest, r, 2);
    let mid = b.forest.create_partition(
        r,
        Disjointness::Aliased,
        vec![(DynPoint::from(0), Domain::from_rect(DynRect::span(4, 11)))],
    );
    let out = b.forest.create_region(Domain::range(8), out_fs);
    let cell_part = ops::block(&mut b.forest, out, 8);
    let bump = b.task(TaskDecl {
        name: "bump".into(),
        params: vec![RegionParam::read_write(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            for pt in ctx.domain(0).clone().iter() {
                let v = ctx.read_f64(0, x, pt);
                ctx.write_f64(0, x, pt, v * 1.5 + 1.0);
            }
        }),
        cost_per_element: 1.0,
    });
    let sum_into = b.task(TaskDecl {
        name: "sum_into".into(),
        params: vec![RegionParam::read(&[x]), RegionParam::read_write(&[y])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let sum: f64 = ctx
                .domain(0)
                .clone()
                .iter()
                .map(|p| ctx.read_f64(0, x, p))
                .sum();
            for pt in ctx.domain(1).clone().iter() {
                let v = ctx.read_f64(1, y, pt);
                ctx.write_f64(1, y, pt, v * 0.5 + sum);
            }
        }),
        cost_per_element: 1.0,
    });
    let acc = b.task(TaskDecl {
        name: "acc".into(),
        params: vec![RegionParam::reduce(ReductionOp::Add, &[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let k = ctx.launch_point.coord(0) as f64;
            for pt in ctx.domain(0).clone().iter() {
                ctx.reduce_f64(0, x, pt, pt.coord(0) as f64 * 0.25 + k + 0.1);
            }
        }),
        cost_per_element: 1.0,
    });
    let peek = b.task(TaskDecl {
        name: "peek".into(),
        params: vec![RegionParam::read(&[x])],
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(move |ctx| {
            let sum: f64 = ctx
                .domain(0)
                .clone()
                .iter()
                .map(|p| ctx.read_f64(0, x, p))
                .sum();
            std::hint::black_box(sum);
        }),
        cost_per_element: 1.0,
    });
    Fixture {
        r,
        a: b.forest.subregion_i(halves, 0),
        bh: b.forest.subregion_i(halves, 1),
        h: b.forest.subregion_i(mid, 0),
        cells: (0..8).map(|i| b.forest.subregion_i(cell_part, i)).collect(),
        b,
        bump,
        sum_into,
        acc,
        peek,
    }
}

/// Builds the fixture program with `body` and initializes its store.
fn build(body: impl Fn(&mut Fixture)) -> (Program, Store) {
    let mut f = fixture();
    body(&mut f);
    let (r, out) = (f.r, f.b.forest.root_of(f.cells[0]));
    let prog = f.b.build();
    let mut store = Store::new(&prog);
    let x = prog.forest.fields(r).lookup("x").unwrap();
    let y = prog.forest.fields(out).lookup("y").unwrap();
    store.fill_f64(&prog, r, x, |p| (p.coord(0) as f64 * 0.7).cos());
    store.fill_f64(&prog, out, y, |_| 0.0);
    (prog, store)
}

/// (a) A reader of `h` is covered only by the union of two later
/// writers (`a`, then `b`). The writer that then overlaps one half of
/// it is ordered after the reader through the first of those writers,
/// not by a direct edge.
#[test]
fn reader_covered_by_two_writers_is_retired() {
    let (trace, _) = run_checked(|| {
        build(|f| {
            let (a, b, h, c) = (f.a, f.bh, f.h, f.cells.clone());
            f.b.call(f.bump, vec![a]); // L0
            f.b.call(f.sum_into, vec![h, c[0]]); // L1: reads [4, 11]
            f.b.call(f.bump, vec![a]); // L2: covers [4, 7]
            f.b.call(f.bump, vec![b]); // L3: covers [8, 11] — L1 retires
            f.b.call(f.bump, vec![a]); // L4: overlaps L1's [4, 7]
            f.b.call(f.sum_into, vec![h, c[1]]); // L5
        })
    });
    assert_eq!(single_preds(&trace, 2), singles(&[0, 1]));
    assert_eq!(single_preds(&trace, 3), singles(&[1]));
    assert_eq!(
        single_preds(&trace, 4),
        singles(&[2]),
        "the retired reader is ordered through L2, not by a direct edge"
    );
    assert_eq!(single_preds(&trace, 5), singles(&[3, 4]));
}

/// (b) A writer on the parent region retires the users of its
/// subregions at once; the parent user is itself retired once later
/// writers of both halves cover it.
#[test]
fn parent_writer_retires_subregion_users() {
    let (trace, _) = run_checked(|| {
        build(|f| {
            let (r, a, b, c) = (f.r, f.a, f.bh, f.cells.clone());
            let halves = f.b.forest.region(a).parent.unwrap().0;
            f.b.index_launch(f.bump, 2, vec![RegionArg::Part(halves)]); // L0
            f.b.call(f.sum_into, vec![a, c[0]]); // L1
            f.b.call(f.sum_into, vec![b, c[1]]); // L2
            f.b.call(f.bump, vec![r]); // L3: retires L0–L2
            f.b.call(f.sum_into, vec![a, c[2]]); // L4
            f.b.call(f.bump, vec![b]); // L5: shrinks L3 to `a`
            f.b.call(f.bump, vec![a]); // L6: retires L3 and L4
            f.b.call(f.sum_into, vec![r, c[3]]); // L7
        })
    });
    let l0: BTreeSet<_> = [(0, 0), (0, 1), (1, 0), (2, 0)].into();
    assert_eq!(single_preds(&trace, 3), l0);
    assert_eq!(
        single_preds(&trace, 4),
        singles(&[3]),
        "subregion users retired"
    );
    assert_eq!(single_preds(&trace, 5), singles(&[3]));
    assert_eq!(single_preds(&trace, 6), singles(&[3, 4]));
    assert_eq!(
        single_preds(&trace, 7),
        singles(&[5, 6]),
        "the parent writer is retired once both halves are rewritten"
    );
}

/// (c) Reductions serialize in program order, each retiring the one
/// before it, and a read after them depends on the last one only. The
/// next reduction follows the read (and, directly, the reduction the
/// read followed, which the read does not retire): every task depends
/// on its program predecessor and nothing older is left in the lists.
#[test]
fn reduce_reduce_read_chains_serialize() {
    let (trace, stats) = run_checked(|| {
        build(|f| {
            let (r, c) = (f.r, f.cells.clone());
            for &cell in c.iter().take(3) {
                f.b.index_launch(f.acc, 2, vec![RegionArg::Region(r)]);
                f.b.index_launch(f.acc, 2, vec![RegionArg::Region(r)]);
                f.b.call(f.sum_into, vec![r, cell]);
            }
        })
    });
    assert_eq!(stats.tasks_launched, 15);
    // Tasks in issue order: per round, two 2-point reductions and a read.
    let order: Vec<(u32, u32)> = (0..9u32)
        .flat_map(|l| {
            let points = if l % 3 == 2 { 1 } else { 2 };
            (0..points).map(move |p| (l, p))
        })
        .collect();
    for (i, &task) in order.iter().enumerate() {
        let mut expected = BTreeSet::new();
        if i > 0 {
            expected.insert(order[i - 1]);
        }
        if i >= 2 && order[i - 1].0 % 3 == 2 {
            // First reduction after a read: the read and the reduction
            // before it.
            expected.insert(order[i - 2]);
        }
        assert_eq!(preds_of(&trace, task), expected, "predecessors of {task:?}");
    }
}

/// (d) A region no task writes, read by more than 4,096 tasks: its
/// user list only grows (reads never retire), so the live-record cap
/// prunes finished readers. The readers are the points of one index
/// launch (Spy skips those pairs, keeping certification linear); a last
/// task folds the region into an output cell.
#[test]
fn readers_past_the_cap_are_pruned() {
    let readers = 4200;
    let (_, stats) = run_checked(|| {
        build(|f| {
            let (r, c0) = (f.r, f.cells[0]);
            f.b.index_launch(f.peek, readers, vec![RegionArg::Region(r)]);
            f.b.call(f.sum_into, vec![r, c0]);
        })
    });
    assert_eq!(stats.tasks_launched, readers + 1);
    assert!(
        stats.max_window > 4096,
        "the live user records must reach the pruning cap (peak {})",
        stats.max_window
    );
}

/// (e) Scaling guard: the analysis pays per overlapping live user, not
/// per task ever issued, so doubling the steps at most doubles the
/// checks (plus the one-time start-up scans).
#[test]
fn stencil_checks_grow_linearly_with_steps() {
    let checks = |steps: u64| {
        let cfg = stencil::StencilConfig {
            n: 32,
            ntx: 4,
            nty: 4,
            radius: 2,
            steps,
        };
        let (_, stats) = run_checked(|| {
            let (prog, h) = stencil::stencil_program(cfg);
            let mut store = Store::new(&prog);
            stencil::init_stencil(&prog, &mut store, &h);
            (prog, store)
        });
        stats.dependence_checks
    };
    let (ten, twenty) = (checks(10), checks(20));
    assert!(
        twenty as f64 <= 2.2 * ten as f64,
        "dependence checks must grow linearly: {ten} at 10 steps, {twenty} at 20"
    );
}
