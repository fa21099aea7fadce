//! The workloads and the program sizes each runs.

use regent_apps::{pennant, stencil};
use regent_ir::Store;
use regent_serve::ProgramFactory;
use std::sync::Arc;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// PRK stencil in large tiles: kernel-bound.
    StencilCoarse,
    /// The same stencil in many small tiles: control-bound.
    StencilFine,
    /// PENNANT hydrodynamics: folds, a Min-collective per step, a
    /// data-dependent `While` loop.
    Pennant,
    /// A seeded closed-loop job mix against a `Service`.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::StencilCoarse,
        Workload::StencilFine,
        Workload::Pennant,
        Workload::ServeMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StencilCoarse => "stencil-coarse",
            Workload::StencilFine => "stencil-fine",
            Workload::Pennant => "pennant",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// The workloads `BENCHMARK.json` lists, which every measured set
    /// of runs covers. A set has a fixed time budget, and the host's
    /// noise falls only with run length, so the set keeps the two
    /// workloads that between them measure every layer: `stencil-fine`
    /// (the control-bound regime) and `serve-mix` (the service, and
    /// through its pennant jobs the folds and collectives). The other
    /// two still run by hand.
    pub const MEASURED: [Workload; 2] = [Workload::StencilFine, Workload::ServeMix];

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is what the benchmark measures; `Tiny` keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The documented benchmark sizes.
    Full,
    /// Smallest sizes that still exercise every layer.
    Tiny,
}

impl Scale {
    /// Parses `full` or `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// A single-program solve workload: its program factory and the
/// tolerance its results must meet against the sequential interpreter.
#[derive(Clone)]
pub struct App {
    /// Builds a fresh `(Program, Store)` pair.
    pub factory: ProgramFactory,
    /// Relative tolerance on root-region `f64` fields; `0.0` demands
    /// bit-identical stores. Scalars and task counts are always exact.
    pub tolerance: f64,
}

/// The solve workload's program, or `None` for `serve-mix`.
pub fn app(workload: Workload, scale: Scale) -> Option<App> {
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::StencilCoarse => Some(stencil_app(if tiny {
            (32, 2, 2, 3)
        } else {
            (256, 4, 2, 10)
        })),
        Workload::StencilFine => Some(stencil_app(if tiny {
            (32, 4, 4, 4)
        } else {
            (64, 8, 8, 10)
        })),
        Workload::Pennant => {
            let cfg = if tiny {
                pennant::PennantConfig {
                    nzx: 8,
                    nzy: 4,
                    pieces: 2,
                    tstop: 2e-2,
                    dtmax: 2e-2,
                }
            } else {
                pennant::PennantConfig {
                    nzx: 128,
                    nzy: 32,
                    pieces: 8,
                    tstop: 0.2,
                    dtmax: 2e-2,
                }
            };
            Some(App {
                factory: Arc::new(move || {
                    let mesh = pennant::build_mesh(&cfg);
                    let (prog, h) = pennant::pennant_program(cfg, &mesh);
                    let mut store = Store::new(&prog);
                    pennant::init_pennant(&prog, &mut store, &h, &cfg, &mesh);
                    (prog, store)
                }),
                tolerance: 1e-11,
            })
        }
        Workload::ServeMix => None,
    }
}

fn stencil_app((n, ntx, nty, steps): (u64, usize, usize, u64)) -> App {
    let cfg = stencil::StencilConfig {
        n,
        ntx,
        nty,
        radius: 2,
        steps,
    };
    App {
        factory: Arc::new(move || {
            let (prog, h) = stencil::stencil_program(cfg);
            let mut store = Store::new(&prog);
            stencil::init_stencil(&prog, &mut store, &h);
            (prog, store)
        }),
        tolerance: 0.0,
    }
}
