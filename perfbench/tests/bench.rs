//! The benchmark's own tests: every workload emits every metric, a
//! wrong result fails the run, the `serve-mix` job sequence is seeded,
//! and `compare` reports deltas.

use perfbench::layers::per_layer_names;
use perfbench::report::{collect, compare, HEADER};
use perfbench::serve::{JobSequence, MixApp};
use perfbench::{run, Options, RunResult, Scale, Workload, END_TO_END};
use regent_serve::Strategy;
use regent_trace::json;
use std::process::Command;
use std::sync::Mutex;

/// Runs share the process-global metrics registry, which the traced
/// pass resets around each solve: run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_serial(opts: &Options) -> RunResult {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(opts)
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        perturb: false,
    }
}

fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    }
}

fn assert_complete(label: &str, res: &RunResult, trace: bool) {
    assert!(res.correct(), "{label}: {:?}", res.errors);
    assert!(res.attempted >= 1);
    let got: Vec<(String, &str)> = res
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect();
    assert_eq!(got, expected(trace), "{label}: metric names/units");
    for m in &res.metrics {
        assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
    }
    // The printed line parses and carries exactly the contract's keys.
    let v = json::parse(&res.to_json()).expect("result line is JSON");
    let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        v.get("metrics").and_then(|m| m.as_obj()).map(|m| m.len()),
        Some(res.metrics.len())
    );
}

#[test]
fn every_workload_emits_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let res = run_serial(&tiny(w, trace));
            let label = format!("{} trace={trace}", w.name());
            assert_complete(&label, &res, trace);
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(res.get(name).unwrap() > 0.0, "{label}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn traced_pass_measures_the_layers_it_names() {
    let res = run_serial(&tiny(Workload::StencilFine, true));
    assert!(res.get("implicit.dep_checks").unwrap() > 0.0);
    assert!(res.get("implicit.analysis_s").unwrap() > 0.0);
    assert!(res.get("memo.replayed_tasks").unwrap() > 0.0);
    assert!(res.get("spmd.copies").unwrap() > 0.0);
    assert!(res.get("spmd.elements_sent").unwrap() > 0.0);
    assert!(res.get("log.batch_records").unwrap() > 0.0);
    assert!(res.get("hybrid.replicated_segments").unwrap() > 0.0);
    assert!(res.get("spmd.critical_path_s").unwrap() > 0.0);
    assert!(res.get("plan.pairs").unwrap() > 0.0);
    let p = run_serial(&tiny(Workload::Pennant, true));
    assert!(p.get("spmd.collectives").unwrap() > 0.0);
    let s = run_serial(&tiny(Workload::ServeMix, true));
    assert!(s.get("service.checkpoints").unwrap() > 0.0);
    assert!(s.get("log.kernel_s").unwrap() > 0.0);
    assert!(s.get("spmd.collectives").unwrap() > 0.0);
    assert_eq!(s.get("fail_frac"), Some(0.0));
}

#[test]
fn perturbed_result_is_counted_as_failed() {
    // Bit-exact path (stencil), tolerance path (pennant) and the
    // reference digests the service jobs are checked against.
    for w in [
        Workload::StencilCoarse,
        Workload::Pennant,
        Workload::ServeMix,
    ] {
        let res = run_serial(&Options {
            perturb: true,
            ..tiny(w, true)
        });
        assert!(!res.correct(), "{}: perturbation went unnoticed", w.name());
        assert_eq!(res.failed, 1, "{}", w.name());
        let frac = res.get("fail_frac").unwrap();
        assert!((frac - 1.0 / res.attempted as f64).abs() < 1e-12);
    }
}

#[test]
fn perturbed_result_fails_the_command() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "pennant", "--seed", "1", "--seconds", "0.2"])
        .args(["--trace", "0", "--scale", "tiny", "--perturb"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("result line");
    let v = json::parse(last).expect("result line is JSON");
    assert_eq!(v.get("correct"), Some(&json::Value::Bool(false)));
    assert_eq!(v.get("failed").and_then(|f| f.as_num()), Some(1.0));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn serve_mix_sequence_is_seeded() {
    let take = |seed, client| JobSequence::new(seed, client).take(300).collect::<Vec<_>>();
    assert_eq!(take(11, 0), take(11, 0));
    assert_ne!(take(11, 0), take(12, 0));
    assert_ne!(take(11, 0), take(11, 1));
    let jobs = take(11, 0);
    for s in Strategy::ALL {
        assert!(jobs.iter().any(|j| j.strategy == s), "{s:?} never drawn");
    }
    for app in ["stencil", "circuit", "pennant"] {
        let drawn = jobs.iter().any(|j| match j.app {
            MixApp::Stencil => app == "stencil",
            MixApp::Circuit(_) => app == "circuit",
            MixApp::Pennant => app == "pennant",
        });
        assert!(drawn, "{app} never drawn");
    }
    // Circuit graphs come from the seed too.
    let graphs = |seed| {
        take(seed, 0)
            .into_iter()
            .filter_map(|j| match j.app {
                MixApp::Circuit(g) => Some(g),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_ne!(graphs(11), graphs(12));
}

#[test]
fn compare_prints_deltas_next_to_base_values() {
    let line = |w: &str, v: f64| {
        format!(
            "{HEADER}{w} seed=1\n# table\n{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {{\"spmd_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}\n"
        )
    };
    let base = collect(&(line("pennant", 0.2) + &line("pennant", 0.4))).unwrap();
    let new = collect(&line("pennant", 0.33)).unwrap();
    assert_eq!(base["pennant"]["spmd_s"].1, vec![0.2, 0.4]);
    let report = compare(&base, &new);
    assert!(report.contains("== pennant"), "{report}");
    let row = report.lines().find(|l| l.starts_with("spmd_s")).unwrap();
    let cols: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cols[1], "s");
    assert_eq!(cols[2].parse::<f64>().unwrap(), 0.3);
    assert_eq!(cols[3].parse::<f64>().unwrap(), 0.33);
    assert_eq!(cols[5], "+10.0");
}

#[test]
fn manifest_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |names: Vec<(String, &str)>| -> Vec<(String, String)> {
        names.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(list("end_to_end"), own(expected(false)));
    assert_eq!(list("per_layer"), own(expected(true)));
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(|a| a.as_arr())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    let own_workloads: Vec<&str> = Workload::MEASURED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own_workloads);
}
