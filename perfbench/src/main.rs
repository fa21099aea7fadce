//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--perturb]
//! perfbench compare <base.txt> <new.txt>
//! ```
//!
//! A run prints a `#`-prefixed header and table, then one JSON result
//! line, and exits non-zero if any result failed its check. `compare`
//! reads captured output of runs (any number per file) and prints each
//! metric's base and new median per workload.

use perfbench::report::{collect, compare, HEADER};
use perfbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--scale full|tiny] [--perturb]\n       perfbench compare <base> <new>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::StencilCoarse,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        perturb: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--perturb" {
            opts.perturb = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => opts.scale = Scale::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            return usage("compare takes two files");
        };
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| collect(&t).map_err(|e| format!("{p}: {e}")))
        };
        return match (read(base), read(new)) {
            (Ok(b), Ok(n)) => {
                print!("{}", compare(&b, &n));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => usage(&e),
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    println!(
        "{HEADER}{} seed={} seconds={} trace={} scale={:?} cores={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let res = run(&opts);
    print!("{}", res.table());
    println!("{}", res.to_json());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
