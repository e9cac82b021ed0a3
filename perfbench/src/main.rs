//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Notes go to standard error; the last line of standard output is the
//! result. The exit code is 0 only if every correctness check held.

use std::process::ExitCode;

use ctgauss_core::KernelCache;
use perfbench::bench::{traced, untraced, write_spans, Workload};

const USAGE: &str =
    "usage: perfbench --workload <falcon512|bulk|rpc-tiny> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every run synthesises its kernels afresh, so `setup_s` pays
    // the same work on the first run as on every later one. Set before
    // any thread exists.
    std::env::set_var("CTGAUSS_CACHE_DIR", "0");
    assert!(
        !KernelCache::from_env().is_enabled(),
        "the kernel cache must be off"
    );

    let mut result = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    if args.trace {
        let spans = std::mem::take(&mut result.spans);
        write_spans(args.workload, args.seed, &spans, &mut result.log);
    }
    for line in &result.log {
        eprintln!("perfbench: {line}");
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}
