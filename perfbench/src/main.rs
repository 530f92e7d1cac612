//! `geoqp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON object as the last line of standard output and exits
//! non-zero when an answer, an audit or an exact counter is wrong.

use geoqp_perfbench::{run, Opts, Size};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: geoqp-perfbench --workload <service-mix|adhoc-plan> --seed <n> \
         --seconds <s> --trace <0|1> [--out <dir>]"
    );
    std::process::exit(2)
}

fn main() {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out: PathBuf::from("perfbench/out"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => opts.trace = value == "1",
            "--out" => opts.out = PathBuf::from(value),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if opts.workload.is_empty() {
        usage("--workload is required");
    }
    let report = run(&opts).unwrap_or_else(|e| usage(&e));
    for p in report.problems.iter().take(20) {
        eprintln!("problem: {p}");
    }
    println!("{}", report.json(opts.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
