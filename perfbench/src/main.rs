//! `freeride-perfbench`: runs one benchmark workload and prints its
//! metrics, the last line being the JSON result. `run.py` beside this
//! crate builds it and adds the peak-memory metric; see `README.md`.

#![forbid(unsafe_code)]

use freeride_perfbench::measure::{self, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in measure::main(&args) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}
