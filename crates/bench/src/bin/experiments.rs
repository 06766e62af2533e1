//! Prints the output of every experiment, E1 … E13 in order: the text
//! that `EXPERIMENTS.md` holds in its generated regions. Takes no
//! arguments.
//!
//! ```text
//! cargo run --release -p bench --bin experiments
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args_os().len() > 1 {
        eprintln!("usage: experiments\n(takes no arguments; prints E1 … E13)");
        return ExitCode::from(2);
    }
    for (_, run) in bench::EXPERIMENTS {
        print!("{}", run());
    }
    ExitCode::SUCCESS
}
