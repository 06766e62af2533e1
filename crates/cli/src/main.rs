//! Thin shim over the `treeaa-cli` library (see `lib.rs` for everything).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = treeaa_cli::parse_args(&args)
        .and_then(|cmd| treeaa_cli::execute(cmd, &mut std::io::stdout().lock()));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
