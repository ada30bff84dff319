//! The `dpc` command-line tool.
//!
//! See `dpc help` or the crate documentation of `dpc-cli` for usage.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dpc_cli::run(args) {
        Ok(output) => {
            if !output.is_empty() {
                print(&output);
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", dpc_cli::usage());
            std::process::exit(2);
        }
    }
}

/// Writes `text` and a newline to stdout. A reader that closed the pipe
/// early (`dpc help | head -1`) has everything it asked for, so a broken
/// pipe ends the process quietly; any other write error exits 1.
fn print(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: writing output: {e}");
            std::process::exit(1);
        }
    }
}
