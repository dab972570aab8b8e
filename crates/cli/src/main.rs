//! `statim` — a command-line statistical static timing analyzer
//! implementing the DATE'05 path-based SSTA methodology.
//!
//! ```text
//! statim analyze <circuit.bench> [--def <file.def>] [-C <conf>] [--top <n>]
//! statim analyze --benchmark c432 [-C <conf>] [--top <n>] [--inter-share <f>]
//! statim generate <name> [--out-bench <file>] [--out-def <file>]
//! statim sensitivity
//! statim list
//! ```

mod args;
mod commands;

use statim_core::{ErrorClass, StatimError};
use std::process::ExitCode;

/// Exit codes by error class, so scripts and CI can branch on failure
/// kind without parsing stderr. Usage errors share the Parse code.
fn exit_code(class: ErrorClass) -> ExitCode {
    ExitCode::from(match class {
        ErrorClass::Parse => 2,
        ErrorClass::Config => 3,
        ErrorClass::Resource => 4,
        ErrorClass::Numeric => 5,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => commands::run(cmd).unwrap_or_else(|e| fail(&e)),
        // A usage mistake gets the usage text; a value the option table
        // refuses is a configuration error like any other.
        Err(e) if e.class == ErrorClass::Parse => {
            eprintln!("error: {}", e.message);
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
        Err(e) => fail(&e),
    }
}

fn fail(e: &StatimError) -> ExitCode {
    eprintln!("error: {e}");
    exit_code(e.class)
}
