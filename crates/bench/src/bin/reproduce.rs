//! Regenerate every experiment table of the reproduction (E1–E8).
//!
//! ```text
//! cargo run --release --bin reproduce            # paper scale
//! cargo run --release --bin reproduce -- --test  # fast CI scale
//! ```
//!
//! Output is the full set of report tables; the README's "Substitutions
//! and experiments" section says which paper figure each one covers.

use std::process::ExitCode;
use std::time::Instant;
use tu_eval::{run_all, Scale};

const USAGE: &str = "usage: reproduce [--test]\n  \
    (no arguments)  paper scale\n  \
    --test          fast test scale\n  \
    -h, --help      print this help";

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Command {
    Run(Scale),
    Help,
    Invalid,
}

/// Parse the arguments after the program name. Anything but no
/// arguments, `--test`, or a help flag is invalid, so a typo cannot
/// silently start the slow paper-scale run.
fn parse_args(args: &[String]) -> Command {
    match args {
        [] => Command::Run(Scale::Paper),
        [a] if a == "--test" => Command::Run(Scale::Test),
        [a] if a == "-h" || a == "--help" => Command::Help,
        _ => Command::Invalid,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match parse_args(&args) {
        Command::Run(scale) => scale,
        Command::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Command::Invalid => {
            eprintln!("reproduce: unrecognized arguments {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    println!("# SigmaTyper reproduction — experiment tables ({scale:?} scale)\n");
    println!("Paper: Making Table Understanding Work in Practice (CIDR'22).");
    println!(
        "Every table below operationalizes one figure/claim; see README.md \
         (\"Substitutions and experiments\") and PAPER.md.\n"
    );
    for report in run_all(scale) {
        println!("{}", report.render());
    }
    println!(
        "total wall time: {:.1}s ({scale:?} scale)",
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Command {
        parse_args(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn recognized_arguments_pick_scale_or_help() {
        assert_eq!(parse(&[]), Command::Run(Scale::Paper));
        assert_eq!(parse(&["--test"]), Command::Run(Scale::Test));
        assert_eq!(parse(&["-h"]), Command::Help);
        assert_eq!(parse(&["--help"]), Command::Help);
    }

    #[test]
    fn typos_and_extra_arguments_are_rejected() {
        assert_eq!(parse(&["--tset"]), Command::Invalid);
        assert_eq!(parse(&["--test", "extra"]), Command::Invalid);
    }
}
