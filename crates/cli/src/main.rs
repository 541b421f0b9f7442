//! `cards` — command-line driver for the CaRDS far-memory toolchain.
//!
//! ```text
//! cards compile <in.ir> [--out transformed.ir] [--baseline trackfm]
//! cards dsa     <in.ir>                         # print disjoint structures
//! cards run     <in.ir> [--policy P] [--k N] [--pinned BYTES]
//!               [--cache BYTES] [--baseline trackfm] [--fn main] [--verbose]
//! cards demo    <workload>                      # emit a bundled workload
//! ```
//!
//! Programs use the textual IR format (see `cards-ir`'s printer/parser);
//! `cards demo analytics > analytics.ir` produces ready-made inputs.

mod args;
mod commands;
mod fleet_cmd;
mod ttrace_cmd;

use args::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match Args::parse(argv) {
        Ok(a) => match commands::dispatch(&a) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
