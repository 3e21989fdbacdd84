//! `mrx` — command-line front end for the multiresolution XML index suite.
//!
//! ```sh
//! mrx gen xmark --nodes 20000 --out auctions.xml
//! mrx stats auctions.xml
//! mrx index auctions.xml --kind mstar --fups hot-queries.txt --save auctions.mrx
//! mrx query auctions.mrx "//open_auction/bidder/personref"
//! mrx workload auctions.xml --max-len 4 --count 50
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprint!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = argv.collect();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match commands::run(&cmd, rest, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
