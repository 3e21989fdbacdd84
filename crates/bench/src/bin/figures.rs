//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures [--fig N[,M,...]] [--all] [--scale tiny|small|medium|full]
//!         [--queries N] [--seed S] [--out DIR]
//! ```
//!
//! With `--out`, each figure is also written as `figN.csv` into `DIR`.
//! Without arguments, `--all` at the `MRX_SCALE` (default `small`) scale.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use mrx_bench::figures::Suite;
use mrx_bench::{figure_ids, Scale};

struct Args {
    figs: Vec<u32>,
    scale: Scale,
    seed: Option<u64>,
    queries: Option<usize>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figs: Vec::new(),
        scale: Scale::from_env(),
        seed: None,
        queries: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--all" => args.figs = figure_ids(),
            "--fig" | "-f" => {
                for part in val("--fig")?.split(',') {
                    let id: u32 = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("invalid figure id `{part}`"))?;
                    if !(8..=26).contains(&id) {
                        return Err(format!(
                            "figure {id} is not an evaluation figure (1-7 are worked examples covered by unit tests; valid: 8-26)"
                        ));
                    }
                    args.figs.push(id);
                }
            }
            "--scale" | "-s" => {
                let v = val("--scale")?;
                args.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--seed" => args.seed = Some(val("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--queries" | "-q" => {
                args.queries = Some(val("--queries")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out" | "-o" => args.out = Some(val("--out")?),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig N[,M,..]] [--all] [--scale tiny|small|medium|full] \
                     [--queries N] [--seed S] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.figs.is_empty() {
        args.figs = figure_ids();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(q) = args.queries {
        // The Suite reads the workload size through Scale::num_queries.
        std::env::set_var("MRX_QUERIES", q.to_string());
    }
    let mut suite = Suite::new(args.scale);
    if let Some(seed) = args.seed {
        suite = suite.with_seed(seed);
    }
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "# scale: {:?} ({} queries per workload)",
        args.scale,
        args.scale.num_queries()
    );
    for &id in &args.figs {
        let start = std::time::Instant::now();
        let fig = suite.figure(id);
        print!("{}", fig.render());
        eprintln!("# figure {id} took {:.1}s", start.elapsed().as_secs_f64());
        if let Some(dir) = &args.out {
            for (ext, content) in [("csv", fig.to_csv()), ("svg", mrx_bench::render_svg(&fig))] {
                let path = format!("{dir}/fig{id}.{ext}");
                if let Err(e) = std::fs::write(&path, content) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}
