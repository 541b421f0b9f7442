//! Command line of the host-time benchmark.
//!
//! ```text
//! cards-benchmark --workload W --seed N [--seconds S] [--trace [0|1]]
//! cards-benchmark compare --parent A.json... --change B.json...
//! ```
//!
//! `--seconds` defaults to `BENCHMARK.json`'s `run_seconds`; `compare`
//! reads its bounds from that file at the repository root.
//!
//! A run prints every metric as `name value unit`, writes
//! `benchmark/results/<workload>-s<seed>-t<0|1>.json` (and, when traced,
//! `<workload>-s<seed>.spans.json` in Chrome trace-event format), and ends
//! standard output with a one-line JSON summary. It exits non-zero when
//! any output check fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cards_benchmark::compare::{compare, load_bounds, load_sample};
use cards_benchmark::output::{metric_lines, result_json, summary_line};
use cards_benchmark::{run, Config, Workload};

const USAGE: &str = "usage: cards-benchmark --workload compile|local|remote|serve --seed N \
                     [--seconds S] [--trace [0|1]]\n       \
                     cards-benchmark compare --parent FILE... --change FILE...";

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_run(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut cfg = Config::new(Workload::Compile, 0);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => {
                let w = value(a)?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w}"))?);
            }
            "--seed" => {
                seed = Some(
                    value(a)?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cfg.seconds = s;
            }
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    cfg.seed = seed.ok_or("--seed is required")?;
    Ok(cfg)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let cfg = parse_run(args)?;
    let report = run(&cfg)?;
    print!("{}", metric_lines(&report));
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    let dir = package_dir().join("results");
    let stem = format!("{}-s{}", cfg.workload.name(), cfg.seed);
    write(
        &dir.join(format!("{stem}-t{}.json", u8::from(cfg.trace))),
        &result_json(&cfg, &report),
    )?;
    if let Some(spans) = &report.spans {
        write(
            &dir.join(format!("{stem}.spans.json")),
            &spans.chrome_json(),
        )?;
    }
    println!("{}", summary_line(&report));
    Ok(report.correct())
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => side
                .as_deref_mut()
                .ok_or(format!("{file}: name --parent or --change first"))?
                .push(file.to_string()),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs --parent and --change result files".into());
    }
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = load_bounds(&read(&package_dir().join("../BENCHMARK.json"))?)?;
    let load = |files: &[String]| {
        files
            .iter()
            .map(|f| load_sample(&read(Path::new(f))?).map_err(|e| format!("{f}: {e}")))
            .collect::<Result<Vec<_>, String>>()
    };
    let cmp = compare(&bounds, &load(&parent)?, &load(&change)?);
    print!("{}", cmp.render());
    Ok(!cmp.failed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::from(if args.is_empty() { 2 } else { 0 });
        }
        _ => run_cmd(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
