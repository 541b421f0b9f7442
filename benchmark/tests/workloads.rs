//! Every workload at test size: finishes quickly, reports exactly the
//! metrics `BENCHMARK.json` declares, passes its output checks, repeats its
//! counters exactly, and fails its checks when a reference is wrong.

use std::time::Instant;

use cards_benchmark::json::{parse, Json};
use cards_benchmark::output::summary_line;
use cards_benchmark::{run, Config, Report, Workload, DEFAULT_SECONDS, END_TO_END, PER_LAYER};

fn tiny(w: Workload, seed: u64, trace: bool) -> Config {
    Config {
        seconds: 0.2,
        trace,
        tiny: true,
        ..Config::new(w, seed)
    }
}

/// (name, unit) of each metric of one table of `BENCHMARK.json`, in file
/// order.
fn benchmark_json() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")
}

fn declared_units(table: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json at the repository root");
    parse(&text)
        .expect("BENCHMARK.json parses")
        .arr_of(table)
        .iter()
        .map(|m| (m.str_of("name").to_string(), m.str_of("unit").to_string()))
        .collect()
}

fn declared(table: &str) -> Vec<String> {
    declared_units(table).into_iter().map(|(n, _)| n).collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

fn timed_run(cfg: &Config) -> Report {
    let t0 = Instant::now();
    let r = run(cfg).expect("run");
    let secs = t0.elapsed().as_secs_f64();
    assert!(secs < 5.0, "{:?} took {secs:.2}s", cfg.workload);
    assert_eq!(r.failed, 0, "{:?}: {:?}", cfg.workload, r.problems);
    assert_eq!(r.error_rate(), 0.0);
    assert!(r.attempted > 0);
    r
}

fn check_workload(w: Workload) {
    let plain = timed_run(&tiny(w, 7, false));
    assert_eq!(names(&plain), declared("end_to_end"));
    for m in &plain.metrics {
        assert!(
            m.value > 0.0,
            "{:?}: end-to-end {} is {}",
            w,
            m.name,
            m.value
        );
    }
    // The one-line summary carries exactly the four contract keys.
    let Ok(Json::Obj(line)) = parse(&summary_line(&plain)) else {
        panic!("summary is not a JSON object");
    };
    let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let traced = timed_run(&tiny(w, 7, true));
    assert_eq!(names(&traced), declared("per_layer"));
    assert!(traced.spans.as_ref().is_some_and(|s| s.recorded() > 0));

    // Counters and modeled cycles: traced == untraced == another run of
    // the same seed.
    assert_eq!(
        plain.fingerprint, traced.fingerprint,
        "{w:?} traced vs untraced"
    );
    let again = run(&tiny(w, 7, false)).unwrap();
    assert_eq!(
        plain.fingerprint, again.fingerprint,
        "{w:?} same seed twice"
    );

    let planted = run(&Config {
        plant_wrong_reference: true,
        ..tiny(w, 7, false)
    })
    .unwrap();
    assert!(
        planted.error_rate() > 0.0,
        "{w:?}: a wrong reference must fail"
    );
    assert!(!planted.correct());
}

#[test]
fn compile_workload() {
    check_workload(Workload::Compile);
}

#[test]
fn local_workload() {
    check_workload(Workload::Local);
}

#[test]
fn remote_workload() {
    check_workload(Workload::Remote);
}

#[test]
fn serve_workload() {
    check_workload(Workload::Serve);
}

#[test]
fn tables_match_benchmark_json() {
    let pairs = |t: &[cards_benchmark::MetricSpec]| -> Vec<(String, String)> {
        t.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(pairs(&END_TO_END), declared_units("end_to_end"));
    assert_eq!(pairs(&PER_LAYER), declared_units("per_layer"));
    // The default budget is the one the bounds were measured at.
    let bench = parse(&std::fs::read_to_string(benchmark_json()).unwrap()).unwrap();
    assert_eq!(bench.u64_of("run_seconds") as f64, DEFAULT_SECONDS);
}
