//! What a run prints and writes: one `name value unit` line per metric,
//! a result file for `compare`, and the one-line JSON summary that ends
//! standard output.

use crate::json::{num, quote};
use crate::{parallelism, Config, Metric, Report};

pub const RESULT_SCHEMA: &str = "cards-benchmark-result-v1";

/// `name value unit`, one line per metric, diagnostics after the table.
pub fn metric_lines(r: &Report) -> String {
    r.metrics
        .iter()
        .chain(&r.extra)
        .map(|m| format!("{} {} {}\n", m.name, num(m.value), m.unit))
        .collect()
}

fn metrics_object(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The last line of standard output.
pub fn summary_line(r: &Report) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_object(&r.metrics)
    )
}

/// The full result file.
pub fn result_json(cfg: &Config, r: &Report) -> String {
    let problems: Vec<String> = r.problems.iter().map(|p| quote(p)).collect();
    let fingerprint: Vec<String> = r
        .fingerprint
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    format!(
        "{{\"schema\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"error_rate\":{},\"problems\":[{}],\"metrics\":{},\"extra\":{},\"fingerprint\":{{{}}}}}\n",
        quote(RESULT_SCHEMA),
        quote(r.workload.name()),
        r.seed,
        num(cfg.seconds),
        r.trace,
        parallelism(),
        r.correct(),
        r.attempted,
        r.failed,
        num(r.error_rate()),
        problems.join(","),
        metrics_object(&r.metrics),
        metrics_object(&r.extra),
        fingerprint.join(",")
    )
}
