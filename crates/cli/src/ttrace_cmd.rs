//! `cards ttrace` — causal request tracing, flight-recorder dumps, and
//! `cards ttrace diff` regression localization.
//!
//! `cards ttrace <in.ir>` compiles the input through the CaRDS pipeline,
//! runs it on a traced VM (optionally under a chaos schedule or i.i.d.
//! fault injection), and renders the span-tree report: per-phase cycle
//! breakdown, per-site totals, the slowest retained operations with
//! critical paths, and the anomaly-trigger log. Every flight-recorder
//! snapshot captured by an anomaly trigger is written to
//! `FLIGHT_<n>.json` under `--flight-dir`.
//!
//! `cards ttrace diff <a.json> <b.json>` compares two `cards-ttrace-v1`
//! exports and localizes which phase and which guard site regressed.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;

use cards_net::json::{self, Json};
use cards_net::{ChaosSchedule, ChaosTransport, FaultyTransport, SimTransport, Transport};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RuntimeConfig, TraceConfig};
use cards_vm::Vm;

use crate::args::Args;
use crate::commands::{load_module, parse_fault_rate, parse_policy};

/// Entry point for the `ttrace` subcommand (run or diff).
pub fn cmd_ttrace(a: &Args) -> Result<(), String> {
    if a.positional.first().map(String::as_str) == Some("diff") {
        return cmd_diff(a);
    }
    let m = load_module(a)?;
    if m.func_by_name("main").is_none() {
        return Err("program has no @main".into());
    }
    let k: u32 = a.opt_num("k", 100u32)?;
    let pinned: u64 = a.opt_num("pinned", 64u64 << 20)?;
    let cache: u64 = a.opt_num("cache", 16u64 << 20)?;
    let policy = parse_policy(&a.opt_or("policy", "max-use"))?;
    let trace = TraceConfig {
        ring_capacity: a.opt_num("ring", 64usize)?,
        retry_storm_threshold: a.opt_num("storm-threshold", 8u32)?,
        ..TraceConfig::default()
    };
    let cfg = RuntimeConfig::new(pinned, cache)
        .with_trace(trace)
        .with_max_retries(a.opt_num("retries", 32u32)?);
    let fault = parse_fault_rate(a)?;
    let seed: u64 = a.opt_num("seed", 42u64)?;
    let chaos = a.opt_or("chaos", "none");
    if chaos != "none" && a.options.contains_key("fault") {
        return Err(format!(
            "--fault cannot be combined with --chaos {chaos}: the schedule sets the faults"
        ));
    }
    let c = compile(m, CompileOptions::cards()).map_err(|e| e.to_string())?;

    match chaos.as_str() {
        "none" => {
            let transport = FaultyTransport::new(SimTransport::default(), fault, seed);
            let mut vm = Vm::new(c.module, cfg, transport, policy, k);
            vm.run("main", &[]).map_err(|e| e.to_string())?;
            emit(a, &vm)
        }
        sched => {
            let schedule = match sched {
                "storm" => ChaosSchedule::storm(seed),
                "crash-loop" => ChaosSchedule::crash_loop(seed),
                other => return Err(format!("unknown chaos schedule {other:?}")),
            };
            let mut vm = Vm::new(c.module, cfg, ChaosTransport::new(schedule), policy, k);
            vm.run("main", &[]).map_err(|e| e.to_string())?;
            emit(a, &vm)
        }
    }
}

/// Render the report, write the JSON export and flight-recorder dumps.
fn emit<T: Transport>(a: &Args, vm: &Vm<T>) -> Result<(), String> {
    let top: usize = a.opt_num("top", 5usize)?;
    if let Some(path) = a.options.get("json") {
        let json = cards_vm::ttrace_json(vm);
        fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace export written to {path}");
    }
    let flight_dir = a.opt_or("flight-dir", ".");
    let snapshots = vm.runtime().tracer().snapshots().len();
    for i in 0..snapshots {
        let json = cards_vm::flight_json(vm, i).expect("index in range");
        let path = format!("{flight_dir}/FLIGHT_{i}.json");
        fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("flight snapshot written to {path}");
    }
    let report = cards_vm::render_ttrace_report(vm, top);
    match a.options.get("out") {
        Some(path) => fs::write(path, report).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{report}"),
    }
    cards_vm::check_traces(vm)
}

/// Load and schema-check one export; accepts the single-VM trace schema
/// (`cards-ttrace-v1`) and the fleet export (`cards-fleet-v2`).
fn load_export(path: &str) -> Result<Json, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = json::parse(&src).map_err(|e| format!("{path}: {e}"))?;
    match j.str_of("schema") {
        "cards-ttrace-v1" | "cards-fleet-v2" => Ok(j),
        other => Err(format!(
            "{path}: expected cards-ttrace-v1 or cards-fleet-v2, got {other:?}"
        )),
    }
}

/// Signed delta with percentage, e.g. `+7000 (+7.6%)`.
fn delta_str(a: u64, b: u64) -> String {
    let d = b as i128 - a as i128;
    if a == 0 {
        return format!("{d:+}");
    }
    format!("{:+} ({:+.1}%)", d, 100.0 * d as f64 / a as f64)
}

/// A numeric JSON value as cycles; anything else counts as 0.
fn cycles_of(v: &Json) -> u64 {
    match v {
        Json::Num(n) => *n as u64,
        _ => 0,
    }
}

/// One compared quantity of a `ttrace diff` table.
struct Row {
    /// Its name in the verdict line (`wire`, `#3`).
    name: String,
    /// Its label cells in the table.
    label: String,
    a: u64,
    b: u64,
}

/// The one comparison routine behind every `ttrace diff` table: `title`,
/// a header whose label cells are `head`, one line per row, and a verdict
/// naming the `what` that grew most in `unit`s (by absolute growth, the
/// first of equals). A phase table skips rows that are zero in both runs
/// and quotes both values in its verdict.
fn compare(s: &mut String, title: &str, head: &str, what: &str, unit: &str, rows: &[Row]) {
    let phases = what == "phase";
    let _ = writeln!(s, "{title}");
    let _ = writeln!(s, "  {head} {:>14} {:>14}  delta", "a", "b");
    let mut worst: Option<(&Row, i128)> = None;
    for r in rows {
        if phases && r.a == 0 && r.b == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {} {:>14} {:>14}  {}",
            r.label,
            r.a,
            r.b,
            delta_str(r.a, r.b)
        );
        let d = r.b as i128 - r.a as i128;
        if d > 0 && worst.is_none_or(|w| d > w.1) {
            worst = Some((r, d));
        }
    }
    let _ = match worst {
        Some((r, d)) if phases => writeln!(
            s,
            "regressed {what}: {} (+{d} {unit}, {} -> {})",
            r.name, r.a, r.b
        ),
        Some((r, d)) => writeln!(s, "regressed {what}: {} (+{d} {unit})", r.name),
        None => writeln!(s, "regressed {what}: none (no {what} grew)"),
    };
}

/// [`compare`] over phases, given as `(phase, [a, b])` cycle pairs.
fn compare_phases(
    s: &mut String,
    title: &str,
    phases: impl IntoIterator<Item = (String, [u64; 2])>,
) {
    let rows: Vec<Row> = phases
        .into_iter()
        .map(|(k, [a, b])| Row {
            label: format!("{k:<16}"),
            name: k,
            a,
            b,
        })
        .collect();
    compare(
        s,
        title,
        &format!("{:<16}", "phase"),
        "phase",
        "cycles",
        &rows,
    );
}

/// Ids of `key` over the entries of both runs' `arr` arrays, in order.
fn ids_of(ja: &Json, jb: &Json, arr: &str, key: &str) -> BTreeSet<u64> {
    let entries = ja.arr_of(arr).iter().chain(jb.arr_of(arr));
    entries.map(|e| e.u64_of(key)).collect()
}

/// The first entry of `j`'s `arr` array whose `key` is `id`.
fn entry<'j>(j: &'j Json, arr: &str, key: &str, id: u64) -> Option<&'j Json> {
    j.arr_of(arr).iter().find(|e| e.u64_of(key) == id)
}

/// `cards ttrace diff <a.json> <b.json>`: field-by-field comparison of two
/// trace exports, localizing the phase and guard site that regressed most
/// (by absolute cycle growth).
fn cmd_diff(a: &Args) -> Result<(), String> {
    let (pa, pb) = match (a.positional.get(1), a.positional.get(2)) {
        (Some(x), Some(y)) => (x.clone(), y.clone()),
        _ => return Err("usage: cards ttrace diff <a.json> <b.json>".into()),
    };
    let ja = load_export(&pa)?;
    let jb = load_export(&pb)?;
    if ja.str_of("schema") != jb.str_of("schema") {
        return Err(format!(
            "schema mismatch: {pa} is {:?}, {pb} is {:?}",
            ja.str_of("schema"),
            jb.str_of("schema")
        ));
    }
    if ja.str_of("schema") == "cards-fleet-v2" {
        return diff_fleet(a, &pa, &pb, &ja, &jb);
    }
    let mut s = String::new();
    let _ = writeln!(s, "ttrace diff: {pa} -> {pb}");
    let _ = writeln!(
        s,
        "module: {} -> {}",
        ja.str_of("module"),
        jb.str_of("module")
    );
    let _ = writeln!(
        s,
        "cycles: {} -> {} {}",
        ja.u64_of("cycles"),
        jb.u64_of("cycles"),
        delta_str(ja.u64_of("cycles"), jb.u64_of("cycles"))
    );
    let (oa, ob) = (ja.get("ops"), jb.get("ops"));
    if let (Some(oa), Some(ob)) = (oa, ob) {
        let _ = writeln!(
            s,
            "remote ops: {} -> {} {}",
            oa.u64_of("remote"),
            ob.u64_of("remote"),
            delta_str(oa.u64_of("remote"), ob.u64_of("remote"))
        );
    }
    if let (Some(ba), Some(bb)) = (ja.get("baseline"), jb.get("baseline")) {
        let _ = writeln!(
            s,
            "guard latency: p50 {} -> {} {}, p99 {} -> {} {}",
            ba.u64_of("p50"),
            bb.u64_of("p50"),
            delta_str(ba.u64_of("p50"), bb.u64_of("p50")),
            ba.u64_of("p99"),
            bb.u64_of("p99"),
            delta_str(ba.u64_of("p99"), bb.u64_of("p99"))
        );
    }

    // ---- per-phase comparison (exports list every kind, same order) ----
    let bp = jb.get("phases");
    let phases = ja.obj_of("phases").iter().map(|(k, va)| {
        let bv = bp.map(|p| p.u64_of(k)).unwrap_or(0);
        (k.clone(), [cycles_of(va), bv])
    });
    compare_phases(&mut s, "phase breakdown (cumulative self-cycles):", phases);

    // ---- per-site comparison ----
    let sites: Vec<Row> = ids_of(&ja, &jb, "sites", "site")
        .into_iter()
        .map(|sid| {
            let site = |j| entry(j, "sites", "site", sid);
            let loc = site(&jb)
                .or_else(|| site(&ja))
                .map(|e| {
                    let (f, bl) = (e.str_of("func"), e.str_of("block"));
                    if bl.is_empty() {
                        f.to_string()
                    } else {
                        format!("{f}/{bl}")
                    }
                })
                .unwrap_or_default();
            let cycles = |j| site(j).map_or(0, |e| e.u64_of("cycles"));
            Row {
                name: format!("#{sid}"),
                label: format!("#{sid:<5} {loc:<24}"),
                a: cycles(&ja),
                b: cycles(&jb),
            }
        })
        .collect();
    if !sites.is_empty() {
        let head = format!("{:<6} {:<24}", "site", "location");
        compare(
            &mut s,
            "per-site totals (cycles):",
            &head,
            "site",
            "cycles",
            &sites,
        );
    }
    match a.options.get("out") {
        Some(path) => fs::write(path, s).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{s}"),
    }
    Ok(())
}

/// `cards ttrace diff` over two `cards-fleet-v2` exports: compare the SLO
/// section, per-shard server cycles, and cluster-wide phase totals, and
/// name the shard and phase that regressed most (by absolute cycle
/// growth).
fn diff_fleet(a: &Args, pa: &str, pb: &str, ja: &Json, jb: &Json) -> Result<(), String> {
    let mut s = String::new();
    let _ = writeln!(s, "fleet diff: {pa} -> {pb}");
    let _ = writeln!(
        s,
        "module: {} -> {} ({} workers, {} shards x {} replicas)",
        ja.str_of("module"),
        jb.str_of("module"),
        jb.u64_of("workers"),
        jb.u64_of("shards"),
        jb.u64_of("replicas")
    );
    let _ = writeln!(
        s,
        "requests: {}/{} -> {}/{}",
        ja.u64_of("requests"),
        ja.u64_of("issued"),
        jb.u64_of("requests"),
        jb.u64_of("issued")
    );

    // ---- SLO comparison, per request class ----
    if let (Some(sa), Some(sb)) = (ja.get("slo"), jb.get("slo")) {
        let avail = |j: &Json| match j.get("availability") {
            Some(Json::Num(n)) => *n,
            _ => 1.0,
        };
        let _ = writeln!(s, "availability: {:.6} -> {:.6}", avail(sa), avail(sb));
        fn class_of<'j>(j: &'j Json, name: &str) -> Option<&'j Json> {
            j.arr_of("classes")
                .iter()
                .find(|c| c.str_of("class") == name)
        }
        for ca in sa.arr_of("classes") {
            let name = ca.str_of("class");
            let Some(cb) = class_of(sb, name) else {
                continue;
            };
            let _ = writeln!(
                s,
                "slo {:<7} p50 {} -> {} {}, p99 {} -> {} {}, p999 {} -> {} {}",
                name,
                ca.u64_of("p50"),
                cb.u64_of("p50"),
                delta_str(ca.u64_of("p50"), cb.u64_of("p50")),
                ca.u64_of("p99"),
                cb.u64_of("p99"),
                delta_str(ca.u64_of("p99"), cb.u64_of("p99")),
                ca.u64_of("p999"),
                cb.u64_of("p999"),
                delta_str(ca.u64_of("p999"), cb.u64_of("p999"))
            );
        }
    }

    // ---- per-shard server cycles ----
    let shards: Vec<Row> = ids_of(ja, jb, "per_shard", "shard")
        .into_iter()
        .map(|sid| {
            let cycles =
                |j| entry(j, "per_shard", "shard", sid).map_or(0, |e| e.u64_of("server_cycles"));
            Row {
                name: format!("#{sid}"),
                label: format!("#{sid:<5}"),
                a: cycles(ja),
                b: cycles(jb),
            }
        })
        .collect();
    let head = format!("{:<6}", "shard");
    compare(
        &mut s,
        "per-shard server cycles:",
        &head,
        "shard",
        "server cycles",
        &shards,
    );

    // ---- cluster-wide phase totals (summed over workers), in order of
    // first appearance in run a, then in run b ----
    let mut totals: Vec<(String, [u64; 2])> = Vec::new();
    for (run, j) in [ja, jb].into_iter().enumerate() {
        for (k, v) in j
            .arr_of("per_worker")
            .iter()
            .flat_map(|w| w.obj_of("phases"))
        {
            let i = totals.iter().position(|(n, _)| n == k).unwrap_or_else(|| {
                totals.push((k.clone(), [0, 0]));
                totals.len() - 1
            });
            totals[i].1[run] += cycles_of(v);
        }
    }
    compare_phases(
        &mut s,
        "cluster phase totals (cycles, summed over workers):",
        totals,
    );
    match a.options.get("out") {
        Some(path) => fs::write(path, s).map_err(|e| format!("{path}: {e}"))?,
        None => println!("{s}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn kv_ir(dir: &std::path::Path) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("kv.ir");
        let (m, _) = cards_workloads::kvstore::build(cards_workloads::kvstore::KvParams {
            keys: 128,
            ops: 600,
        });
        std::fs::write(&path, cards_ir::print_module(&m)).unwrap();
        path.to_string_lossy().to_string()
    }

    #[test]
    fn ttrace_chaos_run_dumps_flight_and_diff_localizes() {
        let dir = std::env::temp_dir().join("cards_cli_ttrace_test");
        let p = kv_ir(&dir);
        let d = dir.to_string_lossy().to_string();

        // Healthy run: JSON export A.
        let ja = dir.join("a.json").to_string_lossy().to_string();
        cmd_ttrace(&args(&format!(
            "ttrace {p} --json {ja} --out {d}/a.txt --cache 8192 --pinned 0 \
             --policy all-remotable --flight-dir {d}"
        )))
        .expect("healthy ttrace");
        let report = std::fs::read_to_string(dir.join("a.txt")).unwrap();
        assert!(report.contains("phase breakdown"));
        assert!(report.contains("critical path:"));

        // Storm run: JSON export B plus flight-recorder dumps.
        let jb = dir.join("b.json").to_string_lossy().to_string();
        cmd_ttrace(&args(&format!(
            "ttrace {p} --json {jb} --out {d}/b.txt --cache 8192 --pinned 0 \
             --policy all-remotable --chaos storm --seed 7 \
             --storm-threshold 4 --flight-dir {d}"
        )))
        .expect("storm ttrace");
        let flight = dir.join("FLIGHT_0.json");
        assert!(flight.exists(), "storm run must dump a flight snapshot");
        let fj = json::parse(&std::fs::read_to_string(&flight).unwrap()).unwrap();
        assert_eq!(fj.str_of("schema"), "cards-flight-v1");
        assert!(!fj.arr_of("trees").is_empty());

        // Diff localizes the regressed phase (wire/backoff under chaos).
        let out = dir.join("diff.txt").to_string_lossy().to_string();
        cmd_ttrace(&args(&format!("ttrace diff {ja} {jb} --out {out}"))).expect("diff");
        let diff = std::fs::read_to_string(dir.join("diff.txt")).unwrap();
        assert!(diff.contains("regressed phase:"));
        assert!(diff.contains("regressed site:"));
        assert!(
            !diff.contains("regressed phase: none"),
            "storm must regress a phase"
        );
    }

    #[test]
    fn fault_rate_with_a_chaos_schedule_is_an_error() {
        let dir = std::env::temp_dir().join("cards_cli_ttrace_chaos_fault");
        let p = kv_ir(&dir);
        let d = dir.to_string_lossy().to_string();
        for sched in ["storm", "crash-loop"] {
            let e = cmd_ttrace(&args(&format!(
                "ttrace {p} --chaos {sched} --seed 7 --fault 0.9 --out /dev/null --flight-dir {d}"
            )))
            .unwrap_err();
            assert!(e.contains("--fault") && e.contains(sched), "{sched}: {e}");
        }
    }

    #[test]
    fn fleet_diff_names_regressed_shard_and_phase() {
        let dir = std::env::temp_dir().join("cards_cli_fleet_diff");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-built minimal fleet exports: run B's shard 1 and wire phase
        // grew, everything else is flat.
        let base = |shard1: u64, wire: u64| {
            format!(
                "{{\"schema\":\"cards-fleet-v2\",\"module\":\"serving\",\"workers\":1,\
                 \"shards\":2,\"replicas\":2,\"requests\":10,\"issued\":10,\
                 \"slo\":{{\"availability\":1.000000,\"classes\":[{{\"class\":\"all\",\
                 \"count\":10,\"p50\":100,\"p99\":200,\"p999\":200}}]}},\
                 \"per_worker\":[{{\"worker\":0,\"phases\":{{\"guard\":100,\"wire\":{wire}}}}}],\
                 \"per_shard\":[{{\"shard\":0,\"ops\":5,\"server_cycles\":1000}},\
                 {{\"shard\":1,\"ops\":5,\"server_cycles\":{shard1}}}]}}"
            )
        };
        let fa = dir.join("fa.json");
        let fb = dir.join("fb.json");
        std::fs::write(&fa, base(1000, 400)).unwrap();
        std::fs::write(&fb, base(5000, 900)).unwrap();
        let (pa, pb) = (
            fa.to_string_lossy().to_string(),
            fb.to_string_lossy().to_string(),
        );
        let out = dir.join("diff.txt").to_string_lossy().to_string();
        cmd_ttrace(&args(&format!("ttrace diff {pa} {pb} --out {out}"))).expect("fleet diff");
        let diff = std::fs::read_to_string(dir.join("diff.txt")).unwrap();
        assert!(diff.contains("fleet diff:"));
        assert!(diff.contains("regressed shard: #1"), "got: {diff}");
        assert!(diff.contains("regressed phase: wire"), "got: {diff}");
        assert!(diff.contains("slo all"));

        // Mixed schemas are rejected rather than mis-diffed.
        let t = dir.join("t.json");
        std::fs::write(&t, r#"{"schema":"cards-ttrace-v1"}"#).unwrap();
        let pt = t.to_string_lossy().to_string();
        assert!(cmd_ttrace(&args(&format!("ttrace diff {pa} {pt}"))).is_err());
    }

    #[test]
    fn export_of_a_module_with_quotes_in_its_name_reads_back() {
        let dir = std::env::temp_dir().join("cards_cli_ttrace_quoted");
        let p = kv_ir(&dir);
        let src = std::fs::read_to_string(&p).unwrap();
        let (first, rest) = src.split_once('\n').unwrap();
        assert_eq!(first, "module kvstore");
        std::fs::write(&p, format!("module kv\"\\x\n{rest}")).unwrap();
        let t = dir.join("t.json").to_string_lossy().to_string();
        let d = dir.to_string_lossy().to_string();
        cmd_ttrace(&args(&format!(
            "ttrace {p} --json {t} --out {d}/t.txt --flight-dir {d}"
        )))
        .expect("ttrace");
        let j = load_export(&t).expect("export reads back");
        assert_eq!(j.str_of("module"), "kv\"\\x");
        let out = dir.join("diff.txt").to_string_lossy().to_string();
        cmd_ttrace(&args(&format!("ttrace diff {t} {t} --out {out}"))).expect("self diff");
    }

    #[test]
    fn diff_rejects_wrong_schema() {
        let dir = std::env::temp_dir().join("cards_cli_ttrace_schema");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"schema":"other"}"#).unwrap();
        let b = bad.to_string_lossy().to_string();
        assert!(cmd_ttrace(&args(&format!("ttrace diff {b} {b}"))).is_err());
        assert!(cmd_ttrace(&args("ttrace diff onlyone")).is_err());
    }
}
