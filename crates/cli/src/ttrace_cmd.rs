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
    let c = compile(m, CompileOptions::cards()).map_err(|e| e.to_string())?;

    match a.opt_or("chaos", "none").as_str() {
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
    let _ = writeln!(s, "phase breakdown (cumulative self-cycles):");
    let _ = writeln!(s, "  {:<16} {:>14} {:>14}  delta", "phase", "a", "b");
    let mut worst_phase: Option<(String, i128, u64, u64)> = None;
    for (k, va) in ja.obj_of("phases") {
        let av = match va {
            Json::Num(n) => *n as u64,
            _ => 0,
        };
        let bv = jb.get("phases").map(|p| p.u64_of(k)).unwrap_or(0);
        if av == 0 && bv == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<16} {:>14} {:>14}  {}",
            k,
            av,
            bv,
            delta_str(av, bv)
        );
        let d = bv as i128 - av as i128;
        if d > 0 && worst_phase.as_ref().is_none_or(|w| d > w.1) {
            worst_phase = Some((k.clone(), d, av, bv));
        }
    }
    match &worst_phase {
        Some((k, d, av, bv)) => {
            let _ = writeln!(
                s,
                "regressed phase: {} (+{} cycles, {} -> {})",
                k, d, av, bv
            );
        }
        None => {
            let _ = writeln!(s, "regressed phase: none (no phase grew)");
        }
    }

    // ---- per-site comparison ----
    let site_of = |j: &Json, sid: u64| -> (u64, u64) {
        for e in j.arr_of("sites") {
            if e.u64_of("site") == sid {
                return (e.u64_of("ops"), e.u64_of("cycles"));
            }
        }
        (0, 0)
    };
    let mut sids: Vec<u64> = Vec::new();
    for j in [&ja, &jb] {
        for e in j.arr_of("sites") {
            let sid = e.u64_of("site");
            if !sids.contains(&sid) {
                sids.push(sid);
            }
        }
    }
    sids.sort_unstable();
    if !sids.is_empty() {
        let _ = writeln!(s, "per-site totals (cycles):");
        let _ = writeln!(
            s,
            "  {:<6} {:<24} {:>14} {:>14}  delta",
            "site", "location", "a", "b"
        );
        let mut worst_site: Option<(u64, i128)> = None;
        for sid in &sids {
            let (_, ca) = site_of(&ja, *sid);
            let (_, cb) = site_of(&jb, *sid);
            let loc = [&jb, &ja]
                .iter()
                .flat_map(|j| j.arr_of("sites"))
                .find(|e| e.u64_of("site") == *sid)
                .map(|e| {
                    let (f, bl) = (e.str_of("func"), e.str_of("block"));
                    if bl.is_empty() {
                        f.to_string()
                    } else {
                        format!("{f}/{bl}")
                    }
                })
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "  #{:<5} {:<24} {:>14} {:>14}  {}",
                sid,
                loc,
                ca,
                cb,
                delta_str(ca, cb)
            );
            let d = cb as i128 - ca as i128;
            if d > 0 && worst_site.as_ref().is_none_or(|w| d > w.1) {
                worst_site = Some((*sid, d));
            }
        }
        match worst_site {
            Some((sid, d)) => {
                let _ = writeln!(s, "regressed site: #{sid} (+{d} cycles)");
            }
            None => {
                let _ = writeln!(s, "regressed site: none (no site grew)");
            }
        }
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
    let shard_cycles = |j: &Json, sid: u64| -> u64 {
        j.arr_of("per_shard")
            .iter()
            .find(|e| e.u64_of("shard") == sid)
            .map(|e| e.u64_of("server_cycles"))
            .unwrap_or(0)
    };
    let mut sids: Vec<u64> = Vec::new();
    for j in [ja, jb] {
        for e in j.arr_of("per_shard") {
            let sid = e.u64_of("shard");
            if !sids.contains(&sid) {
                sids.push(sid);
            }
        }
    }
    sids.sort_unstable();
    let _ = writeln!(s, "per-shard server cycles:");
    let _ = writeln!(s, "  {:<6} {:>14} {:>14}  delta", "shard", "a", "b");
    let mut worst_shard: Option<(u64, i128)> = None;
    for sid in &sids {
        let (ca, cb) = (shard_cycles(ja, *sid), shard_cycles(jb, *sid));
        let _ = writeln!(
            s,
            "  #{:<5} {:>14} {:>14}  {}",
            sid,
            ca,
            cb,
            delta_str(ca, cb)
        );
        let d = cb as i128 - ca as i128;
        if d > 0 && worst_shard.as_ref().is_none_or(|w| d > w.1) {
            worst_shard = Some((*sid, d));
        }
    }
    match worst_shard {
        Some((sid, d)) => {
            let _ = writeln!(s, "regressed shard: #{sid} (+{d} server cycles)");
        }
        None => {
            let _ = writeln!(s, "regressed shard: none (no shard grew)");
        }
    }

    // ---- cluster-wide phase totals (summed over workers) ----
    let phase_totals = |j: &Json| -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for w in j.arr_of("per_worker") {
            for (k, v) in w.obj_of("phases") {
                let c = match v {
                    Json::Num(n) if *n >= 0.0 => *n as u64,
                    _ => 0,
                };
                match out.iter_mut().find(|(name, _)| name == k) {
                    Some((_, total)) => *total += c,
                    None => out.push((k.clone(), c)),
                }
            }
        }
        out
    };
    let (ta, tb) = (phase_totals(ja), phase_totals(jb));
    let total_of = |t: &[(String, u64)], k: &str| -> u64 {
        t.iter().find(|(n, _)| n == k).map(|(_, c)| *c).unwrap_or(0)
    };
    let mut names: Vec<String> = ta.iter().map(|(n, _)| n.clone()).collect();
    for (n, _) in &tb {
        if !names.contains(n) {
            names.push(n.clone());
        }
    }
    let _ = writeln!(s, "cluster phase totals (cycles, summed over workers):");
    let _ = writeln!(s, "  {:<16} {:>14} {:>14}  delta", "phase", "a", "b");
    let mut worst_phase: Option<(String, i128, u64, u64)> = None;
    for k in &names {
        let (av, bv) = (total_of(&ta, k), total_of(&tb, k));
        if av == 0 && bv == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<16} {:>14} {:>14}  {}",
            k,
            av,
            bv,
            delta_str(av, bv)
        );
        let d = bv as i128 - av as i128;
        if d > 0 && worst_phase.as_ref().is_none_or(|w| d > w.1) {
            worst_phase = Some((k.clone(), d, av, bv));
        }
    }
    match &worst_phase {
        Some((k, d, av, bv)) => {
            let _ = writeln!(
                s,
                "regressed phase: {} (+{} cycles, {} -> {})",
                k, d, av, bv
            );
        }
        None => {
            let _ = writeln!(s, "regressed phase: none (no phase grew)");
        }
    }
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
