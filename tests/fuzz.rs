//! Seeded input fuzzing, and every export read back through the shared
//! JSON reader.
//!
//! Each reader of outside input — the JSON reader, the IR parser with the
//! verifier and compile pipeline behind it, and envelope decoding — is fed
//! SplitMix64 garbage and mutated valid inputs under fixed seeds. Rejecting
//! an input is fine; a panic anywhere fails the test. Mutated modules are
//! compiled but never run: the VM has no step limit, and a mutation can
//! make a loop that never exits.

use cards_bench::core::bench_core_json;
use cards_bench::profile::bench_profile_json;
use cards_ir::{parse_module, print_module, verify_module, Module};
use cards_net::json::{self, Fixed, Json};
use cards_net::{
    envelope, ChaosSchedule, ChaosTransport, NetworkModel, ObjKey, ShardedConfig, SplitMix64,
    TraceContext,
};
use cards_passes::{compile, CompileOptions};
use cards_runtime::telemetry::{export_chrome_trace, export_json};
use cards_runtime::{RemotingPolicy, RuntimeConfig, TraceConfig};
use cards_vm::{fleet_json, flight_json, profile_json, run_serving, ttrace_json, ServeSpec, Vm};
use cards_workloads::{kvstore, listing1, micro, serving};

/// A uniformly drawn element of `xs`.
fn pick<'a, T>(rng: &mut SplitMix64, xs: &'a [T]) -> &'a T {
    &xs[rng.next_below(xs.len() as u64) as usize]
}

/// Apply one random edit to `s`: delete, duplicate or overwrite a short
/// run, or insert a character from `alphabet`.
fn mutate_chars(rng: &mut SplitMix64, s: &mut Vec<char>, alphabet: &[char]) {
    let at = rng.next_below(s.len() as u64 + 1) as usize;
    let run = (1 + rng.next_below(8) as usize).min(s.len() - at);
    match rng.next_below(4) {
        0 => {
            s.drain(at..at + run);
        }
        1 => {
            let dup: Vec<char> = s[at..at + run].to_vec();
            s.splice(at..at, dup);
        }
        2 if run > 0 => s[at] = *pick(rng, alphabet),
        _ => s.insert(at, *pick(rng, alphabet)),
    }
}

const JSON_ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'n', 't', 'r', 'f', 'e', 'E', '.', '-', '+', '0',
    '1', '9', 'a', 'd', '8', ' ', '\n', '\u{1}', 'é', '😀',
];

#[test]
fn json_reader_survives_garbage_and_mutated_documents() {
    let doc = json::object(|o| {
        o.field("schema", "cards-fuzz-v1")
            .field("name", "q\"b\\s\n\r\t\u{1}é😀")
            .field("none", None::<u64>)
            .field("neg", -42i64)
            .field("ratio", Fixed(0.125, 4))
            .obj("phases", |o| {
                o.field("guard", 10u64).field("wire", 40u64);
            })
            .arr("sites", |a| {
                a.obj(|o| {
                    o.field("site", 3u32).field("hot", true);
                })
                .arr(|a| {
                    a.item(1u64).item("x");
                });
            });
    });
    let base: Vec<char> = doc.chars().collect();
    assert!(json::parse(&doc).is_ok());
    for seed in [1u64, 7] {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..20_000 {
            let len = rng.next_below(48) as usize;
            let garbage: String = (0..len).map(|_| *pick(&mut rng, JSON_ALPHABET)).collect();
            let _ = json::parse(&garbage);
        }
        for _ in 0..5_000 {
            let mut s = base.clone();
            for _ in 0..1 + rng.next_below(3) {
                mutate_chars(&mut rng, &mut s, JSON_ALPHABET);
            }
            let _ = json::parse(&s.into_iter().collect::<String>());
        }
    }
}

/// Small modules covering structs, arrays, pointer chains, hash tables
/// and nested loops, as printed IR.
fn seed_modules() -> Vec<String> {
    let mut mods: Vec<Module> = [
        micro::MicroKind::Array,
        micro::MicroKind::Vector,
        micro::MicroKind::List,
        micro::MicroKind::Map,
    ]
    .into_iter()
    .map(|k| micro::build(k, micro::MicroParams::test()).0)
    .collect();
    mods.push(listing1::build(listing1::Listing1Params::test()).0);
    mods.push(kvstore::build(kvstore::KvParams::test()).0);
    mods.iter().map(print_module).collect()
}

/// Byte ranges of the ASCII digit runs in `line`.
fn digit_runs(line: &str) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    runs
}

const TYPES: &[&str] = &["i1", "i8", "i16", "i32", "i64", "f64", "ptr", "void"];

/// Apply one random edit to a module's lines. Most edits keep the text
/// parseable so they reach the verifier and the passes: renumbering one
/// number (a constant, a size, a field, value or block number) or
/// swapping one type; the rest drop, duplicate, swap or garble lines.
fn mutate_ir(rng: &mut SplitMix64, lines: &mut Vec<String>) {
    if lines.is_empty() {
        return;
    }
    let i = rng.next_below(lines.len() as u64) as usize;
    let j = rng.next_below(lines.len() as u64) as usize;
    match rng.next_below(10) {
        0 => {
            lines.remove(i);
        }
        1 => {
            let l = lines[i].clone();
            lines.insert(j, l);
        }
        2 => lines.swap(i, j),
        3 => {
            let mut cs: Vec<char> = lines[i].chars().collect();
            mutate_chars(
                rng,
                &mut cs,
                &['%', '@', ',', ' ', '0', '.', '#', '{', '}', ':'],
            );
            lines[i] = cs.into_iter().collect();
        }
        4 | 5 => {
            let line = &lines[i];
            let Some(&t) = TYPES.iter().find(|t| line.contains(&format!(" {t}"))) else {
                return;
            };
            lines[i] = line.replacen(&format!(" {t}"), &format!(" {}", pick(rng, TYPES)), 1);
        }
        _ => {
            let runs = digit_runs(&lines[i]);
            if runs.is_empty() {
                return;
            }
            let (a, b) = *pick(rng, &runs);
            let n = pick(
                rng,
                &["0", "1", "2", "3", "4", "5", "7", "8", "16", "64", "4096"],
            );
            lines[i].replace_range(a..b, n);
        }
    }
}

#[test]
fn ir_pipeline_survives_mutated_modules() {
    let seeds = seed_modules();
    for src in &seeds {
        let m = parse_module(src).expect("seed module parses");
        assert!(verify_module(&m).is_empty());
    }
    let mut compiled = 0;
    for seed in [1u64, 7] {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..600 {
            let mut lines: Vec<String> = pick(&mut rng, &seeds).lines().map(String::from).collect();
            for _ in 0..1 + rng.next_below(3) {
                mutate_ir(&mut rng, &mut lines);
            }
            let Ok(m) = parse_module(&lines.join("\n")) else {
                continue;
            };
            if !verify_module(&m).is_empty() {
                continue;
            }
            let opts = if rng.next_below(2) == 0 {
                CompileOptions::cards()
            } else {
                CompileOptions::trackfm()
            };
            let _ = compile(m, opts);
            compiled += 1;
        }
        // Token soup: every line from every seed module, shuffled.
        let mut soup: Vec<&str> = seeds.iter().flat_map(|s| s.lines()).collect();
        for _ in 0..50 {
            rng.shuffle(&mut soup);
            let n = rng.next_below(40) as usize;
            let _ = parse_module(&soup[..n].join("\n")).map(|m| verify_module(&m));
        }
    }
    assert!(
        compiled > 50,
        "mutations must reach the passes ({compiled})"
    );
}

#[test]
fn envelope_decode_survives_garbage_and_mutated_envelopes() {
    let key = ObjKey { ds: 3, index: 17 };
    let ctx = TraceContext { trace: 9, span: 2 };
    let valid = envelope::encode(5, key, ctx, b"payload bytes");
    assert_eq!(
        envelope::decode(key, &valid),
        Ok((5, ctx, b"payload bytes".to_vec()))
    );
    let other = ObjKey { ds: 3, index: 18 };
    for seed in [1u64, 7] {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..5_000 {
            let len = rng.next_below(96) as usize;
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = envelope::decode(key, &garbage);
            let mut e = valid.clone();
            match rng.next_below(3) {
                0 => {
                    let at = rng.next_below(e.len() as u64) as usize;
                    e[at] ^= 1 << rng.next_below(8);
                }
                1 => e.truncate(rng.next_below(e.len() as u64) as usize),
                _ => e.extend((0..rng.next_below(16)).map(|_| rng.next_u64() as u8)),
            }
            let _ = envelope::decode(key, &e);
            let _ = envelope::decode(other, &e);
        }
    }
}

/// A module name with a quote, a backslash and a control character: every
/// export that carries it must escape it and read it back intact.
const MODULE_NAME: &str = "kv\"\\x\u{1}";

fn parsed(what: &str, doc: &str) -> Json {
    json::parse(doc).unwrap_or_else(|e| panic!("{what} export does not parse: {e}"))
}

#[test]
fn every_export_parses_with_the_shared_reader() {
    // Single VM: storm chaos on a cache-starved kvstore fires the flight
    // recorder and fills every telemetry section.
    let (mut m, _) = kvstore::build(kvstore::KvParams {
        keys: 128,
        ops: 600,
    });
    m.name = MODULE_NAME.to_string();
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let cfg = RuntimeConfig::new(0, 8192)
        .with_trace(TraceConfig {
            retry_storm_threshold: 4,
            ..TraceConfig::default()
        })
        .with_max_retries(32);
    let transport = ChaosTransport::new(ChaosSchedule::storm(7));
    let mut vm = Vm::new(c.module, cfg, transport, RemotingPolicy::AllRemotable, 100);
    vm.run("main", &[]).expect("run");

    let tel = parsed("telemetry", &export_json(vm.runtime()));
    assert!(!tel.arr_of("events").is_empty());
    assert!(!tel.arr_of("ds").is_empty());
    let chrome = parsed("chrome", &export_chrome_trace(vm.runtime()));
    assert!(chrome.arr_of("traceEvents").len() > 1);
    let tt = parsed("ttrace", &ttrace_json(&vm));
    assert_eq!(tt.str_of("schema"), "cards-ttrace-v1");
    assert_eq!(tt.str_of("module"), MODULE_NAME);
    let flight = parsed(
        "flight",
        &flight_json(&vm, 0).expect("storm fires a trigger"),
    );
    assert_eq!(flight.str_of("module"), MODULE_NAME);
    assert!(!flight.arr_of("trees").is_empty());
    let prof = parsed("profile", &profile_json(&vm));
    assert_eq!(prof.str_of("module"), MODULE_NAME);
    assert!(!prof.arr_of("sites").is_empty());

    // Fleet: a small replicated serving run.
    let p = serving::ServingParams {
        keys: 128,
        tenants: 8,
        ops_per_tenant: 4,
    };
    let sm = compile(serving::build_split(p), CompileOptions::cards())
        .expect("compile serving")
        .module;
    let spec = ServeSpec {
        workers: 2,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net: ShardedConfig::default(),
        model: NetworkModel::default(),
    };
    let cfg = RuntimeConfig::new(0, p.working_set_bytes() / 4);
    let r = run_serving(&sm, spec, cfg, RemotingPolicy::MaxUse, 50).expect("serve");
    let fleet = parsed("fleet", &fleet_json(MODULE_NAME, &spec, &r));
    assert_eq!(fleet.str_of("schema"), "cards-fleet-v2");
    assert_eq!(fleet.str_of("module"), MODULE_NAME);
    assert!(!fleet.arr_of("per_shard").is_empty());

    // The BENCH snapshots at CI size.
    let core = parsed("BENCH_core", &bench_core_json(true));
    assert_eq!(core.str_of("schema"), "cards-bench-core-v2");
    assert_eq!(core.arr_of("workloads").len(), 3);
    let bp = parsed("BENCH_profile", &bench_profile_json(true));
    assert_eq!(bp.str_of("schema"), "cards-bench-profile-v1");
    assert_eq!(bp.arr_of("workloads").len(), 3);
}
