//! Microbenchmarks of single layer operations, run by every traced run:
//! a runtime guard that hits, one that misses, a simulated-transport fetch,
//! and a fetch through the sharded tier's client (a round trip to a shard
//! thread). Each asserts that it measured what it claims to.

use std::time::Instant;

use cards_net::{NetworkModel, ObjKey, ShardedConfig, ShardedServer, SimTransport, Transport};
use cards_runtime::{Access, DsSpec, FarMemRuntime, RuntimeConfig, StaticHint};

use crate::stats::median;

const OBJ: u64 = 4096;

/// Median over `reps` of the mean ns per call of `iters` calls of `f`.
fn per_call_ns(reps: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// ns per `FarMemRuntime::guard` on a resident object.
pub fn guard_hit_ns(iters: u64) -> Result<f64, String> {
    let mut rt = FarMemRuntime::new(
        RuntimeConfig::new(1 << 20, 1 << 20),
        SimTransport::default(),
    );
    let h = rt.register_ds(DsSpec::simple("hit"), StaticHint::Remotable);
    let (p, _) = rt.ds_alloc(h, OBJ).map_err(|e| e.to_string())?;
    rt.guard(p, Access::Read, 8).map_err(|e| e.to_string())?;
    let before = *rt.ds_stats(h).expect("registered DS");
    let ns = per_call_ns(5, iters, |i| {
        let off = (i * 8) % OBJ;
        rt.guard(std::hint::black_box(p.add(off)), Access::Read, 8)
            .expect("guard on a resident object");
    });
    let after = rt.ds_stats(h).expect("registered DS");
    let timed = 5 * iters;
    if after.hits - before.hits != timed || after.misses != before.misses {
        return Err(format!(
            "guard_hit: {} hits, {} misses over {timed} timed guards",
            after.hits - before.hits,
            after.misses - before.misses
        ));
    }
    Ok(ns)
}

/// ns per `FarMemRuntime::guard` that must fetch its object: a cyclic
/// scan over four times as many objects as the cache (plus the recent-
/// guard pin window) holds.
pub fn guard_miss_ns(iters: u64) -> Result<f64, String> {
    const CACHED: u64 = 16;
    const OBJECTS: u64 = 4 * (CACHED + 8);
    let mut rt = FarMemRuntime::new(RuntimeConfig::new(0, CACHED * OBJ), SimTransport::default());
    let h = rt.register_ds(DsSpec::simple("miss"), StaticHint::Remotable);
    let (p, _) = rt.ds_alloc(h, OBJECTS * OBJ).map_err(|e| e.to_string())?;
    for i in 0..2 * OBJECTS {
        rt.guard(p.add((i % OBJECTS) * OBJ), Access::Write, 8)
            .map_err(|e| e.to_string())?;
    }
    let before = *rt.ds_stats(h).expect("registered DS");
    // One scan position across repetitions, so no repetition restarts on
    // objects the previous one just brought in.
    let mut next = 0u64;
    let ns = per_call_ns(3, iters, |_| {
        let obj = next % OBJECTS;
        next += 1;
        rt.guard(std::hint::black_box(p.add(obj * OBJ)), Access::Read, 8)
            .expect("guard on a remote object");
    });
    let after = rt.ds_stats(h).expect("registered DS");
    let timed = 3 * iters;
    if after.misses - before.misses != timed || after.hits != before.hits {
        return Err(format!(
            "guard_miss: {} misses, {} hits over {timed} timed guards",
            after.misses - before.misses,
            after.hits - before.hits
        ));
    }
    Ok(ns)
}

fn keys(n: u64) -> impl Iterator<Item = ObjKey> {
    (0..n).map(|index| ObjKey { ds: 1, index })
}

/// ns per `SimTransport::fetch` of a 4 KiB object.
pub fn sim_fetch_ns(iters: u64) -> Result<f64, String> {
    let mut t = SimTransport::default();
    for k in keys(64) {
        t.put(k, &[7u8; OBJ as usize]).map_err(|e| e.to_string())?;
    }
    let ns = per_call_ns(5, iters, |i| {
        let f = t
            .fetch(ObjKey {
                ds: 1,
                index: i % 64,
            })
            .expect("stored object");
        std::hint::black_box(f);
    });
    let fetched = t.stats().fetches;
    if fetched != 5 * iters {
        return Err(format!(
            "sim_fetch: {fetched} fetches for {} calls",
            5 * iters
        ));
    }
    Ok(ns)
}

/// µs per `ShardedClient::fetch` of a 4 KiB object (two shards of two
/// replicas each; one client, so no coalescing).
pub fn sharded_fetch_us(iters: u64) -> Result<f64, String> {
    let server = ShardedServer::spawn(
        ShardedConfig {
            shards: 2,
            ..ShardedConfig::default()
        },
        NetworkModel::default(),
    );
    let mut c = server.client();
    for k in keys(64) {
        c.put(k, &[7u8; OBJ as usize]).map_err(|e| e.to_string())?;
    }
    c.flush().map_err(|e| e.to_string())?;
    let before = c.sharded_stats().wire_fetches;
    let ns = per_call_ns(3, iters, |i| {
        let f = c
            .fetch(ObjKey {
                ds: 1,
                index: i % 64,
            })
            .expect("stored object");
        std::hint::black_box(f);
    });
    let wire = c.sharded_stats().wire_fetches - before;
    if wire != 3 * iters {
        return Err(format!(
            "sharded_fetch: {wire} wire fetches for {} calls",
            3 * iters
        ));
    }
    Ok(ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmarks_measure_what_they_claim() {
        assert!(guard_hit_ns(1_000).unwrap() > 0.0);
        assert!(guard_miss_ns(200).unwrap() > 0.0);
        assert!(sim_fetch_ns(1_000).unwrap() > 0.0);
        assert!(sharded_fetch_us(100).unwrap() > 0.0);
    }
}
