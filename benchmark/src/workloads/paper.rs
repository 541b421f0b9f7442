//! The paper's programs (plus the repository's extension workloads) with
//! their parameters, build functions, working sets and native references.

use cards_ir::Module;
use cards_workloads::{bfs, fdtd, kvstore, listing1, micro, pagerank, serving, taxi};

/// The application programs (the paper's and the repository's extensions).
pub const APPS: [&str; 6] = ["kvstore", "bfs", "taxi", "fdtd", "pagerank", "listing1"];

/// The programs the `local` and `remote` workloads run: the applications
/// plus the Figure-9 linked list (pointer chasing, a recursive structure).
/// An odd count puts the median op in the middle of one program's runs
/// rather than on the gap between two.
pub const EXEC_PROGRAMS: [&str; 7] = [
    "kvstore", "bfs", "taxi", "fdtd", "pagerank", "listing1", "list",
];

#[derive(Clone, Copy, Debug)]
pub enum Paper {
    Kv(kvstore::KvParams),
    Bfs(bfs::BfsParams),
    Taxi(taxi::TaxiParams),
    Fdtd(fdtd::FdtdParams),
    Pagerank(pagerank::PagerankParams),
    Listing1(listing1::Listing1Params),
    Micro(micro::MicroKind, micro::MicroParams),
    Serving(serving::ServingParams),
}

fn scale(x: i64, f: f64) -> i64 {
    ((x as f64 * f).round() as i64).max(1)
}

impl Paper {
    /// Program `name` of [`EXEC_PROGRAMS`] at its default size (its test
    /// size when `tiny`) with the work scaled by `f`.
    pub fn scaled(name: &str, f: f64, tiny: bool) -> Paper {
        macro_rules! base {
            ($t:ty) => {
                if tiny {
                    <$t>::test()
                } else {
                    <$t>::default()
                }
            };
        }
        match name {
            "kvstore" => {
                let p = base!(kvstore::KvParams);
                Paper::Kv(kvstore::KvParams {
                    keys: scale(p.keys, f),
                    ops: scale(p.ops, f),
                })
            }
            "bfs" => {
                let p = base!(bfs::BfsParams);
                Paper::Bfs(bfs::BfsParams {
                    nodes: scale(p.nodes, f),
                    ..p
                })
            }
            "taxi" => Paper::Taxi(taxi::TaxiParams {
                trips: scale(base!(taxi::TaxiParams).trips, f),
            }),
            // A square grid: scale the side by sqrt(f) to scale work by f.
            "fdtd" => {
                let p = base!(fdtd::FdtdParams);
                Paper::Fdtd(fdtd::FdtdParams {
                    size: scale(p.size, f.sqrt()),
                    ..p
                })
            }
            "pagerank" => {
                let p = base!(pagerank::PagerankParams);
                Paper::Pagerank(pagerank::PagerankParams {
                    nodes: scale(p.nodes, f),
                    ..p
                })
            }
            "listing1" => {
                let p = base!(listing1::Listing1Params);
                Paper::Listing1(listing1::Listing1Params {
                    elems: scale(p.elems, f),
                    ..p
                })
            }
            "list" => {
                let p = base!(micro::MicroParams);
                Paper::Micro(
                    micro::MicroKind::List,
                    micro::MicroParams {
                        elems: scale(p.elems, f),
                        ..p
                    },
                )
            }
            other => panic!("not an exec program: {other}"),
        }
    }

    /// Every program with a `main` at its test size (the compile
    /// workload's output checks).
    pub fn test_set() -> Vec<Paper> {
        let mut v: Vec<Paper> = APPS.iter().map(|n| Paper::scaled(n, 1.0, true)).collect();
        v.extend(
            micro::MicroKind::all()
                .into_iter()
                .map(|k| Paper::Micro(k, micro::MicroParams::test())),
        );
        v.push(Paper::Serving(serving::ServingParams::test()));
        v
    }

    pub fn name(&self) -> String {
        match self {
            Paper::Kv(_) => "kvstore".into(),
            Paper::Bfs(_) => "bfs".into(),
            Paper::Taxi(_) => "taxi".into(),
            Paper::Fdtd(_) => "fdtd".into(),
            Paper::Pagerank(_) => "pagerank".into(),
            Paper::Listing1(_) => "listing1".into(),
            Paper::Micro(k, _) => format!("micro_{k:?}").to_lowercase(),
            Paper::Serving(_) => "serving".into(),
        }
    }

    pub fn build(&self) -> Module {
        match *self {
            Paper::Kv(p) => kvstore::build(p).0,
            Paper::Bfs(p) => bfs::build(p).0,
            Paper::Taxi(p) => taxi::build(p).0,
            Paper::Fdtd(p) => fdtd::build(p).0,
            Paper::Pagerank(p) => pagerank::build(p).0,
            Paper::Listing1(p) => listing1::build(p).0,
            Paper::Micro(k, p) => micro::build(k, p).0,
            Paper::Serving(p) => serving::build(p).0,
        }
    }

    pub fn working_set(&self) -> u64 {
        match self {
            Paper::Kv(p) => p.working_set_bytes(),
            Paper::Bfs(p) => p.working_set_bytes(),
            Paper::Taxi(p) => p.working_set_bytes(),
            Paper::Fdtd(p) => p.working_set_bytes(),
            Paper::Pagerank(p) => p.working_set_bytes(),
            Paper::Listing1(p) => p.working_set_bytes(),
            Paper::Micro(_, p) => p.working_set_bytes(),
            Paper::Serving(p) => p.working_set_bytes(),
        }
    }

    /// `main`'s checksum, computed natively.
    pub fn reference(&self) -> i64 {
        match *self {
            Paper::Kv(p) => kvstore::reference(p),
            Paper::Bfs(p) => bfs::reference(p),
            Paper::Taxi(p) => taxi::reference(p),
            Paper::Fdtd(p) => fdtd::reference(p),
            Paper::Pagerank(p) => pagerank::reference(p),
            Paper::Listing1(p) => listing1::reference(p),
            Paper::Micro(k, p) => micro::reference(k, p),
            Paper::Serving(p) => serving::reference(p),
        }
    }
}
