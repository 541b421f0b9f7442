//! Selective remoting via code versioning (paper §4.1, Listing 3).
//!
//! For each eligible outermost loop the pass keeps the instrumented version
//! and adds an *uninstrumented clone* (guards stripped). A preheader check
//! `RemotableCheck(handles…)` asks the runtime whether any data structure
//! used by the loop is currently remotable; if none is, execution branches
//! to the cheap clone. This is how CaRDS elides guard overheads that
//! TrackFM must always pay, without profiling.
//!
//! Eligibility (conservative, documented in DESIGN.md):
//! - the loop contains at least one guard,
//! - no allocation / free / call inside (those could change remotability or
//!   evict mid-loop),
//! - every guarded pointer maps to DS instances whose handle values are
//!   available outside the loop (DsInit results or threaded handle args),
//! - no SSA value defined in the loop is used outside it, and exit blocks
//!   have no phis (so no merge nodes are needed after the split),
//! - the header has a predecessor outside the loop to dispatch from (a loop
//!   headed by the entry block is left alone).
//!
//! The pass is linear in the function's size: liveouts are found in one
//! pass over every operand, and each cloned instruction is copied once.

use std::collections::BTreeSet;

use cards_dsa::ModuleDsa;
use cards_ir::analysis::{Cfg, DomTree, Loop, LoopForest};
use cards_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Value};

use crate::pool_alloc::PoolAllocResult;

/// Apply code versioning to all functions; returns the number of loops that
/// received an uninstrumented version.
pub fn version_loops(module: &mut Module, dsa: &ModuleDsa, pool: &PoolAllocResult) -> usize {
    let mut count = 0;
    for i in 0..module.functions.len() {
        let fid = FuncId(i as u32);
        count += version_function(module, dsa, pool, fid);
    }
    count
}

fn version_function(
    module: &mut Module,
    dsa: &ModuleDsa,
    pool: &PoolAllocResult,
    fid: FuncId,
) -> usize {
    // Recompute loops on the transformed function.
    let f = module.func(fid);
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let forest = LoopForest::compute(f, &cfg, &dom);
    let outer: Vec<&Loop> = forest.loops.iter().filter(|l| l.parent.is_none()).collect();
    if outer.is_empty() {
        return 0;
    }
    // Liveouts are found once, before any loop is cloned, and stay exact
    // while earlier loops are cloned: outer loops are disjoint, a clone uses
    // only values its original used (loop values renamed to their clones,
    // guard results to the guard's pointer), and check blocks use only
    // handles, which are arguments or `DsInit`s, and a loop holding a
    // `DsInit` is never versioned.
    let liveout = liveouts(f, &outer);
    let mut maps = CloneMaps::new(f);
    let mut versioned = 0;
    for (l, liveout) in outer.into_iter().zip(liveout) {
        if let Some(handles) = eligible(module, dsa, pool, fid, l, liveout) {
            if clone_and_dispatch(module, fid, l, &cfg, handles, &mut maps) {
                versioned += 1;
            }
        }
    }
    versioned
}

/// Not in any outer loop.
const NO_LOOP: u32 = u32::MAX;

/// For each outer loop, whether a value it defines is used outside it. One
/// pass over every operand of every block, reachable or not.
fn liveouts(f: &Function, outer: &[&Loop]) -> Vec<bool> {
    let mut block_loop = vec![NO_LOOP; f.blocks.len()];
    for (k, l) in outer.iter().enumerate() {
        for &b in &l.body {
            block_loop[b.0 as usize] = k as u32;
        }
    }
    let mut inst_loop = vec![NO_LOOP; f.insts.len()];
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            inst_loop[i.0 as usize] = block_loop[b.0 as usize];
        }
    }
    let mut liveout = vec![false; outer.len()];
    for b in f.block_ids() {
        let here = block_loop[b.0 as usize];
        for &i in &f.block(b).insts {
            f.inst(i).for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    let def = inst_loop.get(d.0 as usize).copied().unwrap_or(NO_LOOP);
                    if def != NO_LOOP && def != here {
                        liveout[def as usize] = true;
                    }
                }
            });
        }
    }
    liveout
}

/// Check eligibility; on success return the handle values to check.
fn eligible(
    module: &Module,
    dsa: &ModuleDsa,
    pool: &PoolAllocResult,
    fid: FuncId,
    l: &Loop,
    liveout: bool,
) -> Option<Vec<Value>> {
    if liveout {
        return None;
    }
    let f = module.func(fid);
    let fd = dsa.func(fid);
    let mut handles: BTreeSet<Value> = BTreeSet::new();
    let mut saw_guard = false;
    for &b in &l.body {
        for &iid in &f.block(b).insts {
            match f.inst(iid) {
                Inst::Guard { ptr, .. } => {
                    saw_guard = true;
                    let cell = fd.cell_of(*ptr)?;
                    let ids = dsa.instances_of_node(fid, cell.node);
                    if ids.is_empty() {
                        return None; // unknown target: cannot prove local
                    }
                    let root = fd.graph.find(cell.node);
                    let h = pool.handle_of[fid.0 as usize].get(&root)?;
                    handles.insert(*h);
                }
                Inst::Alloc { .. }
                | Inst::DsAlloc { .. }
                | Inst::Free { .. }
                | Inst::Call { .. }
                | Inst::CallIndirect { .. }
                | Inst::DsInit { .. } => return None,
                _ => {}
            }
        }
    }
    if !saw_guard {
        return None;
    }
    // Exit blocks must be phi-free.
    for &e in &l.exits {
        if f.block(e)
            .insts
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Phi { .. }))
        {
            return None;
        }
    }
    Some(handles.into_iter().collect())
}

/// What the clone of a loop uses in place of an original instruction.
#[derive(Clone, Copy)]
enum Subst {
    /// Outside the loop being cloned: used as it is.
    Same,
    /// Cloned as this instruction.
    Clone(InstId),
    /// A guard the clone drops: its pointer operand, itself substituted.
    Guard(Value),
}

/// Clone maps indexed by the original `BlockId` / `InstId`, allocated once
/// per function. `clone_and_dispatch` clears the entries it set, so each
/// loop costs only its own body.
struct CloneMaps {
    block: Vec<Option<BlockId>>,
    inst: Vec<Subst>,
}

impl CloneMaps {
    fn new(f: &Function) -> Self {
        CloneMaps {
            block: vec![None; f.blocks.len()],
            inst: vec![Subst::Same; f.insts.len()],
        }
    }

    fn block(&self, b: BlockId) -> Option<BlockId> {
        self.block.get(b.0 as usize).copied().flatten()
    }

    fn value(&self, mut v: Value) -> Value {
        while let Value::Inst(d) = v {
            match self.inst.get(d.0 as usize) {
                Some(Subst::Clone(c)) => return Value::Inst(*c),
                Some(Subst::Guard(ptr)) => v = *ptr,
                _ => break,
            }
        }
        v
    }
}

/// Add the guard-free clone of `l` and one dispatching check block per
/// preheader. Returns false, changing nothing, when the header has no
/// predecessor outside the loop (it is the entry block).
fn clone_and_dispatch(
    module: &mut Module,
    fid: FuncId,
    l: &Loop,
    cfg: &Cfg,
    handles: Vec<Value>,
    maps: &mut CloneMaps,
) -> bool {
    let header = l.header;
    // Outside predecessors of the header (preheaders).
    let outside_preds: Vec<BlockId> = cfg
        .preds_of(header)
        .iter()
        .copied()
        .filter(|p| !l.body.contains(p))
        .collect();
    if outside_preds.is_empty() {
        return false;
    }

    // --- Step 1: create one check block per outside pred and rewire. ---
    let f = module.func_mut(fid);
    let mut checks: Vec<BlockId> = Vec::with_capacity(outside_preds.len());
    for &p in &outside_preds {
        let c = f.add_block();
        f.blocks[c.0 as usize].name = Some(format!("remotable_check_{}", p.0));
        checks.push(c);
        // rewire P's terminator: header -> C
        if let Some(&term) = f.blocks[p.0 as usize].insts.last() {
            f.insts[term.0 as usize].map_successors(|b| if b == header { c } else { b });
        }
        // header phis: incoming from P now comes from C
        for &iid in &f.blocks[header.0 as usize].insts {
            if let Inst::Phi { incoming, .. } = &mut f.insts[iid.0 as usize] {
                for (from, _) in incoming.iter_mut() {
                    if *from == p {
                        *from = c;
                    }
                }
            }
        }
    }

    // --- Step 2: add the clone's blocks and reserve its instruction ids
    // (guards are dropped and forwarded to their pointer operand). ---
    let mut next = f.insts.len() as u32;
    for &b in &l.body {
        let nb = f.add_block();
        f.blocks[nb.0 as usize].name = Some(format!("fast_{}", b.0));
        maps.block[b.0 as usize] = Some(nb);
        let mut ids = Vec::with_capacity(f.blocks[b.0 as usize].insts.len());
        for &iid in &f.blocks[b.0 as usize].insts {
            maps.inst[iid.0 as usize] = match &f.insts[iid.0 as usize] {
                Inst::Guard { ptr, .. } => Subst::Guard(*ptr),
                _ => {
                    let c = InstId(next);
                    next += 1;
                    ids.push(c);
                    Subst::Clone(c)
                }
            };
        }
        f.blocks[nb.0 as usize].insts = ids;
    }

    // --- Step 3: copy each instruction once, in reserved-id order, with
    // operands, successors and phi incoming blocks remapped. ---
    for &b in &l.body {
        for &iid in &f.blocks[b.0 as usize].insts {
            if !matches!(maps.inst[iid.0 as usize], Subst::Clone(_)) {
                continue;
            }
            let mut inst = f.insts[iid.0 as usize].clone();
            inst.map_operands(|v| maps.value(v));
            match &mut inst {
                Inst::Phi { incoming, .. } => {
                    for (from, _) in incoming.iter_mut() {
                        if let Some(nb) = maps.block(*from) {
                            *from = nb;
                        } else if let Some(k) = outside_preds.iter().position(|p| p == from) {
                            *from = checks[k];
                        }
                        // else: already-rewired check block (header phis were
                        // rewired in step 1, so `from` may be a check block).
                    }
                }
                _ => inst.map_successors(|s| maps.block(s).unwrap_or(s)),
            }
            f.insts.push(inst);
        }
    }
    let cloned_header = maps.block(header).expect("the header is in the body");
    for &b in &l.body {
        maps.block[b.0 as usize] = None;
        for &iid in &f.blocks[b.0 as usize].insts {
            maps.inst[iid.0 as usize] = Subst::Same;
        }
    }

    // --- Step 4: fill the check blocks. ---
    let mut dispatches: Vec<(InstId, BlockId)> = Vec::new();
    for &c in &checks {
        let chk = InstId(f.insts.len() as u32);
        f.insts.push(Inst::RemotableCheck {
            handles: handles.clone(),
        });
        let br = InstId(f.insts.len() as u32);
        f.insts.push(Inst::CondBr {
            cond: Value::Inst(chk),
            then_b: header,        // some DS remotable: instrumented loop
            else_b: cloned_header, // all local: fast path
        });
        f.blocks[c.0 as usize].insts = vec![chk, br];
        dispatches.push((chk, c));
    }
    // Attribution sites for the dispatch decision (instrumented vs. clean
    // entry accounting); registered after the function borrow ends.
    for (chk, c) in dispatches {
        let sid = module
            .sites
            .add(cards_ir::SiteKind::VersionedDispatch, fid, Some(chk));
        module.sites.site_mut(sid).block = Some(c);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guards::{eliminate_redundant_guards, insert_guards};
    use crate::pool_alloc::pool_allocate;
    use crate::prefetch_analysis::{analyze_prefetch, rank_instances, PrefetchSelection};
    use cards_ir::{FunctionBuilder, Type};

    fn prep(m: &mut Module) -> usize {
        let dsa = ModuleDsa::analyze(m);
        let pf = analyze_prefetch(m, &dsa, PrefetchSelection::PerDs);
        let pr = rank_instances(&dsa);
        let pool = pool_allocate(m, &dsa, &pf, &pr).unwrap();
        insert_guards(m, &dsa, false);
        eliminate_redundant_guards(m, &dsa, &pool);
        version_loops(m, &dsa, &pool)
    }

    /// A scan loop over one DS gets a versioned fast path; the module still
    /// verifies and contains a RemotableCheck.
    #[test]
    fn scan_loop_is_versioned() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(64 * 1024), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(8192);
        let one = b.iconst(1);
        b.counted_loop(z, n, one, |b, i| {
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, i, Type::I64);
        });
        b.ret_void();
        m.add_function(b.finish());
        let versioned = prep(&mut m);
        assert_eq!(versioned, 1);
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}\n{}", cards_ir::print_module(&m));
        let f = &m.functions[0];
        let has_check = f
            .iter_insts()
            .any(|(_, _, i)| matches!(i, Inst::RemotableCheck { .. }));
        assert!(has_check);
        // the clone has no guards; the original keeps them. The function
        // grew: original 4 blocks + 1 check block + 2 cloned loop blocks
        // (header + body; the exit stays shared).
        assert_eq!(f.blocks.len(), 7, "got {} blocks", f.blocks.len());
        let guards = f
            .iter_insts()
            .filter(|(_, _, i)| matches!(i, Inst::Guard { .. }))
            .count();
        assert_eq!(guards, 1, "only the instrumented copy keeps its guard");
    }

    /// Loops that allocate are not versioned (allocation can demote a DS
    /// mid-loop).
    #[test]
    fn allocating_loop_not_versioned() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let slot = b.alloca(Type::Ptr);
        let z = b.iconst(0);
        let n = b.iconst(16);
        let one = b.iconst(1);
        b.counted_loop(z, n, one, |b, i| {
            let p = b.alloc(b.iconst(64), Type::I64);
            b.store(p, i, Type::I64);
            b.store(slot, p, Type::Ptr);
        });
        b.ret_void();
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 0);
        assert!(cards_ir::verify_module(&m).is_empty());
    }

    /// A loop whose induction value is used after the loop (liveout) is
    /// skipped.
    #[test]
    fn liveout_loop_not_versioned() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let arr = b.alloc(b.iconst(1024), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(128);
        let one = b.iconst(1);
        let iv = b.counted_loop(z, n, one, |b, i| {
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, i, Type::I64);
        });
        b.ret(iv); // liveout!
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 0);
        assert!(cards_ir::verify_module(&m).is_empty());
    }

    /// Listing 1 end-to-end: Set's loop is versioned using the threaded
    /// handle argument (the Listing 3 transformation).
    #[test]
    fn listing1_set_loop_versioned_via_handle_arg() {
        let (mut m, _) = crate::testutil::listing1();
        let versioned = prep(&mut m);
        assert!(versioned >= 1, "Set's j-loop must be versioned");
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}");
        let set_f = m.func_by_name("Set").unwrap();
        let f = m.func(set_f);
        let check = f
            .iter_insts()
            .find_map(|(_, _, i)| match i {
                Inst::RemotableCheck { handles } => Some(handles.clone()),
                _ => None,
            })
            .expect("Set has a remotable check");
        // the checked handle is Set's threaded DH argument (arg2)
        assert_eq!(check, vec![Value::Arg(2)]);
    }

    /// Nested loops: only the outermost is versioned, and the clone
    /// contains the inner loop too.
    #[test]
    fn nested_loop_versioned_once() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(64 * 64 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(64);
        let one = b.iconst(1);
        b.counted_loop(z, n, one, |b, i| {
            b.counted_loop(z, n, one, |b, j| {
                let row = b.mul(i, b.iconst(64));
                let idx = b.add(row, j);
                let p = b.gep_index(arr, Type::I64, idx);
                b.store(p, idx, Type::I64);
            });
        });
        b.ret_void();
        m.add_function(b.finish());
        let versioned = prep(&mut m);
        assert_eq!(versioned, 1);
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}\n{}", cards_ir::print_module(&m));
    }

    /// The loop header each `RemotableCheck` dispatch enters on its
    /// instrumented edge, one per check block.
    fn checked_headers(f: &cards_ir::Function) -> Vec<BlockId> {
        f.iter_insts()
            .filter_map(|(_, _, i)| match i {
                Inst::CondBr { cond, then_b, .. } => match cond {
                    Value::Inst(c) if matches!(f.inst(*c), Inst::RemotableCheck { .. }) => {
                        Some(*then_b)
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    /// Sibling loops: the second loop's bound is the first loop's final
    /// induction value, so the first loop has a liveout and keeps its
    /// single instrumented version, while the second is versioned.
    #[test]
    fn value_used_by_a_later_sibling_blocks_only_its_definer() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(1024 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(128);
        let one = b.iconst(1);
        let iv = b.counted_loop(z, n, one, |b, i| {
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, i, Type::I64);
        });
        let second = b.func().blocks.len() as u32; // next header
        b.counted_loop(z, iv, one, |b, i| {
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, z, Type::I64);
        });
        b.ret_void();
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 1);
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}\n{}", cards_ir::print_module(&m));
        assert_eq!(checked_headers(&m.functions[0]), vec![BlockId(second)]);
    }

    /// A use in an unreachable block still counts as a liveout: the loop
    /// stays unversioned.
    #[test]
    fn use_in_an_unreachable_block_keeps_the_loop_unversioned() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(1024 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(128);
        let one = b.iconst(1);
        let iv = b.counted_loop(z, n, one, |b, i| {
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, i, Type::I64);
        });
        b.ret_void();
        let dead = b.new_block();
        b.switch_to(dead);
        b.add(iv, one);
        b.ret_void();
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 0);
        assert!(cards_ir::verify_module(&m).is_empty());
        assert!(checked_headers(&m.functions[0]).is_empty());
    }

    /// Three independent sibling loops are all versioned, and their
    /// dispatch sites are numbered in the order the pass visits the loops
    /// (the loop forest's order), each site's check instruction placed
    /// after the previous one's.
    #[test]
    fn sibling_loops_get_dispatch_sites_in_visit_order() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(1024 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(128);
        let one = b.iconst(1);
        for k in 0..3 {
            b.counted_loop(z, n, one, |b, i| {
                let p = b.gep_index(arr, Type::I64, i);
                b.store(p, b.iconst(k), Type::I64);
            });
        }
        b.ret_void();
        let f = b.finish();
        let visit: Vec<BlockId> = {
            let cfg = Cfg::compute(&f);
            let dom = DomTree::compute(&f, &cfg);
            LoopForest::compute(&f, &cfg, &dom)
                .loops
                .iter()
                .map(|l| l.header)
                .collect()
        };
        assert_eq!(visit.len(), 3);
        m.add_function(f);
        assert_eq!(prep(&mut m), 3);
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}\n{}", cards_ir::print_module(&m));
        let f = &m.functions[0];
        let sites: Vec<_> = m
            .sites
            .iter()
            .filter(|s| s.kind == cards_ir::SiteKind::VersionedDispatch)
            .collect();
        let entered: Vec<BlockId> = sites
            .iter()
            .map(|s| match f.terminator(s.block.unwrap()) {
                Some(Inst::CondBr { then_b, .. }) => *then_b,
                other => panic!("dispatch block ends in {other:?}"),
            })
            .collect();
        assert_eq!(entered, visit);
        assert!(sites.windows(2).all(|w| w[0].inst < w[1].inst));
    }

    /// A value defined in an inner loop and used in the outer loop's latch
    /// stays inside the outer loop: the outer loop is versioned.
    #[test]
    fn inner_loop_value_used_in_the_outer_latch_is_not_a_liveout() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(64 * 64 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(64);
        let one = b.iconst(1);
        b.counted_loop(z, n, one, |b, i| {
            let jv = b.counted_loop(z, n, one, |b, j| {
                let row = b.mul(i, b.iconst(64));
                let idx = b.add(row, j);
                let p = b.gep_index(arr, Type::I64, idx);
                b.store(p, idx, Type::I64);
            });
            let p = b.gep_index(arr, Type::I64, i);
            b.store(p, jv, Type::I64);
        });
        b.ret_void();
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 1);
        let errs = cards_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}\n{}", cards_ir::print_module(&m));
    }

    /// A value defined in an inner loop and used after its outer loop is
    /// a liveout of the outer loop: nothing is versioned.
    #[test]
    fn inner_loop_value_used_after_the_outer_loop_is_a_liveout() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let arr = b.alloc(b.iconst(64 * 64 * 8), Type::I64);
        let z = b.iconst(0);
        let n = b.iconst(64);
        let one = b.iconst(1);
        let mut inner = None;
        b.counted_loop(z, n, one, |b, i| {
            inner = Some(b.counted_loop(z, n, one, |b, j| {
                let row = b.mul(i, b.iconst(64));
                let idx = b.add(row, j);
                let p = b.gep_index(arr, Type::I64, idx);
                b.store(p, idx, Type::I64);
            }));
        });
        b.ret(inner.unwrap());
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 0);
    }

    /// A loop headed by the entry block has no preheader to dispatch from,
    /// so it is left alone and not counted as versioned.
    #[test]
    fn loop_headed_by_the_entry_block_is_not_counted() {
        let mut m = Module::new("t");
        let mut s = FunctionBuilder::new("Spin", vec![Type::Ptr, Type::I64], Type::Void);
        let entry = s.current_block();
        let p = s.gep_index(s.arg(0), Type::I64, s.arg(1));
        s.store(p, s.arg(1), Type::I64);
        s.br(entry);
        let spin = m.add_function(s.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let arr = b.alloc(b.iconst(64 * 8), Type::I64);
        b.call(spin, vec![arr, b.iconst(0)]);
        b.ret_void();
        m.add_function(b.finish());
        assert_eq!(prep(&mut m), 0);
        assert!(cards_ir::verify_module(&m).is_empty());
        assert!(m.functions.iter().all(|f| checked_headers(f).is_empty()));
        assert_eq!(m.func(spin).blocks.len(), 1);
    }
}
