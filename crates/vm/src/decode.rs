//! The decode-once execution form.
//!
//! [`crate::Vm::with_hints`] lowers every function of the module once into
//! a flat, index-addressed [`DecodedFn`]; the interpreter then executes
//! that form and never consults the IR on the hot path. Decoding resolves
//! everything that does not depend on run-time values:
//!
//! - operands become frame slots or immediates ([`Opnd`]): globals,
//!   function addresses, `null`, `undef` and constants are immediates;
//! - a GEP becomes a constant displacement plus `(operand, scale)` terms;
//! - loads and stores carry their byte width (and loads their extend type);
//! - guards and versioning-dispatch branches carry their `SiteTable` id,
//!   and a dispatch branch (a `CondBr` fed by a `RemotableCheck`) is its
//!   own op;
//! - phis become per-edge parallel-copy lists executed when the branch is
//!   taken, so a block's body is straight-line ops ending in a terminator;
//! - branch targets are op indices.
//!
//! A function's frame is `[params..][one slot per instruction..]`: `Arg(i)`
//! is slot `i` and `Reg(s)` an instruction's slot. Malformed IR is
//! detected here and reported as [`VmError::Malformed`] when the function
//! is called, if it sits in a block reachable from the entry.

use std::ops::Range;

use cards_ir::{
    AccessKind, BinOp, BlockId, CastOp, CmpOp, FuncId, Function, GepIdx, Inst, InstId, Intrinsic,
    Module, Type, Value,
};
use cards_runtime::Access;

use crate::interp::{VmError, FUNC_BASE};

/// An operand resolved at decode time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Opnd {
    /// Frame slot of an instruction result.
    Reg(u32),
    /// Parameter `i` (frame slot `i`).
    Arg(u16),
    /// A value fixed at decode time.
    Imm(u64),
}

impl Opnd {
    #[inline(always)]
    pub(crate) fn eval(self, frame: &[u64]) -> u64 {
        match self {
            Opnd::Reg(s) => frame[s as usize],
            Opnd::Arg(i) => frame[i as usize],
            Opnd::Imm(v) => v,
        }
    }
}

/// A run of entries in one of a [`DecodedFn`]'s side tables.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A CFG edge: the target op index plus the phi copies it performs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub(crate) pc: u32,
    /// `(slot, source)` pairs in [`DecodedFn::copies`].
    pub(crate) copies: Span,
    /// Some copy reads a slot an earlier copy of the same edge writes, so
    /// the sources must all be read before any destination is written.
    pub(crate) parallel: bool,
}

/// One decoded operation. Every variant but `FallThrough` is one IR
/// instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    Alloc {
        dst: u32,
        size: Opnd,
    },
    AllocStack {
        dst: u32,
        size: u64,
    },
    Free {
        ptr: Opnd,
    },
    Load {
        dst: u32,
        ptr: Opnd,
        width: u8,
        ty: Type,
    },
    Store {
        ptr: Opnd,
        val: Opnd,
        width: u8,
    },
    /// `base + disp + Σ operand × scale` over the `terms` span.
    Gep {
        dst: u32,
        base: Opnd,
        disp: u64,
        terms: Span,
    },
    Bin {
        dst: u32,
        op: BinOp,
        lhs: Opnd,
        rhs: Opnd,
        ty: Type,
    },
    Cmp {
        dst: u32,
        op: CmpOp,
        lhs: Opnd,
        rhs: Opnd,
    },
    Cast {
        dst: u32,
        op: CastOp,
        val: Opnd,
        to: Type,
    },
    Select {
        dst: u32,
        cond: Opnd,
        then_v: Opnd,
        else_v: Opnd,
    },
    /// Arity is checked at decode time; `b` is `Imm(0)` for unary ones.
    Intrin {
        dst: u32,
        which: Intrinsic,
        a: Opnd,
        b: Opnd,
    },
    Call {
        dst: u32,
        callee: u32,
        args: Span,
    },
    CallIndirect {
        dst: u32,
        callee: Opnd,
        args: Span,
    },
    Br {
        to: Edge,
    },
    CondBr {
        cond: Opnd,
        then_e: Edge,
        else_e: Edge,
    },
    /// A `CondBr` fed directly by a `RemotableCheck`: the versioned-loop
    /// dispatch, counted and attributed to its site.
    Dispatch {
        cond: Opnd,
        then_e: Edge,
        else_e: Edge,
        site: Option<u32>,
    },
    Ret {
        val: Option<Opnd>,
    },
    DsInit {
        dst: u32,
        meta: u32,
    },
    DsAlloc {
        dst: u32,
        size: Opnd,
        handle: Opnd,
    },
    Guard {
        dst: u32,
        ptr: Opnd,
        access: Access,
        bytes: u64,
        site: Option<u32>,
    },
    RemotableCheck {
        dst: u32,
        handles: Span,
    },
    /// End of a block that has no terminator.
    FallThrough,
}

/// One function in decoded form.
#[derive(Debug, Default)]
pub(crate) struct DecodedFn {
    /// Parameter slots: the declared parameters, widened to cover every
    /// `Arg` index the body uses (missing arguments read as 0).
    pub(crate) nargs: usize,
    /// Frame size: parameter slots plus one slot per instruction.
    pub(crate) nslots: usize,
    /// Blocks laid out in index order; the entry block starts at op 0.
    pub(crate) ops: Vec<Op>,
    pub(crate) copies: Vec<(u32, Opnd)>,
    pub(crate) terms: Vec<(Opnd, u64)>,
    /// Call arguments and `RemotableCheck` handles.
    pub(crate) operands: Vec<Opnd>,
    /// First malformation found in reachable code, raised on every call.
    pub(crate) malformed: Option<VmError>,
}

/// Decode every function of `module`, indexed by `FuncId`; `global_addr`
/// holds the native address of each global.
pub(crate) fn decode(module: &Module, global_addr: &[u64]) -> Vec<DecodedFn> {
    module
        .funcs()
        .map(|(fid, f)| Decoder::new(module, global_addr, fid, f).run())
        .collect()
}

struct Decoder<'a> {
    module: &'a Module,
    global_addr: &'a [u64],
    fid: FuncId,
    f: &'a Function,
    out: DecodedFn,
    /// Leading phis of each block.
    phis: Vec<Vec<InstId>>,
    reachable: Vec<bool>,
    /// Whether the block being decoded is reachable from the entry.
    live: bool,
    /// The instruction being decoded (for error reports).
    cur: InstId,
}

impl<'a> Decoder<'a> {
    fn new(module: &'a Module, global_addr: &'a [u64], fid: FuncId, f: &'a Function) -> Self {
        let mut nargs = f.params.len();
        for inst in &f.insts {
            inst.for_each_operand(|v| {
                if let Value::Arg(i) = v {
                    nargs = nargs.max(i as usize + 1);
                }
            });
        }
        let phis = f
            .blocks
            .iter()
            .map(|b| {
                b.insts
                    .iter()
                    .copied()
                    .take_while(|&i| matches!(f.inst(i), Inst::Phi { .. }))
                    .collect()
            })
            .collect();
        Decoder {
            module,
            global_addr,
            fid,
            f,
            out: DecodedFn {
                nargs,
                nslots: nargs + f.insts.len(),
                ..DecodedFn::default()
            },
            phis,
            reachable: reachable_blocks(f),
            live: false,
            cur: InstId(0),
        }
    }

    fn run(mut self) -> DecodedFn {
        let f = self.f;
        let mut block_start = Vec::with_capacity(f.blocks.len());
        for b in f.block_ids() {
            self.live = self.reachable[b.0 as usize];
            block_start.push(self.out.ops.len() as u32);
            let insts = &f.block(b).insts;
            if b == f.entry() {
                if let Some(&phi) = self.phis[0].first() {
                    self.cur = phi;
                    self.malformed("phi in the entry block".into());
                }
            }
            let mut terminated = false;
            for &iid in &insts[self.phis[b.0 as usize].len()..] {
                self.cur = iid;
                let inst = f.inst(iid);
                // Stray phis after the leading run are never evaluated.
                if matches!(inst, Inst::Phi { .. }) {
                    continue;
                }
                let op = self.op(b, iid, inst);
                self.out.ops.push(op);
                if inst.is_terminator() {
                    terminated = true;
                    break;
                }
            }
            if !terminated {
                self.out.ops.push(Op::FallThrough);
            }
        }
        if self.out.ops.is_empty() {
            // No blocks at all: the entry falls through at once.
            self.out.ops.push(Op::FallThrough);
        }
        // Edges were emitted with block ids; point them at op indices.
        let fix = |e: &mut Edge| e.pc = block_start.get(e.pc as usize).copied().unwrap_or(u32::MAX);
        for op in &mut self.out.ops {
            match op {
                Op::Br { to } => fix(to),
                Op::CondBr { then_e, else_e, .. } | Op::Dispatch { then_e, else_e, .. } => {
                    fix(then_e);
                    fix(else_e);
                }
                _ => {}
            }
        }
        self.out
    }

    fn malformed(&mut self, what: String) {
        if self.live && self.out.malformed.is_none() {
            self.out.malformed = Some(VmError::Malformed {
                func: self.f.name.clone(),
                inst: self.cur.0,
                what,
            });
        }
    }

    fn slot(&self, iid: InstId) -> u32 {
        (self.out.nargs + iid.0 as usize) as u32
    }

    fn opnd(&mut self, v: Value) -> Opnd {
        match v {
            Value::Arg(i) => Opnd::Arg(i),
            Value::Inst(i) if (i.0 as usize) < self.f.insts.len() => Opnd::Reg(self.slot(i)),
            Value::Inst(i) => {
                self.malformed(format!("operand %{} is not an instruction", i.0));
                Opnd::Imm(0)
            }
            Value::ConstInt(c) => Opnd::Imm(c as u64),
            Value::ConstFloat(b) => Opnd::Imm(b),
            Value::Global(g) => match self.global_addr.get(g.0 as usize) {
                Some(&a) => Opnd::Imm(a),
                None => {
                    self.malformed(format!("global @{} does not exist", g.0));
                    Opnd::Imm(0)
                }
            },
            Value::Func(fid) => Opnd::Imm(FUNC_BASE + fid.0 as u64),
            Value::Null | Value::Undef => Opnd::Imm(0),
        }
    }

    fn operands(&mut self, vs: &[Value]) -> Span {
        let start = self.out.operands.len() as u32;
        for &v in vs {
            let o = self.opnd(v);
            self.out.operands.push(o);
        }
        Span {
            start,
            len: vs.len() as u32,
        }
    }

    /// The edge `from → to` with the phi copies of `to` for it. The `pc`
    /// holds the block id until [`Self::run`] fixes it up.
    fn edge(&mut self, from: BlockId, to: BlockId) -> Edge {
        let start = self.out.copies.len() as u32;
        let Some(nphis) = self.phis.get(to.0 as usize).map(Vec::len) else {
            self.malformed(format!("branch to nonexistent bb{}", to.0));
            return Edge {
                pc: u32::MAX,
                copies: Span::default(),
                parallel: false,
            };
        };
        for k in 0..nphis {
            let phi = self.phis[to.0 as usize][k];
            let Inst::Phi { incoming, .. } = self.f.inst(phi) else {
                unreachable!("leading phis only");
            };
            match incoming.iter().find(|&&(b, _)| b == from) {
                Some(&(_, v)) => {
                    let src = self.opnd(v);
                    let dst = self.slot(phi);
                    self.out.copies.push((dst, src));
                }
                None => self.malformed(format!(
                    "phi %{} has no incoming value for bb{} -> bb{}",
                    phi.0, from.0, to.0
                )),
            }
        }
        let copies = &self.out.copies[start as usize..];
        let parallel = copies
            .iter()
            .enumerate()
            .any(|(j, &(_, src))| copies[..j].iter().any(|&(dst, _)| src == Opnd::Reg(dst)));
        Edge {
            pc: to.0,
            copies: Span {
                start,
                len: copies.len() as u32,
            },
            parallel,
        }
    }

    fn op(&mut self, block: BlockId, iid: InstId, inst: &Inst) -> Op {
        let module = self.module;
        let types = &module.types;
        let dst = self.slot(iid);
        let width = |ty: Type| types.size_of(ty).clamp(1, 8) as u8;
        match inst {
            Inst::Alloc { size, .. } => Op::Alloc {
                dst,
                size: self.opnd(*size),
            },
            Inst::AllocStack { ty } => Op::AllocStack {
                dst,
                size: types.size_of(*ty),
            },
            Inst::Free { ptr } => Op::Free {
                ptr: self.opnd(*ptr),
            },
            Inst::Load { ptr, ty } => Op::Load {
                dst,
                ptr: self.opnd(*ptr),
                width: width(*ty),
                ty: *ty,
            },
            Inst::Store { ptr, val, ty } => Op::Store {
                ptr: self.opnd(*ptr),
                val: self.opnd(*val),
                width: width(*ty),
            },
            Inst::Gep {
                base,
                pointee,
                indices,
            } => self.gep(dst, *base, *pointee, indices),
            Inst::Bin { op, lhs, rhs, ty } => Op::Bin {
                dst,
                op: *op,
                lhs: self.opnd(*lhs),
                rhs: self.opnd(*rhs),
                ty: *ty,
            },
            Inst::Cmp { op, lhs, rhs } => Op::Cmp {
                dst,
                op: *op,
                lhs: self.opnd(*lhs),
                rhs: self.opnd(*rhs),
            },
            Inst::Cast { op, val, to } => Op::Cast {
                dst,
                op: *op,
                val: self.opnd(*val),
                to: *to,
            },
            Inst::Select {
                cond,
                then_v,
                else_v,
                ..
            } => Op::Select {
                dst,
                cond: self.opnd(*cond),
                then_v: self.opnd(*then_v),
                else_v: self.opnd(*else_v),
            },
            Inst::Intrin { which, args } => {
                if args.len() != which.arity() {
                    self.malformed(format!(
                        "intrinsic {which:?} takes {} arguments, got {}",
                        which.arity(),
                        args.len()
                    ));
                }
                let mut arg = |k: usize| match args.get(k) {
                    Some(&v) => self.opnd(v),
                    None => Opnd::Imm(0),
                };
                Op::Intrin {
                    dst,
                    which: *which,
                    a: arg(0),
                    b: arg(1),
                }
            }
            Inst::Call { callee, args } => {
                if callee.0 as usize >= self.module.functions.len() {
                    self.malformed(format!("call to nonexistent function #{}", callee.0));
                }
                Op::Call {
                    dst,
                    callee: callee.0,
                    args: self.operands(args),
                }
            }
            Inst::CallIndirect { callee, args, .. } => Op::CallIndirect {
                dst,
                callee: self.opnd(*callee),
                args: self.operands(args),
            },
            Inst::Phi { .. } => unreachable!("phis are lowered to edge copies"),
            Inst::Br { target } => Op::Br {
                to: self.edge(block, *target),
            },
            Inst::CondBr {
                cond,
                then_b,
                else_b,
            } => {
                let c = self.opnd(*cond);
                let then_e = self.edge(block, *then_b);
                let else_e = self.edge(block, *else_b);
                match *cond {
                    Value::Inst(ci)
                        if matches!(
                            self.f.insts.get(ci.0 as usize),
                            Some(Inst::RemotableCheck { .. })
                        ) =>
                    {
                        Op::Dispatch {
                            cond: c,
                            then_e,
                            else_e,
                            site: self.module.sites.lookup(self.fid, ci).map(|s| s.0),
                        }
                    }
                    _ => Op::CondBr {
                        cond: c,
                        then_e,
                        else_e,
                    },
                }
            }
            Inst::Ret { val } => Op::Ret {
                val: val.map(|v| self.opnd(v)),
            },
            Inst::DsInit { meta } => {
                if meta.0 as usize >= self.module.ds_metas.len() {
                    self.malformed(format!("dsinit of nonexistent DS meta #{}", meta.0));
                }
                Op::DsInit { dst, meta: meta.0 }
            }
            Inst::DsAlloc { size, handle } => Op::DsAlloc {
                dst,
                size: self.opnd(*size),
                handle: self.opnd(*handle),
            },
            Inst::Guard { ptr, access, bytes } => Op::Guard {
                dst,
                ptr: self.opnd(*ptr),
                access: match access {
                    AccessKind::Read => Access::Read,
                    AccessKind::Write => Access::Write,
                },
                bytes: *bytes,
                site: self.module.sites.lookup(self.fid, iid).map(|s| s.0),
            },
            Inst::RemotableCheck { handles } => Op::RemotableCheck {
                dst,
                handles: self.operands(handles),
            },
        }
    }

    /// Fold a GEP's layout walk into a displacement plus dynamic terms:
    /// the first index scales by the whole pointee, later ones step into
    /// arrays, and a field index on a non-struct is ignored.
    fn gep(&mut self, dst: u32, base: Value, pointee: Type, indices: &[GepIdx]) -> Op {
        let module = self.module;
        let types = &module.types;
        let base = self.opnd(base);
        let start = self.out.terms.len() as u32;
        let mut disp = 0u64;
        let mut cur = pointee;
        for (k, ix) in indices.iter().enumerate() {
            match *ix {
                GepIdx::Field(n) => {
                    if let Type::Struct(sid) = cur {
                        let fields = &types.struct_ty(sid).fields;
                        let Some(&fty) = fields.get(n as usize) else {
                            self.malformed(format!(
                                "GEP field {n} out of range for a {}-field struct",
                                fields.len()
                            ));
                            break;
                        };
                        disp = disp.wrapping_add(types.field_offset(sid, n));
                        cur = fty;
                    }
                }
                GepIdx::Index(v) => {
                    let scale = if k == 0 {
                        types.size_of(cur)
                    } else if let Type::Array(a) = cur {
                        cur = types.array_ty(a).elem;
                        types.size_of(cur)
                    } else {
                        types.size_of(cur)
                    };
                    match self.opnd(v) {
                        Opnd::Imm(c) => disp = disp.wrapping_add(c.wrapping_mul(scale)),
                        o => self.out.terms.push((o, scale)),
                    }
                }
            }
        }
        Op::Gep {
            dst,
            base,
            disp,
            terms: Span {
                start,
                len: self.out.terms.len() as u32 - start,
            },
        }
    }
}

/// Blocks reachable from the entry over each block's first terminator
/// (anything after it never runs).
fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut work = vec![f.entry()];
    while let Some(b) = work.pop() {
        let Some(s) = seen.get_mut(b.0 as usize) else {
            continue;
        };
        if std::mem::replace(s, true) {
            continue;
        }
        let term = f
            .block(b)
            .insts
            .iter()
            .map(|&i| f.inst(i))
            .find(|i| i.is_terminator());
        if let Some(t) = term {
            work.extend(t.successors());
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use cards_ir::{
        BinOp, BlockId, CmpOp, Function, GepIdx, Inst, InstId, Intrinsic, Module, Type, Value,
    };
    use cards_net::SimTransport;
    use cards_runtime::{RemotingPolicy, RuntimeConfig};

    use crate::{Vm, VmError, VmMetrics};

    /// Run `main` of a hand-built module; `Vm::new` does not verify, so
    /// these modules reach the decoder as written.
    fn run(m: Module, args: &[u64]) -> (Result<Option<u64>, VmError>, VmMetrics) {
        let mut vm = Vm::new(
            m,
            RuntimeConfig::new(1 << 20, 1 << 20),
            SimTransport::default(),
            RemotingPolicy::Linear,
            100,
        );
        let r = vm.run("main", args);
        (r, *vm.metrics())
    }

    fn module(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    fn malformed(inst: u32, what: &str) -> VmError {
        VmError::Malformed {
            func: "main".into(),
            inst,
            what: what.into(),
        }
    }

    fn bin(op: BinOp, lhs: Value, rhs: Value) -> Inst {
        Inst::Bin {
            op,
            lhs,
            rhs,
            ty: Type::I64,
        }
    }

    #[test]
    fn phi_in_entry_block_is_malformed() {
        let mut f = Function::new("main", vec![], Type::I64);
        let e = f.entry();
        let p = f.push_inst(
            e,
            Inst::Phi {
                ty: Type::I64,
                incoming: vec![(e, Value::ConstInt(1))],
            },
        );
        f.push_inst(
            e,
            Inst::Ret {
                val: Some(Value::Inst(p)),
            },
        );
        let (r, metrics) = run(module(f), &[]);
        assert_eq!(r, Err(malformed(0, "phi in the entry block")));
        assert_eq!(metrics, VmMetrics::default(), "nothing executes");
    }

    #[test]
    fn phi_without_incoming_for_the_taken_edge_is_malformed() {
        let mut f = Function::new("main", vec![], Type::I64);
        let e = f.entry();
        let join = f.add_block();
        f.push_inst(e, Inst::Br { target: join });
        let p = f.push_inst(
            join,
            Inst::Phi {
                ty: Type::I64,
                incoming: vec![(BlockId(7), Value::ConstInt(1))],
            },
        );
        f.push_inst(
            join,
            Inst::Ret {
                val: Some(Value::Inst(p)),
            },
        );
        let (r, _) = run(module(f), &[]);
        assert_eq!(
            r,
            Err(malformed(0, "phi %1 has no incoming value for bb0 -> bb1"))
        );
    }

    #[test]
    fn intrinsic_with_wrong_arity_is_malformed_only_where_reachable() {
        let build = |reachable: bool| {
            let mut f = Function::new("main", vec![Type::I64], Type::I64);
            let e = f.entry();
            let dead = f.add_block();
            let at = if reachable { e } else { dead };
            let m = f.push_inst(
                at,
                Inst::Intrin {
                    which: Intrinsic::MinI64,
                    args: vec![Value::Arg(0)],
                },
            );
            f.push_inst(
                at,
                Inst::Ret {
                    val: Some(Value::Inst(m)),
                },
            );
            if !reachable {
                f.push_inst(
                    e,
                    Inst::Ret {
                        val: Some(Value::Arg(0)),
                    },
                );
            }
            module(f)
        };
        let (r, _) = run(build(true), &[5]);
        assert_eq!(
            r,
            Err(malformed(0, "intrinsic MinI64 takes 2 arguments, got 1"))
        );
        // The same instruction in a block no edge reaches never runs.
        let (r, _) = run(build(false), &[5]);
        assert_eq!(r, Ok(Some(5)));
    }

    #[test]
    fn gep_field_out_of_range_is_malformed() {
        let mut m = Module::new("t");
        let s = m.types.add_struct("P", vec![Type::I64, Type::I64]);
        let mut f = Function::new("main", vec![], Type::Ptr);
        let e = f.entry();
        let p = f.push_inst(
            e,
            Inst::AllocStack {
                ty: Type::Struct(s),
            },
        );
        let g = f.push_inst(
            e,
            Inst::Gep {
                base: Value::Inst(p),
                pointee: Type::Struct(s),
                indices: vec![GepIdx::Index(Value::ConstInt(0)), GepIdx::Field(5)],
            },
        );
        f.push_inst(
            e,
            Inst::Ret {
                val: Some(Value::Inst(g)),
            },
        );
        m.add_function(f);
        let (r, _) = run(m, &[]);
        assert_eq!(
            r,
            Err(malformed(
                1,
                "GEP field 5 out of range for a 2-field struct"
            ))
        );
    }

    /// Phis are one parallel assignment per edge: the back edge swaps `a`
    /// and `b`, and `c` reads the header's own phi `a` — its value from
    /// before the edge, not the one the same edge assigns.
    #[test]
    fn phi_copies_on_an_edge_are_parallel() {
        let mut f = Function::new("main", vec![Type::I64], Type::I64);
        let (entry, head, body, exit) = (f.entry(), f.add_block(), f.add_block(), f.add_block());
        f.push_inst(entry, Inst::Br { target: head });
        let (i, a, b, c) = (InstId(1), InstId(2), InstId(3), InstId(4));
        let i_next = InstId(7);
        let phi = |init: i64, back: InstId| Inst::Phi {
            ty: Type::I64,
            incoming: vec![(entry, Value::ConstInt(init)), (body, Value::Inst(back))],
        };
        assert_eq!(f.push_inst(head, phi(0, i_next)), i);
        assert_eq!(f.push_inst(head, phi(1, b)), a);
        assert_eq!(f.push_inst(head, phi(2, a)), b);
        assert_eq!(f.push_inst(head, phi(0, a)), c);
        let more = f.push_inst(
            head,
            Inst::Cmp {
                op: CmpOp::Slt,
                lhs: Value::Inst(i),
                rhs: Value::Arg(0),
            },
        );
        f.push_inst(
            head,
            Inst::CondBr {
                cond: Value::Inst(more),
                then_b: body,
                else_b: exit,
            },
        );
        let next = f.push_inst(body, bin(BinOp::Add, Value::Inst(i), Value::ConstInt(1)));
        assert_eq!(next, i_next);
        f.push_inst(body, Inst::Br { target: head });
        // result = a * 100 + b * 10 + c
        let t1 = f.push_inst(exit, bin(BinOp::Mul, Value::Inst(a), Value::ConstInt(100)));
        let t2 = f.push_inst(exit, bin(BinOp::Mul, Value::Inst(b), Value::ConstInt(10)));
        let t3 = f.push_inst(exit, bin(BinOp::Add, Value::Inst(t1), Value::Inst(t2)));
        let r = f.push_inst(exit, bin(BinOp::Add, Value::Inst(t3), Value::Inst(c)));
        f.push_inst(
            exit,
            Inst::Ret {
                val: Some(Value::Inst(r)),
            },
        );
        let m = module(f);

        // Three back edges: (a, b, c) goes (1,2,0) → (2,1,1) → (1,2,2) → (2,1,1).
        let (r, metrics) = run(m.clone(), &[3]);
        assert_eq!(r, Ok(Some(211)));
        // entry br (1) + 4 header visits × (4 phis + cmp + condbr) (24)
        // + 3 body runs × (add + br) (6) + exit (5); every op costs 1.
        assert_eq!(
            metrics,
            VmMetrics {
                cycles: 36,
                instructions: 36,
                ..VmMetrics::default()
            }
        );
        let (r, _) = run(m, &[4]);
        assert_eq!(r, Ok(Some(122)));
    }
}
