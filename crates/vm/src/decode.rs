//! The slot-operand execution form.
//!
//! [`crate::Vm::with_hints`] lowers every function of the module once into
//! a flat, index-addressed [`DecodedFn`]; the interpreter then executes
//! that form and never consults the IR on the hot path. Decoding resolves
//! everything that does not depend on run-time values:
//!
//! - every operand is a frame slot. A function's frame is
//!   `[params..][one slot per instruction..][constant tail..]`: `Arg(i)`
//!   is slot `i`, an instruction's result has its own slot, and the tail
//!   holds the function's immediates (constants, global and function
//!   addresses, `null`/`undef`, GEP displacements and scales, alloca
//!   sizes), which the VM copies into every new frame;
//! - a GEP becomes `base + disp + index × scale` with `(disp, scale)` in
//!   two adjacent tail slots, or, with more than one dynamic index, a
//!   displacement plus `(slot, scale)` terms;
//! - loads and stores carry their byte width, and loads the integer
//!   width they sign-extend from;
//! - `i64` and `f64` `bin`s that cannot trap have an op of their own, so
//!   the interpreter calls `consteval` with a constant operator and type;
//! - a `cmp` followed by the `condbr` on its result, and a single-index
//!   GEP followed by the load or store through it, fuse into one op that
//!   writes every slot the pair wrote;
//! - CFG edges (target op, phi copies, tally) and guard operands live in
//!   side tables; a versioning-dispatch branch (a `CondBr` fed by a
//!   `RemotableCheck`) is its own op carrying its `SiteTable` id;
//! - phis become per-edge parallel-copy lists performed when the branch
//!   is taken, so a block's body is straight-line ops ending in a
//!   terminator.
//!
//! Each block's instruction count, static cycles, loads and stores are
//! summed into a [`Tally`] that is charged when the block is entered: the
//! entry block's when the function is called, any other block's through
//! the edge that enters it, together with that edge's phi copies. Cycles
//! the runtime returns, and the call, guard, dispatch and remotable-check
//! counters, stay per op. [`DecodedFn::undo`] holds, per op, what the
//! block tally charged for the part of the op that never runs when it
//! fails plus every op after it, so a failed run ends with the same
//! metrics as one that charged op by op.
//!
//! Malformed IR is detected here and reported as [`VmError::Malformed`]
//! when the function is called, if it sits in a block reachable from the
//! entry.

use std::collections::HashMap;
use std::ops::{AddAssign, Range};

use cards_ir::{
    AccessKind, BinOp, BlockId, CastOp, CmpOp, FuncId, Function, GepIdx, Inst, InstId, Intrinsic,
    Module, Type, Value,
};
use cards_runtime::Access;

use crate::interp::{VmError, FUNC_BASE};
use crate::metrics::CpuModel;

/// Cycles a `dsinit` costs: registering a DS with the runtime.
const DS_INIT_CYCLES: u64 = 100;

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

/// Counters charged in bulk.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    pub(crate) instructions: u64,
    pub(crate) cycles: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.instructions += t.instructions;
        self.cycles += t.cycles;
        self.loads += t.loads;
        self.stores += t.stores;
    }
}

/// A CFG edge: the target op index, the phi copies it performs, and the
/// tally of those copies plus the target block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Edge {
    pub(crate) pc: u32,
    /// `(slot, source slot)` pairs in [`DecodedFn::copies`].
    pub(crate) copies: Span,
    /// Some copy reads a slot an earlier copy of the same edge writes, so
    /// the sources must all be read before any destination is written.
    pub(crate) parallel: bool,
    pub(crate) tally: Tally,
}

/// The static operands of a guard.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GuardInfo {
    pub(crate) access: Access,
    pub(crate) bytes: u64,
    pub(crate) site: Option<u32>,
}

/// An integer width: all that a load's extension, a `bin`'s result or a
/// cast's target needs of its type. Every type that is not a narrow
/// integer extends and masks like `i64` (see `cards_ir::consteval`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Width {
    I1,
    I8,
    I16,
    I32,
    I64,
}

impl Width {
    fn of(ty: Type) -> Width {
        match ty {
            Type::I1 => Width::I1,
            Type::I8 => Width::I8,
            Type::I16 => Width::I16,
            Type::I32 => Width::I32,
            _ => Width::I64,
        }
    }

    #[inline(always)]
    pub(crate) fn ty(self) -> Type {
        match self {
            Width::I1 => Type::I1,
            Width::I8 => Type::I8,
            Width::I16 => Type::I16,
            Width::I32 => Type::I32,
            Width::I64 => Type::I64,
        }
    }
}

/// The slots of a two-operand op.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slots {
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// One decoded operation: one IR instruction, or two for the fused
/// `CmpBr`, `GepLoad` and `GepStore`. Every operand is a frame slot;
/// `e`/`then_e`/`else_e` index [`DecodedFn::edges`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// `alloc` and `alloca` (their costs differ only in the block tally).
    Alloc {
        dst: u32,
        size: u32,
    },
    Free {
        ptr: u32,
    },
    Load {
        dst: u32,
        ptr: u32,
        width: u8,
        ext: Width,
    },
    Store {
        ptr: u32,
        val: u32,
        width: u8,
    },
    /// `base + disp + idx × scale`, `(disp, scale)` in slots `k`, `k + 1`.
    Gep {
        dst: u32,
        base: u32,
        idx: u32,
        k: u32,
    },
    /// `base + disp + Σ slot × scale` over the `terms` span, `disp` in
    /// slot `k`.
    GepN {
        dst: u32,
        base: u32,
        k: u32,
        terms: Span,
    },
    /// A `Gep` and the load through it.
    GepLoad {
        gep: u32,
        base: u32,
        idx: u32,
        k: u32,
        dst: u32,
        width: u8,
        ext: Width,
    },
    /// A `Gep` and the store through it.
    GepStore {
        gep: u32,
        base: u32,
        idx: u32,
        k: u32,
        val: u32,
        width: u8,
    },
    Bin {
        op: BinOp,
        ty: Width,
        s: Slots,
    },
    AddI64(Slots),
    SubI64(Slots),
    MulI64(Slots),
    AndI64(Slots),
    OrI64(Slots),
    XorI64(Slots),
    ShlI64(Slots),
    LShrI64(Slots),
    AShrI64(Slots),
    FAdd(Slots),
    FSub(Slots),
    FMul(Slots),
    FDiv(Slots),
    Cmp {
        op: CmpOp,
        s: Slots,
    },
    /// A `Cmp` and the `CondBr` on its result.
    CmpBr {
        op: CmpOp,
        s: Slots,
        then_e: u32,
        else_e: u32,
    },
    Cast {
        dst: u32,
        op: CastOp,
        to: Width,
        val: u32,
    },
    /// `dst = cond ? a : b`.
    Select {
        cond: u32,
        s: Slots,
    },
    /// Arity is checked at decode time; `b` is a zero slot for unary ones.
    Intrin {
        which: Intrinsic,
        s: Slots,
    },
    /// `args` spans [`DecodedFn::slots`].
    Call {
        dst: u32,
        callee: u32,
        args: Span,
    },
    CallIndirect {
        dst: u32,
        callee: u32,
        args: Span,
    },
    Br {
        e: u32,
    },
    CondBr {
        cond: u32,
        then_e: u32,
        else_e: u32,
    },
    /// A `CondBr` fed directly by a `RemotableCheck`: the versioned-loop
    /// dispatch, counted and attributed to its site.
    Dispatch {
        cond: u32,
        then_e: u32,
        else_e: u32,
        site: Option<u32>,
    },
    Ret {
        val: u32,
    },
    RetVoid,
    DsInit {
        dst: u32,
        meta: u32,
    },
    DsAlloc {
        dst: u32,
        size: u32,
        handle: u32,
    },
    /// `g` indexes [`DecodedFn::guards`].
    Guard {
        dst: u32,
        ptr: u32,
        g: u32,
    },
    /// `handles` spans [`DecodedFn::slots`].
    RemotableCheck {
        dst: u32,
        handles: Span,
    },
    /// End of a block that has no terminator (not an instruction).
    FallThrough,
}

// Side tables keep every op within 24 bytes (the decode-once form's ops,
// with their operands inline, took 64).
const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// One function in decoded form.
#[derive(Debug, Default)]
pub(crate) struct DecodedFn {
    /// Parameter slots: the declared parameters, widened to cover every
    /// `Arg` index the body uses (missing arguments read as 0).
    pub(crate) nargs: usize,
    /// Parameter plus instruction slots, zeroed in every new frame; the
    /// constant tail follows them.
    pub(crate) nlocals: usize,
    /// The constant tail.
    pub(crate) consts: Vec<u64>,
    /// Blocks laid out in index order; the entry block starts at op 0.
    pub(crate) ops: Vec<Op>,
    /// Per op: what to take back from the metrics when it fails.
    pub(crate) undo: Vec<Tally>,
    /// Charged when the function is entered.
    pub(crate) entry: Tally,
    pub(crate) edges: Vec<Edge>,
    pub(crate) copies: Vec<(u32, u32)>,
    /// `(slot, scale)` terms of multi-index GEPs.
    pub(crate) terms: Vec<(u32, u64)>,
    /// Call arguments and `RemotableCheck` handles.
    pub(crate) slots: Vec<u32>,
    pub(crate) guards: Vec<GuardInfo>,
    /// First malformation found in reachable code, raised on every call.
    pub(crate) malformed: Option<VmError>,
}

/// Decode every function of `module`, indexed by `FuncId`; `global_addr`
/// holds the native address of each global, `cpu` the cycle model the
/// block tallies charge.
pub(crate) fn decode(module: &Module, global_addr: &[u64], cpu: &CpuModel) -> Vec<DecodedFn> {
    module
        .funcs()
        .map(|(fid, f)| Decoder::new(module, global_addr, cpu, fid, f).run())
        .collect()
}

/// An op with what it charges when its block is entered and what of
/// that it never reaches when it fails.
struct Decoded {
    op: Op,
    tally: Tally,
    unrun: Tally,
}

struct Decoder<'a> {
    module: &'a Module,
    global_addr: &'a [u64],
    cpu: &'a CpuModel,
    fid: FuncId,
    f: &'a Function,
    out: DecodedFn,
    /// Tail slot of each interned constant, and of each `(disp, scale)`
    /// pair.
    const_slot: HashMap<u64, u32>,
    pair_slot: HashMap<(u64, u64), u32>,
    /// Leading phis of each block.
    phis: Vec<Vec<InstId>>,
    reachable: Vec<bool>,
    /// Whether the block being decoded is reachable from the entry.
    live: bool,
    /// The instruction being decoded (for error reports).
    cur: InstId,
}

impl<'a> Decoder<'a> {
    fn new(
        module: &'a Module,
        global_addr: &'a [u64],
        cpu: &'a CpuModel,
        fid: FuncId,
        f: &'a Function,
    ) -> Self {
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
            cpu,
            fid,
            f,
            out: DecodedFn {
                nargs,
                nlocals: nargs + f.insts.len(),
                ..DecodedFn::default()
            },
            const_slot: HashMap::new(),
            pair_slot: HashMap::new(),
            phis,
            reachable: reachable_blocks(f),
            live: false,
            cur: InstId(0),
        }
    }

    fn run(mut self) -> DecodedFn {
        let f = self.f;
        let mut block_start = Vec::with_capacity(f.blocks.len());
        let mut block_tally = Vec::with_capacity(f.blocks.len());
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
            let mut body: Vec<Decoded> = Vec::new();
            let mut terminated = false;
            for &iid in &insts[self.phis[b.0 as usize].len()..] {
                self.cur = iid;
                let inst = f.inst(iid);
                // Stray phis after the leading run are never evaluated.
                if matches!(inst, Inst::Phi { .. }) {
                    continue;
                }
                let (tally, unrun) = cost(self.cpu, inst);
                let d = Decoded {
                    op: self.op(b, iid, inst),
                    tally,
                    unrun,
                };
                if !body.last_mut().is_some_and(|prev| fuse(prev, &d)) {
                    body.push(d);
                }
                if inst.is_terminator() {
                    terminated = true;
                    break;
                }
            }
            if !terminated {
                body.push(Decoded {
                    op: Op::FallThrough,
                    tally: Tally::default(),
                    unrun: Tally::default(),
                });
            }
            block_tally.push(self.emit_block(body));
        }
        if self.out.ops.is_empty() {
            // No blocks at all: the entry falls through at once.
            self.out.ops.push(Op::FallThrough);
            self.out.undo.push(Tally::default());
        }
        self.out.entry = block_tally.first().copied().unwrap_or_default();
        // Edges were emitted with block ids; point them at op indices and
        // add the target block's tally.
        for e in &mut self.out.edges {
            let b = e.pc as usize;
            if let Some(&pc) = block_start.get(b) {
                e.pc = pc;
                e.tally += block_tally[b];
            }
        }
        self.out
    }

    /// Append one block's ops with their take-backs; returns its tally.
    fn emit_block(&mut self, body: Vec<Decoded>) -> Tally {
        let mut after = Tally::default();
        let mut undo: Vec<Tally> = body
            .iter()
            .rev()
            .map(|d| {
                let mut u = d.unrun;
                u += after;
                after += d.tally;
                u
            })
            .collect();
        undo.reverse();
        self.out.undo.extend(undo);
        self.out.ops.extend(body.into_iter().map(|d| d.op));
        after
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

    /// The tail slot holding `v`.
    fn konst(&mut self, v: u64) -> u32 {
        let next = (self.out.nlocals + self.out.consts.len()) as u32;
        *self.const_slot.entry(v).or_insert_with(|| {
            self.out.consts.push(v);
            next
        })
    }

    /// The first of two adjacent tail slots holding `disp` and `scale`.
    fn pair(&mut self, disp: u64, scale: u64) -> u32 {
        let next = (self.out.nlocals + self.out.consts.len()) as u32;
        *self.pair_slot.entry((disp, scale)).or_insert_with(|| {
            self.out.consts.extend([disp, scale]);
            next
        })
    }

    /// The value `v` as a constant, if it is one.
    fn imm(&mut self, v: Value) -> Option<u64> {
        match v {
            Value::Arg(_) | Value::Inst(_) => None,
            Value::ConstInt(c) => Some(c as u64),
            Value::ConstFloat(b) => Some(b),
            Value::Global(g) => match self.global_addr.get(g.0 as usize) {
                Some(&a) => Some(a),
                None => {
                    self.malformed(format!("global @{} does not exist", g.0));
                    Some(0)
                }
            },
            Value::Func(fid) => Some(FUNC_BASE + fid.0 as u64),
            Value::Null | Value::Undef => Some(0),
        }
    }

    fn opnd(&mut self, v: Value) -> u32 {
        match v {
            Value::Arg(i) => i as u32,
            Value::Inst(i) if (i.0 as usize) < self.f.insts.len() => self.slot(i),
            Value::Inst(i) => {
                self.malformed(format!("operand %{} is not an instruction", i.0));
                self.konst(0)
            }
            _ => {
                let c = self.imm(v).expect("constants are immediates");
                self.konst(c)
            }
        }
    }

    fn operands(&mut self, vs: &[Value]) -> Span {
        let start = self.out.slots.len() as u32;
        for &v in vs {
            let o = self.opnd(v);
            self.out.slots.push(o);
        }
        Span {
            start,
            len: vs.len() as u32,
        }
    }

    /// The edge `from → to` with the phi copies of `to` for it, as an
    /// index into [`DecodedFn::edges`]. The `pc` holds the block id until
    /// [`Self::run`] resolves it.
    fn edge(&mut self, from: BlockId, to: BlockId) -> u32 {
        let id = self.out.edges.len() as u32;
        let start = self.out.copies.len() as u32;
        let Some(nphis) = self.phis.get(to.0 as usize).map(Vec::len) else {
            self.malformed(format!("branch to nonexistent bb{}", to.0));
            self.out.edges.push(Edge {
                pc: u32::MAX,
                copies: Span::default(),
                parallel: false,
                tally: Tally::default(),
            });
            return id;
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
            .any(|(j, &(_, src))| copies[..j].iter().any(|&(dst, _)| src == dst));
        let n = copies.len() as u64;
        self.out.edges.push(Edge {
            pc: to.0,
            copies: Span {
                start,
                len: n as u32,
            },
            parallel,
            tally: Tally {
                instructions: n,
                cycles: self.cpu.alu * n,
                ..Tally::default()
            },
        });
        id
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
            Inst::AllocStack { ty } => Op::Alloc {
                dst,
                size: self.konst(types.size_of(*ty)),
            },
            Inst::Free { ptr } => Op::Free {
                ptr: self.opnd(*ptr),
            },
            Inst::Load { ptr, ty } => Op::Load {
                dst,
                ptr: self.opnd(*ptr),
                width: width(*ty),
                ext: Width::of(*ty),
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
            Inst::Bin { op, lhs, rhs, ty } => {
                let (a, b) = (self.opnd(*lhs), self.opnd(*rhs));
                bin(*op, Width::of(*ty), Slots { dst, a, b })
            }
            Inst::Cmp { op, lhs, rhs } => Op::Cmp {
                op: *op,
                s: Slots {
                    dst,
                    a: self.opnd(*lhs),
                    b: self.opnd(*rhs),
                },
            },
            Inst::Cast { op, val, to } => Op::Cast {
                dst,
                op: *op,
                to: Width::of(*to),
                val: self.opnd(*val),
            },
            Inst::Select {
                cond,
                then_v,
                else_v,
                ..
            } => Op::Select {
                cond: self.opnd(*cond),
                s: Slots {
                    dst,
                    a: self.opnd(*then_v),
                    b: self.opnd(*else_v),
                },
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
                    None => self.konst(0),
                };
                let (a, b) = (arg(0), arg(1));
                Op::Intrin {
                    which: *which,
                    s: Slots { dst, a, b },
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
                e: self.edge(block, *target),
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
            Inst::Ret { val } => match val {
                Some(v) => Op::Ret { val: self.opnd(*v) },
                None => Op::RetVoid,
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
            Inst::Guard { ptr, access, bytes } => {
                let g = self.out.guards.len() as u32;
                self.out.guards.push(GuardInfo {
                    access: match access {
                        AccessKind::Read => Access::Read,
                        AccessKind::Write => Access::Write,
                    },
                    bytes: *bytes,
                    site: self.module.sites.lookup(self.fid, iid).map(|s| s.0),
                });
                Op::Guard {
                    dst,
                    ptr: self.opnd(*ptr),
                    g,
                }
            }
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
        let mut terms = Vec::new();
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
                    match self.imm(v) {
                        Some(c) => disp = disp.wrapping_add(c.wrapping_mul(scale)),
                        None => terms.push((self.opnd(v), scale)),
                    }
                }
            }
        }
        match terms[..] {
            [] => {
                let idx = self.konst(0);
                Op::Gep {
                    dst,
                    base,
                    idx,
                    k: self.pair(disp, 0),
                }
            }
            [(idx, scale)] => Op::Gep {
                dst,
                base,
                idx,
                k: self.pair(disp, scale),
            },
            _ => {
                let start = self.out.terms.len() as u32;
                self.out.terms.extend(&terms);
                Op::GepN {
                    dst,
                    base,
                    k: self.konst(disp),
                    terms: Span {
                        start,
                        len: terms.len() as u32,
                    },
                }
            }
        }
    }
}

/// What `inst` charges when its block is entered, and the part of that
/// it has not charged yet when it fails. A call charges its own cycles
/// with its `calls` count; guards and remotable checks charge what the
/// runtime returns.
fn cost(cpu: &CpuModel, inst: &Inst) -> (Tally, Tally) {
    let cycles = match inst {
        Inst::Alloc { .. } | Inst::DsAlloc { .. } => cpu.alloc,
        Inst::AllocStack { .. } => cpu.alloc / 10 + 1,
        Inst::Free { .. } => cpu.alloc / 2,
        Inst::Load { .. } | Inst::Store { .. } => cpu.mem,
        Inst::Gep { .. }
        | Inst::Bin { .. }
        | Inst::Cmp { .. }
        | Inst::Cast { .. }
        | Inst::Select { .. } => cpu.alu,
        Inst::Intrin { .. } => cpu.intrin,
        Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => cpu.branch,
        Inst::DsInit { .. } => DS_INIT_CYCLES,
        Inst::Call { .. }
        | Inst::CallIndirect { .. }
        | Inst::Guard { .. }
        | Inst::RemotableCheck { .. }
        | Inst::Phi { .. } => 0,
    };
    let tally = Tally {
        instructions: 1,
        cycles,
        loads: matches!(inst, Inst::Load { .. }) as u64,
        stores: matches!(inst, Inst::Store { .. }) as u64,
    };
    // A failed load or `dsalloc` counts as an instruction and nothing
    // more; every other op fails after charging its costs.
    let unrun = match inst {
        Inst::Load { .. } | Inst::DsAlloc { .. } => Tally {
            instructions: 0,
            ..tally
        },
        _ => Tally::default(),
    };
    (tally, unrun)
}

/// The op for `bin op a, b` at width `ty`: the `i64` and `f64` operators
/// that cannot trap have ops of their own (a float operator ignores the
/// width).
fn bin(op: BinOp, ty: Width, s: Slots) -> Op {
    match (op, ty) {
        (BinOp::Add, Width::I64) => Op::AddI64(s),
        (BinOp::Sub, Width::I64) => Op::SubI64(s),
        (BinOp::Mul, Width::I64) => Op::MulI64(s),
        (BinOp::And, Width::I64) => Op::AndI64(s),
        (BinOp::Or, Width::I64) => Op::OrI64(s),
        (BinOp::Xor, Width::I64) => Op::XorI64(s),
        (BinOp::Shl, Width::I64) => Op::ShlI64(s),
        (BinOp::LShr, Width::I64) => Op::LShrI64(s),
        (BinOp::AShr, Width::I64) => Op::AShrI64(s),
        (BinOp::FAdd, _) => Op::FAdd(s),
        (BinOp::FSub, _) => Op::FSub(s),
        (BinOp::FMul, _) => Op::FMul(s),
        (BinOp::FDiv, _) => Op::FDiv(s),
        _ => Op::Bin { op, ty, s },
    }
}

/// Fuse `next` into `prev` when `prev` computes what `next` consumes: a
/// `Cmp` and the `CondBr` on its result, or a single-index `Gep` and the
/// load or store through it. The fused op charges both tallies and, since
/// the first of each pair cannot fail, takes back what the second does.
fn fuse(prev: &mut Decoded, next: &Decoded) -> bool {
    let op = match (prev.op, next.op) {
        (
            Op::Cmp { op, s },
            Op::CondBr {
                cond,
                then_e,
                else_e,
            },
        ) if cond == s.dst => Op::CmpBr {
            op,
            s,
            then_e,
            else_e,
        },
        (
            Op::Gep { dst, base, idx, k },
            Op::Load {
                dst: ld,
                ptr,
                width,
                ext,
            },
        ) if ptr == dst => Op::GepLoad {
            gep: dst,
            base,
            idx,
            k,
            dst: ld,
            width,
            ext,
        },
        (Op::Gep { dst, base, idx, k }, Op::Store { ptr, val, width }) if ptr == dst => {
            Op::GepStore {
                gep: dst,
                base,
                idx,
                k,
                val,
                width,
            }
        }
        _ => return false,
    };
    prev.op = op;
    prev.tally += next.tally;
    prev.unrun = next.unrun;
    true
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

    /// Every `bin` and `cmp` the VM executes, through an op of its own or
    /// the generic one, and a `cmp` fused with its branch, compute what
    /// `consteval` does, over SplitMix64 operands and corner cases.
    #[test]
    fn bin_and_cmp_ops_agree_with_consteval() {
        use cards_ir::consteval::{eval_bin, eval_cmp};
        use cards_ir::FunctionBuilder;
        let corners = [
            0,
            1,
            u64::MAX,
            i64::MIN as u64,
            i64::MAX as u64,
            0x80,
            0x7fff_ffff,
            31,
            63,
            64,
            65,
            1.5f64.to_bits(),
            f64::NAN.to_bits(),
        ];
        let mut operands: Vec<(u64, u64)> = corners
            .iter()
            .flat_map(|&a| corners.iter().map(move |&b| (a, b)))
            .collect();
        operands.extend((0..64u64).map(|i| (crate::splitmix64(i), crate::splitmix64(!i) % 130)));
        let vm_of = |b: FunctionBuilder| {
            let mut m = Module::new("t");
            m.add_function(b.finish());
            Vm::new(
                m,
                RuntimeConfig::new(1 << 20, 1 << 20),
                SimTransport::default(),
                RemotingPolicy::Linear,
                100,
            )
        };
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::UDiv,
            BinOp::SRem,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
        ];
        let tys = [
            Type::I8,
            Type::I16,
            Type::I32,
            Type::I64,
            Type::F64,
            Type::Ptr,
        ];
        for op in ops {
            for ty in tys {
                let mut b = FunctionBuilder::new("main", vec![Type::I64, Type::I64], ty);
                let r = b.bin(op, b.arg(0), b.arg(1), ty);
                b.ret(r);
                let mut vm = vm_of(b);
                for &(x, y) in &operands {
                    let want = eval_bin(op, x, y, ty)
                        .map(Some)
                        .map_err(|_| VmError::DivByZero);
                    assert_eq!(vm.run("main", &[x, y]), want, "{op:?} {ty:?} {x:#x} {y:#x}");
                }
            }
        }
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Slt,
            CmpOp::Sle,
            CmpOp::Sgt,
            CmpOp::Sge,
            CmpOp::Ult,
            CmpOp::Ule,
            CmpOp::Ugt,
            CmpOp::Uge,
            CmpOp::FEq,
            CmpOp::FNe,
            CmpOp::FLt,
            CmpOp::FLe,
            CmpOp::FGt,
            CmpOp::FGe,
        ];
        for op in cmps {
            // A plain `cmp`, and one fused with the branch on it.
            let mut b = FunctionBuilder::new("main", vec![Type::I64, Type::I64], Type::I64);
            let c = b.cmp(op, b.arg(0), b.arg(1));
            b.ret(c);
            let mut plain = vm_of(b);
            let mut b = FunctionBuilder::new("main", vec![Type::I64, Type::I64], Type::I64);
            let (t, e) = (b.new_block(), b.new_block());
            let c = b.cmp(op, b.arg(0), b.arg(1));
            b.cond_br(c, t, e);
            b.switch_to(t);
            b.ret(b.iconst(1));
            b.switch_to(e);
            b.ret(b.iconst(0));
            let mut fused = vm_of(b);
            for &(x, y) in &operands {
                let want = Ok(Some(eval_cmp(op, x, y) as u64));
                assert_eq!(plain.run("main", &[x, y]), want, "{op:?} {x:#x} {y:#x}");
                assert_eq!(fused.run("main", &[x, y]), want, "{op:?} {x:#x} {y:#x}");
            }
        }
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
