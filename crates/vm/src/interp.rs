//! The IR interpreter.
//!
//! Pointers are 64-bit values in two spaces:
//! - **native** (untagged, bits 48–63 zero): VM-managed flat memory for
//!   globals, stack slots and plain (non-DS) heap allocations;
//! - **far** (tagged): routed through [`cards_runtime::FarMemRuntime`],
//!   exactly as the custody check of Figure 3 separates them.
//!
//! The VM executes far-memory extension instructions (`dsinit`, `dsalloc`,
//! `guard`, `remotable`) literally, so guard counts, elisions and fast-path
//! dispatches are *measured*, not estimated. It executes the decode-once
//! form (`decode.rs`) built when the VM is constructed.

use std::sync::Arc;

use cards_ir::{BinOp, CastOp, CmpOp, DsMeta, DsMetaId, Intrinsic, Module, Type, Value};
use cards_net::Transport;
use cards_runtime::telemetry::EventKind;
use cards_runtime::{
    assign_hints_explained, DsSpec, FarMemRuntime, FarPtr, RemotingPolicy, RtError, RuntimeConfig,
    StaticHint,
};

use crate::decode::{decode, DecodedFn, Edge, Op, Opnd};
use crate::metrics::{CpuModel, VmMetrics};

/// Base of the native address space (so null and small ints never alias).
const NATIVE_BASE: u64 = 0x1_0000;
/// Encoded "address" of function `f` is `FUNC_BASE + f` (for indirect calls).
pub(crate) const FUNC_BASE: u64 = 0x7000_0000_0000;

/// VM failures (all are hard stops; the VM is deterministic).
#[derive(Clone, Debug, PartialEq)]
pub enum VmError {
    /// Named function not found.
    NoSuchFunction(String),
    /// Access outside native memory.
    NativeOob {
        /// Offending address.
        addr: u64,
        /// Bytes attempted.
        bytes: u64,
    },
    /// Division or remainder by zero.
    DivByZero,
    /// Call depth exceeded the configured limit.
    StackOverflow,
    /// Error surfaced by the far-memory runtime.
    Runtime(RtError),
    /// Indirect call through a value that is not a function address.
    BadIndirectCall(u64),
    /// Block ended without a terminator (verifier should prevent this).
    MissingTerminator,
    /// The called function holds IR the VM cannot execute, found when the
    /// module was decoded.
    Malformed {
        /// Function name.
        func: String,
        /// Arena id of the offending instruction.
        inst: u32,
        /// What is wrong.
        what: String,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NoSuchFunction(n) => write!(f, "no function @{n}"),
            VmError::NativeOob { addr, bytes } => {
                write!(f, "native access {bytes}B @ {addr:#x} out of bounds")
            }
            VmError::DivByZero => write!(f, "integer division by zero"),
            VmError::StackOverflow => write!(f, "call depth limit exceeded"),
            VmError::Runtime(e) => write!(f, "runtime: {e}"),
            VmError::BadIndirectCall(v) => write!(f, "indirect call to non-function {v:#x}"),
            VmError::MissingTerminator => write!(f, "block fell through"),
            VmError::Malformed { func, inst, what } => {
                write!(f, "malformed IR in @{func} at %{inst}: {what}")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<RtError> for VmError {
    fn from(e: RtError) -> Self {
        VmError::Runtime(e)
    }
}

/// The virtual machine: one module + one far-memory runtime.
pub struct Vm<T: Transport> {
    module: Module,
    runtime: FarMemRuntime<T>,
    cpu: CpuModel,
    native: Vec<u8>,
    global_addr: Vec<u64>,
    /// Remoting hints per DsMeta id, fixed at VM construction.
    hints: Vec<StaticHint>,
    /// Meta id of each runtime DS registration, in handle order.
    registrations: Vec<u32>,
    metrics: VmMetrics,
    max_depth: usize,
    /// The module in decode-once form, indexed by `FuncId` (shared so
    /// execution can borrow it while mutating the VM).
    prog: Arc<[DecodedFn]>,
    /// Released call frames, reused by later calls.
    frames: Vec<Vec<u64>>,
    /// Scratch for a `RemotableCheck`'s evaluated handles.
    handles: Vec<u16>,
    /// Scratch for the sources of a parallel phi copy.
    phi_tmp: Vec<u64>,
}

impl<T: Transport> Vm<T> {
    /// Build a VM for `module` with the given runtime budgets, transport
    /// and remoting policy (applied to the module's DS metadata with
    /// threshold `k_percent`).
    pub fn new(
        module: Module,
        rt_config: RuntimeConfig,
        transport: T,
        policy: RemotingPolicy,
        k_percent: u32,
    ) -> Self {
        let specs: Vec<DsSpec> = module
            .ds_metas
            .iter()
            .map(|m| spec_from_meta(&module, m))
            .collect();
        let (hints, decisions) = assign_hints_explained(&specs, policy, k_percent);
        let mut vm = Self::with_hints(module, rt_config, transport, hints);
        // Record why each DS was (not) pinned on the telemetry timeline.
        for d in decisions {
            let cycle = vm.runtime.now();
            vm.runtime.telemetry_mut().emit(
                cycle,
                EventKind::PolicyDecision {
                    ds: d.index as u16,
                    pinned: d.hint == StaticHint::Pinned,
                    why: d.why,
                },
            );
        }
        vm
    }

    /// Build a VM with explicit per-meta remoting hints (used by the
    /// profile-guided Mira baseline, which derives hints from a prior run).
    pub fn with_hints(
        module: Module,
        rt_config: RuntimeConfig,
        transport: T,
        hints: Vec<StaticHint>,
    ) -> Self {
        assert_eq!(hints.len(), module.ds_metas.len(), "one hint per DS meta");
        let runtime = FarMemRuntime::new(rt_config, transport);
        let native = vec![0; NATIVE_BASE as usize];
        let mut vm = Vm {
            module,
            runtime,
            cpu: CpuModel::default(),
            native,
            global_addr: Vec::new(),
            hints,
            registrations: Vec::new(),
            metrics: VmMetrics::default(),
            max_depth: 120,
            prog: Vec::new().into(),
            frames: Vec::new(),
            handles: Vec::new(),
            phi_tmp: Vec::new(),
        };
        vm.layout_globals();
        vm.prog = decode(&vm.module, &vm.global_addr).into();
        vm
    }

    fn layout_globals(&mut self) {
        for gi in 0..self.module.globals.len() {
            let g = &self.module.globals[gi];
            let sz = self.module.types.size_of(g.ty).max(8);
            let init = g.init;
            let addr = self.native_alloc(sz);
            self.global_addr.push(addr);
            if let Some(v) = init {
                let bits = match v {
                    Value::ConstInt(c) => c as u64,
                    Value::ConstFloat(b) => b,
                    Value::Null => 0,
                    _ => 0,
                };
                let s = self.module.types.size_of(self.module.globals[gi].ty).min(8) as usize;
                let a = addr as usize;
                self.native[a..a + s].copy_from_slice(&bits.to_le_bytes()[..s]);
            }
        }
    }

    fn native_alloc(&mut self, size: u64) -> u64 {
        let addr = (self.native.len() as u64 + 15) & !15;
        self.native.resize((addr + size.max(1)) as usize, 0);
        addr
    }

    /// Run function `name` with integer arguments. Returns its result bits.
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<Option<u64>, VmError> {
        let fid = self
            .module
            .func_by_name(name)
            .ok_or_else(|| VmError::NoSuchFunction(name.to_string()))?;
        let prog = Arc::clone(&self.prog);
        let frame = self.new_frame(&prog[fid.0 as usize], args.iter().copied());
        self.call_function(&prog, fid.0 as usize, frame, 0)
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &VmMetrics {
        &self.metrics
    }

    /// The far-memory runtime (per-DS stats, network stats).
    pub fn runtime(&self) -> &FarMemRuntime<T> {
        &self.runtime
    }

    /// Mutable runtime access — lets harnesses install pressure schedules
    /// or force flushes between (not during) executions.
    pub fn runtime_mut(&mut self) -> &mut FarMemRuntime<T> {
        &mut self.runtime
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Remoting hints chosen for each DS meta.
    pub fn hints(&self) -> &[StaticHint] {
        &self.hints
    }

    /// Current 8-byte little-endian value of global `name` in native
    /// memory. Globals live in local memory under every configuration, so
    /// this is a layout-independent observable — the differential-testing
    /// oracle reads the generated programs' `@digest` global through it.
    pub fn global_u64(&self, name: &str) -> Option<u64> {
        let gi = self.module.globals.iter().position(|g| g.name == name)?;
        let addr = *self.global_addr.get(gi)? as usize;
        let bytes = self.native.get(addr..addr + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Meta id of each runtime DS registration, indexed by runtime handle.
    pub fn registrations(&self) -> &[u32] {
        &self.registrations
    }

    /// Override the recursion depth limit (default 120; interpreter frames
    /// are large, so raise this only with a correspondingly larger thread
    /// stack).
    pub fn set_max_depth(&mut self, d: usize) {
        self.max_depth = d;
    }

    fn charge(&mut self, c: u64) {
        self.metrics.cycles += c;
    }

    /// A zeroed frame for `f` (reusing a released one when there is one)
    /// with its parameter slots taken from `args`; surplus arguments are
    /// dropped and missing ones read as 0.
    fn new_frame(&mut self, f: &DecodedFn, args: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        frame.resize(f.nslots, 0);
        for (slot, a) in frame.iter_mut().zip(args.take(f.nargs)) {
            *slot = a;
        }
        frame
    }

    /// Run function `fid` of `prog` over `frame`, whose parameter slots
    /// the caller has filled. The frame returns to the pool afterwards.
    fn call_function(
        &mut self,
        prog: &[DecodedFn],
        fid: usize,
        mut frame: Vec<u64>,
        depth: usize,
    ) -> Result<Option<u64>, VmError> {
        let f = &prog[fid];
        let r = if depth > self.max_depth {
            Err(VmError::StackOverflow)
        } else if let Some(e) = &f.malformed {
            Err(e.clone())
        } else {
            self.exec(prog, f, &mut frame, depth)
        };
        self.frames.push(frame);
        r
    }

    /// Evaluate call arguments from the caller's `frame` into a fresh
    /// frame for `callee`, then run it.
    fn call(
        &mut self,
        prog: &[DecodedFn],
        callee: usize,
        args: &[Opnd],
        frame: &[u64],
        depth: usize,
    ) -> Result<u64, VmError> {
        let args = args.iter().map(|a| a.eval(frame));
        let callee_frame = self.new_frame(&prog[callee], args);
        self.metrics.calls += 1;
        self.charge(self.cpu.call);
        Ok(self
            .call_function(prog, callee, callee_frame, depth + 1)?
            .unwrap_or(0))
    }

    /// Take `e`: perform its phi copies (as one parallel assignment, each
    /// copy one executed phi) and return the target op index.
    fn take_edge(&mut self, f: &DecodedFn, e: Edge, frame: &mut [u64]) -> usize {
        let copies = &f.copies[e.copies.range()];
        if e.parallel {
            self.phi_tmp.clear();
            self.phi_tmp
                .extend(copies.iter().map(|&(_, src)| src.eval(frame)));
            for (&(dst, _), &v) in copies.iter().zip(&self.phi_tmp) {
                frame[dst as usize] = v;
            }
        } else {
            for &(dst, src) in copies {
                frame[dst as usize] = src.eval(frame);
            }
        }
        let n = copies.len() as u64;
        self.metrics.instructions += n;
        self.charge(self.cpu.alu * n);
        e.pc as usize
    }

    fn exec(
        &mut self,
        prog: &[DecodedFn],
        f: &DecodedFn,
        frame: &mut [u64],
        depth: usize,
    ) -> Result<Option<u64>, VmError> {
        let mut pc = 0;
        loop {
            let op = f.ops[pc];
            pc += 1;
            self.metrics.instructions += 1;
            match op {
                Op::Alloc { dst, size } => {
                    let sz = size.eval(frame);
                    self.charge(self.cpu.alloc);
                    frame[dst as usize] = self.native_alloc(sz);
                }
                Op::AllocStack { dst, size } => {
                    self.charge(self.cpu.alloc / 10 + 1);
                    frame[dst as usize] = self.native_alloc(size);
                }
                Op::Free { ptr } => {
                    let fp = FarPtr(ptr.eval(frame));
                    self.charge(self.cpu.alloc / 2);
                    if fp.is_tagged() {
                        let c = self.runtime.free(fp)?;
                        self.charge(c);
                    }
                }
                Op::Load {
                    dst,
                    ptr,
                    width,
                    ty,
                } => {
                    let v = self.mem_read(ptr.eval(frame), width as usize, ty)?;
                    self.metrics.loads += 1;
                    self.charge(self.cpu.mem);
                    frame[dst as usize] = v;
                }
                Op::Store { ptr, val, width } => {
                    let (p, v) = (ptr.eval(frame), val.eval(frame));
                    self.metrics.stores += 1;
                    self.charge(self.cpu.mem);
                    self.mem_write(p, v, width as usize)?;
                }
                Op::Gep {
                    dst,
                    base,
                    disp,
                    terms,
                } => {
                    let mut a = base.eval(frame).wrapping_add(disp);
                    for &(o, scale) in &f.terms[terms.range()] {
                        a = a.wrapping_add(o.eval(frame).wrapping_mul(scale));
                    }
                    self.charge(self.cpu.alu);
                    frame[dst as usize] = a;
                }
                Op::Bin {
                    dst,
                    op,
                    lhs,
                    rhs,
                    ty,
                } => {
                    let (a, b) = (lhs.eval(frame), rhs.eval(frame));
                    self.charge(self.cpu.alu);
                    frame[dst as usize] = bin_op(op, a, b, ty)?;
                }
                Op::Cmp { dst, op, lhs, rhs } => {
                    let (a, b) = (lhs.eval(frame), rhs.eval(frame));
                    self.charge(self.cpu.alu);
                    frame[dst as usize] = cmp_op(op, a, b) as u64;
                }
                Op::Cast { dst, op, val, to } => {
                    let v = val.eval(frame);
                    self.charge(self.cpu.alu);
                    frame[dst as usize] = cast_op(op, v, to);
                }
                Op::Select {
                    dst,
                    cond,
                    then_v,
                    else_v,
                } => {
                    self.charge(self.cpu.alu);
                    frame[dst as usize] = if cond.eval(frame) != 0 {
                        then_v.eval(frame)
                    } else {
                        else_v.eval(frame)
                    };
                }
                Op::Intrin { dst, which, a, b } => {
                    let (a, b) = (a.eval(frame), b.eval(frame));
                    self.charge(self.cpu.intrin);
                    frame[dst as usize] = intrin_op(which, a, b);
                }
                Op::Call { dst, callee, args } => {
                    let args = &f.operands[args.range()];
                    frame[dst as usize] = self.call(prog, callee as usize, args, frame, depth)?;
                }
                Op::CallIndirect { dst, callee, args } => {
                    let target = callee.eval(frame);
                    if !(FUNC_BASE..FUNC_BASE + prog.len() as u64).contains(&target) {
                        return Err(VmError::BadIndirectCall(target));
                    }
                    let args = &f.operands[args.range()];
                    let callee = (target - FUNC_BASE) as usize;
                    frame[dst as usize] = self.call(prog, callee, args, frame, depth)?;
                }
                Op::Br { to } => {
                    self.charge(self.cpu.branch);
                    pc = self.take_edge(f, to, frame);
                }
                Op::CondBr {
                    cond,
                    then_e,
                    else_e,
                } => {
                    let c = cond.eval(frame);
                    self.charge(self.cpu.branch);
                    pc = self.take_edge(f, if c != 0 { then_e } else { else_e }, frame);
                }
                Op::Dispatch {
                    cond,
                    then_e,
                    else_e,
                    site,
                } => {
                    let slow = cond.eval(frame) != 0;
                    self.charge(self.cpu.branch);
                    if slow {
                        self.metrics.slow_path_taken += 1;
                    } else {
                        self.metrics.fast_path_taken += 1;
                    }
                    let cycle = self.runtime.now();
                    self.runtime
                        .telemetry_mut()
                        .emit(cycle, EventKind::Dispatch { slow });
                    if let Some(site) = site {
                        self.runtime.profiler_mut().on_dispatch(site, slow);
                    }
                    pc = self.take_edge(f, if slow { then_e } else { else_e }, frame);
                }
                Op::Ret { val } => {
                    self.charge(self.cpu.branch);
                    return Ok(val.map(|v| v.eval(frame)));
                }
                Op::DsInit { dst, meta } => {
                    let spec = spec_from_meta(&self.module, self.module.ds_meta(DsMetaId(meta)));
                    let hint = self.hints[meta as usize];
                    let h = self.runtime.register_ds(spec, hint);
                    self.registrations.push(meta);
                    self.charge(100);
                    frame[dst as usize] = h as u64;
                }
                Op::DsAlloc { dst, size, handle } => {
                    let sz = size.eval(frame);
                    let h = handle.eval(frame) as u16;
                    let (p, c) = self.runtime.ds_alloc(h, sz)?;
                    self.charge(self.cpu.alloc + c);
                    frame[dst as usize] = p.bits();
                }
                Op::Guard {
                    dst,
                    ptr,
                    access,
                    bytes,
                    site,
                } => {
                    let p = ptr.eval(frame);
                    self.metrics.guards += 1;
                    // Surface the executing site to the profiler so the
                    // runtime charges this check's cost to it.
                    self.runtime.profiler_mut().set_current(site);
                    let r = self.runtime.guard(FarPtr(p), access, bytes);
                    self.runtime.profiler_mut().set_current(None);
                    let c = r?;
                    self.charge(c);
                    frame[dst as usize] = p; // localized ptr == same bits
                }
                Op::RemotableCheck { dst, handles } => {
                    self.handles.clear();
                    self.handles.extend(
                        f.operands[handles.range()]
                            .iter()
                            .map(|h| h.eval(frame) as u16),
                    );
                    self.metrics.remotable_checks += 1;
                    let (any, c) = self.runtime.remotable_check(&self.handles);
                    self.charge(c);
                    frame[dst as usize] = any as u64;
                }
                Op::FallThrough => {
                    // Not an instruction: the block simply ended.
                    self.metrics.instructions -= 1;
                    return Err(VmError::MissingTerminator);
                }
            }
        }
    }

    fn mem_read(&mut self, ptr: u64, size: usize, ty: Type) -> Result<u64, VmError> {
        let mut buf = [0u8; 8];
        let fp = FarPtr(ptr);
        if fp.is_tagged() {
            let c = self.runtime.read(fp, &mut buf[..size])?;
            self.charge(c);
        } else {
            let a = self.native_index(ptr, size)?;
            buf[..size].copy_from_slice(&self.native[a..a + size]);
        }
        Ok(extend(u64::from_le_bytes(buf), ty))
    }

    fn mem_write(&mut self, ptr: u64, val: u64, size: usize) -> Result<(), VmError> {
        let bytes = val.to_le_bytes();
        let fp = FarPtr(ptr);
        if fp.is_tagged() {
            let c = self.runtime.write(fp, &bytes[..size])?;
            self.charge(c);
        } else {
            let a = self.native_index(ptr, size)?;
            self.native[a..a + size].copy_from_slice(&bytes[..size]);
        }
        Ok(())
    }

    /// Bounds-check a native access of `size` bytes at `ptr`.
    fn native_index(&self, ptr: u64, size: usize) -> Result<usize, VmError> {
        let a = ptr as usize;
        if a < NATIVE_BASE as usize || a.saturating_add(size) > self.native.len() {
            return Err(VmError::NativeOob {
                addr: ptr,
                bytes: size as u64,
            });
        }
        Ok(a)
    }
}

/// Lower a compiler [`DsMeta`] to the runtime's [`DsSpec`].
pub fn spec_from_meta(module: &Module, meta: &DsMeta) -> DsSpec {
    let elem_bytes = meta.elem_ty.map(|t| module.types.size_of(t));
    let ptr_offsets = meta
        .elem_ty
        .map(|t| module.types.pointer_field_offsets(t))
        .unwrap_or_default();
    DsSpec {
        name: meta.name.clone(),
        object_bytes: meta.object_bytes,
        elem_bytes,
        ptr_offsets,
        recursive: meta.recursive,
        prefetch: match meta.prefetch {
            cards_ir::PrefetchKind::None => cards_runtime::PrefetchKind::None,
            cards_ir::PrefetchKind::Stride => cards_runtime::PrefetchKind::Stride,
            cards_ir::PrefetchKind::GreedyRecursive => cards_runtime::PrefetchKind::GreedyRecursive,
            cards_ir::PrefetchKind::JumpPointer => cards_runtime::PrefetchKind::JumpPointer,
        },
        priority: cards_runtime::DsPriority {
            program_order: meta.priority.program_order,
            reach_depth: meta.priority.reach_depth,
            use_score: meta.priority.use_score,
        },
    }
}

fn extend(raw: u64, ty: Type) -> u64 {
    cards_ir::consteval::extend(raw, ty)
}

fn width_mask(ty: Type) -> u64 {
    cards_ir::consteval::width_mask(ty)
}

/// Binary-op semantics are shared with the optimizer's constant folder
/// (`cards_ir::consteval`) so the two can never drift apart.
fn bin_op(op: BinOp, a: u64, b: u64, ty: Type) -> Result<u64, VmError> {
    cards_ir::consteval::eval_bin(op, a, b, ty).map_err(|_| VmError::DivByZero)
}

fn cmp_op(op: CmpOp, a: u64, b: u64) -> bool {
    cards_ir::consteval::eval_cmp(op, a, b)
}

fn cast_op(op: CastOp, v: u64, to: Type) -> u64 {
    match op {
        CastOp::IntResize => extend(v & width_mask(to), to),
        CastOp::ZExt => v & width_mask(to),
        CastOp::SiToFp => (v as i64 as f64).to_bits(),
        CastOp::FpToSi => (f64::from_bits(v) as i64) as u64,
        CastOp::PtrToInt | CastOp::IntToPtr | CastOp::PtrCast => v,
    }
}

fn intrin_op(which: Intrinsic, a: u64, b: u64) -> u64 {
    match which {
        Intrinsic::Hash64 => splitmix64(a),
        Intrinsic::Sqrt => f64::from_bits(a).sqrt().to_bits(),
        Intrinsic::AbsI64 => (a as i64).wrapping_abs() as u64,
        Intrinsic::MinI64 => (a as i64).min(b as i64) as u64,
        Intrinsic::MaxI64 => (a as i64).max(b as i64) as u64,
    }
}

/// SplitMix64 finalizer: the `hash64` intrinsic.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
