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
//! dispatches are *measured*, not estimated. It executes the
//! slot-operand form (`decode.rs`) built when the VM is constructed.

use std::sync::Arc;

use cards_ir::{BinOp, CastOp, CmpOp, DsMeta, DsMetaId, Intrinsic, Module, Type, Value};
use cards_net::Transport;
use cards_runtime::telemetry::EventKind;
use cards_runtime::{
    assign_hints_explained, DsSpec, FarMemRuntime, FarPtr, RemotingPolicy, RtError, RuntimeConfig,
    StaticHint,
};

use crate::decode::{decode, DecodedFn, Op, Tally, Width};
use crate::metrics::{CpuModel, VmMetrics};

/// Base of the native address space (so null and small ints never alias).
const NATIVE_BASE: u64 = 0x1_0000;
/// End of the native address space: bit 48 up is the far-pointer tag.
const NATIVE_LIMIT: u64 = 1 << cards_runtime::TAG_SHIFT;
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
    /// The module in slot-operand form, indexed by `FuncId` (shared so
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
        vm.prog = decode(&vm.module, &vm.global_addr, &vm.cpu).into();
        vm
    }

    fn layout_globals(&mut self) {
        for gi in 0..self.module.globals.len() {
            let g = &self.module.globals[gi];
            let sz = self.module.types.size_of(g.ty).max(8);
            let init = g.init;
            // A global too large for the native address space gets address
            // 0, so every access to it fails with `NativeOob`.
            let addr = self.native_alloc(sz).unwrap_or(0);
            self.global_addr.push(addr);
            if let Some(v) = init.filter(|_| addr != 0) {
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

    /// Extend native memory by `size` bytes (at least one), 16-aligned. An
    /// allocation that would end past the native address space (2^48,
    /// where addresses read as tagged) fails and leaves memory untouched.
    fn native_alloc(&mut self, size: u64) -> Result<u64, VmError> {
        let addr = (self.native.len() as u64 + 15) & !15;
        match addr.checked_add(size.max(1)) {
            Some(end) if end <= NATIVE_LIMIT => {
                self.native.resize(end as usize, 0);
                Ok(addr)
            }
            _ => Err(VmError::NativeOob { addr, bytes: size }),
        }
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

    /// Charge a block's (or an edge's) tally on entry.
    fn enter(&mut self, t: &Tally) {
        let m = &mut self.metrics;
        m.instructions += t.instructions;
        m.cycles += t.cycles;
        m.loads += t.loads;
        m.stores += t.stores;
    }

    /// Take back what a block tally charged for ops that never ran.
    fn take_back(&mut self, t: &Tally) {
        let m = &mut self.metrics;
        m.instructions -= t.instructions;
        m.cycles -= t.cycles;
        m.loads -= t.loads;
        m.stores -= t.stores;
    }

    /// A frame for `f` (reusing a released one when there is one): zeroed
    /// locals with the parameter slots taken from `args`, then the
    /// constant tail. Surplus arguments are dropped and missing ones read
    /// as 0.
    fn new_frame(&mut self, f: &DecodedFn, args: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.clear();
        frame.resize(f.nlocals, 0);
        frame.extend_from_slice(&f.consts);
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

    /// Copy call arguments from the caller's `frame` slots into a fresh
    /// frame for `callee`, then run it.
    fn call(
        &mut self,
        prog: &[DecodedFn],
        callee: usize,
        args: &[u32],
        frame: &[u64],
        depth: usize,
    ) -> Result<u64, VmError> {
        let args = args.iter().map(|&s| frame[s as usize]);
        let callee_frame = self.new_frame(&prog[callee], args);
        self.metrics.calls += 1;
        self.charge(self.cpu.call);
        Ok(self
            .call_function(prog, callee, callee_frame, depth + 1)?
            .unwrap_or(0))
    }

    /// Take edge `e`: perform its phi copies (as one parallel assignment),
    /// charge its tally and return the target op index.
    fn take_edge(&mut self, f: &DecodedFn, e: u32, frame: &mut [u64]) -> usize {
        let e = &f.edges[e as usize];
        let copies = &f.copies[e.copies.range()];
        if e.parallel {
            self.phi_tmp.clear();
            self.phi_tmp
                .extend(copies.iter().map(|&(_, src)| frame[src as usize]));
            for (&(dst, _), &v) in copies.iter().zip(&self.phi_tmp) {
                frame[dst as usize] = v;
            }
        } else {
            for &(dst, src) in copies {
                frame[dst as usize] = frame[src as usize];
            }
        }
        self.enter(&e.tally);
        e.pc as usize
    }

    fn exec(
        &mut self,
        prog: &[DecodedFn],
        f: &DecodedFn,
        frame: &mut [u64],
        depth: usize,
    ) -> Result<Option<u64>, VmError> {
        // A failing op leaves the loop with its error; `pc` is then the op
        // after it.
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break VmError::from(e),
                }
            };
        }
        // `bin` through `consteval`, the one definition of its semantics.
        macro_rules! bin {
            ($op:expr, $ty:expr, $s:ident) => {
                frame[$s.dst as usize] =
                    tri!(bin_op($op, frame[$s.a as usize], frame[$s.b as usize], $ty))
            };
        }
        self.enter(&f.entry);
        let mut pc = 0;
        let err = loop {
            let op = f.ops[pc];
            pc += 1;
            match op {
                Op::Alloc { dst, size } => {
                    frame[dst as usize] = tri!(self.native_alloc(frame[size as usize]));
                }
                Op::Free { ptr } => {
                    let fp = FarPtr(frame[ptr as usize]);
                    if fp.is_tagged() {
                        let c = tri!(self.runtime.free(fp));
                        self.charge(c);
                    }
                }
                Op::Load {
                    dst,
                    ptr,
                    width,
                    ext,
                } => {
                    frame[dst as usize] = tri!(self.mem_read(frame[ptr as usize], width, ext));
                }
                Op::Store { ptr, val, width } => {
                    let (p, v) = (frame[ptr as usize], frame[val as usize]);
                    tri!(self.mem_write(p, v, width));
                }
                Op::Gep { dst, base, idx, k } => {
                    frame[dst as usize] = gep(frame, base, idx, k);
                }
                Op::GepN {
                    dst,
                    base,
                    k,
                    terms,
                } => {
                    let mut a = frame[base as usize].wrapping_add(frame[k as usize]);
                    for &(o, scale) in &f.terms[terms.range()] {
                        a = a.wrapping_add(frame[o as usize].wrapping_mul(scale));
                    }
                    frame[dst as usize] = a;
                }
                Op::GepLoad {
                    gep: g,
                    base,
                    idx,
                    k,
                    dst,
                    width,
                    ext,
                } => {
                    let a = gep(frame, base, idx, k);
                    frame[g as usize] = a;
                    frame[dst as usize] = tri!(self.mem_read(a, width, ext));
                }
                Op::GepStore {
                    gep: g,
                    base,
                    idx,
                    k,
                    val,
                    width,
                } => {
                    let a = gep(frame, base, idx, k);
                    frame[g as usize] = a;
                    tri!(self.mem_write(a, frame[val as usize], width));
                }
                Op::Bin { op, ty, s } => bin!(op, ty.ty(), s),
                Op::AddI64(s) => bin!(BinOp::Add, Type::I64, s),
                Op::SubI64(s) => bin!(BinOp::Sub, Type::I64, s),
                Op::MulI64(s) => bin!(BinOp::Mul, Type::I64, s),
                Op::AndI64(s) => bin!(BinOp::And, Type::I64, s),
                Op::OrI64(s) => bin!(BinOp::Or, Type::I64, s),
                Op::XorI64(s) => bin!(BinOp::Xor, Type::I64, s),
                Op::ShlI64(s) => bin!(BinOp::Shl, Type::I64, s),
                Op::LShrI64(s) => bin!(BinOp::LShr, Type::I64, s),
                Op::AShrI64(s) => bin!(BinOp::AShr, Type::I64, s),
                Op::FAdd(s) => bin!(BinOp::FAdd, Type::F64, s),
                Op::FSub(s) => bin!(BinOp::FSub, Type::F64, s),
                Op::FMul(s) => bin!(BinOp::FMul, Type::F64, s),
                Op::FDiv(s) => bin!(BinOp::FDiv, Type::F64, s),
                Op::Cmp { op, s } => {
                    frame[s.dst as usize] =
                        cmp_op(op, frame[s.a as usize], frame[s.b as usize]) as u64;
                }
                Op::CmpBr {
                    op,
                    s,
                    then_e,
                    else_e,
                } => {
                    let c = cmp_op(op, frame[s.a as usize], frame[s.b as usize]);
                    frame[s.dst as usize] = c as u64;
                    pc = self.take_edge(f, if c { then_e } else { else_e }, frame);
                }
                Op::Cast { dst, op, to, val } => {
                    frame[dst as usize] = cast_op(op, frame[val as usize], to.ty());
                }
                Op::Select { cond, s } => {
                    let pick = if frame[cond as usize] != 0 { s.a } else { s.b };
                    frame[s.dst as usize] = frame[pick as usize];
                }
                Op::Intrin { which, s } => {
                    frame[s.dst as usize] =
                        intrin_op(which, frame[s.a as usize], frame[s.b as usize]);
                }
                Op::Call { dst, callee, args } => {
                    let args = &f.slots[args.range()];
                    frame[dst as usize] =
                        tri!(self.call(prog, callee as usize, args, frame, depth));
                }
                Op::CallIndirect { dst, callee, args } => {
                    let target = frame[callee as usize];
                    if !(FUNC_BASE..FUNC_BASE + prog.len() as u64).contains(&target) {
                        break VmError::BadIndirectCall(target);
                    }
                    let args = &f.slots[args.range()];
                    let callee = (target - FUNC_BASE) as usize;
                    frame[dst as usize] = tri!(self.call(prog, callee, args, frame, depth));
                }
                Op::Br { e } => pc = self.take_edge(f, e, frame),
                Op::CondBr {
                    cond,
                    then_e,
                    else_e,
                } => {
                    let e = if frame[cond as usize] != 0 {
                        then_e
                    } else {
                        else_e
                    };
                    pc = self.take_edge(f, e, frame);
                }
                Op::Dispatch {
                    cond,
                    then_e,
                    else_e,
                    site,
                } => {
                    let slow = frame[cond as usize] != 0;
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
                Op::Ret { val } => return Ok(Some(frame[val as usize])),
                Op::RetVoid => return Ok(None),
                Op::DsInit { dst, meta } => {
                    let spec = spec_from_meta(&self.module, self.module.ds_meta(DsMetaId(meta)));
                    let hint = self.hints[meta as usize];
                    let h = self.runtime.register_ds(spec, hint);
                    self.registrations.push(meta);
                    frame[dst as usize] = h as u64;
                }
                Op::DsAlloc { dst, size, handle } => {
                    let (sz, h) = (frame[size as usize], frame[handle as usize] as u16);
                    let (p, c) = tri!(self.runtime.ds_alloc(h, sz));
                    self.charge(c);
                    frame[dst as usize] = p.bits();
                }
                Op::Guard { dst, ptr, g } => {
                    let p = frame[ptr as usize];
                    let g = f.guards[g as usize];
                    self.metrics.guards += 1;
                    // Surface the executing site to the profiler so the
                    // runtime charges this check's cost to it.
                    self.runtime.profiler_mut().set_current(g.site);
                    let r = self.runtime.guard(FarPtr(p), g.access, g.bytes);
                    self.runtime.profiler_mut().set_current(None);
                    let c = tri!(r);
                    self.charge(c);
                    frame[dst as usize] = p; // localized ptr == same bits
                }
                Op::RemotableCheck { dst, handles } => {
                    self.handles.clear();
                    self.handles.extend(
                        f.slots[handles.range()]
                            .iter()
                            .map(|&h| frame[h as usize] as u16),
                    );
                    self.metrics.remotable_checks += 1;
                    let (any, c) = self.runtime.remotable_check(&self.handles);
                    self.charge(c);
                    frame[dst as usize] = any as u64;
                }
                Op::FallThrough => break VmError::MissingTerminator,
            }
        };
        self.take_back(&f.undo[pc - 1]);
        Err(err)
    }

    /// Load `width` bytes at `ptr`, extended from `ext`. Each common width
    /// gets its own copy of [`Self::read_bytes`], so moving the bytes is
    /// a constant-size copy rather than a call to `memcpy`.
    fn mem_read(&mut self, ptr: u64, width: u8, ext: Width) -> Result<u64, VmError> {
        let raw = match width {
            8 => self.read_bytes(ptr, 8),
            4 => self.read_bytes(ptr, 4),
            2 => self.read_bytes(ptr, 2),
            1 => self.read_bytes(ptr, 1),
            w => self.read_bytes(ptr, w as usize),
        }?;
        Ok(extend(raw, ext.ty()))
    }

    #[inline(always)]
    fn read_bytes(&mut self, ptr: u64, size: usize) -> Result<u64, VmError> {
        let mut buf = [0u8; 8];
        let fp = FarPtr(ptr);
        if fp.is_tagged() {
            let c = self.runtime.read(fp, &mut buf[..size])?;
            self.charge(c);
        } else {
            let a = self.native_index(ptr, size)?;
            buf[..size].copy_from_slice(&self.native[a..a + size]);
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Store the low `width` bytes of `val` at `ptr`, specialized by width
    /// as [`Self::mem_read`] is.
    fn mem_write(&mut self, ptr: u64, val: u64, width: u8) -> Result<(), VmError> {
        match width {
            8 => self.write_bytes(ptr, val, 8),
            4 => self.write_bytes(ptr, val, 4),
            2 => self.write_bytes(ptr, val, 2),
            1 => self.write_bytes(ptr, val, 1),
            w => self.write_bytes(ptr, val, w as usize),
        }
    }

    #[inline(always)]
    fn write_bytes(&mut self, ptr: u64, val: u64, size: usize) -> Result<(), VmError> {
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

/// `base + disp + idx × scale` with `(disp, scale)` in slots `k`, `k + 1`.
#[inline(always)]
fn gep(frame: &[u64], base: u32, idx: u32, k: u32) -> u64 {
    let (disp, scale) = (frame[k as usize], frame[k as usize + 1]);
    frame[base as usize]
        .wrapping_add(disp)
        .wrapping_add(frame[idx as usize].wrapping_mul(scale))
}

fn extend(raw: u64, ty: Type) -> u64 {
    cards_ir::consteval::extend(raw, ty)
}

fn width_mask(ty: Type) -> u64 {
    cards_ir::consteval::width_mask(ty)
}

/// Binary-op semantics are shared with the optimizer's constant folder
/// (`cards_ir::consteval`) so the two can never drift apart.
#[inline(always)]
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
