//! Values and instructions of the CaRDS IR.
//!
//! The instruction set is a compact subset of LLVM plus the far-memory
//! extension ops that CaRDS passes insert (`DsInit`, `DsAlloc`, `Guard`,
//! `RemotableCheck`). Programs produced by the frontend/builder never
//! contain the extension ops; only `cards-passes` introduces them.

use crate::types::{StructId, Type};

/// Function identifier, module-scoped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Global variable identifier, module-scoped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Basic block identifier, function-scoped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Instruction identifier, function-scoped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// An SSA value. `Copy` so instructions embed operands without allocation;
/// constants are inline rather than interned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The `i`-th parameter of the enclosing function.
    Arg(u16),
    /// Result of an instruction in the enclosing function.
    Inst(InstId),
    /// Integer constant (also used for `i1`: 0/1).
    ConstInt(i64),
    /// Float constant, stored as raw bits so `Value` stays `Eq`/`Hash`.
    ConstFloat(u64),
    /// Address of a global variable.
    Global(GlobalId),
    /// Address of a function (for indirect calls).
    Func(FuncId),
    /// Null pointer constant.
    Null,
    /// Undefined value (e.g. uninitialized phi input).
    Undef,
}

impl Value {
    /// Convenience constructor for float constants.
    pub fn float(f: f64) -> Self {
        Value::ConstFloat(f.to_bits())
    }

    /// Decode a `ConstFloat`, if this is one.
    pub fn as_float(self) -> Option<f64> {
        match self {
            Value::ConstFloat(b) => Some(f64::from_bits(b)),
            _ => None,
        }
    }

    /// Whether this value is a compile-time constant.
    pub fn is_const(self) -> bool {
        matches!(
            self,
            Value::ConstInt(_) | Value::ConstFloat(_) | Value::Null | Value::Undef
        )
    }
}

/// Integer/float binary operations. Int ops interpret lanes as two's
/// complement i64 after sign extension; float ops are IEEE f64.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Whether the op consumes/produces floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }
}

/// Comparison predicates. Produce `i1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
}

impl CmpOp {
    /// Whether the predicate compares floats.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            CmpOp::FEq | CmpOp::FNe | CmpOp::FLt | CmpOp::FLe | CmpOp::FGt | CmpOp::FGe
        )
    }
}

/// Value casts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Integer truncation / extension to the target width (sign-extending).
    IntResize,
    /// Zero-extending integer resize.
    ZExt,
    /// Signed int -> f64.
    SiToFp,
    /// f64 -> signed int.
    FpToSi,
    /// Pointer -> i64.
    PtrToInt,
    /// i64 -> pointer.
    IntToPtr,
    /// Reinterpret pointer as pointer (no-op marker kept for provenance).
    PtrCast,
}

/// One index step of a [`Inst::Gep`]. Field vs. array distinction is load-
/// bearing: DSA uses it for field sensitivity and the prefetch pass recovers
/// strides from `Index` steps driven by induction variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GepIdx {
    /// Select struct field `n` of the current struct type.
    Field(u32),
    /// Index into an array (or scale a pointer) by a dynamic or constant
    /// element count.
    Index(Value),
}

/// Memory-access kind carried by guards; the runtime distinguishes
/// read-fault from write-fault costs (paper Table 1) and dirty tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

/// Small set of intrinsics needed by the workload kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// 64-bit mix hash of one i64 argument (splitmix64 finalizer).
    Hash64,
    /// f64 square root.
    Sqrt,
    /// Absolute value of an i64.
    AbsI64,
    /// Minimum of two i64.
    MinI64,
    /// Maximum of two i64.
    MaxI64,
}

impl Intrinsic {
    /// Result type of the intrinsic.
    pub fn ret_ty(self) -> Type {
        match self {
            Intrinsic::Sqrt => Type::F64,
            _ => Type::I64,
        }
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Hash64 | Intrinsic::Sqrt | Intrinsic::AbsI64 => 1,
            Intrinsic::MinI64 | Intrinsic::MaxI64 => 2,
        }
    }
}

/// Metadata identifier for a data structure descriptor attached to the
/// module by the pool-allocation pass (see `cards_ir::module::DsMeta`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DsMetaId(pub u32);

/// An IR instruction. Non-terminators produce at most one SSA value
/// referred to as `Value::Inst(id)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    // ---- memory ----
    /// Heap allocation (`malloc`). `ty_hint` records the element type the
    /// frontend knows the allocation will hold (for DSA/prefetch); the
    /// dynamic `size` is in bytes. Returns `ptr`.
    Alloc { size: Value, ty_hint: Type },
    /// Stack allocation (`alloca`) of one `ty`. Returns `ptr`.
    AllocStack { ty: Type },
    /// Free a heap allocation.
    Free { ptr: Value },
    /// Load `ty` from `ptr`.
    Load { ptr: Value, ty: Type },
    /// Store `val : ty` to `ptr`.
    Store { ptr: Value, val: Value, ty: Type },
    /// Typed pointer arithmetic from `base`, interpreting it as pointing at
    /// `pointee`, applying `indices` in order (array index first scales by
    /// the whole `pointee`, as in LLVM GEP).
    Gep {
        base: Value,
        pointee: Type,
        indices: Vec<GepIdx>,
    },

    // ---- compute ----
    /// Binary arithmetic/logical op producing `ty`.
    Bin {
        op: BinOp,
        lhs: Value,
        rhs: Value,
        ty: Type,
    },
    /// Comparison producing `i1`.
    Cmp { op: CmpOp, lhs: Value, rhs: Value },
    /// Cast producing `to`.
    Cast { op: CastOp, val: Value, to: Type },
    /// `cond ? then_v : else_v` producing `ty`.
    Select {
        cond: Value,
        then_v: Value,
        else_v: Value,
        ty: Type,
    },
    /// Intrinsic call.
    Intrin { which: Intrinsic, args: Vec<Value> },

    // ---- calls ----
    /// Direct call. Result type is the callee's return type.
    Call { callee: FuncId, args: Vec<Value> },
    /// Indirect call through a function-pointer value with explicit
    /// signature (param types, return type).
    CallIndirect {
        callee: Value,
        params: Vec<Type>,
        ret: Type,
        args: Vec<Value>,
    },

    // ---- SSA ----
    /// Phi node. One incoming value per predecessor block.
    Phi {
        ty: Type,
        incoming: Vec<(BlockId, Value)>,
    },

    // ---- terminators ----
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on an `i1`.
    CondBr {
        cond: Value,
        then_b: BlockId,
        else_b: BlockId,
    },
    /// Return (value must match function return type; `None` for void).
    Ret { val: Option<Value> },

    // ---- far-memory extension (inserted by cards-passes) ----
    /// Register a data structure with the runtime; returns its i64 handle.
    DsInit { meta: DsMetaId },
    /// Allocate `size` bytes from data structure `handle`; returns a far
    /// pointer whose non-canonical bits carry the DS handle.
    DsAlloc { size: Value, handle: Value },
    /// Custody-check + localize `ptr` for an access of `bytes` bytes;
    /// returns a pointer safe to dereference locally.
    Guard {
        ptr: Value,
        access: AccessKind,
        bytes: u64,
    },
    /// Returns `i1` true iff *any* of the listed DS handles is currently
    /// remotable (i.e. the instrumented code version must run).
    RemotableCheck { handles: Vec<Value> },
}

impl Inst {
    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. }
        )
    }

    /// Whether this instruction produces an SSA value usable by others.
    /// (A `Call` produces one only if its callee returns a value, which
    /// takes module context to tell.)
    pub fn may_produce_value(&self) -> bool {
        !matches!(
            self,
            Inst::Store { .. }
                | Inst::Free { .. }
                | Inst::Br { .. }
                | Inst::CondBr { .. }
                | Inst::Ret { .. }
        )
    }

    /// Visit every operand value.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Inst::Alloc { size, .. } => f(*size),
            Inst::AllocStack { .. } => {}
            Inst::Free { ptr } => f(*ptr),
            Inst::Load { ptr, .. } => f(*ptr),
            Inst::Store { ptr, val, .. } => {
                f(*ptr);
                f(*val);
            }
            Inst::Gep { base, indices, .. } => {
                f(*base);
                for ix in indices {
                    if let GepIdx::Index(v) = ix {
                        f(*v);
                    }
                }
            }
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cast { val, .. } => f(*val),
            Inst::Select {
                cond,
                then_v,
                else_v,
                ..
            } => {
                f(*cond);
                f(*then_v);
                f(*else_v);
            }
            Inst::Intrin { args, .. } => args.iter().copied().for_each(&mut f),
            Inst::Call { args, .. } => args.iter().copied().for_each(&mut f),
            Inst::CallIndirect { callee, args, .. } => {
                f(*callee);
                args.iter().copied().for_each(&mut f);
            }
            Inst::Phi { incoming, .. } => incoming.iter().for_each(|&(_, v)| f(v)),
            Inst::Br { .. } => {}
            Inst::CondBr { cond, .. } => f(*cond),
            Inst::Ret { val } => {
                if let Some(v) = val {
                    f(*v);
                }
            }
            Inst::DsInit { .. } => {}
            Inst::DsAlloc { size, handle } => {
                f(*size);
                f(*handle);
            }
            Inst::Guard { ptr, .. } => f(*ptr),
            Inst::RemotableCheck { handles } => handles.iter().copied().for_each(&mut f),
        }
    }

    /// Rewrite every operand value in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(Value) -> Value) {
        match self {
            Inst::Alloc { size, .. } => *size = f(*size),
            Inst::AllocStack { .. } => {}
            Inst::Free { ptr } => *ptr = f(*ptr),
            Inst::Load { ptr, .. } => *ptr = f(*ptr),
            Inst::Store { ptr, val, .. } => {
                *ptr = f(*ptr);
                *val = f(*val);
            }
            Inst::Gep { base, indices, .. } => {
                *base = f(*base);
                for ix in indices.iter_mut() {
                    if let GepIdx::Index(v) = ix {
                        *v = f(*v);
                    }
                }
            }
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { val, .. } => *val = f(*val),
            Inst::Select {
                cond,
                then_v,
                else_v,
                ..
            } => {
                *cond = f(*cond);
                *then_v = f(*then_v);
                *else_v = f(*else_v);
            }
            Inst::Intrin { args, .. } => args.iter_mut().for_each(|a| *a = f(*a)),
            Inst::Call { args, .. } => args.iter_mut().for_each(|a| *a = f(*a)),
            Inst::CallIndirect { callee, args, .. } => {
                *callee = f(*callee);
                args.iter_mut().for_each(|a| *a = f(*a));
            }
            Inst::Phi { incoming, .. } => incoming.iter_mut().for_each(|(_, v)| *v = f(*v)),
            Inst::Br { .. } => {}
            Inst::CondBr { cond, .. } => *cond = f(*cond),
            Inst::Ret { val } => {
                if let Some(v) = val {
                    *v = f(*v);
                }
            }
            Inst::DsInit { .. } => {}
            Inst::DsAlloc { size, handle } => {
                *size = f(*size);
                *handle = f(*handle);
            }
            Inst::Guard { ptr, .. } => *ptr = f(*ptr),
            Inst::RemotableCheck { handles } => handles.iter_mut().for_each(|h| *h = f(*h)),
        }
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Br { target } => vec![*target],
            Inst::CondBr { then_b, else_b, .. } => vec![*then_b, *else_b],
            _ => vec![],
        }
    }

    /// Rewrite successor block ids (used when cloning CFG regions).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Inst::Br { target } => *target = f(*target),
            Inst::CondBr { then_b, else_b, .. } => {
                *then_b = f(*then_b);
                *else_b = f(*else_b);
            }
            Inst::Phi { incoming, .. } => incoming.iter_mut().for_each(|(b, _)| *b = f(*b)),
            _ => {}
        }
    }
}

/// Descriptor of one compiler-identified data structure, produced by DSA +
/// pool allocation and consumed by the runtime at `DsInit`.
#[derive(Clone, Debug, PartialEq)]
pub struct DsMeta {
    /// Human-readable name (derived from the DSA node / type sketch).
    pub name: String,
    /// Element type sketch, if recovered (drives greedy-recursive prefetch).
    pub elem_ty: Option<Type>,
    /// Struct id of the element if it is a named struct.
    pub elem_struct: Option<StructId>,
    /// Whether DSA found a self-referential field edge (linked structure).
    pub recursive: bool,
    /// Compiler-chosen object size for the runtime (bytes).
    pub object_bytes: u64,
    /// Prefetch policy chosen by the prefetch-analysis pass.
    pub prefetch: PrefetchKind,
    /// Static priority metrics for the remoting policies.
    pub priority: DsPriority,
}

/// Which prefetcher the runtime should attach to the DS.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrefetchKind {
    /// No prefetching.
    None,
    /// Majority-stride prefetcher (sequential/strided access).
    Stride,
    /// Greedy-recursive: chase pointer fields of fetched objects.
    GreedyRecursive,
    /// Jump-pointer: learned skip table over traversal history.
    JumpPointer,
}

/// Static priority metrics computed per DS by the policy-ranking pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsPriority {
    /// Position in program (allocation-site) order — for the Linear policy.
    pub program_order: u32,
    /// Longest caller/callee chain (SCC condensation depth) among functions
    /// touching this DS — for the Max Reach policy.
    pub reach_depth: u32,
    /// `#loops + #functions` referencing the DS (paper Eq. 1) — for the
    /// Max Use policy.
    pub use_score: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_value_round_trip() {
        let v = Value::float(3.25);
        assert_eq!(v.as_float(), Some(3.25));
        assert!(v.is_const());
        assert!(!Value::Arg(0).is_const());
    }

    #[test]
    fn terminator_classification() {
        assert!(Inst::Ret { val: None }.is_terminator());
        assert!(Inst::Br { target: BlockId(0) }.is_terminator());
        assert!(!Inst::AllocStack { ty: Type::I64 }.is_terminator());
    }

    #[test]
    fn operand_visit_and_map() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::ConstInt(1),
            ty: Type::I64,
        };
        let mut seen = vec![];
        i.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::Arg(0), Value::ConstInt(1)]);
        i.map_operands(|v| if v == Value::Arg(0) { Value::Arg(1) } else { v });
        let mut seen2 = vec![];
        i.for_each_operand(|v| seen2.push(v));
        assert_eq!(seen2[0], Value::Arg(1));
    }

    #[test]
    fn successors_of_condbr() {
        let i = Inst::CondBr {
            cond: Value::ConstInt(1),
            then_b: BlockId(1),
            else_b: BlockId(2),
        };
        assert_eq!(i.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn gep_operands_include_dynamic_indices() {
        let g = Inst::Gep {
            base: Value::Arg(0),
            pointee: Type::I64,
            indices: vec![GepIdx::Index(Value::Arg(1)), GepIdx::Field(2)],
        };
        let mut seen = vec![];
        g.for_each_operand(|v| seen.push(v));
        assert_eq!(seen, vec![Value::Arg(0), Value::Arg(1)]);
    }

    #[test]
    fn intrinsic_signatures() {
        assert_eq!(Intrinsic::Hash64.arity(), 1);
        assert_eq!(Intrinsic::MinI64.arity(), 2);
        assert_eq!(Intrinsic::Sqrt.ret_ty(), Type::F64);
        assert_eq!(Intrinsic::Hash64.ret_ty(), Type::I64);
    }
}
