//! `VmMetrics` after a failed run. Each program fails in the middle of a
//! block that has more operations after the failing one (except the
//! fall-through case, which fails at a block's end), often inside a loop,
//! so the counters pin exactly how much of the block was charged: every
//! operation before the failing one in full, the failing one up to the
//! point where it failed, and nothing after it.

use cards_ir::{
    AccessKind, BinOp, CastOp, DsMeta, DsPriority, Function, FunctionBuilder, Inst, Module,
    PrefetchKind, Type, Value,
};
use cards_net::SimTransport;
use cards_runtime::{RemotingPolicy, RtError, RuntimeConfig};
use cards_vm::{Vm, VmError, VmMetrics};

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

#[allow(clippy::too_many_arguments)]
fn metrics(
    cycles: u64,
    instructions: u64,
    loads: u64,
    stores: u64,
    guards: u64,
    remotable_checks: u64,
    calls: u64,
) -> VmMetrics {
    VmMetrics {
        cycles,
        instructions,
        loads,
        stores,
        guards,
        remotable_checks,
        calls,
        ..VmMetrics::default()
    }
}

fn module(fs: Vec<Function>) -> Module {
    let mut m = Module::new("t");
    for f in fs {
        m.add_function(f);
    }
    m
}

/// A module with one DS of 4 KiB objects, whose `main` is built by `body`
/// from its registered handle.
fn with_ds(body: impl FnOnce(&mut FunctionBuilder, Value)) -> Module {
    let mut m = Module::new("t");
    let meta = m.add_ds_meta(DsMeta {
        name: "ds".into(),
        elem_ty: Some(Type::I64),
        elem_struct: None,
        recursive: false,
        object_bytes: 4096,
        prefetch: PrefetchKind::None,
        priority: DsPriority::default(),
    });
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let h = b.ds_init(meta);
    body(&mut b, h);
    m.add_function(b.finish());
    m
}

/// `acc += 10 / (2 - i)` for `i` in `0..n`: the third iteration divides
/// by zero with a load, an add and a store still to run in its block.
#[test]
fn div_by_zero_in_a_loop_body() {
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let acc = b.alloca(Type::I64);
    b.store(acc, b.iconst(0), Type::I64);
    let n = b.arg(0);
    b.counted_loop(b.iconst(0), n, b.iconst(1), |b, i| {
        let d = b.sub(b.iconst(2), i);
        let q = b.bin(BinOp::SDiv, b.iconst(10), d, Type::I64);
        let t = b.load(acc, Type::I64);
        let u = b.add(t, q);
        b.store(acc, u, Type::I64);
    });
    let out = b.load(acc, Type::I64);
    b.ret(out);
    let m = module(vec![b.finish()]);
    let (r, got) = run(m.clone(), &[5]);
    assert_eq!(r, Err(VmError::DivByZero));
    assert_eq!(got, metrics(48, 28, 2, 3, 0, 0, 0));
    // Two iterations run to completion.
    let (r, got) = run(m, &[2]);
    assert_eq!(r, Ok(Some(15)));
    assert_eq!(got, metrics(51, 28, 3, 3, 0, 0, 0));
}

/// A load through a single-index GEP off a bad native pointer, with a
/// store and arithmetic after it.
#[test]
fn native_oob_on_a_load() {
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let ok = b.alloca(Type::I64);
    b.store(ok, b.arg(0), Type::I64);
    let base = b.cast(CastOp::IntToPtr, b.iconst(64), Type::Ptr);
    let p = b.gep_index(base, Type::I64, b.arg(0));
    let v = b.load(p, Type::I64);
    let w = b.add(v, b.iconst(1));
    b.store(ok, w, Type::I64);
    let x = b.load(ok, Type::I64);
    b.ret(x);
    let (r, got) = run(module(vec![b.finish()]), &[3]);
    assert_eq!(
        r,
        Err(VmError::NativeOob {
            addr: 64 + 24,
            bytes: 8
        })
    );
    assert_eq!(got, metrics(12, 5, 0, 1, 0, 0, 0));
}

/// A store through a single-index GEP off a bad native pointer, with a
/// load, arithmetic and another store after it.
#[test]
fn native_oob_on_a_store() {
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let ok = b.alloca(Type::I64);
    b.store(ok, b.arg(0), Type::I64);
    let base = b.cast(CastOp::IntToPtr, b.iconst(1 << 40), Type::Ptr);
    let p = b.gep_index(base, Type::I32, b.arg(0));
    b.store(p, b.iconst(7), Type::I32);
    let v = b.load(ok, Type::I64);
    let w = b.add(v, b.iconst(1));
    b.store(ok, w, Type::I64);
    b.ret(w);
    let (r, got) = run(module(vec![b.finish()]), &[2]);
    assert_eq!(
        r,
        Err(VmError::NativeOob {
            addr: (1 << 40) + 8,
            bytes: 4
        })
    );
    assert_eq!(got, metrics(16, 5, 0, 2, 0, 0, 0));
}

/// A load past the end of a DS allocation fails in the runtime, with
/// arithmetic and a resident store after it.
#[test]
fn out_of_range_on_a_tagged_load() {
    let m = with_ds(|b, h| {
        let p = b.ds_alloc(b.iconst(64), h);
        b.store(p, b.arg(0), Type::I64);
        let q = b.gep_index(p, Type::I64, b.arg(0));
        let v = b.load(q, Type::I64);
        let w = b.add(v, b.iconst(1));
        b.store(p, w, Type::I64);
        b.ret(w);
    });
    let (r, got) = run(m, &[100]);
    assert_eq!(
        r,
        Err(VmError::Runtime(RtError::OutOfRange { ds: 0, offset: 800 }))
    );
    assert_eq!(got, metrics(185, 5, 0, 1, 0, 0, 0));
}

/// A store past the end of a DS allocation: the store is counted, then
/// the runtime refuses it.
#[test]
fn out_of_range_on_a_tagged_store() {
    let m = with_ds(|b, h| {
        let p = b.ds_alloc(b.iconst(64), h);
        let q = b.gep_index(p, Type::I64, b.arg(0));
        b.store(q, b.arg(0), Type::I64);
        let v = b.load(p, Type::I64);
        b.ret(v);
    });
    let (r, got) = run(m, &[9]);
    assert_eq!(
        r,
        Err(VmError::Runtime(RtError::OutOfRange { ds: 0, offset: 72 }))
    );
    assert_eq!(got, metrics(185, 4, 0, 1, 0, 0, 0));
}

/// A guard past the end of a DS allocation: the guard is counted, then
/// the runtime refuses it.
#[test]
fn out_of_range_on_a_guard() {
    let m = with_ds(|b, h| {
        let p = b.ds_alloc(b.iconst(64), h);
        let q = b.gep_index(p, Type::I64, b.arg(0));
        let g = b.guard(q, AccessKind::Read, 8);
        let v = b.load(g, Type::I64);
        b.ret(v);
    });
    let (r, got) = run(m, &[9]);
    assert_eq!(
        r,
        Err(VmError::Runtime(RtError::OutOfRange { ds: 0, offset: 72 }))
    );
    assert_eq!(got, metrics(181, 4, 0, 0, 1, 0, 0));
}

/// `dsalloc` on a handle no `dsinit` registered.
#[test]
fn ds_alloc_with_an_unknown_handle() {
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let a = b.add(b.arg(0), b.iconst(1));
    let p = b.ds_alloc(b.iconst(64), b.iconst(7));
    let v = b.load(p, Type::I64);
    let w = b.add(v, a);
    b.ret(w);
    let (r, got) = run(module(vec![b.finish()]), &[1]);
    assert_eq!(r, Err(VmError::Runtime(RtError::UnknownHandle(7))));
    assert_eq!(got, metrics(1, 2, 0, 0, 0, 0, 0));
}

/// An indirect call through a value that is not a function address.
#[test]
fn bad_indirect_call() {
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let acc = b.alloca(Type::I64);
    b.store(acc, b.arg(0), Type::I64);
    let r = b.call_indirect(b.iconst(12345), vec![Type::I64], Type::I64, vec![b.arg(0)]);
    b.store(acc, r, Type::I64);
    let v = b.load(acc, Type::I64);
    b.ret(v);
    let (r, got) = run(module(vec![b.finish()]), &[1]);
    assert_eq!(r, Err(VmError::BadIndirectCall(12345)));
    assert_eq!(got, metrics(10, 3, 0, 1, 0, 0, 0));
}

/// Unbounded recursion: every level has a store and a return left to
/// run after its call.
#[test]
fn stack_overflow_unwinds_every_level() {
    let mut m = Module::new("t");
    let f = m.add_function(Function::new("main", vec![Type::I64], Type::I64));
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let acc = b.alloca(Type::I64);
    let n = b.add(b.arg(0), b.iconst(1));
    b.store(acc, n, Type::I64);
    let r = b.call(f, vec![n]);
    b.store(acc, r, Type::I64);
    b.ret(r);
    *m.func_mut(f) = b.finish();
    let (r, got) = run(m, &[0]);
    assert_eq!(r, Err(VmError::StackOverflow));
    assert_eq!(got, metrics(2541, 484, 0, 121, 0, 0, 121));
}

/// A block that ends without a terminator, reached over a branch.
#[test]
fn missing_terminator() {
    let mut f = Function::new("main", vec![Type::I64], Type::I64);
    let (entry, next) = (f.entry(), f.add_block());
    f.push_inst(entry, Inst::Br { target: next });
    let a = f.push_inst(
        next,
        Inst::Bin {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::ConstInt(1),
            ty: Type::I64,
        },
    );
    f.push_inst(
        next,
        Inst::Bin {
            op: BinOp::Mul,
            lhs: Value::Inst(a),
            rhs: Value::ConstInt(3),
            ty: Type::I64,
        },
    );
    let (r, got) = run(module(vec![f]), &[1]);
    assert_eq!(r, Err(VmError::MissingTerminator));
    assert_eq!(got, metrics(3, 3, 0, 0, 0, 0, 0));
}

/// A callee divides by zero in the middle of its block; the caller had a
/// store, a load and arithmetic left after the call.
#[test]
fn error_inside_a_callee() {
    let mut m = Module::new("t");
    let mut cb = FunctionBuilder::new("div", vec![Type::I64], Type::I64);
    let x = cb.add(cb.arg(0), cb.iconst(0));
    let y = cb.bin(BinOp::UDiv, cb.iconst(100), x, Type::I64);
    let z = cb.add(y, cb.iconst(1));
    cb.ret(z);
    let callee = m.add_function(cb.finish());
    let mut b = FunctionBuilder::new("main", vec![Type::I64], Type::I64);
    let acc = b.alloca(Type::I64);
    b.store(acc, b.arg(0), Type::I64);
    let r = b.call(callee, vec![b.arg(0)]);
    b.store(acc, r, Type::I64);
    let v = b.load(acc, Type::I64);
    let w = b.add(v, r);
    b.ret(w);
    m.add_function(b.finish());
    let (r, got) = run(m.clone(), &[0]);
    assert_eq!(r, Err(VmError::DivByZero));
    assert_eq!(got, metrics(22, 5, 0, 1, 0, 0, 1));
    let (r, got) = run(m, &[4]);
    assert_eq!(r, Ok(Some(52)));
    assert_eq!(got, metrics(34, 11, 1, 2, 0, 0, 1));
}
