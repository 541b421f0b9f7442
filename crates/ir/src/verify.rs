//! IR verifier: structural, SSA-dominance, and light type checks.

use std::collections::HashMap;
use std::fmt;

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::DomTree;
use crate::function::{Function, Module};
use crate::inst::{BlockId, GepIdx, Inst, InstId, Value};
use crate::types::Type;

/// A verification failure, tagged with function/block context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Block where the problem was found, if block-scoped.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "{}: bb{}: {}", self.func, b.0, self.msg),
            None => write!(f, "{}: {}", self.func, self.msg),
        }
    }
}

/// Compute the result type of an instruction (module context needed for
/// direct calls). Instructions that produce no value return `Type::Void`.
pub fn result_type(m: &Module, inst: &Inst) -> Type {
    match inst {
        Inst::Alloc { .. }
        | Inst::AllocStack { .. }
        | Inst::Gep { .. }
        | Inst::DsAlloc { .. }
        | Inst::Guard { .. } => Type::Ptr,
        Inst::Load { ty, .. } => *ty,
        Inst::Bin { ty, .. } => *ty,
        Inst::Cmp { .. } | Inst::RemotableCheck { .. } => Type::I1,
        Inst::Cast { to, .. } => *to,
        Inst::Select { ty, .. } => *ty,
        Inst::Intrin { which, .. } => which.ret_ty(),
        Inst::Call { callee, .. } => m.func(*callee).ret,
        Inst::CallIndirect { ret, .. } => *ret,
        Inst::Phi { ty, .. } => *ty,
        Inst::DsInit { .. } => Type::I64,
        Inst::Store { .. }
        | Inst::Free { .. }
        | Inst::Br { .. }
        | Inst::CondBr { .. }
        | Inst::Ret { .. } => Type::Void,
    }
}

/// Verify a whole module. Returns all errors found (empty = valid).
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let mut names: HashMap<&str, u32> = HashMap::new();
    for f in &m.functions {
        *names.entry(f.name.as_str()).or_default() += 1;
    }
    for (name, count) in names {
        if count > 1 {
            errs.push(VerifyError {
                func: name.to_string(),
                block: None,
                msg: format!("duplicate function name ({count} definitions)"),
            });
        }
    }
    for (_, f) in m.funcs() {
        verify_function(m, f, &mut errs);
    }
    errs
}

fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let err = |errs: &mut Vec<VerifyError>, block: Option<BlockId>, msg: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            block,
            msg,
        });
    };

    // 1. Every reachable block ends in exactly one terminator, which is last.
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        if insts.is_empty() {
            err(errs, Some(b), "empty block".into());
            continue;
        }
        for (i, &iid) in insts.iter().enumerate() {
            let is_last = i + 1 == insts.len();
            if f.inst(iid).is_terminator() != is_last {
                err(
                    errs,
                    Some(b),
                    format!(
                        "terminator placement: inst {} {} last",
                        iid.0,
                        if is_last {
                            "must be terminator as"
                        } else {
                            "is terminator but not"
                        }
                    ),
                );
            }
        }
        // Phis must be a leading prefix of the block.
        let mut seen_non_phi = false;
        for &iid in insts {
            match f.inst(iid) {
                Inst::Phi { .. } if seen_non_phi => {
                    err(errs, Some(b), "phi after non-phi instruction".into())
                }
                Inst::Phi { .. } => {}
                _ => seen_non_phi = true,
            }
        }
    }
    if errs.iter().any(|e| e.func == f.name) {
        // Structural damage makes CFG-based checks unreliable; stop here.
        return;
    }

    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let inst_block = f.inst_block_map();

    // 2. Branch targets in range (indexing would have panicked already if
    //    not; still validate explicitly for parser-produced IR).
    for (b, _, inst) in f.iter_insts() {
        for s in inst.successors() {
            if s.0 as usize >= f.blocks.len() {
                err(errs, Some(b), format!("branch to nonexistent bb{}", s.0));
            }
        }
    }

    // 3. Phi incoming edges match the *reachable* CFG predecessors
    //    exactly. Edges from unreachable predecessors are stale (branch
    //    simplification can orphan them) and the interpreter can never
    //    select them, so they are flagged; conversely an unreachable
    //    predecessor needs no incoming entry.
    for b in f.block_ids().filter(|&b| cfg.is_reachable(b)) {
        let preds = cfg.preds_of(b);
        for &iid in &f.block(b).insts {
            if let Inst::Phi { incoming, .. } = f.inst(iid) {
                for &(from, _) in incoming {
                    if !preds.contains(&from) {
                        err(
                            errs,
                            Some(b),
                            format!(
                                "phi %{} has incoming from non-predecessor bb{}",
                                iid.0, from.0
                            ),
                        );
                    } else if !cfg.is_reachable(from) {
                        err(
                            errs,
                            Some(b),
                            format!(
                                "phi %{} has incoming from unreachable predecessor bb{}",
                                iid.0, from.0
                            ),
                        );
                    }
                }
                for &p in preds {
                    if !cfg.is_reachable(p) {
                        continue;
                    }
                    if !incoming.iter().any(|&(from, _)| from == p) {
                        err(
                            errs,
                            Some(b),
                            format!("phi %{} missing incoming for predecessor bb{}", iid.0, p.0),
                        );
                    }
                }
            }
        }
    }

    // 4. SSA dominance: every use of Inst(v) is dominated by its definition.
    let dominates_use = |def: InstId, use_block: BlockId, use_pos: usize, f: &Function| -> bool {
        let def_block = inst_block[def.0 as usize];
        if def_block != use_block {
            return dom.dominates(def_block, use_block);
        }
        // same block: def must appear earlier
        let insts = &f.block(def_block).insts;
        let def_pos = insts.iter().position(|&i| i == def).unwrap();
        def_pos < use_pos
    };
    for b in f.block_ids().filter(|&b| cfg.is_reachable(b)) {
        for (pos, &iid) in f.block(b).insts.iter().enumerate() {
            let inst = f.inst(iid);
            if let Inst::Phi { incoming, .. } = inst {
                // Phi uses are checked at the end of the incoming block.
                for &(from, v) in incoming {
                    if let Value::Inst(def) = v {
                        let def_block = inst_block[def.0 as usize];
                        if !dom.dominates(def_block, from) {
                            err(
                                errs,
                                Some(b),
                                format!(
                                    "phi %{} incoming %{} from bb{} not dominated by def",
                                    iid.0, def.0, from.0
                                ),
                            );
                        }
                    }
                }
                continue;
            }
            inst.for_each_operand(|v| {
                if let Value::Inst(def) = v {
                    if def.0 as usize >= f.insts.len() {
                        err(errs, Some(b), format!("use of nonexistent %{}", def.0));
                    } else if !dominates_use(def, b, pos, f) {
                        err(
                            errs,
                            Some(b),
                            format!(
                                "use of %{} in %{} not dominated by definition",
                                def.0, iid.0
                            ),
                        );
                    }
                }
                if let Value::Arg(a) = v {
                    if a as usize >= f.params.len() {
                        err(errs, Some(b), format!("use of nonexistent arg{a}"));
                    }
                }
                if let Value::Global(g) = v {
                    if g.0 as usize >= m.globals.len() {
                        err(errs, Some(b), format!("use of nonexistent global {}", g.0));
                    }
                }
                if let Value::Func(fid) = v {
                    if fid.0 as usize >= m.functions.len() {
                        err(
                            errs,
                            Some(b),
                            format!("use of nonexistent function {}", fid.0),
                        );
                    }
                }
            });
        }
    }

    // 5. Light type checks.
    for (b, iid, inst) in f.iter_insts() {
        match inst {
            Inst::Call { callee, args } => {
                if callee.0 as usize >= m.functions.len() {
                    err(
                        errs,
                        Some(b),
                        format!("call to nonexistent function {}", callee.0),
                    );
                } else if m.func(*callee).params.len() != args.len() {
                    err(
                        errs,
                        Some(b),
                        format!(
                            "call to {} with {} args, expected {}",
                            m.func(*callee).name,
                            args.len(),
                            m.func(*callee).params.len()
                        ),
                    );
                }
            }
            Inst::Ret { val } => {
                let want = f.ret;
                match (val, want) {
                    (None, Type::Void) => {}
                    (Some(_), Type::Void) => {
                        err(errs, Some(b), "return value in void function".into())
                    }
                    (None, _) => err(errs, Some(b), "missing return value".into()),
                    (Some(_), _) => {}
                }
            }
            Inst::Bin { op, ty, .. } if op.is_float() != ty.is_float() => {
                err(
                    errs,
                    Some(b),
                    format!("binop %{}: float/int mismatch ({op:?} vs {ty:?})", iid.0),
                );
            }
            Inst::Store { ty, .. } | Inst::Load { ty, .. } if !ty.is_first_class() => {
                err(errs, Some(b), format!("memory op %{} of void type", iid.0));
            }
            Inst::Intrin { which, args } if args.len() != which.arity() => {
                err(
                    errs,
                    Some(b),
                    format!("intrinsic %{} arity mismatch", iid.0),
                );
            }
            Inst::DsInit { meta } if meta.0 as usize >= m.ds_metas.len() => {
                err(errs, Some(b), format!("ds_init of unknown meta {}", meta.0));
            }
            Inst::Gep {
                pointee, indices, ..
            } => {
                if let Some(msg) = gep_field_error(m, *pointee, indices) {
                    err(errs, Some(b), format!("gep %{}: {msg}", iid.0));
                }
            }
            _ => {}
        }
    }
}

/// The first struct field a GEP selects past its struct's field count.
/// The layout walk is the one DSA, guard insertion and the VM make: the
/// first index scales the whole pointee, later indices step into arrays,
/// and a field index on a non-struct selects nothing.
fn gep_field_error(m: &Module, pointee: Type, indices: &[GepIdx]) -> Option<String> {
    let mut cur = pointee;
    for (k, ix) in indices.iter().enumerate() {
        match *ix {
            GepIdx::Field(n) => {
                if let Type::Struct(sid) = cur {
                    let st = m.types.struct_ty(sid);
                    let Some(&field) = st.fields.get(n as usize) else {
                        return Some(format!(
                            "field {n} out of range for struct %{} ({} fields)",
                            st.name,
                            st.fields.len()
                        ));
                    };
                    cur = field;
                }
            }
            GepIdx::Index(_) if k > 0 => {
                if let Type::Array(a) = cur {
                    cur = m.types.array_ty(a).elem;
                }
            }
            GepIdx::Index(_) => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;

    fn module_with(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn valid_function_passes() {
        let mut b = FunctionBuilder::new("ok", vec![Type::I64], Type::I64);
        let v = b.add(b.arg(0), b.iconst(1));
        b.ret(v);
        let m = module_with(b.finish());
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut f = Function::new("bad", vec![], Type::Void);
        let e = f.entry();
        f.push_inst(e, Inst::AllocStack { ty: Type::I64 });
        let errs = verify_module(&module_with(f));
        assert!(errs.iter().any(|e| e.msg.contains("terminator")));
    }

    #[test]
    fn empty_block_detected() {
        let f = Function::new("bad", vec![], Type::Void);
        let errs = verify_module(&module_with(f));
        assert!(errs.iter().any(|e| e.msg == "empty block"));
    }

    #[test]
    fn use_before_def_detected() {
        let mut f = Function::new("bad", vec![], Type::I64);
        let e = f.entry();
        // use %1 before it exists in program order (same block, later def)
        let use_first = f.push_inst(
            e,
            Inst::Bin {
                op: BinOp::Add,
                lhs: Value::Inst(InstId(1)),
                rhs: Value::ConstInt(1),
                ty: Type::I64,
            },
        );
        f.push_inst(
            e,
            Inst::Bin {
                op: BinOp::Add,
                lhs: Value::ConstInt(2),
                rhs: Value::ConstInt(3),
                ty: Type::I64,
            },
        );
        f.push_inst(
            e,
            Inst::Ret {
                val: Some(Value::Inst(use_first)),
            },
        );
        let errs = verify_module(&module_with(f));
        assert!(errs.iter().any(|e| e.msg.contains("not dominated")));
    }

    #[test]
    fn phi_incoming_must_match_preds() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        // phi claims an incoming edge from a non-predecessor (block 1 itself)
        b.phi(Type::I64, vec![(next, Value::ConstInt(1))]);
        b.ret_void();
        let errs = verify_module(&module_with(b.finish()));
        assert!(errs
            .iter()
            .any(|e| e.msg.contains("non-predecessor") || e.msg.contains("missing incoming")));
    }

    #[test]
    fn phi_edge_from_unreachable_pred_flagged() {
        // entry -> j, plus a dead block e -> j. The phi's edge from e can
        // never be taken and must be flagged; conversely a phi that only
        // lists reachable preds is fine even though e is a CFG predecessor.
        let mut b = FunctionBuilder::new("stale", vec![], Type::I64);
        let e = b.new_block();
        let j = b.new_block();
        let entry = b.current_block();
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        let phi = b.phi(
            Type::I64,
            vec![(entry, Value::ConstInt(1)), (e, Value::ConstInt(2))],
        );
        b.ret(phi);
        let errs = verify_module(&module_with(b.finish()));
        assert!(
            errs.iter()
                .any(|x| x.msg.contains("unreachable predecessor")),
            "{errs:?}"
        );

        // Same CFG without the stale edge: clean.
        let mut b = FunctionBuilder::new("clean", vec![], Type::I64);
        let e = b.new_block();
        let j = b.new_block();
        let entry = b.current_block();
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        let phi = b.phi(Type::I64, vec![(entry, Value::ConstInt(1))]);
        b.ret(phi);
        assert!(verify_module(&module_with(b.finish())).is_empty());
    }

    #[test]
    fn call_arity_checked() {
        let mut m = Module::new("t");
        let callee = m.add_function({
            let mut b = FunctionBuilder::new("callee", vec![Type::I64], Type::Void);
            b.ret_void();
            b.finish()
        });
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call(callee, vec![]); // wrong arity
        b.ret_void();
        m.add_function(b.finish());
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.msg.contains("expected 1")));
    }

    #[test]
    fn float_int_binop_mismatch() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.bin(BinOp::FAdd, b.iconst(1), b.iconst(2), Type::I64);
        b.ret_void();
        let errs = verify_module(&module_with(b.finish()));
        assert!(errs.iter().any(|e| e.msg.contains("float/int mismatch")));
    }

    #[test]
    fn duplicate_function_names_detected() {
        let mut m = Module::new("t");
        for _ in 0..2 {
            let mut b = FunctionBuilder::new("same", vec![], Type::Void);
            b.ret_void();
            m.add_function(b.finish());
        }
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.msg.contains("duplicate function name")));
    }

    #[test]
    fn void_return_with_value_detected() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.ret(b.iconst(1));
        let errs = verify_module(&module_with(b.finish()));
        assert!(errs.iter().any(|e| e.msg.contains("void function")));
    }

    #[test]
    fn counted_loop_verifies() {
        let mut b = FunctionBuilder::new("loop", vec![], Type::Void);
        let z = b.iconst(0);
        let n = b.iconst(10);
        let one = b.iconst(1);
        b.counted_loop(z, n, one, |b, i| {
            let p = b.alloca(Type::I64);
            b.store(p, i, Type::I64);
        });
        b.ret_void();
        assert!(verify_module(&module_with(b.finish())).is_empty());
    }
}
