//! Shared evaluation semantics for `bin`/`cmp` instructions.
//!
//! The VM interpreter and the optimizer's constant folder must agree *bit
//! for bit* on what every operator computes — any drift is a miscompile
//! that the differential-testing oracle (`cards-difftest`) will flag. This
//! module is the single source of truth both sides delegate to.
//!
//! Values are the raw 64-bit register bits the VM holds: integers are
//! stored sign-extended to 64 bits, floats as `f64` bit patterns. Integer
//! results are truncated to the instruction's result width and then
//! sign-extended back, exactly like hardware register writes of a narrow
//! type.

use crate::inst::{BinOp, CmpOp};
use crate::types::Type;

/// Division or remainder by zero — the only way evaluation can trap.
/// Folders must *preserve* the trap (refuse to fold); the VM surfaces it
/// as a runtime error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivByZero;

/// Sign-extend the low `ty` bits of `raw` to 64 bits (i1 is zero-extended:
/// booleans are 0 or 1).
#[inline]
pub fn extend(raw: u64, ty: Type) -> u64 {
    match ty {
        Type::I1 => raw & 1,
        Type::I8 => raw as u8 as i8 as i64 as u64,
        Type::I16 => raw as u16 as i16 as i64 as u64,
        Type::I32 => raw as u32 as i32 as i64 as u64,
        _ => raw,
    }
}

/// Mask selecting the value bits of `ty`.
#[inline]
pub fn width_mask(ty: Type) -> u64 {
    match ty {
        Type::I1 => 1,
        Type::I8 => 0xff,
        Type::I16 => 0xffff,
        Type::I32 => 0xffff_ffff,
        _ => u64::MAX,
    }
}

/// Evaluate a binary operation over register bits, producing the result
/// bits. Integer ops wrap, are truncated to `ty`'s width, and sign-extended
/// back; shifts take the amount modulo 64 (Rust `wrapping_shl`/`shr`);
/// `i64::MIN / -1` wraps to `i64::MIN`. Float ops interpret the bits as
/// `f64`.
#[inline]
pub fn eval_bin(op: BinOp, a: u64, b: u64, ty: Type) -> Result<u64, DivByZero> {
    if op.is_float() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            BinOp::FAdd => x + y,
            BinOp::FSub => x - y,
            BinOp::FMul => x * y,
            BinOp::FDiv => x / y,
            _ => unreachable!("is_float covers exactly the F* ops"),
        };
        return Ok(r.to_bits());
    }
    let (sa, sb) = (a as i64, b as i64);
    let r = match op {
        BinOp::Add => sa.wrapping_add(sb) as u64,
        BinOp::Sub => sa.wrapping_sub(sb) as u64,
        BinOp::Mul => sa.wrapping_mul(sb) as u64,
        BinOp::SDiv => {
            if sb == 0 {
                return Err(DivByZero);
            }
            sa.wrapping_div(sb) as u64
        }
        BinOp::UDiv => {
            if b == 0 {
                return Err(DivByZero);
            }
            a / b
        }
        BinOp::SRem => {
            if sb == 0 {
                return Err(DivByZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::URem => {
            if b == 0 {
                return Err(DivByZero);
            }
            a % b
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::LShr => a.wrapping_shr(b as u32),
        BinOp::AShr => (sa.wrapping_shr(b as u32)) as u64,
        _ => unreachable!("float ops handled above"),
    };
    Ok(extend(r & width_mask(ty), ty))
}

/// Evaluate a comparison over register bits. Signed predicates reinterpret
/// the bits as `i64`, float predicates as `f64` (so `FNe` on NaN is true).
#[inline]
pub fn eval_cmp(op: CmpOp, a: u64, b: u64) -> bool {
    let (sa, sb) = (a as i64, b as i64);
    let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Slt => sa < sb,
        CmpOp::Sle => sa <= sb,
        CmpOp::Sgt => sa > sb,
        CmpOp::Sge => sa >= sb,
        CmpOp::Ult => a < b,
        CmpOp::Ule => a <= b,
        CmpOp::Ugt => a > b,
        CmpOp::Uge => a >= b,
        CmpOp::FEq => fa == fb,
        CmpOp::FNe => fa != fb,
        CmpOp::FLt => fa < fb,
        CmpOp::FLe => fa <= fb,
        CmpOp::FGt => fa > fb,
        CmpOp::FGe => fa >= fb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_results_are_masked_and_sign_extended() {
        // 0x80 + 0x80 in i8 = 0x00 (wraps); in i64 = 0x100.
        assert_eq!(eval_bin(BinOp::Add, 0x80, 0x80, Type::I8), Ok(0));
        assert_eq!(eval_bin(BinOp::Add, 0x80, 0x80, Type::I64), Ok(0x100));
        // 0x7fff_ffff + 1 in i32 wraps to i32::MIN, sign-extended.
        assert_eq!(
            eval_bin(BinOp::Add, 0x7fff_ffff, 1, Type::I32),
            Ok(i32::MIN as i64 as u64)
        );
        // multiply overflow in i16.
        assert_eq!(
            eval_bin(BinOp::Mul, 300, 300, Type::I16),
            Ok(((300i64 * 300) as i16) as i64 as u64)
        );
    }

    #[test]
    fn division_corners() {
        // i64::MIN / -1 wraps rather than trapping.
        let min = i64::MIN as u64;
        let neg1 = -1i64 as u64;
        assert_eq!(eval_bin(BinOp::SDiv, min, neg1, Type::I64), Ok(min));
        assert_eq!(eval_bin(BinOp::SRem, min, neg1, Type::I64), Ok(0));
        // zero divisors trap for all four ops.
        for op in [BinOp::SDiv, BinOp::SRem, BinOp::UDiv, BinOp::URem] {
            assert_eq!(eval_bin(op, 1, 0, Type::I64), Err(DivByZero));
        }
        // unsigned division treats the bits as u64.
        assert_eq!(eval_bin(BinOp::UDiv, neg1, 2, Type::I64), Ok(u64::MAX / 2));
        assert_eq!(
            eval_bin(BinOp::URem, neg1, 10, Type::I64),
            Ok(u64::MAX % 10)
        );
    }

    #[test]
    fn shift_corners() {
        // shift amounts are taken modulo 64 (wrapping semantics).
        assert_eq!(eval_bin(BinOp::Shl, 1, 64, Type::I64), Ok(1));
        assert_eq!(eval_bin(BinOp::Shl, 1, 65, Type::I64), Ok(2));
        assert_eq!(
            eval_bin(BinOp::Shl, 1, -1i64 as u64, Type::I64),
            Ok(1u64 << 63)
        );
        // AShr smears the sign bit; LShr shifts in zeros.
        let neg = -8i64 as u64;
        assert_eq!(eval_bin(BinOp::AShr, neg, 1, Type::I64), Ok(-4i64 as u64));
        assert_eq!(
            eval_bin(BinOp::LShr, neg, 1, Type::I64),
            Ok((-8i64 as u64) >> 1)
        );
    }

    #[test]
    fn cmp_signedness() {
        let neg1 = -1i64 as u64;
        assert!(eval_cmp(CmpOp::Slt, neg1, 0));
        assert!(eval_cmp(CmpOp::Ugt, neg1, 0));
        assert!(eval_cmp(CmpOp::Eq, 5, 5));
        // NaN compares false under ordered predicates, true under FNe.
        let nan = f64::NAN.to_bits();
        assert!(!eval_cmp(CmpOp::FEq, nan, nan));
        assert!(eval_cmp(CmpOp::FNe, nan, nan));
    }
}
