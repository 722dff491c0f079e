//! Register allocation over the flat IR: the load-time lowering from the
//! serializable [`Op`](crate::ir::Op) stream into the stackless
//! three-address [`RegOp`] form executed by [`crate::dispatch`].
//!
//! # The register model
//!
//! Validation proves that the operand stack height at every instruction is
//! a static quantity. This pass exploits that: each stack temporary at
//! height `h` is assigned the fixed frame slot `n_local_slots + h`, so
//! locals and stack temporaries share one flat **register space** — a
//! register number is simply an offset into the activation frame, which is
//! a statically-sized window (`frame_size` slots) of the per-instance slot
//! arena. The hot loop performs no push/pop traffic at all: every operand
//! read and result write is `frame[imm]`.
//!
//! Collapsing the spaces also collapses the superinstruction set: the
//! stack form `i32.add` and the fused `I32AddLL(a, b)` both lower to the
//! same [`Rc::Add32`] `{a, b, c}` — only the register fields differ
//! (stack temps for the former, local slots for the latter). The
//! remaining specialized opcodes are the addressing forms (scaled /
//! biased loads and stores) and the fused compare-and-branches.
//!
//! # Invariants established here and relied on by the executor
//!
//! * **Frame layout**: registers `0..param_slots` are the parameters
//!   (written by the caller in place), `param_slots..n_local_slots` the
//!   declared locals (zeroed at call entry), `n_local_slots..frame_size`
//!   the stack temporaries (no init — validation guarantees every read is
//!   preceded by a write on every path).
//! * **Liveness**: a stack temporary is dead once execution moves below
//!   its height; branch unwinding copies the `arity` carried slots from
//!   their static source offset to the target height's offset, so merge
//!   points always find operands at the registers the target expects.
//! * **Bounds**: [`verify`] (always run by [`lower`]) proves every
//!   register operand `< frame_size`, every branch target in range and
//!   every pool reference valid, which makes the executor's unchecked
//!   frame accesses sound even for hand-corrupted cache artifacts —
//!   `lower` returns `Err` (and the cache recompiles) rather than
//!   executing out-of-model code.
//!
//! The pass is a single forward walk (heights propagate to branch targets
//! before the targets are visited — flat code from structured Wasm always
//! reaches a label's height before the label), followed by a register
//! peephole for the addressing forms the serializable IR cannot express
//! (scaled stores with value-computation windows, i64/f32 scaled loads)
//! and a nop compaction that keeps the dispatched stream dense.

use crate::instr::Instr;
use crate::ir::{Cmp, Dest, Op};
use crate::module::{Function, Module};
use crate::widths;

/// One executable register-form operation. 24 bytes, fixed layout; the
/// meaning of `a`/`b`/`c`/`aux`/`imm` depends on [`Rc`] (documented
/// per-family on the enum). By convention `a`/`b` are source registers and
/// `c` is the destination register; branch targets live in `c`, constants
/// and packed unwind info in `imm`, and small immediates (shift counts,
/// comparison codes, lane indices) in `aux`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegOp {
    pub imm: u64,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub code: Rc,
    pub aux: u8,
}

/// Register-form opcodes. Families share operand conventions:
///
/// * compute ops: `frame[c] = frame[a] ⊕ frame[b]` (binary) or
///   `frame[c] = ⊕ frame[a]` (unary); `Cmp*` carry the comparison in
///   `aux` ([`Cmp`] codes for integers, 0..=5 `eq ne lt gt le ge` for
///   floats).
/// * loads: address `= wrap(frame[a].i32 + bias) + offset` with
///   `imm = offset | bias << 32`; result to `c`. Scaled forms add
///   `frame[b]` (base register, `*Shl`) or use a constant base folded
///   into `bias` (`*ShlK`), scaling `frame[a] << aux`.
/// * stores: address register `a`, value register `b`, `imm = offset`
///   (scaled stores move the value to `b`, index to `a`, base to `c`
///   or bias into `imm` high half).
/// * branches: target in `c`, packed unwind copy in `imm`
///   ([`pack_unwind`]), operands in `a`/`b` (`BrIfCmp32K` compares
///   `frame[a]` with the constant in `b`).
/// * calls: `b` = frame-relative offset where the argument slots start
///   (the callee's frame base); `a` = defined-function index
///   (`CallGuest`), host-function index (`CallHost`) or type index
///   (`CallIndirect`, table-index register in `c`).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rc {
    // -- control --
    Nop = 0,
    Jump,
    Br,
    BrIf,
    /// Branch when `frame[a] == 0` (fused `eqz`/`if` polarity).
    BrIfZ,
    BrIfCmp32,
    BrIfCmp32K,
    BrTable,
    Return,
    Unreachable,
    CallGuest,
    CallHost,
    CallIndirect,
    // -- moves / parametric --
    Copy,
    Copy2,
    /// `frame[a] = cond(frame[c]) ? frame[a] : frame[b]` (dst == a).
    Select,
    Select2,
    GlobalGet,
    GlobalSet,
    // -- constants --
    Const,
    V128Const,
    // -- memory --
    Load32,
    Load64,
    Load8S32,
    Load8U32,
    Load16S32,
    Load16U32,
    Load8S64,
    Load8U64,
    Load16S64,
    Load16U64,
    Load32S64,
    Load32U64,
    V128Load,
    Store8,
    Store16,
    Store32,
    Store64,
    V128Store,
    Load32Shl,
    Load64Shl,
    Load32ShlK,
    Load64ShlK,
    Store32Shl,
    Store64Shl,
    Store32ShlK,
    Store64ShlK,
    MemSize,
    MemGrow,
    MemCopy,
    MemFill,
    // -- i32 --
    Eqz32,
    Cmp32,
    Clz32,
    Ctz32,
    Popcnt32,
    Add32,
    Sub32,
    Mul32,
    DivS32,
    DivU32,
    RemS32,
    RemU32,
    And32,
    Or32,
    Xor32,
    Shl32,
    ShrS32,
    ShrU32,
    Rotl32,
    Rotr32,
    /// `frame[c] = frame[a] +wrap (b as i32)` — covers `I32AddK`,
    /// `I32AddLK` and (with `c == a` a local) `I32IncL`.
    AddK32,
    ShlK32,
    /// `frame[c] = frame[b] +wrap (frame[a] << aux)` (address form).
    AddShl32,
    // -- i64 --
    Eqz64,
    Cmp64,
    Clz64,
    Ctz64,
    Popcnt64,
    Add64,
    Sub64,
    Mul64,
    DivS64,
    DivU64,
    RemS64,
    RemU64,
    And64,
    Or64,
    Xor64,
    Shl64,
    ShrS64,
    ShrU64,
    Rotl64,
    Rotr64,
    // -- f32 --
    CmpF32,
    AbsF32,
    NegF32,
    CeilF32,
    FloorF32,
    TruncF32,
    NearestF32,
    SqrtF32,
    AddF32,
    SubF32,
    MulF32,
    DivF32,
    MinF32,
    MaxF32,
    CopysignF32,
    // -- f64 --
    CmpF64,
    AbsF64,
    NegF64,
    CeilF64,
    FloorF64,
    TruncF64,
    NearestF64,
    SqrtF64,
    AddF64,
    SubF64,
    MulF64,
    DivF64,
    MinF64,
    MaxF64,
    CopysignF64,
    /// `frame[c] = frame[c] + frame[a] * frame[b]` (both roundings kept).
    Fma64,
    // -- conversions --
    Wrap64,
    TruncF32S32,
    TruncF32U32,
    TruncF64S32,
    TruncF64U32,
    ExtS3264,
    ExtU3264,
    TruncF32S64,
    TruncF32U64,
    TruncF64S64,
    TruncF64U64,
    ConvS32F32,
    ConvU32F32,
    ConvS64F32,
    ConvU64F32,
    Demote,
    ConvS32F64,
    ConvU32F64,
    ConvS64F64,
    ConvU64F64,
    Promote,
    Ext8S32,
    Ext16S32,
    Ext8S64,
    Ext16S64,
    Ext32S64,
    // -- simd (wide registers occupy two slots, low half first) --
    Splat32,
    Splat64,
    Extract32,
    Extract64,
    Replace64,
    AddI32x4,
    SubI32x4,
    MulI32x4,
    AddF32x4,
    SubF32x4,
    MulF32x4,
    DivF32x4,
    AddF64x2,
    SubF64x2,
    MulF64x2,
    DivF64x2,
    CmpF64x2,
    VAnd,
    VOr,
    VXor,
    VNot,
    VAnyTrue,
    AllTrueI32x4,
    BitmaskI32x4,
    /// `frame[c] = cmp(frame[a], b as i32)` — formed by constant
    /// forwarding (no serializable counterpart).
    Cmp32K,
    /// `frame[c] = frame[a] +wrap (imm as i64)` — formed by constant
    /// forwarding (no serializable counterpart). The constant lives in
    /// `imm` because `b` is only 32 bits wide.
    AddK64,
    /// `frame[c] = cmp64(frame[a], imm as i64)` with the comparison code
    /// in `aux` — formed by constant forwarding (no serializable
    /// counterpart).
    Cmp64K,
}

/// One `br_table` destination in the side pool: resolved target plus the
/// packed unwind copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrDest {
    pub target: u32,
    pub unwind: u64,
}

/// A function lowered to register form: the executable artifact derived
/// from the portable [`Op`] stream at load time (never serialized).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegFunc {
    pub code: Vec<RegOp>,
    /// `br_table` destinations; an op references `[b, b + c]` (the entry
    /// at `b + c` is the default).
    pub dest_pool: Vec<BrDest>,
    /// v128 constants (too wide for `imm`).
    pub v128_pool: Vec<u128>,
    /// Total frame slots: locals plus the maximum operand-stack height.
    pub frame_size: u32,
    pub n_local_slots: u32,
    pub param_slots: u32,
    pub result_slots: u32,
}

impl RegFunc {
    pub fn size_bytes(&self) -> usize {
        self.code.len() * std::mem::size_of::<RegOp>()
            + self.dest_pool.len() * std::mem::size_of::<BrDest>()
            + self.v128_pool.len() * 16
    }
}

/// Registers and unwind offsets must fit the packed branch encoding.
const MAX_REG: u32 = (1 << 24) - 1;

/// Pack a branch's unwind copy: move `arity` slots from frame offset
/// `src` down to `dst`. `0` means "no copy needed" (encoded when the
/// slots are already in place).
pub fn pack_unwind(src: u32, dst: u32, arity: u32) -> Result<u64, String> {
    if arity == 0 || src == dst {
        return Ok(0);
    }
    if arity > 0xffff || src > MAX_REG || dst > MAX_REG {
        return Err("branch unwind exceeds encodable range".into());
    }
    Ok(arity as u64 | (src as u64) << 16 | (dst as u64) << 40)
}

/// Unpack [`pack_unwind`]: `(src, dst, arity)`.
#[inline(always)]
pub fn unwind_parts(imm: u64) -> (usize, usize, usize) {
    (
        ((imm >> 16) & 0xff_ffff) as usize,
        (imm >> 40) as usize,
        (imm & 0xffff) as usize,
    )
}

#[inline]
fn rop(code: Rc, a: u32, b: u32, c: u32, aux: u8, imm: u64) -> RegOp {
    RegOp { imm, a, b, c, code, aux }
}

/// Float comparison codes shared by `CmpF32`/`CmpF64`/`CmpF64x2`.
pub const FEQ: u8 = 0;
pub const FNE: u8 = 1;
pub const FLT: u8 = 2;
pub const FGT: u8 = 3;
pub const FLE: u8 = 4;
pub const FGE: u8 = 5;

#[inline(always)]
pub fn feval<T: PartialOrd>(code: u8, a: T, b: T) -> bool {
    match code {
        FEQ => a == b,
        FNE => a != b,
        FLT => a < b,
        FGT => a > b,
        FLE => a <= b,
        _ => a >= b,
    }
}

/// Successor shape of one lowered op, driving height propagation.
enum Next {
    Fall(u32),
    Jump { target: u32, th: u32 },
    CondFall { fall: u32, target: u32, th: u32 },
    Stop,
}

/// Lower one function's flat ops to register form. Runs the full
/// pipeline: heights + translation, register peephole, nop compaction,
/// verification. Returns `Err` on malformed input (corrupt cache
/// artifacts) — the caller falls back to recompilation.
pub(crate) fn lower(module: &Module, func: &Function, ops: &[Op]) -> Result<RegFunc, String> {
    let fty = &module.types[func.type_idx as usize];
    let (local_map, n_local_slots) = widths::local_map(&fty.params, &func.locals);
    let param_slots = widths::slot_count(&fty.params);
    let result_slots = widths::slot_count(&fty.results);
    let imported = module.num_imported_funcs() as u32;

    let mut code: Vec<RegOp> = Vec::with_capacity(ops.len());
    let mut dest_pool: Vec<BrDest> = Vec::new();
    let mut v128_pool: Vec<u128> = Vec::new();
    let mut heights: Vec<Option<u32>> = vec![None; ops.len()];
    if !ops.is_empty() {
        heights[0] = Some(0);
    }
    let mut max_h: u32 = 0;

    // Shared height-setting with merge check.
    fn set_h(
        heights: &mut [Option<u32>],
        max_h: &mut u32,
        at: usize,
        h: u32,
    ) -> Result<(), String> {
        if at >= heights.len() {
            return Err(format!("branch target {at} out of range"));
        }
        match heights[at] {
            None => heights[at] = Some(h),
            Some(prev) if prev == h => {}
            Some(prev) => {
                return Err(format!("height mismatch at op {at}: {prev} vs {h}"));
            }
        }
        *max_h = (*max_h).max(h);
        Ok(())
    }

    let slot = |i: u32| -> Result<u32, String> {
        local_map
            .get(i as usize)
            .map(|m| m >> 1)
            .ok_or_else(|| format!("local index {i} out of range"))
    };
    let wide = |i: u32| -> bool { local_map.get(i as usize).map_or(false, |m| m & 1 != 0) };

    for (i, op) in ops.iter().enumerate() {
        let Some(h) = heights[i] else {
            // Statically unreachable op (possible only in corrupt or
            // hand-built streams); keep indices 1:1 with a trap.
            code.push(rop(Rc::Unreachable, 0, 0, 0, 0, 0));
            continue;
        };
        max_h = max_h.max(h);
        let base = n_local_slots;
        // Register of the stack temp at height `x`.
        let r = |x: u32| base + x;
        macro_rules! need {
            ($n:expr) => {
                if h < $n {
                    return Err(format!("operand stack underflow at op {i}"));
                }
            };
        }
        // Unwind for a branch evaluated at (post-pop) height `ph`.
        macro_rules! unwind_to {
            ($d:expr, $ph:expr) => {{
                let d: &Dest = $d;
                let ph: u32 = $ph;
                if d.arity > ph || d.height + d.arity > ph {
                    return Err(format!("branch unwind out of range at op {i}"));
                }
                pack_unwind(r(ph - d.arity), r(d.height), d.arity)?
            }};
        }

        let (regop, next) = match op {
            Op::Nop => (rop(Rc::Nop, 0, 0, 0, 0, 0), Next::Fall(h)),
            Op::Jump(t) => (rop(Rc::Jump, 0, 0, *t, 0, 0), Next::Jump { target: *t, th: h }),
            Op::JumpIfZero(t) => {
                need!(1);
                (
                    rop(Rc::BrIfZ, r(h - 1), 0, *t, 0, 0),
                    Next::CondFall { fall: h - 1, target: *t, th: h - 1 },
                )
            }
            Op::Br(d) => {
                let u = unwind_to!(d, h);
                (
                    rop(Rc::Br, 0, 0, d.target, 0, u),
                    Next::Jump { target: d.target, th: d.height + d.arity },
                )
            }
            Op::BrIf(d) => {
                need!(1);
                let u = unwind_to!(d, h - 1);
                (
                    rop(Rc::BrIf, r(h - 1), 0, d.target, 0, u),
                    Next::CondFall { fall: h - 1, target: d.target, th: d.height + d.arity },
                )
            }
            Op::BrIfEqz(d) => {
                need!(1);
                let u = unwind_to!(d, h - 1);
                (
                    rop(Rc::BrIfZ, r(h - 1), 0, d.target, 0, u),
                    Next::CondFall { fall: h - 1, target: d.target, th: d.height + d.arity },
                )
            }
            Op::BrIfCmp { cmp, dest } => {
                need!(2);
                let u = unwind_to!(dest, h - 2);
                (
                    rop(Rc::BrIfCmp32, r(h - 2), r(h - 1), dest.target, cmp.to_byte(), u),
                    Next::CondFall {
                        fall: h - 2,
                        target: dest.target,
                        th: dest.height + dest.arity,
                    },
                )
            }
            Op::BrIfCmpLL { cmp, a, b, dest } => {
                let u = unwind_to!(dest, h);
                (
                    rop(
                        Rc::BrIfCmp32,
                        slot(*a as u32)?,
                        slot(*b as u32)?,
                        dest.target,
                        cmp.to_byte(),
                        u,
                    ),
                    Next::CondFall { fall: h, target: dest.target, th: dest.height + dest.arity },
                )
            }
            Op::BrIfCmpLK { cmp, a, k, dest } => {
                let u = unwind_to!(dest, h);
                (
                    rop(
                        Rc::BrIfCmp32K,
                        slot(*a as u32)?,
                        *k as u32,
                        dest.target,
                        cmp.to_byte(),
                        u,
                    ),
                    Next::CondFall { fall: h, target: dest.target, th: dest.height + dest.arity },
                )
            }
            Op::BrTable { dests, default } => {
                need!(1);
                let ph = h - 1;
                let start = dest_pool.len() as u32;
                for d in dests.iter().chain(std::iter::once(default)) {
                    let u = unwind_to!(d, ph);
                    set_h(&mut heights, &mut max_h, d.target as usize, d.height + d.arity)?;
                    dest_pool.push(BrDest { target: d.target, unwind: u });
                }
                (
                    rop(Rc::BrTable, r(h - 1), start, dests.len() as u32, 0, 0),
                    Next::Stop,
                )
            }
            Op::Return => {
                need!(result_slots);
                (rop(Rc::Return, r(h - result_slots), 0, 0, 0, 0), Next::Stop)
            }
            Op::Unreachable => (rop(Rc::Unreachable, 0, 0, 0, 0, 0), Next::Stop),
            Op::Drop2 => {
                need!(2);
                (rop(Rc::Nop, 0, 0, 0, 0, 0), Next::Fall(h - 2))
            }
            Op::Select2 => {
                need!(5);
                (
                    rop(Rc::Select2, r(h - 5), r(h - 3), r(h - 1), 0, 0),
                    Next::Fall(h - 3),
                )
            }

            // --- superinstructions: register fields point at locals ---
            Op::I32AddLL(a, b) => (
                rop(Rc::Add32, slot(*a as u32)?, slot(*b as u32)?, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::I64AddLL(a, b) => (
                rop(Rc::Add64, slot(*a as u32)?, slot(*b as u32)?, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::F64AddLL(a, b) => (
                rop(Rc::AddF64, slot(*a as u32)?, slot(*b as u32)?, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::F64MulLL(a, b) => (
                rop(Rc::MulF64, slot(*a as u32)?, slot(*b as u32)?, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::F64SubLL(a, b) => (
                rop(Rc::SubF64, slot(*a as u32)?, slot(*b as u32)?, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::I32AddLK(a, k) => (
                rop(Rc::AddK32, slot(*a as u32)?, *k as u32, r(h), 0, 0),
                Next::Fall(h + 1),
            ),
            Op::I32IncL(a, k) => {
                let s = slot(*a as u32)?;
                (rop(Rc::AddK32, s, *k as u32, s, 0, 0), Next::Fall(h))
            }
            Op::I32AddK(k) => {
                need!(1);
                (rop(Rc::AddK32, r(h - 1), *k as u32, r(h - 1), 0, 0), Next::Fall(h))
            }
            Op::I32ShlLK(a, k) => (
                rop(Rc::ShlK32, slot(*a as u32)?, 0, r(h), *k & 31, 0),
                Next::Fall(h + 1),
            ),
            Op::I32AddShlLL { base: bl, idx, shift } => (
                rop(
                    Rc::AddShl32,
                    slot(*idx as u32)?,
                    slot(*bl as u32)?,
                    r(h),
                    *shift,
                    0,
                ),
                Next::Fall(h + 1),
            ),
            Op::F64LoadL { local, bias, offset } => (
                rop(
                    Rc::Load64,
                    slot(*local as u32)?,
                    0,
                    r(h),
                    0,
                    *offset as u64 | (*bias as u32 as u64) << 32,
                ),
                Next::Fall(h + 1),
            ),
            Op::I32LoadL { local, bias, offset } => (
                rop(
                    Rc::Load32,
                    slot(*local as u32)?,
                    0,
                    r(h),
                    0,
                    *offset as u64 | (*bias as u32 as u64) << 32,
                ),
                Next::Fall(h + 1),
            ),
            Op::F64StoreLL { addr, val, offset } => (
                rop(
                    Rc::Store64,
                    slot(*addr as u32)?,
                    slot(*val as u32)?,
                    0,
                    0,
                    *offset as u64,
                ),
                Next::Fall(h),
            ),
            Op::F64MulL(b) => {
                need!(1);
                (
                    rop(Rc::MulF64, r(h - 1), slot(*b as u32)?, r(h - 1), 0, 0),
                    Next::Fall(h),
                )
            }
            Op::F64AddL(b) => {
                need!(1);
                (
                    rop(Rc::AddF64, r(h - 1), slot(*b as u32)?, r(h - 1), 0, 0),
                    Next::Fall(h),
                )
            }
            Op::F64LoadLSh { base: bl, idx, shift, offset } => (
                rop(
                    Rc::Load64Shl,
                    slot(*idx as u32)?,
                    slot(*bl as u32)?,
                    r(h),
                    *shift,
                    *offset as u64,
                ),
                Next::Fall(h + 1),
            ),
            Op::I32LoadLSh { base: bl, idx, shift, offset } => (
                rop(
                    Rc::Load32Shl,
                    slot(*idx as u32)?,
                    slot(*bl as u32)?,
                    r(h),
                    *shift,
                    *offset as u64,
                ),
                Next::Fall(h + 1),
            ),
            Op::F64LoadShlK { idx, shift, bias, offset } => (
                rop(
                    Rc::Load64ShlK,
                    slot(*idx as u32)?,
                    0,
                    r(h),
                    *shift,
                    *offset as u64 | (*bias as u32 as u64) << 32,
                ),
                Next::Fall(h + 1),
            ),
            Op::I32LoadShlK { idx, shift, bias, offset } => (
                rop(
                    Rc::Load32ShlK,
                    slot(*idx as u32)?,
                    0,
                    r(h),
                    *shift,
                    *offset as u64 | (*bias as u32 as u64) << 32,
                ),
                Next::Fall(h + 1),
            ),
            Op::F64MulAdd => {
                need!(3);
                (
                    rop(Rc::Fma64, r(h - 2), r(h - 1), r(h - 3), 0, 0),
                    Next::Fall(h - 2),
                )
            }

            Op::Plain(instr) => lower_plain(
                instr, module, i, h, base, imported, &slot, &wide, &mut v128_pool,
            )?,
        };
        code.push(regop);
        match next {
            Next::Fall(nh) => set_h(&mut heights, &mut max_h, i + 1, nh)?,
            Next::Jump { target, th } => {
                set_h(&mut heights, &mut max_h, target as usize, th)?
            }
            Next::CondFall { fall, target, th } => {
                set_h(&mut heights, &mut max_h, i + 1, fall)?;
                set_h(&mut heights, &mut max_h, target as usize, th)?;
            }
            Next::Stop => {}
        }
    }

    if code.is_empty() {
        return Err("empty op stream".into());
    }
    let frame_size = n_local_slots
        .checked_add(max_h)
        .filter(|&f| f <= MAX_REG)
        .ok_or("frame size exceeds encodable range")?;

    let mut rf = RegFunc {
        code,
        dest_pool,
        v128_pool,
        frame_size,
        n_local_slots,
        param_slots,
        result_slots,
    };
    // Entry heights per op, kept index-aligned with `rf.code` through
    // every pass (compaction remaps them alongside the targets). They are
    // the liveness oracle: at an op with entry height `h`, every register
    // `>= n_local_slots + h` is dead.
    let mut hs: Vec<u32> = heights
        .iter()
        .map(|h| h.unwrap_or(u32::MAX))
        .collect();
    compact(&mut rf, &mut hs);
    // Iterate forwarding / dead-code / addressing fusion to a bounded
    // fixpoint: each pass exposes opportunities for the others (a
    // forwarded constant turns Mul32 into ShlK32, which the addressing
    // pass folds into a scaled load, which leaves the Copy dead...).
    for _ in 0..3 {
        // Neither forwarding nor elimination adds or removes a branch.
        let targets = jump_targets(&rf);
        let a = forward(&mut rf, &hs, &targets);
        let b = eliminate(&mut rf, &hs);
        let c = peephole(&mut rf, &mut hs, &targets);
        if !(a || b || c) {
            break;
        }
        compact(&mut rf, &mut hs);
    }
    verify(&rf, module)?;
    Ok(rf)
}

/// Lower one straight-line instruction at entry height `h`. Returns the
/// register op and the successor shape (always `Fall`).
#[allow(clippy::too_many_arguments)]
fn lower_plain(
    instr: &Instr,
    module: &Module,
    i: usize,
    h: u32,
    base: u32,
    imported: u32,
    slot: &dyn Fn(u32) -> Result<u32, String>,
    wide: &dyn Fn(u32) -> bool,
    v128_pool: &mut Vec<u128>,
) -> Result<(RegOp, Next), String> {
    use Instr as I;
    let r = |x: u32| base + x;
    macro_rules! need {
        ($n:expr) => {
            if h < $n {
                return Err(format!("operand stack underflow at op {i}"));
            }
        };
    }
    // Shape helpers. Each returns (RegOp, Next).
    macro_rules! bin {
        ($rc:expr) => {{
            need!(2);
            (rop($rc, r(h - 2), r(h - 1), r(h - 2), 0, 0), Next::Fall(h - 1))
        }};
    }
    macro_rules! cmp {
        ($rc:expr, $code:expr) => {{
            need!(2);
            (rop($rc, r(h - 2), r(h - 1), r(h - 2), $code, 0), Next::Fall(h - 1))
        }};
    }
    macro_rules! un {
        ($rc:expr) => {{
            need!(1);
            (rop($rc, r(h - 1), 0, r(h - 1), 0, 0), Next::Fall(h))
        }};
    }
    macro_rules! ld {
        ($rc:expr, $m:expr) => {{
            need!(1);
            (
                rop($rc, r(h - 1), 0, r(h - 1), 0, $m.offset as u64),
                Next::Fall(h),
            )
        }};
    }
    macro_rules! st {
        ($rc:expr, $m:expr) => {{
            need!(2);
            (
                rop($rc, r(h - 2), r(h - 1), 0, 0, $m.offset as u64),
                Next::Fall(h - 2),
            )
        }};
    }
    macro_rules! cst {
        ($bits:expr) => {{
            (rop(Rc::Const, 0, 0, r(h), 0, $bits), Next::Fall(h + 1))
        }};
    }
    macro_rules! vbin {
        ($rc:expr) => {{
            need!(4);
            (rop($rc, r(h - 4), r(h - 2), r(h - 4), 0, 0), Next::Fall(h - 2))
        }};
    }

    Ok(match instr {
        I::Nop => (rop(Rc::Nop, 0, 0, 0, 0, 0), Next::Fall(h)),
        I::Drop => {
            need!(1);
            (rop(Rc::Nop, 0, 0, 0, 0, 0), Next::Fall(h - 1))
        }
        I::Select => {
            need!(3);
            (
                rop(Rc::Select, r(h - 3), r(h - 2), r(h - 1), 0, 0),
                Next::Fall(h - 2),
            )
        }
        I::LocalGet(x) => {
            let s = slot(*x)?;
            if wide(*x) {
                (rop(Rc::Copy2, s, 0, r(h), 0, 0), Next::Fall(h + 2))
            } else {
                (rop(Rc::Copy, s, 0, r(h), 0, 0), Next::Fall(h + 1))
            }
        }
        I::LocalSet(x) => {
            let s = slot(*x)?;
            if wide(*x) {
                need!(2);
                (rop(Rc::Copy2, r(h - 2), 0, s, 0, 0), Next::Fall(h - 2))
            } else {
                need!(1);
                (rop(Rc::Copy, r(h - 1), 0, s, 0, 0), Next::Fall(h - 1))
            }
        }
        I::LocalTee(x) => {
            let s = slot(*x)?;
            if wide(*x) {
                need!(2);
                (rop(Rc::Copy2, r(h - 2), 0, s, 0, 0), Next::Fall(h))
            } else {
                need!(1);
                (rop(Rc::Copy, r(h - 1), 0, s, 0, 0), Next::Fall(h))
            }
        }
        I::GlobalGet(g) => (rop(Rc::GlobalGet, *g, 0, r(h), 0, 0), Next::Fall(h + 1)),
        I::GlobalSet(g) => {
            need!(1);
            (rop(Rc::GlobalSet, *g, r(h - 1), 0, 0, 0), Next::Fall(h - 1))
        }
        I::Call(f) => {
            let ty = module
                .func_type(*f)
                .ok_or_else(|| format!("call target {f} out of range"))?;
            let p = widths::slot_count(&ty.params);
            let res = widths::slot_count(&ty.results);
            need!(p);
            let arg_base = r(h - p);
            let op = if *f < imported {
                rop(Rc::CallHost, *f, arg_base, 0, 0, 0)
            } else {
                rop(Rc::CallGuest, *f - imported, arg_base, 0, 0, 0)
            };
            (op, Next::Fall(h - p + res))
        }
        I::CallIndirect { type_idx, .. } => {
            let ty = module
                .types
                .get(*type_idx as usize)
                .ok_or_else(|| format!("call_indirect type {type_idx} out of range"))?;
            let p = widths::slot_count(&ty.params);
            let res = widths::slot_count(&ty.results);
            need!(p + 1);
            (
                rop(Rc::CallIndirect, *type_idx, r(h - 1 - p), r(h - 1), 0, 0),
                Next::Fall(h - 1 - p + res),
            )
        }

        // Memory.
        I::I32Load(m) | I::F32Load(m) => ld!(Rc::Load32, m),
        I::I64Load(m) | I::F64Load(m) => ld!(Rc::Load64, m),
        I::I32Load8S(m) => ld!(Rc::Load8S32, m),
        I::I32Load8U(m) => ld!(Rc::Load8U32, m),
        I::I32Load16S(m) => ld!(Rc::Load16S32, m),
        I::I32Load16U(m) => ld!(Rc::Load16U32, m),
        I::I64Load8S(m) => ld!(Rc::Load8S64, m),
        I::I64Load8U(m) => ld!(Rc::Load8U64, m),
        I::I64Load16S(m) => ld!(Rc::Load16S64, m),
        I::I64Load16U(m) => ld!(Rc::Load16U64, m),
        I::I64Load32S(m) => ld!(Rc::Load32S64, m),
        I::I64Load32U(m) => ld!(Rc::Load32U64, m),
        I::V128Load(m) => {
            need!(1);
            (
                rop(Rc::V128Load, r(h - 1), 0, r(h - 1), 0, m.offset as u64),
                Next::Fall(h + 1),
            )
        }
        I::I32Store(m) | I::F32Store(m) | I::I64Store32(m) => st!(Rc::Store32, m),
        I::I64Store(m) | I::F64Store(m) => st!(Rc::Store64, m),
        I::I32Store8(m) | I::I64Store8(m) => st!(Rc::Store8, m),
        I::I32Store16(m) | I::I64Store16(m) => st!(Rc::Store16, m),
        I::V128Store(m) => {
            need!(3);
            (
                rop(Rc::V128Store, r(h - 3), r(h - 2), 0, 0, m.offset as u64),
                Next::Fall(h - 3),
            )
        }
        I::MemorySize => (rop(Rc::MemSize, 0, 0, r(h), 0, 0), Next::Fall(h + 1)),
        I::MemoryGrow => un!(Rc::MemGrow),
        I::MemoryCopy => {
            need!(3);
            (
                rop(Rc::MemCopy, r(h - 3), r(h - 2), r(h - 1), 0, 0),
                Next::Fall(h - 3),
            )
        }
        I::MemoryFill => {
            need!(3);
            (
                rop(Rc::MemFill, r(h - 3), r(h - 2), r(h - 1), 0, 0),
                Next::Fall(h - 3),
            )
        }

        // Constants.
        I::I32Const(v) => cst!(*v as u32 as u64),
        I::I64Const(v) => cst!(*v as u64),
        I::F32Const(v) => cst!(v.to_bits() as u64),
        I::F64Const(v) => cst!(v.to_bits()),
        I::V128Const(bytes) => {
            let idx = v128_pool.len() as u32;
            v128_pool.push(u128::from_le_bytes(*bytes));
            (rop(Rc::V128Const, idx, 0, r(h), 0, 0), Next::Fall(h + 2))
        }

        // i32.
        I::I32Eqz => un!(Rc::Eqz32),
        I::I32Eq => cmp!(Rc::Cmp32, Cmp::Eq.to_byte()),
        I::I32Ne => cmp!(Rc::Cmp32, Cmp::Ne.to_byte()),
        I::I32LtS => cmp!(Rc::Cmp32, Cmp::LtS.to_byte()),
        I::I32LtU => cmp!(Rc::Cmp32, Cmp::LtU.to_byte()),
        I::I32GtS => cmp!(Rc::Cmp32, Cmp::GtS.to_byte()),
        I::I32GtU => cmp!(Rc::Cmp32, Cmp::GtU.to_byte()),
        I::I32LeS => cmp!(Rc::Cmp32, Cmp::LeS.to_byte()),
        I::I32LeU => cmp!(Rc::Cmp32, Cmp::LeU.to_byte()),
        I::I32GeS => cmp!(Rc::Cmp32, Cmp::GeS.to_byte()),
        I::I32GeU => cmp!(Rc::Cmp32, Cmp::GeU.to_byte()),
        I::I32Clz => un!(Rc::Clz32),
        I::I32Ctz => un!(Rc::Ctz32),
        I::I32Popcnt => un!(Rc::Popcnt32),
        I::I32Add => bin!(Rc::Add32),
        I::I32Sub => bin!(Rc::Sub32),
        I::I32Mul => bin!(Rc::Mul32),
        I::I32DivS => bin!(Rc::DivS32),
        I::I32DivU => bin!(Rc::DivU32),
        I::I32RemS => bin!(Rc::RemS32),
        I::I32RemU => bin!(Rc::RemU32),
        I::I32And => bin!(Rc::And32),
        I::I32Or => bin!(Rc::Or32),
        I::I32Xor => bin!(Rc::Xor32),
        I::I32Shl => bin!(Rc::Shl32),
        I::I32ShrS => bin!(Rc::ShrS32),
        I::I32ShrU => bin!(Rc::ShrU32),
        I::I32Rotl => bin!(Rc::Rotl32),
        I::I32Rotr => bin!(Rc::Rotr32),

        // i64.
        I::I64Eqz => un!(Rc::Eqz64),
        I::I64Eq => cmp!(Rc::Cmp64, Cmp::Eq.to_byte()),
        I::I64Ne => cmp!(Rc::Cmp64, Cmp::Ne.to_byte()),
        I::I64LtS => cmp!(Rc::Cmp64, Cmp::LtS.to_byte()),
        I::I64LtU => cmp!(Rc::Cmp64, Cmp::LtU.to_byte()),
        I::I64GtS => cmp!(Rc::Cmp64, Cmp::GtS.to_byte()),
        I::I64GtU => cmp!(Rc::Cmp64, Cmp::GtU.to_byte()),
        I::I64LeS => cmp!(Rc::Cmp64, Cmp::LeS.to_byte()),
        I::I64LeU => cmp!(Rc::Cmp64, Cmp::LeU.to_byte()),
        I::I64GeS => cmp!(Rc::Cmp64, Cmp::GeS.to_byte()),
        I::I64GeU => cmp!(Rc::Cmp64, Cmp::GeU.to_byte()),
        I::I64Clz => un!(Rc::Clz64),
        I::I64Ctz => un!(Rc::Ctz64),
        I::I64Popcnt => un!(Rc::Popcnt64),
        I::I64Add => bin!(Rc::Add64),
        I::I64Sub => bin!(Rc::Sub64),
        I::I64Mul => bin!(Rc::Mul64),
        I::I64DivS => bin!(Rc::DivS64),
        I::I64DivU => bin!(Rc::DivU64),
        I::I64RemS => bin!(Rc::RemS64),
        I::I64RemU => bin!(Rc::RemU64),
        I::I64And => bin!(Rc::And64),
        I::I64Or => bin!(Rc::Or64),
        I::I64Xor => bin!(Rc::Xor64),
        I::I64Shl => bin!(Rc::Shl64),
        I::I64ShrS => bin!(Rc::ShrS64),
        I::I64ShrU => bin!(Rc::ShrU64),
        I::I64Rotl => bin!(Rc::Rotl64),
        I::I64Rotr => bin!(Rc::Rotr64),

        // f32.
        I::F32Eq => cmp!(Rc::CmpF32, FEQ),
        I::F32Ne => cmp!(Rc::CmpF32, FNE),
        I::F32Lt => cmp!(Rc::CmpF32, FLT),
        I::F32Gt => cmp!(Rc::CmpF32, FGT),
        I::F32Le => cmp!(Rc::CmpF32, FLE),
        I::F32Ge => cmp!(Rc::CmpF32, FGE),
        I::F32Abs => un!(Rc::AbsF32),
        I::F32Neg => un!(Rc::NegF32),
        I::F32Ceil => un!(Rc::CeilF32),
        I::F32Floor => un!(Rc::FloorF32),
        I::F32Trunc => un!(Rc::TruncF32),
        I::F32Nearest => un!(Rc::NearestF32),
        I::F32Sqrt => un!(Rc::SqrtF32),
        I::F32Add => bin!(Rc::AddF32),
        I::F32Sub => bin!(Rc::SubF32),
        I::F32Mul => bin!(Rc::MulF32),
        I::F32Div => bin!(Rc::DivF32),
        I::F32Min => bin!(Rc::MinF32),
        I::F32Max => bin!(Rc::MaxF32),
        I::F32Copysign => bin!(Rc::CopysignF32),

        // f64.
        I::F64Eq => cmp!(Rc::CmpF64, FEQ),
        I::F64Ne => cmp!(Rc::CmpF64, FNE),
        I::F64Lt => cmp!(Rc::CmpF64, FLT),
        I::F64Gt => cmp!(Rc::CmpF64, FGT),
        I::F64Le => cmp!(Rc::CmpF64, FLE),
        I::F64Ge => cmp!(Rc::CmpF64, FGE),
        I::F64Abs => un!(Rc::AbsF64),
        I::F64Neg => un!(Rc::NegF64),
        I::F64Ceil => un!(Rc::CeilF64),
        I::F64Floor => un!(Rc::FloorF64),
        I::F64Trunc => un!(Rc::TruncF64),
        I::F64Nearest => un!(Rc::NearestF64),
        I::F64Sqrt => un!(Rc::SqrtF64),
        I::F64Add => bin!(Rc::AddF64),
        I::F64Sub => bin!(Rc::SubF64),
        I::F64Mul => bin!(Rc::MulF64),
        I::F64Div => bin!(Rc::DivF64),
        I::F64Min => bin!(Rc::MinF64),
        I::F64Max => bin!(Rc::MaxF64),
        I::F64Copysign => bin!(Rc::CopysignF64),

        // Conversions. The four reinterpretations are no-ops on raw slots.
        I::I32WrapI64 => un!(Rc::Wrap64),
        I::I32TruncF32S => un!(Rc::TruncF32S32),
        I::I32TruncF32U => un!(Rc::TruncF32U32),
        I::I32TruncF64S => un!(Rc::TruncF64S32),
        I::I32TruncF64U => un!(Rc::TruncF64U32),
        I::I64ExtendI32S => un!(Rc::ExtS3264),
        I::I64ExtendI32U => un!(Rc::ExtU3264),
        I::I64TruncF32S => un!(Rc::TruncF32S64),
        I::I64TruncF32U => un!(Rc::TruncF32U64),
        I::I64TruncF64S => un!(Rc::TruncF64S64),
        I::I64TruncF64U => un!(Rc::TruncF64U64),
        I::F32ConvertI32S => un!(Rc::ConvS32F32),
        I::F32ConvertI32U => un!(Rc::ConvU32F32),
        I::F32ConvertI64S => un!(Rc::ConvS64F32),
        I::F32ConvertI64U => un!(Rc::ConvU64F32),
        I::F32DemoteF64 => un!(Rc::Demote),
        I::F64ConvertI32S => un!(Rc::ConvS32F64),
        I::F64ConvertI32U => un!(Rc::ConvU32F64),
        I::F64ConvertI64S => un!(Rc::ConvS64F64),
        I::F64ConvertI64U => un!(Rc::ConvU64F64),
        I::F64PromoteF32 => un!(Rc::Promote),
        I::I32ReinterpretF32 | I::I64ReinterpretF64 | I::F32ReinterpretI32
        | I::F64ReinterpretI64 => {
            need!(1);
            (rop(Rc::Nop, 0, 0, 0, 0, 0), Next::Fall(h))
        }
        I::I32Extend8S => un!(Rc::Ext8S32),
        I::I32Extend16S => un!(Rc::Ext16S32),
        I::I64Extend8S => un!(Rc::Ext8S64),
        I::I64Extend16S => un!(Rc::Ext16S64),
        I::I64Extend32S => un!(Rc::Ext32S64),

        // SIMD. i32x4/f32x4 splats broadcast the same low 32 bits, and
        // i64x2/f64x2 the same 64 bits, so each pair shares an opcode
        // (same for the 32-bit lane extracts).
        I::I32x4Splat | I::F32x4Splat => {
            need!(1);
            (rop(Rc::Splat32, r(h - 1), 0, r(h - 1), 0, 0), Next::Fall(h + 1))
        }
        I::I64x2Splat | I::F64x2Splat => {
            need!(1);
            (rop(Rc::Splat64, r(h - 1), 0, r(h - 1), 0, 0), Next::Fall(h + 1))
        }
        I::I32x4ExtractLane(l) | I::F32x4ExtractLane(l) => {
            need!(2);
            (
                rop(Rc::Extract32, r(h - 2), 0, r(h - 2), *l & 3, 0),
                Next::Fall(h - 1),
            )
        }
        I::F64x2ExtractLane(l) => {
            need!(2);
            (
                rop(Rc::Extract64, r(h - 2), 0, r(h - 2), *l & 1, 0),
                Next::Fall(h - 1),
            )
        }
        I::F64x2ReplaceLane(l) => {
            need!(3);
            (
                rop(Rc::Replace64, r(h - 3), r(h - 1), r(h - 3), *l & 1, 0),
                Next::Fall(h - 1),
            )
        }
        I::I32x4Add => vbin!(Rc::AddI32x4),
        I::I32x4Sub => vbin!(Rc::SubI32x4),
        I::I32x4Mul => vbin!(Rc::MulI32x4),
        I::F32x4Add => vbin!(Rc::AddF32x4),
        I::F32x4Sub => vbin!(Rc::SubF32x4),
        I::F32x4Mul => vbin!(Rc::MulF32x4),
        I::F32x4Div => vbin!(Rc::DivF32x4),
        I::F64x2Add => vbin!(Rc::AddF64x2),
        I::F64x2Sub => vbin!(Rc::SubF64x2),
        I::F64x2Mul => vbin!(Rc::MulF64x2),
        I::F64x2Div => vbin!(Rc::DivF64x2),
        I::F64x2Eq => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FEQ, 0), Next::Fall(h - 2))
        }
        I::F64x2Ne => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FNE, 0), Next::Fall(h - 2))
        }
        I::F64x2Lt => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FLT, 0), Next::Fall(h - 2))
        }
        I::F64x2Gt => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FGT, 0), Next::Fall(h - 2))
        }
        I::F64x2Le => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FLE, 0), Next::Fall(h - 2))
        }
        I::F64x2Ge => {
            need!(4);
            (rop(Rc::CmpF64x2, r(h - 4), r(h - 2), r(h - 4), FGE, 0), Next::Fall(h - 2))
        }
        I::V128And => vbin!(Rc::VAnd),
        I::V128Or => vbin!(Rc::VOr),
        I::V128Xor => vbin!(Rc::VXor),
        I::V128Not => {
            need!(2);
            (rop(Rc::VNot, r(h - 2), 0, r(h - 2), 0, 0), Next::Fall(h))
        }
        I::V128AnyTrue => {
            need!(2);
            (rop(Rc::VAnyTrue, r(h - 2), 0, r(h - 2), 0, 0), Next::Fall(h - 1))
        }
        I::I32x4AllTrue => {
            need!(2);
            (rop(Rc::AllTrueI32x4, r(h - 2), 0, r(h - 2), 0, 0), Next::Fall(h - 1))
        }
        I::I32x4Bitmask => {
            need!(2);
            (rop(Rc::BitmaskI32x4, r(h - 2), 0, r(h - 2), 0, 0), Next::Fall(h - 1))
        }

        other => {
            return Err(format!("control instruction {other:?} in straight-line position"));
        }
    })
}

// --- register peephole ---

/// Destination registers an op writes, for the store-window safety scan.
/// `None` = writes nothing; `Some((start, width))` = contiguous slots.
/// Ops outside the scan's allowlist are rejected before this is consulted.
fn writes(op: &RegOp) -> Option<(u32, u32)> {
    use Rc::*;
    match op.code {
        Nop | Store8 | Store16 | Store32 | Store64 | V128Store | Store32Shl | Store64Shl
        | Store32ShlK | Store64ShlK | GlobalSet | MemCopy | MemFill => None,
        Copy | GlobalGet | Const | MemSize | MemGrow | Eqz32 | Cmp32 | Clz32 | Ctz32
        | Popcnt32 | Add32 | Sub32 | Mul32 | DivS32 | DivU32 | RemS32 | RemU32 | And32
        | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Rotl32 | Rotr32 | AddK32 | ShlK32
        | AddShl32 | Eqz64 | Cmp64 | Clz64 | Ctz64 | Popcnt64 | Add64 | Sub64 | Mul64
        | DivS64 | DivU64 | RemS64 | RemU64 | And64 | Or64 | Xor64 | Shl64 | ShrS64
        | ShrU64 | Rotl64 | Rotr64 | CmpF32 | AbsF32 | NegF32 | CeilF32 | FloorF32
        | TruncF32 | NearestF32 | SqrtF32 | AddF32 | SubF32 | MulF32 | DivF32 | MinF32
        | MaxF32 | CopysignF32 | CmpF64 | AbsF64 | NegF64 | CeilF64 | FloorF64 | TruncF64
        | NearestF64 | SqrtF64 | AddF64 | SubF64 | MulF64 | DivF64 | MinF64 | MaxF64
        | CopysignF64 | Fma64 | Wrap64 | TruncF32S32 | TruncF32U32 | TruncF64S32
        | TruncF64U32 | ExtS3264 | ExtU3264 | TruncF32S64 | TruncF32U64 | TruncF64S64
        | TruncF64U64 | ConvS32F32 | ConvU32F32 | ConvS64F32 | ConvU64F32 | Demote
        | ConvS32F64 | ConvU32F64 | ConvS64F64 | ConvU64F64 | Promote | Ext8S32 | Ext16S32
        | Ext8S64 | Ext16S64 | Ext32S64 | Extract32 | Extract64 | VAnyTrue | AllTrueI32x4
        | BitmaskI32x4 | Cmp32K | AddK64 | Cmp64K | Load32 | Load64 | Load8S32 | Load8U32 | Load16S32
        | Load16U32 | Load8S64 | Load8U64 | Load16S64 | Load16U64 | Load32S64 | Load32U64
        | Load32Shl | Load64Shl | Load32ShlK | Load64ShlK => Some((op.c, 1)),
        Copy2 | V128Const | V128Load | Splat32 | Splat64 | Replace64 | AddI32x4 | SubI32x4
        | MulI32x4 | AddF32x4 | SubF32x4 | MulF32x4 | DivF32x4 | AddF64x2 | SubF64x2
        | MulF64x2 | DivF64x2 | CmpF64x2 | VAnd | VOr | VXor | VNot => Some((op.c, 2)),
        Select => Some((op.a, 1)),
        Select2 => Some((op.a, 2)),
        // Control / calls never appear inside a scan window.
        Jump | Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K | BrTable | Return | Unreachable
        | CallGuest | CallHost | CallIndirect => None,
    }
}

/// True if the op is safe to sit inside a store-fusion window: pure
/// straight-line data flow (no control transfer, no calls — calls can
/// re-enter the guest and observe memory ordering). The superblock tier
/// reuses this as its "plain fallthrough step" predicate: exactly these
/// ops can run inside a compiled chain without touching the frame stack
/// or the instruction pointer.
pub(crate) fn window_safe(op: &RegOp) -> bool {
    use Rc::*;
    !matches!(
        op.code,
        Jump | Br
            | BrIf
            | BrIfZ
            | BrIfCmp32
            | BrIfCmp32K
            | BrTable
            | Return
            | Unreachable
            | CallGuest
            | CallHost
            | CallIndirect
    )
}

/// True if the op can be discarded when its result is dead: no traps, no
/// memory or global writes, no control effects. (Float arithmetic never
/// traps in Wasm; integer div/rem and float→int truncation do.)
fn is_pure(code: Rc) -> bool {
    use Rc::*;
    matches!(
        code,
        Copy | Copy2
            | Const
            | V128Const
            | GlobalGet
            | MemSize
            | Eqz32
            | Cmp32
            | Cmp32K
            | Clz32
            | Ctz32
            | Popcnt32
            | Add32
            | Sub32
            | Mul32
            | And32
            | Or32
            | Xor32
            | Shl32
            | ShrS32
            | ShrU32
            | Rotl32
            | Rotr32
            | AddK32
            | ShlK32
            | AddShl32
            | AddK64
            | Cmp64K
            | Eqz64
            | Cmp64
            | Clz64
            | Ctz64
            | Popcnt64
            | Add64
            | Sub64
            | Mul64
            | And64
            | Or64
            | Xor64
            | Shl64
            | ShrS64
            | ShrU64
            | Rotl64
            | Rotr64
            | CmpF32
            | AbsF32
            | NegF32
            | CeilF32
            | FloorF32
            | TruncF32
            | NearestF32
            | SqrtF32
            | AddF32
            | SubF32
            | MulF32
            | DivF32
            | MinF32
            | MaxF32
            | CopysignF32
            | CmpF64
            | AbsF64
            | NegF64
            | CeilF64
            | FloorF64
            | TruncF64
            | NearestF64
            | SqrtF64
            | AddF64
            | SubF64
            | MulF64
            | DivF64
            | MinF64
            | MaxF64
            | CopysignF64
            | Fma64
            | Wrap64
            | ExtS3264
            | ExtU3264
            | ConvS32F32
            | ConvU32F32
            | ConvS64F32
            | ConvU64F32
            | Demote
            | ConvS32F64
            | ConvU32F64
            | ConvS64F64
            | ConvU64F64
            | Promote
            | Ext8S32
            | Ext16S32
            | Ext8S64
            | Ext16S64
            | Ext32S64
    )
}

/// True if executing `op` reads register `t` (exact, per opcode family —
/// including branch unwind source ranges, return result ranges, and a
/// conservative open range for call arguments).
fn reads_reg(op: &RegOp, f: &RegFunc, t: u32) -> bool {
    use Rc::*;
    let r1 = |r: u32| r == t;
    let r2 = |r: u32| r == t || r + 1 == t;
    let range = |s: u32, n: u32| s <= t && t < s.saturating_add(n);
    let unwind_reads = |imm: u64| {
        let (src, _, arity) = unwind_parts(imm);
        range(src as u32, arity as u32)
    };
    match op.code {
        Nop | Unreachable | Jump | Const | MemSize | GlobalGet | V128Const => false,
        Br => unwind_reads(op.imm),
        BrIf | BrIfZ => r1(op.a) || unwind_reads(op.imm),
        BrIfCmp32 => r1(op.a) || r1(op.b) || unwind_reads(op.imm),
        BrIfCmp32K => r1(op.a) || unwind_reads(op.imm),
        BrTable => {
            if r1(op.a) {
                return true;
            }
            let start = op.b as usize;
            let end = (start + op.c as usize + 1).min(f.dest_pool.len());
            f.dest_pool[start.min(end)..end]
                .iter()
                .any(|d| unwind_reads(d.unwind))
        }
        Return => range(op.a, f.result_slots),
        // Calls consume their argument window; its width depends on the
        // callee, so treat everything at or above the window as read.
        CallGuest | CallHost => t >= op.b,
        CallIndirect => r1(op.c) || t >= op.b,
        Copy => r1(op.a),
        Copy2 => r2(op.a),
        Select => r1(op.a) || r1(op.b) || r1(op.c),
        Select2 => r2(op.a) || r2(op.b) || r1(op.c),
        GlobalSet => r1(op.b),
        Load32 | Load64 | Load8S32 | Load8U32 | Load16S32 | Load16U32 | Load8S64 | Load8U64
        | Load16S64 | Load16U64 | Load32S64 | Load32U64 | V128Load => r1(op.a),
        Store8 | Store16 | Store32 | Store64 => r1(op.a) || r1(op.b),
        V128Store => r1(op.a) || r2(op.b),
        Load32Shl | Load64Shl => r1(op.a) || r1(op.b),
        Load32ShlK | Load64ShlK => r1(op.a),
        Store32Shl | Store64Shl => r1(op.a) || r1(op.b) || r1(op.c),
        Store32ShlK | Store64ShlK => r1(op.a) || r1(op.b),
        MemGrow => r1(op.a),
        MemCopy | MemFill => r1(op.a) || r1(op.b) || r1(op.c),
        Eqz32 | Clz32 | Ctz32 | Popcnt32 | Eqz64 | Clz64 | Ctz64 | Popcnt64 | AbsF32
        | NegF32 | CeilF32 | FloorF32 | TruncF32 | NearestF32 | SqrtF32 | AbsF64 | NegF64
        | CeilF64 | FloorF64 | TruncF64 | NearestF64 | SqrtF64 | Wrap64 | TruncF32S32
        | TruncF32U32 | TruncF64S32 | TruncF64U32 | ExtS3264 | ExtU3264 | TruncF32S64
        | TruncF32U64 | TruncF64S64 | TruncF64U64 | ConvS32F32 | ConvU32F32 | ConvS64F32
        | ConvU64F32 | Demote | ConvS32F64 | ConvU32F64 | ConvS64F64 | ConvU64F64
        | Promote | Ext8S32 | Ext16S32 | Ext8S64 | Ext16S64 | Ext32S64 | AddK32 | ShlK32
        | Cmp32K | AddK64 | Cmp64K | Splat32 | Splat64 => r1(op.a),
        Cmp32 | Cmp64 | CmpF32 | CmpF64 | Add32 | Sub32 | Mul32 | DivS32 | DivU32 | RemS32
        | RemU32 | And32 | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Rotl32 | Rotr32
        | Add64 | Sub64 | Mul64 | DivS64 | DivU64 | RemS64 | RemU64 | And64 | Or64
        | Xor64 | Shl64 | ShrS64 | ShrU64 | Rotl64 | Rotr64 | AddF32 | SubF32 | MulF32
        | DivF32 | MinF32 | MaxF32 | CopysignF32 | AddF64 | SubF64 | MulF64 | DivF64
        | MinF64 | MaxF64 | CopysignF64 | AddShl32 => r1(op.a) || r1(op.b),
        Fma64 => r1(op.a) || r1(op.b) || r1(op.c),
        Extract32 | Extract64 | VAnyTrue | AllTrueI32x4 | BitmaskI32x4 | VNot => r2(op.a),
        Replace64 => r2(op.a) || r1(op.b),
        AddI32x4 | SubI32x4 | MulI32x4 | AddF32x4 | SubF32x4 | MulF32x4 | DivF32x4
        | AddF64x2 | SubF64x2 | MulF64x2 | DivF64x2 | CmpF64x2 | VAnd | VOr | VXor => {
            r2(op.a) || r2(op.b)
        }
    }
}

/// True if `op` unconditionally overwrites register `t` (kills the value
/// that was there). `Select`/`Select2` write conditionally and so never
/// count.
fn definitely_writes(op: &RegOp, t: u32) -> bool {
    if matches!(op.code, Rc::Select | Rc::Select2) {
        return false;
    }
    writes(op).is_some_and(|(s, w)| s <= t && t < s + w)
}

/// Is the value written to register `t` at op `def` possibly read later?
/// Uses the static heights as the liveness oracle: at an op whose entry
/// height is `h`, every register `>= n_local_slots + h` is dead (the
/// operand stack has popped below it; any later value at that offset is a
/// fresh definition). Conservative on calls, unknown heights and bounded
/// scan length.
fn value_live(f: &RegFunc, hs: &[u32], def: usize, t: u32) -> bool {
    use Rc::*;
    let h0 = f.n_local_slots;
    if t < h0 {
        return true; // locals are always live (the heights oracle only covers temps)
    }
    // Whether the value is (possibly) live when control enters op `j`.
    let live_at = |j: u32| -> bool {
        match hs.get(j as usize) {
            Some(&h) if h != u32::MAX => t < h0 + h,
            _ => true, // unknown height: conservative
        }
    };
    let mut j = def + 1;
    for _ in 0..64 {
        if j >= f.code.len() {
            return true; // fell off the end: conservative (corrupt input)
        }
        // Check the op's own reads before the height oracle: peephole
        // fusion can relocate a read below the height its operand was
        // born at (the fused op's entry height is patched, but a stale
        // caller-cached `hs` must still never hide a direct read).
        let op = &f.code[j];
        if reads_reg(op, f, t) {
            return true;
        }
        if !live_at(j as u32) {
            return false;
        }
        if definitely_writes(op, t) {
            return false;
        }
        match op.code {
            Jump | Br => return live_at(op.c),
            BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => {
                if live_at(op.c) {
                    return true; // maybe live on the taken path
                }
                j += 1; // dead if taken; keep scanning the fallthrough
            }
            BrTable => {
                let start = op.b as usize;
                let end = (start + op.c as usize + 1).min(f.dest_pool.len());
                return f.dest_pool[start.min(end)..end].iter().any(|d| live_at(d.target));
            }
            Return | Unreachable => return false,
            _ => j += 1,
        }
    }
    true // scan budget exhausted: conservative
}

/// Copy/constant forwarding over straight-line regions: rewrites source
/// registers to read through trivial copies (`local.get` residue) and
/// folds known constants into immediate forms (`AddK32`, `ShlK32`,
/// `Cmp32K`, `BrIfCmp32K`, multiply-by-power-of-two into shifts).
/// `And32` of the constant 1 with a 0/1 value becomes a copy of that
/// value. A pure op that recomputes a value still intact in an earlier
/// register has its readers forwarded there (the recomputation then dies
/// in [`eliminate`]). State resets at jump targets and across calls.
/// Returns true if changed.
///
/// Reads are only ever redirected to locals or to a lower stack
/// temporary that the heights in `hs` keep live from its definition on:
/// wherever the redirected register is live, so is its replacement,
/// which keeps the heights-as-liveness oracle sound.
fn forward(f: &mut RegFunc, hs: &[u32], targets: &[bool]) -> bool {
    use Rc::*;
    #[derive(Clone, Copy, PartialEq)]
    enum Val {
        Opaque,
        /// Holds the same value as register `.0` (valid while the source
        /// generation matches).
        CopyOf(u32, u32),
        Const(u64),
        /// Known to be 0 or 1 (a comparison result).
        Bool,
    }
    /// A pure op whose result still sits in its destination, with the
    /// generations its sources `a`, `b` had when it read them and the one
    /// its destination `c` got.
    struct Expr {
        op: RegOp,
        gens: [u32; 3],
    }
    const MAX_EXPRS: usize = 8;
    let n = f.frame_size as usize;
    let h0 = f.n_local_slots;
    let mut avail: Vec<Val> = vec![Val::Opaque; n];
    let mut gen: Vec<u32> = vec![0; n];
    let mut exprs: Vec<Expr> = Vec::new();
    // One past the highest register an `exprs` entry lives in.
    let mut exprs_top = 0u32;
    let mut changed = false;

    for i in 0..f.code.len() {
        if targets[i] {
            avail.iter_mut().for_each(|v| *v = Val::Opaque);
            exprs.clear();
        }
        // An expression is reusable only while its register stays live.
        let live_top = match hs.get(i) {
            Some(&h) if h != u32::MAX => h0.saturating_add(h),
            _ => 0,
        };
        if live_top < exprs_top {
            exprs.retain(|e| e.op.c < live_top);
            exprs_top = exprs.iter().map(|e| e.op.c + 1).max().unwrap_or(0);
        }
        let op = &mut f.code[i];
        // 1. Forward one-slot source registers through known copies.
        let fwd = |r: &mut u32, avail: &[Val], gen: &[u32], changed: &mut bool| {
            if let Some(Val::CopyOf(x, g)) = avail.get(*r as usize).copied() {
                if gen[x as usize] == g && *r != x {
                    *r = x;
                    *changed = true;
                }
            }
        };
        let kconst = |r: u32, avail: &[Val]| match avail.get(r as usize) {
            Some(Val::Const(k)) => Some(*k),
            _ => None,
        };
        match op.code {
            // One-slot sources in `a`.
            Copy | GlobalSet | Load32 | Load64 | Load8S32 | Load8U32 | Load16S32
            | Load16U32 | Load8S64 | Load8U64 | Load16S64 | Load16U64 | Load32S64
            | Load32U64 | V128Load | MemGrow | Eqz32 | Clz32 | Ctz32 | Popcnt32 | Eqz64
            | Clz64 | Ctz64 | Popcnt64 | AbsF32 | NegF32 | CeilF32 | FloorF32 | TruncF32
            | NearestF32 | SqrtF32 | AbsF64 | NegF64 | CeilF64 | FloorF64 | TruncF64
            | NearestF64 | SqrtF64 | Wrap64 | TruncF32S32 | TruncF32U32 | TruncF64S32
            | TruncF64U32 | ExtS3264 | ExtU3264 | TruncF32S64 | TruncF32U64 | TruncF64S64
            | TruncF64U64 | ConvS32F32 | ConvU32F32 | ConvS64F32 | ConvU64F32 | Demote
            | ConvS32F64 | ConvU32F64 | ConvS64F64 | ConvU64F64 | Promote | Ext8S32
            | Ext16S32 | Ext8S64 | Ext16S64 | Ext32S64 | AddK32 | ShlK32 | Cmp32K
            | AddK64 | Cmp64K | Splat32 | Splat64 | BrIf | BrIfZ | BrIfCmp32K | BrTable => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
            }
            // Two one-slot sources in `a`, `b`.
            Cmp32 | Cmp64 | CmpF32 | CmpF64 | Add32 | Sub32 | Mul32 | DivS32 | DivU32
            | RemS32 | RemU32 | And32 | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Rotl32
            | Rotr32 | Add64 | Sub64 | Mul64 | DivS64 | DivU64 | RemS64 | RemU64 | And64
            | Or64 | Xor64 | Shl64 | ShrS64 | ShrU64 | Rotl64 | Rotr64 | AddF32 | SubF32
            | MulF32 | DivF32 | MinF32 | MaxF32 | CopysignF32 | AddF64 | SubF64 | MulF64
            | DivF64 | MinF64 | MaxF64 | CopysignF64 | AddShl32 | Store8 | Store16
            | Store32 | Store64 | Load32Shl | Load64Shl | BrIfCmp32 => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
                fwd(&mut op.b, &avail, &gen, &mut changed);
            }
            Fma64 => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
                fwd(&mut op.b, &avail, &gen, &mut changed);
            }
            Select => {
                fwd(&mut op.b, &avail, &gen, &mut changed);
                fwd(&mut op.c, &avail, &gen, &mut changed);
            }
            Store32Shl | Store64Shl => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
                fwd(&mut op.b, &avail, &gen, &mut changed);
                fwd(&mut op.c, &avail, &gen, &mut changed);
            }
            Store32ShlK | Store64ShlK => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
                fwd(&mut op.b, &avail, &gen, &mut changed);
            }
            MemCopy | MemFill => {
                fwd(&mut op.a, &avail, &gen, &mut changed);
                fwd(&mut op.b, &avail, &gen, &mut changed);
                fwd(&mut op.c, &avail, &gen, &mut changed);
            }
            CallIndirect => fwd(&mut op.c, &avail, &gen, &mut changed),
            _ => {}
        }
        // 2. Fold known constants into immediate forms.
        match op.code {
            Copy => {
                if let Some(k) = kconst(op.a, &avail) {
                    *op = rop(Const, 0, 0, op.c, 0, k);
                    changed = true;
                } else if op.a == op.c {
                    // Self-copy (a `local.set x; local.get x` round-trip
                    // whose set was forwarded): pure no-op.
                    *op = NOP;
                    changed = true;
                }
            }
            Add32 => {
                if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(AddK32, op.a, k as u32, op.c, 0, 0);
                    changed = true;
                } else if let Some(k) = kconst(op.a, &avail) {
                    *op = rop(AddK32, op.b, k as u32, op.c, 0, 0);
                    changed = true;
                }
            }
            Sub32 => {
                if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(AddK32, op.a, (k as i32).wrapping_neg() as u32, op.c, 0, 0);
                    changed = true;
                }
            }
            Shl32 => {
                if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(ShlK32, op.a, 0, op.c, (k as u32 & 31) as u8, 0);
                    changed = true;
                }
            }
            Mul32 => {
                let shift_of = |k: u64| {
                    let k = k as u32;
                    (k.is_power_of_two()).then(|| k.trailing_zeros() as u8)
                };
                if let Some(s) = kconst(op.b, &avail).and_then(shift_of) {
                    *op = rop(ShlK32, op.a, 0, op.c, s, 0);
                    changed = true;
                } else if let Some(s) = kconst(op.a, &avail).and_then(shift_of) {
                    *op = rop(ShlK32, op.b, 0, op.c, s, 0);
                    changed = true;
                }
            }
            Cmp32 => {
                if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(Cmp32K, op.a, k as u32, op.c, op.aux, 0);
                    changed = true;
                }
            }
            Add64 => {
                if let (Some(ka), Some(kb)) = (kconst(op.a, &avail), kconst(op.b, &avail)) {
                    *op = rop(Const, 0, 0, op.c, 0, ka.wrapping_add(kb));
                    changed = true;
                } else if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(AddK64, op.a, 0, op.c, 0, k);
                    changed = true;
                } else if let Some(k) = kconst(op.a, &avail) {
                    *op = rop(AddK64, op.b, 0, op.c, 0, k);
                    changed = true;
                }
            }
            Sub64 => {
                if let (Some(ka), Some(kb)) = (kconst(op.a, &avail), kconst(op.b, &avail)) {
                    *op = rop(Const, 0, 0, op.c, 0, ka.wrapping_sub(kb));
                    changed = true;
                } else if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(AddK64, op.a, 0, op.c, 0, (k as i64).wrapping_neg() as u64);
                    changed = true;
                }
            }
            Cmp64 => {
                if let Some(k) = kconst(op.b, &avail) {
                    *op = rop(Cmp64K, op.a, 0, op.c, op.aux, k);
                    changed = true;
                }
            }
            // Float const-const arithmetic folds at compile time. This is
            // bit-exact versus runtime evaluation: both run the same IEEE
            // op on the same host, so even NaN payload propagation agrees.
            AddF32 | SubF32 | MulF32 | DivF32 => {
                if let (Some(ka), Some(kb)) = (kconst(op.a, &avail), kconst(op.b, &avail)) {
                    let (x, y) = (f32::from_bits(ka as u32), f32::from_bits(kb as u32));
                    let r = match op.code {
                        AddF32 => x + y,
                        SubF32 => x - y,
                        MulF32 => x * y,
                        _ => x / y,
                    };
                    *op = rop(Const, 0, 0, op.c, 0, r.to_bits() as u64);
                    changed = true;
                }
            }
            AddF64 | SubF64 | MulF64 | DivF64 => {
                if let (Some(ka), Some(kb)) = (kconst(op.a, &avail), kconst(op.b, &avail)) {
                    let (x, y) = (f64::from_bits(ka), f64::from_bits(kb));
                    let r = match op.code {
                        AddF64 => x + y,
                        SubF64 => x - y,
                        MulF64 => x * y,
                        _ => x / y,
                    };
                    *op = rop(Const, 0, 0, op.c, 0, r.to_bits());
                    changed = true;
                }
            }
            BrIfCmp32 => {
                if let Some(k) = kconst(op.b, &avail) {
                    op.code = BrIfCmp32K;
                    op.b = k as u32;
                    changed = true;
                }
            }
            And32 => {
                let one = |r: u32| kconst(r, &avail) == Some(1);
                let boolean = |r: u32| avail.get(r as usize) == Some(&Val::Bool);
                if one(op.a) && boolean(op.b) {
                    *op = rop(Copy, op.b, 0, op.c, 0, 0);
                    changed = true;
                } else if one(op.b) && boolean(op.a) {
                    *op = rop(Copy, op.a, 0, op.c, 0, 0);
                    changed = true;
                }
            }
            _ => {}
        }
        // 3. Update the value table for this op's writes.
        let op = f.code[i];
        let clobber = |r: u32, avail: &mut [Val], gen: &mut [u32]| {
            if let Some(g) = gen.get_mut(r as usize) {
                *g += 1;
                avail[r as usize] = Val::Opaque;
            }
        };
        let boolean = |r: u32, avail: &[Val]| {
            matches!(avail.get(r as usize), Some(Val::Bool | Val::Const(0 | 1)))
        };
        match op.code {
            Copy => {
                let is_bool = boolean(op.a, &avail);
                clobber(op.c, &mut avail, &mut gen);
                // Record the aliasing only for LOCAL sources: forwarding a
                // read to a stack temporary could create reads above the
                // abstract stack height, which would break the
                // heights-as-liveness oracle every later pass relies on.
                // Locals are always live, so reads of them are always
                // safe to introduce.
                if op.a < f.n_local_slots && (op.a as usize) < n {
                    avail[op.c as usize] = Val::CopyOf(op.a, gen[op.a as usize]);
                } else if is_bool && (op.c as usize) < n {
                    avail[op.c as usize] = Val::Bool;
                }
            }
            Const => {
                clobber(op.c, &mut avail, &mut gen);
                avail[op.c as usize] = Val::Const(op.imm);
            }
            // Calls write an unknown-width result window; drop everything.
            CallGuest | CallHost | CallIndirect => {
                avail.iter_mut().for_each(|v| *v = Val::Opaque);
                exprs.clear();
            }
            _ => {
                let is_bool = match op.code {
                    Eqz32 | Eqz64 | Cmp32 | Cmp32K | Cmp64 | Cmp64K | CmpF32 | CmpF64 => true,
                    And32 | Or32 | Xor32 => boolean(op.a, &avail) && boolean(op.b, &avail),
                    _ => false,
                };
                // Source generations as the op read them.
                let srcs = cse_sources(op.code);
                let g = |r: u32| gen.get(r as usize).copied();
                let read_gens = (g(op.a), if srcs == 2 { g(op.b) } else { Some(0) });
                if let Some((s, w)) = writes(&op) {
                    for r in s..s + w {
                        clobber(r, &mut avail, &mut gen);
                    }
                }
                let c = op.c as usize;
                if c >= n {
                    continue;
                }
                if is_bool {
                    avail[c] = Val::Bool;
                }
                let (Some(ga), Some(gb)) = read_gens else { continue };
                if srcs == 0 {
                    continue;
                }
                // The same op evaluated earlier, its result still intact in
                // a local or a lower temporary: read that instead.
                if op.c >= h0 {
                    let earlier = exprs.iter().find(|e| {
                        let r = e.op.c;
                        RegOp { c: op.c, ..e.op } == op
                            && e.gens == [ga, gb, gen[r as usize]]
                            && (r < h0 || r < op.c)
                    });
                    if let Some(e) = earlier {
                        avail[c] = Val::CopyOf(e.op.c, e.gens[2]);
                        continue;
                    }
                }
                // An op that overwrote its own source can never match.
                if op.a != op.c && (srcs == 1 || op.b != op.c) {
                    if exprs.len() == MAX_EXPRS {
                        exprs.remove(0);
                    }
                    exprs.push(Expr { op, gens: [ga, gb, gen[c]] });
                    exprs_top = exprs_top.max(op.c + 1);
                }
            }
        }
    }
    changed
}

/// Register sources of a pure op [`forward`] may reuse an earlier
/// evaluation of: 1 = `a` only, 2 = `a` and `b`, 0 = not reusable.
/// Immediates (`b` of the `*K` forms, `aux`, `imm`) are part of the match.
fn cse_sources(code: Rc) -> u8 {
    use Rc::*;
    match code {
        AddK32 | ShlK32 | Cmp32K | AddK64 | Cmp64K | Eqz32 | Eqz64 | Wrap64 | ExtS3264
        | ExtU3264 => 1,
        Add32 | Sub32 | Mul32 | And32 | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Cmp32
        | AddShl32 | Add64 | Sub64 | Mul64 | And64 | Or64 | Xor64 | Cmp64 => 2,
        _ => 0,
    }
}

/// Remove pure ops whose (one-slot, stack-temporary) result is dead per
/// [`value_live`]. Returns true if changed.
fn eliminate(f: &mut RegFunc, hs: &[u32]) -> bool {
    let h0 = f.n_local_slots;
    let mut changed = false;
    for i in 0..f.code.len() {
        let op = f.code[i];
        if op.code == Rc::Nop || !is_pure(op.code) {
            continue;
        }
        let Some((t, w)) = writes(&op) else { continue };
        if t < h0 || w != 1 {
            continue;
        }
        if !value_live(f, hs, i, t) {
            f.code[i] = NOP;
            changed = true;
        }
    }
    changed
}

/// Register peephole: the rewrites the serializable IR cannot express.
/// Each rule keys on op shapes and the heights-based liveness only.
///
/// * **Copy sinking**: `[op → t] … [Copy t → x]` becomes `[op → x]` when
///   `t` dies at the copy — every `local.set` of a computed value.
/// * **Address folding** ([`fold_address`]): the producers of a load's or
///   scaled store's address fold into its addressing form, so
///   `AddK32(x, k) → ShlK32(s) → AddK32(B) → Load64` becomes one
///   `Load64ShlK` with bias `B + (k << s)` (exact in wrapping i32
///   arithmetic), and `AddShl32 → Load` a scaled load.
/// * **Range checks** ([`fold_range_check`]): `(t ≥s 0) & (t <s N)` with a
///   constant `N ≥ 0` becomes one `t <u N`.
/// * **Branch splitting** ([`split_branch`]): `BrIfZ` of an `And32` tree
///   of comparisons becomes one compare-and-branch per leaf.
/// * `[ShlK32 → t][Add32 base + t → d]` → `AddShl32` (the scaled-index
///   address form, reconstructed after constant forwarding turned the
///   guest's multiply into a shift).
/// * `[AddShl32 → t] …value ops… [store addr=t]` → scaled store: the
///   classic `a[i] = expr` window where the value computation separates
///   the address from the store.
/// * `[ShlK32 → t][AddK32 t → u] …value ops… [store addr=u]` →
///   constant-base scaled store (`counts[k[i]] += 1` in NPB IS).
///
/// Replaced ops become `Nop` (removed by [`compact`]). Returns true if
/// changed.
///
/// Fusion moves reads *downward*: the fused op at position `k` reads
/// registers the original stream consumed at position `i < k`, where the
/// recorded entry height may be higher. The heights oracle would then
/// wrongly report those source registers dead at `k` and a later
/// [`eliminate`] pass would delete their defining ops. Every fusion
/// therefore raises `hs` over `(i, k]` to the fusion head's entry height
/// (`u32::MAX` propagates as "unknown" via `max`), keeping the oracle
/// sound.
fn peephole(f: &mut RegFunc, hs: &mut [u32], targets: &[bool]) -> bool {
    use Rc::*;
    let max_gap = 12usize;
    let mut changed = false;
    for i in 0..f.code.len() {
        changed |= match f.code[i].code {
            And32 => fold_range_check(f, hs, targets, i),
            BrIfZ => split_branch(f, hs, targets, i),
            Copy => false,
            _ => fold_address(f, hs, targets, i),
        };
        // After the rules above: a range check may leave a copy to sink.
        if f.code[i].code == Copy {
            changed |= sink_copy(f, hs, targets, i);
        }
        let (t, fused_addr) = match f.code[i].code {
            AddShl32 => (f.code[i].c, true),
            ShlK32 => (f.code[i].c, false),
            _ => continue,
        };
        if t < f.n_local_slots {
            continue;
        }
        let addr = f.code[i];
        if i + 1 < f.code.len() && !targets[i + 1] {
            let nx = f.code[i + 1];
            // ShlK feeding a plain add of a register base → AddShl32,
            // provided the scaled temp dies with the add.
            if !fused_addr && nx.code == Add32 && (nx.a == t) != (nx.b == t) {
                let base = if nx.a == t { nx.b } else { nx.a };
                if base != t && !value_live(f, hs, i + 1, t) {
                    f.code[i] = NOP;
                    f.code[i + 1] = rop(AddShl32, addr.a, base, nx.c, addr.aux, 0);
                    raise(hs, i, i + 1, hs[i]);
                    changed = true;
                    continue;
                }
            }
        }
        // Store window: [addr → t] (+ AddK for the ShlK form) then value
        // computation, then a store addressing t. Every op in the gap
        // must be pure straight-line flow not touching the address regs.
        let mut j = i + 1;
        let mut bias = 0u32;
        let mut store_addr = t;
        if !fused_addr {
            // ShlK needs the following AddK folding the constant base.
            if j >= f.code.len() || targets[j] || f.code[j].code != AddK32 || f.code[j].a != t
            {
                continue;
            }
            bias = f.code[j].b;
            store_addr = f.code[j].c;
            if store_addr < f.n_local_slots || (store_addr != t && value_live(f, hs, j, t)) {
                continue;
            }
            j += 1;
        }
        // The gap may freely *read* the address source registers (the
        // value computation usually does); it must not write them, and it
        // must not touch the address temporaries at all (their only
        // consumer is the store).
        let srcs_arr = [addr.a, addr.b];
        let addr_srcs: &[u32] = if fused_addr { &srcs_arr } else { &srcs_arr[..1] };
        let temps_arr = [t, store_addr];
        let temps: &[u32] =
            if store_addr != t { &temps_arr } else { &temps_arr[..1] };
        let window_end = (j + max_gap).min(f.code.len());
        let mut found = None;
        while j < window_end {
            if targets[j] || !window_safe(&f.code[j]) {
                break;
            }
            let op = f.code[j];
            if matches!(op.code, Store32 | Store64) && op.a == store_addr {
                found = Some(j);
                break;
            }
            if addr_srcs.iter().any(|&g| writes_to(&op, g))
                || temps.iter().any(|&g| writes_to(&op, g) || reads_reg(&op, f, g))
            {
                break;
            }
            j += 1;
        }
        let Some(sj) = found else { continue };
        let st = f.code[sj];
        // The address temp must die at the store.
        if value_live(f, hs, sj, store_addr) {
            continue;
        }
        let offset = st.imm as u32 as u64;
        let fused = if fused_addr {
            rop(
                if st.code == Store64 { Store64Shl } else { Store32Shl },
                addr.a,
                st.b,
                addr.b,
                addr.aux,
                offset,
            )
        } else {
            rop(
                if st.code == Store64 { Store64ShlK } else { Store32ShlK },
                addr.a,
                st.b,
                0,
                addr.aux,
                offset | (bias as u64) << 32,
            )
        };
        f.code[i] = NOP;
        if !fused_addr {
            f.code[i + 1] = NOP;
        }
        f.code[sj] = fused;
        raise(hs, i, sj, hs[i]);
        changed = true;
    }
    changed
}

const NOP: RegOp = RegOp { imm: 0, a: 0, b: 0, c: 0, code: Rc::Nop, aux: 0 };

/// How far [`def_before`] looks back.
const DEF_WINDOW: usize = 16;

/// True if `op` writes register `r` (possibly: `Select` counts).
fn writes_to(op: &RegOp, r: u32) -> bool {
    writes(op).is_some_and(|(s, w)| s <= r && r < s + w)
}

/// The op that last wrote register `r` before position `at`, if it lies in
/// the same straight-line stretch: `None` when the backward search meets
/// a jump target, a control op or call, a conditional or multi-slot write
/// of `r`, or the end of its window.
fn def_before(f: &RegFunc, targets: &[bool], at: usize, r: u32) -> Option<usize> {
    let mut j = at;
    for _ in 0..DEF_WINDOW {
        if targets[j] || j == 0 {
            return None;
        }
        j -= 1;
        let op = &f.code[j];
        if !window_safe(op) {
            return None;
        }
        if writes_to(op, r) {
            let single = writes(op) == Some((r, 1)) && op.code != Rc::Select;
            return single.then_some(j);
        }
    }
    None
}

/// True if an op strictly between `lo` and `hi` reads register `r`.
fn read_between(f: &RegFunc, lo: usize, hi: usize, r: u32) -> bool {
    f.code[lo + 1..hi].iter().any(|op| reads_reg(op, f, r))
}

/// True if an op in `lo..hi` writes register `r`.
fn written_in(f: &RegFunc, lo: usize, hi: usize, r: u32) -> bool {
    f.code[lo..hi].iter().any(|op| writes_to(op, r))
}

/// Raise the entry heights over `(lo, hi]` to at least `h`.
fn raise(hs: &mut [u32], lo: usize, hi: usize, h: u32) {
    for x in &mut hs[lo + 1..=hi] {
        *x = (*x).max(h);
    }
}

/// Make the op at `d` write its one-slot result straight to `to` instead
/// of to `t`, the register the op at `p` consumes it from. Requires that
/// nothing in between reads `t` or touches `to`, and that `t` dies at `p`.
fn retarget(f: &mut RegFunc, hs: &mut [u32], d: usize, p: usize, to: u32) -> bool {
    let op = f.code[d];
    let t = op.c;
    if writes(&op) != Some((t, 1))
        || matches!(op.code, Rc::Select | Rc::Fma64)
        || read_between(f, d, p, t)
        || value_live(f, hs, p, t)
        || read_between(f, d, p, to)
        || written_in(f, d + 1, p, to)
    {
        return false;
    }
    f.code[d].c = to;
    // `to` now holds a value over (d, p]: keep the oracle from calling it
    // dead there.
    if to >= f.n_local_slots {
        raise(hs, d, p, to - f.n_local_slots + 1);
    }
    true
}

/// `[op → t] … [Copy t → x]` → `[op → x]` when `t` dies at the copy
/// (`Select` writes `a` and `Fma64` reads its destination; both stay).
fn sink_copy(f: &mut RegFunc, hs: &mut [u32], targets: &[bool], p: usize) -> bool {
    let cp = f.code[p];
    if cp.code != Rc::Copy || cp.a == cp.c || cp.a < f.n_local_slots {
        return false;
    }
    match def_before(f, targets, p, cp.a) {
        Some(d) if retarget(f, hs, d, p, cp.c) => {
            f.code[p] = NOP;
            true
        }
        _ => false,
    }
}

fn plain_load(code: Rc) -> bool {
    use Rc::*;
    matches!(
        code,
        Load32
            | Load64
            | Load8S32
            | Load8U32
            | Load16S32
            | Load16U32
            | Load8S64
            | Load8U64
            | Load16S64
            | Load16U64
            | Load32S64
            | Load32U64
    )
}

/// Fold the ops producing the address of the load or constant-base
/// scaled store at `i` into its addressing form, one producer at a time:
///
/// * `AddK32(x, k)` into a plain load's bias: `wrap(wrap(x + k) + B)` is
///   `wrap(x + (k + B))`;
/// * `AddK32(x, k)` into a `*ShlK` form's bias: `((x + k) << s) + B` is
///   `(x << s) + (B + (k << s))` in wrapping i32 arithmetic;
/// * `ShlK32(x, s)` into `Load32`/`Load64` → `Load*ShlK`;
/// * `AddShl32(x, base, s)` into an unbiased `Load32`/`Load64` →
///   `Load*Shl`.
///
/// The address temporary must die at `i`, and the producer's sources must
/// still hold their values there.
fn fold_address(f: &mut RegFunc, hs: &mut [u32], targets: &[bool], i: usize) -> bool {
    use Rc::*;
    let mut changed = false;
    loop {
        let op = f.code[i];
        let store = matches!(op.code, Store32ShlK | Store64ShlK);
        if !(plain_load(op.code) || store || matches!(op.code, Load32ShlK | Load64ShlK)) {
            return changed;
        }
        let t = op.a;
        if t < f.n_local_slots || (store && op.b == t) {
            return changed;
        }
        let Some(d) = def_before(f, targets, i, t) else { return changed };
        let p = f.code[d];
        let offset = op.imm as u32 as u64;
        let bias = (op.imm >> 32) as u32;
        let biased = |b: u32| RegOp { a: p.a, imm: offset | (b as u64) << 32, ..op };
        let wide = op.code == Load64;
        let fused = match (p.code, op.code) {
            (AddK32, _) if plain_load(op.code) => biased(bias.wrapping_add(p.b)),
            (AddK32, _) => biased(bias.wrapping_add(p.b.wrapping_shl(op.aux as u32))),
            (ShlK32, Load32 | Load64) => {
                rop(if wide { Load64ShlK } else { Load32ShlK }, p.a, 0, op.c, p.aux, op.imm)
            }
            (AddShl32, Load32 | Load64) if bias == 0 => {
                rop(if wide { Load64Shl } else { Load32Shl }, p.a, p.b, op.c, p.aux, offset)
            }
            _ => return changed,
        };
        let dies = (!store && op.c == t) || !value_live(f, hs, i, t);
        let srcs = [p.a, if p.code == AddShl32 { p.b } else { p.a }];
        if !dies || read_between(f, d, i, t) || srcs.iter().any(|&s| written_in(f, d + 1, i, s)) {
            return changed;
        }
        f.code[d] = NOP;
        f.code[i] = fused;
        raise(hs, d, i, hs[d]);
        changed = true;
    }
}

/// Do register `re` at position `e` and register `rl` at position `l > e`
/// hold the same value? `(e, l]` must hold no jump target. True when it
/// is one register not written in between, or two evaluations of the
/// same pure op over sources not written in between.
fn same_value(f: &RegFunc, targets: &[bool], e: usize, re: u32, l: usize, rl: u32) -> bool {
    if re == rl && !written_in(f, e, l, re) {
        return true;
    }
    let (Some(de), Some(dl)) = (def_before(f, targets, e, re), def_before(f, targets, l, rl))
    else {
        return false;
    };
    let (x, y) = (f.code[de], f.code[dl]);
    let (lo, hi) = (de.min(dl), de.max(dl));
    de == dl
        || (matches!(x.code, Rc::AddK32 | Rc::ShlK32)
            && RegOp { c: y.c, ..x } == y
            && !written_in(f, lo, hi, x.a)
            && (lo..hi).all(|j| !targets[j + 1]))
}

/// `And32(t ≥s 0, t <s N)` with a constant `N ≥ 0` → `Cmp32K t <u N`: a
/// negative `t` is at least 2³¹ unsigned, so one unsigned compare decides
/// both bounds. (For `N < 0` the conjunction is always false but `t <u N`
/// is not, so it does not fuse.) The first compare is rewritten in place,
/// the second and the `And32` go; both compare results must feed only the
/// `And32`.
fn fold_range_check(f: &mut RegFunc, hs: &[u32], targets: &[bool], p: usize) -> bool {
    use Rc::*;
    const LTS: u8 = Cmp::LtS as u8;
    const GES: u8 = Cmp::GeS as u8;
    let and = f.code[p];
    if and.code != And32 || and.a == and.b {
        return false;
    }
    // Look up the nearer operand (`b`, computed last) first: most `And32`s
    // are not range checks, and that settles it in one step.
    let half = |q: Option<usize>| {
        q.filter(|&q| {
            let c = f.code[q];
            c.code == Cmp32K && (c.aux == LTS || (c.aux == GES && c.b == 0))
        })
    };
    let Some(qb) = half(def_before(f, targets, p, and.b)) else { return false };
    let Some(qa) = half(def_before(f, targets, p, and.a)) else { return false };
    let (e, l) = (qa.min(qb), qa.max(qb));
    let (ce, cl) = (f.code[e], f.code[l]);
    let n = match (ce.aux, ce.b as i32, cl.aux, cl.b as i32) {
        (GES, 0, LTS, n) | (LTS, n, GES, 0) if n >= 0 => n,
        _ => return false,
    };
    let feeds_only_and =
        |q: usize, r: u32| !read_between(f, q, p, r) && (r == and.c || !value_live(f, hs, p, r));
    if !same_value(f, targets, e, ce.a, l, cl.a)
        || !feeds_only_and(e, ce.c)
        || !feeds_only_and(l, cl.c)
    {
        return false;
    }
    f.code[e] = rop(Cmp32K, ce.a, n as u32, ce.c, Cmp::LtU as u8, 0);
    f.code[l] = NOP;
    f.code[p] = if ce.c == and.c { NOP } else { rop(Copy, ce.c, 0, and.c, 0, 0) };
    true
}

/// `[Cmp … → t]` … `[BrIfZ t → T]` where `t` is an `And32` tree of
/// comparisons → one compare-and-branch to `T` per leaf, taken when that
/// leaf is false (the negated comparison). Branching early skips the rest
/// of the window from the first leaf to the `BrIfZ`, so that window must
/// be pure (no trap, no memory or global write), contain no jump target,
/// and write only registers dead at `T`; every tree value must feed only
/// its parent. Branches that carry values (`imm != 0`) do not split.
fn split_branch(f: &mut RegFunc, hs: &mut [u32], targets: &[bool], z: usize) -> bool {
    use Rc::*;
    const MAX_NODES: usize = 15; // at most 8 leaves
    const MAX_WINDOW: usize = 64;
    let br = f.code[z];
    if br.code != BrIfZ || br.imm != 0 {
        return false;
    }
    // Registers from `dead` up are dead at the branch target.
    let dead = match hs.get(br.c as usize) {
        Some(&h) if h != u32::MAX => f.n_local_slots.saturating_add(h),
        _ => return false,
    };
    // One backward scan from the branch finds the tree: `wanted` holds the
    // (register, consumer) pairs whose definition is still ahead, and the
    // scan ends at the first leaf. Everything it passes may be skipped by
    // an early exit.
    let mut wanted = vec![(br.a, z)];
    let mut tree = Vec::with_capacity(MAX_NODES); // (definition, register, consumer)
    let mut j = z;
    while !wanted.is_empty() {
        if targets[j] || j == 0 || z - j >= MAX_WINDOW {
            return false;
        }
        j -= 1;
        let op = f.code[j];
        if op.code == Nop {
            continue;
        }
        if !is_pure(op.code) || writes(&op).is_some_and(|(s, _)| s < dead) {
            return false;
        }
        let Some(w) = wanted.iter().position(|&(r, _)| writes_to(&op, r)) else { continue };
        let (r, u) = wanted.swap_remove(w);
        match op.code {
            And32 if op.a != op.b && tree.len() + 2 < MAX_NODES => {
                wanted.push((op.a, j));
                wanted.push((op.b, j));
            }
            Cmp32 | Cmp32K if Cmp::from_byte(op.aux).is_some() => {}
            _ => return false,
        }
        tree.push((j, r, u));
    }
    let start = j;
    // Each value feeds only its consumer.
    for &(d, r, u) in &tree {
        let dies = (u != z && f.code[u].c == r) || !value_live(f, hs, u, r);
        if !dies || read_between(f, d, u, r) {
            return false;
        }
    }
    // Each leaf branch makes what is live at the target live back to it.
    let th = hs[br.c as usize];
    for h in &mut hs[start..=z] {
        *h = (*h).max(th);
    }
    for &(d, _, _) in &tree {
        let c = f.code[d];
        f.code[d] = match (c.code, Cmp::from_byte(c.aux)) {
            (Cmp32K, Some(cmp)) => rop(BrIfCmp32K, c.a, c.b, br.c, cmp.negate().to_byte(), 0),
            (Cmp32, Some(cmp)) => rop(BrIfCmp32, c.a, c.b, br.c, cmp.negate().to_byte(), 0),
            _ => NOP,
        };
    }
    f.code[z] = NOP;
    true
}

/// Op indices that are jump targets (fusion windows must not span them).
fn jump_targets(f: &RegFunc) -> Vec<bool> {
    use Rc::*;
    let mut t = vec![false; f.code.len() + 1];
    let mut mark = |x: u32| {
        if (x as usize) < t.len() {
            t[x as usize] = true;
        }
    };
    for op in &f.code {
        match op.code {
            Jump | Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => mark(op.c),
            BrTable => {
                let start = op.b as usize;
                let end = start + op.c as usize + 1;
                for d in f.dest_pool.get(start..end).unwrap_or(&[]) {
                    mark(d.target);
                }
            }
            _ => {}
        }
    }
    t
}

/// Remove `Nop`s, remapping branch targets (including the dest pool) and
/// keeping the per-op entry-height array index-aligned. A `Nop` has no
/// effect, so the op that absorbs a run of them has the same liveness as
/// each of them and takes the lowest of their heights.
fn compact(f: &mut RegFunc, hs: &mut Vec<u32>) {
    use Rc::*;
    if !f.code.iter().any(|op| op.code == Nop) {
        return;
    }
    let mut new_index = vec![0u32; f.code.len() + 1];
    let mut count = 0u32;
    for (i, op) in f.code.iter().enumerate() {
        new_index[i] = count;
        if op.code != Nop {
            count += 1;
        }
    }
    new_index[f.code.len()] = count;
    let remap = |t: u32| new_index.get(t as usize).copied().unwrap_or(count);
    hs.resize(f.code.len(), u32::MAX);
    let mut run_h = u32::MAX;
    let mut kept = 0;
    for i in 0..f.code.len() {
        let mut op = f.code[i];
        run_h = run_h.min(hs[i]);
        match op.code {
            Nop => continue,
            Jump | Br | BrIf | BrIfZ | BrIfCmp32 | BrIfCmp32K => op.c = remap(op.c),
            _ => {}
        }
        f.code[kept] = op;
        hs[kept] = run_h;
        run_h = u32::MAX;
        kept += 1;
    }
    f.code.truncate(kept);
    hs.truncate(kept);
    for d in &mut f.dest_pool {
        d.target = remap(d.target);
    }
}

/// Prove the register stream safe for the executor's unchecked frame
/// accesses: every register operand within `frame_size`, every branch
/// target and pool reference in range, every unwind copy in-frame. Calls
/// and globals are checked against the module's static tables; the
/// remaining dynamic quantities (memory bounds, table contents) are
/// checked by the handlers at run time.
pub(crate) fn verify(f: &RegFunc, module: &Module) -> Result<(), String> {
    use Rc::*;
    let fs = f.frame_size;
    let len = f.code.len() as u32;
    let err = |i: usize, what: &str| Err(format!("regalloc verify: op {i}: {what}"));
    if f.n_local_slots > fs || f.param_slots > f.n_local_slots {
        return Err("regalloc verify: inconsistent frame layout".into());
    }
    let imported = module.num_imported_funcs() as u32;
    for (i, op) in f.code.iter().enumerate() {
        // Register-width demands per field for this opcode: (reg, slots).
        let mut regs: [(u32, u32); 3] = [(0, 0); 3];
        let mut target: Option<u32> = None;
        let mut unwind = 0u64;
        match op.code {
            Nop | Unreachable | Jump => {
                if op.code == Jump {
                    target = Some(op.c);
                }
            }
            Br => {
                target = Some(op.c);
                unwind = op.imm;
            }
            BrIf | BrIfZ => {
                regs[0] = (op.a, 1);
                target = Some(op.c);
                unwind = op.imm;
            }
            BrIfCmp32 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                target = Some(op.c);
                unwind = op.imm;
            }
            BrIfCmp32K => {
                regs[0] = (op.a, 1);
                target = Some(op.c);
                unwind = op.imm;
            }
            BrTable => {
                regs[0] = (op.a, 1);
                let start = op.b as usize;
                let end = start
                    .checked_add(op.c as usize)
                    .and_then(|e| e.checked_add(1))
                    .ok_or("regalloc verify: dest pool overflow")?;
                let pool = f
                    .dest_pool
                    .get(start..end)
                    .ok_or("regalloc verify: dest pool range out of bounds")?;
                for d in pool {
                    if d.target >= len {
                        return err(i, "br_table target out of range");
                    }
                    let (src, dst, arity) = unwind_parts(d.unwind);
                    if src + arity > fs as usize || dst + arity > fs as usize {
                        return err(i, "br_table unwind out of frame");
                    }
                }
            }
            Return => {
                if op.a + f.result_slots > fs {
                    return err(i, "return source out of frame");
                }
            }
            CallGuest => {
                if op.a as usize >= module.functions.len() {
                    return err(i, "call target out of range");
                }
                if op.b > fs {
                    return err(i, "call arg base out of frame");
                }
            }
            CallHost => {
                if op.a >= imported {
                    return err(i, "host call target out of range");
                }
                if op.b > fs {
                    return err(i, "call arg base out of frame");
                }
            }
            CallIndirect => {
                if op.a as usize >= module.types.len() {
                    return err(i, "call_indirect type out of range");
                }
                if op.b > fs {
                    return err(i, "call arg base out of frame");
                }
                regs[0] = (op.c, 1);
            }
            Copy => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            Copy2 => {
                regs[0] = (op.a, 2);
                regs[1] = (op.c, 2);
            }
            Select => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            Select2 => {
                regs[0] = (op.a, 2);
                regs[1] = (op.b, 2);
                regs[2] = (op.c, 1);
            }
            GlobalGet | GlobalSet => {
                if op.a as usize >= module.globals.len() {
                    return err(i, "global index out of range");
                }
                regs[0] = if op.code == GlobalGet { (op.c, 1) } else { (op.b, 1) };
            }
            Const => regs[0] = (op.c, 1),
            V128Const => {
                if op.a as usize >= f.v128_pool.len() {
                    return err(i, "v128 pool index out of range");
                }
                regs[0] = (op.c, 2);
            }
            Load32 | Load64 | Load8S32 | Load8U32 | Load16S32 | Load16U32 | Load8S64
            | Load8U64 | Load16S64 | Load16U64 | Load32S64 | Load32U64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            V128Load => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 2);
            }
            Store8 | Store16 | Store32 | Store64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
            }
            V128Store => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 2);
            }
            Load32Shl | Load64Shl => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            Load32ShlK | Load64ShlK => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            Store32Shl | Store64Shl => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            Store32ShlK | Store64ShlK => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
            }
            MemSize => regs[0] = (op.c, 1),
            MemGrow => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            MemCopy | MemFill => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            AddK32 | ShlK32 | Cmp32K | AddK64 | Cmp64K => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            AddShl32 | Fma64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            // Unary compute: a → c.
            Eqz32 | Clz32 | Ctz32 | Popcnt32 | Eqz64 | Clz64 | Ctz64 | Popcnt64 | AbsF32
            | NegF32 | CeilF32 | FloorF32 | TruncF32 | NearestF32 | SqrtF32 | AbsF64
            | NegF64 | CeilF64 | FloorF64 | TruncF64 | NearestF64 | SqrtF64 | Wrap64
            | TruncF32S32 | TruncF32U32 | TruncF64S32 | TruncF64U32 | ExtS3264 | ExtU3264
            | TruncF32S64 | TruncF32U64 | TruncF64S64 | TruncF64U64 | ConvS32F32
            | ConvU32F32 | ConvS64F32 | ConvU64F32 | Demote | ConvS32F64 | ConvU32F64
            | ConvS64F64 | ConvU64F64 | Promote | Ext8S32 | Ext16S32 | Ext8S64 | Ext16S64
            | Ext32S64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 1);
            }
            // Binary compute: a, b → c.
            Cmp32 | Cmp64 | CmpF32 | CmpF64 | Add32 | Sub32 | Mul32 | DivS32 | DivU32
            | RemS32 | RemU32 | And32 | Or32 | Xor32 | Shl32 | ShrS32 | ShrU32 | Rotl32
            | Rotr32 | Add64 | Sub64 | Mul64 | DivS64 | DivU64 | RemS64 | RemU64 | And64
            | Or64 | Xor64 | Shl64 | ShrS64 | ShrU64 | Rotl64 | Rotr64 | AddF32 | SubF32
            | MulF32 | DivF32 | MinF32 | MaxF32 | CopysignF32 | AddF64 | SubF64 | MulF64
            | DivF64 | MinF64 | MaxF64 | CopysignF64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 1);
            }
            Splat32 | Splat64 => {
                regs[0] = (op.a, 1);
                regs[1] = (op.c, 2);
            }
            Extract32 | Extract64 | VAnyTrue | AllTrueI32x4 | BitmaskI32x4 => {
                regs[0] = (op.a, 2);
                regs[1] = (op.c, 1);
            }
            Replace64 => {
                regs[0] = (op.a, 2);
                regs[1] = (op.b, 1);
                regs[2] = (op.c, 2);
            }
            AddI32x4 | SubI32x4 | MulI32x4 | AddF32x4 | SubF32x4 | MulF32x4 | DivF32x4
            | AddF64x2 | SubF64x2 | MulF64x2 | DivF64x2 | CmpF64x2 | VAnd | VOr | VXor => {
                regs[0] = (op.a, 2);
                regs[1] = (op.b, 2);
                regs[2] = (op.c, 2);
            }
            VNot => {
                regs[0] = (op.a, 2);
                regs[1] = (op.c, 2);
            }
        }
        for &(reg, width) in &regs {
            if width != 0 && reg + width > fs {
                return err(i, "register out of frame");
            }
        }
        if let Some(t) = target {
            if t >= len {
                return err(i, "branch target out of range");
            }
        }
        if unwind != 0 {
            let (src, dst, arity) = unwind_parts(unwind);
            if src + arity > fs as usize || dst + arity > fs as usize {
                return err(i, "unwind copy out of frame");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::MemArg;
    use crate::tier::{CompiledBody, Tier};
    use crate::types::ValType;

    /// Compile one body at the given tier and return its register form.
    fn reg_of(build: impl Fn(&mut crate::builder::FunctionBuilder), tier: Tier) -> RegFunc {
        reg_of_t(vec![ValType::I32, ValType::I32], build, tier)
    }

    /// Like [`reg_of`], with explicit parameter types.
    fn reg_of_t(
        params: Vec<ValType>,
        build: impl Fn(&mut crate::builder::FunctionBuilder),
        tier: Tier,
    ) -> RegFunc {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        b.func("f", params, vec![], build);
        let module = b.finish();
        crate::validate::validate_module(&module).unwrap();
        let compiled =
            crate::runtime::CompiledModule::compile(module, tier).unwrap();
        match &compiled.bodies()[0] {
            CompiledBody::Flat(f) => f.reg.clone(),
            CompiledBody::Interp(_) => panic!("flat tier expected"),
        }
    }

    fn count(rf: &RegFunc, code: Rc) -> usize {
        rf.code.iter().filter(|op| op.code == code).count()
    }

    #[test]
    fn regop_is_compact() {
        assert_eq!(std::mem::size_of::<RegOp>(), 24);
    }

    #[test]
    fn i64_scaled_load_fuses_at_register_level() {
        // base + (idx << 3) ; i64.load — the Op-level peephole has no i64
        // form; the register peephole must produce Load64Shl.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(3),
                    I::I32Shl,
                    I::I32Add,
                    I::I64Load(MemArg::offset(16)),
                    I::Drop,
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Load64Shl), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Load64), 0);
    }

    #[test]
    fn f32_scaled_load_fuses_at_register_level() {
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(2),
                    I::I32Shl,
                    I::I32Add,
                    I::F32Load(MemArg::offset(0)),
                    I::Drop,
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Load32Shl), 1, "{:?}", rf.code);
    }

    #[test]
    fn store_with_value_window_fuses() {
        // a[i] = f64(load(b)) — address first, value computation between
        // it and the store: the "value window" the Op-level peephole
        // cannot match, fused here into Store64Shl.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32Const(3),
                    I::I32Shl,
                    I::I32Add,
                    I::LocalGet(1),
                    I::F64Load(MemArg::offset(64)),
                    I::F64Sqrt,
                    I::F64Store(MemArg::offset(8)),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Store64Shl), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Store64), 0);
    }

    #[test]
    fn const_base_store_window_fuses() {
        // counts[x<<2 + K] = value — the NPB IS histogram update.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(2),
                    I::I32Shl,
                    I::I32Const(4096),
                    I::I32Add,
                    I::LocalGet(1),
                    I::I32Const(1),
                    I::I32Add,
                    I::I32Store(MemArg::offset(0)),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::Store32ShlK), 1, "{:?}", rf.code);
    }

    #[test]
    fn forwarding_eliminates_copy_and_const_traffic() {
        // x*8 via the generic optimizing tier (no Op-level fusion at
        // opt 0): forwarding must fold the const multiply into a shift
        // and leave no Copy of the local behind.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(8),
                    I::I32Mul,
                    I::LocalSet(1),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::ShlK32), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Mul32), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Copy), 0, "copies should forward: {:?}", rf.code);
    }

    #[test]
    fn i64_const_forwarding_forms_addk64_and_cmp64k() {
        // x + 5 (i64) and x < 100 (i64) must fold their Const operands
        // into the immediate forms, leaving no Const+Add64/Cmp64 pairs.
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::I64, ValType::I64, ValType::I32],
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I64Const(5),
                    I::I64Add,
                    I::LocalSet(1),
                    I::LocalGet(0),
                    I::I64Const(100),
                    I::I64LtS,
                    I::LocalSet(2),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Add64), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp64K), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp64), 0, "{:?}", rf.code);
        let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
        assert_eq!(addk.imm, 5);
    }

    #[test]
    fn i64_sub_const_negates_into_addk64() {
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::I64, ValType::I64],
            |f| {
                f.emit_all([I::LocalGet(0), I::I64Const(7), I::I64Sub, I::LocalSet(1)]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::AddK64), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Sub64), 0, "{:?}", rf.code);
        let addk = rf.code.iter().find(|op| op.code == Rc::AddK64).unwrap();
        assert_eq!(addk.imm as i64, -7);
    }

    #[test]
    fn float_const_const_folds_to_const() {
        // 2.5 * 4.0 (f64) and 1.5 + 0.25 (f32) fold at compile time.
        use crate::instr::Instr as I;
        let rf = reg_of_t(
            vec![ValType::F64, ValType::F32],
            |f| {
                f.emit_all([
                    I::F64Const(2.5),
                    I::F64Const(4.0),
                    I::F64Mul,
                    I::LocalSet(0),
                    I::F32Const(1.5),
                    I::F32Const(0.25),
                    I::F32Add,
                    I::LocalSet(1),
                ]);
            },
            Tier::Optimizing,
        );
        assert_eq!(count(&rf, Rc::MulF64), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::AddF32), 0, "{:?}", rf.code);
        assert!(
            rf.code
                .iter()
                .any(|op| op.code == Rc::Const && op.imm == 10.0f64.to_bits()),
            "{:?}",
            rf.code
        );
        assert!(
            rf.code
                .iter()
                .any(|op| op.code == Rc::Const && op.imm == 1.75f32.to_bits() as u64),
            "{:?}",
            rf.code
        );
    }

    #[test]
    fn indexed_load_address_folds_into_one_op() {
        // load(((v - 3) << 3) + 4096): the offset, shift and base collapse
        // into one Load64ShlK with bias 4096 + (-3 << 3).
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(-3),
                    I::I32Add,
                    I::I32Const(3),
                    I::I32Shl,
                    I::I32Const(4096),
                    I::I32Add,
                    I::F64Load(MemArg::offset(8)),
                    I::Drop,
                ]);
            },
            Tier::Max,
        );
        let ld: Vec<_> = rf.code.iter().filter(|op| op.code == Rc::Load64ShlK).collect();
        assert_eq!(ld.len(), 1, "{:?}", rf.code);
        assert_eq!((ld[0].a, ld[0].aux), (0, 3));
        assert_eq!(ld[0].imm, 8 | ((4096 - 24) as u64) << 32);
        assert_eq!(count(&rf, Rc::AddK32) + count(&rf, Rc::ShlK32), 0, "{:?}", rf.code);
    }

    #[test]
    fn live_address_temp_blocks_fold() {
        // [t = v + 8][u = load(t)][x = t + u]: t is still read after the
        // load, so the AddK32 must stay. Without that read it folds.
        let build = |last: RegOp| RegFunc {
            code: vec![
                rop(Rc::AddK32, 0, 8, 2, 0, 0),
                rop(Rc::Load32, 2, 0, 3, 0, 0),
                last,
                rop(Rc::Return, 0, 0, 0, 0, 0),
            ],
            frame_size: 4,
            n_local_slots: 2,
            param_slots: 1,
            ..Default::default()
        };
        let targets = [false; 5];
        let mut rf = build(rop(Rc::Add32, 2, 3, 1, 0, 0));
        assert!(!peephole(&mut rf, &mut [0, 1, 2, 0], &targets));
        assert_eq!(rf.code[0].code, Rc::AddK32);
        let mut rf = build(rop(Rc::Copy, 3, 0, 1, 0, 0));
        assert!(peephole(&mut rf, &mut [0, 1, 1, 0], &targets));
        assert_eq!(rf.code[1], rop(Rc::Load32, 0, 0, 1, 0, 8 << 32), "{:?}", rf.code);
    }

    /// `x = (v - 1 >= 0) & (v - 1 < n)` into local 1.
    fn range_check(n: i32) -> RegFunc {
        use crate::instr::Instr as I;
        reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(-1),
                    I::I32Add,
                    I::I32Const(0),
                    I::I32GeS,
                    I::LocalGet(0),
                    I::I32Const(-1),
                    I::I32Add,
                    I::I32Const(n),
                    I::I32LtS,
                    I::I32And,
                    I::LocalSet(1),
                ]);
            },
            Tier::Max,
        )
    }

    #[test]
    fn range_check_folds_to_one_unsigned_compare() {
        let rf = range_check(16);
        let cmp: Vec<_> = rf.code.iter().filter(|op| op.code == Rc::Cmp32K).collect();
        assert_eq!(cmp.len(), 1, "{:?}", rf.code);
        assert_eq!((cmp[0].b, cmp[0].aux, cmp[0].c), (16, Cmp::LtU as u8, 1));
        assert_eq!(count(&rf, Rc::And32), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::AddK32), 1, "{:?}", rf.code);
    }

    #[test]
    fn range_check_with_negative_bound_does_not_fuse() {
        // (t >= 0) & (t < -5) is always 0, but t <u -5 is not.
        let rf = range_check(-5);
        assert_eq!(count(&rf, Rc::And32), 1, "{:?}", rf.code);
        assert!(rf.code.iter().all(|op| op.aux != Cmp::LtU as u8), "{:?}", rf.code);
    }

    #[test]
    fn and_with_one_of_a_boolean_is_the_boolean() {
        // x = 1 & (v < w) is just the comparison; 1 & v is not.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::I32Const(1),
                    I::LocalGet(0),
                    I::LocalGet(1),
                    I::I32LtS,
                    I::I32And,
                    I::LocalSet(1),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::And32) + count(&rf, Rc::Const), 0, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::Cmp32), 1, "{:?}", rf.code);
        let rf = reg_of(
            |f| {
                f.emit_all([I::I32Const(1), I::LocalGet(0), I::I32And, I::LocalSet(1)]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::And32), 1, "{:?}", rf.code);
    }

    /// `if (v < w) & (second) { mem[0] = v }`.
    fn guarded_store(second: Vec<crate::instr::Instr>) -> RegFunc {
        use crate::instr::Instr as I;
        use crate::types::BlockType;
        reg_of(
            |f| {
                f.emit_all([I::LocalGet(0), I::LocalGet(1), I::I32LtS]);
                f.emit_all(second.clone());
                f.emit_all([
                    I::I32And,
                    I::If(BlockType::Empty),
                    I::I32Const(0),
                    I::LocalGet(0),
                    I::I32Store(MemArg::offset(0)),
                    I::End,
                ]);
            },
            Tier::Max,
        )
    }

    #[test]
    fn and_tree_branch_splits_per_leaf() {
        use crate::instr::Instr as I;
        let rf = guarded_store(vec![I::LocalGet(0), I::I32Const(5), I::I32GeS]);
        assert_eq!(count(&rf, Rc::BrIfZ) + count(&rf, Rc::And32), 0, "{:?}", rf.code);
        let br: Vec<_> = rf
            .code
            .iter()
            .filter(|op| matches!(op.code, Rc::BrIfCmp32 | Rc::BrIfCmp32K))
            .map(|op| (op.code, op.aux))
            .collect();
        assert_eq!(
            br,
            [(Rc::BrIfCmp32, Cmp::GeS as u8), (Rc::BrIfCmp32K, Cmp::LtS as u8)],
            "{:?}",
            rf.code
        );
        // Both leaves branch to the same join.
        let targets: Vec<u32> = rf
            .code
            .iter()
            .filter(|op| matches!(op.code, Rc::BrIfCmp32 | Rc::BrIfCmp32K))
            .map(|op| op.c)
            .collect();
        assert!(targets.windows(2).all(|w| w[0] == w[1]), "{:?}", rf.code);
    }

    #[test]
    fn trapping_load_in_window_blocks_branch_split() {
        // The load after the first leaf could trap: branching past it
        // when v >= w would hide that trap.
        use crate::instr::Instr as I;
        let rf = guarded_store(vec![
            I::LocalGet(0),
            I::I32Load(MemArg::offset(0)),
            I::I32Const(5),
            I::I32GeS,
        ]);
        assert_eq!(count(&rf, Rc::BrIfZ), 1, "{:?}", rf.code);
        assert_eq!(count(&rf, Rc::And32), 1, "{:?}", rf.code);
    }

    #[test]
    fn live_write_in_window_blocks_branch_split() {
        // `(v + 1)` is tee'd into local 1 after the first leaf: branching
        // past it when v >= w would skip a write the join can see.
        use crate::instr::Instr as I;
        let rf = guarded_store(vec![
            I::LocalGet(0),
            I::I32Const(1),
            I::I32Add,
            I::LocalTee(1),
            I::I32Const(5),
            I::I32GeS,
        ]);
        assert_eq!(count(&rf, Rc::BrIfZ), 1, "{:?}", rf.code);
    }

    #[test]
    fn duplicate_pure_op_reuses_first_result() {
        // x = (v + 7) * (v + 7): the second add reads the first's result.
        use crate::instr::Instr as I;
        let rf = reg_of(
            |f| {
                f.emit_all([
                    I::LocalGet(0),
                    I::I32Const(7),
                    I::I32Add,
                    I::LocalGet(0),
                    I::I32Const(7),
                    I::I32Add,
                    I::I32Mul,
                    I::LocalSet(1),
                ]);
            },
            Tier::Max,
        );
        assert_eq!(count(&rf, Rc::AddK32), 1, "{:?}", rf.code);
        let mul = rf.code.iter().find(|op| op.code == Rc::Mul32).unwrap();
        assert_eq!(mul.a, mul.b, "{:?}", rf.code);
    }

    #[test]
    fn unwind_roundtrip() {
        let u = pack_unwind(100, 7, 3).unwrap();
        assert_eq!(unwind_parts(u), (100, 7, 3));
        // In-place carries encode as "no copy".
        assert_eq!(pack_unwind(5, 5, 2).unwrap(), 0);
        assert_eq!(pack_unwind(9, 4, 0).unwrap(), 0);
        assert!(pack_unwind(1 << 24, 0, 1).is_err());
    }

    #[test]
    fn feval_codes() {
        assert!(feval(FEQ, 1.0, 1.0));
        assert!(feval(FNE, 1.0, 2.0));
        assert!(feval(FLT, 1.0, 2.0));
        assert!(feval(FGT, 2.0, 1.0));
        assert!(feval(FLE, 1.0, 1.0));
        assert!(feval(FGE, 1.0, 1.0));
        assert!(!feval(FEQ, f64::NAN, f64::NAN));
    }
}
