//! The optimizing tiers: flattening of structured Wasm bytecode into a
//! flat IR with resolved jump targets, plus the optimization pipeline run
//! by [`crate::tier::Tier::Max`].
//!
//! Flattening resolves all structured control flow (`block`/`loop`/`if`)
//! into direct jumps with precomputed stack-unwind information (in slot
//! units), eliminating the label-stack bookkeeping of the baseline
//! interpreter — this is the Cranelift analog. The walk is **fused with
//! the width pass**: the same single traversal of the body tracks operand
//! widths (slot heights, v128-ness of `drop`/`select`), so the flat tiers
//! never walk a function body twice. The Max tier then runs iterated
//! peephole passes (constant folding, local/load/store/shift fusion into
//! superinstructions, compare-and-branch fusion, and a final
//! jump-threading + nop-compaction pass) — the LLVM analog.
//!
//! Two representations coexist:
//!
//! * [`Op`] — the serializable form stored in the module cache (artifact
//!   VERSION 2). Plain instructions are embedded [`Instr`]s;
//!   superinstructions reference locals by *index*. After the cache
//!   artifact is persisted the stream can be dropped
//!   ([`FlatFunc::discard_ops`]) and regenerated on demand, halving
//!   resident compiled-module memory.
//! * [`crate::regalloc::RegOp`] — the stackless register form derived by
//!   [`FlatFunc::finalize`] at load time: every stack temporary is mapped
//!   to a fixed frame slot, operands become explicit register fields, and
//!   the stream is executed by the threaded handler table in
//!   [`crate::dispatch`]. See the `regalloc` module docs for the frame
//!   layout and the invariants the executor relies on.

use crate::error::Trap;
use crate::instr::Instr;
use crate::module::{Function, Module};
use crate::regalloc;
use crate::runtime::{Instance, Slot};
use crate::types::ValType;
use crate::widths;

/// A resolved branch destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dest {
    pub target: u32,
    /// Operand-stack height (in slots) to unwind to, relative to the
    /// frame's operand base.
    pub height: u32,
    /// Number of slots carried over the unwind.
    pub arity: u32,
}

/// An i32 comparison fused into a branch superinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Cmp {
    Eq = 0,
    Ne = 1,
    LtS = 2,
    LtU = 3,
    GtS = 4,
    GtU = 5,
    LeS = 6,
    LeU = 7,
    GeS = 8,
    GeU = 9,
}

impl Cmp {
    #[inline]
    pub fn eval(self, a: i32, b: i32) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::LtS => a < b,
            Cmp::LtU => (a as u32) < (b as u32),
            Cmp::GtS => a > b,
            Cmp::GtU => (a as u32) > (b as u32),
            Cmp::LeS => a <= b,
            Cmp::LeU => (a as u32) <= (b as u32),
            Cmp::GeS => a >= b,
            Cmp::GeU => (a as u32) >= (b as u32),
        }
    }

    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// The comparison that holds exactly when `self` does not.
    pub fn negate(self) -> Cmp {
        use Cmp::*;
        match self {
            Eq => Ne,
            Ne => Eq,
            LtS => GeS,
            GeS => LtS,
            LtU => GeU,
            GeU => LtU,
            GtS => LeS,
            LeS => GtS,
            GtU => LeU,
            LeU => GtU,
        }
    }

    pub fn from_byte(b: u8) -> Option<Cmp> {
        Some(match b {
            0 => Cmp::Eq,
            1 => Cmp::Ne,
            2 => Cmp::LtS,
            3 => Cmp::LtU,
            4 => Cmp::GtS,
            5 => Cmp::GtU,
            6 => Cmp::LeS,
            7 => Cmp::LeU,
            8 => Cmp::GeS,
            9 => Cmp::GeU,
            _ => return None,
        })
    }
}

/// Map an i32 comparison instruction to its fusible [`Cmp`].
fn cmp_of(i: &Instr) -> Option<Cmp> {
    Some(match i {
        Instr::I32Eq => Cmp::Eq,
        Instr::I32Ne => Cmp::Ne,
        Instr::I32LtS => Cmp::LtS,
        Instr::I32LtU => Cmp::LtU,
        Instr::I32GtS => Cmp::GtS,
        Instr::I32GtU => Cmp::GtU,
        Instr::I32LeS => Cmp::LeS,
        Instr::I32LeU => Cmp::LeU,
        Instr::I32GeS => Cmp::GeS,
        Instr::I32GeU => Cmp::GeU,
        _ => return None,
    })
}

/// One flat-IR operation (the cache-serializable form).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A straight-line instruction with shared semantics.
    Plain(Instr),
    /// Unconditional jump (no stack adjustment; used for `else` skips).
    Jump(u32),
    /// Jump when the popped i32 is zero (used for `if`).
    JumpIfZero(u32),
    /// Resolved `br`.
    Br(Dest),
    /// Resolved `br_if` (jump taken when popped i32 is non-zero).
    BrIf(Dest),
    /// Resolved `br_table`.
    BrTable { dests: Box<[Dest]>, default: Dest },
    /// Return the function's results from the top of the stack.
    Return,
    /// Trap.
    Unreachable,
    /// No-op left behind by peephole rewrites (compacted away by the final
    /// Max-tier pass).
    Nop,
    /// `drop` of a two-slot (v128) operand.
    Drop2,
    /// `select` between two-slot (v128) operands.
    Select2,

    // --- superinstructions produced by the Max tier ---
    /// `push locals[a] + locals[b]` (i32).
    I32AddLL(u16, u16),
    /// `push locals[a] + locals[b]` (i64).
    I64AddLL(u16, u16),
    /// `push locals[a] + locals[b]` (f64).
    F64AddLL(u16, u16),
    /// `push locals[a] * locals[b]` (f64).
    F64MulLL(u16, u16),
    /// `push locals[a] - locals[b]` (f64).
    F64SubLL(u16, u16),
    /// `push locals[a] + k` (i32).
    I32AddLK(u16, i32),
    /// `locals[a] = locals[a] + k` (i32), the classic loop-counter step.
    I32IncL(u16, i32),
    /// `push f64_load((locals[a] +wrap bias) + offset)` — `bias` joins the
    /// dynamic address with i32 wrap-around (it fuses guest-level adds);
    /// `offset` is the non-wrapping memarg immediate.
    F64LoadL { local: u16, bias: i32, offset: u32 },
    /// `push i32_load((locals[a] +wrap bias) + offset)`.
    I32LoadL { local: u16, bias: i32, offset: u32 },
    /// `f64_store(locals[addr] + offset, locals[val])`.
    F64StoreLL { addr: u16, val: u16, offset: u32 },
    /// `push popped * locals[b]` (f64) — fuses a loaded value with a factor.
    F64MulL(u16),
    /// `push popped + locals[b]` (f64).
    F64AddL(u16),
    /// `push locals[a] << k` (i32), the indexed-address scale step.
    I32ShlLK(u16, u8),
    /// `push popped + k` (i32).
    I32AddK(i32),
    /// `push locals[base] + (locals[idx] << shift)` (i32 address form).
    I32AddShlLL { base: u16, idx: u16, shift: u8 },
    /// `push f64_load(locals[base] + (locals[idx] << shift) + offset)`.
    F64LoadLSh { base: u16, idx: u16, shift: u8, offset: u32 },
    /// `push i32_load(locals[base] + (locals[idx] << shift) + offset)`.
    I32LoadLSh { base: u16, idx: u16, shift: u8, offset: u32 },
    /// `push f64_load(((locals[idx] << shift) +wrap bias) + offset)` — a
    /// constant base fuses into `bias` with i32 wrap-around, matching the
    /// guest's own address arithmetic; `offset` is the memarg immediate.
    F64LoadShlK { idx: u16, shift: u8, bias: i32, offset: u32 },
    /// `push i32_load(((locals[idx] << shift) +wrap bias) + offset)`.
    I32LoadShlK { idx: u16, shift: u8, bias: i32, offset: u32 },
    /// `push c + a * b` (f64): fused multiply-then-add (no FMA
    /// contraction — both roundings are performed as in the unfused pair).
    F64MulAdd,
    /// Compare-and-branch: `if cmp(locals[a], locals[b]) branch dest`.
    BrIfCmpLL { cmp: Cmp, a: u16, b: u16, dest: Dest },
    /// Compare-and-branch against a constant.
    BrIfCmpLK { cmp: Cmp, a: u16, k: i32, dest: Dest },
    /// Compare-and-branch on the two topmost stack operands.
    BrIfCmp { cmp: Cmp, dest: Dest },
    /// `if popped == 0 branch dest` (fused `i32.eqz ; br_if`).
    BrIfEqz(Dest),
}

/// A fully compiled flat function.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatFunc {
    /// Serializable ops (the cache artifact form). May be empty after
    /// [`FlatFunc::discard_ops`]; the cache regenerates the stream by
    /// recompiling when it needs to serialize again.
    pub ops: Vec<Op>,
    /// Stackless register form derived from `ops` by
    /// [`FlatFunc::finalize`]; the form the engine executes.
    pub reg: regalloc::RegFunc,
    pub n_params: u32,
    pub locals: Vec<ValType>,
    /// Result count in values (kept for the cache format).
    pub result_arity: u32,
}

impl FlatFunc {
    /// Approximate in-memory size in bytes (ops + register code dominate).
    pub fn size_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<Op>()
            + self.reg.size_bytes()
            + self.locals.len()
            + std::mem::size_of::<Self>()
    }

    /// Derive the executable register form (see [`crate::regalloc`]).
    /// Must be called (by [`compile`] or the cache loader) before the
    /// function can run. Fails on malformed op streams (corrupt cache
    /// artifacts); the loader treats that as a miss and recompiles.
    pub fn finalize(&mut self, module: &Module, func: &Function) -> Result<(), String> {
        self.reg = regalloc::lower(module, func, &self.ops)?;
        Ok(())
    }

    /// Drop the portable op stream to halve resident memory once the
    /// cache artifact is stored (or intentionally not wanted). The
    /// executable register form is unaffected; serialization regenerates
    /// the stream by recompiling the (deterministic) pipeline.
    pub fn discard_ops(&mut self) {
        self.ops = Vec::new();
    }
}

// --- compilation ---

struct Ctrl {
    /// Slot height of the frame (operand stack, frame-relative).
    height: u32,
    br_arity: u32,
    /// Start ip for loops (branch target).
    loop_start: Option<u32>,
    /// Forward-branch op indices to patch to this frame's end.
    patches: Vec<Patch>,
    /// `JumpIfZero` emitted at `if`, patched at `else`/`end`.
    if_patch: Option<usize>,
    /// `Jump` emitted at `else` (then-arm fallthrough), patched at `end`.
    else_jump: Option<usize>,
    /// Width-stack depth at block entry (params popped) — the fused
    /// width pass's reset point for `else`/`end`.
    wbase: usize,
    /// Operand widths of the block's params / results (true = v128).
    wparams: Vec<bool>,
    wresults: Vec<bool>,
}

enum Patch {
    /// Patch `ops[idx]`'s single target.
    Single(usize),
    /// Patch `ops[idx]`'s br_table destination `slot` (usize::MAX = default).
    Table(usize, usize),
}

/// Slot count of a width list (v128 entries span two slots).
fn wslots(ws: &[bool]) -> u32 {
    ws.iter().map(|&w| if w { 2 } else { 1 }).sum()
}

/// Net stack effect of a straight-line instruction in *values* (pops,
/// pushes). Slot-accurate accounting is done by [`crate::widths`], which
/// consumes these counts.
pub(crate) fn stack_effect(module: &Module, i: &Instr) -> (u32, u32) {
    use Instr::*;
    match i {
        Drop => (1, 0),
        Select => (3, 1),
        LocalGet(_) | GlobalGet(_) => (0, 1),
        LocalSet(_) | GlobalSet(_) => (1, 0),
        LocalTee(_) => (1, 1),
        Call(f) => {
            let t = module.func_type(*f).expect("validated");
            (t.params.len() as u32, t.results.len() as u32)
        }
        CallIndirect { type_idx, .. } => {
            let t = &module.types[*type_idx as usize];
            (t.params.len() as u32 + 1, t.results.len() as u32)
        }
        I32Load(_) | I64Load(_) | F32Load(_) | F64Load(_) | I32Load8S(_) | I32Load8U(_)
        | I32Load16S(_) | I32Load16U(_) | I64Load8S(_) | I64Load8U(_) | I64Load16S(_)
        | I64Load16U(_) | I64Load32S(_) | I64Load32U(_) | V128Load(_) => (1, 1),
        I32Store(_) | I64Store(_) | F32Store(_) | F64Store(_) | I32Store8(_) | I32Store16(_)
        | I64Store8(_) | I64Store16(_) | I64Store32(_) | V128Store(_) => (2, 0),
        MemorySize => (0, 1),
        MemoryGrow => (1, 1),
        MemoryCopy | MemoryFill => (3, 0),
        I32Const(_) | I64Const(_) | F32Const(_) | F64Const(_) | V128Const(_) => (0, 1),
        I32Eqz | I64Eqz => (1, 1),
        // Comparisons and binary arithmetic pop two.
        I32Eq | I32Ne | I32LtS | I32LtU | I32GtS | I32GtU | I32LeS | I32LeU | I32GeS | I32GeU
        | I64Eq | I64Ne | I64LtS | I64LtU | I64GtS | I64GtU | I64LeS | I64LeU | I64GeS
        | I64GeU | F32Eq | F32Ne | F32Lt | F32Gt | F32Le | F32Ge | F64Eq | F64Ne | F64Lt
        | F64Gt | F64Le | F64Ge | I32Add | I32Sub | I32Mul | I32DivS | I32DivU | I32RemS
        | I32RemU | I32And | I32Or | I32Xor | I32Shl | I32ShrS | I32ShrU | I32Rotl | I32Rotr
        | I64Add | I64Sub | I64Mul | I64DivS | I64DivU | I64RemS | I64RemU | I64And | I64Or
        | I64Xor | I64Shl | I64ShrS | I64ShrU | I64Rotl | I64Rotr | F32Add | F32Sub | F32Mul
        | F32Div | F32Min | F32Max | F32Copysign | F64Add | F64Sub | F64Mul | F64Div
        | F64Min | F64Max | F64Copysign | I32x4Add | I32x4Sub | I32x4Mul | F32x4Add
        | F32x4Sub | F32x4Mul | F32x4Div | F64x2Add | F64x2Sub | F64x2Mul | F64x2Div
        | F64x2Eq | F64x2Ne | F64x2Lt | F64x2Gt | F64x2Le | F64x2Ge | V128And | V128Or
        | V128Xor => (2, 1),
        F64x2ReplaceLane(_) => (2, 1),
        // Unary ops.
        I32Clz | I32Ctz | I32Popcnt | I64Clz | I64Ctz | I64Popcnt | F32Abs | F32Neg
        | F32Ceil | F32Floor | F32Trunc | F32Nearest | F32Sqrt | F64Abs | F64Neg | F64Ceil
        | F64Floor | F64Trunc | F64Nearest | F64Sqrt | I32WrapI64 | I32TruncF32S
        | I32TruncF32U | I32TruncF64S | I32TruncF64U | I64ExtendI32S | I64ExtendI32U
        | I64TruncF32S | I64TruncF32U | I64TruncF64S | I64TruncF64U | F32ConvertI32S
        | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F32DemoteF64 | F64ConvertI32S
        | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F64PromoteF32
        | I32ReinterpretF32 | I64ReinterpretF64 | F32ReinterpretI32 | F64ReinterpretI64
        | I32Extend8S | I32Extend16S | I64Extend8S | I64Extend16S | I64Extend32S
        | I32x4Splat | I64x2Splat | F32x4Splat | F64x2Splat | I32x4ExtractLane(_)
        | F32x4ExtractLane(_) | F64x2ExtractLane(_) | V128Not | V128AnyTrue | I32x4AllTrue
        | I32x4Bitmask => (1, 1),
        Nop => (0, 0),
        Unreachable | Block(_) | Loop(_) | If(_) | Else | End | Br(_) | BrIf(_)
        | BrTable { .. } | Return => {
            unreachable!("control instruction in stack_effect")
        }
    }
}

/// Flatten (and, for `opt_level > 0`, optimize) one function body.
///
/// The flatten walk is fused with the width pass: a single traversal
/// resolves control flow *and* tracks operand widths (slot heights for
/// branch unwinding, v128-ness of `drop`/`select`), where earlier
/// engines walked every body twice (`widths::analyze` + flatten). The
/// standalone [`widths::analyze`] remains for the baseline tier.
pub fn compile(module: &Module, func: &Function, opt_level: u8) -> FlatFunc {
    let mut f = compile_ops(module, func, opt_level);
    f.finalize(module, func)
        .expect("freshly compiled flat IR must lower to register form");
    f
}

/// [`compile`] without the register-form lowering: produces only the
/// portable op stream. Used when the caller needs the serializable form
/// alone (the cache regenerating a discarded stream for
/// `store_artifact`) — skipping `finalize` halves that recompile cost.
pub fn compile_ops(module: &Module, func: &Function, opt_level: u8) -> FlatFunc {
    let fty = &module.types[func.type_idx as usize];
    let result_arity = fty.results.len() as u32;
    let result_slots = widths::slot_count(&fty.results);
    let local_wide: Vec<bool> = fty
        .params
        .iter()
        .chain(func.locals.iter())
        .map(|t| *t == ValType::V128)
        .collect();

    let mut ops: Vec<Op> = Vec::with_capacity(func.body.len());
    // Fused width state: operand widths plus the running height in slots.
    let mut w: Vec<bool> = Vec::with_capacity(32);
    let mut slots: u32 = 0;
    let mut ctrl: Vec<Ctrl> = vec![Ctrl {
        height: 0,
        br_arity: result_slots,
        loop_start: None,
        patches: Vec::new(),
        if_patch: None,
        else_jump: None,
        wbase: 0,
        wparams: Vec::new(),
        wresults: widths::widths_of(&fty.results),
    }];
    // When `Some(n)`, code is statically dead; n counts nested blocks opened
    // inside the dead region.
    let mut dead: Option<u32> = None;

    macro_rules! wpush {
        ($wide:expr) => {{
            let x: bool = $wide;
            w.push(x);
            slots += if x { 2 } else { 1 };
        }};
    }
    macro_rules! wpop {
        () => {{
            let x = w.pop().expect("validated: width stack underflow");
            slots -= if x { 2 } else { 1 };
            x
        }};
    }
    macro_rules! wreset {
        ($base:expr, $push:expr) => {{
            while w.len() > $base {
                wpop!();
            }
            for &x in $push {
                wpush!(x);
            }
        }};
    }

    for instr in func.body.iter() {
        if let Some(n) = dead {
            match instr {
                i if i.opens_block() => dead = Some(n + 1),
                Instr::End if n > 0 => dead = Some(n - 1),
                Instr::Else if n == 0 => {
                    dead = None;
                    // Process the Else normally below.
                }
                Instr::End if n == 0 => {
                    dead = None;
                    // Process the End normally below.
                }
                _ => continue,
            }
            if dead.is_some() {
                continue;
            }
        }
        match instr {
            Instr::Nop => {}
            Instr::Block(bt) | Instr::Loop(bt) => {
                let (wparams, wresults) = widths::block_widths(module, bt);
                for _ in 0..wparams.len() {
                    wpop!();
                }
                let wbase = w.len();
                // Branch heights exclude the block's params.
                let height = slots;
                for &x in &wparams {
                    wpush!(x);
                }
                let is_loop = matches!(instr, Instr::Loop(_));
                ctrl.push(Ctrl {
                    height,
                    br_arity: if is_loop { wslots(&wparams) } else { wslots(&wresults) },
                    loop_start: is_loop.then(|| ops.len() as u32),
                    patches: Vec::new(),
                    if_patch: None,
                    else_jump: None,
                    wbase,
                    wparams,
                    wresults,
                });
            }
            Instr::If(bt) => {
                wpop!(); // condition
                let (wparams, wresults) = widths::block_widths(module, bt);
                for _ in 0..wparams.len() {
                    wpop!();
                }
                let wbase = w.len();
                let height = slots;
                for &x in &wparams {
                    wpush!(x);
                }
                let if_patch = ops.len();
                ops.push(Op::JumpIfZero(u32::MAX));
                ctrl.push(Ctrl {
                    height,
                    br_arity: wslots(&wresults),
                    loop_start: None,
                    patches: Vec::new(),
                    if_patch: Some(if_patch),
                    else_jump: None,
                    wbase,
                    wparams,
                    wresults,
                });
            }
            Instr::Else => {
                let frame = ctrl.last_mut().expect("validated");
                let else_jump = ops.len();
                ops.push(Op::Jump(u32::MAX));
                if let Some(p) = frame.if_patch.take() {
                    ops[p] = Op::JumpIfZero(ops.len() as u32);
                }
                frame.else_jump = Some(else_jump);
                let (wbase, wparams) = (frame.wbase, frame.wparams.clone());
                wreset!(wbase, &wparams);
            }
            Instr::End => {
                let frame = ctrl.pop().expect("validated");
                let here = ops.len() as u32;
                if let Some(p) = frame.if_patch {
                    ops[p] = Op::JumpIfZero(here);
                }
                if let Some(p) = frame.else_jump {
                    ops[p] = Op::Jump(here);
                }
                for patch in frame.patches {
                    match patch {
                        Patch::Single(idx) => set_target(&mut ops[idx], here),
                        Patch::Table(idx, slot) => set_table_target(&mut ops[idx], slot, here),
                    }
                }
                wreset!(frame.wbase, &frame.wresults);
                if ctrl.is_empty() {
                    // Function-level end; nothing may follow.
                    ops.push(Op::Return);
                    break;
                }
            }
            Instr::Br(depth) => {
                emit_branch(&mut ops, &mut ctrl, *depth, false);
                dead = Some(0);
            }
            Instr::BrIf(depth) => {
                wpop!(); // condition
                emit_branch(&mut ops, &mut ctrl, *depth, true);
            }
            Instr::BrTable { targets, default } => {
                let op_idx = ops.len();
                let mut dests = Vec::with_capacity(targets.len());
                for (slot, t) in targets.iter().enumerate() {
                    dests.push(make_dest(&mut ctrl, *t, op_idx, slot));
                }
                let default_dest = make_dest(&mut ctrl, *default, op_idx, usize::MAX);
                ops.push(Op::BrTable { dests: dests.into_boxed_slice(), default: default_dest });
                dead = Some(0);
            }
            Instr::Return => {
                ops.push(Op::Return);
                dead = Some(0);
            }
            Instr::Unreachable => {
                ops.push(Op::Unreachable);
                dead = Some(0);
            }
            Instr::Drop => {
                let wide = wpop!();
                ops.push(if wide { Op::Drop2 } else { Op::Plain(Instr::Drop) });
            }
            Instr::Select => {
                wpop!(); // condition
                let a = wpop!();
                let _b = wpop!();
                wpush!(a);
                ops.push(if a { Op::Select2 } else { Op::Plain(Instr::Select) });
            }
            Instr::LocalGet(i) => {
                wpush!(local_wide[*i as usize]);
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::LocalSet(_) | Instr::GlobalSet(_) => {
                wpop!();
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::LocalTee(_) => {
                // Pops and re-pushes the same width.
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::GlobalGet(_) => {
                wpush!(false);
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::Call(f) => {
                let ty = module.func_type(*f).expect("validated");
                for _ in 0..ty.params.len() {
                    wpop!();
                }
                for r in &ty.results {
                    wpush!(*r == ValType::V128);
                }
                ops.push(Op::Plain(instr.clone()));
            }
            Instr::CallIndirect { type_idx, .. } => {
                wpop!(); // table index
                let ty = &module.types[*type_idx as usize];
                for _ in 0..ty.params.len() {
                    wpop!();
                }
                for r in &ty.results {
                    wpush!(*r == ValType::V128);
                }
                ops.push(Op::Plain(instr.clone()));
            }
            plain => {
                let (pops, pushes) = stack_effect(module, plain);
                for _ in 0..pops {
                    wpop!();
                }
                debug_assert!(pushes <= 1);
                for _ in 0..pushes {
                    wpush!(widths::pushes_wide(plain));
                }
                ops.push(Op::Plain(plain.clone()));
            }
        }
    }

    let mut f = FlatFunc {
        ops,
        reg: regalloc::RegFunc::default(),
        n_params: fty.params.len() as u32,
        locals: func.locals.clone(),
        result_arity,
    };
    if opt_level > 0 {
        optimize(&mut f, opt_level);
    }
    f
}

fn set_target(op: &mut Op, target: u32) {
    match op {
        Op::Br(d) | Op::BrIf(d) => d.target = target,
        Op::Jump(t) | Op::JumpIfZero(t) => *t = target,
        _ => unreachable!("patching non-branch op"),
    }
}

fn set_table_target(op: &mut Op, slot: usize, target: u32) {
    if let Op::BrTable { dests, default } = op {
        if slot == usize::MAX {
            default.target = target;
        } else {
            dests[slot].target = target;
        }
    } else {
        unreachable!("patching non-br_table op")
    }
}

fn emit_branch(ops: &mut Vec<Op>, ctrl: &mut [Ctrl], depth: u32, conditional: bool) {
    let idx = ctrl.len() - 1 - depth as usize;
    if idx == 0 {
        // Branch to the function frame == return. A conditional return
        // needs the jump form so fallthrough continues:
        // JumpIfZero(skip) ; Return ; skip:
        if conditional {
            let jz = ops.len();
            ops.push(Op::JumpIfZero(u32::MAX));
            ops.push(Op::Return);
            let here = ops.len() as u32;
            ops[jz] = Op::JumpIfZero(here);
        } else {
            ops.push(Op::Return);
        }
        return;
    }
    let frame = &ctrl[idx];
    let dest = Dest { target: u32::MAX, height: frame.height, arity: frame.br_arity };
    let op_idx = ops.len();
    if let Some(start) = frame.loop_start {
        let d = Dest { target: start, ..dest };
        ops.push(if conditional { Op::BrIf(d) } else { Op::Br(d) });
    } else {
        ops.push(if conditional { Op::BrIf(dest) } else { Op::Br(dest) });
        // ctrl is a slice; push patch onto the frame.
        let frame = &mut ctrl[idx];
        frame.patches.push(Patch::Single(op_idx));
    }
}

fn make_dest(ctrl: &mut [Ctrl], depth: u32, op_idx: usize, slot: usize) -> Dest {
    let idx = ctrl.len() - 1 - depth as usize;
    if idx == 0 {
        // Branch to the function frame: unwind to height 0 carrying the
        // function results, then fall into the trailing Return that the
        // function-level End appends (patched in by the frame's patch
        // list).
        let frame = &ctrl[0];
        let d = Dest { target: u32::MAX, height: 0, arity: frame.br_arity };
        let frame = &mut ctrl[0];
        frame.patches.push(Patch::Table(op_idx, slot));
        return d;
    }
    let frame = &ctrl[idx];
    let d = Dest {
        target: frame.loop_start.unwrap_or(u32::MAX),
        height: frame.height,
        arity: frame.br_arity,
    };
    if frame.loop_start.is_none() {
        let frame = &mut ctrl[idx];
        frame.patches.push(Patch::Table(op_idx, slot));
    }
    d
}

// --- optimization pipeline (Max tier) ---

fn optimize(f: &mut FlatFunc, opt_level: u8) {
    // Iterate the peephole passes to a fixpoint (bounded), the honest way
    // optimizers spend their compile-time budget. Nops are compacted after
    // every round so multi-stage fusions (e.g. shift → indexed address →
    // fused load) become adjacent again for the next round.
    let max_iters = 2 + opt_level as usize * 3;
    for _ in 0..max_iters {
        let targets = jump_targets(&f.ops);
        let a = fold_constants(&mut f.ops, &targets);
        let b = fuse_locals(&mut f.ops, &targets);
        compact_nops(f);
        if !a && !b {
            break;
        }
    }
}

/// Set of op indices that are jump targets; peephole windows must not span
/// them (except at the window start, where the Nop prefix keeps semantics).
fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut t = vec![false; ops.len() + 1];
    let mut mark = |x: u32| {
        if (x as usize) < t.len() {
            t[x as usize] = true;
        }
    };
    for op in ops {
        match op {
            Op::Jump(x) | Op::JumpIfZero(x) => mark(*x),
            Op::Br(d) | Op::BrIf(d) | Op::BrIfEqz(d) => mark(d.target),
            Op::BrIfCmpLL { dest, .. } | Op::BrIfCmpLK { dest, .. } | Op::BrIfCmp { dest, .. } => {
                mark(dest.target)
            }
            Op::BrTable { dests, default } => {
                for d in dests.iter() {
                    mark(d.target);
                }
                mark(default.target);
            }
            _ => {}
        }
    }
    t
}

fn window_clear(targets: &[bool], start: usize, len: usize) -> bool {
    (start + 1..start + len).all(|i| !targets[i])
}

/// Fold `const ⊕ const` into a single constant. Returns true if changed.
fn fold_constants(ops: &mut [Op], targets: &[bool]) -> bool {
    use Instr::*;
    let mut changed = false;
    let mut i = 0;
    while i + 2 < ops.len() {
        if !window_clear(targets, i, 3) {
            i += 1;
            continue;
        }
        let folded = match (&ops[i], &ops[i + 1], &ops[i + 2]) {
            (Op::Plain(I32Const(a)), Op::Plain(I32Const(b)), Op::Plain(op)) => match op {
                I32Add => Some(I32Const(a.wrapping_add(*b))),
                I32Sub => Some(I32Const(a.wrapping_sub(*b))),
                I32Mul => Some(I32Const(a.wrapping_mul(*b))),
                I32And => Some(I32Const(a & b)),
                I32Or => Some(I32Const(a | b)),
                I32Xor => Some(I32Const(a ^ b)),
                I32Shl => Some(I32Const(a.wrapping_shl(*b as u32))),
                _ => None,
            },
            (Op::Plain(I64Const(a)), Op::Plain(I64Const(b)), Op::Plain(op)) => match op {
                I64Add => Some(I64Const(a.wrapping_add(*b))),
                I64Sub => Some(I64Const(a.wrapping_sub(*b))),
                I64Mul => Some(I64Const(a.wrapping_mul(*b))),
                _ => None,
            },
            (Op::Plain(F64Const(a)), Op::Plain(F64Const(b)), Op::Plain(op)) => match op {
                F64Add => Some(F64Const(a + b)),
                F64Sub => Some(F64Const(a - b)),
                F64Mul => Some(F64Const(a * b)),
                _ => None,
            },
            _ => None,
        };
        if let Some(c) = folded {
            ops[i] = Op::Nop;
            ops[i + 1] = Op::Nop;
            ops[i + 2] = Op::Plain(c);
            changed = true;
            i += 3;
        } else {
            i += 1;
        }
    }
    changed
}

fn as_local(op: &Op) -> Option<u16> {
    match op {
        Op::Plain(Instr::LocalGet(i)) if *i <= u16::MAX as u32 => Some(*i as u16),
        _ => None,
    }
}

/// True for ops that pop nothing and push exactly one i32-compatible slot;
/// safe to commute with a preceding `i32.const` across a commutative add.
fn is_pure_push(op: &Op) -> bool {
    matches!(
        op,
        Op::Plain(Instr::LocalGet(_) | Instr::GlobalGet(_) | Instr::MemorySize)
            | Op::I32ShlLK(..)
            | Op::I32AddLK(..)
            | Op::I32AddShlLL { .. }
            | Op::I32LoadL { .. }
            | Op::I32LoadLSh { .. }
            | Op::I32LoadShlK { .. }
    )
}

/// Fuse common local/load/store/compare-branch patterns into
/// superinstructions. Returns true if changed.
fn fuse_locals(ops: &mut [Op], targets: &[bool]) -> bool {
    use Instr::*;
    let mut changed = false;
    let mut i = 0;
    while i < ops.len() {
        // 4-wide: local.get a ; i32.const k ; i32.add ; local.set a  =>  inc
        if i + 3 < ops.len() && window_clear(targets, i, 4) {
            if let (Some(a), Op::Plain(I32Const(k)), Op::Plain(I32Add), Op::Plain(LocalSet(d))) =
                (as_local(&ops[i]), &ops[i + 1], &ops[i + 2], &ops[i + 3])
            {
                if *d == a as u32 {
                    let (k, a) = (*k, a);
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = Op::Nop;
                    ops[i + 3] = Op::I32IncL(a, k);
                    changed = true;
                    i += 4;
                    continue;
                }
            }
            // local.get a ; local.get b ; i32.cmp ; br_if  =>  fused branch
            if let (Some(a), Some(b), Op::Plain(cmp_i), Op::BrIf(d)) =
                (as_local(&ops[i]), as_local(&ops[i + 1]), &ops[i + 2], &ops[i + 3])
            {
                if let Some(cmp) = cmp_of(cmp_i) {
                    let (dest, a, b) = (*d, a, b);
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = Op::Nop;
                    ops[i + 3] = Op::BrIfCmpLL { cmp, a, b, dest };
                    changed = true;
                    i += 4;
                    continue;
                }
            }
            // local.get a ; i32.const k ; i32.cmp ; br_if  =>  fused branch
            if let (Some(a), Op::Plain(I32Const(k)), Op::Plain(cmp_i), Op::BrIf(d)) =
                (as_local(&ops[i]), &ops[i + 1], &ops[i + 2], &ops[i + 3])
            {
                if let Some(cmp) = cmp_of(cmp_i) {
                    let (dest, a, k) = (*d, a, *k);
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = Op::Nop;
                    ops[i + 3] = Op::BrIfCmpLK { cmp, a, k, dest };
                    changed = true;
                    i += 4;
                    continue;
                }
            }
        }
        // 3-wide windows.
        if i + 2 < ops.len() && window_clear(targets, i, 3) {
            // local.get a ; local.get b ; binop / f64.store
            if let (Some(a), Some(b)) = (as_local(&ops[i]), as_local(&ops[i + 1])) {
                let fused = match &ops[i + 2] {
                    Op::Plain(I32Add) => Some(Op::I32AddLL(a, b)),
                    Op::Plain(I64Add) => Some(Op::I64AddLL(a, b)),
                    Op::Plain(F64Add) => Some(Op::F64AddLL(a, b)),
                    Op::Plain(F64Mul) => Some(Op::F64MulLL(a, b)),
                    Op::Plain(F64Sub) => Some(Op::F64SubLL(a, b)),
                    Op::Plain(F64Store(m)) => {
                        Some(Op::F64StoreLL { addr: a, val: b, offset: m.offset })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = op;
                    changed = true;
                    i += 3;
                    continue;
                }
            }
            // local.get a ; i32.const k ; i32.add / i32.shl
            if let (Some(a), Op::Plain(I32Const(k))) = (as_local(&ops[i]), &ops[i + 1]) {
                let fused = match &ops[i + 2] {
                    Op::Plain(I32Add) => Some(Op::I32AddLK(a, *k)),
                    Op::Plain(I32Shl) => Some(Op::I32ShlLK(a, (*k & 31) as u8)),
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = op;
                    changed = true;
                    i += 3;
                    continue;
                }
            }
            // local.get base ; (local.get idx << k) ; i32.add  =>  addr form
            if let (Some(base), Op::I32ShlLK(idx, shift), Op::Plain(I32Add)) =
                (as_local(&ops[i]), &ops[i + 1], &ops[i + 2])
            {
                let (idx, shift) = (*idx, *shift);
                ops[i] = Op::Nop;
                ops[i + 1] = Op::Nop;
                ops[i + 2] = Op::I32AddShlLL { base, idx, shift };
                changed = true;
                i += 3;
                continue;
            }
            // (idx << shift) ; (+wrap k) ; load  =>  biased scaled load
            // (the constant base of an indexed access; bias keeps the
            // guest's i32 wrap-around, the memarg offset stays separate).
            if let (Op::I32ShlLK(idx, shift), Op::I32AddK(k), load) =
                (&ops[i], &ops[i + 1], &ops[i + 2])
            {
                let (idx, shift, k) = (*idx, *shift, *k);
                let fused = match load {
                    Op::Plain(F64Load(m)) => {
                        Some(Op::F64LoadShlK { idx, shift, bias: k, offset: m.offset })
                    }
                    Op::Plain(I32Load(m)) => {
                        Some(Op::I32LoadShlK { idx, shift, bias: k, offset: m.offset })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::Nop;
                    ops[i + 2] = op;
                    changed = true;
                    i += 3;
                    continue;
                }
            }
            // i32.const k ; <pure push> ; i32.add  =>  <pure push> ; +k
            if let (Op::Plain(I32Const(k)), x, Op::Plain(I32Add)) =
                (&ops[i], &ops[i + 1], &ops[i + 2])
            {
                if is_pure_push(x) {
                    let k = *k;
                    ops[i] = Op::Nop;
                    ops.swap(i + 1, i + 2);
                    ops[i + 1] = std::mem::replace(&mut ops[i + 2], Op::I32AddK(k));
                    // (swap + replace keeps the pure push first)
                    changed = true;
                    i += 3;
                    continue;
                }
            }
        }
        // 2-wide windows.
        if i + 1 < ops.len() && window_clear(targets, i, 2) {
            if let Some(a) = as_local(&ops[i]) {
                let fused = match &ops[i + 1] {
                    Op::Plain(F64Load(m)) => {
                        Some(Op::F64LoadL { local: a, bias: 0, offset: m.offset })
                    }
                    Op::Plain(I32Load(m)) => {
                        Some(Op::I32LoadL { local: a, bias: 0, offset: m.offset })
                    }
                    Op::Plain(F64Mul) => Some(Op::F64MulL(a)),
                    Op::Plain(F64Add) => Some(Op::F64AddL(a)),
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = op;
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            // (base + (idx << shift)) ; load  =>  one fused indexed load
            if let (Op::I32AddShlLL { base, idx, shift }, load) = (&ops[i], &ops[i + 1]) {
                let (base, idx, shift) = (*base, *idx, *shift);
                let fused = match load {
                    Op::Plain(F64Load(m)) => {
                        Some(Op::F64LoadLSh { base, idx, shift, offset: m.offset })
                    }
                    Op::Plain(I32Load(m)) => {
                        Some(Op::I32LoadLSh { base, idx, shift, offset: m.offset })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = op;
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            // (idx << shift) ; load  =>  scaled load
            if let (Op::I32ShlLK(idx, shift), load) = (&ops[i], &ops[i + 1]) {
                let (idx, shift) = (*idx, *shift);
                let fused = match load {
                    Op::Plain(F64Load(m)) => {
                        Some(Op::F64LoadShlK { idx, shift, bias: 0, offset: m.offset })
                    }
                    Op::Plain(I32Load(m)) => {
                        Some(Op::I32LoadShlK { idx, shift, bias: 0, offset: m.offset })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = op;
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            // (local +wrap k) ; load  =>  biased load. The constant joins
            // the *dynamic* address with i32 wrap-around — exactly the
            // guest's own add — never the non-wrapping memarg offset.
            if let (Op::I32AddLK(a, k), load) = (&ops[i], &ops[i + 1]) {
                let (a, k) = (*a, *k);
                let fused = match load {
                    Op::Plain(F64Load(m)) => {
                        Some(Op::F64LoadL { local: a, bias: k, offset: m.offset })
                    }
                    Op::Plain(I32Load(m)) => {
                        Some(Op::I32LoadL { local: a, bias: k, offset: m.offset })
                    }
                    _ => None,
                };
                if let Some(op) = fused {
                    ops[i] = Op::Nop;
                    ops[i + 1] = op;
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            // +k1 ; +k2  =>  +(k1+k2)
            if let (Op::I32AddK(k1), Op::I32AddK(k2)) = (&ops[i], &ops[i + 1]) {
                let k = k1.wrapping_add(*k2);
                ops[i] = Op::Nop;
                ops[i + 1] = Op::I32AddK(k);
                changed = true;
                i += 2;
                continue;
            }
            // f64.mul ; f64.add  =>  fused multiply-add (both roundings kept)
            if let (Op::Plain(F64Mul), Op::Plain(F64Add)) = (&ops[i], &ops[i + 1]) {
                ops[i] = Op::Nop;
                ops[i + 1] = Op::F64MulAdd;
                changed = true;
                i += 2;
                continue;
            }
            // i32.cmp ; br_if  =>  fused compare-branch
            if let (Op::Plain(cmp_i), Op::BrIf(d)) = (&ops[i], &ops[i + 1]) {
                if let Some(cmp) = cmp_of(cmp_i) {
                    let dest = *d;
                    ops[i] = Op::Nop;
                    ops[i + 1] = Op::BrIfCmp { cmp, dest };
                    changed = true;
                    i += 2;
                    continue;
                }
            }
            // i32.eqz ; br_if  =>  branch-if-zero
            if let (Op::Plain(I32Eqz), Op::BrIf(d)) = (&ops[i], &ops[i + 1]) {
                let dest = *d;
                ops[i] = Op::Nop;
                ops[i + 1] = Op::BrIfEqz(dest);
                changed = true;
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    changed
}

/// Remove Nops, remapping all jump targets (jump threading lite).
fn compact_nops(f: &mut FlatFunc) {
    let ops = &f.ops;
    // new_index[i] = index of op i after compaction; for a Nop it points at
    // the next surviving op (safe: a Nop's only semantics is falling
    // through).
    let mut new_index = vec![0u32; ops.len() + 1];
    let mut count = 0u32;
    for (i, op) in ops.iter().enumerate() {
        new_index[i] = count;
        if !matches!(op, Op::Nop) {
            count += 1;
        }
    }
    new_index[ops.len()] = count;

    let remap = |t: u32| new_index[t as usize];
    let mut out = Vec::with_capacity(count as usize);
    for op in ops {
        let rewritten = match op {
            Op::Nop => continue,
            Op::Jump(t) => Op::Jump(remap(*t)),
            Op::JumpIfZero(t) => Op::JumpIfZero(remap(*t)),
            Op::Br(d) => Op::Br(Dest { target: remap(d.target), ..*d }),
            Op::BrIf(d) => Op::BrIf(Dest { target: remap(d.target), ..*d }),
            Op::BrIfEqz(d) => Op::BrIfEqz(Dest { target: remap(d.target), ..*d }),
            Op::BrIfCmpLL { cmp, a, b, dest } => Op::BrIfCmpLL {
                cmp: *cmp,
                a: *a,
                b: *b,
                dest: Dest { target: remap(dest.target), ..*dest },
            },
            Op::BrIfCmpLK { cmp, a, k, dest } => Op::BrIfCmpLK {
                cmp: *cmp,
                a: *a,
                k: *k,
                dest: Dest { target: remap(dest.target), ..*dest },
            },
            Op::BrIfCmp { cmp, dest } => Op::BrIfCmp {
                cmp: *cmp,
                dest: Dest { target: remap(dest.target), ..*dest },
            },
            Op::BrTable { dests, default } => Op::BrTable {
                dests: dests
                    .iter()
                    .map(|d| Dest { target: remap(d.target), ..*d })
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                default: Dest { target: remap(default.target), ..*default },
            },
            other => other.clone(),
        };
        out.push(rewritten);
    }
    f.ops = out;
}

// --- execution ---

/// Execute flat-IR function `defined_idx` with `args` (already as slots),
/// through the register-form threaded-dispatch engine.
pub(crate) fn call(
    inst: &mut Instance,
    defined_idx: usize,
    args: &[Slot],
) -> Result<Vec<Slot>, Trap> {
    let mut stack = inst.take_stack();
    stack.extend_from_slice(args);
    let result = crate::dispatch::run(inst, &mut stack, defined_idx);
    let out = result.map(|result_slots| {
        let at = stack.len() - result_slots;
        stack.split_off(at)
    });
    inst.put_stack(stack);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_constants_rewrites_window() {
        let mut ops = vec![
            Op::Plain(Instr::I32Const(2)),
            Op::Plain(Instr::I32Const(3)),
            Op::Plain(Instr::I32Add),
        ];
        let targets = vec![false; 4];
        assert!(fold_constants(&mut ops, &targets));
        assert_eq!(ops[2], Op::Plain(Instr::I32Const(5)));
        assert_eq!(ops[0], Op::Nop);
    }

    #[test]
    fn fold_skips_jump_targets() {
        let mut ops = vec![
            Op::Plain(Instr::I32Const(2)),
            Op::Plain(Instr::I32Const(3)),
            Op::Plain(Instr::I32Add),
        ];
        let mut targets = vec![false; 4];
        targets[1] = true; // something jumps between the constants
        assert!(!fold_constants(&mut ops, &targets));
    }

    #[test]
    fn fuse_loop_counter_increment() {
        let mut ops = vec![
            Op::Plain(Instr::LocalGet(0)),
            Op::Plain(Instr::I32Const(1)),
            Op::Plain(Instr::I32Add),
            Op::Plain(Instr::LocalSet(0)),
        ];
        let targets = vec![false; 5];
        assert!(fuse_locals(&mut ops, &targets));
        assert_eq!(ops[3], Op::I32IncL(0, 1));
    }

    #[test]
    fn fuse_compare_and_branch() {
        let d = Dest { target: 7, height: 0, arity: 0 };
        // The for_range loop exit: local.get i ; local.get n ; ge_s ; br_if
        let mut ops = vec![
            Op::Plain(Instr::LocalGet(0)),
            Op::Plain(Instr::LocalGet(1)),
            Op::Plain(Instr::I32GeS),
            Op::BrIf(d),
        ];
        let targets = vec![false; 5];
        assert!(fuse_locals(&mut ops, &targets));
        assert_eq!(ops[3], Op::BrIfCmpLL { cmp: Cmp::GeS, a: 0, b: 1, dest: d });

        // Stack-operand form: cmp ; br_if.
        let mut ops = vec![Op::Plain(Instr::I32LtS), Op::BrIf(d)];
        let targets = vec![false; 3];
        assert!(fuse_locals(&mut ops, &targets));
        assert_eq!(ops[1], Op::BrIfCmp { cmp: Cmp::LtS, dest: d });

        // eqz ; br_if (the while-loop exit).
        let mut ops = vec![Op::Plain(Instr::I32Eqz), Op::BrIf(d)];
        let targets = vec![false; 3];
        assert!(fuse_locals(&mut ops, &targets));
        assert_eq!(ops[1], Op::BrIfEqz(d));
    }

    #[test]
    fn fuse_indexed_load_chain() {
        use crate::instr::MemArg;
        // local.get a ; local.get i ; const 3 ; shl ; add ; f64.load —
        // the canonical vector-element address — fuses to one op.
        let ops = vec![
            Op::Plain(Instr::LocalGet(4)),
            Op::Plain(Instr::LocalGet(2)),
            Op::Plain(Instr::I32Const(3)),
            Op::Plain(Instr::I32Shl),
            Op::Plain(Instr::I32Add),
            Op::Plain(Instr::F64Load(MemArg::offset(16))),
        ];
        let mut f = FlatFunc { ops, ..Default::default() };
        optimize(&mut f, 2);
        assert_eq!(f.ops, vec![Op::F64LoadLSh { base: 4, idx: 2, shift: 3, offset: 16 }]);
    }

    #[test]
    fn fuse_const_base_load() {
        use crate::instr::MemArg;
        // const 4096 ; local.get i ; const 3 ; shl ; add ; f64.load
        let ops = vec![
            Op::Plain(Instr::I32Const(4096)),
            Op::Plain(Instr::LocalGet(1)),
            Op::Plain(Instr::I32Const(3)),
            Op::Plain(Instr::I32Shl),
            Op::Plain(Instr::I32Add),
            Op::Plain(Instr::F64Load(MemArg::offset(0))),
        ];
        let mut f = FlatFunc { ops, ..Default::default() };
        optimize(&mut f, 2);
        assert_eq!(
            f.ops,
            vec![Op::F64LoadShlK { idx: 1, shift: 3, bias: 4096, offset: 0 }]
        );
    }

    #[test]
    fn compact_nops_remaps_jumps() {
        let mut f = FlatFunc {
            ops: vec![
                Op::Nop,
                Op::Jump(3),
                Op::Nop,
                Op::Plain(Instr::I32Const(1)),
                Op::Return,
            ],
            ..Default::default()
        };
        f.result_arity = 1;
        compact_nops(&mut f);
        assert_eq!(f.ops.len(), 3);
        // Jump(3) pointed at the const; after compaction the const is at 1.
        assert_eq!(f.ops[0], Op::Jump(1));
    }

    #[test]
    fn compact_remaps_fused_branch_targets() {
        let d = Dest { target: 3, height: 0, arity: 0 };
        let mut f = FlatFunc {
            ops: vec![
                Op::BrIfCmpLL { cmp: Cmp::LtS, a: 0, b: 1, dest: d },
                Op::Nop,
                Op::Nop,
                Op::Return,
            ],
            ..Default::default()
        };
        compact_nops(&mut f);
        assert_eq!(
            f.ops[0],
            Op::BrIfCmpLL {
                cmp: Cmp::LtS,
                a: 0,
                b: 1,
                dest: Dest { target: 1, height: 0, arity: 0 }
            }
        );
    }

    #[test]
    fn addk_never_folds_into_pure_push_loads() {
        use crate::instr::MemArg;
        // Regression: `counts[b] = counts[b] + 1` lowers to
        //   [ShlLK b][AddK counts]  (store address, stays on the stack)
        //   [LoadShlK b counts][Const 1][Add][I32Store]
        // The AddK feeds the *store*, not the following load; folding it
        // into the LoadShlK offset both corrupted the loaded address and
        // dropped the base from the store address.
        let ops = vec![
            Op::I32ShlLK(6, 2),
            Op::I32AddK(1000),
            Op::I32LoadShlK { idx: 6, shift: 2, bias: 1000, offset: 0 },
            Op::Plain(Instr::I32Const(1)),
            Op::Plain(Instr::I32Add),
            Op::Plain(Instr::I32Store(MemArg::offset(0))),
        ];
        let mut f = FlatFunc { ops: ops.clone(), ..Default::default() };
        optimize(&mut f, 2);
        assert!(
            f.ops.contains(&Op::I32AddK(1000)),
            "store-address AddK must survive: {:?}",
            f.ops
        );
        assert!(
            f.ops.contains(&Op::I32LoadShlK { idx: 6, shift: 2, bias: 1000, offset: 0 }),
            "load address must be unchanged: {:?}",
            f.ops
        );
    }

    #[test]
    fn cmp_byte_roundtrip() {
        for b in 0..=9u8 {
            assert_eq!(Cmp::from_byte(b).unwrap().to_byte(), b);
        }
        assert!(Cmp::from_byte(10).is_none());
        assert!(Cmp::LtS.eval(-1, 0));
        assert!(!Cmp::LtU.eval(-1, 0));
        assert!(Cmp::GeS.eval(3, 3));
    }
}
