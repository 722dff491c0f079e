//! Deterministic register-op gates on the guests' hot bodies at the
//! default tier. The counts move only when the register lowering does, so
//! a change that undoes the address, range-check or branch folds fails
//! here without a timing run.

use hpc_benchmarks::{hpcg, npb_is};
use wasm_engine::regalloc::{Rc, RegFunc};
use wasm_engine::runtime::CompiledModule;
use wasm_engine::tier::{CompiledBody, Tier};

/// Compile `wasm` on `Tier::Max`; return the module and every defined
/// function's register code.
fn compile(wasm: &[u8]) -> (CompiledModule, Vec<RegFunc>) {
    let module = wasm_engine::decode_module(wasm).unwrap();
    let compiled = CompiledModule::compile(module, Tier::Max).unwrap();
    let bodies = compiled
        .bodies()
        .iter()
        .map(|b| match b {
            CompiledBody::Flat(f) => f.reg.clone(),
            CompiledBody::Interp(_) => panic!("Tier::Max compiles flat bodies"),
        })
        .collect();
    (compiled, bodies)
}

#[test]
fn hpcg_spmv_body_stays_folded() {
    let p = hpcg::HpcgParams { nx: 16, ny: 16, nz: 16, ..Default::default() };
    let (_, bodies) = compile(&hpcg::build_guest(p));
    // The 27-point SpMV is the one body that sums 26 neighbours.
    let spmv: Vec<&RegFunc> = bodies
        .iter()
        .filter(|f| f.code.iter().filter(|op| op.code == Rc::AddF64).count() == 26)
        .collect();
    assert_eq!(spmv.len(), 1, "exactly one SpMV body");
    let n = spmv[0].code.len();
    assert!(n <= 300, "SpMV body has {n} register ops, limit 300: {:?}", spmv[0].code);
}

#[test]
fn npb_is_start_body_stays_folded() {
    let (compiled, bodies) = compile(&npb_is::build_guest(npb_is::IsParams::default()));
    let module = compiled.module();
    let start =
        module.exports.iter().find(|e| e.name == "_start").expect("npb_is exports _start").index;
    let body = &bodies[(start - module.num_imported_funcs() as u32) as usize];
    let n = body.code.len();
    assert!(n <= 187, "npb_is _start has {n} register ops, limit 187: {:?}", body.code);
}
