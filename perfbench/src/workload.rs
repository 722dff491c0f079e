//! The four workloads and why each was chosen (see README.md).

use hpc_benchmarks::{hpcg, imb, ior, npb_dt, npb_is};

use crate::guests::Guest;

pub const NAMES: [&str; 4] = ["hpcg", "npb_is", "imb", "launch"];

pub struct Workload {
    pub name: &'static str,
    pub guests: Vec<Guest>,
    /// Native twin runs per guest job. A cheap native kernel gets several,
    /// so the ratio's denominator is as well sampled as its numerator.
    pub native_reps: usize,
    /// Each job is launched fresh from Wasm bytes, every op alternately
    /// cold and through the cache, instead of re-running precompiled code.
    pub launch: bool,
    /// Cold/warm set-up sample pairs taken after each op: enough that a
    /// run holds well over a hundred samples of each.
    pub setup_pairs: usize,
}

/// IMB sizes 8 B .. 1 MiB, crossing the eager/rendezvous threshold. Small
/// messages get more iterations so each size runs for a similar time.
fn imb_sweep(small: bool) -> Vec<(u32, u32)> {
    if small {
        return vec![(8, 8), (4096, 8), (65536, 4)];
    }
    (3..=20).map(|log| (1u32 << log, ((4u32 << 20) >> log).clamp(8, 500))).collect()
}

/// The tiny guests the `launch` workload draws from.
fn launch_guests() -> Vec<Guest> {
    vec![
        Guest::Hpcg(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 }),
        Guest::Is(npb_is::IsParams { keys_per_rank: 1024, max_key: 1024, iters: 1 }),
        Guest::Dt(npb_dt::DtParams {
            elems: 64,
            topology: npb_dt::Topology::Shuffle,
            iters: 1,
            simd: true,
        }),
        Guest::Ior(ior::IorParams { block_bytes: 4096, blocks: 2 }),
        Guest::Imb(imb::ImbRoutine::PingPong, vec![(8, 16), (4096, 8)]),
    ]
}

/// The named workload; `small` shrinks every problem for the self-test.
pub fn workload(name: &str, small: bool) -> Option<Workload> {
    let w = match name {
        "hpcg" => {
            let n = if small { 8 } else { 16 };
            let p = hpcg::HpcgParams { nx: n, ny: n, nz: n, iters: if small { 3 } else { 10 } };
            Workload {
                name: "hpcg",
                guests: vec![Guest::Hpcg(p)],
                native_reps: 3,
                launch: false,
                setup_pairs: 3,
            }
        }
        "npb_is" => {
            let keys = if small { 4096 } else { 65536 };
            let p = npb_is::IsParams { keys_per_rank: keys, max_key: keys, iters: 5 };
            Workload {
                name: "npb_is",
                guests: vec![Guest::Is(p)],
                native_reps: 3,
                launch: false,
                setup_pairs: 3,
            }
        }
        "imb" => Workload {
            name: "imb",
            guests: vec![
                Guest::Imb(imb::ImbRoutine::PingPong, imb_sweep(small)),
                Guest::Imb(imb::ImbRoutine::Allreduce, imb_sweep(small)),
            ],
            native_reps: 1,
            launch: false,
            setup_pairs: 3,
        },
        "launch" => Workload {
            name: "launch",
            guests: launch_guests(),
            native_reps: 1,
            launch: true,
            setup_pairs: 1,
        },
        _ => return None,
    };
    Some(w)
}
