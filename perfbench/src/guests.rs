//! The guest programs the workloads launch, their native twins, and the
//! output checks that hold every guest job to the native oracle of the
//! same problem.

use hpc_benchmarks::{hpcg, imb, ior, npb_dt, npb_is};
use mpi_substrate::{run_world_with, ClockMode};
use mpiwasm::JobResult;

/// Ranks per job (`mpirun -np`).
pub const NP: u32 = 2;

/// Per-rank `(key, value)` reports: what a guest passes to `bench.report`,
/// and what its native twin returns, recast under the same keys.
pub type Reports = Vec<Vec<(i32, f64)>>;

#[derive(Clone, Debug)]
pub enum Guest {
    Hpcg(hpcg::HpcgParams),
    Is(npb_is::IsParams),
    Dt(npb_dt::DtParams),
    Ior(ior::IorParams),
    Imb(imb::ImbRoutine, Vec<(u32, u32)>),
}

fn value(rank: &[(i32, f64)], key: i32) -> Result<f64, String> {
    rank.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("report key {key} missing"))
}

fn slowest(r: &Reports, key: i32) -> f64 {
    r.iter().filter_map(|rank| value(rank, key).ok()).fold(0.0, f64::max)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The reports of a finished job, or why the job failed.
pub fn job_reports(job: &JobResult) -> Result<Reports, String> {
    if let Some(r) = job.ranks.iter().find(|r| r.exit_code != 0 || r.error.is_some()) {
        return Err(format!(
            "rank {} exited {} ({})",
            r.rank,
            r.exit_code,
            r.error.as_deref().unwrap_or("no trap")
        ));
    }
    if job.ranks.len() != NP as usize {
        return Err(format!("{} of {NP} ranks returned", job.ranks.len()));
    }
    Ok(job.ranks.iter().map(|r| r.reports.clone()).collect())
}

impl Guest {
    pub fn name(&self) -> &'static str {
        match self {
            Guest::Hpcg(_) => "hpcg",
            Guest::Is(_) => "npb_is",
            Guest::Dt(_) => "npb_dt",
            Guest::Ior(_) => "ior",
            Guest::Imb(imb::ImbRoutine::PingPong, _) => "imb_pingpong",
            Guest::Imb(imb::ImbRoutine::Allreduce, _) => "imb_allreduce",
            Guest::Imb(..) => "imb",
        }
    }

    pub fn wasm(&self) -> Vec<u8> {
        match self {
            Guest::Hpcg(p) => hpcg::build_guest(*p),
            Guest::Is(p) => npb_is::build_guest(*p),
            Guest::Dt(p) => npb_dt::build_guest(*p),
            Guest::Ior(p) => ior::build_guest(*p),
            Guest::Imb(routine, sweep) => imb::build_guest(*routine, sweep),
        }
    }

    /// Run the native twin on `NP` ranks under `clock`.
    pub fn run_native(&self, clock: ClockMode) -> Reports {
        match self.clone() {
            Guest::Hpcg(p) => run_world_with(NP, clock, move |c| {
                let (t, rr, xsum) = hpcg::run_native(&c, p);
                vec![(0, t), (1, rr), (2, xsum)]
            }),
            Guest::Is(p) => run_world_with(NP, clock, move |c| {
                let (t, verified, total) = npb_is::run_native(&c, p);
                vec![(0, t), (1, verified as f64), (2, total as f64)]
            }),
            Guest::Dt(p) => run_world_with(NP, clock, move |c| {
                let (t, checksum) = npb_dt::run_native(&c, p);
                vec![(0, t), (1, checksum)]
            }),
            Guest::Ior(p) => run_world_with(NP, clock, move |c| {
                let (w, r, errors) = ior::run_native(&c, p);
                vec![(0, w), (1, r), (2, errors as f64)]
            }),
            Guest::Imb(routine, sweep) => {
                run_world_with(NP, clock, move |c| imb::run_native(&c, routine, &sweep))
            }
        }
    }

    /// Check one job's reports (a guest's, or a native twin's) against the
    /// native oracle of the same problem.
    pub fn check(&self, got: &Reports, oracle: &Reports) -> Result<(), String> {
        if got.len() != NP as usize || oracle.len() != NP as usize {
            return Err(format!("expected reports from {NP} ranks"));
        }
        for (rank, (g, o)) in got.iter().zip(oracle).enumerate() {
            let fail = |what: String| Err(format!("{} rank {rank}: {what}", self.name()));
            match self {
                Guest::Imb(_, sweep) => {
                    for &(bytes, _) in sweep {
                        let us = value(g, bytes.max(1).ilog2() as i32)?;
                        if !us.is_finite() || us < 0.0 {
                            return fail(format!("{bytes} B reported {us} us"));
                        }
                    }
                    continue;
                }
                _ => {
                    let t = value(g, 0)?;
                    if !t.is_finite() || t < 0.0 {
                        return fail(format!("kernel time {t}"));
                    }
                }
            }
            match self {
                Guest::Hpcg(_) => {
                    for key in [1, 2] {
                        let (a, b) = (value(g, key)?, value(o, key)?);
                        if !close(a, b) {
                            return fail(format!("report {key} = {a}, native {b}"));
                        }
                    }
                }
                Guest::Is(p) => {
                    let expected = (p.keys_per_rank as u64 * NP as u64 * p.iters as u64) as f64;
                    let total = value(g, 2)?;
                    if total != expected || value(o, 2)? != expected {
                        return fail(format!("global total {total}, expected {expected}"));
                    }
                }
                Guest::Dt(_) => {
                    let (a, b) = (value(g, 1)?, value(o, 1)?);
                    if a.to_bits() != b.to_bits() {
                        return fail(format!("checksum {a:e}, native {b:e}"));
                    }
                }
                Guest::Ior(_) => {
                    let errors = value(g, 2)?;
                    if errors != 0.0 {
                        return fail(format!("{errors} verify errors"));
                    }
                }
                Guest::Imb(..) => unreachable!("handled above"),
            }
        }
        if let Guest::Is(_) = self {
            // Every key a rank received lies in its range, so the ranks'
            // verified counts add up to the global total.
            let verified: f64 = got.iter().map(|r| value(r, 1)).sum::<Result<f64, String>>()?;
            let total = value(&got[0], 2)?;
            if verified != total {
                return Err(format!("npb_is: {verified} keys verified of {total}"));
            }
        }
        Ok(())
    }

    /// The kernel times a guest and its twin are compared on: the slowest
    /// rank's seconds (IOR: write and read), or rank 0's µs per IMB size.
    pub fn kernel(&self, r: &Reports) -> Vec<f64> {
        match self {
            Guest::Imb(_, sweep) => sweep
                .iter()
                .map(|&(bytes, _)| value(&r[0], bytes.max(1).ilog2() as i32).unwrap_or(f64::NAN))
                .collect(),
            Guest::Ior(_) => vec![slowest(r, 0), slowest(r, 1)],
            _ => vec![slowest(r, 0)],
        }
    }

    /// Kernel seconds from [`Guest::kernel`]'s components.
    pub fn kernel_s(&self, components: &[f64]) -> f64 {
        match self {
            Guest::Imb(routine, sweep) => {
                // PingPong reports one-way time: half of each iteration.
                let per_iter = if *routine == imb::ImbRoutine::PingPong { 2.0 } else { 1.0 };
                sweep
                    .iter()
                    .zip(components)
                    .map(|(&(_, iters), us)| us * iters as f64 * per_iter)
                    .sum::<f64>()
                    / 1e6
            }
            _ => components.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(r: &mut Reports, key: i32, v: f64) {
        for rank in r.iter_mut() {
            rank.iter_mut().find(|(k, _)| *k == key).unwrap().1 = v;
        }
    }

    /// Each guest's native twin passes its own check, and a corrupted
    /// output fails it.
    #[test]
    fn checks_reject_corrupted_outputs() {
        let cases: Vec<(Guest, i32, f64)> = vec![
            (Guest::Hpcg(hpcg::HpcgParams { nx: 4, ny: 4, nz: 4, iters: 2 }), 2, 1.5),
            (Guest::Is(npb_is::IsParams { keys_per_rank: 256, max_key: 256, iters: 1 }), 2, 3.0),
            (
                Guest::Dt(npb_dt::DtParams {
                    elems: 16,
                    topology: npb_dt::Topology::Shuffle,
                    iters: 1,
                    simd: false,
                }),
                1,
                -1.0,
            ),
            (Guest::Ior(ior::IorParams { block_bytes: 256, blocks: 1 }), 2, 1.0),
            (Guest::Imb(imb::ImbRoutine::PingPong, vec![(8, 2), (64, 2)]), 6, f64::NAN),
        ];
        for (guest, key, bad) in cases {
            let oracle = guest.run_native(ClockMode::Real);
            guest.check(&oracle, &oracle).unwrap();
            let mut corrupt = oracle.clone();
            set(&mut corrupt, key, bad);
            assert!(
                guest.check(&corrupt, &oracle).is_err(),
                "{} accepted a bad report",
                guest.name()
            );
            corrupt[1].retain(|(k, _)| *k != key);
            assert!(
                guest.check(&corrupt, &oracle).is_err(),
                "{} accepted a missing report",
                guest.name()
            );
        }
    }
}
