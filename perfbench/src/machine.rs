//! What the result needs to tell a slower machine from slower code: the
//! core count, the CPU model, a fixed single-rank native kernel time, the
//! host's steal time and the process's peak resident set; and the fixed
//! allocator thresholds the run measures under.

use hpc_benchmarks::hpcg;
use mpi_substrate::run_world;

use crate::stats::median;

pub struct Fingerprint {
    /// The CPUs the run may use (see [`allowed_cpus`]); `nproc` is their
    /// count.
    pub cpus: Vec<usize>,
    pub cpu_model: String,
    /// Median seconds of the native HPCG kernel on one rank at a fixed
    /// size ([`CALIBRATION`]): the single-threaded baseline.
    pub native_hpcg_s: f64,
}

/// The calibration problem. It never changes with the workload or the
/// seed, so it moves only when the machine (or the native code) does.
pub const CALIBRATION: hpcg::HpcgParams = hpcg::HpcgParams { nx: 16, ny: 16, nz: 16, iters: 10 };
/// Calibration runs; the median is reported. One takes a few milliseconds.
const CALIBRATION_REPS: usize = 21;

/// Measure the machine the run uses.
pub fn fingerprint(cpus: Vec<usize>) -> Fingerprint {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let times: Vec<f64> = (0..CALIBRATION_REPS)
        .map(|_| run_world(1, |comm| hpcg::run_native(&comm, CALIBRATION).0)[0])
        .collect();
    Fingerprint { cpus, cpu_model, native_hpcg_s: median(&times) }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
}

/// The CPUs this process may run on.
///
/// The run uses all of them. Confining it to one CPU was tried and
/// dropped: the rank waiting in a collective then wakes every few tens of
/// microseconds and preempts the computing rank, and the npb_is job wall
/// settled per process on either about 0.15 s or about 0.23 s (see
/// README.md).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpus: Vec<usize> =
        (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.is_empty() {
        return Err("no CPU in the affinity mask".into());
    }
    Ok(cpus)
}

/// glibc `mallopt` parameters.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's allocator thresholds for the whole run: blocks up to
/// 32 MiB come from the heap, and freed heap memory is not returned to the
/// kernel below 256 MiB. By default both thresholds move with the
/// allocation history of the process, so whether a job's megabyte-sized
/// buffers come from the heap or from fresh `mmap`s (and pay page faults
/// and `munmap`) changed from process to process: the native npb_is kernel
/// time, and with it `wasm_native_ratio`, moved by a fifth between runs of
/// the same code, and `peak_rss_mb` landed on one of several levels.
/// Fixed this high, every block the workloads allocate comes from the heap,
/// as it does once the moving threshold has risen past it, and stays
/// there.
pub fn fix_malloc_thresholds() -> Result<(), String> {
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 256 << 20)] {
        // SAFETY: `mallopt` only reads its two integer arguments.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) failed"));
        }
    }
    Ok(())
}

/// `(steal, total)` ticks of `cpus` so far, summed, from `/proc/stat`.
pub fn cpu_ticks(cpus: &[usize]) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let (mut steal, mut total) = (0, 0);
    for cpu in cpus {
        let name = format!("cpu{cpu}");
        let line = stat.lines().find(|l| l.split_whitespace().next() == Some(name.as_str()))?;
        // user nice system idle iowait irq softirq steal
        let ticks: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|t| t.parse().ok()).collect();
        steal += *ticks.get(7)?;
        total += ticks.iter().sum::<u64>();
    }
    Some((steal, total))
}
