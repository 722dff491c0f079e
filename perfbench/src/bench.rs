//! One benchmark run: set-up samples, the closed measurement loop, and,
//! when traced, the per-layer probes, the recorded job, the max+jit twin
//! and the virtual-clock runs.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hpc_benchmarks::imb::ImbRoutine;
use mpi_substrate::ClockMode;
use mpiwasm::cache::{load_artifact, store_artifact};
use mpiwasm::{JobConfig, JobResult, ModuleCache, Runner};
use netsim::rng::SplitMix64;
use netsim::{CostModel, SystemProfile};
use obs::{EventKind, Recorder, TraceClock};
use wasm_engine::runtime::CompiledModule;
use wasm_engine::{decode_module, validate_module, Tier};

use crate::guests::{job_reports, Guest, Reports, NP};
use crate::machine::{self, Fingerprint};
use crate::spans::{Spans, CAPACITY};
use crate::stats::{geomean, median, tail};
use crate::workload::Workload;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the result file, spans, traces and the module cache.
    pub out: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Declared metrics (see `metrics.rs`) by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific extras for the table and result file:
    /// `(name, value, unit)`.
    pub extras: Vec<(String, f64, &'static str)>,
    pub machine: Fingerprint,
}

/// The loop runs at least this many ops, however short `--seconds` is.
const MIN_OPS: usize = 3;
/// Repetitions of each per-layer probe; the median is reported.
const LAYER_REPS: usize = 5;
/// Recorder slots per rank for the traced job.
const TRACE_CAPACITY: usize = 1 << 17;

const MPI_COUNTERS: [&str; 6] = [
    "mpi.eager_messages",
    "mpi.eager_bytes_copied",
    "mpi.deferred_eager_messages",
    "mpi.rendezvous_messages",
    "mpi.rendezvous_bytes",
    "mpi.preposted_matches",
];

#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one checked job.
    fn job<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        self.ok(r)
    }

    /// Record a failure outside a job (set-up, probes) without counting an
    /// attempt.
    fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.failures.push(e)).ok()
    }
}

/// Launch one guest job on compiled code and check its outputs. The wall
/// time runs from the `run_compiled` call until the check is done.
fn guest_job(
    runner: &Runner,
    code: &CompiledModule,
    guest: &Guest,
    oracle: &Reports,
    config: JobConfig,
) -> (Result<(Reports, JobResult), String>, f64) {
    let t0 = Instant::now();
    let result = runner
        .run_compiled(code, config)
        .map_err(|e| e.to_string())
        .and_then(|job| {
            let reports = job_reports(&job)?;
            guest.check(&reports, oracle)?;
            Ok((reports, job))
        })
        .map_err(|e| format!("{}: {e}", guest.name()));
    (result, t0.elapsed().as_secs_f64())
}

fn job_config() -> JobConfig {
    JobConfig { np: NP, ..Default::default() }
}

/// Time `f` inside a span of the same name and keep the sample.
fn timed<R>(
    spans: &mut Spans,
    name: &'static str,
    job: u64,
    samples: &mut BTreeMap<&'static str, Vec<f64>>,
    f: impl FnOnce() -> R,
) -> R {
    let open = spans.open(name, job);
    let t0 = Instant::now();
    let r = f();
    let s = t0.elapsed().as_secs_f64();
    spans.close_with(open, Some(s));
    samples.entry(name).or_default().push(s);
    r
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

struct Run<'a> {
    cfg: &'a Config,
    runner: Runner,
    cache: ModuleCache,
    spans: Spans,
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
    extras: Vec<(String, f64, &'static str)>,
    wasms: Vec<Vec<u8>>,
    oracles: Vec<Reports>,
    compiled: Vec<CompiledModule>,
    /// Where this run's files go.
    dir: PathBuf,
    /// Loop samples per guest: job walls, and kernel components of the
    /// guest jobs and of their native twins.
    guest_wall: Vec<Vec<f64>>,
    guest_kernel: Vec<Vec<Vec<f64>>>,
    native_kernel: Vec<Vec<Vec<f64>>>,
}

/// Run the configured workload once on `cpus`, every CPU the process may
/// use.
pub fn run(cfg: &Config, cpus: Vec<usize>) -> Result<Outcome, String> {
    let machine = machine::fingerprint(cpus);
    let w = &cfg.workload;
    let cache_dir = cfg.out.join(format!("cache-{}-{}", w.name, std::process::id()));
    let dir = cfg.out.join(format!("{}-seed{}-trace{}", w.name, cfg.seed, cfg.trace as u8));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache = ModuleCache::new(&cache_dir).map_err(|e| format!("module cache: {e}"))?;
    let n = w.guests.len();
    let mut run = Run {
        cfg,
        runner: Runner::new(),
        cache,
        spans: Spans::new(cfg.trace),
        tally: Tally::default(),
        metrics: BTreeMap::new(),
        extras: Vec::new(),
        wasms: w.guests.iter().map(Guest::wasm).collect(),
        oracles: Vec::new(),
        compiled: Vec::new(),
        dir,
        guest_wall: vec![Vec::new(); n],
        guest_kernel: vec![Vec::new(); n],
        native_kernel: vec![Vec::new(); n],
    };
    let result = run.all(&machine);
    let _ = std::fs::remove_dir_all(&cache_dir);
    result?;
    Ok(Outcome {
        attempted: run.tally.attempted,
        failures: run.tally.failures,
        metrics: run.metrics,
        extras: run.extras,
        machine,
    })
}

impl Run<'_> {
    fn all(&mut self, machine: &Fingerprint) -> Result<(), String> {
        let w = &self.cfg.workload;
        for (g, guest) in w.guests.iter().enumerate() {
            let job = self.spans.job();
            let open = self.spans.open("oracle", job);
            let oracle = guest.run_native(ClockMode::Real);
            self.spans.close(open);
            self.tally.job(guest.check(&oracle, &oracle));
            self.oracles.push(oracle);
            let code = self.runner.prepare(&self.wasms[g], Tier::Max).map_err(|e| e.to_string())?;
            self.compiled.push(code.0);
        }

        self.measure(&machine.cpus);
        if self.cfg.trace {
            self.layer_probe();
            self.traced_jobs()?;
            self.jit_twins();
            self.virtual_runs();
        }
        self.metrics.insert("cache.hits", self.cache.hits() as f64);
        self.metrics.insert("cache.misses", self.cache.misses() as f64);
        let rss = machine::peak_rss_mib().ok_or("cannot read VmHWM")?;
        self.metrics.insert("peak_rss_mb", rss);
        self.metrics.insert("machine.nproc", machine.cpus.len() as f64);
        self.metrics.insert("machine.native_hpcg_s", machine.native_hpcg_s);
        let failed = self.tally.failures.len() as f64;
        self.metrics.insert("fail_ratio", failed / self.tally.attempted.max(1) as f64);
        self.write_files(machine)
    }

    /// Executable code for module `g`: compiled from its Wasm bytes by
    /// `Runner::prepare` without a cache (cold), or loaded from the
    /// populated module cache (warm).
    fn prepare(&mut self, g: usize, warm: bool) -> Result<CompiledModule, String> {
        let wasm = &self.wasms[g];
        if !warm {
            return self
                .runner
                .prepare(wasm, Tier::Max)
                .map(|(code, _)| code)
                .map_err(|e| e.to_string());
        }
        match self.cache.get_or_compile(wasm, Tier::Max)? {
            (code, true) => Ok(code),
            (_, false) => Err(format!(
                "{}: warm set-up missed the module cache",
                self.cfg.workload.guests[g].name()
            )),
        }
    }

    /// One set-up sample over every module of the workload: cold or warm
    /// `prepare`, then one `Linker::instantiate` on the runner's linker.
    fn setup_sample(&mut self, warm: bool) -> f64 {
        let job = self.spans.job();
        let sample = self.spans.open(if warm { "setup.warm" } else { "setup.cold" }, job);
        let t0 = Instant::now();
        // Instances and code are dropped after the stopwatch stops.
        let mut keep = Vec::new();
        for g in 0..self.wasms.len() {
            let open = self.spans.open("prepare", job);
            let prepared = self.prepare(g, warm);
            self.spans.close(open);
            let Some(code) = self.tally.ok(prepared) else {
                continue;
            };
            let open = self.spans.open("instantiate", job);
            let inst = self.runner.linker_mut().instantiate(&code, Box::new(()));
            self.spans.close(open);
            if let Some(inst) = self.tally.ok(inst.map_err(|e| format!("instantiate: {e}"))) {
                keep.push((code, inst));
            }
        }
        let s = t0.elapsed().as_secs_f64();
        self.spans.close_with(sample, Some(s));
        drop(keep);
        s
    }

    /// The closed loop: each op starts when the previous one has finished,
    /// until `--seconds` have passed. Every op also takes cold and warm
    /// set-up samples, so set-up is sampled across the whole run.
    fn measure(&mut self, cpus: &[usize]) {
        let w = &self.cfg.workload;
        let n = w.guests.len();
        for g in 0..n {
            // Populate the cache, then let lazy state settle untimed.
            self.tally.ok(self.cache.get_or_compile(&self.wasms[g], Tier::Max));
        }
        self.setup_sample(false);
        self.setup_sample(true);

        let mut rng = SplitMix64::new(self.cfg.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let (mut op_wall, mut op_launch) = (Vec::new(), Vec::new());
        let (mut setup_cold, mut setup_warm) = (Vec::new(), Vec::new());
        let mut ratios = vec![Vec::new(); n];
        let budget = Duration::from_secs_f64(self.cfg.seconds);
        // The traced probes after the loop keep a quarter of the spans.
        self.spans.limit(CAPACITY / 4 * 3);
        let ticks0 = machine::cpu_ticks(cpus);
        let start = Instant::now();
        let mut op = 0;
        while op < MIN_OPS || start.elapsed() < budget {
            // Every op runs each guest once, in a seeded order.
            shuffle(&mut order, &mut rng);
            let native_first = rng.next_u64() % 2 == 1;
            let warm = (op as u64 + self.cfg.seed) % 2 == 1;
            let job = self.spans.job();
            let open = self.spans.open("op", job);
            let (mut wall, mut kernel, mut ok) = (0.0, 0.0, true);
            for g in order.clone() {
                let guest = &w.guests[g];
                let mut natives = if native_first { self.native_twins(g, job) } else { Vec::new() };
                let launched;
                let code = if w.launch {
                    let open =
                        self.spans.open(if warm { "prepare.warm" } else { "prepare.cold" }, job);
                    let prepared = self.prepare(g, warm);
                    self.spans.close(open);
                    match prepared {
                        Ok(code) => {
                            launched = code;
                            &launched
                        }
                        Err(e) => {
                            // The launch failed: one job attempted, none run.
                            self.tally.job(Err::<(), _>(e));
                            ok = false;
                            continue;
                        }
                    }
                } else {
                    &self.compiled[g]
                };
                let span = self.spans.open(guest.name(), job);
                let (result, secs) =
                    guest_job(&self.runner, code, guest, &self.oracles[g], job_config());
                self.spans.close_with(span, Some(secs));
                let guest_k = self.tally.job(result).map(|(reports, _)| guest.kernel(&reports));
                if !native_first {
                    natives = self.native_twins(g, job);
                }
                let Some(k) = guest_k else {
                    ok = false;
                    continue;
                };
                kernel += guest.kernel_s(&k);
                wall += secs;
                // Guest ÷ native per component (IMB: per size), against the
                // median of this op's native twins, by geometric mean.
                if !natives.is_empty() {
                    let per: Vec<f64> = (0..k.len())
                        .map(|j| k[j] / median(&natives.iter().map(|nk| nk[j]).collect::<Vec<_>>()))
                        .collect();
                    ratios[g].push(geomean(&per));
                }
                self.guest_kernel[g].push(k);
                self.guest_wall[g].push(secs);
            }
            self.spans.close(open);
            if ok {
                op_wall.push(wall);
                op_launch.push(wall - kernel);
            }
            for i in 0..w.setup_pairs {
                for warm_first in [i % 2 == op % 2, i % 2 != op % 2] {
                    let s = self.setup_sample(warm_first);
                    if warm_first { &mut setup_warm } else { &mut setup_cold }.push(s);
                }
            }
            op += 1;
        }

        self.spans.limit(CAPACITY);
        // Share of the loop's time the host ran something else on our CPUs.
        if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, machine::cpu_ticks(cpus)) {
            let steal = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
            self.metrics.insert("machine.steal_pct", steal);
        }
        let (mut guest_s, mut native_s) = (0.0, 0.0);
        for (g, guest) in w.guests.iter().enumerate() {
            let kernel_s = |samples: &[Vec<f64>]| {
                median(&samples.iter().map(|k| guest.kernel_s(k)).collect::<Vec<_>>())
            };
            guest_s += kernel_s(&self.guest_kernel[g]);
            native_s += kernel_s(&self.native_kernel[g]);
        }
        let per_guest: Vec<f64> = ratios.iter().map(|r| median(r)).collect();
        let (tail_s, tail_pct) = tail(&op_wall);
        let m = &mut self.metrics;
        m.insert("run_s", median(&op_wall));
        m.insert("setup_s", median(&setup_cold));
        m.insert("setup_warm_s", median(&setup_warm));
        m.insert("wasm_native_ratio", geomean(&per_guest));
        m.insert("runner.launch_s", median(&op_launch));
        m.insert("run.tail_s", tail_s);
        m.insert("run.tail_pct", tail_pct);
        m.insert("run.samples", op_wall.len() as f64);
        m.insert("guest.kernel_s", guest_s);
        m.insert("native.kernel_s", native_s);
        self.kernel_extras();
    }

    /// Native twins of guest `g` for one op; returns their kernel
    /// components.
    fn native_twins(&mut self, g: usize, job: u64) -> Vec<Vec<f64>> {
        let guest = &self.cfg.workload.guests[g];
        let mut out = Vec::new();
        for _ in 0..self.cfg.workload.native_reps {
            let open = self.spans.open("native", job);
            let reports = guest.run_native(ClockMode::Real);
            self.spans.close(open);
            if self.tally.job(guest.check(&reports, &self.oracles[g])).is_some() {
                out.push(guest.kernel(&reports));
            }
        }
        self.native_kernel[g].extend(out.iter().cloned());
        out
    }

    /// Workload-specific extras: computed kernel work and IMB per-size
    /// latencies.
    fn kernel_extras(&mut self) {
        let w = &self.cfg.workload;
        for (g, guest) in w.guests.iter().enumerate() {
            let samples = &self.guest_kernel[g];
            let kernel_s = median(&samples.iter().map(|k| guest.kernel_s(k)).collect::<Vec<_>>());
            match guest {
                Guest::Hpcg(p) if !w.launch => {
                    let flops = p.flops_per_iter() * p.iters as f64 * NP as f64;
                    let bytes = p.bytes_per_iter() * p.iters as f64 * NP as f64;
                    self.extras.push(("kernel.flops".into(), flops, "flop"));
                    self.extras.push(("kernel.bytes".into(), bytes, "bytes"));
                    self.extras.push(("kernel.gflops".into(), flops / kernel_s / 1e9, "GFLOP/s"));
                }
                Guest::Is(p) if !w.launch => {
                    let keys = p.keys_per_rank as f64 * NP as f64 * p.iters as f64;
                    self.extras.push(("kernel.keys".into(), keys, "count"));
                    self.extras.push(("kernel.mkeys_per_s".into(), keys / kernel_s / 1e6, "1e6/s"));
                }
                Guest::Imb(routine, sweep) if !w.launch => {
                    let name =
                        if *routine == ImbRoutine::PingPong { "pingpong" } else { "allreduce" };
                    for (j, &(bytes, _)) in sweep.iter().enumerate() {
                        if ![8, 4096, 65536, 1 << 20].contains(&bytes) {
                            continue;
                        }
                        for (side, samples) in
                            [("", &self.guest_kernel[g]), ("native.", &self.native_kernel[g])]
                        {
                            let us = median(&samples.iter().map(|k| k[j]).collect::<Vec<_>>());
                            self.extras.push((format!("imb.{side}{name}_us.{bytes}"), us, "us"));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Each layer of set-up timed on its own: decode, validate, compile at
    /// every tier, cache store and load, instantiate. Medians over
    /// `LAYER_REPS`, summed over the workload's modules.
    fn layer_probe(&mut self) {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut code_bytes, mut artifact_bytes) = (0.0, 0.0);
        for g in 0..self.wasms.len() {
            let wasm = self.wasms[g].clone();
            let mut samples = BTreeMap::new();
            for _ in 0..LAYER_REPS {
                let job = self.spans.job();
                let spans = &mut self.spans;
                let Some(module) =
                    self.tally
                        .ok(timed(spans, "decode.s", job, &mut samples, || decode_module(&wasm))
                            .map_err(|e| e.to_string()))
                else {
                    break;
                };
                let valid =
                    timed(spans, "validate.s", job, &mut samples, || validate_module(&module));
                self.tally.ok(valid.map_err(|e| e.to_string()));
                let mut max = None;
                for (name, tier) in [
                    ("compile.baseline_s", Tier::Baseline),
                    ("compile.optimizing_s", Tier::Optimizing),
                    ("compile.s", Tier::Max),
                    ("compile.maxjit_s", Tier::MaxJit),
                ] {
                    let m = module.clone();
                    let code =
                        timed(spans, name, job, &mut samples, || CompiledModule::compile(m, tier));
                    if let (Some(code), Tier::Max) =
                        (self.tally.ok(code.map_err(|e| e.to_string())), tier)
                    {
                        max = Some(code);
                    }
                }
                let Some(max) = max else { break };
                code_bytes = max.code_size() as f64;
                let artifact = timed(spans, "cache.store_s", job, &mut samples, || {
                    store_artifact(&wasm, &max)
                });
                let loaded =
                    timed(spans, "cache.load_s", job, &mut samples, || load_artifact(&artifact));
                self.tally.ok(loaded.map(|_| ()));
                let linker = self.runner.linker_mut();
                let inst = timed(spans, "instantiate.s", job, &mut samples, || {
                    linker.instantiate(&max, Box::new(())).map_err(|e| format!("instantiate: {e}"))
                });
                self.tally.ok(inst.map(drop));
            }
            for (name, v) in &samples {
                *sums.entry(name).or_default() += median(v);
            }
            *sums.entry("compile.code_bytes").or_default() += code_bytes;
            artifact_bytes += self.cache.artifact_size(&wasm, Tier::Max).unwrap_or(0) as f64;
        }
        sums.insert("decode.bytes", self.wasms.iter().map(|w| w.len() as f64).sum());
        sums.insert("cache.artifact_bytes", artifact_bytes);
        self.metrics.extend(sums);
    }

    /// One job per guest with a flight recorder attached and translation
    /// instrumented; its Perfetto export lands in the output directory.
    fn traced_jobs(&mut self) -> Result<(), String> {
        let w = &self.cfg.workload;
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        let (mut traced_wall, mut plain_wall, mut translate_ns) = (0.0, 0.0, 0.0);
        for (g, guest) in w.guests.iter().enumerate() {
            let rec = Recorder::new(NP as usize, TRACE_CAPACITY, TraceClock::Real);
            let config =
                JobConfig { recorder: Some(rec.clone()), instrument: true, ..job_config() };
            let job = self.spans.job();
            let open = self.spans.open("traced", job);
            let (result, secs) =
                guest_job(&self.runner, &self.compiled[g], guest, &self.oracles[g], config);
            self.spans.close_with(open, Some(secs));
            traced_wall += secs;
            plain_wall += median(&self.guest_wall[g]);
            if let Some((_, job)) = self.tally.job(result) {
                let stats = job.merged_stats();
                *sums.entry("translate.calls").or_default() += stats.total_samples() as f64;
                translate_ns += stats.cells.iter().flatten().map(|(ns, _)| ns).sum::<f64>();
            }
            let m = rec.metrics();
            for name in MPI_COUNTERS.into_iter().chain(["trace.events", "trace.dropped_events"]) {
                *sums.entry(name).or_default() += m.get(name).unwrap_or(0) as f64;
            }
            let mut coll_us: f64 = 0.0;
            for rank in 0..NP as usize {
                let mut begun = HashMap::new();
                let mut rank_coll_us = 0.0;
                for ev in rec.rank_events(rank) {
                    match ev.kind {
                        EventKind::SendStart { .. } => {
                            *sums.entry("mpi.p2p_messages").or_default() += 1.0
                        }
                        EventKind::CollBegin { id, .. } => {
                            *sums.entry("mpi.coll_calls").or_default() += 1.0;
                            begun.insert(id, ev.ts_us);
                        }
                        EventKind::CollEnd { id, .. } => {
                            rank_coll_us += begun.remove(&id).map_or(0.0, |t0| ev.ts_us - t0);
                        }
                        _ => {}
                    }
                }
                coll_us = coll_us.max(rank_coll_us);
            }
            *sums.entry("mpi.coll_s").or_default() += coll_us / 1e6;
            let path = self.dir.join(format!("perfetto-{}.json", guest.name()));
            let file =
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            obs::write_chrome_trace(&rec, &mut out)
                .and_then(|_| out.flush())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let calls = sums.get("translate.calls").copied().unwrap_or(0.0);
        sums.insert("translate.mean_ns", if calls > 0.0 { translate_ns / calls } else { 0.0 });
        sums.insert("trace.overhead_ratio", traced_wall / plain_wall);
        for name in ["mpi.p2p_messages", "mpi.coll_calls"] {
            sums.entry(name).or_default();
        }
        self.metrics.extend(sums);
        Ok(())
    }

    /// Each guest once more at max+jit with the JIT profiling counters on.
    fn jit_twins(&mut self) {
        let w = &self.cfg.workload;
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (g, guest) in w.guests.iter().enumerate() {
            let code = decode_module(&self.wasms[g])
                .map_err(|e| e.to_string())
                .and_then(|m| CompiledModule::compile(m, Tier::MaxJit).map_err(|e| e.to_string()));
            let Some(code) = self.tally.ok(code) else {
                continue;
            };
            code.set_jit_profiling(true);
            let job = self.spans.job();
            let open = self.spans.open("jit", job);
            let (result, secs) =
                guest_job(&self.runner, &code, guest, &self.oracles[g], job_config());
            self.spans.close_with(open, Some(secs));
            self.tally.job(result);
            for (name, v) in code.jit_snapshot().map(|s| s.metric_entries()).into_iter().flatten() {
                *sums.entry(name).or_default() += v as f64;
            }
        }
        self.metrics.extend(sums);
    }

    /// Two runs of each job under the virtual clock: the simulated time
    /// and how far the two runs disagree.
    fn virtual_runs(&mut self) {
        let w = &self.cfg.workload;
        let clock = ClockMode::Virtual(CostModel::native(SystemProfile::supermuc_ng()));
        let (mut first, mut spread) = (0.0, 0.0);
        for (g, guest) in w.guests.iter().enumerate() {
            let mut v = [f64::NAN; 2];
            for slot in &mut v {
                let job = self.spans.job();
                let open = self.spans.open("virtual", job);
                let config = JobConfig { clock: clock.clone(), ..job_config() };
                let (result, secs) =
                    guest_job(&self.runner, &self.compiled[g], guest, &self.oracles[g], config);
                self.spans.close_with(open, Some(secs));
                if let Some((_, job)) = self.tally.job(result) {
                    *slot = job.max_virtual_time_us();
                }
            }
            first += v[0];
            spread += (v[0] - v[1]).abs();
        }
        self.metrics.insert("virtual_us", first);
        self.metrics.insert("virtual.spread_us", spread);
    }

    /// `result.json` always; `spans.json` when traced.
    fn write_files(&self, machine: &Fingerprint) -> Result<(), String> {
        use crate::json::{metric, num, quote};
        let dir = &self.dir;
        let write = |path: &Path, text: &str| {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        if self.cfg.trace {
            write(&dir.join("spans.json"), &self.spans.to_json())?;
        }
        let declared = self.metrics.iter().map(|(name, v)| {
            metric(name, *v, crate::metrics::unit_of(name).expect("declared metric"))
        });
        let extras = self.extras.iter().map(|(name, v, unit)| metric(name, *v, unit));
        let metrics: Vec<String> = declared.chain(extras).collect();
        let failures: Vec<String> = self.tally.failures.iter().map(|f| quote(f)).collect();
        let text = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {},\n \"machine\": {{\"nproc\": {}, \"cpus\": [{}], \"cpu_model\": {}, \"native_hpcg_s\": {}}},\n \"attempted\": {}, \"failures\": [{}],\n \"metrics\": {{\n  {}\n }}}}\n",
            quote(self.cfg.workload.name),
            self.cfg.seed,
            num(self.cfg.seconds),
            self.cfg.trace,
            machine.cpus.len(),
            machine.cpus.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", "),
            quote(&machine.cpu_model),
            num(machine.native_hpcg_s),
            self.tally.attempted,
            failures.join(", "),
            metrics.join(",\n  "),
        );
        write(&dir.join("result.json"), &text)
    }
}
