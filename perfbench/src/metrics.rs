//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! names the same metrics; the self-test holds the two lists together.

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("setup_warm_s", "s"),
    ("wasm_native_ratio", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Printed by traced runs (`--trace 1`), on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decode.s", "s"),
    ("decode.bytes", "bytes"),
    ("validate.s", "s"),
    ("compile.s", "s"),
    ("compile.code_bytes", "bytes"),
    ("compile.baseline_s", "s"),
    ("compile.optimizing_s", "s"),
    ("compile.maxjit_s", "s"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.artifact_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("instantiate.s", "s"),
    ("runner.launch_s", "s"),
    ("run.tail_s", "s"),
    ("run.tail_pct", "%"),
    ("run.samples", "count"),
    ("guest.kernel_s", "s"),
    ("native.kernel_s", "s"),
    ("jit.promotions", "count"),
    ("jit.chains_entered", "count"),
    ("jit.guard_exits", "count"),
    ("jit.fallback_steps", "count"),
    ("translate.calls", "count"),
    ("translate.mean_ns", "ns"),
    ("mpi.eager_messages", "count"),
    ("mpi.eager_bytes_copied", "bytes"),
    ("mpi.deferred_eager_messages", "count"),
    ("mpi.rendezvous_messages", "count"),
    ("mpi.rendezvous_bytes", "bytes"),
    ("mpi.preposted_matches", "count"),
    ("mpi.p2p_messages", "count"),
    ("mpi.coll_calls", "count"),
    ("mpi.coll_s", "s"),
    ("virtual_us", "us"),
    ("virtual.spread_us", "us"),
    ("trace.overhead_ratio", "x"),
    ("trace.events", "count"),
    ("trace.dropped_events", "count"),
    ("fail_ratio", "ratio"),
    ("machine.nproc", "count"),
    ("machine.native_hpcg_s", "s"),
    ("machine.steal_pct", "%"),
];

/// The declared unit of a metric, if the metric is declared.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}
