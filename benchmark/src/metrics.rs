//! The metrics the benchmark emits: names, units, directions and, for the
//! end-to-end ones, regression bounds. `BENCHMARK.json` is rendered from
//! these tables; `layerbench check` fails when the file and they disagree.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// A device-model result: with one load-generating thread it repeats
    /// exactly for a seed, so `compare` reports any difference.
    pub exact: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        bound: None,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
        bound: None,
    }
}

impl MetricDef {
    const fn within(self, bound: f64) -> MetricDef {
        MetricDef {
            bound: Some(bound),
            ..self
        }
    }
}

/// The end-to-end metrics, defined on every workload. Each bound is the
/// issue's floor (10 % on the two speed metrics, 5 % on memory, 25 % on
/// set-up) or twice the widest spread seen over ten seeds on any workload,
/// whichever is larger, rounded up to a twentieth and capped at the
/// acceptance contract's 25 % (see the README for the spreads).
pub const END_TO_END: [MetricDef; 7] = [
    timed("setup_s", "s", Better::Lower).within(0.25),
    timed("host_pages_per_s", "1/s", Better::Higher).within(0.25),
    timed("cpu_us_per_page", "us", Better::Lower).within(0.25),
    timed("peak_rss_mb", "MiB", Better::Lower).within(0.1),
    simulated("write_amplification", "ratio", Better::Lower).within(0.05),
    simulated("wear_stddev", "erases", Better::Lower).within(0.25),
    simulated("dev_write_mean_us", "us", Better::Lower).within(0.1),
];

/// The per-layer metrics of the traced run, `<layer>.<metric>`, in ladder
/// order. Layers are this repository's crates and modules.
pub const PER_LAYER: [MetricDef; 81] = [
    // Single-chip ladder: the op sequence of `paper_ftl` (NFTL rung:
    // `paper_nftl`'s) replayed one boundary at a time.
    timed("trace.ns_per_event", "ns", Better::Lower),
    timed("nand.ns_per_op", "ns", Better::Lower),
    timed("ftl.ns_per_page", "ns", Better::Lower),
    timed("ftl.allocs_per_kpage", "count", Better::Lower),
    timed("nftl.ns_per_page", "ns", Better::Lower),
    timed("nftl.allocs_per_kpage", "count", Better::Lower),
    timed("layer.ns_per_page", "ns", Better::Lower),
    timed("layer.tax", "ratio", Better::Lower),
    timed("simulator.ns_per_page", "ns", Better::Lower),
    timed("simulator.tax", "ratio", Better::Lower),
    timed("telemetry.aggregator_tax", "ratio", Better::Lower),
    // Micro-rungs.
    timed("core.ns_per_erase", "ns", Better::Lower),
    timed("core.bet_bytes", "B", Better::Lower),
    timed("hotid.ns_per_record", "ns", Better::Lower),
    timed("cache.ns_per_write", "ns", Better::Lower),
    timed("queue.ns_per_crossing", "ns", Better::Lower),
    // Array ladder: the op sequence of `engine_pipelined`.
    timed("striped.ns_per_page", "ns", Better::Lower),
    timed("striped.tax", "ratio", Better::Lower),
    timed("sched.ns_per_page", "ns", Better::Lower),
    timed("sched.tax", "ratio", Better::Lower),
    timed("sched.overlap_factor", "ratio", Better::Higher),
    timed("engine.ns_per_page", "ns", Better::Lower),
    timed("engine.tax", "ratio", Better::Lower),
    timed("engine.allocs_per_op", "count", Better::Lower),
    timed("engine.qd1_ns_per_page", "ns", Better::Lower),
    timed("engine.unpinned_slowdown", "ratio", Better::Lower),
    timed("engine.t2_unpinned_ns_per_page", "ns", Better::Lower),
    timed("engine.busy_frac", "ratio", Better::Higher),
    timed("engine.starved_frac", "ratio", Better::Lower),
    timed("engine.backpressure_frac", "ratio", Better::Lower),
    timed("engine.host_backpressure_frac", "ratio", Better::Lower),
    timed("engine.cmd_queue_high_water", "count", Better::Lower),
    // Upper bounds of the engine's own log₂ latency buckets, hence the unit.
    timed("engine.op_wall_p50_us", "us_log2", Better::Lower),
    timed("engine.op_wall_p99_us", "us_log2", Better::Lower),
    timed("engine.metrics_tax", "ratio", Better::Lower),
    timed("engine.lockstep_ns_per_page", "ns", Better::Lower),
    timed("engine.lockstep_tax", "ratio", Better::Lower),
    // Service ladder: the op sequence of `service_*`.
    timed("service.direct_ns_per_page", "ns", Better::Lower),
    timed("service.direct_tax", "ratio", Better::Lower),
    timed("service.served_ns_per_page", "ns", Better::Lower),
    timed("service.served_tax", "ratio", Better::Lower),
    timed("service.allocs_per_op", "count", Better::Lower),
    timed("service.write_ack_p50_us", "us", Better::Lower),
    timed("service.write_ack_p99_us", "us", Better::Lower),
    timed("service.read_p50_us", "us", Better::Lower),
    timed("service.read_p99_us", "us", Better::Lower),
    timed("service.read_barrier_us", "us", Better::Lower),
    timed("service.flush_p50_us", "us", Better::Lower),
    timed("service.c2_unpinned_ops_per_s", "1/s", Better::Higher),
    timed("service.cached_write_ack_p50_us", "us", Better::Lower),
    timed("service.cached_write_ack_p99_us", "us", Better::Lower),
    timed("service.cached_read_p50_us", "us", Better::Lower),
    timed("service.cached_read_p99_us", "us", Better::Lower),
    simulated("cache.write_hit_rate", "ratio", Better::Higher),
    simulated("cache.read_hit_rate", "ratio", Better::Higher),
    simulated("cache.admitted", "count", Better::Lower),
    simulated("cache.write_through", "count", Better::Lower),
    simulated("cache.evicted", "count", Better::Lower),
    simulated("cache.flushed_pages", "count", Better::Lower),
    simulated("cache.flush_batches", "count", Better::Lower),
    simulated("cache.program_reduction_frac", "ratio", Better::Higher),
    simulated("cache.fits_write_hit_rate", "ratio", Better::Higher),
    // The `ftl_snapshots` writes with and without pinning snapshots.
    simulated("ftl.snapshot_waf_ratio", "ratio", Better::Lower),
    timed("ftl.merge_lbas_per_s", "1/s", Better::Higher),
    // Counts from the final report of the workload named by `--workload`.
    simulated("ftl.gc_erases", "count", Better::Lower),
    simulated("ftl.swl_erases", "count", Better::Lower),
    simulated("ftl.gc_copies", "count", Better::Lower),
    simulated("ftl.swl_copies", "count", Better::Lower),
    simulated("ftl.copies_per_gc_erase", "ratio", Better::Lower),
    simulated("nftl.gc_merges", "count", Better::Lower),
    simulated("nftl.swl_merges", "count", Better::Lower),
    simulated("nftl.full_merges", "count", Better::Lower),
    simulated("nand.programs", "count", Better::Lower),
    simulated("nand.reads", "count", Better::Lower),
    simulated("nand.erases", "count", Better::Lower),
    simulated("nand.busy_s", "sim_s", Better::Lower),
    simulated("nand.dev_write_p999_us", "sim_us", Better::Lower),
    // The paper's figures, on the workloads that run to first failure.
    simulated("swl.first_failure_kpages", "kpages", Better::Higher),
    simulated("swl.lifetime_gain", "ratio", Better::Higher),
    simulated("swl.erase_overhead_pct", "%", Better::Lower),
    // Traced against untraced time of the served rung.
    timed("bench.trace_overhead_pct", "%", Better::Lower),
];

/// Whether `name` is made only of the characters a metric or workload name
/// may hold, starts with a letter or digit and is at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("engine.tax"));
        assert!(valid_name("p99-us_2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
