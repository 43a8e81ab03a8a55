//! Determinism properties of the virtual-time channel scheduler.
//!
//! The striped simulator's reproducibility is checked end to end: a full
//! striped run is a pure function of its configuration, and the fan-out
//! helpers compute the same answer regardless of how many OS threads the
//! sweep runs on.

use flash_sim::{
    parallel, LayerKind, SimConfig, Simulator, StopCondition, StripedLayer, StripedReport,
    SwlCoordination,
};
use flash_trace::{SyntheticTrace, WorkloadSpec};
use nand::{CellKind, CellSpec, ChannelGeometry, Geometry};
use proptest::prelude::*;
use swl_core::SwlConfig;

fn chip() -> Geometry {
    Geometry::new(32, 8, 2048)
}

fn spec() -> CellSpec {
    CellKind::Mlc2.spec().with_endurance(100)
}

/// One full striped simulation — the unit of work the determinism and
/// thread-sweep properties compare.
fn striped_report(channels: u32, seed: u64) -> StripedReport {
    let geometry = ChannelGeometry::new(channels, 1, chip());
    let mut striped = StripedLayer::build(
        LayerKind::Ftl,
        geometry,
        spec(),
        Some(SwlConfig::new(16, 0).with_seed(seed)),
        SwlCoordination::Global,
        &SimConfig::default(),
    )
    .unwrap();
    let pages = striped.logical_pages();
    let trace = SyntheticTrace::new(WorkloadSpec::paper(pages).with_seed(seed))
        .map(move |e| e.widen(4, pages));
    Simulator::new()
        .run_striped(&mut striped, trace, StopCondition::events(2_000))
        .unwrap()
}

proptest! {
    /// A striped run is a pure function of `(channels, seed)`: re-running
    /// the identical configuration reproduces the report bit for bit,
    /// including latency histograms and per-channel busy time.
    #[test]
    fn striped_runs_are_reproducible(pick in any::<u64>(), seed in any::<u64>()) {
        let channels = [1u32, 2, 4][(pick % 3) as usize];
        let first = striped_report(channels, seed);
        let again = striped_report(channels, seed);
        prop_assert_eq!(first, again);
    }
}

/// Thread-count invariance: the fan-out helpers must return results in task
/// order with identical contents whether the sweep runs on one thread or
/// many — `SWL_SWEEP_THREADS` is a throughput knob, never a results knob.
#[test]
fn sweep_report_is_thread_count_invariant() {
    let run = |i: usize| striped_report([1u32, 2, 4][i % 3], 0xBEEF + i as u64);
    let serial = parallel::run_indexed_on(1, 6, run);
    for threads in [2usize, 4, 8] {
        let fanned = parallel::run_indexed_on(threads, 6, run);
        assert_eq!(serial, fanned, "{threads} threads changed the report");
    }
}

/// The environment knob itself: `SWL_SWEEP_THREADS` feeds
/// [`parallel::sweep_threads`], which the default fan-out entry points use.
/// Flipping it must not change what a sweep computes. (This test is the
/// only one in this binary touching the variable, so the mutation cannot
/// race with a concurrent reader.)
#[test]
fn threads_env_does_not_change_results() {
    let sweep = || parallel::run_indexed(4, |i| striped_report(2, 0xABBA + i as u64));
    std::env::set_var(parallel::THREADS_ENV, "1");
    let one = sweep();
    std::env::set_var(parallel::THREADS_ENV, "4");
    let four = sweep();
    std::env::remove_var(parallel::THREADS_ENV);
    let auto = sweep();
    assert_eq!(one, four);
    assert_eq!(one, auto);
}
