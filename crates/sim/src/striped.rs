//! Multi-channel striped layer and its trace-driven run loop.
//!
//! A [`StripedLayer`] owns one translation layer per channel of a
//! [`ChannelGeometry`] and stripes host pages round-robin across them
//! (`channel = lba % C`, lane page `lba / C`). Every lane emits into one
//! shared telemetry stream ([`SharedSink`]), with [`Event::Channel`] markers
//! interleaved whenever the active lane changes — at `channels = 1` no
//! marker is ever emitted and the stream is byte-identical to a plain
//! single-chip run.
//!
//! Static wear leveling runs in one of two modes ([`SwlCoordination`]):
//! per-channel (each lane's leveler triggers on its own local unevenness,
//! exactly as a standalone layer would) or global (lanes are *deferred*
//! shards that only feed SWL-BETUpdate; the striped layer watches the
//! global unevenness `Σecnt / Σfcnt` and drives one
//! [`Layer::run_swl_step`] on the worst shard at a time until the global
//! level is back under `T`).
//!
//! [`Simulator::run_striped`] is the multi-channel analogue of
//! [`Simulator::run`]: identical per-page latency bookkeeping (bit-identical
//! at one channel), plus a virtual-time [`ChannelScheduler`] that overlaps
//! the per-channel busy deltas of each host op and reports op-level
//! latencies, per-channel busy time, and the achieved overlap factor.

use flash_telemetry::{Event, NullSink, SharedSink, Sink};
use flash_trace::{Op, TraceEvent};
use nand::{CellSpec, ChannelGeometry, DeviceCounters, EraseStats, FailureRecord, NandDevice};
use swl_core::{ShardView, StallRule, SwLeveler, SwlConfig};

use crate::error::SimError;
use crate::latency::LatencyStats;
use crate::layer::{Layer, LayerCounters, LayerKind, SimConfig, TranslationLayer};
use crate::report::{FirstFailure, NANOS_PER_YEAR};
use crate::sched::ChannelScheduler;
use crate::simulator::{Simulator, StopCondition};

/// How static wear leveling is driven across the channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwlCoordination {
    /// Each lane's leveler triggers on its own local unevenness, exactly as
    /// a standalone single-channel layer would.
    #[default]
    PerChannel,
    /// Lanes are deferred BET shards; the striped layer triggers on the
    /// global unevenness and steps the worst shard (mediant-inequality
    /// selection, see [`swl_core::shard`]).
    Global,
}

impl SwlCoordination {
    /// Short token for labels.
    pub fn token(self) -> &'static str {
        match self {
            SwlCoordination::PerChannel => "per-channel",
            SwlCoordination::Global => "global",
        }
    }
}

/// A `channels × chips-per-channel` array of translation layers striped
/// over one logical space.
#[derive(Debug)]
pub struct StripedLayer<S: Sink = NullSink> {
    lanes: Vec<Layer<SharedSink<S>>>,
    sink: SharedSink<S>,
    geometry: ChannelGeometry,
    kind: LayerKind,
    coordination: SwlCoordination,
    /// `(T, k)` of the attached levelers, when any.
    swl: Option<(u64, u32)>,
    last_channel: u32,
    logical_pages: u64,
    /// When the Global coordinator steps and when it gives up.
    stall: StallRule,
    /// The coordinator's view of every lane, rebuilt on each call.
    views: Vec<ShardView>,
}

impl StripedLayer<NullSink> {
    /// Builds an uninstrumented striped layer.
    ///
    /// # Errors
    ///
    /// Propagates layer construction failures.
    pub fn build(
        kind: LayerKind,
        geometry: ChannelGeometry,
        spec: CellSpec,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Self::with_sink(kind, geometry, spec, swl, coordination, config, NullSink)
    }
}

impl<S: Sink> StripedLayer<S> {
    /// Builds a striped layer whose lanes all emit into `sink` (one shared,
    /// totally ordered stream). When the sink is enabled, one array-level
    /// [`Event::Meta`] header is emitted covering the whole array; at one
    /// channel it is identical to the header a plain instrumented device
    /// would write.
    ///
    /// With `swl`, every lane gets its own leveler over its lane-local
    /// blocks. Lane 0 keeps the configured seed (so a one-channel striped
    /// leveler is bit-identical to a standalone one); other lanes decorrelate
    /// their reset randomisation with a lane-indexed seed offset. Under
    /// [`SwlCoordination::Global`] with more than one channel, lanes are
    /// built *deferred* and this layer drives them.
    ///
    /// # Errors
    ///
    /// Propagates layer construction failures.
    pub fn with_sink(
        kind: LayerKind,
        geometry: ChannelGeometry,
        spec: CellSpec,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
        config: &SimConfig,
        sink: S,
    ) -> Result<Self, SimError> {
        let mut shared = SharedSink::new(sink);
        if S::ENABLED {
            shared.event(Event::Meta {
                version: flash_telemetry::SCHEMA_VERSION,
                blocks: geometry
                    .total_blocks()
                    .try_into()
                    .expect("array block count exceeds u32"),
                pages_per_block: geometry.chip().pages_per_block(),
            });
            shared.event(Event::Endurance {
                limit: spec.endurance as u64,
            });
        }
        let channels = geometry.channels();
        let deferred = channels > 1 && coordination == SwlCoordination::Global;
        let mut lanes = Vec::with_capacity(channels as usize);
        for lane in 0..channels {
            let device =
                NandDevice::new(geometry.lane_geometry(), spec).with_sink_silent(shared.clone());
            let lane_swl = swl.map(|base| lane_swl_config(base, lane, deferred));
            lanes.push(Layer::build(kind, device, lane_swl, config)?);
        }
        let logical_pages = lanes[0].logical_pages() * u64::from(channels);
        Ok(Self {
            lanes,
            sink: shared,
            geometry,
            kind,
            coordination,
            swl: swl.map(|s| (s.threshold, s.k)),
            last_channel: 0,
            logical_pages,
            stall: StallRule::new(channels as usize),
            views: Vec::with_capacity(channels as usize),
        })
    }

    /// Array shape.
    pub fn geometry(&self) -> ChannelGeometry {
        self.geometry
    }

    /// Which translation layer runs on each lane.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// SWL coordination mode.
    pub fn coordination(&self) -> SwlCoordination {
        self.coordination
    }

    /// `(T, k)` of the attached levelers, when any.
    pub fn swl(&self) -> Option<(u64, u32)> {
        self.swl
    }

    /// Exported logical capacity in pages (striped over all channels).
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// One lane's layer.
    pub fn lane(&self, channel: u32) -> &Layer<SharedSink<S>> {
        &self.lanes[channel as usize]
    }

    /// All lanes, in channel order.
    pub fn lanes(&self) -> &[Layer<SharedSink<S>>] {
        &self.lanes
    }

    /// Marks `channel` as the active lane in the telemetry stream. No-op
    /// when the lane is already active (so one-channel streams carry no
    /// markers at all).
    fn mark_channel(&mut self, channel: u32) {
        if S::ENABLED && channel != self.last_channel {
            self.sink.event(Event::Channel { id: channel });
            self.last_channel = channel;
        }
    }

    /// Writes one logical page, routing it to its stripe lane, then (in
    /// global coordination) levels shards while the global unevenness is
    /// over threshold.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range addresses and propagates lane failures.
    pub fn write(&mut self, lba: u64, data: u64) -> Result<(), SimError> {
        if lba >= self.logical_pages {
            return Err(SimError::TraceOutOfRange {
                lba,
                logical_pages: self.logical_pages,
            });
        }
        let channel = self.geometry.channel_of(lba);
        let lane_lba = self.geometry.lane_lba(lba);
        self.mark_channel(channel);
        self.lanes[channel as usize].write(lane_lba, data)?;
        self.coordinate_swl()
    }

    /// Reads one logical page from its stripe lane.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range addresses and propagates lane failures.
    pub fn read(&mut self, lba: u64) -> Result<Option<u64>, SimError> {
        if lba >= self.logical_pages {
            return Err(SimError::TraceOutOfRange {
                lba,
                logical_pages: self.logical_pages,
            });
        }
        let channel = self.geometry.channel_of(lba);
        let lane_lba = self.geometry.lane_lba(lba);
        self.mark_channel(channel);
        self.lanes[channel as usize].read(lane_lba)
    }

    /// The global-coordination loop: while [`StallRule::next_step`] names a
    /// shard — `Σecnt / Σfcnt ≥ T` and the worst shard is not known to be
    /// stalled — run one SWL-Procedure step on it. Terminates because each
    /// step either erases (growing `fcnt` faster than the threshold for a
    /// stable `T > 2^k`), resets a full shard interval (dropping its counters
    /// to zero), or makes no progress at all — and the rule ends the pass
    /// after a lap of the shard's clear flags without progress.
    fn coordinate_swl(&mut self) -> Result<(), SimError> {
        if self.coordination != SwlCoordination::Global || self.geometry.channels() <= 1 {
            return Ok(());
        }
        let Some((threshold, _)) = self.swl else {
            return Ok(());
        };
        let view = |l: &Layer<SharedSink<S>>| l.swl().map(ShardView::of).unwrap_or_default();
        self.views.clear();
        self.views.extend(self.lanes.iter().map(view));
        while let Some(worst) = self.stall.next_step(&self.views, threshold) {
            let before = self.views[worst];
            self.mark_channel(worst as u32);
            self.lanes[worst].run_swl_step()?;
            let swl = self.lanes[worst]
                .swl()
                .expect("a shard with set flags has a leveler");
            self.views[worst] = ShardView::of(swl);
            let flags = swl.bet().flags() as u64;
            if !self.stall.stepped(worst, before, self.views[worst], flags) {
                break;
            }
        }
        Ok(())
    }

    /// Attaches (or replaces) lane `channel`'s SW Leveler — e.g. one
    /// restored from a persistence snapshot after [`StripedLayer::mount`].
    pub fn attach_swl(&mut self, channel: u32, swl: SwLeveler) {
        let config = swl.config();
        self.swl = Some((config.threshold, config.k));
        self.lanes[channel as usize].attach_swl(swl);
        // A stall seen on the leveler this one replaces says nothing about it.
        self.stall = StallRule::new(self.lanes.len());
    }

    /// Shuts every lane down, returning the chips in channel order (each
    /// still carrying its shared sink handle) — pair with
    /// [`StripedLayer::mount`] to simulate power cycles.
    pub fn into_devices(self) -> Vec<NandDevice<SharedSink<S>>> {
        self.lanes.into_iter().map(Layer::into_device).collect()
    }

    /// Re-attaches previously used chips through the layers' firmware mount
    /// paths (the multi-channel analogue of [`Layer::mount`]). `devices`
    /// must come from [`StripedLayer::into_devices`] with the same
    /// `geometry`, in channel order. No levelers are attached; recovered
    /// ones can be re-attached per lane with [`StripedLayer::attach_swl`].
    ///
    /// # Errors
    ///
    /// Propagates mount failures.
    ///
    /// # Panics
    ///
    /// Panics when `devices` does not have one device per channel.
    pub fn mount(
        kind: LayerKind,
        geometry: ChannelGeometry,
        devices: Vec<NandDevice<SharedSink<S>>>,
        coordination: SwlCoordination,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        assert_eq!(
            devices.len(),
            geometry.channels() as usize,
            "one device per channel"
        );
        let mut devices = devices;
        let sink = devices[0].sink_mut().clone();
        let mut lanes = Vec::with_capacity(devices.len());
        for device in devices.drain(..) {
            lanes.push(Layer::mount(kind, device, config)?);
        }
        let logical_pages = lanes[0].logical_pages() * u64::from(geometry.channels());
        Ok(Self {
            lanes,
            sink,
            geometry,
            kind,
            coordination,
            swl: None,
            last_channel: 0,
            logical_pages,
            stall: StallRule::new(geometry.channels() as usize),
            views: Vec::with_capacity(geometry.channels() as usize),
        })
    }

    /// Shuts the array down and recovers the telemetry sink. All lane
    /// handles are dropped first, so this cannot fail.
    pub fn into_sink(self) -> S {
        let Self { lanes, sink, .. } = self;
        drop(lanes);
        sink.into_inner()
    }
}

/// Everything measured by one [`Simulator::run_striped`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct StripedReport {
    /// Which layer ran on each lane.
    pub layer: LayerKind,
    /// Number of channels.
    pub channels: u32,
    /// Whether SW Levelers were attached, with their `(T, k)` when so.
    pub swl: Option<(u64, u32)>,
    /// SWL coordination mode.
    pub coordination: SwlCoordination,
    /// Trace events processed.
    pub events: u64,
    /// Host time span covered by the processed events.
    pub host_span_ns: u64,
    /// First wear-out on any lane (block in the array-wide flat namespace),
    /// lowest channel winning ties within one event.
    pub first_failure: Option<FirstFailure>,
    /// Per-block erase-count distribution over the whole array.
    pub erase_stats: EraseStats,
    /// Cause-attributed counters summed over lanes.
    pub counters: LayerCounters,
    /// Device operation counters summed over lanes.
    pub device: DeviceCounters,
    /// Total device busy time across lanes.
    pub device_busy_ns: u64,
    /// Virtual time at which the last channel went idle.
    pub makespan_ns: u64,
    /// Busy time per channel, in channel order.
    pub channel_busy_ns: Vec<u64>,
    /// Per-page device-time write latency (one sample per page, as in
    /// [`crate::SimReport`] — bit-identical at one channel).
    pub write_latency: LatencyStats,
    /// Per-page device-time read latency.
    pub read_latency: LatencyStats,
    /// Scheduled latency of each host *write op* (sub-requests overlapped
    /// across channels; the max lane delta, not the sum).
    pub op_write_latency: LatencyStats,
    /// Scheduled latency of each host *read op*.
    pub op_read_latency: LatencyStats,
}

impl StripedReport {
    /// Host span in simulated years.
    pub fn span_years(&self) -> f64 {
        self.host_span_ns as f64 / NANOS_PER_YEAR
    }

    /// Achieved parallelism: total busy time divided by the makespan
    /// (`1.0` = serial, `channels` = perfect overlap). `None` before any
    /// device work.
    pub fn overlap_factor(&self) -> Option<f64> {
        (self.makespan_ns > 0).then(|| {
            let total: u64 = self.channel_busy_ns.iter().sum();
            total as f64 / self.makespan_ns as f64
        })
    }

    /// Short label like `"FTL×4ch+SWL(T=100,k=0,global)"`.
    pub fn label(&self) -> String {
        match self.swl {
            Some((t, k)) => format!(
                "{}×{}ch+SWL(T={t},k={k},{})",
                self.layer,
                self.channels,
                self.coordination.token()
            ),
            None => format!("{}×{}ch", self.layer, self.channels),
        }
    }
}

impl std::fmt::Display for StripedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} events over {:.3} simulated years",
            self.label(),
            self.events,
            self.span_years()
        )?;
        writeln!(f, "  erase counts: {}", self.erase_stats)?;
        match self.overlap_factor() {
            Some(overlap) => writeln!(
                f,
                "  makespan: {} ns, overlap ×{overlap:.2} over {} channels",
                self.makespan_ns, self.channels
            )?,
            None => writeln!(f, "  makespan: 0 ns")?,
        }
        write!(f, "  op write latency: {}", self.op_write_latency)
    }
}

/// The SW Leveler configuration of one lane of an array: lane 0 keeps the
/// caller's seed and every other lane a decorrelated one, and a multi-lane
/// Global array defers leveling to its coordinator.
pub(crate) fn lane_swl_config(base: SwlConfig, lane: u32, deferred: bool) -> SwlConfig {
    let seed = base
        .seed
        .wrapping_add(u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    base.with_seed(seed).with_deferred(deferred)
}

fn sum_counters(lanes: impl Iterator<Item = LayerCounters>) -> LayerCounters {
    let mut total = LayerCounters::default();
    for c in lanes {
        total.host_writes += c.host_writes;
        total.host_reads += c.host_reads;
        total.trims += c.trims;
        total.gc_collections += c.gc_collections;
        total.full_merges += c.full_merges;
        total.gc_merges += c.gc_merges;
        total.swl_merges += c.swl_merges;
        total.gc_erases += c.gc_erases;
        total.swl_erases += c.swl_erases;
        total.gc_live_copies += c.gc_live_copies;
        total.swl_live_copies += c.swl_live_copies;
        total.retired_blocks += c.retired_blocks;
    }
    total
}

/// What a finished array reports about its lanes as a whole: the per-block
/// erase-count distribution, and the layer counters, device counters and
/// device busy time summed over the lanes.
pub(crate) fn lane_totals<S: Sink>(
    lanes: &[Layer<S>],
) -> (EraseStats, LayerCounters, DeviceCounters, u64) {
    let erase_stats = EraseStats::from_counts(lanes.iter().flat_map(|l| l.device().erase_counts()));
    let counters = sum_counters(lanes.iter().map(|l| l.counters()));
    let mut device = DeviceCounters::default();
    let mut device_busy_ns = 0u64;
    for lane in lanes {
        let c = lane.device().counters();
        device.reads += c.reads;
        device.programs += c.programs;
        device.erases += c.erases;
        device_busy_ns += lane.device().busy_ns();
    }
    (erase_stats, counters, device, device_busy_ns)
}

/// The array's first wear-out as of the host op stamped `at_ns`, given each
/// lane's own first failure in channel order: the lowest channel wins ties
/// within one op, and the block is renamed into the array-wide flat namespace.
pub(crate) fn first_failure_of(
    geometry: &ChannelGeometry,
    failures: impl Iterator<Item = Option<FailureRecord>>,
    at_ns: u64,
) -> Option<FirstFailure> {
    let (channel, f) = failures
        .enumerate()
        .find_map(|(channel, f)| Some((channel as u32, f?)))?;
    Some(FirstFailure {
        block: geometry
            .flat_block(channel, f.block)
            .try_into()
            .expect("array block index exceeds u32"),
        host_ns: at_ns,
        total_erases: f.total_erases,
    })
}

impl Simulator {
    /// Feeds `trace` into a striped multi-channel layer until `stop`
    /// triggers or the trace ends — the multi-channel analogue of
    /// [`Simulator::run`].
    ///
    /// Per-page latencies are recorded exactly as in the single-chip loop
    /// (the touched lane's busy delta), so a one-channel striped run
    /// reproduces [`Simulator::run`]'s histograms bit for bit. On top of
    /// that, each host op's per-channel busy deltas are submitted to a
    /// virtual-time [`ChannelScheduler`]: sub-requests on different
    /// channels overlap, the op's scheduled latency is the slowest lane's
    /// delta, and the report carries the makespan, per-channel busy time,
    /// and op-level latency histograms.
    ///
    /// # Errors
    ///
    /// Propagates lane failures and rejects trace events outside the
    /// striped logical space.
    pub fn run_striped<S, I>(
        &mut self,
        striped: &mut StripedLayer<S>,
        trace: I,
        stop: StopCondition,
    ) -> Result<StripedReport, SimError>
    where
        S: Sink,
        I: IntoIterator<Item = TraceEvent>,
    {
        let channels = striped.geometry().channels();
        let mut scheduler = ChannelScheduler::new(channels);
        let mut events = 0u64;
        let mut host_span_ns = 0u64;
        let mut first_failure: Option<FirstFailure> = None;
        let mut write_latency = LatencyStats::new();
        let mut read_latency = LatencyStats::new();
        let mut op_write_latency = LatencyStats::new();
        let mut op_read_latency = LatencyStats::new();
        let mut busy_before = vec![0u64; channels as usize];

        for event in trace {
            if stop.ends_before(&event, events) {
                break;
            }
            events += 1;
            host_span_ns = host_span_ns.max(event.at_ns);

            scheduler.op_begin();
            for (c, before) in busy_before.iter_mut().enumerate() {
                *before = striped.lane(c as u32).device().busy_ns();
            }

            for lba in event.pages() {
                let channel = striped.geometry().channel_of(lba);
                let page_before = striped.lane(channel).device().busy_ns();
                match event.op {
                    Op::Write => {
                        self.next_token += 1;
                        striped.write(lba, self.next_token)?;
                        write_latency
                            .record(striped.lane(channel).device().busy_ns() - page_before);
                    }
                    Op::Read => {
                        let _ = striped.read(lba)?;
                        read_latency.record(striped.lane(channel).device().busy_ns() - page_before);
                    }
                }
            }

            for (c, &before) in busy_before.iter().enumerate() {
                let delta = striped.lane(c as u32).device().busy_ns() - before;
                if delta > 0 {
                    scheduler.submit(c as u32, delta);
                }
            }
            let op_latency = scheduler.op_complete();
            match event.op {
                Op::Write => op_write_latency.record(op_latency),
                Op::Read => op_read_latency.record(op_latency),
            }

            if first_failure.is_none() {
                let failures = striped.lanes().iter().map(|l| l.device().first_failure());
                first_failure = first_failure_of(&striped.geometry(), failures, event.at_ns);
                if first_failure.is_some() && stop.at_first_failure {
                    break;
                }
            }
        }

        let (erase_stats, counters, device, device_busy_ns) = lane_totals(striped.lanes());
        Ok(StripedReport {
            layer: striped.kind(),
            channels,
            swl: striped.swl(),
            coordination: striped.coordination(),
            events,
            host_span_ns,
            first_failure,
            erase_stats,
            counters,
            device,
            device_busy_ns,
            makespan_ns: scheduler.makespan_ns(),
            channel_busy_ns: scheduler.channel_busy_ns().to_vec(),
            write_latency,
            read_latency,
            op_write_latency,
            op_read_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_trace::{SyntheticTrace, TraceEvent, WorkloadSpec};
    use nand::{CellKind, Geometry};

    fn chip() -> Geometry {
        Geometry::new(64, 8, 2048)
    }

    fn spec(endurance: u32) -> CellSpec {
        CellKind::Mlc2.spec().with_endurance(endurance)
    }

    fn striped(
        kind: LayerKind,
        channels: u32,
        swl: Option<SwlConfig>,
        coordination: SwlCoordination,
    ) -> StripedLayer {
        StripedLayer::build(
            kind,
            ChannelGeometry::new(channels, 1, chip()),
            spec(1_000_000),
            swl,
            coordination,
            &SimConfig::default(),
        )
        .unwrap()
    }

    fn trace(logical_pages: u64, seed: u64) -> SyntheticTrace {
        SyntheticTrace::new(WorkloadSpec::paper(logical_pages).with_seed(seed))
    }

    #[test]
    fn striping_round_trips_data() {
        let mut s = striped(LayerKind::Ftl, 4, None, SwlCoordination::PerChannel);
        for lba in 0..64u64 {
            s.write(lba, 7000 + lba).unwrap();
        }
        for lba in 0..64u64 {
            assert_eq!(s.read(lba).unwrap(), Some(7000 + lba));
        }
        // Consecutive pages landed on different lanes.
        for lane in s.lanes() {
            assert!(lane.counters().host_writes == 16);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = striped(LayerKind::Nftl, 2, None, SwlCoordination::PerChannel);
        let lba = s.logical_pages();
        assert!(matches!(
            s.write(lba, 1),
            Err(SimError::TraceOutOfRange { .. })
        ));
        assert!(matches!(s.read(lba), Err(SimError::TraceOutOfRange { .. })));
    }

    #[test]
    fn single_channel_report_matches_plain_simulator() {
        // The C=1 bit-identity anchor: a one-channel striped run must
        // reproduce the plain single-chip run field for field.
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            for swl in [None, Some(SwlConfig::new(100, 0).with_seed(11))] {
                let device = NandDevice::new(chip(), spec(1_000_000));
                let mut plain = Layer::build(kind, device, swl, &SimConfig::default()).unwrap();
                let t = trace(plain.logical_pages(), 5);
                let plain_report = Simulator::new()
                    .run(&mut plain, t, StopCondition::events(8_000))
                    .unwrap();

                let mut s = striped(kind, 1, swl, SwlCoordination::Global);
                let t = trace(s.logical_pages(), 5);
                let striped_report = Simulator::new()
                    .run_striped(&mut s, t, StopCondition::events(8_000))
                    .unwrap();

                assert_eq!(striped_report.events, plain_report.events);
                assert_eq!(striped_report.host_span_ns, plain_report.host_span_ns);
                assert_eq!(striped_report.erase_stats, plain_report.erase_stats);
                assert_eq!(striped_report.counters, plain_report.counters);
                assert_eq!(striped_report.device, plain_report.device);
                assert_eq!(striped_report.device_busy_ns, plain_report.device_busy_ns);
                assert_eq!(striped_report.write_latency, plain_report.write_latency);
                assert_eq!(striped_report.read_latency, plain_report.read_latency);
                assert_eq!(striped_report.first_failure, plain_report.first_failure);
                // One channel: scheduled op time is fully serial.
                assert_eq!(striped_report.makespan_ns, plain_report.device_busy_ns);
                assert_eq!(striped_report.overlap_factor(), Some(1.0));
            }
        }
    }

    #[test]
    fn four_channels_overlap_writes() {
        // Single-page ops touch one lane each, so overlap needs multi-page
        // host requests: widen the page-granular trace to 8-page spans,
        // which stripe across all four channels within one op.
        let mut s = striped(LayerKind::Ftl, 4, None, SwlCoordination::PerChannel);
        let pages = s.logical_pages();
        let t = trace(pages, 9).map(move |e| e.widen(8, pages));
        let report = Simulator::new()
            .run_striped(&mut s, t, StopCondition::events(10_000))
            .unwrap();
        let overlap = report.overlap_factor().unwrap();
        assert!(
            overlap > 1.5,
            "4-channel striping must overlap busy time, got ×{overlap:.2}"
        );
        assert!(report.makespan_ns < report.device_busy_ns);
        // Scheduled op latency beats the serial 8-page sum.
        assert!(report.op_write_latency.mean_ns() < 8.0 * report.write_latency.mean_ns());
        assert_eq!(report.channel_busy_ns.len(), 4);
        assert!(report.channel_busy_ns.iter().all(|&b| b > 0));
    }

    /// Pins every page once (cold data that GC never touches), then hammers
    /// a small hot set: erases concentrate on a few blocks per lane, so
    /// ecnt grows while fcnt stays small and unevenness provably crosses
    /// the threshold in every shard.
    fn hot_cold_trace(logical_pages: u64, rounds: u64) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut at = 0u64;
        // 70% cold fill: leaves the FTL headroom to garbage-collect the
        // hot updates without running out of reclaimable space.
        for lba in 0..logical_pages * 7 / 10 {
            events.push(TraceEvent::write(at, lba));
            at += 1_000;
        }
        for _ in 0..rounds {
            for lba in 0..16u64 {
                events.push(TraceEvent::write(at, lba));
                at += 1_000;
            }
        }
        events
    }

    #[test]
    fn global_coordination_levels_wear() {
        let run = |coordination: SwlCoordination| {
            let mut s = striped(
                LayerKind::Ftl,
                4,
                Some(SwlConfig::new(32, 0).with_seed(3)),
                coordination,
            );
            let t = hot_cold_trace(s.logical_pages(), 1_500);
            Simulator::new()
                .run_striped(&mut s, t, StopCondition::default())
                .unwrap()
        };
        let global = run(SwlCoordination::Global);
        assert!(
            global.counters.swl_erases > 0,
            "global coordination must drive SWL steps"
        );
        // The wear spread stays bounded, as with per-channel SWL.
        let per_channel = run(SwlCoordination::PerChannel);
        assert!(per_channel.counters.swl_erases > 0);
        assert!(global.erase_stats.max <= 2 * per_channel.erase_stats.max.max(1));
    }

    #[test]
    fn run_striped_is_deterministic() {
        let run = || {
            let mut s = striped(
                LayerKind::Nftl,
                4,
                Some(SwlConfig::new(64, 1).with_seed(21)),
                SwlCoordination::Global,
            );
            let t = trace(s.logical_pages(), 17);
            Simulator::new()
                .run_striped(&mut s, t, StopCondition::events(15_000))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn power_cycle_round_trips_through_mount() {
        let geometry = ChannelGeometry::new(2, 1, chip());
        let mut s = StripedLayer::build(
            LayerKind::Ftl,
            geometry,
            spec(1_000_000),
            None,
            SwlCoordination::PerChannel,
            &SimConfig::default(),
        )
        .unwrap();
        for lba in 0..40u64 {
            s.write(lba, 100 + lba).unwrap();
        }
        let devices = s.into_devices();
        let mut s = StripedLayer::mount(
            LayerKind::Ftl,
            geometry,
            devices,
            SwlCoordination::PerChannel,
            &SimConfig::default(),
        )
        .unwrap();
        for lba in 0..40u64 {
            assert_eq!(s.read(lba).unwrap(), Some(100 + lba));
        }
    }
}
