//! A unified interface over the two translation layers.

use std::fmt;

use flash_telemetry::{NullSink, Sink};
use ftl::{FtlConfig, PageMappedFtl, PageMapping};
use nand::{FaultPlan, Mapping, NandDevice, SwlHost};
use nftl::{BlockMappedNftl, BlockMapping, NftlConfig};
use swl_core::{LevelOutcome, SwLeveler, SwlConfig};

use crate::error::SimError;

/// Which translation layer to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Page-mapping FTL (fine-grained).
    Ftl,
    /// Block-mapping NFTL (coarse-grained).
    Nftl,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Ftl => f.write_str("FTL"),
            LayerKind::Nftl => f.write_str("NFTL"),
        }
    }
}

/// A device-wide snapshot verb: the one command type every layer above the
/// FTL carries ([`Layer::snapshot`], [`crate::Engine::snapshot`],
/// [`crate::Service::snapshot`], [`crate::ServiceClient::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotVerb {
    /// Create copy-on-write snapshot `id` of the current logical contents.
    Create(u64),
    /// Delete snapshot `id`, releasing the pages only it pinned.
    Delete(u64),
    /// Roll the live image back to snapshot `id` (a writable clone).
    Clone(u64),
    /// Merge snapshot `id` into the live image (streamed begin → steps →
    /// commit) and drop it.
    Merge(u64),
}

/// Shared layer configuration used when building a [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimConfig {
    /// FTL-specific settings.
    pub ftl: FtlConfig,
    /// NFTL-specific settings.
    pub nftl: NftlConfig,
    /// Deterministic fault-injection plan attached to the device at build
    /// time (`None` leaves the chip fault-free; reports are bit-identical
    /// to a build without the field).
    pub fault: Option<FaultPlan>,
}

/// Cause-attributed counters, unified across layers.
///
/// The definition is shared with the translation layers themselves (it is
/// the same [`flash_telemetry::FlashCounters`] both re-export), so a
/// [`crate::SimReport`] carries every field either layer maintains and the
/// telemetry aggregator can reproduce it from a replayed event log.
pub use flash_telemetry::FlashCounters as LayerCounters;

/// Unified view of a translation layer for the simulator.
pub trait TranslationLayer {
    /// Telemetry sink the underlying device is instrumented with
    /// ([`NullSink`] for plain layers).
    type Sink: Sink;

    /// Writes one logical page.
    ///
    /// # Errors
    ///
    /// Propagates layer failures as [`SimError`].
    fn write(&mut self, lba: u64, data: u64) -> Result<(), SimError>;

    /// Reads one logical page (`None` if never written).
    ///
    /// # Errors
    ///
    /// Propagates layer failures as [`SimError`].
    fn read(&mut self, lba: u64) -> Result<Option<u64>, SimError>;

    /// Exported logical capacity in pages.
    fn logical_pages(&self) -> u64;

    /// The underlying simulated chip.
    fn device(&self) -> &NandDevice<Self::Sink>;

    /// Unified counters.
    fn counters(&self) -> LayerCounters;

    /// The attached SW Leveler, if any.
    fn swl(&self) -> Option<&SwLeveler>;

    /// Display name ("FTL" / "NFTL").
    fn kind(&self) -> LayerKind;

    /// Forces recycling of a block range (external wear-leveling hook);
    /// returns the number of blocks erased.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures as [`SimError`].
    fn force_recycle(&mut self, first_block: u32, count: u32) -> Result<u64, SimError>;
}

/// A [`Mapping`] the simulator can name and whose errors it can carry.
pub trait SimMapping: Mapping<Error: Into<SimError>> {
    /// Which of the two layers this mapping is.
    const KIND: LayerKind;
}

impl<S: Sink> SimMapping for PageMapping<S> {
    const KIND: LayerKind = LayerKind::Ftl;
}

impl<S: Sink> SimMapping for BlockMapping<S> {
    const KIND: LayerKind = LayerKind::Nftl;
}

impl<M: SimMapping> TranslationLayer for SwlHost<M> {
    type Sink = M::Sink;

    fn write(&mut self, lba: u64, data: u64) -> Result<(), SimError> {
        SwlHost::write(self, lba, data).map_err(Into::into)
    }

    fn read(&mut self, lba: u64) -> Result<Option<u64>, SimError> {
        SwlHost::read(self, lba).map_err(Into::into)
    }

    fn logical_pages(&self) -> u64 {
        SwlHost::logical_pages(self)
    }

    fn device(&self) -> &NandDevice<M::Sink> {
        SwlHost::device(self)
    }

    fn counters(&self) -> LayerCounters {
        SwlHost::counters(self)
    }

    fn swl(&self) -> Option<&SwLeveler> {
        SwlHost::swl(self)
    }

    fn kind(&self) -> LayerKind {
        M::KIND
    }

    fn force_recycle(&mut self, first_block: u32, count: u32) -> Result<u64, SimError> {
        SwlHost::force_recycle(self, first_block, count).map_err(Into::into)
    }
}

/// Either translation layer, statically dispatched.
// One Layer exists per simulation run, so the size gap between the two
// variants costs nothing; boxing would only add indirection to every op.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Layer<S: Sink = NullSink> {
    /// Page-mapping FTL.
    Ftl(PageMappedFtl<S>),
    /// Block-mapping NFTL.
    Nftl(BlockMappedNftl<S>),
}

/// Runs `$body` on whichever shell the layer holds.
macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Layer::Ftl($inner) => $body,
            Layer::Nftl($inner) => $body,
        }
    };
}

impl<S: Sink> Layer<S> {
    /// Builds a layer of `kind` over `device`, attaching a SW Leveler when
    /// `swl` is given. Instrumented runs pass a device pre-wired with
    /// [`NandDevice::with_sink`]; the sink observes every layer below.
    ///
    /// # Errors
    ///
    /// Propagates layer construction failures.
    pub fn build(
        kind: LayerKind,
        device: NandDevice<S>,
        swl: Option<SwlConfig>,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        let device = match config.fault {
            Some(plan) => device.with_fault_plan(plan),
            None => device,
        };
        Ok(match (kind, swl) {
            (LayerKind::Ftl, None) => Layer::Ftl(PageMappedFtl::new(device, config.ftl)?),
            (LayerKind::Ftl, Some(s)) => {
                Layer::Ftl(PageMappedFtl::with_swl(device, config.ftl, s)?)
            }
            (LayerKind::Nftl, None) => Layer::Nftl(BlockMappedNftl::new(device, config.nftl)?),
            (LayerKind::Nftl, Some(s)) => {
                Layer::Nftl(BlockMappedNftl::with_swl(device, config.nftl, s)?)
            }
        })
    }

    /// Re-attaches a previously used chip through the layers' firmware
    /// mount paths, rebuilding translation state from the spare areas on
    /// flash — pair with [`Layer::into_device`] to simulate power cycles.
    /// No fault plan is applied and no SW Leveler is attached: `config`
    /// supplies only the layer settings, and a leveler recovered from a
    /// [`swl_core::persist::DualBuffer`] snapshot can be re-attached with
    /// [`Layer::attach_swl`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates mount failures (corrupt spare areas, duplicate logical
    /// mappings) as [`SimError`].
    pub fn mount(
        kind: LayerKind,
        device: NandDevice<S>,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(match kind {
            LayerKind::Ftl => Layer::Ftl(PageMappedFtl::mount(device, config.ftl)?),
            LayerKind::Nftl => Layer::Nftl(BlockMappedNftl::mount(device, config.nftl)?),
        })
    }

    /// Shuts the layer down, returning the chip (and the telemetry sink
    /// riding on it — recover it with [`NandDevice::into_sink`]).
    pub fn into_device(self) -> NandDevice<S> {
        delegate!(self, l => l.into_device())
    }

    /// Attaches (or replaces) a pre-built SW Leveler — e.g. one restored
    /// from a persistence snapshot after [`Layer::mount`].
    pub fn attach_swl(&mut self, swl: SwLeveler) {
        delegate!(self, l => l.attach_swl(swl))
    }

    /// Manually invokes SWL-Procedure (e.g. from a timer).
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures as [`SimError`].
    pub fn run_swl(&mut self) -> Result<LevelOutcome, SimError> {
        delegate!(self, l => l.run_swl().map_err(SimError::from))
    }

    /// Runs exactly one SWL-Procedure step, ignoring the local threshold —
    /// the multi-shard coordinator's entry point.
    ///
    /// # Errors
    ///
    /// Propagates reclamation failures as [`SimError`].
    pub fn run_swl_step(&mut self) -> Result<LevelOutcome, SimError> {
        delegate!(self, l => l.run_swl_step().map_err(SimError::from))
    }

    /// Runs a snapshot verb on this layer.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotUnsupported`] on the NFTL; FTL failures
    /// (disabled snapshots, duplicate or unknown id, full manifest, …) as
    /// [`SimError::Ftl`].
    pub fn snapshot(&mut self, verb: SnapshotVerb) -> Result<(), SimError> {
        let Layer::Ftl(l) = self else {
            return Err(SimError::SnapshotUnsupported);
        };
        match verb {
            SnapshotVerb::Create(id) => l.snapshot_create(id),
            SnapshotVerb::Delete(id) => l.snapshot_delete(id),
            SnapshotVerb::Clone(id) => l.snapshot_clone(id),
            SnapshotVerb::Merge(id) => l.merge_offline(id),
        }
        .map_err(SimError::from)
    }
}

impl<S: Sink> TranslationLayer for Layer<S> {
    type Sink = S;

    fn write(&mut self, lba: u64, data: u64) -> Result<(), SimError> {
        delegate!(self, l => TranslationLayer::write(l, lba, data))
    }

    fn read(&mut self, lba: u64) -> Result<Option<u64>, SimError> {
        delegate!(self, l => TranslationLayer::read(l, lba))
    }

    fn logical_pages(&self) -> u64 {
        delegate!(self, l => TranslationLayer::logical_pages(l))
    }

    fn device(&self) -> &NandDevice<S> {
        delegate!(self, l => TranslationLayer::device(l))
    }

    fn counters(&self) -> LayerCounters {
        delegate!(self, l => TranslationLayer::counters(l))
    }

    fn swl(&self) -> Option<&SwLeveler> {
        delegate!(self, l => TranslationLayer::swl(l))
    }

    fn force_recycle(&mut self, first_block: u32, count: u32) -> Result<u64, SimError> {
        delegate!(self, l => TranslationLayer::force_recycle(l, first_block, count))
    }

    fn kind(&self) -> LayerKind {
        delegate!(self, l => TranslationLayer::kind(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand::{CellKind, Geometry};

    fn device() -> NandDevice {
        NandDevice::new(Geometry::new(16, 4, 2048), CellKind::Mlc2.spec())
    }

    #[test]
    fn builds_all_variants() {
        let cfg = SimConfig::default();
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            for swl in [None, Some(SwlConfig::new(100, 0))] {
                let mut layer = Layer::build(kind, device(), swl, &cfg).unwrap();
                assert_eq!(layer.kind(), kind);
                assert_eq!(layer.swl().is_some(), swl.is_some());
                if swl.is_none() {
                    assert_eq!(layer.run_swl().unwrap(), LevelOutcome::Idle);
                }
            }
        }
    }

    #[test]
    fn layer_round_trips_data() {
        let mut layer =
            Layer::build(LayerKind::Nftl, device(), None, &SimConfig::default()).unwrap();
        layer.write(5, 77).unwrap();
        assert_eq!(layer.read(5).unwrap(), Some(77));
        assert_eq!(layer.counters().host_writes, 1);
    }

    #[test]
    fn counters_unify_across_layers() {
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            let mut layer = Layer::build(kind, device(), None, &SimConfig::default()).unwrap();
            for round in 0..30u64 {
                for lba in 0..8u64 {
                    layer.write(lba, round).unwrap();
                }
            }
            let c = layer.counters();
            assert_eq!(c.host_writes, 240);
            assert_eq!(
                c.total_erases(),
                layer.device().counters().erases,
                "{kind}: unified counters must cover device erases"
            );
        }
    }

    #[test]
    fn force_recycle_reports_erases_and_keeps_data() {
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            let mut layer = Layer::build(kind, device(), None, &SimConfig::default()).unwrap();
            for lba in 0..24u64 {
                layer.write(lba, 500 + lba).unwrap();
            }
            let mut recycled = 0u64;
            for b in 0..16u32 {
                recycled += layer.force_recycle(b, 1).unwrap();
            }
            assert!(recycled > 0, "{kind}: forced recycling must erase");
            // The range end saturates instead of overflowing: "from the last
            // block on" is exactly the last block.
            let mut expected = layer.device().erase_counts();
            expected[15] += 1;
            assert_eq!(layer.force_recycle(15, u32::MAX).unwrap(), 1, "{kind}");
            assert_eq!(layer.device().erase_counts(), expected, "{kind}");
            for lba in 0..24u64 {
                assert_eq!(layer.read(lba).unwrap(), Some(500 + lba), "{kind}");
            }
        }
    }

    #[test]
    fn mount_round_trips_data_through_power_cycle() {
        let cfg = SimConfig::default();
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            let mut layer = Layer::build(kind, device(), None, &cfg).unwrap();
            for lba in 0..16u64 {
                layer.write(lba, 900 + lba).unwrap();
            }
            let chip = layer.into_device();
            let mut layer = Layer::mount(kind, chip, &cfg).unwrap();
            for lba in 0..16u64 {
                assert_eq!(layer.read(lba).unwrap(), Some(900 + lba), "{kind}");
            }
        }
    }

    #[test]
    fn fault_plan_reaches_device_through_config() {
        let cfg = SimConfig {
            fault: Some(FaultPlan::new(7).with_program_fail_prob(0.05)),
            ..SimConfig::default()
        };
        for kind in [LayerKind::Ftl, LayerKind::Nftl] {
            let mut layer = Layer::build(kind, device(), None, &cfg).unwrap();
            assert!(layer.device().fault_plan().is_some(), "{kind}");
            for round in 0..40u64 {
                for lba in 0..8u64 {
                    if layer.write(lba, round).is_err() {
                        break;
                    }
                }
            }
            assert!(
                layer.counters().retired_blocks > 0,
                "{kind}: injected program failures must retire blocks"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(LayerKind::Ftl.to_string(), "FTL");
        assert_eq!(LayerKind::Nftl.to_string(), "NFTL");
    }
}
