//! # `flash-sim` — simulation engine and experiment presets
//!
//! Drives a host trace ([`flash_trace`]) into a translation layer
//! ([`ftl`] or [`nftl`], optionally wearing the [`swl_core`] leveler) on a
//! simulated chip ([`nand`]), and measures what the paper measures:
//!
//! - **first failure time** — host years until any block exceeds its
//!   endurance (Figure 5);
//! - **erase-count distribution** — average / standard deviation / maximum
//!   per-block erase counts (Table 4);
//! - **extra overheads** — increased ratios of block erases and live-page
//!   copyings of a `+SWL` run over its baseline (Figures 6 and 7).
//!
//! The [`experiments`] module packages the full parameter sweeps behind the
//! paper's figures; the `flash-bench` crate prints them as tables.
//!
//! ## Example
//!
//! ```
//! use flash_sim::{Layer, LayerKind, SimConfig, Simulator, StopCondition, TranslationLayer};
//! use flash_trace::{SyntheticTrace, WorkloadSpec};
//! use nand::{CellKind, Geometry, NandDevice};
//!
//! # fn main() -> Result<(), flash_sim::SimError> {
//! let device = NandDevice::new(
//!     Geometry::new(64, 16, 2048),
//!     CellKind::Mlc2.spec().with_endurance(2_000),
//! );
//! let mut layer = Layer::build(LayerKind::Ftl, device, None, &SimConfig::default())?;
//! let trace = SyntheticTrace::new(WorkloadSpec::paper(layer.logical_pages()).with_seed(1));
//!
//! let report = Simulator::new().run(&mut layer, trace, StopCondition::events(20_000))?;
//! assert_eq!(report.events, 20_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
mod error;
pub mod experiments;
mod latency;
mod layer;
pub mod parallel;
mod report;
pub mod sched;
pub mod service;
mod simulator;
mod striped;

pub use engine::{Engine, EngineConfig, EngineMetricsHandle, EngineRun};
pub use error::SimError;
pub use latency::LatencyStats;
pub use layer::{Layer, LayerCounters, LayerKind, SimConfig, SnapshotVerb, TranslationLayer};
pub use report::{FirstFailure, SimReport};
pub use sched::ChannelScheduler;
pub use service::{Service, ServiceClient, ServiceConfig, ServiceRun, ServiceServer};
pub use simulator::{Simulator, StopCondition};
pub use striped::{StripedLayer, StripedReport, SwlCoordination};
