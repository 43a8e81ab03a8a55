//! # `flash-trace` — workload model and trace generation
//!
//! The paper evaluates its wear leveler on a one-month disk trace collected
//! from a mobile PC (web surfing, email, movie playback, document editing):
//! 36.62 % of the logical space was ever written, with 1.82 writes/s and
//! 1.97 reads/s on average, and hot data written in bursts. That trace is
//! not public, so this crate provides a **calibrated synthetic equivalent**:
//! every published summary statistic is an explicit knob of
//! [`WorkloadSpec`], and the generated stream is deterministic in the seed.
//!
//! The paper also derives a "virtually unlimited" trace by replaying random
//! 10-minute segments of the base trace forever; [`SegmentResampler`]
//! reproduces that construction.
//!
//! ## Example
//!
//! ```
//! use flash_trace::{Op, SyntheticTrace, WorkloadSpec};
//!
//! let spec = WorkloadSpec::paper(65_536).with_seed(1);
//! let trace = SyntheticTrace::new(spec.clone());
//! let events: Vec<_> = trace.take(1000).collect();
//! assert!(events.iter().any(|e| e.op == Op::Write));
//! assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
//! assert!(events.iter().all(|e| e.lba < spec.logical_pages));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod fat;
mod format;
mod resample;
mod sector;
mod synthetic;
mod zipf;

pub use event::{HostNanos, Op, TraceEvent, NANOS_PER_SEC};
pub use format::{parse_trace, write_trace, ParseTraceError};
pub use resample::SegmentResampler;
pub use sector::{MapTrace, SectorMapper};
pub use synthetic::{FillSequence, SyntheticTrace, WorkloadSpec};
pub use zipf::Zipf;
