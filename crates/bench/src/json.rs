//! [`flash_telemetry::json`] under its old path, for one reason:
//! `benchmark/` imports `flash_bench::json::{object, parse_flat, JsonScalar}`
//! and is not edited. Code in this workspace names the telemetry module.

pub use flash_telemetry::json::{object, parse_flat, JsonScalar};
