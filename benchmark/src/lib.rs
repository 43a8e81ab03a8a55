//! `layerbench`: one pinned, verified benchmark of the whole stack. See the
//! README beside this package.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod host;
pub mod ladder;
pub mod metrics;
pub mod ops;
pub mod records;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
