//! The measurement kit: statistics, spans, seeded inputs, host
//! calibration, names and reporting. Workloads are written against it.

pub mod gen;
pub mod host;
pub mod names;
pub mod report;
pub mod stats;
pub mod trace;
