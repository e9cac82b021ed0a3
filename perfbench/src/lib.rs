//! The stack benchmark for the ctgauss workspace: three workloads timed
//! end to end, and a traced run that times every layer from outside by
//! calling its public functions. See `README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

pub mod bench;
pub mod bulk;
pub mod common;
pub mod cpu;
pub mod falcon;
pub mod layers;
pub mod rpc;
pub mod stats;
pub mod trace;
