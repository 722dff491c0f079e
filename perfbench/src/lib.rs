//! End-to-end and per-layer benchmark of the MPIWasm stack.
//!
//! The binary (`src/main.rs`) runs one workload for a fixed time and prints
//! every metric by name with its unit; see README.md for the workloads,
//! the metrics and how they map onto the stack's layers.

pub mod bench;
pub mod guests;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workload;
