//! Mission benchmark for the EECS reproduction.
//!
//! One command runs one workload as a closed loop with one client and
//! prints every end-to-end metric (`--trace 0`, telemetry off) or every
//! per-layer metric (`--trace 1`, spans around the benchmark's calls into
//! each layer plus the program's recording counters). Every mission
//! report is checked bit for bit against a serial run of the same
//! mission. See `README.md` in this directory for the metric map.

pub mod bench;
pub mod check;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workload;
