//! Paper-shaped CTFL benchmark.
//!
//! Three workloads ([`workload::Workload`]) cover the paper's efficiency
//! claim from data in to scores out: the Fig. 5 pipeline on tic-tac-toe,
//! scoring at adult size, and hardened private scoring over 1,000 clients.
//! Each run either times ops through the public façades (end-to-end
//! metrics) or replays them under spans (per-layer metrics), checking every
//! op's output either way. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod checks;
pub mod counts;
pub mod spans;
pub mod workload;
