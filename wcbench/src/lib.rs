//! `wcbench`: the repository benchmark. It starts the release `wcbk serve`
//! binary, drives it over keep-alive HTTP with seeded workloads, checks
//! every answer against an in-process oracle, and reports end-to-end
//! metrics — or, traced, per-layer metrics. See `NOTES.md` for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod data;
pub mod http;
pub mod oracle;
pub mod plan;
pub mod replay;
pub mod run;
pub mod server;
pub mod stats;
pub mod trace;
