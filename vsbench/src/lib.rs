//! The ViewSeeker benchmark: three workloads (`hot-turns`, `cold-scan`,
//! `refine`) measured end to end and per layer. See `README.md`.

pub mod backends;
pub mod checks;
pub mod data;
pub mod http;
pub mod layers;
pub mod report;
pub mod rng;
pub mod server;
pub mod session;
pub mod stats;
pub mod views;
pub mod workloads;
