//! Host-time benchmark of the MAREA middleware.
//!
//! Five workloads (see [`workloads`]) are driven from one thread through
//! public APIs only; [`run`] measures them end to end, [`ledger`] and the
//! traced run ([`spans`], [`traced`]) give the per-layer numbers.
//! `benchmark/README.md` defines every metric.

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod gen;
pub mod ledger;
pub mod report;
pub mod run;
pub mod services;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
