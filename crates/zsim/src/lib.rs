//! Execution- and trace-driven simulation of the paper's 32-core CMP
//! (Table I).
//!
//! This crate is the substitute for the paper's Pin-based x86-64
//! simulator. The modelled machine:
//!
//! * 32 in-order cores, IPC = 1 except on memory accesses, 2 GHz;
//! * private 32 KB 4-way L1s, 1-cycle latency;
//! * a shared, inclusive, 8-bank 8 MB L2 of configurable organization
//!   (set-associative / skew / zcache) with MESI directory coherence,
//!   4-cycle average L1-to-L2 latency and a 6–11-cycle bank latency taken
//!   from the `zenergy` cost model;
//! * 4 memory controllers, 200-cycle zero-load latency, 64 GB/s peak.
//!
//! Because the cores are in-order and single-issue, the architecturally
//! relevant input is the memory reference stream — which is what
//! `zworkloads` generates — so a stream-driven simulator reproduces the
//! quantities the paper reports (L2 MPKI, IPC, energy events).
//!
//! Two modes:
//!
//! * [`System::run`] — execution-driven, for realizable policies (LRU,
//!   bucketed LRU, RRIP, …), with full coherence and inclusion modelling;
//! * [`trace::record_trace`] / [`trace::replay`] — trace-driven, the mode
//!   the paper uses for OPT (§VI-B).
//!
//! # Examples
//!
//! ```
//! use zsim::{L2Design, SimConfig, System};
//! use zworkloads::suite::{by_name, Scale};
//!
//! let mut cfg = SimConfig::small().with_l2(L2Design::zcache(4, 3));
//! cfg.cores = 4;
//! cfg.instrs_per_core = 20_000;
//! let wl = by_name("canneal", 4, Scale::SMALL).unwrap();
//! let stats = System::new(cfg).run(&wl);
//! println!("Z4/52 canneal MPKI = {:.2}", stats.l2_mpki());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bankport;
mod coherence;
mod config;
mod l2;
mod mem;
mod stats;
mod system;
pub mod trace;

pub use bankport::BankPorts;
pub use coherence::{cores_in, DirEntry, Directory};
pub use config::{L2Design, SimConfig};
pub use mem::MemoryChannels;
pub use stats::SimStats;
pub use system::System;
