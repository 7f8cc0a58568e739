//! # stellar-sim
//!
//! The deterministic discrete-event IXP emulation that stands in for the
//! paper's production testbed (see DESIGN.md §2 for the substitution
//! argument):
//!
//! - [`time`] — the simulation clock (microseconds);
//! - [`engine`] — a classic discrete-event scheduler plus the fixed-tick
//!   driver the traffic experiments use;
//! - [`traffic`] — flow-level workload generators: a benign web mix,
//!   amplification attacks, and the booter service used in §2.4/§5.3;
//! - [`topology`] — assembles members, the route server, and the edge
//!   fabric into a runnable IXP;
//! - [`fabric`] — the multi-PoP data plane: N edge routers, a
//!   member-port→PoP assignment, and the deterministic per-tick
//!   cross-PoP aggregate exchange;
//! - [`collector`] — IPFIX-like flow collection and time-series queries
//!   (the measurement pipeline of §2.3);
//! - [`honoring`] — the RTBH compliance model (≈70 % of members do not
//!   honor blackhole signals, §2.4).
//!
//! Everything is seeded: the same seed yields bit-identical experiment
//! outputs.

#![forbid(unsafe_code)]

pub mod collector;
pub mod engine;
pub mod fabric;
pub mod honoring;
pub mod time;
pub mod topology;
pub mod traffic;

pub use collector::{FlowCollector, TimeSeries};
pub use engine::{Engine, Scheduler};
pub use fabric::{Fabric, FabricCounters, PopId};
pub use honoring::HonoringModel;
pub use time::{secs, us_to_secs, SimTime};
pub use topology::{IxpTopology, MemberSpec};
pub use traffic::{AmplificationAttack, BenignWebMix, BooterService, TrafficSource};
