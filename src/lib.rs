//! # stellar
//!
//! A from-scratch reproduction of *Stellar: Network Attack Mitigation
//! using Advanced Blackholing* (Dietzel, Wichtlhuber, Smaragdakis,
//! Feldmann — CoNEXT 2018).
//!
//! Advanced Blackholing lets an IXP member under DDoS attack signal
//! fine-grained (L2–L4) drop/shape rules to the IXP with a single BGP
//! announcement; the IXP installs them in its own switching hardware at
//! the victim's egress port. Unlike classic RTBH, no other member has to
//! cooperate, collateral damage is avoided, and a shaped traffic sample
//! provides attack telemetry.
//!
//! This facade re-exports the workspace crates:
//!
//! - [`net`] — L2–L4 packet formats, prefixes, flows, amplification
//!   models;
//! - [`bgp`] — BGP-4 codec, session FSM, communities, ADD-PATH, RIBs;
//! - [`routeserver`] — the IXP route server with IRR/RPKI/bogon policy;
//! - [`dataplane`] — TCAM, QoS policies, token-bucket shaping, OpenFlow;
//! - [`sim`] — the deterministic discrete-event IXP emulation;
//! - [`stats`] — Welch's t-test, confidence intervals, OLS, ECDFs;
//! - [`obs`] — deterministic sim-time metrics, spans and the flight
//!   recorder (byte-identical JSON snapshots across seeded runs);
//! - [`core`] — Stellar itself: signaling, controller, managers,
//!   telemetry, the RTBH baseline and the evaluation scenarios.
//!
//! ## Quickstart
//!
//! ```
//! use stellar::core::signal::StellarSignal;
//! use stellar::core::system::StellarSystem;
//! use stellar::dataplane::hardware::HardwareInfoBase;
//! use stellar::sim::topology::{generic_members, IxpTopology};
//! use stellar::bgp::types::Asn;
//!
//! // A small IXP with 10 members.
//! let ixp = IxpTopology::build(&generic_members(64500, 10), HardwareInfoBase::lab_switch());
//! let mut system = StellarSystem::new(ixp, 4.33);
//!
//! // Member 64500 is attacked on 131.0.0.10 by an NTP reflection attack:
//! // one BGP announcement installs a drop rule for UDP source port 123.
//! let victim = "131.0.0.10/32".parse().unwrap();
//! let out = system.member_signal(Asn(64500), victim, &[StellarSignal::drop_udp_src(123)], 0);
//! assert!(out.rejections.is_empty());
//! system.pump(0);
//! assert_eq!(system.active_rules(), 1);
//! ```

#![forbid(unsafe_code)]

pub use stellar_bgp as bgp;
pub use stellar_core as core;
pub use stellar_dataplane as dataplane;
pub use stellar_net as net;
pub use stellar_obs as obs;
pub use stellar_routeserver as routeserver;
pub use stellar_sim as sim;
pub use stellar_stats as stats;
