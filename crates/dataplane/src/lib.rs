//! # stellar-dataplane
//!
//! An emulation of the IXP's switching hardware — the layer Stellar's
//! network manager programs (§4.5):
//!
//! - L2–L4 [`filter`] rules with drop / shape / forward actions,
//! - a [`tcam`] resource model with the two exhaustion modes of Fig. 9
//!   (F1: L3–L4 criteria pool, F2: MAC filter pool),
//! - per-port [`qos`] policies that classify traffic into a dropping queue,
//!   a token-bucket [`shaper`] queue, and a capacity-limited forwarding
//!   queue (Fig. 8),
//! - a control-plane [`cpu`] cost model with the 15 % configuration budget
//!   of Fig. 10(a),
//! - per-queue and per-rule [`counters`] that provide the telemetry
//!   Advanced Blackholing exposes to its users,
//! - an [`openflow`]-style match-action table as the SDN realization
//!   option (§4.2.2),
//! - an [`switch`] edge router tying ports, TCAM and CPU together, and a
//!   [`hardware`] information base describing platform limits (§4.4).
//!
//! The dataplane has two ingestion paths that property tests hold in
//! agreement: a per-packet path (real encoded bytes, used by functional
//! tests, §5.2) and an aggregate flow path (used for Gbps-scale emulation).

#![forbid(unsafe_code)]

pub mod counters;
pub mod cpu;
pub mod filter;
pub mod hardware;
pub mod openflow;
pub mod port;
pub mod qos;
pub mod queue;
pub mod shaper;
pub mod switch;
pub mod tcam;

pub use counters::{PortCounters, RuleCounters};
pub use cpu::ControlPlaneCpu;
pub use filter::{Action, BitsMatch, FilterRule, MatchSpec, PortMatch, RangeMatch};
pub use hardware::HardwareInfoBase;
pub use port::MemberPort;
pub use qos::QosPolicy;
pub use shaper::TokenBucket;
pub use switch::{EdgeRouter, OfferedAggregate, PortId};
pub use tcam::{Tcam, TcamVerdict};
