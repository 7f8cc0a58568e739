//! # stellar-routeserver
//!
//! The IXP route server (§2.1, §4.3): the member-facing control-plane
//! interface that Stellar's signaling layer is built on.
//!
//! - [`irr`], [`rpki`], [`bogon`] — the validation databases behind the
//!   IXP's "routing hygiene" import policy ("each member can only announce
//!   prefixes that are not in conflict with Internet Route Registry
//!   databases, BOGONS, and RPKI validation", §4.3);
//! - [`policy`] — the import policy combining them, including the
//!   more-specific-than-/24 exception for blackhole-tagged host routes;
//! - [`flowspec`] — RFC 9117 validation of FlowSpec (SAFI 133)
//!   announcements: a member may only announce flow rules whose embedded
//!   destination prefix it is the validated originator of;
//! - [`control`] — route-server action communities (announce to
//!   all / none / selected peers) and their classification, which is what
//!   Fig. 3(b) measures;
//! - [`server`] — the route server itself: per-peer Adj-RIB-In, export
//!   policy, RTBH next-hop rewriting, and the southbound ADD-PATH feed to
//!   the blackholing controller;
//! - [`looking_glass`] — the debugging view members use (§4.3);
//! - [`stamps`] — the change stamps the FlowSpec RIB (and the
//!   controller's desired-state planes) mark their edits with.

#![forbid(unsafe_code)]

pub mod bogon;
pub mod control;
pub mod flowspec;
pub mod irr;
pub mod looking_glass;
pub mod policy;
pub mod rpki;
pub mod server;
pub mod stamps;

pub use control::{ExportScope, PolicyScope};
pub use flowspec::{
    validate_flowspec, AcceptedFlowSpec, FlowSpecOutput, FlowSpecRejectReason, FlowSpecStats,
};
pub use irr::IrrDb;
pub use policy::{ImportPolicy, RejectReason};
pub use rpki::{RpkiStatus, RpkiTable};
pub use server::{Export, RouteServer, RouteServerConfig, RouteServerOutput};
pub use stamps::OwnerStamps;
