//! # stellar-bgp
//!
//! A BGP-4 implementation sufficient to run a real IXP route-server
//! control plane inside the emulation:
//!
//! - byte-exact message codecs for OPEN / UPDATE / NOTIFICATION / KEEPALIVE
//!   (RFC 4271) with capability negotiation (RFC 5492): multiprotocol
//!   (RFC 4760), four-octet AS numbers (RFC 6793) and ADD-PATH (RFC 7911 —
//!   the capability Stellar's blackholing controller relies on to see *all*
//!   paths, not just the route server's best path, §4.3);
//! - path attributes including standard (RFC 1997), extended (RFC 4360) and
//!   large (RFC 8092) communities, plus the well-known BLACKHOLE community
//!   (RFC 7999) used by RTBH;
//! - the session finite-state machine with hold/keepalive timers;
//! - the per-peer Adj-RIB-In, edited by key, that the route server keeps.
//!
//! Messages always travel through the full encoder and decoder, even between
//! in-process peers, so malformed-message handling is exercised end-to-end.

#![forbid(unsafe_code)]

pub mod attr;
pub mod capability;
pub mod community;
pub mod error;
pub mod extcommunity;
pub mod flowspec;
pub mod fsm;
pub mod message;
pub mod nlri;
pub mod notification;
pub mod open;
pub mod rib;
pub mod session;
pub mod types;
pub mod update;

pub use attr::{AsPath, PathAttribute};
pub use community::Community;
pub use error::{BgpError, BgpResult};
pub use extcommunity::ExtendedCommunity;
pub use flowspec::FlowSpec;
pub use fsm::{BgpEvent, BgpFsm, FsmAction, SessionState};
pub use message::{DecodeCtx, Message};
pub use nlri::Nlri;
pub use notification::NotificationMessage;
pub use open::OpenMessage;
pub use rib::{AdjRibIn, Route};
pub use session::{Session, SessionConfig};
pub use types::{Afi, Asn, Origin, Safi};
pub use update::UpdateMessage;
