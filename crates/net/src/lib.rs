//! # stellar-net
//!
//! Layer-2 to layer-4 packet formats, addressing, prefixes, flow records and
//! amplification-protocol models used throughout the Stellar reproduction.
//!
//! The design follows the smoltcp idiom of byte-exact, allocation-light
//! codecs: every header type can be encoded to and decoded from wire bytes,
//! and `encode ∘ decode` is the identity (covered by property tests).
//!
//! The crate is deliberately free of any I/O: packets only ever travel over
//! in-memory transports inside the discrete-event emulation, which keeps
//! every experiment reproducible from a seed.

#![forbid(unsafe_code)]

pub mod addr;
pub mod amplification;
pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod mac;
pub mod packet;
pub mod ports;
pub mod prefix;
pub mod proto;
pub mod tcp;
pub mod udp;

pub use addr::{IpAddress, Ipv4Address, Ipv6Address};
pub use error::NetError;
pub use ethernet::{EtherType, EthernetHeader};
pub use flow::{FlowKey, FlowRecord};
pub use ipv4::Ipv4Header;
pub use ipv6::Ipv6Header;
pub use mac::MacAddr;
pub use packet::{L4Header, Packet};
pub use prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
pub use proto::IpProtocol;
