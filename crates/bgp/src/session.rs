//! A complete BGP speaker session: framing + capability negotiation + FSM.
//!
//! The session is transport-agnostic and fully deterministic: callers feed
//! it received bytes and the current simulation time, and it returns bytes
//! to transmit plus decoded UPDATEs. ADD-PATH is negotiated per RFC 7911:
//! path ids are used on the session iff both speakers advertised the
//! capability with compatible send/receive modes (the route server ↔
//! blackholing controller session uses `Both` on each side).

use crate::capability::{AddPathMode, Capability};
use crate::error::{BgpError, BgpResult};
use crate::fsm::{BgpEvent, BgpFsm, FsmAction, SessionState};
use crate::message::{DecodeCtx, Message, MessageReader};
use crate::open::OpenMessage;
use crate::types::{Afi, Asn, Safi};
use crate::update::UpdateMessage;
use stellar_net::addr::Ipv4Address;

/// Static configuration of one side of a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Local AS number.
    pub local_asn: Asn,
    /// Local BGP identifier.
    pub bgp_id: Ipv4Address,
    /// Configured hold time in seconds (0 disables timers).
    pub hold_time_s: u16,
    /// Desired ADD-PATH mode, if any.
    pub add_path: Option<AddPathMode>,
    /// Expected peer ASN; enforced on OPEN if set. For iBGP (the
    /// blackholing controller's session, §4.3) set this to `local_asn`.
    pub expected_peer: Option<Asn>,
    /// True to wait for the peer to speak first.
    pub passive: bool,
}

impl SessionConfig {
    /// A typical eBGP route-server-client config.
    pub fn ebgp(local_asn: Asn, bgp_id: Ipv4Address) -> Self {
        SessionConfig {
            local_asn,
            bgp_id,
            hold_time_s: 90,
            add_path: None,
            expected_peer: None,
            passive: false,
        }
    }

    /// An iBGP config with ADD-PATH `Both` — what the blackholing
    /// controller uses towards the route server.
    pub fn ibgp_add_path(local_asn: Asn, bgp_id: Ipv4Address) -> Self {
        SessionConfig {
            local_asn,
            bgp_id,
            hold_time_s: 90,
            add_path: Some(AddPathMode::Both),
            expected_peer: Some(local_asn),
            passive: false,
        }
    }
}

/// What a session interaction produced.
#[derive(Debug, Default)]
pub struct SessionOutput {
    /// Byte segments to transmit to the peer, in order.
    pub to_send: Vec<Vec<u8>>,
    /// Decoded UPDATE messages (only when Established).
    pub updates: Vec<UpdateMessage>,
    /// The session transitioned to Established in this interaction.
    pub session_up: bool,
    /// The session left Established in this interaction.
    pub session_down: bool,
    /// The peer asked for re-advertisement (ROUTE-REFRESH, RFC 2918).
    pub refresh_requested: bool,
    /// A message this speaker had to send could not be encoded: the
    /// session was ended (nothing after it was sent) instead of
    /// panicking.
    pub encode_error: Option<BgpError>,
}

impl SessionOutput {
    fn merge(&mut self, other: SessionOutput) {
        self.to_send.extend(other.to_send);
        self.updates.extend(other.updates);
        self.session_up |= other.session_up;
        self.session_down |= other.session_down;
        self.refresh_requested |= other.refresh_requested;
        self.encode_error = self.encode_error.take().or(other.encode_error);
    }
}

/// One side of a BGP session.
#[derive(Debug)]
pub struct Session {
    config: SessionConfig,
    fsm: BgpFsm,
    reader: MessageReader,
    ctx: DecodeCtx,
    peer_open: Option<OpenMessage>,
}

impl Session {
    /// Creates a session in Idle.
    pub fn new(config: SessionConfig) -> Self {
        let fsm = BgpFsm::new(config.hold_time_s);
        Session {
            config,
            fsm,
            reader: MessageReader::new(),
            ctx: DecodeCtx::default(),
            peer_open: None,
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> SessionState {
        self.fsm.state()
    }

    /// True once the session is Established.
    pub fn is_established(&self) -> bool {
        self.state() == SessionState::Established
    }

    /// The peer's OPEN, once received.
    pub fn peer_open(&self) -> Option<&OpenMessage> {
        self.peer_open.as_ref()
    }

    /// True if ADD-PATH was negotiated on this session.
    pub fn add_path_negotiated(&self) -> bool {
        self.ctx.add_path
    }

    /// Starts the session (and, in this in-memory setting, implicitly
    /// confirms the transport).
    pub fn start(&mut self, now_us: u64) -> SessionOutput {
        let ev = if self.config.passive {
            BgpEvent::ManualStartPassive
        } else {
            BgpEvent::ManualStart
        };
        let acts = self.fsm.handle(ev, now_us);
        let mut out = self.run_actions(acts, now_us);
        let acts = self.fsm.handle(BgpEvent::TcpConfirmed, now_us);
        out.merge(self.run_actions(acts, now_us));
        out
    }

    /// Feeds received bytes.
    pub fn on_bytes(&mut self, bytes: &[u8], now_us: u64) -> SessionOutput {
        self.reader.push(bytes);
        let mut out = SessionOutput::default();
        loop {
            match self.reader.next(self.ctx) {
                Ok(Some(msg)) => out.merge(self.on_message(msg, now_us)),
                Ok(None) => break,
                Err(e) => {
                    let acts = self.fsm.handle(BgpEvent::DecodeError(e), now_us);
                    out.merge(self.run_actions(acts, now_us));
                    break;
                }
            }
        }
        out
    }

    /// Advances timers to `now_us`.
    pub fn tick(&mut self, now_us: u64) -> SessionOutput {
        let acts = self.fsm.tick(now_us);
        self.run_actions(acts, now_us)
    }

    /// Operator stop; emits a Cease NOTIFICATION.
    pub fn stop(&mut self, now_us: u64) -> SessionOutput {
        let acts = self.fsm.handle(BgpEvent::ManualStop, now_us);
        self.run_actions(acts, now_us)
    }

    /// Encodes a ROUTE-REFRESH request for IPv4 unicast. Fails unless
    /// Established.
    pub fn send_route_refresh(&mut self) -> BgpResult<Vec<u8>> {
        if !self.is_established() {
            return Err(BgpError::BadState {
                detail: "cannot send ROUTE-REFRESH before Established",
            });
        }
        Message::RouteRefresh { afi: 1, safi: 1 }.encode(self.ctx)
    }

    /// Encodes an UPDATE for transmission. Fails unless Established.
    pub fn send_update(&mut self, update: &UpdateMessage) -> BgpResult<Vec<u8>> {
        if !self.is_established() {
            return Err(BgpError::BadState {
                detail: "cannot send UPDATE before Established",
            });
        }
        Message::Update(update.clone()).encode(self.ctx)
    }

    fn on_message(&mut self, msg: Message, now_us: u64) -> SessionOutput {
        match msg {
            Message::Open(open) => {
                if let Some(expected) = self.config.expected_peer {
                    if open.asn != expected {
                        let acts = self.fsm.handle(
                            BgpEvent::DecodeError(BgpError::open(2, "unexpected peer AS")),
                            now_us,
                        );
                        return self.run_actions(acts, now_us);
                    }
                }
                self.negotiate(&open);
                self.peer_open = Some(open.clone());
                let acts = self.fsm.handle(BgpEvent::RecvOpen(open), now_us);
                self.run_actions(acts, now_us)
            }
            Message::Keepalive => {
                let acts = self.fsm.handle(BgpEvent::RecvKeepalive, now_us);
                self.run_actions(acts, now_us)
            }
            Message::Update(update) => {
                let acts = self.fsm.handle(BgpEvent::RecvUpdate, now_us);
                let mut out = SessionOutput::default();
                for a in acts {
                    if a == FsmAction::ProcessUpdate {
                        out.updates.push(update.clone());
                    } else {
                        out.merge(self.run_actions(vec![a], now_us));
                    }
                }
                out
            }
            Message::Notification(n) => {
                let acts = self.fsm.handle(BgpEvent::RecvNotification(n), now_us);
                self.run_actions(acts, now_us)
            }
            Message::RouteRefresh { .. } => {
                // Only meaningful on an established session; earlier it is
                // silently ignored (benign, like a stray keepalive).
                SessionOutput {
                    refresh_requested: self.is_established(),
                    ..Default::default()
                }
            }
        }
    }

    fn negotiate(&mut self, peer: &OpenMessage) {
        // Per-direction ADD-PATH reduces to a single session flag here
        // because every deployment in this system uses symmetric `Both`.
        let local_mode = self.config.add_path;
        let peer_mode = peer.add_path_families().and_then(|fams| {
            fams.iter()
                .find(|(afi, safi, _)| *afi == Afi::Ipv4 && *safi == Safi::Unicast)
                .map(|(_, _, m)| *m)
        });
        self.ctx.add_path = match (local_mode, peer_mode) {
            (Some(l), Some(p)) => {
                (l.can_send() && p.can_receive()) || (l.can_receive() && p.can_send())
            }
            _ => false,
        };
    }

    fn local_open(&self) -> OpenMessage {
        let mut capabilities = vec![
            Capability::Multiprotocol {
                afi: Afi::Ipv4,
                safi: Safi::Unicast,
            },
            Capability::Multiprotocol {
                afi: Afi::Ipv6,
                safi: Safi::Unicast,
            },
            Capability::RouteRefresh,
            Capability::FourOctetAs {
                asn: self.config.local_asn.0,
            },
        ];
        if let Some(mode) = self.config.add_path {
            capabilities.push(Capability::AddPath {
                families: vec![
                    (Afi::Ipv4, Safi::Unicast, mode),
                    (Afi::Ipv6, Safi::Unicast, mode),
                ],
            });
        }
        OpenMessage {
            asn: self.config.local_asn,
            hold_time: self.config.hold_time_s,
            bgp_id: self.config.bgp_id,
            capabilities,
        }
    }

    fn run_actions(&mut self, actions: Vec<FsmAction>, now_us: u64) -> SessionOutput {
        let mut out = SessionOutput::default();
        for a in actions {
            let msg = match a {
                FsmAction::SendOpen => Message::Open(self.local_open()),
                FsmAction::SendKeepalive => Message::Keepalive,
                FsmAction::SendNotification(n) => Message::Notification(n),
                FsmAction::SessionUp => {
                    out.session_up = true;
                    continue;
                }
                FsmAction::SessionDown => {
                    out.session_down = true;
                    continue;
                }
                // Handled inline in on_message.
                FsmAction::ProcessUpdate => continue,
            };
            if out.encode_error.is_some() {
                continue;
            }
            // Our OPEN goes out before anything is negotiated.
            let ctx = match msg {
                Message::Open(_) => DecodeCtx::default(),
                _ => self.ctx,
            };
            match msg.encode(ctx) {
                Ok(bytes) => out.to_send.push(bytes),
                Err(e) => {
                    // Drop the connection as a transport failure would:
                    // no NOTIFICATION can be trusted to encode either.
                    let acts = self.fsm.handle(BgpEvent::TcpClosed, now_us);
                    out.session_down |= acts.contains(&FsmAction::SessionDown);
                    out.encode_error = Some(e);
                }
            }
        }
        out
    }
}

/// Drives two in-memory sessions to Established by relaying their output
/// bytes until quiescent. Returns the number of relay rounds taken.
/// Intended for tests and topology bring-up.
pub fn drive_pair(a: &mut Session, b: &mut Session, now_us: u64) -> usize {
    let mut pending_ab: Vec<Vec<u8>> = Vec::new();
    let mut pending_ba: Vec<Vec<u8>> = Vec::new();
    let out = a.start(now_us);
    pending_ab.extend(out.to_send);
    let out = b.start(now_us);
    pending_ba.extend(out.to_send);
    let mut rounds = 0;
    while !pending_ab.is_empty() || !pending_ba.is_empty() {
        rounds += 1;
        assert!(rounds < 64, "session bring-up did not converge");
        let to_b = std::mem::take(&mut pending_ab);
        for seg in to_b {
            pending_ba.extend(b.on_bytes(&seg, now_us).to_send);
        }
        let to_a = std::mem::take(&mut pending_ba);
        for seg in to_a {
            pending_ab.extend(a.on_bytes(&seg, now_us).to_send);
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AsPath, PathAttribute};
    use crate::nlri::Nlri;

    fn pair(active_ap: Option<AddPathMode>, passive_ap: Option<AddPathMode>) -> (Session, Session) {
        let mut ca = SessionConfig::ebgp(Asn(64500), Ipv4Address::new(10, 0, 0, 1));
        ca.add_path = active_ap;
        let mut cb = SessionConfig::ebgp(Asn(64501), Ipv4Address::new(10, 0, 0, 2));
        cb.add_path = passive_ap;
        cb.passive = true;
        (Session::new(ca), Session::new(cb))
    }

    #[test]
    fn unencodable_notification_ends_the_session_instead_of_panicking() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        assert!(a.is_established());
        let huge = crate::notification::NotificationMessage {
            code: crate::error::ErrorCode::Cease,
            subcode: 0,
            data: vec![0; crate::message::MAX_LEN],
        };
        let acts = vec![FsmAction::SendNotification(huge), FsmAction::SendKeepalive];
        let out = a.run_actions(acts, 1);
        assert!(out.encode_error.is_some());
        assert!(out.to_send.is_empty(), "nothing goes out after the failure");
        assert!(out.session_down);
        assert_eq!(a.state(), SessionState::Idle);
    }

    #[test]
    fn sessions_reach_established() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        assert!(a.is_established());
        assert!(b.is_established());
        assert!(!a.add_path_negotiated());
        assert_eq!(a.peer_open().unwrap().asn, Asn(64501));
        assert_eq!(b.peer_open().unwrap().asn, Asn(64500));
    }

    #[test]
    fn add_path_negotiation_requires_both_sides() {
        let (mut a, mut b) = pair(Some(AddPathMode::Both), Some(AddPathMode::Both));
        drive_pair(&mut a, &mut b, 0);
        assert!(a.add_path_negotiated());
        assert!(b.add_path_negotiated());

        let (mut a, mut b) = pair(Some(AddPathMode::Both), None);
        drive_pair(&mut a, &mut b, 0);
        assert!(!a.add_path_negotiated());
        assert!(!b.add_path_negotiated());

        let (mut a, mut b) = pair(Some(AddPathMode::Send), Some(AddPathMode::Receive));
        drive_pair(&mut a, &mut b, 0);
        assert!(a.add_path_negotiated());
    }

    fn sample_update() -> UpdateMessage {
        UpdateMessage::announce(
            "100.10.10.0/24".parse().unwrap(),
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(AsPath::sequence([64500])),
        )
    }

    #[test]
    fn updates_flow_after_established() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        let wire = a.send_update(&sample_update()).unwrap();
        let out = b.on_bytes(&wire, 1);
        assert_eq!(out.updates.len(), 1);
        assert_eq!(out.updates[0], sample_update());
    }

    #[test]
    fn updates_rejected_before_established() {
        let (mut a, _) = pair(None, None);
        assert!(a.send_update(&sample_update()).is_err());
    }

    #[test]
    fn add_path_updates_round_trip_between_sessions() {
        let (mut a, mut b) = pair(Some(AddPathMode::Both), Some(AddPathMode::Both));
        drive_pair(&mut a, &mut b, 0);
        let mut u = sample_update();
        u.nlri = vec![
            Nlri::with_path_id("100.10.10.10/32".parse().unwrap(), 1),
            Nlri::with_path_id("100.10.10.10/32".parse().unwrap(), 2),
        ];
        let wire = a.send_update(&u).unwrap();
        let out = b.on_bytes(&wire, 1);
        assert_eq!(out.updates[0].nlri.len(), 2);
        assert_eq!(out.updates[0].nlri[1].path_id, Some(2));
    }

    #[test]
    fn expected_peer_mismatch_kills_session() {
        let mut ca = SessionConfig::ebgp(Asn(64500), Ipv4Address::new(10, 0, 0, 1));
        ca.expected_peer = Some(Asn(99999));
        let mut a = Session::new(ca);
        let mut cb = SessionConfig::ebgp(Asn(64501), Ipv4Address::new(10, 0, 0, 2));
        cb.passive = true;
        let mut b = Session::new(cb);
        let out_a = a.start(0);
        b.start(0);
        let mut replies = Vec::new();
        for seg in out_a.to_send {
            replies.extend(b.on_bytes(&seg, 0).to_send);
        }
        // b's OPEN arrives at a, which expected a different ASN.
        let mut notified = false;
        for seg in replies {
            let out = a.on_bytes(&seg, 0);
            notified |= !out.to_send.is_empty();
        }
        assert_eq!(a.state(), SessionState::Idle);
        assert!(notified, "a should have sent a NOTIFICATION");
    }

    #[test]
    fn garbage_bytes_reset_session_with_notification() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        let out = b.on_bytes(&[0u8; 40], 1);
        assert!(out.session_down);
        assert_eq!(b.state(), SessionState::Idle);
        assert!(!out.to_send.is_empty());
    }

    #[test]
    fn keepalives_maintain_the_session_and_hold_expiry_drops_it() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        // Exchange keepalives for a while.
        let mut t = 0u64;
        for _ in 0..10 {
            t += 30_000_000; // 30 s steps, hold is 90 s
            let out_a = a.tick(t);
            for seg in out_a.to_send {
                b.on_bytes(&seg, t);
            }
            let out_b = b.tick(t);
            for seg in out_b.to_send {
                a.on_bytes(&seg, t);
            }
            assert!(a.is_established() && b.is_established());
        }
        // Now stop relaying to b: its hold timer must eventually fire.
        let out = b.tick(t + 91_000_000);
        assert!(out.session_down);
        assert_eq!(b.state(), SessionState::Idle);
    }

    #[test]
    fn stop_sends_cease() {
        let (mut a, mut b) = pair(None, None);
        drive_pair(&mut a, &mut b, 0);
        let out = a.stop(1);
        assert!(out.session_down);
        let out_b = b.on_bytes(&out.to_send[0], 1);
        assert!(out_b.session_down);
        assert_eq!(b.state(), SessionState::Idle);
    }
}
