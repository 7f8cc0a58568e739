//! The four pinned workloads. Names are final: later PRs are judged by
//! `(workload, metric)` pairs.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SignalStorm,
    FlowspecVictims,
    TickIxpMix,
    TickSparseFabric,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Member ports in the IXP.
    pub members: usize,
    pub pops: usize,
    /// Measured segments per round (a run is [`ROUNDS`] rounds, each on a
    /// freshly built system). A group of quiet watchdog passes follows each.
    pub segments_per_round: usize,
    /// Ops per measured segment at `--seconds 10`; other run lengths scale
    /// it linearly (see [`Workload::segment_ops`]).
    ops_per_segment_10s: usize,
    /// `observe` + `snapshot_json` exports per measured segment, evenly
    /// spaced.
    pub exports_per_segment: usize,
    /// Offered aggregates per tick (tick workloads).
    pub offers_per_tick: usize,
}

/// Rounds per untraced run. Every round replays the same ops, and an op's
/// time is the fastest of its replays; `setup_s` is the median of the
/// rounds' set-ups. (Six half-sized rounds on `tick_sparse_fabric`, whose
/// set-up is cheap, were tried: slower, and no steadier.)
pub const ROUNDS: usize = 3;

pub const ALL: [Workload; 4] = [
    Workload {
        name: "signal_storm",
        kind: Kind::SignalStorm,
        members: 800,
        pops: 4,
        segments_per_round: 4,
        ops_per_segment_10s: 400,
        exports_per_segment: 5,
        offers_per_tick: 0,
    },
    Workload {
        name: "flowspec_victims",
        kind: Kind::FlowspecVictims,
        members: 400,
        pops: 4,
        segments_per_round: 2,
        ops_per_segment_10s: 240,
        exports_per_segment: 5,
        offers_per_tick: 0,
    },
    Workload {
        name: "tick_ixp_mix",
        kind: Kind::TickIxpMix,
        members: 800,
        pops: 4,
        segments_per_round: 3,
        ops_per_segment_10s: 200,
        exports_per_segment: 20,
        offers_per_tick: 16_384,
    },
    Workload {
        name: "tick_sparse_fabric",
        kind: Kind::TickSparseFabric,
        members: 100_000,
        pops: 16,
        segments_per_round: 2,
        ops_per_segment_10s: 200,
        exports_per_segment: 3,
        offers_per_tick: 4_096,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    pub fn is_tick(&self) -> bool {
        matches!(self.kind, Kind::TickIxpMix | Kind::TickSparseFabric)
    }

    /// Ops in one measured segment for a run sized by `--seconds`. The
    /// count is fixed by the flag alone — not by how fast this build
    /// happens to be — so two builds do the same work and the count
    /// metrics repeat exactly. It is a whole number of 20-op blocks (one
    /// corrupt and one hijacked announcement per block on
    /// `flowspec_victims`) and never below 200, so that p95 over a round's
    /// ops always has ten samples beyond it.
    pub fn segment_ops(&self, seconds: u64) -> usize {
        let scaled = self.ops_per_segment_10s as u64 * seconds / 10;
        (scaled.div_ceil(20).max(10) * 20) as usize
    }
}
