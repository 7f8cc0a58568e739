//! # stellar-core
//!
//! Advanced Blackholing and its system realization **Stellar** (§3–§4):
//! the paper's primary contribution.
//!
//! The three layers of Fig. 5:
//!
//! - **Signaling** — [`signal`] defines the extended-community grammar
//!   members use to express blackholing rules over plain BGP (§4.2.1,
//!   §4.3), [`portal`] the self-service catalog of predefined and custom
//!   rules, and [`flowspec`] the lowering of validated BGP FlowSpec
//!   rules (the standards-based second signaling plane, RFC 8955/9117)
//!   into classifier match specs with their own admission plane;
//! - **Management** — [`controller`] (the blackholing controller: a
//!   passive iBGP + ADD-PATH listener that diffs RIB snapshots into
//!   abstract configuration changes), [`config_queue`] (the token-bucket
//!   change queue of §4.4), and [`manager`] / [`qos_manager`] /
//!   [`sdn_manager`] (compilation to hardware-specific configuration,
//!   with admission control against the hardware information base);
//! - **Filtering** — realized by `stellar-dataplane`; [`telemetry`]
//!   surfaces its counters back to members.
//!
//! [`rtbh`] implements the classic RTBH baseline the paper measures
//! against, [`mitigation`] the qualitative comparison models behind
//! Table 1, [`system`] the end-to-end facade, and [`scenario`] the
//! reusable attack/mitigation experiments behind Figs. 2c, 3c and 10c.
//! [`faults`] is the deterministic fault-injection harness behind the
//! self-healing control plane (retry, reconciliation, graceful
//! degradation — the §4.1.2 availability claim under test), and
//! [`watchdog`] the runtime invariant monitor that checks the
//! self-healing machinery's work while those faults are flying.

pub mod audit;
pub mod config_queue;
pub mod controller;
pub mod detector;
pub mod faults;
pub mod flowspec;
pub mod manager;
pub mod mitigation;
pub mod placement;
pub mod portal;
pub mod proof;
pub mod qos_manager;
pub mod rtbh;
pub mod rule;
pub mod scenario;
pub mod sdn_manager;
pub mod signal;
pub mod system;
pub mod telemetry;
pub mod watchdog;

pub use config_queue::{ConfigChangeQueue, QueuedChange};
pub use controller::{AbstractChange, BlackholingController, DegradeOutcome};
pub use detector::{Detection, DetectorConfig, SignatureDetector};
pub use faults::{
    DeadLetter, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanConfig, RecoveryEvent,
    RetryPolicy,
};
pub use flowspec::{FlowSpecPlane, LowerError, FLOWSPEC_RULE_ID_BASE};
pub use manager::{AdmissionError, DeadLetterLog, NetworkManager};
pub use portal::CustomerPortal;
pub use qos_manager::QosNetworkManager;
pub use rule::{BlackholingRule, RuleAction, RuleMatcher};
pub use sdn_manager::SdnNetworkManager;
pub use signal::{MatchKind, StellarSignal};
pub use system::{ReconcileReport, StellarSystem};
pub use watchdog::{Invariant, Violation, Watchdog, WatchdogConfig};
