//! # stellar-classify
//!
//! Flow classification for the dataplane hot path, and exact reasoning
//! about the rule tables it runs.
//!
//! - [`spec`] — the match language itself ([`spec::MatchSpec`],
//!   [`spec::PortMatch`]): the "blackholing rules" of §3.2 of the paper,
//!   matched against [`FlowKey`](stellar_net::flow::FlowKey)s. Lives here
//!   (rather than in the dataplane crate) so the classifier and the
//!   hardware emulation share one definition; `stellar-dataplane`
//!   re-exports it.
//! - [`classifier`] — the one [`FlowClassifier`]: rules held once, in a
//!   `(priority, id)`-sorted `Vec` whose first-match scan is both the
//!   reference semantics and the lookup path for tables of at most
//!   [`LINEAR_MAX`] rules (the paper's regime: a handful of rules on
//!   each of very many ports).
//! - [`interval`] — the [`IntervalIndex`](interval::IntervalIndex) larger
//!   tables are classified through: a prefix-trie → protocol →
//!   elementary-interval decision tree over positions in that `Vec`,
//!   derived state that mutations drop and the tick entry rebuilds.
//! - [`sharded`] — the order-preserving fan-out of independent shards
//!   (one per port group) over scoped threads.
//! - [`set`] — the match language as sets of observable flow keys: the
//!   field table, the canonical [`set::Region`] of a spec, the key
//!   universe and its splitter.
//! - [`analyze`] / [`verify`] — static rule-table analysis and the exact
//!   rule-set algebra behind the control plane's audit and proofs, both
//!   over [`set`].

#![forbid(unsafe_code)]

pub mod analyze;
pub mod classifier;
pub mod interval;
pub mod set;
pub mod sharded;
pub mod spec;
pub mod verify;

pub use analyze::{ActionClass, AuditRule, Finding, RuleFlag, TableAnalysis, TcamUsage};
pub use classifier::{FlowClassifier, RuleEntry, RuleId, LINEAR_MAX};
pub use spec::{BitsMatch, MatchSpec, PortMatch, RangeMatch};
pub use verify::{
    check_ladder_step, diff_tables, drop_not_contained, eval_table, tables_equivalent, DiffRegion,
    Domain, LadderReport, Outcome, SemDiff, VerifyError, DEFAULT_VERIFY_BUDGET,
};
