//! Change stamps for per-owner state: the one type the FlowSpec RIB here
//! and both desired-state planes of `stellar-core` stamp their edits
//! with, so the watchdog's proof ledger can compare stamps instead of
//! tables.

use std::collections::HashMap;
use stellar_bgp::types::Asn;

/// Change stamps of one state owner. The owner calls
/// [`touch`](Self::touch) from every mutator that changed what it holds
/// for an `Asn` — inside its own type, so no caller can edit the state
/// around them. An equal `version` means the whole state is what it
/// was, an equal `revision(owner)` means that owner's share of it is.
/// Both only grow.
#[derive(Debug, Default)]
pub struct OwnerStamps {
    version: u64,
    /// Owner → version at that owner's last change. Point lookups only —
    /// never iterated.
    revisions: HashMap<Asn, u64>,
}

impl OwnerStamps {
    /// Records a change to `owner`'s share of the state.
    pub fn touch(&mut self, owner: Asn) {
        self.version += 1;
        self.revisions.insert(owner, self.version);
    }

    /// Bumped by every [`touch`](Self::touch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The [`version`](Self::version) at `owner`'s last change (0:
    /// never).
    pub fn revision(&self, owner: Asn) -> u64 {
        self.revisions.get(&owner).copied().unwrap_or(0)
    }
}
