//! The network-manager abstraction (§4.4): compiles abstract
//! configuration changes into hardware-specific ones, while doing
//! "admission control" against the hardware information base so "the
//! hardware resource limitations of the IXP's forwarding hardware are
//! respected" (§4.1.2).

use std::collections::VecDeque;

use crate::controller::AbstractChange;
use crate::faults::DeadLetter;

/// Why a change was refused by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The vendor's per-port rule limit would be exceeded.
    PerPortLimit,
    /// The L3–L4 TCAM criteria pool would be exceeded (Fig. 9's F1).
    TcamL34Exhausted,
    /// The MAC filter pool would be exceeded (Fig. 9's F2).
    TcamMacExhausted,
    /// The rule's owner has no port on this fabric.
    UnknownOwner,
    /// Removal referenced a rule that is not installed.
    NoSuchRule,
    /// The SDN flow table is full.
    TableFull,
    /// The switch's configuration interface was momentarily unavailable
    /// (management-session brownout): the change failed without touching
    /// the fabric and will succeed when retried.
    Transient,
}

impl AdmissionError {
    /// Human-readable description.
    pub fn describe(&self) -> &'static str {
        match self {
            AdmissionError::PerPortLimit => "per-port rule limit reached",
            AdmissionError::TcamL34Exhausted => "L3-L4 TCAM criteria pool exhausted (F1)",
            AdmissionError::TcamMacExhausted => "MAC filter pool exhausted (F2)",
            AdmissionError::UnknownOwner => "rule owner has no port on this fabric",
            AdmissionError::NoSuchRule => "rule not installed",
            AdmissionError::TableFull => "SDN flow table full",
            AdmissionError::Transient => "switch configuration interface unavailable",
        }
    }

    /// A fault that clears by itself — retry unconditionally.
    pub fn is_transient(&self) -> bool {
        matches!(self, AdmissionError::Transient)
    }

    /// A capacity refusal that concurrent removals may clear — worth a
    /// bounded number of retries, then a dead letter.
    pub fn is_capacity(&self) -> bool {
        matches!(
            self,
            AdmissionError::PerPortLimit | AdmissionError::TableFull
        )
    }

    /// A TCAM exhaustion verdict (Fig. 9's F1/F2) — the degradation
    /// ladder can trade match precision for fewer criteria.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            AdmissionError::TcamL34Exhausted | AdmissionError::TcamMacExhausted
        )
    }
}

/// Bounded dead-letter log: a ring buffer that drops its oldest entry
/// once full, so a long chaos soak cannot grow the give-up log without
/// limit. Evictions are counted (and surfaced as `deadletter.evicted`)
/// rather than silent — losing history is a capacity decision, not an
/// accident.
#[derive(Debug)]
pub struct DeadLetterLog {
    letters: VecDeque<DeadLetter>,
    capacity: usize,
    evicted: u64,
}

impl DeadLetterLog {
    /// Default ring capacity, the one `StellarSystem` runs with;
    /// [`DeadLetterLog::set_capacity`] rebounds a log.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A log bounded to `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        DeadLetterLog {
            letters: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Rebounds the ring, evicting oldest entries if it shrank below the
    /// current length. Returns how many entries were evicted.
    pub fn set_capacity(&mut self, capacity: usize) -> u64 {
        self.capacity = capacity.max(1);
        let mut dropped = 0;
        while self.letters.len() > self.capacity {
            self.letters.pop_front();
            dropped += 1;
        }
        self.evicted += dropped;
        dropped
    }

    /// Appends a dead letter, dropping the oldest entry when full.
    /// Returns the number of evictions this push caused (0 or 1).
    pub fn push(&mut self, letter: DeadLetter) -> u64 {
        let mut dropped = 0;
        while self.letters.len() >= self.capacity {
            self.letters.pop_front();
            dropped += 1;
        }
        self.letters.push_back(letter);
        self.evicted += dropped;
        dropped
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.letters.len()
    }

    /// True when nothing has been given up on (or everything retained
    /// was drained).
    pub fn is_empty(&self) -> bool {
        self.letters.is_empty()
    }

    /// Oldest-first iteration over retained letters.
    pub fn iter(&self) -> impl Iterator<Item = &DeadLetter> {
        self.letters.iter()
    }

    /// Total entries ever evicted to keep the ring bounded.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

impl Default for DeadLetterLog {
    fn default() -> Self {
        DeadLetterLog::new(DeadLetterLog::DEFAULT_CAPACITY)
    }
}

/// A network manager: one hardware-specific compilation backend
/// (§4.4 names two realized options — vendor QoS and SDN).
pub trait NetworkManager {
    /// The fabric this manager programs.
    type Fabric;

    /// Compiles and applies one abstract change. Must be all-or-nothing:
    /// a refused change leaves the fabric untouched (traffic keeps
    /// forwarding — availability first).
    fn apply(
        &mut self,
        fabric: &mut Self::Fabric,
        change: &AbstractChange,
        now_us: u64,
    ) -> Result<(), AdmissionError>;

    /// Rules currently installed through this manager.
    fn installed_rules(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn letter(at_us: u64) -> DeadLetter {
        DeadLetter {
            change: AbstractChange::RemoveRule {
                rule_id: at_us,
                owner: stellar_bgp::types::Asn(64500),
            },
            error: AdmissionError::PerPortLimit,
            attempts: 3,
            at_us,
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts_evictions() {
        let mut log = DeadLetterLog::new(3);
        for i in 0..3 {
            assert_eq!(log.push(letter(i)), 0);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.push(letter(3)), 1);
        assert_eq!(log.push(letter(4)), 1);
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let retained: Vec<u64> = log.iter().map(|d| d.at_us).collect();
        assert_eq!(retained, vec![2, 3, 4], "oldest entries dropped first");
    }

    #[test]
    fn shrinking_capacity_evicts_excess() {
        let mut log = DeadLetterLog::new(4);
        for i in 0..4 {
            log.push(letter(i));
        }
        assert_eq!(log.set_capacity(2), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.evicted(), 2);
        assert_eq!(log.iter().next().map(|d| d.at_us), Some(2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut log = DeadLetterLog::new(0);
        log.push(letter(1));
        log.push(letter(2));
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
        assert_eq!(log.iter().next().map(|d| d.at_us), Some(2));
    }

    #[test]
    fn errors_have_descriptions() {
        for e in [
            AdmissionError::PerPortLimit,
            AdmissionError::TcamL34Exhausted,
            AdmissionError::TcamMacExhausted,
            AdmissionError::UnknownOwner,
            AdmissionError::NoSuchRule,
            AdmissionError::TableFull,
            AdmissionError::Transient,
        ] {
            assert!(!e.describe().is_empty());
        }
    }

    #[test]
    fn error_classes_partition_sensibly() {
        assert!(AdmissionError::Transient.is_transient());
        assert!(AdmissionError::PerPortLimit.is_capacity());
        assert!(AdmissionError::TableFull.is_capacity());
        assert!(AdmissionError::TcamL34Exhausted.is_degradable());
        assert!(AdmissionError::TcamMacExhausted.is_degradable());
        for permanent in [AdmissionError::UnknownOwner, AdmissionError::NoSuchRule] {
            assert!(!permanent.is_transient());
            assert!(!permanent.is_capacity());
            assert!(!permanent.is_degradable());
        }
    }
}
