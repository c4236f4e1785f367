//! Supporting value types of the sharing renamer: per-register
//! allocation metadata, speculative-reuse decisions and the in-flight
//! rename record.

use crate::rename_common::{ReadMarks, SeqRecord};
use crate::TaggedReg;
use regshare_isa::{ArchReg, ShareHint};

/// Per-physical-register allocation metadata, used for the predictor's
/// release-time feedback and the Fig. 12 accuracy accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PregMeta {
    /// Predictor entry used at allocation.
    pub(super) entry: usize,
    /// Entry value at allocation (the prediction).
    pub(super) predicted: u8,
    /// Reuses observed so far (decremented when a reuse is squashed).
    pub(super) reuses: u8,
    /// A single-use misprediction repair was triggered on this register.
    pub(super) multi_use: bool,
    /// A reuse attempt was blocked by missing shadow capacity.
    pub(super) blocked: bool,
    /// False for the initial architectural mappings (no allocating PC).
    pub(super) has_entry: bool,
    /// The bank was chosen by a static hint rather than the type
    /// predictor; release feedback then goes to [`HintStats`](crate::HintStats) instead of
    /// the predictor.
    pub(super) static_bank: bool,
    /// For each version created by a *speculative* (non-redefining)
    /// reuse: the single-use-predictor entry of the consumer that took
    /// it, for release-time reinforcement / repair-time correction.
    pub(super) spec_entries: [Option<u32>; 8],
    /// Versions created by a speculation granted by a static `SingleUse`
    /// proof (never trains the dynamic predictor).
    pub(super) spec_static: [bool; 8],
    /// The compiler's hint for the producer of each live version, used
    /// when this register is weighed as a reuse source. Cleared back to
    /// `Unknown` when the version is squashed.
    pub(super) version_hints: [ShareHint; 8],
}

/// Who authorised a speculative (non-redefining) reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SpecSource {
    /// A static `SingleUse` proof from the hint table.
    Static,
    /// The dynamic single-use predictor.
    Dynamic,
}

/// Outcome of weighing a speculative-reuse candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SpecDecision {
    Grant(SpecSource),
    /// Denied by an exact static proof (`NoReuse`/`Multi`) — counted in
    /// [`HintStats::static_denials`](crate::HintStats::static_denials).
    DenyStatic,
    /// Denied without a static proof (predictor said no, or the policy
    /// has no grounds to speculate).
    Deny,
}

#[derive(Debug, Clone, Copy)]
pub(super) enum DstAction {
    None,
    /// A fresh allocation replacing `old_map`.
    Alloc {
        logical: ArchReg,
        old_map: TaggedReg,
        new_map: TaggedReg,
    },
    /// A reuse of a source register: version bumped from `prev_version`.
    Reuse {
        logical: ArchReg,
        old_map: TaggedReg,
        new_map: TaggedReg,
        prev_version: u8,
    },
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Record {
    pub(super) seq: u64,
    /// Read bits set by this micro-op, with their previous values.
    pub(super) read_marks: ReadMarks,
    pub(super) dst: DstAction,
    /// Base-register writeback of post-increment operations.
    pub(super) dst2: DstAction,
}

impl SeqRecord for Record {
    fn seq(&self) -> u64 {
        self.seq
    }
}
