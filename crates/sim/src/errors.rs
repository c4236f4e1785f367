//! Structured simulation errors, diagnostic snapshots, and the optional
//! cycle-trace event types.

use crate::LsqError;
use std::fmt;

/// Errors a simulation can end with. Every variant that arises from a
/// live pipeline carries a [`PipelineSnapshot`] taken at the failure, so
/// a bare `Display` of the error is already a usable diagnostic dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The lockstep functional oracle disagreed with a committed
    /// micro-op — a correctness bug in the timing model or renamer.
    OracleMismatch {
        /// Simulated cycle of the divergence.
        cycle: u64,
        /// What went wrong.
        detail: String,
        /// Pipeline state at the divergence.
        snapshot: Box<PipelineSnapshot>,
    },
    /// `max_cycles` elapsed before the program finished.
    CycleLimit {
        /// The limit that was hit.
        cycles: u64,
    },
    /// An external supervisor cancelled the run through a
    /// [`crate::CancelToken`] (deadline expiry, shutdown). The program
    /// had not finished; no partial results are reported.
    Cancelled {
        /// Simulated cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// No instruction committed for a long time with work in flight.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Sequence number stuck at the head of the ROB.
        head_seq: Option<u64>,
        /// Pipeline state at the stall, including the stuck head's
        /// operand-readiness — the forward-progress watchdog's dump.
        snapshot: Box<PipelineSnapshot>,
    },
    /// An invariant audit found corrupted bookkeeping (renamer free
    /// list / PRT / map table, or pipeline IQ/ROB/wakeup state).
    Invariant {
        /// Cycle of the failed audit.
        cycle: u64,
        /// Which invariant was violated.
        what: String,
        /// Pipeline state at the violation.
        snapshot: Box<PipelineSnapshot>,
    },
    /// The load/store queue rejected an operation as malformed.
    Lsq {
        /// Cycle of the rejected operation.
        cycle: u64,
        /// The queue's own description of the problem.
        error: LsqError,
        /// Pipeline state at the failure.
        snapshot: Box<PipelineSnapshot>,
    },
    /// The configuration was rejected by [`crate::SimConfig::validate`]
    /// before any cycle was simulated (zero widths, thread count out of
    /// range, structures too small for the thread partitioning).
    Config {
        /// Which parameter was inconsistent, and why.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OracleMismatch {
                cycle,
                detail,
                snapshot,
            } => {
                write!(f, "oracle mismatch at cycle {cycle}: {detail}\n{snapshot}")
            }
            SimError::CycleLimit { cycles } => write!(f, "cycle limit of {cycles} reached"),
            SimError::Cancelled { cycle } => {
                write!(f, "run cancelled by supervisor at cycle {cycle}")
            }
            SimError::Deadlock {
                cycle,
                head_seq,
                snapshot,
            } => {
                write!(
                    f,
                    "no commit progress by cycle {cycle} (head seq {head_seq:?})\n{snapshot}"
                )
            }
            SimError::Invariant {
                cycle,
                what,
                snapshot,
            } => {
                write!(
                    f,
                    "invariant violation at cycle {cycle}: {what}\n{snapshot}"
                )
            }
            SimError::Lsq {
                cycle,
                error,
                snapshot,
            } => {
                write!(
                    f,
                    "load/store queue error at cycle {cycle}: {error}\n{snapshot}"
                )
            }
            SimError::Config { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A point-in-time summary of pipeline state, attached to every
/// structured [`SimError`] and printable on its own. Queue depths plus a
/// detailed view of the ROB head — the micro-op whose stall or
/// misbehaviour usually explains the failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineSnapshot {
    /// Cycle the snapshot was taken on.
    pub cycle: u64,
    /// Last cycle any micro-op committed.
    pub last_commit_cycle: u64,
    /// Next fetch PC (`None`: fetch is waiting for a redirect).
    pub fetch_pc: Option<u64>,
    /// Cycle until which fetch is stalled (redirect/exception penalty).
    pub fetch_stall_until: u64,
    /// Fetch-queue depth.
    pub fetch_queue: usize,
    /// Decode-queue depth.
    pub decode_queue: usize,
    /// Reorder-buffer occupancy.
    pub rob: usize,
    /// Issue-queue occupancy (ready + waiting).
    pub iq: usize,
    /// Operand-ready, unissued micro-ops.
    pub ready: usize,
    /// In-flight unresolved branches.
    pub unresolved_branches: usize,
    /// Load-queue occupancy.
    pub lsq_loads: usize,
    /// Store-queue occupancy.
    pub lsq_stores: usize,
    /// Free integer physical registers.
    pub free_int: usize,
    /// Free floating-point physical registers.
    pub free_fp: usize,
    /// The oldest in-flight micro-op, if any.
    pub head: Option<HeadSnapshot>,
}

/// The ROB head's state inside a [`PipelineSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeadSnapshot {
    /// Sequence number.
    pub seq: u64,
    /// Instruction index.
    pub pc: u64,
    /// Disassembly of the instruction.
    pub inst: String,
    /// Micro-op kind (`Main` / `RepairMove`).
    pub kind: String,
    /// Selected for execution.
    pub issued: bool,
    /// Result written back.
    pub done: bool,
    /// Busy source operands still being waited on.
    pub pending_srcs: u8,
    /// Present in the ready queue.
    pub in_ready_q: bool,
    /// Parked in a scoreboard waiter list.
    pub has_waiter: bool,
    /// Per-source scoreboard readiness.
    pub srcs_ready: Vec<bool>,
    /// Marked for a precise exception at commit.
    pub exception: bool,
}

impl fmt::Display for PipelineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline snapshot at cycle {} (last commit at cycle {}):",
            self.cycle, self.last_commit_cycle
        )?;
        writeln!(
            f,
            "  fetch pc {:?}, stalled until {}, fetchq {}, decodeq {}",
            self.fetch_pc, self.fetch_stall_until, self.fetch_queue, self.decode_queue
        )?;
        writeln!(
            f,
            "  rob {}, iq {} ({} ready), unresolved branches {}, lsq {} loads / {} stores",
            self.rob,
            self.iq,
            self.ready,
            self.unresolved_branches,
            self.lsq_loads,
            self.lsq_stores
        )?;
        write!(f, "  free regs: {} int, {} fp", self.free_int, self.free_fp)?;
        if let Some(h) = &self.head {
            write!(
                f,
                "\n  head: seq {} pc {} `{}` [{}] issued={} done={} pending_srcs={} \
                 in_ready_q={} has_waiter={} srcs_ready={:?} exception={}",
                h.seq,
                h.pc,
                h.inst,
                h.kind,
                h.issued,
                h.done,
                h.pending_srcs,
                h.in_ready_q,
                h.has_waiter,
                h.srcs_ready,
                h.exception
            )?;
        }
        Ok(())
    }
}

/// One pipeline-stage event from the optional cycle trace
/// ([`crate::SimConfig::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened on.
    pub cycle: u64,
    /// Hardware thread the micro-op belongs to.
    pub tid: usize,
    /// Micro-op sequence number.
    pub seq: u64,
    /// Instruction index.
    pub pc: u64,
    /// Which stage the micro-op passed.
    pub stage: TraceStage,
}

/// Pipeline stage of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceStage {
    /// Renamed and inserted into the ROB/IQ.
    Dispatch,
    /// Selected for execution.
    Issue,
    /// Result written back and broadcast.
    Writeback,
    /// Retired in order.
    Commit,
}
