//! Layer replays for the traced run: each layer timed on its own
//! through its public functions, fed the retired stream of the
//! workload's programs.
//!
//! * `isa` — the functional emulator (`Machine::run`) on each program.
//! * `core` — both renamers replaying the retired stream through the
//!   `Renamer` trait in pipeline order (rename, operand read, writeback,
//!   non-speculative boundary, commit) with a fixed in-flight window and
//!   a periodic `squash_after` that re-renames the squashed tail.
//! * `mem` — `MemoryHierarchy` replaying the stream's instruction-line
//!   and data addresses on the timed path and on the warming path.
//!
//! Every replay checks its own counts and fails the run on a mismatch.

use crate::trace;
use regshare::core::Renamer;
use regshare::harness::{renamer_for, Scheme};
use regshare::isa::{Machine, Program, RegClass, Retired};
use regshare::mem::MemoryHierarchy;
use regshare::sim::SimConfig;
use std::collections::VecDeque;
use std::time::Instant;

/// Retired instructions replayed per program.
pub const REPLAY_LEN: u64 = 200_000;

/// Micro-ops in flight between rename and commit. At the replay's
/// register-file size this makes about three in ten rename attempts
/// stall, close to the share of cycles the detailed pipeline spends
/// rename-stalled on the `detailed` workload.
const WINDOW: usize = 48;

/// Squash the youngest [`SQUASH_DEPTH`] instructions every
/// [`SQUASH_EVERY`] newly renamed ones.
const SQUASH_EVERY: usize = 512;
const SQUASH_DEPTH: usize = 16;

/// Swept register-file size for the renamer replays (the headline
/// equal-area point).
const REPLAY_RF: usize = 64;

#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub emulated: u64,
    pub emulate_s: f64,
    pub renames: [u64; 2],
    pub rename_s: [f64; 2],
    pub attempts: [u64; 2],
    pub stalls: [u64; 2],
    pub reuses: u64,
    pub renamed_uops: u64,
    pub repairs: u64,
    pub mem_accesses: u64,
    pub timed_s: f64,
    pub warm_s: f64,
    pub l1d: (u64, u64),
    pub l2: (u64, u64),
    pub tlb: (u64, u64),
}

/// Replays every program through every layer, accumulating into one
/// [`Replay`]; the first failed self-check is returned as an error.
pub fn replay(programs: &[(Program, RegClass)]) -> Result<Replay, String> {
    let mut out = Replay::default();
    for (program, swept) in programs {
        let stream = trace::span("isa.record", || record(program))?;
        let emulated = trace::span("isa.emulate", || emulate(program, &mut out))?;
        if emulated != stream.len() as u64 {
            return Err(format!(
                "emulator retired {emulated} instructions, the recorded stream has {}",
                stream.len()
            ));
        }
        for (i, scheme) in [Scheme::Baseline, Scheme::Proposed].into_iter().enumerate() {
            trace::span("core.replay", || {
                rename_replay(&stream, scheme, *swept, i, &mut out)
            })?;
        }
        trace::span("mem.replay", || mem_replay(&stream, &mut out))?;
    }
    Ok(out)
}

fn record(program: &Program) -> Result<Vec<Retired>, String> {
    let mut stream = Vec::with_capacity(REPLAY_LEN as usize);
    Machine::new(program.clone())
        .run_observe(REPLAY_LEN, |r| stream.push(*r))
        .map_err(|e| format!("recording the retired stream: {e}"))?;
    Ok(stream)
}

fn emulate(program: &Program, out: &mut Replay) -> Result<u64, String> {
    let mut machine = Machine::new(program.clone());
    let started = Instant::now();
    machine
        .run(REPLAY_LEN)
        .map_err(|e| format!("functional emulation: {e}"))?;
    out.emulate_s += started.elapsed().as_secs_f64();
    out.emulated += machine.retired();
    Ok(machine.retired())
}

fn rename_replay(
    stream: &[Retired],
    scheme: Scheme,
    swept: RegClass,
    slot: usize,
    out: &mut Replay,
) -> Result<(), String> {
    let mut r = renamer_for(scheme, REPLAY_RF, swept);
    // In flight, oldest first: (uop seq, stream index of its instruction).
    let mut window: VecDeque<(u64, usize)> = VecDeque::with_capacity(WINDOW + 4);
    let retire_oldest = |r: &mut Box<dyn Renamer>, window: &mut VecDeque<(u64, usize)>| {
        let (seq, _) = window.pop_front().expect("retire from a non-empty window");
        r.on_operands_read(seq);
        r.on_writeback(seq);
        r.advance_nonspeculative(window.front().map_or(seq + 1, |&(s, _)| s));
        r.commit(seq);
    };
    let (mut seq, mut next, mut frontier) = (1u64, 0usize, 0usize);
    let (mut renames, mut uops_renamed, mut attempts, mut stalls) = (0u64, 0u64, 0u64, 0u64);
    let started = Instant::now();
    while next < stream.len() {
        if window.len() >= WINDOW {
            retire_oldest(&mut r, &mut window);
        }
        let inst = &stream[next];
        attempts += 1;
        let Some(uops) = r.rename(seq, inst.pc, &inst.inst) else {
            stalls += 1;
            if window.is_empty() {
                return Err(format!("{scheme:?} renamer stalled with nothing in flight"));
            }
            retire_oldest(&mut r, &mut window);
            continue;
        };
        for u in &uops {
            window.push_back((u.seq, next));
        }
        seq += uops.len() as u64;
        uops_renamed += uops.len() as u64;
        renames += 1;
        next += 1;
        if next > frontier {
            frontier = next;
            if frontier % SQUASH_EVERY == 0 && window.len() > SQUASH_DEPTH + 4 {
                // Squash after the last micro-op of the instruction
                // SQUASH_DEPTH uops from the young end, as a mispredicted
                // branch there would, then re-rename from the next one.
                let keep = window[window.len() - 1 - SQUASH_DEPTH].1;
                while window.back().is_some_and(|&(_, i)| i > keep) {
                    window.pop_back();
                }
                let last = window.back().expect("kept instructions remain").0;
                r.squash_after(last);
                next = keep + 1;
            }
        }
    }
    while !window.is_empty() {
        retire_oldest(&mut r, &mut window);
    }
    out.rename_s[slot] += started.elapsed().as_secs_f64();
    let stats = r.stats().clone();
    if stats.renamed != uops_renamed {
        return Err(format!(
            "{scheme:?} renamer counted {} renamed micro-ops, the replay made {uops_renamed}",
            stats.renamed
        ));
    }
    if stats.stalls != stalls {
        return Err(format!(
            "{scheme:?} renamer counted {} stalls, the replay saw {stalls}",
            stats.stalls
        ));
    }
    r.audit()
        .map_err(|e| format!("{scheme:?} renamer audit after replay: {e}"))?;
    out.renames[slot] += renames;
    out.attempts[slot] += attempts;
    out.stalls[slot] += stalls;
    if scheme == Scheme::Proposed {
        out.reuses += stats.reuses;
        out.renamed_uops += stats.renamed;
        out.repairs += stats.repairs;
    }
    Ok(())
}

fn mem_replay(stream: &[Retired], out: &mut Replay) -> Result<(), String> {
    let config = SimConfig::default().mem;
    // Instruction slots are 4 bytes and lines 64: touch the I-cache only
    // when the stream enters a new line, as the warming path does.
    // (byte PC, data address and store flag, whether a new line starts)
    type Access = (u64, Option<(u64, bool)>, bool);
    let mut accesses: Vec<Access> = Vec::with_capacity(stream.len());
    let mut line = None;
    for r in stream {
        let new_line = line != Some(r.pc >> 4);
        line = Some(r.pc >> 4);
        accesses.push((
            r.pc * 4,
            r.ea.map(|ea| (ea, r.inst.opcode.is_store())),
            new_line,
        ));
    }
    let mut timed = MemoryHierarchy::new(config);
    let started = Instant::now();
    for (now, &(pc, data, new_line)) in accesses.iter().enumerate() {
        if new_line {
            timed.access_inst(pc, now as u64);
        }
        if let Some((ea, store)) = data {
            timed.access_data(pc, ea, store, now as u64);
        }
    }
    out.timed_s += started.elapsed().as_secs_f64();
    let mut warm = MemoryHierarchy::new(config);
    let started = Instant::now();
    for &(pc, data, new_line) in &accesses {
        if new_line {
            warm.warm_inst(pc);
        }
        if let Some((ea, store)) = data {
            warm.warm_data(pc, ea, store);
        }
    }
    out.warm_s += started.elapsed().as_secs_f64();
    let lines = accesses.iter().filter(|a| a.2).count() as u64;
    let data = accesses.iter().filter(|a| a.1.is_some()).count() as u64;
    let hits = |h: &MemoryHierarchy| {
        [
            (h.l1i().hit_ratio().hits(), h.l1i().hit_ratio().total()),
            (h.l1d().hit_ratio().hits(), h.l1d().hit_ratio().total()),
            (h.l2().hit_ratio().hits(), h.l2().hit_ratio().total()),
            (h.tlb().hit_ratio().hits(), h.tlb().hit_ratio().total()),
        ]
    };
    let (t, w) = (hits(&timed), hits(&warm));
    if t[0].1 != lines || t[3].1 != data {
        return Err(format!(
            "memory replay counted {} fetches and {} translations, expected {lines} and {data}",
            t[0].1, t[3].1
        ));
    }
    if t != w {
        return Err(format!(
            "timed and warming paths left different cache state: {t:?} vs {w:?}"
        ));
    }
    out.mem_accesses += lines + data;
    let add = |acc: &mut (u64, u64), x: (u64, u64)| {
        acc.0 += x.0;
        acc.1 += x.1;
    };
    add(&mut out.l1d, t[1]);
    add(&mut out.l2, t[2]);
    add(&mut out.tlb, t[3]);
    Ok(())
}
