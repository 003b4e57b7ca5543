//! Happens-before race and hazard detection for the SIMT interpreter —
//! the `cuda-memcheck --tool racecheck` role for the paper's §2.1 bugs.
//!
//! The detector layers a vector-clock happens-before relation over warp
//! execution. Every thread (lane) has an epoch that its accesses advance;
//! every shared- or global-memory word remembers its last write and the
//! last read per thread. Synchronisation establishes ordering edges:
//!
//! * `__syncwarp(mask)` joins the clocks of the arriving lanes,
//! * `__syncthreads()` joins all threads of the block,
//! * `grid.sync()` joins the whole grid,
//! * program order within one lane orders that lane's own accesses.
//!
//! Those are the only edges, and each joins a warp, a block or the grid,
//! so the relation needs no dense n × n clock matrix. Thread t's view of
//! thread p is exact in three stores of O(34 n) words together:
//!
//! * p in t's warp: t's own 32-entry row, which only `__syncwarp` joins
//!   within the warp and barriers reset;
//! * p in t's block, another warp: p's epoch at the block's last
//!   barrier, since after it p's later epochs spread only through
//!   `__syncwarp`s of p's warp, which t is not in;
//! * p in another block: p's epoch at the last grid barrier, since after
//!   it they spread only through p's warp and p's block.
//!
//! A barrier therefore costs O(32 × participants), not O(participants × n).
//!
//! Crucially, *implicit Lockstep reconvergence is not an edge*: a kernel
//! that is only correct because Pascal-style scheduling happens to
//! serialise its fragments is flagged even when executed under
//! [`Scheduler::Lockstep`](crate::warp::Scheduler) — that is how latent
//! Volta bugs surface on a run that produces the right answer.
//!
//! Any read/write, write/read or write/write pair on the same address
//! with no ordering edge produces a [`Hazard`] naming both accesses
//! (block/warp/lane, PC, op mnemonic), the address, and the narrowest
//! sync that would order the pair. Pairs of atomics are exempt (atomics
//! order themselves), reads never race with reads.
//!
//! On top of the memory relation the detector checks *participation* of
//! the `_sync` warp collectives (§2.1's second pitfall family): a
//! shuffle/vote/ballot whose mask names a lane whose fragment has not
//! arrived at the instruction, or whose mask omits a lane that is
//! executing it (the hard-coded `0xffff` in a converged full warp), is
//! reported as a hazard with the offending mask bits.
//!
//! The checker is opt-in ([`crate::Grid::run_racechecked`],
//! [`crate::ExecEnv::with_racecheck`]) and costs nothing when absent: the
//! interpreter hooks are `Option` checks. Its counts live in the
//! [`RacecheckReport`] of the run it checked.

use crate::ir::FULL_MASK;
use crate::warp::WARP_SIZE;
use std::collections::HashMap;
use std::fmt;

/// Distinct hazard sites kept in a report: further occurrences of known
/// sites still count, brand-new sites beyond the cap only bump the totals.
const MAX_RECORDS: usize = 64;

/// What a memory access did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write; pairs of atomics never race.
    Atomic,
}

/// Identity of one executing lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Tid {
    pub block: u32,
    pub warp: u32,
    pub lane: u32,
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.w{}.l{}", self.block, self.warp, self.lane)
    }
}

/// One recorded memory access (one side of a hazard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub tid: Tid,
    pub pc: usize,
    /// Op mnemonic, e.g. `st.shared` (see [`crate::ir::op_mnemonic`]).
    pub op: &'static str,
    pub kind: AccessKind,
    /// Epoch in the owning thread's clock.
    time: u32,
}

/// Memory space of a hazard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Shared memory of one block.
    Shared {
        block: u32,
    },
    Global,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Shared { .. } => write!(f, "shared"),
            MemSpace::Global => write!(f, "global"),
        }
    }
}

/// Race flavour (prior access → current access).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaceKind {
    /// Unordered write observed by a later read.
    WriteRead,
    /// Write unordered with an earlier read.
    ReadWrite,
    /// Two unordered writes.
    WriteWrite,
}

impl RaceKind {
    pub fn name(self) -> &'static str {
        match self {
            RaceKind::WriteRead => "write-read",
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteWrite => "write-write",
        }
    }
}

/// The narrowest synchronisation that would order a racing pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncScope {
    /// Same warp: `__syncwarp()` between the accesses suffices.
    SyncWarp,
    /// Same block, different warps: `__syncthreads()`.
    SyncThreads,
    /// Different blocks: a grid-wide barrier.
    GridSync,
}

impl SyncScope {
    pub fn fix(self) -> &'static str {
        match self {
            SyncScope::SyncWarp => "__syncwarp()",
            SyncScope::SyncThreads => "__syncthreads()",
            SyncScope::GridSync => "a grid-wide barrier (grid.sync() or the lock-free barrier)",
        }
    }
}

/// One detected hazard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// Unordered memory access pair on the same address.
    Race {
        kind: RaceKind,
        space: MemSpace,
        addr: u32,
        prior: Access,
        current: Access,
        /// Narrowest sync that would order the pair.
        suggested: SyncScope,
    },
    /// A `_sync` collective whose mask names lanes whose fragments have
    /// not reached the instruction — the §2.1 stale-mask pitfall.
    CollectiveMissingLanes {
        op: &'static str,
        pc: usize,
        block: u32,
        warp: u32,
        mask: u32,
        exec_mask: u32,
        /// `mask & !exec_mask`: named but absent lanes.
        missing: u32,
    },
    /// A `_sync` collective executed by lanes its own mask omits — the
    /// paper's hard-coded `0xffff` in a converged full warp.
    CollectiveOmitsCaller {
        op: &'static str,
        pc: usize,
        block: u32,
        warp: u32,
        mask: u32,
        exec_mask: u32,
        /// `exec_mask & !mask`: executing but unnamed lanes.
        omitted: u32,
    },
}

impl Hazard {
    /// One-line human-readable diagnosis.
    pub fn describe(&self) -> String {
        match self {
            Hazard::Race {
                kind,
                space,
                addr,
                prior,
                current,
                suggested,
            } => format!(
                "{} race on {space}[{addr}]: {} by {} @pc{} vs {} by {} @pc{} \
                 — no ordering edge; narrowest fix: {}",
                kind.name(),
                prior.op,
                prior.tid,
                prior.pc,
                current.op,
                current.tid,
                current.pc,
                suggested.fix()
            ),
            Hazard::CollectiveMissingLanes {
                op,
                pc,
                block,
                warp,
                mask,
                exec_mask,
                missing,
            } => format!(
                "participation hazard: {op} @pc{pc} (b{block}.w{warp}) mask {mask:#010x} \
                 names lanes {missing:#010x} whose fragments have not arrived \
                 (executing: {exec_mask:#010x}) — compute the mask with __activemask() \
                 or sync the warp first"
            ),
            Hazard::CollectiveOmitsCaller {
                op,
                pc,
                block,
                warp,
                mask,
                exec_mask: _,
                omitted,
            } => format!(
                "participation hazard: {op} @pc{pc} (b{block}.w{warp}) executed by lanes \
                 {omitted:#010x} that mask {mask:#010x} omits — result undefined for \
                 those lanes; use __activemask()"
            ),
        }
    }
}

/// A deduplicated hazard site with its occurrence count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HazardRecord {
    pub hazard: Hazard,
    /// Occurrences of this site (e.g. 16 lanes hitting the same racing
    /// PC pair count once per lane).
    pub count: u64,
}

impl HazardRecord {
    pub fn describe(&self) -> String {
        format!("{} [x{}]", self.hazard.describe(), self.count)
    }
}

/// Final report of one checked execution.
#[derive(Clone, Debug, Default)]
pub struct RacecheckReport {
    /// Distinct hazard sites, in discovery order.
    pub records: Vec<HazardRecord>,
    /// Total hazard occurrences (>= records.len()).
    pub total: u64,
    /// Occurrences of shared-memory races.
    pub shared_races: u64,
    /// Occurrences of global-memory races.
    pub global_races: u64,
    /// Occurrences of `_sync` collective participation hazards, one per
    /// offending lane.
    pub collective: u64,
    /// True when the record cap stopped new sites from being recorded.
    pub truncated: bool,
}

impl RacecheckReport {
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    fn emit_trace(&self) {
        use telemetry::json::JsonObject;
        for r in &self.records {
            let mut o = JsonObject::new();
            o.str("type", "hazard");
            match &r.hazard {
                Hazard::Race {
                    kind,
                    space,
                    addr,
                    prior,
                    current,
                    suggested,
                } => {
                    o.str("class", "race")
                        .str("kind", kind.name())
                        .str("space", &space.to_string())
                        .u64("addr", *addr as u64)
                        .str("prior_thread", &prior.tid.to_string())
                        .u64("prior_pc", prior.pc as u64)
                        .str("prior_op", prior.op)
                        .str("thread", &current.tid.to_string())
                        .u64("pc", current.pc as u64)
                        .str("op", current.op)
                        .str("fix", suggested.fix());
                }
                Hazard::CollectiveMissingLanes {
                    op,
                    pc,
                    block,
                    warp,
                    mask,
                    exec_mask,
                    missing,
                } => {
                    o.str("class", "collective_missing_lanes")
                        .str("op", op)
                        .u64("pc", *pc as u64)
                        .u64("block", *block as u64)
                        .u64("warp", *warp as u64)
                        .u64("mask", *mask as u64)
                        .u64("exec_mask", *exec_mask as u64)
                        .u64("missing", *missing as u64);
                }
                Hazard::CollectiveOmitsCaller {
                    op,
                    pc,
                    block,
                    warp,
                    mask,
                    exec_mask,
                    omitted,
                } => {
                    o.str("class", "collective_omits_caller")
                        .str("op", op)
                        .u64("pc", *pc as u64)
                        .u64("block", *block as u64)
                        .u64("warp", *warp as u64)
                        .u64("mask", *mask as u64)
                        .u64("exec_mask", *exec_mask as u64)
                        .u64("omitted", *omitted as u64);
                }
            }
            o.u64("count", r.count);
            telemetry::sink::emit(&o);
        }
        let mut o = JsonObject::new();
        o.str("type", "racecheck")
            .u64("hazards", self.total)
            .u64("distinct", self.records.len() as u64)
            .u64("shared_races", self.shared_races)
            .u64("global_races", self.global_races)
            .u64("collective", self.collective)
            .bool("truncated", self.truncated);
        telemetry::sink::emit(&o);
    }
}

impl fmt::Display for RacecheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "racecheck: 0 hazards");
        }
        writeln!(
            f,
            "racecheck: {} hazards at {} distinct sites{}",
            self.total,
            self.records.len(),
            if self.truncated {
                " (record list truncated)"
            } else {
                ""
            }
        )?;
        for r in &self.records {
            writeln!(f, "  {}", r.describe())?;
        }
        Ok(())
    }
}

/// Dedup key: hazards are grouped by site (PC pair / collective PC), not
/// by lane or address, so one missing sync shows up once with a count.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SiteKey {
    Race {
        kind: RaceKind,
        shared: bool,
        prior_pc: usize,
        current_pc: usize,
    },
    Missing {
        pc: usize,
    },
    Omits {
        pc: usize,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum CellKey {
    Shared { block: u32, addr: u32 },
    Global { addr: u32 },
}

/// Per-word access history.
#[derive(Default)]
struct Cell {
    write: Option<Access>,
    /// Latest read per thread (flat id), kept small: most words are
    /// touched by a handful of lanes.
    reads: Vec<(u32, Access)>,
}

/// Collective call site handed to the participation checks.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveSite {
    pub block: u32,
    pub warp: u32,
    pub pc: usize,
    pub op: &'static str,
}

/// The happens-before checker. One instance observes one execution
/// (single warp, block, or grid).
pub struct Racecheck {
    threads_per_block: u32,
    /// `thread * WARP_SIZE + lane`: the thread's view of each lane of its
    /// own warp, its own epoch at its own lane. Only `__syncwarp` joins
    /// rows; a barrier resets every row of a warp to the warp's join.
    warp_clocks: Vec<u32>,
    /// Each thread's epoch at its block's last barrier — every other
    /// warp of the block has seen exactly this much of it.
    block_clocks: Vec<u32>,
    /// Each thread's epoch at the last grid barrier — every other block
    /// has seen exactly this much of it.
    grid_clocks: Vec<u32>,
    cells: HashMap<CellKey, Cell>,
    /// Index of each known site in `report.records`.
    sites: HashMap<SiteKey, usize>,
    report: RacecheckReport,
}

impl Racecheck {
    /// Checker for a grid of `n_blocks` × `threads_per_block` threads.
    pub fn new(n_blocks: u32, threads_per_block: u32) -> Self {
        assert!(threads_per_block > 0 && threads_per_block.is_multiple_of(WARP_SIZE as u32));
        let n = (n_blocks as usize) * (threads_per_block as usize);
        Racecheck {
            threads_per_block,
            warp_clocks: vec![0; n * WARP_SIZE],
            block_clocks: vec![0; n],
            grid_clocks: vec![0; n],
            cells: HashMap::new(),
            sites: HashMap::new(),
            report: RacecheckReport::default(),
        }
    }

    /// Checker for one bare warp (`Warp::step` driven directly).
    pub fn for_single_warp() -> Self {
        Racecheck::new(1, WARP_SIZE as u32)
    }

    /// Hazard occurrences so far.
    pub fn hazard_total(&self) -> u64 {
        self.report.total
    }

    /// Consume the checker into its report. Trace lines (one per site
    /// plus a summary) are emitted now when a sink is active.
    pub fn finish(self) -> RacecheckReport {
        if telemetry::sink::trace_active() {
            self.report.emit_trace();
        }
        self.report
    }

    #[inline]
    fn flat(&self, t: Tid) -> usize {
        self.warp_base(t.block, t.warp) + t.lane as usize
    }

    /// Thread `t`'s view of thread `p`'s epoch: the latest epoch of `p`
    /// that happened-before `t`'s current event (`t`'s own epoch when
    /// `p == t`).
    #[inline]
    fn view(&self, t: Tid, p: Tid) -> u32 {
        let flat_p = self.flat(p);
        if p.block != t.block {
            self.grid_clocks[flat_p]
        } else if p.warp != t.warp {
            self.block_clocks[flat_p]
        } else {
            self.warp_clocks[self.flat(t) * WARP_SIZE + p.lane as usize]
        }
    }

    /// `prior` happened-before the current event of thread `t`? A lane's
    /// own earlier accesses always are: its epoch only grows.
    #[inline]
    fn ordered(&self, prior: &Access, t: Tid) -> bool {
        self.view(t, prior.tid) >= prior.time
    }

    fn suggest(&self, a: Tid, b: Tid) -> SyncScope {
        if a.block != b.block {
            SyncScope::GridSync
        } else if a.warp != b.warp {
            SyncScope::SyncThreads
        } else {
            SyncScope::SyncWarp
        }
    }

    fn record(&mut self, key: SiteKey, hazard: impl FnOnce() -> Hazard, occurrences: u64) {
        let r = &mut self.report;
        r.total += occurrences;
        *match key {
            SiteKey::Race { shared: true, .. } => &mut r.shared_races,
            SiteKey::Race { shared: false, .. } => &mut r.global_races,
            SiteKey::Missing { .. } | SiteKey::Omits { .. } => &mut r.collective,
        } += occurrences;
        if let Some(&i) = self.sites.get(&key) {
            r.records[i].count += occurrences;
            return;
        }
        if r.records.len() >= MAX_RECORDS {
            r.truncated = true;
            return;
        }
        self.sites.insert(key, r.records.len());
        r.records.push(HazardRecord {
            hazard: hazard(),
            count: occurrences,
        });
    }

    /// Observe one shared-memory access by one lane.
    pub fn on_shared(&mut self, t: Tid, addr: u32, pc: usize, op: &'static str, kind: AccessKind) {
        let key = CellKey::Shared {
            block: t.block,
            addr,
        };
        self.on_access(
            key,
            MemSpace::Shared { block: t.block },
            t,
            addr,
            pc,
            op,
            kind,
        );
    }

    /// Observe one global-memory access by one lane.
    pub fn on_global(&mut self, t: Tid, addr: u32, pc: usize, op: &'static str, kind: AccessKind) {
        let key = CellKey::Global { addr };
        self.on_access(key, MemSpace::Global, t, addr, pc, op, kind);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_access(
        &mut self,
        key: CellKey,
        space: MemSpace,
        t: Tid,
        addr: u32,
        pc: usize,
        op: &'static str,
        kind: AccessKind,
    ) {
        let flat = self.flat(t);
        // Advance this thread's epoch; the access carries the new time.
        let epoch = &mut self.warp_clocks[flat * WARP_SIZE + t.lane as usize];
        *epoch += 1;
        let access = Access {
            tid: t,
            pc,
            op,
            kind,
            time: *epoch,
        };
        // Snapshot the cell's prior state and apply the update first, so
        // the `&mut self.cells` borrow ends before the ordering checks
        // (which need `record(&mut self)`).
        let cell = self.cells.entry(key).or_default();
        let prior_write = cell.write;
        let mut prior_reads: Vec<Access> = Vec::new();
        match kind {
            AccessKind::Read => match cell.reads.iter_mut().find(|(f, _)| *f == flat as u32) {
                Some(slot) => slot.1 = access,
                None => cell.reads.push((flat as u32, access)),
            },
            AccessKind::Write | AccessKind::Atomic => {
                prior_reads.extend(cell.reads.iter().map(|&(_, r)| r));
                cell.write = Some(access);
                cell.reads.clear();
            }
        }
        let shared = matches!(space, MemSpace::Shared { .. });
        let race = |s: &mut Self, race_kind: RaceKind, prior: Access| {
            let key = SiteKey::Race {
                kind: race_kind,
                shared,
                prior_pc: prior.pc,
                current_pc: pc,
            };
            let suggested = s.suggest(prior.tid, t);
            s.record(
                key,
                || Hazard::Race {
                    kind: race_kind,
                    space,
                    addr,
                    prior,
                    current: access,
                    suggested,
                },
                1,
            );
        };
        match kind {
            AccessKind::Read => {
                if let Some(w) = prior_write {
                    if !self.ordered(&w, t) {
                        race(self, RaceKind::WriteRead, w);
                    }
                }
            }
            AccessKind::Write | AccessKind::Atomic => {
                if let Some(w) = prior_write {
                    let both_atomic = w.kind == AccessKind::Atomic && kind == AccessKind::Atomic;
                    if !both_atomic && !self.ordered(&w, t) {
                        race(self, RaceKind::WriteWrite, w);
                    }
                }
                for r in prior_reads {
                    if !self.ordered(&r, t) {
                        race(self, RaceKind::ReadWrite, r);
                    }
                }
            }
        }
    }

    /// Check the participation mask of a shuffle/vote/ballot.
    pub fn on_collective(&mut self, site: CollectiveSite, exec_mask: u32, mask: u32) {
        let missing = mask & !exec_mask;
        if missing != 0 {
            self.record(
                SiteKey::Missing { pc: site.pc },
                || Hazard::CollectiveMissingLanes {
                    op: site.op,
                    pc: site.pc,
                    block: site.block,
                    warp: site.warp,
                    mask,
                    exec_mask,
                    missing,
                },
                missing.count_ones() as u64,
            );
        }
        self.check_omits(site, exec_mask, mask);
    }

    /// Check a `__syncwarp(mask)` call site. Only the executing-but-
    /// unnamed direction is a hazard here: lanes the mask names may
    /// legitimately arrive at the barrier later.
    pub fn on_syncwarp_exec(&mut self, site: CollectiveSite, exec_mask: u32, mask: u32) {
        self.check_omits(site, exec_mask, mask);
    }

    fn check_omits(&mut self, site: CollectiveSite, exec_mask: u32, mask: u32) {
        let omitted = exec_mask & !mask;
        if omitted != 0 {
            self.record(
                SiteKey::Omits { pc: site.pc },
                || Hazard::CollectiveOmitsCaller {
                    op: site.op,
                    pc: site.pc,
                    block: site.block,
                    warp: site.warp,
                    mask,
                    exec_mask,
                    omitted,
                },
                omitted.count_ones() as u64,
            );
        }
    }

    /// Flat id of lane 0 of `warp` in `block`.
    #[inline]
    fn warp_base(&self, block: u32, warp: u32) -> usize {
        (block * self.threads_per_block + warp * WARP_SIZE as u32) as usize
    }

    /// A `__syncwarp` group released: the arrived lanes of `mask` in
    /// (`block`, `warp`) are now mutually ordered.
    pub fn on_syncwarp_release(&mut self, block: u32, warp: u32, mask: u32) {
        let base = self.warp_base(block, warp);
        join_warp(&mut self.warp_clocks, base, mask);
    }

    /// A `__syncthreads()` barrier completed in `block`: each warp's rows
    /// join, and the join is the block's view of that warp from now on.
    pub fn on_syncthreads(&mut self, block: u32) {
        for warp in 0..self.threads_per_block / WARP_SIZE as u32 {
            let base = self.warp_base(block, warp);
            let joined = join_warp(&mut self.warp_clocks, base, FULL_MASK);
            self.block_clocks[base..base + WARP_SIZE].copy_from_slice(&joined);
        }
    }

    /// A grid-wide barrier completed: every block's barrier, then the
    /// grid's view of every thread is its block's.
    pub fn on_grid_sync(&mut self) {
        let blocks = self.block_clocks.len() / self.threads_per_block as usize;
        for block in 0..blocks as u32 {
            self.on_syncthreads(block);
        }
        self.grid_clocks.copy_from_slice(&self.block_clocks);
    }
}

/// Join the `warp_clocks` rows of the lanes in `mask` of the warp whose
/// lane 0 is thread `base` (elementwise max), write the join back to
/// each of them and return it.
fn join_warp(warp_clocks: &mut [u32], base: usize, mask: u32) -> [u32; WARP_SIZE] {
    let rows = &mut warp_clocks[base * WARP_SIZE..(base + WARP_SIZE) * WARP_SIZE];
    let mut joined = [0u32; WARP_SIZE];
    for (l, row) in rows.chunks_exact(WARP_SIZE).enumerate() {
        if mask & (1 << l) != 0 {
            for (acc, &v) in joined.iter_mut().zip(row) {
                *acc = (*acc).max(v);
            }
        }
    }
    for (l, row) in rows.chunks_exact_mut(WARP_SIZE).enumerate() {
        if mask & (1 << l) != 0 {
            row.copy_from_slice(&joined);
        }
    }
    joined
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(lane: u32) -> Tid {
        Tid {
            block: 0,
            warp: 0,
            lane,
        }
    }

    #[test]
    fn unordered_write_then_read_is_flagged() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_shared(tid(0), 5, 3, "st.shared", AccessKind::Write);
        rc.on_shared(tid(1), 5, 7, "ld.shared", AccessKind::Read);
        let r = rc.finish();
        assert_eq!(r.total, 1);
        match &r.records[0].hazard {
            Hazard::Race {
                kind,
                addr,
                prior,
                current,
                suggested,
                ..
            } => {
                assert_eq!(*kind, RaceKind::WriteRead);
                assert_eq!(*addr, 5);
                assert_eq!(prior.pc, 3);
                assert_eq!(current.pc, 7);
                assert_eq!(*suggested, SyncScope::SyncWarp);
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn syncwarp_edge_orders_the_pair() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_shared(tid(0), 5, 3, "st.shared", AccessKind::Write);
        rc.on_syncwarp_release(0, 0, 0b11);
        rc.on_shared(tid(1), 5, 7, "ld.shared", AccessKind::Read);
        assert!(rc.finish().is_clean());
    }

    #[test]
    fn same_lane_program_order_is_always_ordered() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_shared(tid(4), 9, 1, "st.shared", AccessKind::Write);
        rc.on_shared(tid(4), 9, 2, "ld.shared", AccessKind::Read);
        rc.on_shared(tid(4), 9, 3, "st.shared", AccessKind::Write);
        assert!(rc.finish().is_clean());
    }

    #[test]
    fn read_then_unordered_write_is_flagged_as_read_write() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_shared(tid(9), 2, 8, "ld.shared", AccessKind::Read);
        rc.on_shared(tid(0), 2, 4, "st.shared", AccessKind::Write);
        let r = rc.finish();
        assert_eq!(r.total, 1);
        assert!(matches!(
            r.records[0].hazard,
            Hazard::Race {
                kind: RaceKind::ReadWrite,
                ..
            }
        ));
    }

    #[test]
    fn atomic_pairs_are_exempt_but_atomic_vs_plain_is_not() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_global(tid(0), 0, 1, "atom.global.add", AccessKind::Atomic);
        rc.on_global(tid(1), 0, 1, "atom.global.add", AccessKind::Atomic);
        assert_eq!(rc.hazard_total(), 0);
        rc.on_global(tid(2), 0, 2, "ld.global", AccessKind::Read);
        assert_eq!(rc.hazard_total(), 1, "atomic write vs plain read races");
    }

    #[test]
    fn cross_warp_race_suggests_syncthreads_cross_block_suggests_grid() {
        let mut rc = Racecheck::new(2, 64);
        let w1 = Tid {
            block: 0,
            warp: 1,
            lane: 0,
        };
        rc.on_shared(tid(0), 1, 1, "st.shared", AccessKind::Write);
        rc.on_shared(w1, 1, 2, "ld.shared", AccessKind::Read);
        let b1 = Tid {
            block: 1,
            warp: 0,
            lane: 0,
        };
        rc.on_global(tid(0), 3, 5, "st.global", AccessKind::Write);
        rc.on_global(b1, 3, 6, "ld.global", AccessKind::Read);
        let r = rc.finish();
        let scopes: Vec<SyncScope> = r
            .records
            .iter()
            .map(|rec| match rec.hazard {
                Hazard::Race { suggested, .. } => suggested,
                _ => panic!("expected races"),
            })
            .collect();
        assert_eq!(scopes, vec![SyncScope::SyncThreads, SyncScope::GridSync]);
    }

    #[test]
    fn syncthreads_joins_the_whole_block_transitively() {
        let mut rc = Racecheck::new(1, 64);
        let w1 = Tid {
            block: 0,
            warp: 1,
            lane: 3,
        };
        rc.on_shared(tid(0), 0, 1, "st.shared", AccessKind::Write);
        rc.on_syncthreads(0);
        rc.on_shared(w1, 0, 9, "ld.shared", AccessKind::Read);
        assert!(rc.finish().is_clean());
    }

    #[test]
    fn grid_sync_orders_cross_block_accesses() {
        let mut rc = Racecheck::new(2, 32);
        let b1 = Tid {
            block: 1,
            warp: 0,
            lane: 0,
        };
        rc.on_global(tid(0), 7, 1, "st.global", AccessKind::Write);
        rc.on_grid_sync();
        rc.on_global(b1, 7, 2, "ld.global", AccessKind::Read);
        assert!(rc.finish().is_clean());
    }

    #[test]
    fn sites_dedup_with_counts() {
        let mut rc = Racecheck::for_single_warp();
        for lane in 1..17 {
            rc.on_shared(tid(0), lane, 3, "st.shared", AccessKind::Write);
            rc.on_shared(tid(lane), lane, 7, "ld.shared", AccessKind::Read);
        }
        let r = rc.finish();
        assert_eq!(r.records.len(), 1, "one site");
        assert_eq!(r.total, 16, "sixteen occurrences");
        assert_eq!(r.records[0].count, 16);
    }

    #[test]
    fn max_records_truncates_sites_but_counts_all() {
        let mut rc = Racecheck::for_single_warp();
        let sites = MAX_RECORDS as u32 + 1;
        for i in 0..sites {
            // Distinct PCs → distinct sites.
            rc.on_shared(tid(0), i, (10 + i) as usize, "st.shared", AccessKind::Write);
            rc.on_shared(tid(1), i, (100 + i) as usize, "ld.shared", AccessKind::Read);
        }
        let r = rc.finish();
        assert_eq!(r.records.len(), MAX_RECORDS);
        assert_eq!(r.total, sites as u64);
        assert!(r.truncated);
    }

    #[test]
    fn collective_mask_checks_both_directions() {
        let mut rc = Racecheck::for_single_warp();
        let site = CollectiveSite {
            block: 0,
            warp: 0,
            pc: 4,
            op: "shfl.xor.sync",
        };
        // Converged full warp, mask 0xffff: upper half executes unnamed.
        rc.on_collective(site, 0xffff_ffff, 0x0000_ffff);
        // Half-warp fragment, full mask: 16 named lanes absent.
        rc.on_collective(CollectiveSite { pc: 9, ..site }, 0x0000_ffff, 0xffff_ffff);
        let r = rc.finish();
        assert_eq!(r.records.len(), 2);
        let kinds: Vec<bool> = r
            .records
            .iter()
            .map(|rec| matches!(rec.hazard, Hazard::CollectiveOmitsCaller { .. }))
            .collect();
        assert_eq!(kinds, vec![true, false]);
        assert_eq!(r.total, 32, "16 omitted + 16 missing lanes");
    }

    #[test]
    fn syncwarp_exec_only_flags_omitted_callers() {
        let mut rc = Racecheck::for_single_warp();
        let site = CollectiveSite {
            block: 0,
            warp: 0,
            pc: 2,
            op: "syncwarp",
        };
        // Mask naming absent lanes is fine — they may arrive later.
        rc.on_syncwarp_exec(site, 0x0000_ffff, 0xffff_ffff);
        assert_eq!(rc.hazard_total(), 0);
        // Executing lanes the mask omits are UB.
        rc.on_syncwarp_exec(site, 0xffff_ffff, 0x0000_ffff);
        assert_eq!(rc.hazard_total(), 16);
    }

    /// The dense n × n vector clocks the three stores replace: row `t`
    /// is thread `t`'s view of every thread.
    struct DenseClocks {
        n: usize,
        clocks: Vec<u32>,
    }

    impl DenseClocks {
        fn tick(&mut self, t: usize) {
            self.clocks[t * self.n + t] += 1;
        }

        /// Join the clocks of `threads` (flat ids): elementwise max,
        /// distributed back to every participant.
        fn join(&mut self, threads: &[usize]) {
            let n = self.n;
            let mut joined = vec![0; n];
            for &t in threads {
                for (acc, &v) in joined.iter_mut().zip(&self.clocks[t * n..(t + 1) * n]) {
                    *acc = (*acc).max(v);
                }
            }
            for &t in threads {
                self.clocks[t * n..(t + 1) * n].copy_from_slice(&joined);
            }
        }
    }

    /// Property: after every access and every warp, block and grid
    /// barrier of a random event sequence over several blocks, each
    /// thread's view of each thread equals the dense vector clock's.
    #[test]
    fn clock_views_match_dense_vector_clocks() {
        const BLOCKS: u32 = 3;
        const TPB: u32 = 64;
        let n = (BLOCKS * TPB) as usize;
        let tids: Vec<Tid> = (0..n as u32)
            .map(|f| Tid {
                block: f / TPB,
                warp: f % TPB / WARP_SIZE as u32,
                lane: f % WARP_SIZE as u32,
            })
            .collect();
        testkit::check("clock_views_match_dense_vector_clocks", 24, |g| {
            let mut rc = Racecheck::new(BLOCKS, TPB);
            let mut dense = DenseClocks {
                n,
                clocks: vec![0; n * n],
            };
            for _ in 0..g.usize_in(20..100) {
                let block = g.u8_in(0..BLOCKS as u8) as u32;
                let warp = g.u8_in(0..(TPB / WARP_SIZE as u32) as u8) as u32;
                let base = (block * TPB + warp * WARP_SIZE as u32) as usize;
                match g.u8_in(0..10) {
                    0..=5 => {
                        let lane = g.u8_in(0..WARP_SIZE as u8) as u32;
                        let t = Tid { block, warp, lane };
                        let addr = g.u8_in(0..8) as u32;
                        let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic]
                            [g.usize_in(0..3)];
                        if g.u8_in(0..2) == 0 {
                            rc.on_shared(t, addr, 1, "st.shared", kind);
                        } else {
                            rc.on_global(t, addr, 1, "st.global", kind);
                        }
                        dense.tick(base + lane as usize);
                    }
                    6..=7 => {
                        let mask = g.any_u64() as u32;
                        rc.on_syncwarp_release(block, warp, mask);
                        let lanes: Vec<usize> = (0..WARP_SIZE)
                            .filter(|&l| mask & (1 << l) != 0)
                            .map(|l| base + l)
                            .collect();
                        dense.join(&lanes);
                    }
                    8 => {
                        rc.on_syncthreads(block);
                        let b = (block * TPB) as usize;
                        dense.join(&(b..b + TPB as usize).collect::<Vec<_>>());
                    }
                    _ => {
                        rc.on_grid_sync();
                        dense.join(&(0..n).collect::<Vec<_>>());
                    }
                }
                for (i, &t) in tids.iter().enumerate() {
                    for (j, &p) in tids.iter().enumerate() {
                        assert_eq!(rc.view(t, p), dense.clocks[i * n + j], "view of {p} by {t}");
                    }
                }
            }
        });
    }

    #[test]
    fn report_displays_fix_and_counts() {
        let mut rc = Racecheck::for_single_warp();
        rc.on_shared(tid(0), 5, 3, "st.shared", AccessKind::Write);
        rc.on_shared(tid(1), 5, 7, "ld.shared", AccessKind::Read);
        let r = rc.finish();
        let text = r.to_string();
        assert!(text.contains("write-read race"), "{text}");
        assert!(text.contains("__syncwarp()"), "{text}");
        assert!(!r.is_clean());
    }
}
