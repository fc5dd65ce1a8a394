//! Bit-residency (ACE interval) recording for the static AVF estimator
//! and the campaign prune filter.
//!
//! During one golden (un-faulted) run the pipeline and memory system feed
//! the trackers here with allocate / read / write / free / evict events for
//! every injectable structure. A bit is **ACE** (architecturally correct
//! execution required) from the cycle it is written until the last cycle
//! it is read before being overwritten, freed, evicted, or abandoned —
//! dead and free entries are un-ACE. Summing those intervals gives
//! live-bit-cycles per structure, and
//! `AVF ≈ live-bit-cycles / (bits × cycles)` (Mukherjee et al., MICRO'03).
//!
//! Granularity is one *entry* (a physical register, a queue entry, a cache
//! line): every bit of a live entry is counted live, so the estimate is an
//! upper bound on true bit-level ACE-ness. Closing events:
//!
//! * **register file** — written at writeback, read at issue, closed at
//!   retirement `free` (or when a squash recovery frees the register);
//! * **ROB / IQ / LSQ entries** — tracked per slot, tagged with the uop's
//!   global sequence number; an entry is live from dispatch to the
//!   commit/issue event that reads it, and squashed entries are discarded
//!   un-ACE;
//! * **cache lines** — live from fill to last use for clean lines (the
//!   eviction never reads them), and from fill to eviction for dirty lines
//!   (the writeback reads the whole line).
//!
//! Beyond the aggregate totals, the trackers can record every closed
//! interval per entry ([`CoreResidency::set_record_windows`]): logged in
//! the order they close, then grouped once, at the end of the run, into
//! one flat [`WindowTable`] per tracked array, which the pipeline moves
//! into a [`LivenessMap`], the queryable structure behind campaign
//! pruning (structures that are fields of the same entries share a
//! table). The map's windows are *danger*
//! windows, not ACE windows: they must cover every cycle at which a flip
//! could still be observed by any read — including squashed-but-occupied
//! queue entries (cross-checked at commit/issue until the squash) — so
//! occupancy closes at the squash cycle here even though the squashed
//! span is discarded from the ACE accumulators.
//!
//! Trackers are deliberately *not* part of [`crate::Sim::state_eq`]: they
//! observe execution without feeding back into it.

use crate::regs::{PhysReg, RegisterFile};
use crate::Structure;
use std::ops::Range;
use std::sync::Arc;

/// One open write→last-read interval.
#[derive(Debug, Clone, Copy)]
struct Open {
    start: u64,
    last_read: u64,
}

impl Open {
    fn span(&self) -> u64 {
        self.last_read.saturating_sub(self.start)
    }
}

/// One closed, inclusive `[start, end]` cycle window during which a flip
/// of the entry's bits can still influence execution. A fault is applied
/// *before* its cycle executes, so a flip at exactly `end` is observed by
/// that cycle's read and both bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveWindow {
    /// First cycle at which a flip is observable.
    pub start: u64,
    /// Last cycle at which a flip is observable (inclusive).
    pub end: u64,
}

/// Counting sort of log positions by entry. Returns per-entry offsets
/// (`entries + 1` of them, widened to cover every logged entry) and the
/// log positions grouped by entry, each entry's run in log order and then
/// stably sorted by `start` where it is not already.
fn group_by_entry(
    entries: usize,
    keys: &[u32],
    start: impl Fn(usize) -> u64,
) -> (Vec<u32>, Vec<u32>) {
    let total = u32::try_from(keys.len()).expect("a liveness log holds fewer than 2^32 windows");
    let n = keys
        .iter()
        .map(|&k| k as usize + 1)
        .max()
        .unwrap_or(0)
        .max(entries);
    let mut offsets = vec![0u32; n + 1];
    for &k in keys {
        offsets[k as usize + 1] += 1;
    }
    for e in 0..n {
        offsets[e + 1] += offsets[e];
    }
    debug_assert_eq!(offsets[n], total);
    let mut next = offsets.clone();
    let mut order = vec![0u32; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        let at = &mut next[k as usize];
        order[*at as usize] = i as u32;
        *at += 1;
    }
    for e in 0..n {
        let run = &mut order[offsets[e] as usize..offsets[e + 1] as usize];
        if !run.is_sorted_by_key(|&i| start(i as usize)) {
            run.sort_by_key(|&i| start(i as usize));
        }
    }
    (offsets, order)
}

/// Per-entry danger windows of one structure in one flat table: entry
/// `e`'s windows are `windows[offsets[e]..offsets[e + 1]]`, sorted by
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WindowTable {
    offsets: Vec<u32>,
    windows: Vec<LiveWindow>,
    /// Static demand mask of each window, parallel to `windows`: a clear
    /// bit is provably unobservable for the whole window. `None` when the
    /// structure carries no static annotations.
    masks: Option<Vec<u64>>,
}

impl WindowTable {
    /// Entries the table covers.
    fn entries(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Positions of one entry's windows, or `None` past the last entry.
    fn range(&self, entry: usize) -> Option<Range<usize>> {
        (entry < self.entries())
            .then(|| self.offsets[entry] as usize..self.offsets[entry + 1] as usize)
    }

    /// One entry's windows, or `None` past the last entry.
    fn windows(&self, entry: usize) -> Option<&[LiveWindow]> {
        self.range(entry).map(|r| &self.windows[r])
    }

    /// A table from per-entry window lists (and per-entry demand masks,
    /// where a window beyond its entry's mask list demands every bit),
    /// covering at least `entries` entries.
    #[cfg(test)]
    fn from_lists(
        entries: usize,
        lists: Vec<Vec<LiveWindow>>,
        masks: Option<Vec<Vec<u64>>>,
    ) -> WindowTable {
        let mut log = WindowLog {
            masks: masks.as_ref().map(|_| Vec::new()),
            ..WindowLog::default()
        };
        for (entry, list) in lists.into_iter().enumerate() {
            for (i, w) in list.into_iter().enumerate() {
                let mask = masks
                    .as_ref()
                    .and_then(|m| m.get(entry))
                    .and_then(|m| m.get(i))
                    .copied()
                    .unwrap_or(!0);
                log.push_masked(entry, w.start, w.end, mask);
            }
        }
        log.into_table(entries)
    }
}

/// Closed windows of one tracked array in the order they closed, each
/// keyed by its entry; grouped into a [`WindowTable`] once, at the end of
/// the run.
#[derive(Debug, Clone, Default)]
struct WindowLog {
    entries: Vec<u32>,
    windows: Vec<LiveWindow>,
    /// Demand mask of each window, for arrays that carry them.
    masks: Option<Vec<u64>>,
}

impl WindowLog {
    /// An empty log whose windows carry demand masks.
    fn masked() -> WindowLog {
        WindowLog {
            masks: Some(Vec::new()),
            ..WindowLog::default()
        }
    }

    fn push(&mut self, entry: usize, start: u64, end: u64) {
        self.entries.push(entry as u32);
        self.windows.push(LiveWindow { start, end });
    }

    /// Logs a window with its demand mask (dropped if the log carries
    /// none).
    fn push_masked(&mut self, entry: usize, start: u64, end: u64, mask: u64) {
        self.push(entry, start, end);
        if let Some(masks) = &mut self.masks {
            masks.push(mask);
        }
    }

    fn into_table(self, entries: usize) -> WindowTable {
        let (offsets, order) = group_by_entry(entries, &self.entries, |i| self.windows[i].start);
        WindowTable {
            windows: order.iter().map(|&i| self.windows[i as usize]).collect(),
            masks: self
                .masks
                .map(|m| order.iter().map(|&i| m[i as usize]).collect()),
            offsets,
        }
    }
}

/// Finished per-entry danger windows of the core structures. The register
/// file's windows carry the static writeback demand mask of the write
/// that opened them (`!0` for windows opened by anything else).
#[derive(Debug)]
pub(crate) struct CoreWindows {
    pub(crate) rf: WindowTable,
    pub(crate) rob: WindowTable,
    pub(crate) iq: WindowTable,
    pub(crate) lq: WindowTable,
    pub(crate) sq: WindowTable,
}

/// The uop occupying a queue slot.
#[derive(Debug, Clone, Copy)]
struct Occupant {
    seq: u64,
    /// Cycle the slot was allocated.
    start: u64,
    /// Whether the uop writes a register (the ROB's destination fields).
    has_dest: bool,
}

/// Residency of one queue structure: its occupants by slot (a slot holds
/// one uop at a time, tagged with the uop's sequence number so that a
/// squash can discard every younger entry), the live cycles of entries
/// read out, and the closed windows while recording.
#[derive(Debug, Clone, Default)]
struct QueueResidency {
    slots: Vec<Option<Occupant>>,
    acc: u64,
    log: Option<WindowLog>,
}

impl QueueResidency {
    fn push(&mut self, slot: usize, occupant: Occupant) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        debug_assert!(
            self.slots[slot].is_none(),
            "queue slot {slot} holds two uops"
        );
        self.slots[slot] = Some(occupant);
    }

    /// The read that retires the uop numbered `seq` from `slot` at
    /// `cycle`; returns it, or `None` if the slot holds no such uop.
    fn pop(&mut self, slot: usize, seq: u64, cycle: u64) -> Option<Occupant> {
        let held = self.slots.get_mut(slot)?;
        let o = held.take_if(|o| o.seq == seq)?;
        self.acc += cycle.saturating_sub(o.start);
        if let Some(log) = &mut self.log {
            log.push(slot, o.start, cycle);
        }
        Some(o)
    }

    /// Discards every occupant younger than `boundary_seq`, closing its
    /// window at `cycle` (see [`CoreResidency::squash_queues`]).
    fn squash(&mut self, boundary_seq: u64, cycle: u64) {
        for (slot, held) in self.slots.iter_mut().enumerate() {
            if let Some(o) = held.take_if(|o| o.seq > boundary_seq) {
                if let Some(log) = &mut self.log {
                    log.push(slot, o.start, cycle);
                }
            }
        }
    }

    /// Takes the recorded windows as a table of `entries` slots, still
    /// resident occupants dangerous forever (see
    /// [`CoreResidency::take_windows`]); `None` if recording is off.
    fn take_windows(&mut self, entries: usize) -> Option<WindowTable> {
        let mut log = self.log.take()?;
        for (slot, held) in self.slots.iter().enumerate() {
            if let Some(o) = held {
                log.push(slot, o.start, u64::MAX);
            }
        }
        Some(log.into_table(entries))
    }
}

/// Residency accumulators for the core structures (register file, ROB,
/// IQ, load/store queues).
///
/// The queue hooks are kept out of line: the pipeline stages that call
/// them are the simulator's hot loop, which an uninstrumented run executes
/// without ever taking these calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreResidency {
    rf: Vec<Option<Open>>,
    /// Demand mask of each register's currently-open window (`!0` unless
    /// the opening writeback carried a static annotation).
    rf_cur_mask: Vec<u64>,
    rf_acc: u64,
    /// Closed register windows with their masks, while recording.
    rf_log: Option<WindowLog>,
    rob: QueueResidency,
    rob_dest_acc: u64,
    iq: QueueResidency,
    lq: QueueResidency,
    sq: QueueResidency,
}

impl CoreResidency {
    pub(crate) fn new(nphys: usize) -> CoreResidency {
        CoreResidency {
            rf: vec![None; nphys],
            rf_cur_mask: vec![!0; nphys],
            ..CoreResidency::default()
        }
    }

    /// Turns on per-entry window recording (off by default: the windows
    /// are only needed when the run feeds a [`LivenessMap`], and they cost
    /// memory proportional to the event count).
    pub(crate) fn set_record_windows(&mut self, on: bool) {
        self.rf_log = on.then(WindowLog::masked);
        for queue in [&mut self.rob, &mut self.iq, &mut self.lq, &mut self.sq] {
            queue.log = on.then(WindowLog::default);
        }
    }

    /// Marks a register live from `cycle` (initial architectural state).
    pub(crate) fn rf_open(&mut self, tag: PhysReg, cycle: u64) {
        self.rf[tag as usize] = Some(Open {
            start: cycle,
            last_read: cycle,
        });
        self.rf_cur_mask[tag as usize] = !0;
    }

    fn rf_close(&mut self, tag: PhysReg) {
        if let Some(o) = self.rf[tag as usize].take() {
            self.rf_acc += o.span();
            if let Some(log) = &mut self.rf_log {
                log.push_masked(
                    tag as usize,
                    o.start,
                    o.last_read,
                    self.rf_cur_mask[tag as usize],
                );
            }
        }
    }

    /// A value lands in the register at writeback: close any stale
    /// interval and start a new one carrying the writing instruction's
    /// static demand mask (`!0` when unannotated).
    pub(crate) fn rf_write(&mut self, tag: PhysReg, cycle: u64, mask: u64) {
        if tag == 0 {
            return; // the zero register discards writes
        }
        self.rf_close(tag);
        self.rf[tag as usize] = Some(Open {
            start: cycle,
            last_read: cycle,
        });
        self.rf_cur_mask[tag as usize] = mask;
    }

    /// A source operand is read at issue.
    pub(crate) fn rf_read(&mut self, tag: PhysReg, cycle: u64) {
        if let Some(o) = &mut self.rf[tag as usize] {
            o.last_read = cycle;
        }
    }

    /// The register returns to the free list at retirement.
    pub(crate) fn rf_free(&mut self, tag: PhysReg) {
        self.rf_close(tag);
    }

    /// After a squash recovery rebuilt the free list, close the interval
    /// of every register that became free.
    pub(crate) fn rf_sync_freed(&mut self, rf: &RegisterFile) {
        for tag in 0..self.rf.len() {
            if self.rf[tag].is_some() && rf.is_free_reg(tag as PhysReg) {
                self.rf_close(tag as PhysReg);
            }
        }
    }

    #[inline(never)]
    pub(crate) fn rob_push(&mut self, seq: u64, slot: usize, has_dest: bool, cycle: u64) {
        self.rob.push(
            slot,
            Occupant {
                seq,
                start: cycle,
                has_dest,
            },
        );
    }

    /// Commit reads every ROB field of the retiring entry.
    #[inline(never)]
    pub(crate) fn rob_pop(&mut self, slot: usize, seq: u64, cycle: u64) {
        if let Some(o) = self.rob.pop(slot, seq, cycle) {
            if o.has_dest {
                self.rob_dest_acc += cycle.saturating_sub(o.start);
            }
        }
    }

    #[inline(never)]
    pub(crate) fn iq_insert(&mut self, seq: u64, slot: usize, cycle: u64) {
        self.iq.push(slot, queued(seq, cycle));
    }

    /// Issue reads the IQ entry's tags and removes it.
    #[inline(never)]
    pub(crate) fn iq_remove(&mut self, slot: usize, seq: u64, cycle: u64) {
        self.iq.pop(slot, seq, cycle);
    }

    #[inline(never)]
    pub(crate) fn lq_push(&mut self, seq: u64, slot: usize, cycle: u64) {
        self.lq.push(slot, queued(seq, cycle));
    }

    #[inline(never)]
    pub(crate) fn lq_pop(&mut self, slot: usize, seq: u64, cycle: u64) {
        self.lq.pop(slot, seq, cycle);
    }

    #[inline(never)]
    pub(crate) fn sq_push(&mut self, seq: u64, slot: usize, cycle: u64) {
        self.sq.push(slot, queued(seq, cycle));
    }

    #[inline(never)]
    pub(crate) fn sq_pop(&mut self, slot: usize, seq: u64, cycle: u64) {
        self.sq.pop(slot, seq, cycle);
    }

    /// Discards every queue entry younger than `boundary_seq` — squashed
    /// entries are never architecturally read, so they are un-ACE and
    /// contribute nothing to the accumulators. Their *occupancy* windows
    /// still close at the squash cycle: until the squash executes, the
    /// pipeline cross-checks those entries every cycle, so flips on them
    /// are observable (as Asserts) and must not be pruned.
    pub(crate) fn squash_queues(&mut self, boundary_seq: u64, cycle: u64) {
        for queue in [&mut self.rob, &mut self.iq, &mut self.lq, &mut self.sq] {
            queue.squash(boundary_seq, cycle);
        }
    }

    /// Entry-granular live-cycle totals `(rf, rob, rob_dest, iq, lq, sq)`,
    /// closing still-open register intervals at their last read (entries
    /// still queued at end of run were never fully read and contribute 0).
    pub(crate) fn totals(&self) -> (u64, u64, u64, u64, u64, u64) {
        let rf = self.rf_acc + self.rf.iter().flatten().map(Open::span).sum::<u64>();
        (
            rf,
            self.rob.acc,
            self.rob_dest_acc,
            self.iq.acc,
            self.lq.acc,
            self.sq.acc,
        )
    }

    /// Takes the recorded danger windows, grouped per entry into tables
    /// covering `[rf, rob, iq, lq, sq]` entries, or `None` if recording
    /// is off; recording stops. Still-open entries are closed
    /// conservatively: an open register interval dies at its last read (no
    /// later cycle can observe it before the run ends), while queue
    /// entries still resident at end of run stay dangerous forever — a
    /// flip on them at any later cycle would still be cross-checked if the
    /// run went on, so they close at `u64::MAX`.
    pub(crate) fn take_windows(&mut self, entries: [usize; 5]) -> Option<CoreWindows> {
        let mut rf_log = self.rf_log.take()?;
        for (tag, o) in self.rf.iter().enumerate() {
            if let Some(o) = o {
                rf_log.push_masked(tag, o.start, o.last_read, self.rf_cur_mask[tag]);
            }
        }
        let [rf, rob, iq, lq, sq] = entries;
        Some(CoreWindows {
            rf: rf_log.into_table(rf),
            rob: self.rob.take_windows(rob)?,
            iq: self.iq.take_windows(iq)?,
            lq: self.lq.take_windows(lq)?,
            sq: self.sq.take_windows(sq)?,
        })
    }
}

/// An IQ, LQ or SQ occupant (no destination accounting).
fn queued(seq: u64, cycle: u64) -> Occupant {
    Occupant {
        seq,
        start: cycle,
        has_dest: false,
    }
}

/// One closed cache-line lifetime: `[start, data_end]` covers the data
/// array's danger window, `[start, valid_end]` the tag array's (a stored
/// tag can falsely alias *any* lookup in its set for as long as the line
/// stays valid, and a spurious dirty bit changes the eviction path, so
/// tag/dirty bits are dangerous for the whole valid lifetime).
#[derive(Debug, Clone, Copy)]
struct LineWindow {
    start: u64,
    data_end: u64,
    valid_end: u64,
}

/// Per-line residency of one cache array.
#[derive(Debug, Clone, Default)]
pub(crate) struct CacheResidency {
    open: Vec<Option<Open>>,
    acc: u64,
    /// Closed lifetimes in closing order, while
    /// [`CacheResidency::set_record_windows`] is on.
    log: Option<LineLog>,
}

/// Closed cache-line lifetimes in closing order, each keyed by its line.
#[derive(Debug, Clone, Default)]
struct LineLog {
    lines: Vec<u32>,
    windows: Vec<LineWindow>,
}

impl LineLog {
    fn push(&mut self, line: usize, window: LineWindow) {
        self.lines.push(line as u32);
        self.windows.push(window);
    }
}

impl CacheResidency {
    pub(crate) fn new(lines: usize) -> CacheResidency {
        CacheResidency {
            open: vec![None; lines],
            acc: 0,
            log: None,
        }
    }

    /// Turns on per-line window recording (see
    /// [`CoreResidency::set_record_windows`]).
    pub(crate) fn set_record_windows(&mut self, on: bool) {
        self.log = on.then(LineLog::default);
    }

    fn close(&mut self, line: usize, o: Open, valid_end: u64, dirty: bool) {
        let data_end = if dirty {
            o.last_read.max(valid_end)
        } else {
            o.last_read
        };
        self.acc += data_end.saturating_sub(o.start);
        if let Some(log) = &mut self.log {
            log.push(
                line,
                LineWindow {
                    start: o.start,
                    data_end,
                    valid_end,
                },
            );
        }
    }

    pub(crate) fn on_fill(&mut self, line: usize, cycle: u64) {
        if let Some(o) = self.open[line].take() {
            // Defensive: fills are normally preceded by an eviction of the
            // victim; a stale open line closes clean at the fill cycle.
            self.close(line, o, cycle, false);
        }
        self.open[line] = Some(Open {
            start: cycle,
            last_read: cycle,
        });
    }

    pub(crate) fn on_use(&mut self, line: usize, cycle: u64) {
        if let Some(o) = &mut self.open[line] {
            o.last_read = cycle;
        }
    }

    /// Eviction closes the line: a dirty eviction reads the whole line for
    /// the writeback (live up to `cycle`); a clean one reads nothing
    /// beyond the last demand access.
    pub(crate) fn on_evict(&mut self, line: usize, cycle: u64, dirty: bool) {
        if let Some(o) = self.open[line].take() {
            self.close(line, o, cycle, dirty);
        }
    }

    /// Line-cycle total, closing still-valid lines at their last use.
    pub(crate) fn total(&self) -> u64 {
        self.acc + self.open.iter().flatten().map(Open::span).sum::<u64>()
    }

    /// Takes the recorded danger windows as `(data, tag)` tables, or
    /// `None` if recording is off; recording stops. Still-valid lines
    /// close their data window at the last use and keep their tag window
    /// open forever (the line would stay a false-hit candidate for as long
    /// as the run continued).
    pub(crate) fn take_windows(&mut self) -> Option<(WindowTable, WindowTable)> {
        let mut log = self.log.take()?;
        for (line, o) in self.open.iter().enumerate() {
            if let Some(o) = o {
                log.push(
                    line,
                    LineWindow {
                        start: o.start,
                        data_end: o.last_read,
                        valid_end: u64::MAX,
                    },
                );
            }
        }
        let (offsets, order) =
            group_by_entry(self.open.len(), &log.lines, |i| log.windows[i].start);
        let windows = |end: fn(&LineWindow) -> u64| -> Vec<LiveWindow> {
            order
                .iter()
                .map(|&i| {
                    let lw = &log.windows[i as usize];
                    LiveWindow {
                        start: lw.start,
                        end: end(lw),
                    }
                })
                .collect()
        };
        let data = WindowTable {
            offsets: offsets.clone(),
            windows: windows(|lw| lw.data_end),
            masks: None,
        };
        let tag = WindowTable {
            offsets,
            windows: windows(|lw| lw.valid_end),
            masks: None,
        };
        Some((data, tag))
    }
}

/// Per-structure residency from one golden run: the raw material of the
/// ACE AVF estimate (`softerr-analysis`'s `ace` module does the division).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyReport {
    /// Cycles the run took (the AVF denominator's time term).
    pub cycles: u64,
    /// One entry per injectable structure.
    pub structures: Vec<StructureResidency>,
}

/// Live-bit-cycles of one structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureResidency {
    /// The structure.
    pub structure: Structure,
    /// Total bits in the structure (the injection population).
    pub bits: u64,
    /// Sum over bits of cycles spent ACE (entry-granular upper bound).
    pub live_bit_cycles: u64,
}

/// Queryable per-entry liveness of one structure, built from a golden run
/// with window recording on ([`crate::Sim::enable_liveness`]).
///
/// [`StructureLiveness::is_ace`] answers "could a flip of `bit` applied
/// before cycle `cycle` ever be observed?" — `false` is a *proof* that the
/// fault is masked (the flipped bit is overwritten or abandoned before any
/// read), `true` is merely "not provably dead". All approximations are
/// conservative: unknown bits, out-of-range queries, and always-live
/// offsets (ghost-creating valid bits) answer `true`.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureLiveness {
    structure: Structure,
    bits: u64,
    bits_per_entry: u64,
    /// Bit offset within each entry that is dangerous for the whole run
    /// regardless of occupancy: a flip can *create* state out of nothing
    /// (IQ dest-array valid bits make ghost entries, cache tag-array valid
    /// bits resurrect stale lines), so no occupancy window bounds it.
    always_live_offset: Option<u64>,
    /// Per entry, chronologically sorted inclusive danger windows, with
    /// the static demand mask of each where the structure carries them
    /// (without masks [`StructureLiveness::is_vulnerable`] degrades to
    /// [`StructureLiveness::is_ace`]). Structures that are fields of the
    /// same entries (the ROB's four, the IQ's two) share one table.
    table: Arc<WindowTable>,
}

impl StructureLiveness {
    pub(crate) fn new(
        structure: Structure,
        bits: u64,
        entries: usize,
        always_live_offset: Option<u64>,
        table: Arc<WindowTable>,
    ) -> StructureLiveness {
        debug_assert!(table.entries() >= entries, "window table misses entries");
        let bits_per_entry = if entries == 0 {
            0
        } else {
            bits / entries as u64
        };
        StructureLiveness {
            structure,
            bits,
            bits_per_entry,
            always_live_offset,
            table,
        }
    }

    /// The structure this liveness describes.
    pub fn structure(&self) -> Structure {
        self.structure
    }

    /// Total injectable bits (the fault population per cycle).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Whether a flip of `bit` applied before `cycle` executes could still
    /// be observed (`true` = dangerous / not provably masked).
    pub fn is_ace(&self, bit: u64, cycle: u64) -> bool {
        if self.bits_per_entry == 0 || bit >= self.bits {
            return true; // conservative on anything we cannot attribute
        }
        let entry = (bit / self.bits_per_entry) as usize;
        if self.always_live_offset == Some(bit % self.bits_per_entry) {
            return true;
        }
        let Some(ws) = self.table.windows(entry) else {
            return true;
        };
        // Windows are sorted by start and non-nested (an entry's next
        // lifetime begins at or after the previous one closed), so only
        // the last window starting at or before `cycle` can contain it.
        let idx = ws.partition_point(|w| w.start <= cycle);
        idx > 0 && ws[idx - 1].end >= cycle
    }

    /// Like [`StructureLiveness::is_ace`], but additionally consults the
    /// static demand mask of every danger window covering `cycle`: a flip
    /// of `bit` is vulnerable only if some covering window demands that
    /// bit. Without attached masks this is exactly `is_ace`, so the
    /// static answer is always a subset refinement of the dynamic one.
    pub fn is_vulnerable(&self, bit: u64, cycle: u64) -> bool {
        let Some(masks) = &self.table.masks else {
            return self.is_ace(bit, cycle);
        };
        if self.bits_per_entry == 0 || bit >= self.bits {
            return true; // conservative on anything we cannot attribute
        }
        let entry = (bit / self.bits_per_entry) as usize;
        let off = bit % self.bits_per_entry;
        if self.always_live_offset == Some(off) || off >= 64 {
            return true;
        }
        let Some(r) = self.table.range(entry) else {
            return true;
        };
        let (ws, ms) = (&self.table.windows[r.clone()], &masks[r]);
        let idx = ws.partition_point(|w| w.start <= cycle);
        // Adjacent windows may share a boundary cycle (a write closes the
        // previous window and opens the next on the same cycle), so every
        // window still covering `cycle` must agree the bit is dead. Window
        // ends are monotone in start order (lifetimes do not nest), so
        // scanning backwards until one ends before `cycle` sees them all.
        let mut i = idx;
        while i > 0 {
            i -= 1;
            if ws[i].end < cycle {
                break;
            }
            if ms[i] & (1u64 << off) != 0 {
                return true;
            }
        }
        false
    }

    /// The recorded danger windows of one entry (for diagnostics/tests).
    pub fn entry_windows(&self, entry: usize) -> &[LiveWindow] {
        self.table.windows(entry).unwrap_or(&[])
    }

    /// Exact number of `(bit, cycle)` sites with `cycle < cycles` for which
    /// [`StructureLiveness::is_vulnerable`] answers `true` — the population
    /// an importance sampler draws from and the numerator of its
    /// Horvitz–Thompson weight. Mirrors `is_vulnerable` case for case,
    /// including every conservative fallback (unattributable bits,
    /// always-live offsets, entries beyond the recorded windows, offsets
    /// beyond the 64-bit demand masks).
    ///
    /// Offsets whose bit every window's mask treats alike share one
    /// window union, so an entry costs one pass over its windows per such
    /// class of offsets (a handful, for the masks compilers emit) rather
    /// than one per offset.
    pub fn vulnerable_site_count(&self, cycles: u64) -> u64 {
        if cycles == 0 || self.bits == 0 {
            return 0;
        }
        let total = self.bits as u128 * cycles as u128;
        if self.bits_per_entry == 0 {
            return total.min(u64::MAX as u128) as u64;
        }
        let bpe = self.bits_per_entry;
        let mut classes: Vec<u64> = Vec::with_capacity(64);
        let mut live: u128 = 0;
        for e in 0..self.bits.div_ceil(bpe) {
            let entry_bits = bpe.min(self.bits - e * bpe);
            let Some(r) = self.table.range(e as usize) else {
                // Bits we cannot attribute to a recorded entry stay
                // conservative, exactly like the query path.
                live += entry_bits as u128 * cycles as u128;
                continue;
            };
            let ws = &self.table.windows[r.clone()];
            let always = self.always_live_offset.filter(|&a| a < entry_bits);
            let Some(masks) = &self.table.masks else {
                let union_all = union_cycles(ws, cycles, |_| true);
                let n_always = u64::from(always.is_some());
                live += n_always as u128 * cycles as u128
                    + (entry_bits - n_always) as u128 * union_all as u128;
                continue;
            };
            let ms = &masks[r];
            // Offsets past the 64-bit masks, and the always-live offset,
            // are live at every cycle.
            let masked = entry_bits.min(64);
            let mut demand_set = if masked == 64 {
                !0
            } else {
                (1u64 << masked) - 1
            };
            if let Some(a) = always.filter(|&a| a < 64) {
                demand_set &= !(1u64 << a);
            }
            let fixed = entry_bits - u64::from(demand_set.count_ones());
            live += fixed as u128 * cycles as u128;
            // Split the remaining offsets into classes no mask tells
            // apart: every offset of a class is demanded by the same
            // windows, so one union serves the whole class.
            classes.clear();
            if demand_set != 0 {
                classes.push(demand_set);
            }
            for &m in ms {
                if classes.len() as u32 == demand_set.count_ones() {
                    break; // every class is a single offset already
                }
                for k in 0..classes.len() {
                    let c = classes[k];
                    let (inside, outside) = (c & m, c & !m);
                    if inside != 0 && outside != 0 {
                        classes[k] = inside;
                        classes.push(outside);
                    }
                }
            }
            for &c in &classes {
                let union = union_cycles(ws, cycles, |i| ms[i] & c != 0);
                live += u128::from(c.count_ones()) * union as u128;
            }
        }
        live.min(total) as u64
    }

    /// Fraction of the structure's bit-cycles that fall inside a danger
    /// window over `cycles` (an upper bound on the campaign's live draw
    /// rate; `1 - live_fraction` is the expected prune rate).
    pub fn live_fraction(&self, cycles: u64) -> f64 {
        if self.bits == 0 || cycles == 0 {
            return 0.0;
        }
        let mut live_bit_cycles = 0u128;
        let per_entry = self.bits_per_entry as u128;
        for w in &self.table.windows {
            let end = w.end.min(cycles.saturating_sub(1));
            if end >= w.start {
                live_bit_cycles += (end - w.start + 1) as u128 * per_entry;
            }
        }
        if self.always_live_offset.is_some() {
            let entries = (self.bits / self.bits_per_entry.max(1)) as u128;
            live_bit_cycles += entries * cycles as u128;
        }
        let total = self.bits as u128 * cycles as u128;
        (live_bit_cycles.min(total)) as f64 / total as f64
    }
}

/// Total cycles within `[0, cycles)` covered by at least one window whose
/// index satisfies `accept`. Windows are sorted by start and inclusive;
/// overlap (shared boundary cycles) is counted once by tracking the
/// furthest cycle already covered.
fn union_cycles(ws: &[LiveWindow], cycles: u64, accept: impl Fn(usize) -> bool) -> u64 {
    let mut total = 0u64;
    let mut covered: Option<u64> = None;
    for (i, w) in ws.iter().enumerate() {
        if w.start >= cycles {
            break; // sorted by start: nothing later can reach back in range
        }
        if !accept(i) {
            continue;
        }
        let end = w.end.min(cycles - 1);
        if end < w.start {
            continue;
        }
        match covered {
            Some(ce) if w.start <= ce => {
                if end > ce {
                    total += end - ce;
                    covered = Some(end);
                }
            }
            _ => {
                total += end - w.start + 1;
                covered = Some(end);
            }
        }
    }
    total
}

/// Every structure's [`StructureLiveness`] from one golden run, plus the
/// run length. The campaign prune filter queries this before deciding to
/// fork a child simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessMap {
    cycles: u64,
    structures: Vec<StructureLiveness>,
}

impl LivenessMap {
    pub(crate) fn new(cycles: u64, structures: Vec<StructureLiveness>) -> LivenessMap {
        LivenessMap { cycles, structures }
    }

    /// Cycles the golden run took.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The liveness of one structure, if tracked.
    pub fn structure(&self, structure: Structure) -> Option<&StructureLiveness> {
        self.structures.iter().find(|s| s.structure == structure)
    }

    /// Whether a flip of `(bit, cycle)` in `structure` could be observed.
    /// Conservative: `true` for untracked structures.
    pub fn is_ace(&self, structure: Structure, bit: u64, cycle: u64) -> bool {
        self.structure(structure)
            .is_none_or(|s| s.is_ace(bit, cycle))
    }

    /// Like [`LivenessMap::is_ace`], but consults static per-window demand
    /// masks where attached (currently the register file). Conservative:
    /// `true` for untracked structures; never `true` where `is_ace` is
    /// `false`.
    pub fn is_vulnerable(&self, structure: Structure, bit: u64, cycle: u64) -> bool {
        self.structure(structure)
            .is_none_or(|s| s.is_vulnerable(bit, cycle))
    }

    /// Exact vulnerable-site count of one structure over `cycles`, or
    /// `None` when the structure is untracked (every site is then
    /// conservative-live and the caller should use the full population).
    pub fn vulnerable_site_count(&self, structure: Structure, cycles: u64) -> Option<u64> {
        self.structure(structure)
            .map(|s| s.vulnerable_site_count(cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structure's liveness from per-entry window lists (and per-entry
    /// demand masks).
    fn liveness(
        structure: Structure,
        bits: u64,
        entries: usize,
        always_live_offset: Option<u64>,
        lists: Vec<Vec<LiveWindow>>,
        masks: Option<Vec<Vec<u64>>>,
    ) -> StructureLiveness {
        let table = WindowTable::from_lists(entries, lists, masks);
        StructureLiveness::new(
            structure,
            bits,
            entries,
            always_live_offset,
            Arc::new(table),
        )
    }

    /// The demand masks of one entry's windows.
    fn entry_masks(table: &WindowTable, entry: usize) -> &[u64] {
        &table.masks.as_ref().expect("masked table")[table.range(entry).expect("entry")]
    }

    #[test]
    fn rf_interval_is_write_to_last_read() {
        let mut r = CoreResidency::new(8);
        r.rf_write(3, 10, !0);
        r.rf_read(3, 15);
        r.rf_read(3, 40);
        r.rf_free(3);
        assert_eq!(r.totals().0, 30);
    }

    #[test]
    fn unread_register_is_unace() {
        let mut r = CoreResidency::new(8);
        r.rf_write(2, 10, !0);
        r.rf_free(2);
        assert_eq!(r.totals().0, 0);
    }

    #[test]
    fn zero_register_writes_are_ignored() {
        let mut r = CoreResidency::new(8);
        r.rf_open(0, 0);
        r.rf_write(0, 50, !0); // discarded by hardware, must not reset the interval
        r.rf_read(0, 70);
        assert_eq!(r.totals().0, 70);
    }

    #[test]
    fn squashed_queue_entries_are_unace() {
        let mut r = CoreResidency::new(4);
        r.rob_push(5, 0, false, 100);
        r.rob_push(6, 1, true, 101);
        r.squash_queues(5, 110);
        r.rob_pop(0, 5, 120);
        r.rob_pop(1, 6, 130); // already squashed: no effect
        let (_, rob, rob_dest, ..) = r.totals();
        assert_eq!(rob, 20);
        assert_eq!(rob_dest, 0);
    }

    #[test]
    fn squashed_entries_stay_dangerous_until_the_squash() {
        let mut r = CoreResidency::new(4);
        r.set_record_windows(true);
        r.rob_push(6, 1, true, 101);
        r.squash_queues(5, 110);
        let w = r.take_windows([4; 5]).expect("recording");
        assert_eq!(
            w.rob.windows(1).unwrap(),
            [LiveWindow {
                start: 101,
                end: 110
            }],
            "occupancy must close at the squash cycle, not vanish"
        );
    }

    #[test]
    fn rf_windows_cover_write_to_last_read_only() {
        let mut r = CoreResidency::new(8);
        r.set_record_windows(true);
        r.rf_write(3, 10, !0);
        r.rf_read(3, 40);
        r.rf_free(3);
        r.rf_write(3, 60, !0); // reallocated, never read, still open at end
        let w = r.take_windows([8, 4, 4, 4, 4]).expect("recording");
        assert_eq!(
            w.rf.windows(3).unwrap(),
            [
                LiveWindow { start: 10, end: 40 },
                LiveWindow { start: 60, end: 60 }
            ]
        );
    }

    #[test]
    fn rf_masks_stay_aligned_with_windows() {
        let mut r = CoreResidency::new(8);
        r.set_record_windows(true);
        r.rf_write(3, 10, 0x00ff);
        r.rf_read(3, 40);
        r.rf_free(3);
        r.rf_write(3, 60, 0x0f00); // still open at the end of the run
        let w = r.take_windows([8, 4, 4, 4, 4]).expect("recording");
        assert_eq!(
            w.rf.windows(3).unwrap(),
            [
                LiveWindow { start: 10, end: 40 },
                LiveWindow { start: 60, end: 60 }
            ]
        );
        assert_eq!(entry_masks(&w.rf, 3), [0x00ff, 0x0f00]);
    }

    #[test]
    fn masked_window_bits_are_unvulnerable_but_ace() {
        let windows = vec![vec![
            LiveWindow { start: 10, end: 20 },
            LiveWindow { start: 20, end: 50 },
        ]];
        let masks = vec![vec![0b0001u64, 0b0010u64]];
        let s = liveness(Structure::RegFile, 64, 1, None, windows, Some(masks));
        // Inside the first window only: demand follows that window's mask.
        assert!(s.is_vulnerable(0, 15));
        assert!(!s.is_vulnerable(1, 15), "bit 1 not demanded by window 0");
        assert!(s.is_ace(1, 15), "but it is dynamically live");
        // Boundary cycle shared by both windows: either demand suffices.
        assert!(s.is_vulnerable(0, 20));
        assert!(s.is_vulnerable(1, 20));
        assert!(!s.is_vulnerable(2, 20));
        // Inside the second window only.
        assert!(!s.is_vulnerable(0, 30));
        assert!(s.is_vulnerable(1, 30));
        // Outside every window: dead either way.
        assert!(!s.is_vulnerable(0, 9));
        assert!(!s.is_vulnerable(0, 51));
        // Out-of-range stays conservative.
        assert!(s.is_vulnerable(9999, 15));
    }

    #[test]
    fn maskless_vulnerability_degrades_to_ace() {
        let windows = vec![vec![LiveWindow { start: 5, end: 9 }]];
        let s = liveness(Structure::RegFile, 64, 1, None, windows, None);
        for (bit, cycle) in [(0, 7), (63, 7), (0, 4), (0, 10)] {
            assert_eq!(s.is_vulnerable(bit, cycle), s.is_ace(bit, cycle));
        }
    }

    #[test]
    fn open_queue_entries_stay_dangerous_forever() {
        let mut r = CoreResidency::new(4);
        r.set_record_windows(true);
        r.lq_push(9, 2, 50);
        let w = r.take_windows([4; 5]).expect("recording");
        assert_eq!(
            w.lq.windows(2).unwrap(),
            [LiveWindow {
                start: 50,
                end: u64::MAX
            }]
        );
    }

    #[test]
    fn dirty_eviction_extends_to_eviction_cycle() {
        let mut c = CacheResidency::new(2);
        c.on_fill(0, 10);
        c.on_use(0, 20);
        c.on_evict(0, 90, true);
        assert_eq!(c.total(), 80, "writeback reads the line at eviction");

        c.on_fill(1, 10);
        c.on_use(1, 20);
        c.on_evict(1, 90, false);
        assert_eq!(c.total(), 80 + 10, "clean line dies at its last use");
    }

    #[test]
    fn open_lines_close_at_last_use() {
        let mut c = CacheResidency::new(1);
        c.on_fill(0, 5);
        c.on_use(0, 25);
        assert_eq!(c.total(), 20);
    }

    #[test]
    fn cache_tag_windows_outlive_data_windows() {
        let mut c = CacheResidency::new(2);
        c.set_record_windows(true);
        c.on_fill(0, 10);
        c.on_use(0, 20);
        c.on_evict(0, 90, false); // clean: data dies at 20, tag at 90
        c.on_fill(1, 30); // still valid at end of run
        c.on_use(1, 40);
        let (data, tag) = c.take_windows().expect("recording");
        assert_eq!(
            data.windows(0).unwrap(),
            [LiveWindow { start: 10, end: 20 }]
        );
        assert_eq!(tag.windows(0).unwrap(), [LiveWindow { start: 10, end: 90 }]);
        assert_eq!(
            data.windows(1).unwrap(),
            [LiveWindow { start: 30, end: 40 }]
        );
        assert_eq!(
            tag.windows(1).unwrap(),
            [LiveWindow {
                start: 30,
                end: u64::MAX
            }]
        );
    }

    #[test]
    fn liveness_map_is_conservative_and_window_exact() {
        let windows = vec![
            vec![LiveWindow { start: 10, end: 20 }],
            Vec::new(), // entry 1 never occupied
        ];
        let s = liveness(Structure::LoadQueue, 2 * 32, 2, None, windows, None);
        assert!(s.is_ace(0, 10), "window start is inclusive");
        assert!(s.is_ace(31, 20), "window end is inclusive");
        assert!(!s.is_ace(0, 9), "before the window is dead");
        assert!(!s.is_ace(0, 21), "after the window is dead");
        assert!(!s.is_ace(32, 15), "never-occupied entry is dead");
        assert!(s.is_ace(9999, 15), "out-of-range bits are conservative");
        let map = LivenessMap::new(100, vec![s]);
        assert!(
            map.is_ace(Structure::RegFile, 0, 0),
            "untracked structures are conservative"
        );
        assert!(!map.is_ace(Structure::LoadQueue, 0, 9));
    }

    #[test]
    fn always_live_offset_defeats_occupancy() {
        // 9-bit entries with the valid bit at offset 8, like the IQ dest
        // array: a ghost flip on a free slot must stay dangerous.
        let s = liveness(
            Structure::IqDest,
            4 * 9,
            4,
            Some(8),
            vec![Vec::new(); 4],
            None,
        );
        assert!(s.is_ace(8, 500), "valid bit of a free entry is live");
        assert!(!s.is_ace(7, 500), "payload bits of a free entry are dead");
    }

    /// Exhaustive reference: re-asks `is_vulnerable` for every site.
    fn brute_force_vulnerable(s: &StructureLiveness, cycles: u64) -> u64 {
        let mut n = 0u64;
        for bit in 0..s.bits() {
            for cycle in 0..cycles {
                if s.is_vulnerable(bit, cycle) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn vulnerable_site_count_matches_brute_force() {
        let w = |start, end| LiveWindow { start, end };
        // Windows with many distinct masks, so the offsets split into
        // many classes (xorshift, seeded).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut varied_windows = Vec::new();
        let mut varied_masks = Vec::new();
        for _ in 0..3 {
            let (mut ws, mut ms, mut at) = (Vec::new(), Vec::new(), 0);
            for _ in 0..6 {
                let start = at + next() % 4;
                let end = start + next() % 9;
                ws.push(w(start, end));
                ms.push(match next() % 3 {
                    0 => !0,
                    1 => 0xff,
                    _ => next(),
                });
                at = end;
            }
            varied_windows.push(ws);
            varied_masks.push(ms);
        }
        let cases: Vec<(&str, StructureLiveness)> = vec![
            (
                "masked rf with boundary-sharing windows",
                liveness(
                    Structure::RegFile,
                    2 * 64,
                    2,
                    None,
                    vec![vec![w(10, 20), w(20, 50), w(60, 60)], vec![w(5, 90)]],
                    Some(vec![vec![0b0001, 0b0110, !0], vec![0x00ff]]),
                ),
            ),
            (
                "maskless queue with an open-forever entry",
                liveness(
                    Structure::LoadQueue,
                    3 * 32,
                    3,
                    None,
                    vec![vec![w(0, 9)], vec![w(40, u64::MAX)], Vec::new()],
                    None,
                ),
            ),
            (
                "always-live valid bit defeats occupancy",
                liveness(
                    Structure::IqDest,
                    4 * 9,
                    4,
                    Some(8),
                    vec![vec![w(3, 7)], Vec::new(), vec![w(50, 80)], Vec::new()],
                    None,
                ),
            ),
            (
                "ragged bit count spills past the recorded entries",
                liveness(
                    Structure::RobPc,
                    10,
                    3,
                    None,
                    vec![vec![w(1, 2)], Vec::new()],
                    None,
                ),
            ),
            (
                "zero entries stay fully conservative",
                liveness(Structure::RobPc, 8, 0, None, Vec::new(), None),
            ),
            (
                "masked entry wider than the 64-bit demand mask",
                liveness(
                    Structure::RegFile,
                    2 * 80,
                    2,
                    None,
                    vec![vec![w(10, 30)], vec![w(0, 4)]],
                    Some(vec![vec![0b1010], vec![0b0001]]),
                ),
            ),
            (
                "many distinct masks with an always-live offset",
                liveness(
                    Structure::RegFile,
                    3 * 40,
                    3,
                    Some(5),
                    varied_windows.clone(),
                    Some(varied_masks.clone()),
                ),
            ),
            (
                "masked wide entries with an always-live offset past the masks",
                liveness(
                    Structure::RegFile,
                    3 * 70,
                    3,
                    Some(66),
                    varied_windows,
                    Some(varied_masks),
                ),
            ),
        ];
        for (name, s) in &cases {
            for cycles in [0u64, 1, 7, 55, 100] {
                assert_eq!(
                    s.vulnerable_site_count(cycles),
                    brute_force_vulnerable(s, cycles),
                    "{name} at {cycles} cycles"
                );
            }
        }
    }

    #[test]
    fn live_fraction_counts_window_bit_cycles() {
        let windows = vec![vec![LiveWindow { start: 0, end: 9 }], Vec::new()];
        let s = liveness(Structure::LoadQueue, 2 * 32, 2, None, windows, None);
        // One of two entries live for 10 of 100 cycles → 5% of bit-cycles.
        let f = s.live_fraction(100);
        assert!((f - 0.05).abs() < 1e-12, "got {f}");
    }
}
