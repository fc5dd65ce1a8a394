//! The out-of-order pipeline: fetch → rename/dispatch → issue → execute →
//! writeback → commit, with checkpointed branch-mispredict recovery.
//!
//! Architectural semantics are shared with the reference emulator through
//! [`softerr_isa::eval_alu`]/[`eval_branch`], and the differential test
//! suite requires fault-free runs to produce byte-identical output.
//!
//! [`eval_branch`]: softerr_isa::eval_branch

use crate::bpred::BranchPredictor;
use crate::config::MachineConfig;
use crate::counters::{CounterState, OccupancyHistogram, SimCounters};
use crate::delta::StateDelta;
use crate::iq::{IqPayload, IssueQueue};
use crate::lsq::{LsQueue, LsqLayout, LsqPayload, StoreCheck};
use crate::memsys::{MemErr, MemorySystem};
use crate::regs::{PhysReg, RegisterFile};
use crate::residency::{
    CoreResidency, LivenessMap, ResidencyReport, StructureLiveness, StructureResidency,
};
use crate::rob::{flag, Rob};
use crate::uop::{DestInfo, Uop, UopKind, UopState};
use crate::Structure;
use softerr_isa::{
    decode, eval_alu, eval_branch, AluOp, Instr, MemWidth, Profile, Program, Reg, Trap,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Terminal state of a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// The program executed `halt`.
    Halted {
        /// Total cycles.
        cycles: u64,
        /// Retired instructions.
        retired: u64,
        /// Program output stream.
        output: Vec<u64>,
    },
    /// A committed instruction raised an architectural fault (process/kernel
    /// crash in the paper's classification).
    Crash {
        /// Total cycles.
        cycles: u64,
        /// The fault.
        trap: Trap,
    },
    /// The simulator hit a state it cannot meaningfully continue from
    /// (corrupted linkage, out-of-map cache operation, …) — the paper's
    /// Assert class.
    Assert {
        /// Total cycles.
        cycles: u64,
        /// What was violated.
        reason: &'static str,
    },
    /// The cycle limit expired (the injector classifies this as Timeout).
    CycleLimit {
        /// Total cycles.
        cycles: u64,
    },
}

/// Aggregate execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub retired: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1I (hits, misses).
    pub l1i: (u64, u64),
    /// L1D (hits, misses).
    pub l1d: (u64, u64),
    /// L2 (hits, misses).
    pub l2: (u64, u64),
    /// Sum over cycles of allocated physical registers (utilization).
    pub rf_occupancy_sum: u64,
    /// Register-file read-port operations (source reads at issue).
    pub rf_reads: u64,
    /// Register-file write-port operations (results at writeback).
    pub rf_writes: u64,
    /// Sum over cycles of occupied ROB entries.
    pub rob_occupancy_sum: u64,
    /// Sum over cycles of occupied IQ entries.
    pub iq_occupancy_sum: u64,
    /// Sum over cycles of occupied LQ entries.
    pub lq_occupancy_sum: u64,
    /// Sum over cycles of occupied SQ entries.
    pub sq_occupancy_sum: u64,
}

/// The cycle-level out-of-order simulator.
#[derive(Debug, Clone)]
pub struct Sim {
    cfg: MachineConfig,
    profile: Profile,
    /// Memory hierarchy (public for injection and inspection).
    pub mem: MemorySystem,
    /// Physical register file and rename state.
    pub rf: RegisterFile,
    /// Reorder buffer.
    pub rob: Rob,
    /// Issue queue.
    pub iq: IssueQueue,
    /// Load queue.
    pub lq: LsQueue,
    /// Store queue.
    pub sq: LsQueue,
    bp: BranchPredictor,
    uops: Vec<Option<Uop>>,
    // Front end.
    fetch_pc: u64,
    fetch_stall: u64,
    fetch_wait: bool,
    decode_q: VecDeque<Uop>,
    next_seq: u64,
    // Back end.
    in_flight: Vec<usize>,
    wb_ready: VecDeque<usize>,
    divider_busy: u64,
    /// The issue stage's ready list, one allocation reused every cycle.
    /// Empty between cycles; not machine state.
    issue_buf: Vec<usize>,
    /// The execute stage's next in-flight list, swapped with `in_flight`
    /// every cycle. Empty between cycles; not machine state.
    exec_buf: Vec<usize>,
    // Architectural results.
    output: Vec<u64>,
    cycle: u64,
    retired: u64,
    mispredicts: u64,
    rf_reads: u64,
    rf_writes: u64,
    stats_occupancy: [u64; 5],
    /// ACE residency tracker (golden runs only; excluded from
    /// [`Sim::state_eq`] — it observes execution without feeding back).
    residency: Option<Box<CoreResidency>>,
    /// Microarchitectural event counters (same observer contract as
    /// `residency`: optional, feedback-free, excluded from `state_eq`).
    counters: Option<Box<CounterState>>,
    /// Static writeback demand masks, from the compiler's bit-level
    /// analysis ([`Sim::attach_static_masks`]). Observational only:
    /// consulted by the residency tracker to tag RF danger windows, never
    /// fed back into execution; excluded from `state_eq` and not inherited
    /// by forks.
    wb_masks: Option<WbMasks>,
}

/// Static writeback demand masks, one per instruction from the program's
/// entry point up to its last annotated one.
#[derive(Debug, Clone)]
struct WbMasks {
    entry: u64,
    masks: Vec<u64>,
}

impl WbMasks {
    /// The demand mask of the instruction at `pc`: `!0` (every bit
    /// demanded) outside the annotated instructions.
    fn get(&self, pc: u64) -> u64 {
        let offset = pc.wrapping_sub(self.entry);
        if !offset.is_multiple_of(4) {
            return !0;
        }
        usize::try_from(offset / 4)
            .ok()
            .and_then(|i| self.masks.get(i))
            .copied()
            .unwrap_or(!0)
    }
}

/// One [`Sim::state_divergence`] probe: a component name and whether two
/// machines differ in that component.
type Probe = (&'static str, fn(&Sim, &Sim) -> bool);

/// The probes [`Sim::state_divergence`] runs before the register file, in
/// order: the cycle counter, front end and execution bookkeeping.
const PROBES_BEFORE_RF: [Probe; 7] = [
    ("cycle", |a, b| a.cycle != b.cycle),
    ("fetch.pc", |a, b| a.fetch_pc != b.fetch_pc),
    ("fetch.seq", |a, b| a.next_seq != b.next_seq),
    ("fetch.stall", |a, b| {
        a.fetch_stall != b.fetch_stall || a.fetch_wait != b.fetch_wait
    }),
    ("exec.divider", |a, b| a.divider_busy != b.divider_busy),
    ("exec.in_flight", |a, b| a.in_flight != b.in_flight),
    ("exec.wb_ready", |a, b| a.wb_ready != b.wb_ready),
];

/// The probes it runs after the register file and before the memory
/// hierarchy, in order: the queues, in-flight micro-ops and the predictor.
const PROBES_AFTER_RF: [Probe; 7] = [
    ("rob", |a, b| a.rob != b.rob),
    ("iq", |a, b| !a.iq.state_eq(&b.iq)),
    ("lq", |a, b| a.lq != b.lq),
    ("sq", |a, b| a.sq != b.sq),
    ("decode_q", |a, b| a.decode_q != b.decode_q),
    ("uops", |a, b| a.uops != b.uops),
    ("bpred", |a, b| a.bp != b.bp),
];

impl Sim {
    /// Creates a simulator with `program` loaded and the entry state
    /// established (SP at the stack top, PC at the entry point).
    ///
    /// # Panics
    ///
    /// Panics if the program's profile does not match the machine's.
    pub fn new(cfg: &MachineConfig, program: &Program) -> Sim {
        assert_eq!(
            cfg.profile, program.profile,
            "program compiled for a different profile than the machine"
        );
        let mem = MemorySystem::new(cfg, program.build_memory());
        let mut rf = RegisterFile::new(cfg.profile, cfg.phys_regs);
        let sp_phys = rf.spec_map[Reg::SP.index()];
        rf.write(sp_phys, program.stack_top());
        let layout = LsqLayout::for_profile(cfg.profile);
        Sim {
            profile: cfg.profile,
            mem,
            rf,
            rob: Rob::new(cfg.rob_entries, cfg.profile.xlen()),
            iq: IssueQueue::new(cfg.iq_entries),
            lq: LsQueue::new(cfg.lq_entries, layout),
            sq: LsQueue::new(cfg.sq_entries, layout),
            bp: BranchPredictor::new(),
            uops: vec![None; cfg.rob_entries],
            fetch_pc: program.entry,
            fetch_stall: 0,
            fetch_wait: false,
            decode_q: VecDeque::with_capacity(2 * cfg.fetch_width),
            next_seq: 1,
            in_flight: Vec::new(),
            wb_ready: VecDeque::new(),
            divider_busy: 0,
            issue_buf: Vec::with_capacity(cfg.iq_entries),
            exec_buf: Vec::new(),
            output: Vec::new(),
            cycle: 0,
            retired: 0,
            mispredicts: 0,
            rf_reads: 0,
            rf_writes: 0,
            stats_occupancy: [0; 5],
            residency: None,
            counters: None,
            wb_masks: None,
            cfg: cfg.clone(),
        }
    }

    /// Attaches the program's static writeback demand masks so a liveness
    /// run can bound each RF danger window to the bits the compiler proved
    /// demanded ([`LivenessMap::is_vulnerable`]). Call alongside
    /// [`Sim::enable_liveness`]; a no-op for programs without annotations.
    pub fn attach_static_masks(&mut self, program: &Program) {
        let Some(last) = program.wb_masks.iter().map(|&(idx, _)| idx).max() else {
            self.wb_masks = None;
            return;
        };
        let mut masks = vec![!0; last as usize + 1];
        for &(idx, mask) in &program.wb_masks {
            masks[idx as usize] = mask;
        }
        self.wb_masks = Some(WbMasks {
            entry: program.entry,
            masks,
        });
    }

    /// Turns on ACE residency tracking for a golden run: every structure
    /// records write→last-read bit-liveness intervals, summarized by
    /// [`Sim::residency_report`]. Call before the first cycle. Tracking is
    /// observational only (no effect on execution), but costs time — leave
    /// it off for injection campaigns.
    pub fn enable_residency(&mut self) {
        let mut core = CoreResidency::new(self.rf.nphys());
        // Architecturally-mapped registers (including the zero register
        // and the initialized stack pointer) hold live state from cycle 0.
        for &tag in &self.rf.arch_map {
            core.rf_open(tag, 0);
        }
        self.residency = Some(Box::new(core));
        self.mem.enable_residency();
    }

    /// Like [`Sim::enable_residency`], but additionally records every
    /// closed per-entry interval so the run can be summarized as a
    /// [`Sim::liveness_map`] for campaign pruning. Call before the first
    /// cycle; costs memory proportional to the event count.
    pub fn enable_liveness(&mut self) {
        self.enable_residency();
        if let Some(t) = self.residency.as_deref_mut() {
            t.set_record_windows(true);
        }
        self.mem.record_liveness_windows();
    }

    /// Per-structure live-bit-cycle totals recorded since
    /// [`Sim::enable_residency`], or `None` if tracking was never enabled.
    /// Callable at any point; open intervals are closed at their last read.
    pub fn residency_report(&self) -> Option<ResidencyReport> {
        let core = self.residency.as_deref()?;
        let (rf, rob, rob_dest, iq, lq, sq) = core.totals();
        let (l1i, l1d, l2) = self.mem.residency_totals()?;
        // Entry-granular accounting: live-bit-cycles = entry-cycles × the
        // structure's bits-per-entry.
        let entries = |s: Structure| -> u64 {
            match s {
                Structure::L1IData | Structure::L1ITag => self.mem.l1i.geometry().lines() as u64,
                Structure::L1DData | Structure::L1DTag => self.mem.l1d.geometry().lines() as u64,
                Structure::L2Data | Structure::L2Tag => self.mem.l2.geometry().lines() as u64,
                Structure::RegFile => self.rf.nphys() as u64,
                Structure::LoadQueue => self.cfg.lq_entries as u64,
                Structure::StoreQueue => self.cfg.sq_entries as u64,
                Structure::IqSrc | Structure::IqDest => self.cfg.iq_entries as u64,
                Structure::RobPc | Structure::RobDest | Structure::RobSeq | Structure::RobFlags => {
                    self.cfg.rob_entries as u64
                }
            }
        };
        let acc = |s: Structure| -> u64 {
            match s {
                Structure::L1IData | Structure::L1ITag => l1i,
                Structure::L1DData | Structure::L1DTag => l1d,
                Structure::L2Data | Structure::L2Tag => l2,
                Structure::RegFile => rf,
                Structure::LoadQueue => lq,
                Structure::StoreQueue => sq,
                Structure::IqSrc | Structure::IqDest => iq,
                Structure::RobDest => rob_dest,
                Structure::RobPc | Structure::RobSeq | Structure::RobFlags => rob,
            }
        };
        let structures = Structure::ALL
            .iter()
            .map(|&s| {
                let bits = self.bit_count(s);
                StructureResidency {
                    structure: s,
                    bits,
                    live_bit_cycles: acc(s) * (bits / entries(s)),
                }
            })
            .collect();
        Some(ResidencyReport {
            cycles: self.cycle,
            structures,
        })
    }

    /// Moves the per-entry danger windows recorded since
    /// [`Sim::enable_liveness`] into a queryable [`LivenessMap`] (the
    /// campaign prune filter), or `None` if liveness recording was never
    /// enabled or the windows were already taken. Recording stops: the
    /// windows move into the map rather than being copied, so call it once,
    /// at the end of the run (still-open entries are closed conservatively,
    /// see `CoreResidency::take_windows`). [`Sim::residency_report`] keeps
    /// working.
    pub fn liveness_map(&mut self) -> Option<LivenessMap> {
        let core = self.residency.as_deref_mut()?.take_windows([
            self.rf.nphys(),
            self.cfg.rob_entries,
            self.cfg.iq_entries,
            self.cfg.lq_entries,
            self.cfg.sq_entries,
        ])?;
        let [l1i, l1d, l2] = self.mem.take_liveness_windows()?;
        let bpe = |bits: u64, entries: usize| {
            if entries == 0 {
                0
            } else {
                bits / entries as u64
            }
        };
        let (rf, lq, sq, iq, rob) = (
            Arc::new(core.rf),
            Arc::new(core.lq),
            Arc::new(core.sq),
            Arc::new(core.iq),
            Arc::new(core.rob),
        );
        let [(l1i_data, l1i_tag), (l1d_data, l1d_tag), (l2_data, l2_tag)] =
            [l1i, l1d, l2].map(|(data, tag)| (Arc::new(data), Arc::new(tag)));
        let lines = [
            self.mem.l1i.geometry().lines(),
            self.mem.l1d.geometry().lines(),
            self.mem.l2.geometry().lines(),
        ];
        let structures = Structure::ALL
            .iter()
            .map(|&s| {
                let bits = self.bit_count(s);
                let (entries, table, always_live_offset) = match s {
                    Structure::RegFile => (self.rf.nphys(), &rf, None),
                    Structure::LoadQueue => (self.cfg.lq_entries, &lq, None),
                    Structure::StoreQueue => (self.cfg.sq_entries, &sq, None),
                    Structure::IqSrc => (self.cfg.iq_entries, &iq, None),
                    // A flipped-on valid bit (the entry's last bit) makes a
                    // ghost entry out of a free slot, so it is dangerous at
                    // any cycle, occupancy notwithstanding.
                    Structure::IqDest => (
                        self.cfg.iq_entries,
                        &iq,
                        bpe(bits, self.cfg.iq_entries).checked_sub(1),
                    ),
                    Structure::RobPc
                    | Structure::RobDest
                    | Structure::RobSeq
                    | Structure::RobFlags => (self.cfg.rob_entries, &rob, None),
                    Structure::L1IData => (lines[0], &l1i_data, None),
                    Structure::L1DData => (lines[1], &l1d_data, None),
                    Structure::L2Data => (lines[2], &l2_data, None),
                    // Tag arrays: per-line layout is tag|valid|dirty, and a
                    // flipped-on valid bit resurrects a stale line.
                    Structure::L1ITag => (lines[0], &l1i_tag, bpe(bits, lines[0]).checked_sub(2)),
                    Structure::L1DTag => (lines[1], &l1d_tag, bpe(bits, lines[1]).checked_sub(2)),
                    Structure::L2Tag => (lines[2], &l2_tag, bpe(bits, lines[2]).checked_sub(2)),
                };
                StructureLiveness::new(s, bits, entries, always_live_offset, Arc::clone(table))
            })
            .collect();
        Some(LivenessMap::new(self.cycle, structures))
    }

    /// Turns on the microarchitectural event counters (stall cycles,
    /// squash activity, branch statistics, per-structure occupancy
    /// histograms). Like residency tracking this is observational only —
    /// it never feeds back into execution and is excluded from
    /// [`Sim::state_eq`] — and it is off by default so campaigns pay only
    /// one branch per cycle for it.
    pub fn enable_counters(&mut self) {
        self.counters = Some(Box::new(CounterState::new([
            self.cfg.phys_regs,
            self.cfg.rob_entries,
            self.cfg.iq_entries,
            self.cfg.lq_entries,
            self.cfg.sq_entries,
        ])));
    }

    /// Snapshot of the counters recorded since [`Sim::enable_counters`],
    /// or `None` if counting was never enabled.
    pub fn counters(&self) -> Option<SimCounters> {
        let c = self.counters.as_deref()?;
        const NAMES: [&str; 5] = ["regfile", "rob", "iq", "lq", "sq"];
        let capacities = [
            self.cfg.phys_regs,
            self.cfg.rob_entries,
            self.cfg.iq_entries,
            self.cfg.lq_entries,
            self.cfg.sq_entries,
        ];
        Some(SimCounters {
            cycles: self.cycle,
            committed: self.retired,
            fetch_stall_cycles: c.fetch_stall_cycles,
            issue_stall_cycles: c.issue_stall_cycles,
            commit_stall_cycles: c.commit_stall_cycles,
            squashes: c.squashes,
            squashed_uops: c.squashed_uops,
            branches: c.branches,
            mispredicts: self.mispredicts,
            occupancy: (0..5)
                .map(|i| OccupancyHistogram {
                    name: NAMES[i],
                    capacity: capacities[i],
                    counts: c.occupancy[i].clone(),
                })
                .collect(),
        })
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The PC the front end will fetch from next.
    pub fn fetch_pc(&self) -> u64 {
        self.fetch_pc
    }

    /// Committed instruction count.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Program output so far.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycle,
            retired: self.retired,
            mispredicts: self.mispredicts,
            l1i: (self.mem.l1i.hits, self.mem.l1i.misses),
            l1d: (self.mem.l1d.hits, self.mem.l1d.misses),
            l2: (self.mem.l2.hits, self.mem.l2.misses),
            rf_occupancy_sum: self.stats_occupancy[0],
            rf_reads: self.rf_reads,
            rf_writes: self.rf_writes,
            rob_occupancy_sum: self.stats_occupancy[1],
            iq_occupancy_sum: self.stats_occupancy[2],
            lq_occupancy_sum: self.stats_occupancy[3],
            sq_occupancy_sum: self.stats_occupancy[4],
        }
    }

    /// Whether two simulators at the same cycle hold identical
    /// execution-relevant state, so that (by determinism) their futures are
    /// identical.
    ///
    /// Statistics counters (retired, mispredicts, port traffic, occupancy
    /// sums, cache hit/miss counts) and the emitted output stream are
    /// excluded: none of them feed back into execution. Callers deciding a
    /// fault's outcome compare [`Sim::output`] separately — equal state with
    /// equal output prefixes means the fault is fully masked, while equal
    /// state with diverged output means the final output must differ.
    ///
    /// Fields are compared cheapest-first so that actively diverged states
    /// (the common case while a fault is still live) return quickly.
    pub fn state_eq(&self, other: &Sim) -> bool {
        self.state_divergence(other).is_none()
    }

    /// Every component name [`Sim::state_divergence`] can return, in its
    /// exact probe order. Forensics records persist these names
    /// (`DivergenceSite.component`), so the list is part of the public
    /// contract: a golden-record test pins it, and any reordering or
    /// renaming of the probes below must show up here as a deliberate,
    /// visible change.
    pub const DIVERGENCE_COMPONENTS: [&'static str; 19] = [
        "cycle",
        "fetch.pc",
        "fetch.seq",
        "fetch.stall",
        "exec.divider",
        "exec.in_flight",
        "exec.wb_ready",
        "rf",
        "rob",
        "iq",
        "lq",
        "sq",
        "decode_q",
        "uops",
        "bpred",
        "mem.l1i",
        "mem.l1d",
        "mem.l2",
        "mem",
    ];

    /// Forks a child simulator for fault injection.
    ///
    /// Semantically identical to `clone()` for execution purposes, but
    /// cheap: guest memory, the cache arrays and the register-file value
    /// bank live in copy-on-write chunked storage, so the fork shares every
    /// chunk with the parent and only writes made *after* the fork
    /// materialize private copies. A fork immediately dropped allocates
    /// O(1) chunk copies, not O(machine).
    ///
    /// Observational state that never feeds back into execution — the
    /// residency tracker and the event counters — is not inherited: a child
    /// exists to classify one fault, and dragging a multi-megabyte residency
    /// map through every fork would defeat the point. Nor is the read watch
    /// ([`Sim::watch`]). The output stream *is* kept, because convergence
    /// classification compares output prefixes.
    pub fn fork(&self) -> Sim {
        let mut child = self.clone();
        child.residency = None;
        child.counters = None;
        child.wb_masks = None;
        child.mem.clear_residency();
        child.watch(&StateDelta::default());
        child
    }

    /// Like [`Sim::state_eq`], but names the first execution-relevant
    /// component found to differ (`None` means the states are equal).
    ///
    /// Components are checked in the same cheapest-first order `state_eq`
    /// uses, so for a freshly injected fault the returned name is the
    /// faulted (or first directly corrupted) structure — the forensic
    /// "where did state first diverge" answer the injector records.
    /// The full name list, in probe order, is [`Sim::DIVERGENCE_COMPONENTS`].
    pub fn state_divergence(&self, other: &Sim) -> Option<&'static str> {
        let differs = |&(name, probe): &Probe| probe(self, other).then_some(name);
        PROBES_BEFORE_RF
            .iter()
            .find_map(differs)
            .or_else(|| (!self.rf.state_eq(&other.rf)).then_some("rf"))
            .or_else(|| PROBES_AFTER_RF.iter().find_map(differs))
            .or_else(|| self.mem.divergence(&other.mem))
    }

    /// Every component currently differing from `other`, in
    /// [`Sim::DIVERGENCE_COMPONENTS`] probe order (empty = states equal).
    ///
    /// Where [`Sim::state_divergence`] stops at the first (cheapest)
    /// witness, this walks all 19 probes: propagation tracing samples the
    /// *set* of corrupted components over time, so it needs the exhaustive
    /// answer. Purely observational — it reads both simulators and mutates
    /// neither, so sampling can never perturb classification.
    pub fn divergent_components(&self, other: &Sim) -> Vec<&'static str> {
        let differs = |&(name, probe): &Probe| probe(self, other).then_some(name);
        let mut out: Vec<&'static str> = PROBES_BEFORE_RF.iter().filter_map(differs).collect();
        if !self.rf.state_eq(&other.rf) {
            out.push("rf");
        }
        out.extend(PROBES_AFTER_RF.iter().filter_map(differs));
        self.mem.divergent_components(&other.mem, &mut out);
        out
    }

    /// What this machine differs from `golden` in, when that is only
    /// register values and per-set cache state: `Some` exactly when the two
    /// agree on everything [`Sim::state_eq`] compares except the values of
    /// allocated physical registers and the per-set state of L1I, L1D and
    /// L2. An empty delta means `state_eq`.
    ///
    /// Such a machine evolves like `golden`, still differing only inside
    /// the delta, for as long as `golden` neither reads one of its
    /// registers at issue nor looks up one of its sets: nothing else reads
    /// that state, so `golden`'s path never depends on it and this machine
    /// makes the same reads and lookups. Writes and frees can only shrink
    /// the delta; an allocation can add a register whose dead value
    /// differed, but its writeback rewrites it before anything reads it.
    /// [`Sim::watch`] reports when that stops holding.
    pub fn delta(&self, golden: &Sim) -> Option<StateDelta> {
        if PROBES_BEFORE_RF
            .iter()
            .chain(&PROBES_AFTER_RF)
            .any(|(_, probe)| probe(self, golden))
        {
            return None;
        }
        let regs = self.rf.delta(&golden.rf)?;
        let sets = self.mem.cache_delta(&golden.mem)?;
        Some(StateDelta { regs, sets })
    }

    /// Watches exactly the registers and sets of `delta` (nothing when it
    /// is empty), dropping any earlier watch and its hits: from here on the
    /// issue stage notes reads of watched registers and [`Cache::lookup`]
    /// notes watched sets, until [`Sim::take_watch_hits`] reports them.
    ///
    /// The watch is not machine state: [`Sim::state_eq`] ignores it and
    /// [`Sim::fork`] does not inherit it. An unwatched machine pays one
    /// emptiness test per register read and per cache lookup.
    ///
    /// [`Cache::lookup`]: crate::Cache::lookup
    pub fn watch(&mut self, delta: &StateDelta) {
        self.rf.watch(&delta.regs);
        self.mem.watch(&delta.sets);
    }

    /// The watched registers and sets read since [`Sim::watch`] or the
    /// previous call; the watch itself stays armed.
    pub fn take_watch_hits(&mut self) -> StateDelta {
        StateDelta {
            regs: self.rf.take_watch_hits(),
            sets: self.mem.take_watch_hits(),
        }
    }

    /// Whether the machine sits at a fixed point of the cycle transition:
    /// one more cycle leaves it [`Sim::state_eq`] to itself (the cycle
    /// counter aside). Stepping a fork leaves `self` untouched; `false` if
    /// that cycle ends the run.
    ///
    /// The transition never reads the cycle counter (only terminal
    /// outcomes and the residency tracker do, and forks carry no tracker),
    /// and `state_eq` is a congruence for it, so a fixed point repeats
    /// forever: [`Sim::run`] from here returns `CycleLimit` at its budget.
    /// Faults that deadlock the pipeline (a lost wakeup tag, a cleared
    /// DONE flag) freeze it this way within a few dozen cycles.
    pub fn is_fixed_point(&self) -> bool {
        let mut next = self.fork();
        if next.step_cycle().is_err() {
            return false;
        }
        next.cycle = self.cycle;
        next.state_eq(self)
    }

    /// Runs until the program ends or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> SimOutcome {
        while self.cycle < max_cycles {
            if let Err(end) = self.step_cycle() {
                return end;
            }
        }
        SimOutcome::CycleLimit { cycles: self.cycle }
    }

    /// Runs until the cycle counter reaches `target` (for positioning an
    /// injection); returns early with the outcome if the program ends first.
    pub fn run_to_cycle(&mut self, target: u64) -> Option<SimOutcome> {
        while self.cycle < target {
            if let Err(end) = self.step_cycle() {
                return Some(end);
            }
        }
        None
    }

    /// Advances one cycle.
    ///
    /// # Errors
    ///
    /// The terminal [`SimOutcome`] when the program ends this cycle.
    pub fn step_cycle(&mut self) -> Result<(), SimOutcome> {
        if self.residency.is_some() {
            self.mem.set_clock(self.cycle);
        }
        if self.counters.is_none() {
            self.commit()?;
            self.execute()?;
            self.writeback()?;
            self.issue()?;
            self.rename()?;
            self.fetch()?;
        } else {
            self.step_stages_counted()?;
        }
        self.cycle += 1;
        let occupancy = [
            self.rf.allocated_count(),
            self.rob.len(),
            self.iq.len(),
            self.lq.len(),
            self.sq.len(),
        ];
        for (sum, occ) in self.stats_occupancy.iter_mut().zip(occupancy) {
            *sum += occ as u64;
        }
        if let Some(c) = self.counters.as_deref_mut() {
            for (hist, occ) in c.occupancy.iter_mut().zip(occupancy) {
                hist[occ] += 1;
            }
        }
        Ok(())
    }

    /// The stage sequence with before/after probes for the stall counters.
    /// Kept out of [`Sim::step_cycle`]'s counters-off path so campaigns pay
    /// only one branch per cycle when counting is disabled.
    fn step_stages_counted(&mut self) -> Result<(), SimOutcome> {
        let retired_before = self.retired;
        let rob_waiting = !self.rob.is_empty();
        self.commit()?;
        let commit_stalled = rob_waiting && self.retired == retired_before;
        self.execute()?;
        self.writeback()?;
        // Probed after execute so a squash's IQ cleanup is not mistaken
        // for issued work.
        let iq_before = self.iq.len();
        self.issue()?;
        let issue_stalled = iq_before > 0 && self.iq.len() == iq_before;
        self.rename()?;
        // Rename has already drained its share, so any growth is fetch's.
        let decoded_before = self.decode_q.len();
        self.fetch()?;
        let fetch_stalled = self.decode_q.len() == decoded_before;
        let c = self.counters.as_deref_mut().expect("counters enabled");
        c.commit_stall_cycles += commit_stalled as u64;
        c.issue_stall_cycles += issue_stalled as u64;
        c.fetch_stall_cycles += fetch_stalled as u64;
        Ok(())
    }

    fn assert_stop(&self, reason: &'static str) -> SimOutcome {
        SimOutcome::Assert {
            cycles: self.cycle,
            reason,
        }
    }

    // ----------------------------------------------------------- commit --

    fn commit(&mut self) -> Result<(), SimOutcome> {
        for _ in 0..self.cfg.commit_width {
            if self.rob.is_empty() {
                return Ok(());
            }
            let idx = self.rob.head();
            let flags = self.rob.flags_of(idx);
            if flags & flag::VALID == 0 {
                return Err(self.assert_stop("invalid ROB entry at commit head"));
            }
            if flags & flag::DONE == 0 {
                return Ok(()); // head not finished yet (or DONE flag lost → timeout)
            }
            let Some(uop) = self.uops[idx].as_ref() else {
                return Err(self.assert_stop("ROB entry without a dispatched instruction"));
            };
            if uop.state != UopState::Done {
                return Err(self.assert_stop("DONE flag set on an incomplete instruction"));
            }
            // Cross-check every injectable field against the payload.
            if self.rob.seq_of(idx) != uop.seq as u16 {
                return Err(self.assert_stop("ROB sequence field corrupted"));
            }
            if self.rob.pc_of(idx) != self.rob.mask_pc(uop.pc) {
                return Err(self.assert_stop("ROB PC field corrupted"));
            }
            let mut expected = flag::VALID | flag::DONE;
            match uop.kind {
                UopKind::Branch => expected |= flag::BRANCH,
                UopKind::Store => expected |= flag::STORE,
                UopKind::Out => expected |= flag::OUT,
                UopKind::Halt => expected |= flag::HALT,
                UopKind::Alu | UopKind::Load | UopKind::Poisoned => {}
            }
            if uop.exception.is_some() {
                expected |= flag::EXCEPTION;
            }
            if uop.dest.is_some() {
                expected |= flag::HAS_DEST;
            }
            if flags != expected {
                return Err(self.assert_stop("ROB flags field corrupted"));
            }
            if let Some(d) = uop.dest {
                if self.rob.dest_of(idx) != (d.arch, d.phys, d.old) {
                    return Err(self.assert_stop("ROB destination field corrupted"));
                }
            }

            // Architectural effects (payload verified equal to fields).
            let uop = self.uops[idx].take().expect("checked above");
            if let Some(trap) = uop.exception {
                return Err(SimOutcome::Crash {
                    cycles: self.cycle,
                    trap,
                });
            }
            match uop.kind {
                UopKind::Store => {
                    let h = self.sq.head();
                    if self.sq.is_empty() {
                        return Err(self.assert_stop("store commit with empty store queue"));
                    }
                    if let Err(m) = self.sq.check(h, "SQ entry corrupted at commit") {
                        return Err(self.assert_stop(m));
                    }
                    let p = *self.sq.payload(h).expect("checked");
                    if p.seq != uop.seq || !p.addr_known {
                        return Err(self.assert_stop("store queue commit order broken"));
                    }
                    match self.mem.write(p.addr, p.size, p.data) {
                        Ok(_) => {}
                        Err(MemErr::Arch(f)) => {
                            return Err(SimOutcome::Crash {
                                cycles: self.cycle,
                                trap: Trap::Mem(f),
                            })
                        }
                        Err(MemErr::Assert(m)) => return Err(self.assert_stop(m)),
                    }
                    self.sq.pop_head();
                    let cycle = self.cycle;
                    if let Some(t) = self.residency.as_deref_mut() {
                        t.sq_pop(h, uop.seq, cycle);
                    }
                }
                UopKind::Load => {
                    let h = self.lq.head();
                    if self.lq.is_empty() {
                        return Err(self.assert_stop("load commit with empty load queue"));
                    }
                    if let Err(m) = self.lq.check(h, "LQ entry corrupted at commit") {
                        return Err(self.assert_stop(m));
                    }
                    let p = *self.lq.payload(h).expect("checked");
                    if p.seq != uop.seq {
                        return Err(self.assert_stop("load queue commit order broken"));
                    }
                    self.lq.pop_head();
                    let cycle = self.cycle;
                    if let Some(t) = self.residency.as_deref_mut() {
                        t.lq_pop(h, uop.seq, cycle);
                    }
                }
                UopKind::Out => self.output.push(self.profile.mask(uop.result)),
                UopKind::Halt => {
                    return Err(SimOutcome::Halted {
                        cycles: self.cycle,
                        retired: self.retired + 1,
                        output: self.output.clone(),
                    });
                }
                UopKind::Branch => {
                    if let Some(c) = self.counters.as_deref_mut() {
                        c.branches += 1;
                    }
                }
                UopKind::Alu | UopKind::Poisoned => {}
            }
            if let Some(d) = uop.dest {
                if self.rf.arch_map[d.arch as usize] != d.old {
                    return Err(self.assert_stop("retirement rename linkage broken"));
                }
                self.rf.arch_map[d.arch as usize] = d.phys;
                if let Err(m) = self.rf.free(d.old) {
                    return Err(self.assert_stop(m));
                }
                if let Some(t) = self.residency.as_deref_mut() {
                    t.rf_free(d.old);
                }
            }
            self.rob.pop_head();
            let cycle = self.cycle;
            if let Some(t) = self.residency.as_deref_mut() {
                t.rob_pop(idx, uop.seq, cycle);
            }
            self.retired += 1;
        }
        Ok(())
    }

    // -------------------------------------------------------- writeback --

    fn writeback(&mut self) -> Result<(), SimOutcome> {
        for _ in 0..self.cfg.writeback_width {
            let Some(idx) = self.wb_ready.pop_front() else {
                return Ok(());
            };
            let Some(uop) = self.uops[idx].as_mut() else {
                continue; // squashed while waiting
            };
            if uop.dest.is_some() && uop.exception.is_none() {
                let tag = uop.issued_dest_tag;
                if !self.rf.tag_valid(tag) {
                    return Err(self.assert_stop("writeback to out-of-range register"));
                }
                let value = uop.result;
                self.rf.write(tag, value);
                self.rf.set_ready(tag, true);
                self.rf_writes += 1;
                self.iq.broadcast(tag);
                let cycle = self.cycle;
                let pc = uop.pc;
                if let Some(t) = self.residency.as_deref_mut() {
                    let mask = self.wb_masks.as_ref().map_or(!0, |m| m.get(pc));
                    t.rf_write(tag, cycle, mask);
                }
            }
            uop.state = UopState::Done;
            self.rob.set_done(idx);
            if self.uops[idx]
                .as_ref()
                .is_some_and(|u| u.exception.is_some())
            {
                self.rob.set_exception(idx);
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- execute --

    fn execute(&mut self) -> Result<(), SimOutcome> {
        if self.divider_busy > 0 {
            self.divider_busy -= 1;
        }
        let mut mispredict: Option<(u64, usize, u64)> = None; // (seq, rob, target)
        let mut in_flight = std::mem::take(&mut self.in_flight);
        let mut still = std::mem::take(&mut self.exec_buf);
        for &idx in &in_flight {
            let Some(state) = self.uops[idx].as_ref().map(|u| u.state) else {
                continue; // squashed
            };
            match state {
                UopState::Executing { left } | UopState::MemAccess { left } if left > 1 => {
                    let uop = self.uops[idx].as_mut().expect("alive");
                    uop.state = match state {
                        UopState::Executing { .. } => UopState::Executing { left: left - 1 },
                        _ => UopState::MemAccess { left: left - 1 },
                    };
                    still.push(idx);
                }
                UopState::MemAccess { .. } => {
                    // Cache access finished; result is already captured.
                    self.wb_ready.push_back(idx);
                }
                UopState::Executing { .. } => {
                    // Functional completion this cycle.
                    match self.finish_execute(idx)? {
                        FinishAction::Complete => self.wb_ready.push_back(idx),
                        FinishAction::WaitMem => still.push(idx),
                        FinishAction::Mispredict(target) => {
                            let seq = self.uops[idx].as_ref().expect("alive").seq;
                            self.wb_ready.push_back(idx);
                            if mispredict.is_none_or(|(s, _, _)| seq < s) {
                                mispredict = Some((seq, idx, target));
                            }
                        }
                    }
                }
                UopState::WaitMemOrder => {
                    if self.try_load_access(idx)? {
                        still.push(idx); // accessing or still blocked
                    } else {
                        self.wb_ready.push_back(idx);
                    }
                }
                other => unreachable!("in-flight uop in state {other:?}"),
            }
        }
        in_flight.clear();
        self.in_flight = still;
        self.exec_buf = in_flight;
        if let Some((seq, rob_idx, target)) = mispredict {
            self.squash(seq, rob_idx, target)?;
        }
        Ok(())
    }

    /// Completes execution of `idx`. Returns what to do next.
    fn finish_execute(&mut self, idx: usize) -> Result<FinishAction, SimOutcome> {
        let profile = self.profile;
        let uop = self.uops[idx].as_mut().expect("alive");
        let pc = uop.pc;
        let instr = uop.instr.expect("non-poisoned");
        match instr {
            Instr::Alu { op, .. } => {
                uop.result = eval_alu(profile, op, uop.val1, uop.val2);
                Ok(FinishAction::Complete)
            }
            Instr::AluImm { op, imm, .. } => {
                uop.result = eval_alu(profile, op, uop.val1, imm as i64 as u64);
                Ok(FinishAction::Complete)
            }
            Instr::Lui { imm, .. } => {
                uop.result = profile.mask(((imm as i64) << 13) as u64);
                Ok(FinishAction::Complete)
            }
            Instr::Load {
                width,
                signed,
                offset,
                ..
            } => {
                let addr = profile.mask(uop.val1.wrapping_add(offset as i64 as u64));
                uop.mem_addr = addr;
                uop.mem_size = width.bytes();
                uop.mem_signed = signed;
                uop.addr_known = true;
                if let Err(f) = self.mem.arch_check(addr, width.bytes()) {
                    uop.exception = Some(Trap::Mem(f));
                    return Ok(FinishAction::Complete);
                }
                let lsq_idx = uop.lsq_idx.expect("load has an LQ slot");
                if let Err(m) = self
                    .lq
                    .check(lsq_idx, "LQ entry corrupted at address generation")
                {
                    return Err(self.assert_stop(m));
                }
                let p = self.lq.payload_mut(lsq_idx).expect("checked");
                p.addr = addr;
                p.size = width.bytes();
                p.addr_known = true;
                let uop = self.uops[idx].as_mut().expect("alive");
                uop.state = UopState::WaitMemOrder;
                // Try to access immediately (may already be orderable).
                if self.try_load_access(idx)? {
                    Ok(FinishAction::WaitMem)
                } else {
                    Ok(FinishAction::Complete)
                }
            }
            Instr::Store { width, offset, .. } => {
                let addr = profile.mask(uop.val1.wrapping_add(offset as i64 as u64));
                let data = uop.val2;
                uop.mem_addr = addr;
                uop.mem_size = width.bytes();
                uop.addr_known = true;
                if let Err(f) = self.mem.arch_check(addr, width.bytes()) {
                    uop.exception = Some(Trap::Mem(f));
                    return Ok(FinishAction::Complete);
                }
                let lsq_idx = uop.lsq_idx.expect("store has an SQ slot");
                if let Err(m) = self
                    .sq
                    .check(lsq_idx, "SQ entry corrupted at address generation")
                {
                    return Err(self.assert_stop(m));
                }
                let p = self.sq.payload_mut(lsq_idx).expect("checked");
                p.addr = addr;
                p.size = width.bytes();
                p.data = data;
                p.addr_known = true;
                Ok(FinishAction::Complete)
            }
            Instr::Branch { cond, offset, .. } => {
                let taken = eval_branch(profile, cond, uop.val1, uop.val2);
                let target = if taken {
                    pc.wrapping_add((offset as i64 as u64).wrapping_mul(4))
                } else {
                    pc.wrapping_add(4)
                };
                let target = profile.mask(target);
                uop.actual_next = target;
                let pred = uop.pred_next;
                self.bp.update_taken(pc, taken);
                if pred != target {
                    Ok(FinishAction::Mispredict(target))
                } else {
                    Ok(FinishAction::Complete)
                }
            }
            Instr::Jal { offset, .. } => {
                let target = profile.mask(pc.wrapping_add((offset as i64 as u64).wrapping_mul(4)));
                uop.result = profile.mask(pc.wrapping_add(4));
                uop.actual_next = target;
                if uop.pred_next != target {
                    Ok(FinishAction::Mispredict(target))
                } else {
                    Ok(FinishAction::Complete)
                }
            }
            Instr::Jalr { offset, .. } => {
                let target = profile.mask(uop.val1.wrapping_add(offset as i64 as u64));
                uop.result = profile.mask(pc.wrapping_add(4));
                uop.actual_next = target;
                let pred = uop.pred_next;
                self.bp.update_indirect(pc, target);
                if pred != target {
                    Ok(FinishAction::Mispredict(target))
                } else {
                    Ok(FinishAction::Complete)
                }
            }
            Instr::Out { .. } => {
                uop.result = uop.val1;
                Ok(FinishAction::Complete)
            }
            Instr::Halt => Ok(FinishAction::Complete),
        }
    }

    /// Progress a load waiting on memory ordering. Returns `true` if it is
    /// still in flight, `false` if it completed (ready for writeback).
    fn try_load_access(&mut self, idx: usize) -> Result<bool, SimOutcome> {
        let uop = self.uops[idx].as_ref().expect("alive");
        let (seq, addr, size, signed) = (uop.seq, uop.mem_addr, uop.mem_size, uop.mem_signed);
        match self.sq.check_older_stores(seq, addr, size) {
            StoreCheck::Blocked => Ok(true),
            StoreCheck::Forward(data) => {
                let uop = self.uops[idx].as_mut().expect("alive");
                uop.result = extend_load(self.profile, data, size, signed);
                uop.state = UopState::WaitWriteback;
                Ok(false)
            }
            StoreCheck::Clear => match self.mem.read(addr, size) {
                Ok((raw, lat)) => {
                    let uop = self.uops[idx].as_mut().expect("alive");
                    uop.result = extend_load(self.profile, raw, size, signed);
                    if lat <= 1 {
                        uop.state = UopState::WaitWriteback;
                        Ok(false)
                    } else {
                        uop.state = UopState::MemAccess { left: lat - 1 };
                        Ok(true)
                    }
                }
                Err(MemErr::Arch(f)) => {
                    let uop = self.uops[idx].as_mut().expect("alive");
                    uop.exception = Some(Trap::Mem(f));
                    uop.state = UopState::WaitWriteback;
                    Ok(false)
                }
                Err(MemErr::Assert(m)) => Err(self.assert_stop(m)),
            },
        }
    }

    // ------------------------------------------------------------ issue --

    fn issue(&mut self) -> Result<(), SimOutcome> {
        let mut ready = std::mem::take(&mut self.issue_buf);
        if let Err(m) = self.iq.ready_entries(&mut ready) {
            return Err(self.assert_stop(m));
        }
        let mut issued = 0;
        let mut mem_issued = 0;
        for &slot in &ready {
            if issued == self.cfg.issue_width {
                break;
            }
            let p = *self.iq.payload(slot).expect("ready entries have payloads");
            let Some(uop) = self.uops[p.rob_idx].as_ref() else {
                return Err(self.assert_stop("IQ entry linked to an empty ROB slot"));
            };
            if uop.seq != p.seq {
                return Err(self.assert_stop("IQ linkage broken"));
            }
            // Structural hazards.
            let is_mem = matches!(uop.kind, UopKind::Load | UopKind::Store);
            if is_mem && mem_issued == 2 {
                continue;
            }
            let is_div = matches!(
                uop.instr,
                Some(Instr::Alu {
                    op: AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu,
                    ..
                })
            );
            if is_div && self.divider_busy > 0 {
                continue;
            }
            // Cross-check the injectable fields against the rename payload.
            let (s1, s2, d) = self.iq.stored_tags(slot);
            if (p.has_src1 && s1 != p.golden_src1) || (p.has_src2 && s2 != p.golden_src2) {
                return Err(self.assert_stop("IQ source field corrupted"));
            }
            if d != p.golden_dest {
                return Err(self.assert_stop("IQ destination field corrupted"));
            }
            let v1 = if p.has_src1 {
                self.rf_reads += 1;
                self.rf.read_operand(s1)
            } else {
                0
            };
            let v2 = if p.has_src2 {
                self.rf_reads += 1;
                self.rf.read_operand(s2)
            } else {
                0
            };
            let cycle = self.cycle;
            if let Some(t) = self.residency.as_deref_mut() {
                if p.has_src1 {
                    t.rf_read(s1, cycle);
                }
                if p.has_src2 {
                    t.rf_read(s2, cycle);
                }
                t.iq_remove(slot, p.seq, cycle);
            }
            let latency = self.latency_of(p.rob_idx);
            if is_div {
                self.divider_busy = latency;
            }
            let uop = self.uops[p.rob_idx].as_mut().expect("alive");
            uop.val1 = v1;
            uop.val2 = v2;
            uop.issued_dest_tag = d;
            uop.state = UopState::Executing { left: latency };
            self.in_flight.push(p.rob_idx);
            self.iq.remove(slot);
            issued += 1;
            if is_mem {
                mem_issued += 1;
            }
        }
        // Handed back empty, so cloning or forking the machine copies no
        // stale slots.
        ready.clear();
        self.issue_buf = ready;
        Ok(())
    }

    fn latency_of(&self, rob_idx: usize) -> u64 {
        let uop = self.uops[rob_idx].as_ref().expect("alive");
        match uop.instr {
            Some(Instr::Alu { op: AluOp::Mul, .. }) => 4,
            Some(Instr::Alu {
                op: AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu,
                ..
            }) => 12,
            // Loads and stores take one AGU cycle before the cache access.
            _ => 1,
        }
    }

    // ------------------------------------------------- rename / dispatch --

    fn rename(&mut self) -> Result<(), SimOutcome> {
        for _ in 0..self.cfg.fetch_width {
            let Some(front) = self.decode_q.front() else {
                return Ok(());
            };
            if self.rob.is_full() {
                return Ok(());
            }
            let kind = front.kind;
            if kind != UopKind::Poisoned && !self.iq.has_free_slot() {
                return Ok(());
            }
            if kind == UopKind::Load && self.lq.is_full() {
                return Ok(());
            }
            if kind == UopKind::Store && self.sq.is_full() {
                return Ok(());
            }
            let needs_dest = front.instr.and_then(|i| i.dest()).is_some();
            if needs_dest && self.rf.free_count() == 0 {
                return Ok(());
            }

            let mut uop = self.decode_q.pop_front().expect("peeked");
            uop.seq = self.next_seq;
            self.next_seq += 1;

            // Rename sources.
            let (mut has1, mut has2) = (false, false);
            let (mut g1, mut g2) = (0 as PhysReg, 0 as PhysReg);
            if let Some(instr) = uop.instr {
                let (s1, s2) = instr.sources();
                if let Some(r) = s1 {
                    has1 = true;
                    g1 = self.rf.spec_map[r.index()];
                    uop.src1 = Some(g1);
                }
                if let Some(r) = s2 {
                    has2 = true;
                    g2 = self.rf.spec_map[r.index()];
                    uop.src2 = Some(g2);
                }
                if let Some(rd) = instr.dest() {
                    let Some(phys) = self.rf.alloc() else {
                        return Err(self.assert_stop("rename without a free physical register"));
                    };
                    let old = self.rf.spec_map[rd.index()];
                    self.rf.spec_map[rd.index()] = phys;
                    uop.dest = Some(DestInfo {
                        arch: rd.index() as u8,
                        phys,
                        old,
                    });
                }
            }
            if kind == UopKind::Branch {
                uop.checkpoint = Some(self.rf.checkpoint());
            }

            // ROB entry.
            let mut flag_bits = 0u8;
            match kind {
                UopKind::Branch => flag_bits |= flag::BRANCH,
                UopKind::Store => flag_bits |= flag::STORE,
                UopKind::Out => flag_bits |= flag::OUT,
                UopKind::Halt => flag_bits |= flag::HALT,
                _ => {}
            }
            if uop.exception.is_some() {
                flag_bits |= flag::EXCEPTION;
            }
            let dest_triple = uop.dest.map(|d| (d.arch, d.phys, d.old));
            let Some(rob_idx) = self.rob.push(uop.pc, uop.seq, dest_triple, flag_bits) else {
                // Unreachable through the is_full guard above unless a
                // fault corrupted the capacity bookkeeping: an Assert, not
                // a panic — campaigns must survive it under panic="abort".
                return Err(self.assert_stop("ROB overflow at dispatch"));
            };
            uop.rob_idx = rob_idx;
            let cycle = self.cycle;
            if let Some(t) = self.residency.as_deref_mut() {
                t.rob_push(uop.seq, rob_idx, dest_triple.is_some(), cycle);
            }

            if kind == UopKind::Poisoned {
                uop.state = UopState::Done;
                self.rob.set_done(rob_idx);
                self.uops[rob_idx] = Some(uop);
                continue;
            }

            // LSQ entries.
            if kind == UopKind::Load {
                let tag = uop.dest.map_or(0, |d| d.phys);
                let Some(lq_idx) = self.lq.push(LsqPayload {
                    seq: uop.seq,
                    rob_idx,
                    tag,
                    addr: 0,
                    size: 0,
                    data: 0,
                    addr_known: false,
                }) else {
                    return Err(self.assert_stop("load queue overflow at dispatch"));
                };
                uop.lsq_idx = Some(lq_idx);
                if let Some(t) = self.residency.as_deref_mut() {
                    t.lq_push(uop.seq, lq_idx, cycle);
                }
            }
            if kind == UopKind::Store {
                let Some(sq_idx) = self.sq.push(LsqPayload {
                    seq: uop.seq,
                    rob_idx,
                    tag: g2,
                    addr: 0,
                    size: 0,
                    data: 0,
                    addr_known: false,
                }) else {
                    return Err(self.assert_stop("store queue overflow at dispatch"));
                };
                uop.lsq_idx = Some(sq_idx);
                if let Some(t) = self.residency.as_deref_mut() {
                    t.sq_push(uop.seq, sq_idx, cycle);
                }
            }

            // IQ entry.
            let payload = IqPayload {
                rob_idx,
                seq: uop.seq,
                has_src1: has1,
                has_src2: has2,
                golden_src1: g1,
                golden_src2: g2,
                golden_dest: uop.dest.map_or(0, |d| d.phys),
            };
            let r1 = !has1 || self.rf.is_ready(g1);
            let r2 = !has2 || self.rf.is_ready(g2);
            let Some(iq_slot) = self.iq.insert(payload, r1, r2) else {
                return Err(self.assert_stop("IQ overflow at dispatch"));
            };
            if let Some(t) = self.residency.as_deref_mut() {
                t.iq_insert(uop.seq, iq_slot, cycle);
            }
            self.uops[rob_idx] = Some(uop);
        }
        Ok(())
    }

    // ------------------------------------------------------------ fetch --

    fn fetch(&mut self) -> Result<(), SimOutcome> {
        if self.fetch_wait {
            return Ok(());
        }
        if self.fetch_stall > 0 {
            self.fetch_stall -= 1;
            return Ok(());
        }
        for _ in 0..self.cfg.fetch_width {
            if self.decode_q.len() >= 2 * self.cfg.fetch_width {
                return Ok(());
            }
            let pc = self.fetch_pc;
            let (word, lat) = match self.mem.fetch(pc) {
                Ok(w) => w,
                Err(MemErr::Arch(f)) => {
                    self.decode_q
                        .push_back(Uop::new(0, pc, None, Some(Trap::Mem(f))));
                    self.fetch_wait = true;
                    return Ok(());
                }
                Err(MemErr::Assert(m)) => return Err(self.assert_stop(m)),
            };
            if lat > self.cfg.l1_latency {
                // Miss: charge the fill delay before this word is consumed.
                self.fetch_stall = lat - 1;
            }
            let instr = match decode(word) {
                Ok(i) if self.instr_valid_for_profile(i) => i,
                _ => {
                    self.decode_q.push_back(Uop::new(
                        0,
                        pc,
                        None,
                        Some(Trap::InvalidInstr { pc, word }),
                    ));
                    self.fetch_wait = true;
                    return Ok(());
                }
            };
            let mut uop = Uop::new(0, pc, Some(instr), None);
            let next = self.predict_next(pc, instr);
            uop.pred_next = next;
            self.decode_q.push_back(uop);
            if instr == Instr::Halt {
                self.fetch_wait = true;
                return Ok(());
            }
            self.fetch_pc = next;
            if self.fetch_stall > 0 {
                return Ok(()); // I-cache miss consumed the rest of the cycle
            }
            if next != pc.wrapping_add(4) {
                return Ok(()); // predicted-taken control flow ends the fetch group
            }
        }
        Ok(())
    }

    fn instr_valid_for_profile(&self, instr: Instr) -> bool {
        let n = self.profile.nregs();
        let (s1, s2) = instr.sources();
        let regs_ok = instr.dest().is_none_or(|d| d.valid_for(n))
            && s1.is_none_or(|r| r.valid_for(n))
            && s2.is_none_or(|r| r.valid_for(n));
        let width_ok = !(self.profile == Profile::A32
            && matches!(
                instr,
                Instr::Load {
                    width: MemWidth::D,
                    ..
                } | Instr::Store {
                    width: MemWidth::D,
                    ..
                }
            ));
        regs_ok && width_ok
    }

    fn predict_next(&mut self, pc: u64, instr: Instr) -> u64 {
        let next = match instr {
            Instr::Branch { offset, .. } => {
                if self.bp.predict_taken(pc) {
                    pc.wrapping_add((offset as i64 as u64).wrapping_mul(4))
                } else {
                    pc.wrapping_add(4)
                }
            }
            Instr::Jal { rd, offset } => {
                if rd == Reg::RA {
                    self.bp.push_return(pc.wrapping_add(4));
                }
                pc.wrapping_add((offset as i64 as u64).wrapping_mul(4))
            }
            Instr::Jalr { rd, base, .. } => {
                if rd == Reg::ZERO && base == Reg::RA {
                    self.bp.pop_return()
                } else {
                    if rd == Reg::RA {
                        self.bp.push_return(pc.wrapping_add(4));
                    }
                    self.bp.predict_indirect(pc).unwrap_or(pc.wrapping_add(4))
                }
            }
            Instr::Halt => pc,
            _ => pc.wrapping_add(4),
        };
        self.profile.mask(next)
    }

    // ----------------------------------------------------------- squash --

    fn squash(
        &mut self,
        boundary_seq: u64,
        branch_rob_idx: usize,
        redirect: u64,
    ) -> Result<(), SimOutcome> {
        // Roll the ROB tail back over every younger instruction.
        let mut discarded: u64 = 0;
        while !self.rob.is_empty() {
            let tail_idx = {
                // Peek the youngest entry via its payload.
                let last = self.rob.occupied().last().expect("non-empty");
                last
            };
            let Some(u) = self.uops[tail_idx].as_ref() else {
                return Err(self.assert_stop("ROB tail entry without payload during squash"));
            };
            if u.seq <= boundary_seq {
                break;
            }
            self.uops[tail_idx] = None;
            self.rob.pop_tail();
            discarded += 1;
        }
        if let Some(c) = self.counters.as_deref_mut() {
            c.squashes += 1;
            c.squashed_uops += discarded;
        }
        self.iq.squash_younger(boundary_seq);
        self.lq.squash_younger(boundary_seq);
        self.sq.squash_younger(boundary_seq);
        let alive = |uops: &Vec<Option<Uop>>, idx: &usize| -> bool {
            uops[*idx].as_ref().is_some_and(|u| u.seq <= boundary_seq)
        };
        self.in_flight.retain(|idx| alive(&self.uops, idx));
        self.wb_ready.retain(|idx| alive(&self.uops, idx));
        self.decode_q.clear();

        // Rename recovery from the branch's checkpoint.
        let checkpoint = self.uops[branch_rob_idx]
            .as_ref()
            .and_then(|u| u.checkpoint)
            .expect("branches carry a rename checkpoint");
        let uops = &self.uops;
        let dests = self
            .rob
            .occupied()
            .filter_map(|i| uops[i].as_ref())
            .filter_map(|u| u.dest.map(|d| d.phys));
        self.rf.recover(&checkpoint, dests);
        let cycle = self.cycle;
        if let Some(t) = self.residency.as_deref_mut() {
            t.squash_queues(boundary_seq, cycle);
            t.rf_sync_freed(&self.rf);
        }

        self.fetch_pc = redirect;
        self.fetch_wait = false;
        self.fetch_stall = 3; // front-end redirect penalty
        self.mispredicts += 1;
        Ok(())
    }
}

enum FinishAction {
    Complete,
    WaitMem,
    Mispredict(u64),
}

/// Applies load extension semantics (shared with the emulator's rules).
fn extend_load(profile: Profile, raw: u64, size: u64, signed: bool) -> u64 {
    let v = if signed {
        match size {
            1 => raw as u8 as i8 as i64 as u64,
            4 => raw as u32 as i32 as i64 as u64,
            _ => raw,
        }
    } else {
        raw
    };
    profile.mask(v)
}
