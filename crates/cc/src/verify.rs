//! IR and allocation verification — the compiler's internal consistency
//! net.
//!
//! Every optimization pass must preserve the structural invariants of the
//! IR. A miscompile here would silently corrupt every downstream AVF
//! number, so the pass manager ([`crate::opt::run_pipeline_checked`]) runs
//! [`verify_module`] after every pass whenever verification is enabled
//! (default-on in tests, and on request through
//! [`crate::Compiler::with_verify`]), and
//! [`crate::codegen`] runs [`verify_allocation`] after register
//! allocation.
//!
//! Checked IR invariants:
//!
//! * every block's terminator targets existing blocks (no references to
//!   deleted blocks),
//! * every vreg / stack-slot / global reference is in bounds,
//! * every value is defined before use along **all** CFG paths (forward
//!   "definitely assigned" dataflow — the IR is non-SSA, so this is the
//!   analog of SSA's dominance check),
//! * call sites match their callee's signature (argument count and return
//!   presence), and callees exist.
//!
//! Checked allocation invariants:
//!
//! * every vreg that appears in the function has a location,
//! * the reserved scratch registers are never allocated,
//! * no two simultaneously-live vregs share a physical register or spill
//!   slot, and no definition clobbers a value live across it,
//! * spill slots are written before they are read (this follows from
//!   def-before-use at the IR level: a spilled vreg's slot is stored
//!   exactly when the vreg is defined, so the dataflow check above is
//!   re-run on the allocated function).

use crate::ir::{liveness, Inst, IrFunc, IrModule, VReg};
use crate::regalloc::{scratch0, scratch1, Allocation, Loc};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A verification failure, locating the offending pass, function, block,
/// and instruction as precisely as possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The pass after which verification failed (attached by the pass
    /// manager; `None` for standalone verification).
    pub pass: Option<String>,
    /// The function containing the violation.
    pub function: String,
    /// The offending block, when the violation is block-local.
    pub block: Option<usize>,
    /// The offending instruction index within the block (`None` when the
    /// violation is in the terminator or block-level).
    pub inst: Option<usize>,
    /// What was violated.
    pub message: String,
}

impl VerifyError {
    fn new(function: &str, message: String) -> VerifyError {
        VerifyError {
            pass: None,
            function: function.to_string(),
            block: None,
            inst: None,
            message,
        }
    }

    fn at(function: &str, block: usize, inst: Option<usize>, message: String) -> VerifyError {
        VerifyError {
            pass: None,
            function: function.to_string(),
            block: Some(block),
            inst,
            message,
        }
    }

    /// Attaches the name of the pass that produced the broken IR.
    #[must_use]
    pub fn after_pass(mut self, pass: &str) -> VerifyError {
        self.pass = Some(pass.to_string());
        self
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR verification failed")?;
        if let Some(pass) = &self.pass {
            write!(f, " after pass `{pass}`")?;
        }
        write!(f, " in function `{}`", self.function)?;
        if let Some(b) = self.block {
            write!(f, ", block bb{b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, ", instruction {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// A dense bitset over vregs, sized to the function's `next_vreg`.
#[derive(Clone, PartialEq, Eq)]
struct VRegSet {
    words: Vec<u64>,
}

impl VRegSet {
    fn empty(nvregs: u32) -> VRegSet {
        VRegSet {
            words: vec![0; (nvregs as usize).div_ceil(64)],
        }
    }

    fn full(nvregs: u32) -> VRegSet {
        let mut s = VRegSet {
            words: vec![!0u64; (nvregs as usize).div_ceil(64)],
        };
        // Mask the tail so `full ∩ x == x`.
        let tail = nvregs as usize % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        s
    }

    fn insert(&mut self, v: VReg) {
        self.words[v as usize / 64] |= 1 << (v % 64);
    }

    fn contains(&self, v: VReg) -> bool {
        self.words[v as usize / 64] & (1 << (v % 64)) != 0
    }

    fn intersect_with(&mut self, other: &VRegSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }
}

/// Verifies the structural invariants of a single function. Call-site
/// checks need the whole module; use [`verify_module`] for those.
///
/// # Errors
///
/// The first violation found, located as precisely as possible.
pub fn verify_func(func: &IrFunc) -> Result<(), VerifyError> {
    if func.blocks.is_empty() {
        return Err(VerifyError::new(
            &func.name,
            "function has no blocks".into(),
        ));
    }

    // Parameters: in range and unique.
    let mut seen = HashSet::new();
    for &(v, _) in &func.params {
        if v >= func.next_vreg {
            return Err(VerifyError::new(
                &func.name,
                format!(
                    "parameter v{v} out of range (next_vreg = {})",
                    func.next_vreg
                ),
            ));
        }
        if !seen.insert(v) {
            return Err(VerifyError::new(
                &func.name,
                format!("duplicate parameter v{v}"),
            ));
        }
    }

    // Per-block structural checks: operand ranges, slot ids, branch targets.
    let nblocks = func.blocks.len();
    for (bid, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            check_inst_ranges(func, bid, i, inst)?;
        }
        for target in block.term.succs() {
            if target >= nblocks {
                return Err(VerifyError::at(
                    &func.name,
                    bid,
                    None,
                    format!("terminator targets deleted block bb{target} (only {nblocks} blocks)"),
                ));
            }
        }
        for v in block.term.uses() {
            if v >= func.next_vreg {
                return Err(VerifyError::at(
                    &func.name,
                    bid,
                    None,
                    format!("terminator reads out-of-range v{v}"),
                ));
            }
        }
    }

    check_def_before_use(func)
}

fn check_inst_ranges(func: &IrFunc, bid: usize, i: usize, inst: &Inst) -> Result<(), VerifyError> {
    let err = |msg: String| Err(VerifyError::at(&func.name, bid, Some(i), msg));
    if let Some(d) = inst.def() {
        if d >= func.next_vreg {
            return err(format!(
                "defines out-of-range v{d} (next_vreg = {})",
                func.next_vreg
            ));
        }
    }
    for u in inst.uses() {
        if u >= func.next_vreg {
            return err(format!(
                "reads out-of-range v{u} (next_vreg = {})",
                func.next_vreg
            ));
        }
    }
    match inst {
        Inst::SlotAddr { slot, .. }
        | Inst::LoadSlot { slot, .. }
        | Inst::StoreSlot { slot, .. }
            if *slot >= func.slots.len() =>
        {
            return err(format!(
                "references deleted slot {slot} (only {} slots)",
                func.slots.len()
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Forward "definitely assigned" dataflow: a vreg may be read at a point
/// only if it is assigned on **every** CFG path from the entry to that
/// point. Unreachable blocks trivially satisfy the check (their in-set is
/// ⊤, the dataflow lattice top).
fn check_def_before_use(func: &IrFunc) -> Result<(), VerifyError> {
    let nblocks = func.blocks.len();
    let nvregs = func.next_vreg;
    let preds = func.preds();

    let mut entry_in = VRegSet::empty(nvregs);
    for &(v, _) in &func.params {
        entry_in.insert(v);
    }

    // out[b] starts at ⊤ so intersections converge downward.
    let mut outs: Vec<VRegSet> = vec![VRegSet::full(nvregs); nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bid in 0..nblocks {
            let mut inn = if bid == 0 {
                entry_in.clone()
            } else if preds[bid].is_empty() {
                VRegSet::full(nvregs)
            } else {
                let mut s = outs[preds[bid][0]].clone();
                for &p in &preds[bid][1..] {
                    s.intersect_with(&outs[p]);
                }
                s
            };
            for inst in &func.blocks[bid].insts {
                if let Some(d) = inst.def() {
                    inn.insert(d);
                }
            }
            if inn != outs[bid] {
                outs[bid] = inn;
                changed = true;
            }
        }
    }

    // Check pass with the converged in-sets.
    for bid in 0..nblocks {
        let mut defined = if bid == 0 {
            entry_in.clone()
        } else if preds[bid].is_empty() {
            VRegSet::full(nvregs)
        } else {
            let mut s = outs[preds[bid][0]].clone();
            for &p in &preds[bid][1..] {
                s.intersect_with(&outs[p]);
            }
            s
        };
        let block = &func.blocks[bid];
        for (i, inst) in block.insts.iter().enumerate() {
            for u in inst.uses() {
                if !defined.contains(u) {
                    return Err(VerifyError::at(
                        &func.name,
                        bid,
                        Some(i),
                        format!("v{u} read before being defined on some path ({inst:?})"),
                    ));
                }
            }
            if let Some(d) = inst.def() {
                defined.insert(d);
            }
        }
        for u in block.term.uses() {
            if !defined.contains(u) {
                return Err(VerifyError::at(
                    &func.name,
                    bid,
                    None,
                    format!("terminator reads v{u} before it is defined on some path"),
                ));
            }
        }
    }
    Ok(())
}

/// Verifies every function of a module plus the cross-function invariants:
/// call sites name existing functions and match their signatures, and
/// global references name existing globals.
///
/// # Errors
///
/// The first violation found.
pub fn verify_module(module: &IrModule) -> Result<(), VerifyError> {
    let index: HashMap<&str, &IrFunc> = module.funcs.iter().map(|f| (f.name.as_str(), f)).collect();
    let globals: HashSet<&str> = module.globals.iter().map(|g| g.name.as_str()).collect();

    for func in &module.funcs {
        verify_func(func)?;
        for (bid, block) in func.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                match inst {
                    Inst::Call { dst, callee, args } => {
                        let Some(target) = index.get(callee.as_str()) else {
                            return Err(VerifyError::at(
                                &func.name,
                                bid,
                                Some(i),
                                format!("call to unknown function `{callee}`"),
                            ));
                        };
                        if args.len() != target.params.len() {
                            return Err(VerifyError::at(
                                &func.name,
                                bid,
                                Some(i),
                                format!(
                                    "call to `{callee}` passes {} args, expects {}",
                                    args.len(),
                                    target.params.len()
                                ),
                            ));
                        }
                        if dst.is_some() && target.ret.is_none() {
                            return Err(VerifyError::at(
                                &func.name,
                                bid,
                                Some(i),
                                format!("call captures the result of void function `{callee}`"),
                            ));
                        }
                    }
                    Inst::GlobalAddr { name, .. } if !globals.contains(name.as_str()) => {
                        return Err(VerifyError::at(
                            &func.name,
                            bid,
                            Some(i),
                            format!("reference to unknown global `{name}`"),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Verifies a register allocation against its function: complete coverage,
/// no scratch-register assignment, and no two simultaneously-live vregs
/// sharing a physical register or spill slot (including definitions
/// clobbering values live across them).
///
/// # Errors
///
/// The first violation found.
pub fn verify_allocation(func: &IrFunc, alloc: &Allocation) -> Result<(), VerifyError> {
    // Coverage and scratch reservation.
    let check_loc = |v: VReg, bid: usize, i: Option<usize>| -> Result<(), VerifyError> {
        match alloc.locs.get(&v) {
            None => Err(VerifyError::at(
                &func.name,
                bid,
                i,
                format!("v{v} has no allocated location"),
            )),
            Some(Loc::R(r)) if *r == scratch0() || *r == scratch1() => Err(VerifyError::at(
                &func.name,
                bid,
                i,
                format!("v{v} allocated to reserved scratch register {r}"),
            )),
            Some(_) => Ok(()),
        }
    };
    for (bid, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            for v in inst.uses().into_iter().chain(inst.def()) {
                check_loc(v, bid, Some(i))?;
            }
        }
        for v in block.term.uses() {
            check_loc(v, bid, None)?;
        }
    }

    // Interference: walk each block backwards from live_out; at every
    // program point the live set must map injectively into locations.
    let (_, live_out) = liveness(func);
    for (bid, block) in func.blocks.iter().enumerate() {
        let mut live: HashSet<VReg> = live_out[bid].clone();
        for v in block.term.uses() {
            live.insert(v);
        }
        check_no_overlap(func, alloc, &live, bid, None)?;
        for (i, inst) in block.insts.iter().enumerate().rev() {
            // Before stepping over the definition, the defined value and
            // everything live after it coexist: a def must not clobber a
            // location that stays live across the instruction.
            if let Some(d) = inst.def() {
                for &v in live.iter() {
                    if v != d && alloc.locs.get(&v) == alloc.locs.get(&d) {
                        return Err(VerifyError::at(
                            &func.name,
                            bid,
                            Some(i),
                            format!(
                                "definition of v{d} clobbers v{v}, which is live across it in {:?}",
                                alloc.locs.get(&d)
                            ),
                        ));
                    }
                }
                live.remove(&d);
            }
            for u in inst.uses() {
                live.insert(u);
            }
            check_no_overlap(func, alloc, &live, bid, Some(i))?;
        }
    }

    // Spill-before-read follows from def-before-use on the allocated
    // function (a spilled vreg's slot is written exactly at its defs).
    check_def_before_use(func)
}

fn check_no_overlap(
    func: &IrFunc,
    alloc: &Allocation,
    live: &HashSet<VReg>,
    bid: usize,
    inst: Option<usize>,
) -> Result<(), VerifyError> {
    let mut owner: HashMap<Loc, VReg> = HashMap::with_capacity(live.len());
    for &v in live {
        let Some(loc) = alloc.locs.get(&v) else {
            continue;
        };
        if let Some(prev) = owner.insert(*loc, v) {
            let (a, b) = (prev.min(v), prev.max(v));
            return Err(VerifyError::at(
                &func.name,
                bid,
                inst,
                format!("v{a} and v{b} are simultaneously live but share {loc:?}"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Block, Cond, Operand, Term, Width};
    use crate::regalloc::allocate;
    use softerr_isa::Profile;

    fn func(blocks: Vec<Block>, next_vreg: VReg) -> IrFunc {
        IrFunc {
            name: "f".into(),
            params: vec![],
            ret: None,
            blocks,
            slots: vec![],
            next_vreg,
        }
    }

    #[test]
    fn accepts_well_formed_diamond() {
        // bb0: v0 = 1; br v0 ? bb1 : bb2 ; both define v1; bb3 reads v1.
        let def_v1 = |c: i64| Block {
            insts: vec![Inst::Copy {
                dst: 1,
                src: Operand::C(c),
            }],
            term: Term::Jmp(3),
        };
        let f = func(
            vec![
                Block {
                    insts: vec![Inst::Copy {
                        dst: 0,
                        src: Operand::C(1),
                    }],
                    term: Term::CondBr {
                        cond: Cond::Ne,
                        a: Operand::V(0),
                        b: Operand::C(0),
                        t: 1,
                        f: 2,
                    },
                },
                def_v1(10),
                def_v1(20),
                Block {
                    insts: vec![Inst::Out { src: Operand::V(1) }],
                    term: Term::Ret(None),
                },
            ],
            2,
        );
        verify_func(&f).unwrap();
    }

    #[test]
    fn rejects_use_defined_on_one_path_only() {
        // Only the taken path defines v1; the join reads it.
        let f = func(
            vec![
                Block {
                    insts: vec![Inst::Copy {
                        dst: 0,
                        src: Operand::C(1),
                    }],
                    term: Term::CondBr {
                        cond: Cond::Ne,
                        a: Operand::V(0),
                        b: Operand::C(0),
                        t: 1,
                        f: 2,
                    },
                },
                Block {
                    insts: vec![Inst::Copy {
                        dst: 1,
                        src: Operand::C(10),
                    }],
                    term: Term::Jmp(2),
                },
                Block {
                    insts: vec![Inst::Out { src: Operand::V(1) }],
                    term: Term::Ret(None),
                },
            ],
            2,
        );
        let err = verify_func(&f).unwrap_err();
        assert_eq!(err.block, Some(2));
        assert!(err.message.contains("v1"), "{err}");
    }

    #[test]
    fn rejects_dangling_branch_target() {
        let f = func(
            vec![Block {
                insts: vec![],
                term: Term::Jmp(7),
            }],
            0,
        );
        let err = verify_func(&f).unwrap_err();
        assert!(err.message.contains("deleted block bb7"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_vreg() {
        let f = func(
            vec![Block {
                insts: vec![Inst::Copy {
                    dst: 9,
                    src: Operand::C(0),
                }],
                term: Term::Ret(None),
            }],
            1,
        );
        let err = verify_func(&f).unwrap_err();
        assert!(err.message.contains("out-of-range v9"), "{err}");
    }

    #[test]
    fn loop_carried_value_is_accepted() {
        // v0 defined before the loop, incremented inside it: defined on all
        // paths into the loop header.
        let f = func(
            vec![
                Block {
                    insts: vec![Inst::Copy {
                        dst: 0,
                        src: Operand::C(0),
                    }],
                    term: Term::Jmp(1),
                },
                Block {
                    insts: vec![Inst::Bin {
                        op: BinOp::Add,
                        w: Width::Word,
                        dst: 0,
                        a: Operand::V(0),
                        b: Operand::C(1),
                    }],
                    term: Term::CondBr {
                        cond: Cond::Lt,
                        a: Operand::V(0),
                        b: Operand::C(10),
                        t: 1,
                        f: 2,
                    },
                },
                Block {
                    insts: vec![Inst::Out { src: Operand::V(0) }],
                    term: Term::Ret(None),
                },
            ],
            1,
        );
        verify_func(&f).unwrap();
    }

    #[test]
    fn module_call_signature_mismatch_rejected() {
        let callee = IrFunc {
            name: "g".into(),
            params: vec![(0, Width::Word)],
            ret: None,
            blocks: vec![Block {
                insts: vec![],
                term: Term::Ret(None),
            }],
            slots: vec![],
            next_vreg: 1,
        };
        let caller = func(
            vec![Block {
                insts: vec![Inst::Call {
                    dst: None,
                    callee: "g".into(),
                    args: vec![],
                }],
                term: Term::Ret(None),
            }],
            0,
        );
        let m = IrModule {
            funcs: vec![caller, callee],
            globals: vec![],
            data_size: 0,
        };
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("passes 0 args, expects 1"), "{err}");

        let bad_ret = func(
            vec![Block {
                insts: vec![Inst::Call {
                    dst: Some(0),
                    callee: "h".into(),
                    args: vec![],
                }],
                term: Term::Ret(None),
            }],
            1,
        );
        let void_h = IrFunc {
            name: "h".into(),
            params: vec![],
            ret: None,
            blocks: vec![Block {
                insts: vec![],
                term: Term::Ret(None),
            }],
            slots: vec![],
            next_vreg: 0,
        };
        let m = IrModule {
            funcs: vec![bad_ret, void_h],
            globals: vec![],
            data_size: 0,
        };
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("void function"), "{err}");
    }

    #[test]
    fn allocation_overlap_is_rejected() {
        // v0 and v1 overlap; force them into the same register.
        let f = func(
            vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: 0,
                        src: Operand::C(1),
                    },
                    Inst::Copy {
                        dst: 1,
                        src: Operand::C(2),
                    },
                    Inst::Bin {
                        op: BinOp::Add,
                        w: Width::Word,
                        dst: 0,
                        a: Operand::V(0),
                        b: Operand::V(1),
                    },
                    Inst::Out { src: Operand::V(0) },
                ],
                term: Term::Ret(None),
            }],
            2,
        );
        let good = allocate(&f, Profile::A64);
        verify_allocation(&f, &good).unwrap();

        let mut bad = good.clone();
        let loc0 = bad.locs[&0];
        bad.locs.insert(1, loc0);
        let err = verify_allocation(&f, &bad).unwrap_err();
        assert!(err.message.contains("share"), "{err}");
    }

    #[test]
    fn allocation_scratch_assignment_rejected() {
        let f = func(
            vec![Block {
                insts: vec![
                    Inst::Copy {
                        dst: 0,
                        src: Operand::C(1),
                    },
                    Inst::Out { src: Operand::V(0) },
                ],
                term: Term::Ret(None),
            }],
            1,
        );
        let mut alloc = allocate(&f, Profile::A64);
        alloc.locs.insert(0, Loc::R(scratch0()));
        let err = verify_allocation(&f, &alloc).unwrap_err();
        assert!(err.message.contains("scratch"), "{err}");
    }

    #[test]
    fn error_display_names_pass_function_block_inst() {
        let e = VerifyError::at("main", 3, Some(7), "v9 read before defined".into())
            .after_pass("cross-jump");
        let msg = e.to_string();
        assert!(msg.contains("`cross-jump`"), "{msg}");
        assert!(msg.contains("`main`"), "{msg}");
        assert!(msg.contains("bb3"), "{msg}");
        assert!(msg.contains("instruction 7"), "{msg}");
    }
}
