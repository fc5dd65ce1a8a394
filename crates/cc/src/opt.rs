//! Optimization levels and the pass pipelines they enable.
//!
//! The level → pass mapping mirrors the families GCC's documentation (and
//! the paper's §II.A) attributes to each `-O` level:
//!
//! | Level | Passes |
//! |-------|--------|
//! | O0 | none — naive stack code straight from lowering |
//! | O1 | mem2reg, constant folding, copy propagation, dead-code elimination, CFG simplification |
//! | O2 | O1 + common-subexpression elimination, loop-invariant code motion, strength reduction, cross-jumping, instruction scheduling |
//! | O3 | O2 + function inlining and loop unrolling (larger code, same semantics) |

use crate::ir::IrModule;
use crate::passes;
use crate::verify::{self, VerifyError};
use serde::{Deserialize, Serialize};
use softerr_isa::Profile;
use std::fmt;
use std::str::FromStr;

/// A GCC-style optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// No optimization: every local lives on the stack.
    O0,
    /// Basic scalar optimizations and register promotion.
    O1,
    /// O1 plus CSE, LICM, strength reduction, scheduling, cross-jumping.
    O2,
    /// O2 plus inlining and loop unrolling.
    O3,
}

impl OptLevel {
    /// All levels, lowest first.
    pub const ALL: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "O0"),
            OptLevel::O1 => write!(f, "O1"),
            OptLevel::O2 => write!(f, "O2"),
            OptLevel::O3 => write!(f, "O3"),
        }
    }
}

impl FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s.trim_start_matches('-') {
            "O0" | "o0" | "0" => Ok(OptLevel::O0),
            "O1" | "o1" | "1" => Ok(OptLevel::O1),
            "O2" | "o2" | "2" => Ok(OptLevel::O2),
            "O3" | "o3" | "3" => Ok(OptLevel::O3),
            other => Err(format!("unknown optimization level `{other}`")),
        }
    }
}

/// Fine-grained pass toggles, used both to build the standard levels and for
/// the per-optimization ablation experiments (the paper's stated future
/// work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Promote non-address-taken stack slots to registers.
    pub mem2reg: bool,
    /// Constant folding and propagation.
    pub const_fold: bool,
    /// Copy propagation.
    pub copy_prop: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Branch folding, jump threading, block merging, unreachable-block removal.
    pub simplify_cfg: bool,
    /// Local + extended common-subexpression elimination.
    pub cse: bool,
    /// Loop-invariant code motion.
    pub licm: bool,
    /// Strength reduction (multiplications by constants → shifts/adds).
    pub strength_reduce: bool,
    /// Cross-jumping (tail merging of identical blocks).
    pub cross_jump: bool,
    /// List scheduling within basic blocks.
    pub schedule: bool,
    /// Function inlining.
    pub inline: bool,
    /// Loop unrolling (body replication).
    pub unroll: bool,
}

impl PassConfig {
    /// The pass set enabled by a standard level.
    pub fn for_level(level: OptLevel) -> PassConfig {
        let o1 = level >= OptLevel::O1;
        let o2 = level >= OptLevel::O2;
        let o3 = level >= OptLevel::O3;
        PassConfig {
            mem2reg: o1,
            const_fold: o1,
            copy_prop: o1,
            dce: o1,
            simplify_cfg: o1,
            cse: o2,
            licm: o2,
            strength_reduce: o2,
            cross_jump: o2,
            schedule: o2,
            inline: o3,
            unroll: o3,
        }
    }

    /// Disables one named pass (for ablation studies).
    ///
    /// Recognized names: `mem2reg`, `const-fold`, `copy-prop`, `dce`,
    /// `simplify-cfg`, `cse`, `licm`, `strength-reduce`, `cross-jump`,
    /// `schedule`, `inline`, `unroll`.
    pub fn without(mut self, pass: &str) -> PassConfig {
        match pass {
            "mem2reg" => self.mem2reg = false,
            "const-fold" => self.const_fold = false,
            "copy-prop" => self.copy_prop = false,
            "dce" => self.dce = false,
            "simplify-cfg" => self.simplify_cfg = false,
            "cse" => self.cse = false,
            "licm" => self.licm = false,
            "strength-reduce" => self.strength_reduce = false,
            "cross-jump" => self.cross_jump = false,
            "schedule" => self.schedule = false,
            "inline" => self.inline = false,
            "unroll" => self.unroll = false,
            other => panic!("unknown pass name `{other}`"),
        }
        self
    }
}

/// Whether pipelines verify the IR after every pass by default: in test
/// builds only. Any other build turns it on with
/// [`crate::Compiler::with_verify`].
pub fn verify_default() -> bool {
    cfg!(test)
}

/// The verifying pass driver: every pass application goes through
/// [`Pipeline::func_pass`] / [`Pipeline::module_pass`], which re-verify the
/// produced IR when `verify` is on and attach the offending pass name to
/// any failure.
struct Pipeline {
    cfg: PassConfig,
    profile: Profile,
    verify: bool,
}

impl Pipeline {
    /// Runs a per-function pass over one function and verifies that
    /// function afterwards.
    fn func_pass(
        &self,
        name: &str,
        ir: &mut IrModule,
        fi: usize,
        run: impl FnOnce(&mut crate::ir::IrFunc) -> bool,
    ) -> Result<bool, VerifyError> {
        let mut sp = softerr_telemetry::span("cc.pass");
        sp.record("pass", name.to_string());
        let changed = run(&mut ir.funcs[fi]);
        sp.record("changed", changed);
        if self.verify {
            verify::verify_func(&ir.funcs[fi]).map_err(|e| e.after_pass(name))?;
        }
        Ok(changed)
    }

    /// Runs a whole-module pass and verifies the whole module afterwards
    /// (module passes can change call signatures and function sets, so the
    /// cross-function checks re-run too).
    fn module_pass(
        &self,
        name: &str,
        ir: &mut IrModule,
        run: impl FnOnce(&mut IrModule) -> bool,
    ) -> Result<bool, VerifyError> {
        let mut sp = softerr_telemetry::span("cc.pass");
        sp.record("pass", name.to_string());
        let changed = run(ir);
        sp.record("changed", changed);
        if self.verify {
            verify::verify_module(ir).map_err(|e| e.after_pass(name))?;
        }
        Ok(changed)
    }

    fn scalar_fixpoint(&self, ir: &mut IrModule, fi: usize) -> Result<(), VerifyError> {
        let cfg = self.cfg;
        let profile = self.profile;
        for _ in 0..4 {
            let mut changed = false;
            if cfg.const_fold {
                changed |= self.func_pass("const-fold", ir, fi, |f| {
                    passes::const_fold::run(f, profile)
                })?;
            }
            if cfg.copy_prop {
                changed |= self.func_pass("copy-prop", ir, fi, passes::copy_prop::run)?;
            }
            if cfg.cse {
                changed |= self.func_pass("cse", ir, fi, passes::cse::run)?;
            }
            if cfg.dce {
                changed |= self.func_pass("dce", ir, fi, passes::dce::run)?;
            }
            if cfg.simplify_cfg {
                changed |= self.func_pass("simplify-cfg", ir, fi, passes::simplify_cfg::run)?;
            }
            if !changed {
                break;
            }
        }
        Ok(())
    }

    fn run(&self, ir: &mut IrModule) -> Result<(), VerifyError> {
        let cfg = self.cfg;
        if self.verify {
            // Catch lowering bugs before blaming any pass.
            verify::verify_module(ir).map_err(|e| e.after_pass("lower"))?;
        }
        if cfg.inline {
            self.module_pass("inline", ir, |m| {
                passes::inline::run(m);
                true
            })?;
        }
        for fi in 0..ir.funcs.len() {
            if cfg.mem2reg {
                self.func_pass("mem2reg", ir, fi, passes::mem2reg::run)?;
            }
            self.scalar_fixpoint(ir, fi)?;
            if cfg.licm {
                self.func_pass("licm", ir, fi, passes::licm::run)?;
            }
            if cfg.strength_reduce {
                self.func_pass("strength-reduce", ir, fi, passes::strength_reduce::run)?;
                if cfg.dce {
                    self.func_pass("dce", ir, fi, passes::dce::run)?;
                }
            }
            if cfg.cross_jump {
                self.func_pass("cross-jump", ir, fi, passes::cross_jump::run)?;
            }
        }
        // Unrolling runs late (it duplicates definitions, which would defeat
        // LICM's single-definition reasoning if run earlier), followed by a
        // second scalar round that merges the duplicated exit tests.
        if cfg.unroll {
            self.module_pass("unroll", ir, |m| {
                passes::unroll::run(m);
                true
            })?;
            for fi in 0..ir.funcs.len() {
                self.scalar_fixpoint(ir, fi)?;
            }
        }
        for fi in 0..ir.funcs.len() {
            if cfg.schedule {
                self.func_pass("schedule", ir, fi, passes::schedule::run)?;
            }
        }
        Ok(())
    }
}

/// Runs the configured pass pipeline over a module in place, verifying the
/// IR after every pass when `verify` is on.
///
/// Pass order follows GCC's broad staging: inlining first (so every later
/// pass sees merged bodies), the scalar/loop pipeline next, and loop
/// unrolling *late* (unrolling duplicates definitions, which would defeat
/// the single-definition reasoning in LICM if run earlier), with scheduling
/// last over the final block shapes.
///
/// # Errors
///
/// The first invariant violation found, naming the offending pass,
/// function, block, and instruction.
pub fn run_pipeline_checked(
    ir: &mut IrModule,
    cfg: PassConfig,
    profile: Profile,
    verify: bool,
) -> Result<(), VerifyError> {
    Pipeline {
        cfg,
        profile,
        verify,
    }
    .run(ir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(OptLevel::O0 < OptLevel::O1);
        assert!(OptLevel::O2 < OptLevel::O3);
    }

    #[test]
    fn parse_roundtrip() {
        for l in OptLevel::ALL {
            assert_eq!(l.to_string().parse::<OptLevel>().unwrap(), l);
        }
        assert_eq!("-O2".parse::<OptLevel>().unwrap(), OptLevel::O2);
        assert!("O9".parse::<OptLevel>().is_err());
    }

    #[test]
    fn o0_enables_nothing() {
        let c = PassConfig::for_level(OptLevel::O0);
        assert!(!c.mem2reg && !c.cse && !c.inline);
    }

    #[test]
    fn levels_are_cumulative() {
        let o1 = PassConfig::for_level(OptLevel::O1);
        let o2 = PassConfig::for_level(OptLevel::O2);
        let o3 = PassConfig::for_level(OptLevel::O3);
        assert!(o1.mem2reg && !o1.cse);
        assert!(o2.mem2reg && o2.cse && !o2.inline);
        assert!(o3.cse && o3.inline && o3.unroll);
    }

    #[test]
    fn without_disables_single_pass() {
        let c = PassConfig::for_level(OptLevel::O2).without("cse");
        assert!(!c.cse && c.licm);
    }

    #[test]
    fn broken_pass_is_caught_with_diagnostic() {
        // An intentionally-broken "pass" that deletes every defining
        // instruction but leaves the uses behind. The driver must catch it
        // and name the pass, function, and block in the diagnostic.
        let mut ir = crate::passes::testutil::ir_of("void main() { int a = 1; out(a); }");
        let p = Pipeline {
            cfg: PassConfig::for_level(OptLevel::O1),
            profile: Profile::A64,
            verify: true,
        };
        let err = p
            .func_pass("break-defs", &mut ir, 0, |f| {
                for b in &mut f.blocks {
                    b.insts.retain(|i| i.def().is_none());
                }
                true
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`break-defs`"), "{msg}");
        assert!(msg.contains("`main`"), "{msg}");
        assert!(msg.contains("bb"), "{msg}");
    }

    #[test]
    fn verified_pipeline_accepts_all_levels() {
        let src = "
            int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            void main() { int i = 0; while (i < 6) { out(fib(i)); i = i + 1; } }";
        for profile in [Profile::A32, Profile::A64] {
            for level in OptLevel::ALL {
                let mut ir = crate::passes::testutil::ir_of(src);
                run_pipeline_checked(&mut ir, PassConfig::for_level(level), profile, true)
                    .unwrap_or_else(|e| panic!("{profile:?} {level}: {e}"));
            }
        }
    }
}
