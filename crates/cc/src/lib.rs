//! # softerr-cc
//!
//! An optimizing compiler for **MiniC** — the C subset the study's
//! workloads are written in — targeting the `softerr-isa` load/store RISC
//! machine. The compiler's four optimization levels (`O0`–`O3`) reproduce
//! the pass families GCC enables at the corresponding `-O` flags, which is
//! the independent variable of the soft-error characterization study:
//!
//! * **O0** — naive stack code: every variable lives in memory.
//! * **O1** — `mem2reg`, constant folding, copy propagation, DCE, CFG
//!   simplification, linear-scan register allocation.
//! * **O2** — O1 plus CSE, loop-invariant code motion, strength reduction,
//!   cross-jumping, and list scheduling.
//! * **O3** — O2 plus function inlining and loop unrolling.
//!
//! ```
//! use softerr_cc::{Compiler, OptLevel};
//! use softerr_isa::{Emulator, Profile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = "void main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) s = s + i; out(s); }";
//! let compiled = Compiler::new(Profile::A64, OptLevel::O2).compile(source)?;
//! let mut emu = Emulator::new(&compiled.program);
//! assert_eq!(emu.run(100_000)?.output, vec![55]);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod codegen;
pub mod error;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod parser;
pub mod passes;
pub mod regalloc;
pub mod verify;

pub use analysis::{DeadSite, DefDemand, FuncVuln, StaticVulnMap};
pub use error::CompileError;
pub use opt::{OptLevel, PassConfig};
pub use verify::VerifyError;

use softerr_isa::{Profile, Program};

/// Compilation statistics, used by the study's code-size comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileStats {
    /// Total machine instructions emitted.
    pub code_words: usize,
    /// Data segment size in bytes.
    pub data_bytes: usize,
    /// Per-function statistics.
    pub funcs: Vec<codegen::FuncStats>,
    /// IR instruction count after optimization.
    pub ir_insts: usize,
}

/// A compiled MiniC program with its statistics.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Loadable program image.
    pub program: Program,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Static bit-level vulnerability map of the optimized IR (see
    /// [`analysis`]); its def masks are also carried onto the program as
    /// `Program::wb_masks`.
    pub vuln: StaticVulnMap,
}

/// The MiniC compiler, configured with a target profile and an optimization
/// level (or a custom pass configuration for ablation studies).
#[derive(Debug, Clone, Copy)]
pub struct Compiler {
    profile: Profile,
    passes: PassConfig,
    level: OptLevel,
    verify: bool,
}

impl Compiler {
    /// Creates a compiler for `profile` at the given optimization level.
    pub fn new(profile: Profile, level: OptLevel) -> Compiler {
        Compiler {
            profile,
            passes: PassConfig::for_level(level),
            level,
            verify: opt::verify_default(),
        }
    }

    /// Creates a compiler with an explicit pass configuration (ablations).
    pub fn with_passes(profile: Profile, passes: PassConfig) -> Compiler {
        Compiler {
            profile,
            passes,
            level: OptLevel::O2,
            verify: opt::verify_default(),
        }
    }

    /// Overrides IR verification: when on, the IR is re-verified after
    /// every optimization pass and the register allocation is checked
    /// after codegen (see [`verify`]). Defaults to
    /// [`opt::verify_default`] — on in tests, off otherwise.
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Compiler {
        self.verify = verify;
        self
    }

    /// The target profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// The configured optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Compiles MiniC source to a loadable program.
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, or semantic error, or a
    /// code-generation limit violation (oversized functions).
    ///
    /// # Panics
    ///
    /// When verification is enabled and a pass (or the register allocator)
    /// breaks an IR invariant — a miscompile is a compiler bug, not a
    /// recoverable user error, and the panic message names the offending
    /// pass, function, block, and instruction.
    pub fn compile(&self, source: &str) -> Result<Compiled, CompileError> {
        let mut sp = softerr_telemetry::span("cc.compile");
        sp.record("level", self.level.to_string());
        let ast = parser::parse(source)?;
        let mut ir = lower::lower(&ast, self.profile)?;
        if let Err(e) = opt::run_pipeline_checked(&mut ir, self.passes, self.profile, self.verify) {
            panic!("{e}");
        }
        let ir_insts = ir.funcs.iter().map(|f| f.inst_count()).sum();
        let vuln = StaticVulnMap::analyze(&ir, self.profile);
        // Dead computations surviving the O2/O3 pipelines mean a pass left
        // work on the table: surface them as lint warnings (`cc.lint`).
        if self.level >= OptLevel::O2 {
            self.lint_dead(&ir, &vuln);
        }
        let (program, funcs) =
            codegen::generate_annotated(&ir, self.profile, self.verify, Some(&vuln))?;
        let stats = CompileStats {
            code_words: program.code.len(),
            data_bytes: program.data.len(),
            funcs,
            ir_insts,
        };
        sp.record("code_words", stats.code_words as u64);
        Ok(Compiled {
            program,
            stats,
            vuln,
        })
    }

    /// Emits one `cc.lint` warning per fully-dead def or store the static
    /// analysis found in the optimized IR.
    fn lint_dead(&self, ir: &ir::IrModule, vuln: &StaticVulnMap) {
        use softerr_telemetry::{event, Level};
        for (f, fv) in ir.funcs.iter().zip(&vuln.funcs) {
            for site in &fv.dead {
                match *site {
                    DeadSite::Def { block, inst, vreg } => event!(
                        Level::Warn,
                        "cc.lint",
                        { func: f.name.clone(), block: block as u64, inst: inst as u64 },
                        "dead computation survives {}: v{} in {}.b{}[{}] has no live bits",
                        self.level,
                        vreg,
                        f.name,
                        block,
                        inst
                    ),
                    DeadSite::Store { block, inst, slot } => event!(
                        Level::Warn,
                        "cc.lint",
                        { func: f.name.clone(), block: block as u64, inst: inst as u64 },
                        "dead store survives {}: `{}` in {}.b{}[{}] is never reloaded",
                        self.level,
                        f.slots[slot].name,
                        f.name,
                        block,
                        inst
                    ),
                }
            }
        }
    }

    /// Compiles and returns the optimized IR (for inspection and tests).
    ///
    /// # Errors
    ///
    /// Same as [`Compiler::compile`].
    pub fn compile_to_ir(&self, source: &str) -> Result<ir::IrModule, CompileError> {
        let ast = parser::parse(source)?;
        let mut ir = lower::lower(&ast, self.profile)?;
        if let Err(e) = opt::run_pipeline_checked(&mut ir, self.passes, self.profile, self.verify) {
            panic!("{e}");
        }
        Ok(ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softerr_isa::Emulator;

    fn run_level(src: &str, profile: Profile, level: OptLevel) -> Vec<u64> {
        let compiled = Compiler::new(profile, level).compile(src).expect("compile");
        let mut emu = Emulator::new(&compiled.program);
        let out = emu.run(100_000_000).expect("trap");
        assert!(out.completed, "did not halt at {level}");
        out.output
    }

    /// Differential check: all four levels on both profiles agree.
    fn check_all_levels(src: &str, expect: &[u64]) {
        for profile in [Profile::A32, Profile::A64] {
            for level in OptLevel::ALL {
                let out = run_level(src, profile, level);
                assert_eq!(out, expect, "{profile}/{level} diverged");
            }
        }
    }

    #[test]
    fn fibonacci_recursive() {
        check_all_levels(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             void main() { out(fib(12)); }",
            &[144],
        );
    }

    #[test]
    fn array_sum_and_pointers() {
        check_all_levels(
            "void fill(int *p, int n) { for (int i = 0; i < n; i = i + 1) p[i] = i * 3; }
             int sum(int *p, int n) { int s = 0; for (int i = 0; i < n; i = i + 1) s = s + p[i]; return s; }
             void main() { int a[20]; fill(&a[0], 20); out(sum(&a[0], 20)); }",
            &[570],
        );
    }

    #[test]
    fn u32_crypto_style_mixing() {
        let mut h: u32 = 0x6745_2301;
        for _ in 0..16 {
            h = h.rotate_left(5).wrapping_add(0x9E37_79B9);
            h ^= h >> 13;
        }
        check_all_levels(
            "void main() {
                u32 h = 0x67452301;
                u32 golden = 0x9E3779B9;
                for (int i = 0; i < 16; i = i + 1) {
                    h = ((h << 5) | (h >> 27)) + golden;
                    h = h ^ (h >> 13);
                }
                out(h);
             }",
            &[h as u64],
        );
    }

    #[test]
    fn global_tables() {
        check_all_levels(
            "int tab[5] = {10, 20, 30, 40, 50};
             int idx = 3;
             void main() { out(tab[idx]); tab[1] = 99; out(tab[1] + tab[0]); }",
            &[40, 109],
        );
    }

    #[test]
    fn division_and_modulo_signs() {
        // Results are word-width dependent: on A32, -3 prints as the 32-bit
        // pattern. Compare per profile against the reference emulator by
        // checking cross-level agreement only.
        for profile in [Profile::A32, Profile::A64] {
            let src = "void main() {
                out(-7 / 2);  out(-7 % 2);
                out(7 / -2);  out(7 % -2);
                out(7 / 0);   out(7 % 0);
             }";
            let golden = run_level(src, profile, OptLevel::O0);
            for level in OptLevel::ALL {
                assert_eq!(run_level(src, profile, level), golden, "{profile}/{level}");
            }
            // Signed semantics sanity on the A64 profile.
            if profile == Profile::A64 {
                assert_eq!(
                    golden,
                    vec![(-3i64) as u64, (-1i64) as u64, (-3i64) as u64, 1, 0, 7]
                );
            }
        }
    }

    #[test]
    fn o0_code_is_larger_and_slower_shaped() {
        let src = "
            int work(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) s = s + i * i; return s; }
            void main() { out(work(50)); }";
        let o0 = Compiler::new(Profile::A64, OptLevel::O0)
            .compile(src)
            .unwrap();
        let o2 = Compiler::new(Profile::A64, OptLevel::O2)
            .compile(src)
            .unwrap();
        assert!(
            o0.stats.code_words > o2.stats.code_words,
            "O0 ({}) should out-size O2 ({})",
            o0.stats.code_words,
            o2.stats.code_words
        );
        // Dynamic instruction counts via the emulator.
        let retired = |p: &Program| {
            let mut e = Emulator::new(p);
            e.run(10_000_000).unwrap().retired
        };
        assert!(retired(&o0.program) > retired(&o2.program));
    }

    #[test]
    fn o3_unrolling_grows_loop_heavy_code() {
        // No inlinable calls, so O3 − O2 is pure loop unrolling: larger code.
        let src = "
            void main() {
                int s = 0;
                for (int i = 0; i < 20; i = i + 1) {
                    s = s + i * 7;
                    s = s ^ (i << 3);
                    s = s - (i >> 1);
                }
                out(s);
            }";
        let o2 = Compiler::new(Profile::A64, OptLevel::O2)
            .compile(src)
            .unwrap();
        let o3 = Compiler::new(Profile::A64, OptLevel::O3)
            .compile(src)
            .unwrap();
        assert!(
            o3.stats.code_words > o2.stats.code_words,
            "O3 ({}) should out-size O2 ({}) on a loop-only program",
            o3.stats.code_words,
            o2.stats.code_words
        );
        let run = |p: &Program| Emulator::new(p).run(10_000_000).unwrap().output;
        assert_eq!(run(&o2.program), run(&o3.program));
    }

    #[test]
    fn compile_errors_surface() {
        let c = Compiler::new(Profile::A64, OptLevel::O2);
        assert!(c.compile("void main() {").is_err());
        assert!(c.compile("void main() { undefined(); }").is_err());
        assert!(c.compile("int x;").is_err()); // no main
    }

    #[test]
    fn ablation_configs_compile_and_agree() {
        let src = "
            int f(int x) { return x * 8 + x * 8; }
            void main() { for (int i = 0; i < 5; i = i + 1) out(f(i)); }";
        let golden = run_level(src, Profile::A64, OptLevel::O2);
        for pass in ["cse", "licm", "schedule", "strength-reduce"] {
            let cfg = PassConfig::for_level(OptLevel::O2).without(pass);
            let compiled = Compiler::with_passes(Profile::A64, cfg)
                .compile(src)
                .unwrap();
            let mut emu = Emulator::new(&compiled.program);
            assert_eq!(
                emu.run(10_000_000).unwrap().output,
                golden,
                "ablation without {pass} diverged"
            );
        }
    }
}
