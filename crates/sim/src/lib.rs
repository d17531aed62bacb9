//! # cfed-sim — guest machine simulator
//!
//! Deterministic simulation substrate for the CGO'06 control-flow error
//! detection reproduction: a paged [`Memory`] with per-page R/W/X
//! permissions, a fetch–decode–execute [`Cpu`] with cycle accounting, the
//! [`Trap`] model (execute-protection faults stand in for the execute-disable
//! bit that catches category-F branch errors; write-protection faults drive
//! the DBT's self-modifying-code handling), and a conventional [`Layout`] +
//! [`Machine`] loader.
//!
//! Traps never commit the faulting instruction, so supervisors — the DBT
//! runtime in `cfed-dbt`, or the fault injector in `cfed-fault` — can catch
//! a trap, repair or redirect state, and resume.
//!
//! ## Example
//!
//! ```
//! use cfed_isa::{encode_all, AluOp, Inst, Reg};
//! use cfed_sim::{ExitReason, Machine};
//!
//! let code = encode_all(&[
//!     Inst::MovRI { dst: Reg::R0, imm: 40 },
//!     Inst::AluI { op: AluOp::Add, dst: Reg::R0, imm: 2 },
//!     Inst::Out { src: Reg::R0 },
//!     Inst::Halt,
//! ]);
//! let mut m = Machine::load(&code, &[], 0);
//! assert_eq!(m.run(100), ExitReason::Halted { code: 42 });
//! assert_eq!(m.cpu.output(), &[42]);
//! ```

pub mod cpu;
pub mod icache;
pub mod machine;
pub mod mem;
pub mod profiler;
pub mod tracer;
pub mod trap;

pub use cpu::{Cpu, ExecStats, ExitReason, Step};
pub use icache::{DecodeCacheStats, DecodedCache, LINES_PER_PAGE};
pub use machine::{Layout, Machine, MachineSnapshot, SnapshotTracker};
pub use mem::{Memory, Perms, RawMemParts, PAGE_SIZE};
pub use profiler::{BranchTally, ExecProfiler};
pub use tracer::{TraceEntry, Tracer};
pub use trap::{trap_codes, Trap};
