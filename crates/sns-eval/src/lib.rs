//! Trace-instrumented evaluation for `little` (paper §2.1, Figure 2).
//!
//! This crate implements the run-time half of Sketch-n-Sketch's language
//! substrate:
//!
//! * [`Value`] — run-time values, where every number carries a [`Trace`];
//! * [`Trace`] — dataflow traces `t ::= ℓ | (op t…)` built by rule E-OP-NUM;
//! * [`Evaluator`] — a big-step interpreter with resource [`Limits`];
//! * [`Program`] — user code wrapped in the embedded `little`
//!   [`PRELUDE_SRC`], with per-location metadata ([`LocInfo`]) and
//!   freeze-mode logic ([`FreezeMode`]).
//!
//! # Examples
//!
//! ```
//! use sns_eval::Program;
//!
//! let program = Program::parse("(+ 50 (* 2 30))").unwrap();
//! let value = program.eval().unwrap();
//! let (n, trace) = value.as_num().unwrap();
//! assert_eq!(n, 110.0);
//! // The trace records how the number was computed from program constants.
//! assert_eq!(trace.locs().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod escape;
pub mod eval;
pub mod patch;
pub mod program;
pub mod trace;
pub mod value;

pub use env::Env;
pub use escape::Escapes;
pub use eval::{apply_num_op, eval_prim, match_pat, EvalError, Evaluator, Limits};
pub use patch::{Sweep, TapeBuilder, TraceTape};
pub use program::{EvalOutcome, FreezeMode, LocInfo, Program, PRELUDE_SRC};
pub use trace::{AddrHasher, LocMemo, Trace, TraceArgs};
pub use value::{Closure, Items, Value};

/// Runs `f` on a thread with a large stack and returns its result.
///
/// Evaluating `little` programs recurses proportionally to list lengths
/// (`range`, `map`, `append` are not tail-recursive in the interpreter), so
/// binaries whose main thread has the platform-default stack should wrap
/// corpus-wide work in this helper. Test threads are already covered by the
/// workspace's `RUST_MIN_STACK` setting.
///
/// # Panics
///
/// Panics if the worker thread cannot be spawned or if `f` panics.
pub fn with_big_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(f)
        .expect("spawn big-stack worker")
        .join()
        .expect("big-stack worker panicked")
}
