//! The primary contribution of the paper: **trace-based program synthesis
//! and live synchronization** for SVG-producing `little` programs
//! (§3, §4, Appendix B).
//!
//! The pipeline:
//!
//! 1. evaluate the program; every numeric output carries a run-time trace;
//! 2. [`assign`] — for every zone of every output shape, compute candidate
//!    *location sets* from the traces and resolve ambiguity with the fair or
//!    biased heuristic;
//! 3. [`trigger`] — prepare a mouse trigger per zone: one univariate
//!    value-trace equation per controlled attribute;
//! 4. [`live`] — on drag, fire the trigger, apply the inferred local update
//!    ρ, and re-evaluate in real time;
//! 5. [`framework`] / [`synthesize`] — the general definitions (faithful /
//!    plausible updates) and the exhaustive `SynthesizePlausible`
//!    enumeration used when the editor wants to *show* all options (e.g.
//!    Figure 1D).
//!
//! # Examples
//!
//! ```
//! use sns_eval::Program;
//! use sns_svg::{ShapeId, Zone};
//! use sns_sync::{LiveConfig, LiveSync};
//!
//! let program = Program::parse("(svg [(rect 'navy' 10 20 30 40)])").unwrap();
//! let mut live = LiveSync::new(program, LiveConfig::default()).unwrap();
//! // Drag the rectangle 5px right, 7px down…
//! let result = live.drag(ShapeId(0), Zone::Interior, 5.0, 7.0).unwrap();
//! live.commit(&result.subst).unwrap();
//! // …and the *program text* now reads (rect 'navy' 15 27 30 40).
//! assert!(live.program().code().contains("15 27"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod depindex;
pub mod framework;
pub mod live;
pub mod reconcile;
pub mod stats;
pub mod synthesize;
pub mod trigger;

pub use assign::{
    analyze_canvas, Assignments, AttrSlot, Candidate, Heuristic, ZoneAnalysis, ZoneStats,
    CANDIDATE_CAP,
};
pub use depindex::DepIndex;
pub use framework::{judge, numeric_leaves, similar, Judgment, UserUpdate};
pub use live::{
    prepare, DragResult, LiveConfig, LiveError, LiveStats, LiveSync, SetCodeClass, TapeWork,
};
pub use reconcile::{reconcile, OutputEdit, RankedUpdate, ReconcileJudgment};
pub use stats::{
    location_stats, pre_equations, solvability, unique_pre_equations, LocationStats, PreEquation,
    SolvabilityStats,
};
pub use synthesize::{synthesize_plausible, synthesize_single, CandidateUpdate, SynthesisOptions};
pub use trigger::{SolverChoice, Trigger, TriggerFire, TriggerPart};
