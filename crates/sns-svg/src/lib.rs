//! The SVG substrate of Sketch-n-Sketch (paper §2, §4.2, Appendix A/B).
//!
//! Connects `little` program outputs to the graphical world:
//!
//! * [`node_from_value`] / [`SvgNode`] — typed SVG values with the run-time
//!   traces of every numeric attribute preserved;
//! * [`Canvas`] — the one node tree of a program's output, with every
//!   shape in it given an identity; a [`Shape`] is a view of its node. The
//!   numbers' values live beside the tree in one flat array in canvas
//!   order ([`Canvas::nums`]), indexed by each [`NumTr`]'s slot;
//! * [`render`] — translation to SVG/XML text, including the specialized
//!   encodings for `points`, RGBA fills, color numbers, and path data;
//! * [`zones_of`] / [`Zone`] — Figure 5's direct-manipulation zones and the
//!   covariant/contravariant attribute offsets each controls.
//!
//! # Examples
//!
//! ```
//! use sns_eval::Program;
//! use sns_svg::{Canvas, ShapeId};
//!
//! let program = Program::parse("(svg [(circle 'coral' 100 100 40)])").unwrap();
//! let canvas = Canvas::from_value(&program.eval().unwrap()).unwrap();
//! assert_eq!(canvas.shapes().len(), 1);
//! // Each shape exposes zones: Interior, RightEdge, BotEdge for a circle.
//! let circle = canvas.shape(ShapeId(0)).unwrap();
//! assert_eq!(circle.zones().len(), 3);
//! // The shape is a view into the canvas's tree: its numbers are the tree's,
//! // and their values sit in the canvas's one array, in canvas order.
//! assert_eq!(canvas.nums(), [100.0, 100.0, 40.0]);
//! assert_eq!(circle.node.attr_nums().len(), canvas.nums().len());
//! assert_eq!(circle.num("r"), Some(40.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canvas;
pub mod node;
pub mod render;
pub mod zones;

pub use canvas::{Canvas, Shape, ShapeId};
pub use node::{node_from_value, AttrValue, NumTr, PathCmd, SvgChild, SvgError, SvgNode};
pub use render::{render, render_to, RenderOptions};
pub use zones::{resolve_attr, zones_of, AttrRef, Offset, ParseZoneError, Zone, ZoneSpec};
