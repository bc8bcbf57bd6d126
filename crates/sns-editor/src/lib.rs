//! A **headless Sketch-n-Sketch editor** (paper §5–6, Appendix C).
//!
//! The original system is a browser application; this crate reproduces its
//! entire interaction model as a programmatic API so that every workflow in
//! the paper — live synchronization drags, hover captions, constant
//! highlighting, sliders, freeze/thaw modes, hidden helper layers, undo,
//! SVG export — can be scripted, tested, and measured without a UI.
//!
//! # Examples
//!
//! ```
//! use sns_editor::Editor;
//! use sns_svg::{ShapeId, Zone};
//!
//! let mut editor = Editor::new("(svg [(rect 'plum' 10 20 30 40)])").unwrap();
//!
//! // Hover: which constants would a drag change?
//! let caption = editor.hover(ShapeId(0), Zone::Interior).unwrap();
//! assert!(caption.active);
//!
//! // Drag the rectangle; the *program* updates.
//! editor.drag_zone(ShapeId(0), Zone::Interior, 5.0, -3.0).unwrap();
//! assert_eq!(editor.code(), "(svg [(rect 'plum' 15 17 30 40)])");
//!
//! // And undo restores the original text.
//! editor.undo().unwrap();
//! assert_eq!(editor.code(), "(svg [(rect 'plum' 10 20 30 40)])");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caption;
pub mod editor;
pub mod error;

pub use caption::{caption_for, idle_highlights, write_caption, Caption, Highlight};
pub use editor::{DragFeedback, Editor, EditorConfig, Slider};
pub use error::EditorError;

#[cfg(test)]
mod send_assertions {
    /// The server shares sessions across worker threads: the editor (and
    /// everything a session owns) must stay `Send + Sync`.
    #[test]
    fn editor_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Editor>();
    }
}
