//! Rendering the SVG node tree to XML text (Appendix A's `↪` translation).
//!
//! The translation is a thin wrapper over the target format: string
//! attributes pass through, numbers print as pixels, and the specialized
//! encodings (`points`, RGBA fills, color numbers, path data) are expanded.
//! The non-standard `'ZONES'` and `'HIDDEN'` attributes are dropped, as in
//! the paper.

use std::fmt::{self, Write};

use sns_lang::write_num;

use crate::node::{AttrValue, NumTr, SvgChild, SvgNode};

/// Rendering options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderOptions {
    /// Skip shapes carrying the `'HIDDEN'` attribute (the editor's
    /// hidden-layer toggle, Appendix C "Layers").
    pub hide_hidden: bool,
}

/// Renders a node tree as an SVG/XML string, reading each number's value
/// from `nums`, the value array the tree was built into.
///
/// # Examples
///
/// ```
/// use sns_eval::Program;
/// use sns_svg::{node_from_value, render};
///
/// let v = Program::parse("(svg [(rect 'gold' 10 20 30 40)])").unwrap().eval().unwrap();
/// let mut nums = Vec::new();
/// let node = node_from_value(&v, &mut nums).unwrap();
/// let xml = render(&node, &nums, Default::default());
/// assert!(xml.contains("<rect x='10' y='20' width='30' height='40' fill='gold'/>"));
/// ```
pub fn render(node: &SvgNode, nums: &[f64], options: RenderOptions) -> String {
    let mut out = String::new();
    render_to(&mut out, node, nums, options).expect("writing to a String cannot fail");
    out
}

/// Renders a node tree into `out`, the text [`render`] returns. Nothing
/// is built on the side: every attribute and number is written straight
/// into `out`.
///
/// # Errors
///
/// Fails only when `out` does.
pub fn render_to(
    out: &mut impl Write,
    node: &SvgNode,
    nums: &[f64],
    options: RenderOptions,
) -> fmt::Result {
    write_node(out, node, nums, options, 0)
}

fn indent(out: &mut impl Write, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_node(
    out: &mut impl Write,
    node: &SvgNode,
    nums: &[f64],
    options: RenderOptions,
    depth: usize,
) -> fmt::Result {
    if options.hide_hidden && node.hidden() {
        return Ok(());
    }
    indent(out, depth)?;
    write!(out, "<{}", node.kind)?;
    if &*node.kind == "svg" && depth == 0 {
        out.write_str(" xmlns='http://www.w3.org/2000/svg'")?;
    }
    for (key, value) in &node.attrs {
        if matches!(&**key, "ZONES" | "HIDDEN") {
            continue;
        }
        write!(out, " {key}='")?;
        write_attr_value(out, value, nums)?;
        out.write_str("'")?;
    }
    if node.children.is_empty() {
        return out.write_str("/>\n");
    }
    out.write_str(">\n")?;
    for child in &node.children {
        match child {
            SvgChild::Node(n) => write_node(out, n, nums, options, depth + 1)?,
            SvgChild::Text(s) => {
                indent(out, depth + 1)?;
                write_xml_escaped(out, s)?;
                out.write_str("\n")?;
            }
        }
    }
    indent(out, depth)?;
    writeln!(out, "</{}>", node.kind)
}

/// Writes `items` separated by `sep`.
fn write_sep<T>(
    out: &mut dyn Write,
    items: &[T],
    sep: &str,
    mut item: impl FnMut(&mut dyn Write, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(sep)?;
        }
        item(out, x)?;
    }
    Ok(())
}

fn write_attr_value(out: &mut impl Write, value: &AttrValue, nums: &[f64]) -> fmt::Result {
    let num = |out: &mut dyn Write, n: &NumTr| write_num(out, n.value(nums));
    match value {
        AttrValue::Num(n) => num(out, n),
        AttrValue::Str(s) => write_xml_escaped(out, s),
        AttrValue::Points(pts) => write_sep(out, pts, " ", |out, (x, y)| {
            num(out, x)?;
            out.write_str(",")?;
            num(out, y)
        }),
        AttrValue::Rgba(rgba) => {
            out.write_str("rgba(")?;
            write_sep(out, rgba, ",", num)?;
            out.write_str(")")
        }
        AttrValue::ColorNum(n) => write_color_num(out, n.value(nums)),
        AttrValue::Path(cmds) => write_sep(out, cmds, " ", |out, cmd| {
            out.write_str(&cmd.cmd)?;
            for a in &cmd.args {
                out.write_str(" ")?;
                num(out, a)?;
            }
            Ok(())
        }),
        AttrValue::Transform(cmds) => write_sep(out, cmds, " ", |out, cmd| {
            write!(out, "{}(", cmd.cmd)?;
            write_sep(out, &cmd.args, " ", num)?;
            out.write_str(")")
        }),
    }
}

/// Maps a *color number* in `[0, 500]` to a CSS color (Appendix C): values
/// in `[0, 360)` are hues at full saturation; `[360, 500]` is a grayscale
/// ramp from black to white.
fn write_color_num(out: &mut impl Write, n: f64) -> fmt::Result {
    let v = n.clamp(0.0, 500.0);
    if v < 360.0 {
        out.write_str("hsl(")?;
        write_num(out, v.round())?;
        out.write_str(",100%,50%)")
    } else {
        let lightness = ((v - 360.0) / 140.0 * 100.0).round();
        out.write_str("hsl(0,0%,")?;
        write_num(out, lightness)?;
        out.write_str("%)")
    }
}

/// Writes `s` with the XML special characters escaped, a run of plain
/// text at a time.
fn write_xml_escaped(out: &mut impl Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'\'' => "&apos;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::node_from_value;
    use sns_eval::Program;

    fn render_of(src: &str) -> String {
        let v = Program::parse(src).unwrap().eval().unwrap();
        let mut nums = Vec::new();
        let node = node_from_value(&v, &mut nums).unwrap();
        render(&node, &nums, RenderOptions::default())
    }

    #[test]
    fn renders_basic_canvas() {
        let xml = render_of("(svg [(rect 'gold' 10 20 30 40)])");
        assert!(xml.starts_with("<svg xmlns="));
        assert!(xml.contains("<rect x='10' y='20' width='30' height='40' fill='gold'/>"));
        assert!(xml.ends_with("</svg>\n"));
    }

    #[test]
    fn renders_points() {
        let xml = render_of("(polygon 'red' 'black' 2 [[0 0] [10 0] [5 8]])");
        assert!(xml.contains("points='0,0 10,0 5,8'"));
    }

    #[test]
    fn renders_rgba() {
        let xml = render_of("(rect [255 0 0 0.5] 0 0 1 1)");
        assert!(xml.contains("fill='rgba(255,0,0,0.5)'"));
    }

    #[test]
    fn renders_color_numbers() {
        let xml = render_of("(rect 120 0 0 1 1)");
        assert!(xml.contains("fill='hsl(120,100%,50%)'"));
        let xml = render_of("(rect 430 0 0 1 1)");
        assert!(xml.contains("fill='hsl(0,0%,50%)'"));
    }

    #[test]
    fn renders_path_data() {
        let xml = render_of("(path 'none' 'black' 2 ['M' 1 2 'L' 3 4 'Z'])");
        assert!(xml.contains("d='M 1 2 L 3 4 Z'"));
    }

    #[test]
    fn renders_transforms() {
        let xml = render_of("(addAttr (rect 'red' 0 0 10 10) ['transform' ['rotate' 45 5 5]])");
        assert!(xml.contains("transform='rotate(45 5 5)'"), "{xml}");
    }

    #[test]
    fn hidden_shapes_can_be_hidden() {
        let src = "(svg [(ghost (rect 'gold' 0 0 1 1)) (circle 'red' 5 5 2)])";
        let v = Program::parse(src).unwrap().eval().unwrap();
        let mut nums = Vec::new();
        let node = node_from_value(&v, &mut nums).unwrap();
        let xml = render(&node, &nums, RenderOptions { hide_hidden: true });
        assert!(!xml.contains("<rect"));
        assert!(xml.contains("<circle"));
        // HIDDEN itself is never emitted, even when shown.
        let xml = render(&node, &nums, RenderOptions::default());
        assert!(xml.contains("<rect"));
        assert!(!xml.contains("HIDDEN"));
    }

    #[test]
    fn escapes_xml_text() {
        let xml = render_of("(text 0 0 'a < b & c')");
        assert!(xml.contains("a &lt; b &amp; c"));
    }
}
