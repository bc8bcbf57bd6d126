//! The SVG value model (paper §2 "Representing SVG Values", Appendix A).
//!
//! A `little` program's output is a value `[kind attrs children]`. This
//! module converts such values into a typed [`SvgNode`] tree, *preserving
//! the run-time traces of every numeric attribute* — the traces are what
//! live synchronization solves against.
//!
//! A tree holds each number's trace, not its value: the values live in one
//! flat array beside the tree (a [`Canvas`](crate::Canvas)'s), in the order
//! the tree was built — depth first, a node's attributes before its
//! children — and each [`NumTr`] holds its index there. Names and strings
//! share the output value's `Arc<str>`s, so the tree copies no text.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use sns_eval::{Items, Trace, Value};

/// A number in an SVG attribute: its run-time trace, and the slot of its
/// value in the value array its tree was built into
/// ([`Canvas::nums`](crate::Canvas::nums)). The value is not kept here, so
/// rewriting a canvas's numbers writes one contiguous array, not the tree.
#[derive(Debug, Clone)]
pub struct NumTr {
    /// The index of the number's value in its value array: the number's
    /// position in canvas order.
    pub slot: usize,
    /// The trace that produced it.
    pub t: Arc<Trace>,
}

impl NumTr {
    /// A traced number whose value is `nums[slot]`.
    pub fn new(slot: usize, t: Arc<Trace>) -> Self {
        NumTr { slot, t }
    }

    /// The number's value in `nums`, the value array of its tree.
    pub fn value(&self, nums: &[f64]) -> f64 {
        nums[self.slot]
    }
}

/// One command of an SVG path `d` attribute, encoded in `little` as a flat
/// list like `['M' 10 20 'C' 30 40 50 60 70 80 'Z']`.
#[derive(Debug, Clone)]
pub struct PathCmd {
    /// The command letter (`M`, `L`, `C`, `Q`, `Z`, …).
    pub cmd: Arc<str>,
    /// The numeric arguments, traces preserved.
    pub args: Vec<NumTr>,
}

/// One command of an SVG `transform` attribute, encoded in `little` as
/// `['transform' ['rotate' deg cx cy]]` (the editor's built-in rotation
/// zones, mentioned in §5.2.2's discussion of rotation, hang off these).
#[derive(Debug, Clone)]
pub struct TransformCmd {
    /// The transform function name (`rotate`, `translate`, `scale`,
    /// `matrix`).
    pub cmd: Arc<str>,
    /// The numeric arguments, traces preserved.
    pub args: Vec<NumTr>,
}

/// A typed SVG attribute value (the specialized encodings of Appendix A).
#[derive(Debug, Clone)]
pub enum AttrValue {
    /// A plain traced number (interpreted as pixels).
    Num(NumTr),
    /// A string, passed through to SVG verbatim.
    Str(Arc<str>),
    /// `['points' [[x1 y1] [x2 y2] …]]` for polygons and polylines.
    Points(Vec<(NumTr, NumTr)>),
    /// `['fill' [r g b a]]` RGBA color components.
    Rgba([NumTr; 4]),
    /// `['fill' n]` — a *color number* in `[0, 500]` mapped onto a spectrum
    /// (Appendix C); directly manipulable via a color slider.
    ColorNum(NumTr),
    /// `['d' ['M' 10 20 …]]` path commands.
    Path(Vec<PathCmd>),
    /// `['transform' ['rotate' deg cx cy …]]` transform commands.
    Transform(Vec<TransformCmd>),
}

impl AttrValue {
    /// Every traced number inside this attribute, in order.
    pub fn nums(&self) -> Vec<&NumTr> {
        let mut out = Vec::new();
        self.for_each_num(&mut |n| out.push(n));
        out
    }

    fn for_each_num<'a>(&'a self, f: &mut impl FnMut(&'a NumTr)) {
        match self {
            AttrValue::Num(n) | AttrValue::ColorNum(n) => f(n),
            AttrValue::Str(_) => {}
            AttrValue::Points(pts) => pts.iter().for_each(|(x, y)| {
                f(x);
                f(y);
            }),
            AttrValue::Rgba(comps) => comps.iter().for_each(f),
            AttrValue::Path(cmds) => cmds.iter().for_each(|c| c.args.iter().for_each(&mut *f)),
            AttrValue::Transform(cmds) => {
                cmds.iter().for_each(|c| c.args.iter().for_each(&mut *f));
            }
        }
    }
}

/// A child of an SVG node: a nested element or raw text content.
#[derive(Debug, Clone)]
pub enum SvgChild {
    /// A nested element.
    Node(SvgNode),
    /// Text content (for `text` elements).
    Text(Arc<str>),
}

/// A typed SVG element.
#[derive(Debug, Clone)]
pub struct SvgNode {
    /// The element kind (`'svg'`, `'rect'`, `'circle'`, …).
    pub kind: Arc<str>,
    /// Attributes in program order.
    pub attrs: Vec<(Arc<str>, AttrValue)>,
    /// Child elements / text.
    pub children: Vec<SvgChild>,
}

impl SvgNode {
    /// Looks up an attribute by name (first occurrence wins, matching the
    /// behaviour of `consAttr` overrides which *prepend*).
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs
            .iter()
            .find(|(k, _)| **k == *name)
            .map(|(_, v)| v)
    }

    /// The traced number stored in attribute `name`, if it is numeric.
    pub fn num_attr(&self, name: &str) -> Option<&NumTr> {
        match self.attr(name)? {
            AttrValue::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Whether the node carries the non-standard `'HIDDEN'` attribute
    /// (helper shapes, §6.3).
    pub fn hidden(&self) -> bool {
        self.attr("HIDDEN").is_some()
    }

    /// Every traced number in this node's attributes (not children).
    pub fn attr_nums(&self) -> Vec<&NumTr> {
        self.attrs.iter().flat_map(|(_, v)| v.nums()).collect()
    }
}

/// Visits every traced number in a node tree: the node's attributes in
/// order, then its children's, depth first.
pub(crate) fn for_each_num<'a>(node: &'a SvgNode, f: &mut impl FnMut(&'a NumTr)) {
    for (_, value) in &node.attrs {
        value.for_each_num(f);
    }
    for child in &node.children {
        if let SvgChild::Node(n) = child {
            for_each_num(n, f);
        }
    }
}

/// An error converting a `little` value into SVG.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgError {
    /// Description of the malformed structure.
    pub msg: String,
}

impl SvgError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SvgError { msg: msg.into() }
    }
}

impl fmt::Display for SvgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svg conversion error: {}", self.msg)
    }
}

impl Error for SvgError {}

/// The items of `items` if there are exactly `N` of them.
fn exactly<'a, const N: usize>(mut items: Items<'a>) -> Option<[&'a Value; N]> {
    (items.len() == N).then(|| std::array::from_fn(|_| items.next().expect("length checked")))
}

/// The string `value` holds, shared, not copied.
fn shared_str(value: &Value) -> Option<Arc<str>> {
    match value {
        Value::Str(s) => Some(Arc::clone(s)),
        _ => None,
    }
}

/// The traced number `n`ᵗ, its value appended to `nums`.
fn push_num(nums: &mut Vec<f64>, n: f64, t: &Arc<Trace>) -> NumTr {
    nums.push(n);
    NumTr::new(nums.len() - 1, Arc::clone(t))
}

/// The traced number `value` holds, appended to `nums`, or the error
/// `msg`.
fn num_tr(nums: &mut Vec<f64>, value: &Value, msg: &str) -> Result<NumTr, SvgError> {
    let (n, t) = value.as_num().ok_or_else(|| SvgError::new(msg))?;
    Ok(push_num(nums, n, t))
}

/// Converts a `little` output value `[kind attrs children]` into an
/// [`SvgNode`] tree, appending the value of every traced number to `nums`
/// in the order [`Canvas::for_each_num`](crate::Canvas::for_each_num)
/// visits them; each [`NumTr::slot`] is its value's index in `nums`.
///
/// The value's lists are read in place, not copied, and its strings are
/// shared: the only allocations are the tree's own vectors and `nums`'s
/// growth.
///
/// # Errors
///
/// Returns an [`SvgError`] when the value does not have the node shape or
/// when a specialized attribute encoding is malformed.
pub fn node_from_value(value: &Value, nums: &mut Vec<f64>) -> Result<SvgNode, SvgError> {
    let parts = value
        .items()
        .ok_or_else(|| SvgError::new(format!("node must be a list, found {value}")))?;
    let len = parts.len();
    let [kind, attr_list, child_list] = exactly(parts).ok_or_else(|| {
        SvgError::new(format!(
            "node must be [kind attrs children], found {len} element(s)"
        ))
    })?;
    let kind = shared_str(kind).ok_or_else(|| SvgError::new("node kind must be a string"))?;
    let attr_items = attr_list
        .items()
        .ok_or_else(|| SvgError::new("node attributes must be a list"))?;
    let mut attrs = Vec::with_capacity(attr_items.len());
    for item in attr_items {
        attrs.push(attr_from_value(item, nums)?);
    }
    let child_items = child_list
        .items()
        .ok_or_else(|| SvgError::new("node children must be a list"))?;
    let mut children = Vec::with_capacity(child_items.len());
    for item in child_items {
        match item {
            Value::Str(s) => children.push(SvgChild::Text(Arc::clone(s))),
            other => children.push(SvgChild::Node(node_from_value(other, nums)?)),
        }
    }
    Ok(SvgNode {
        kind,
        attrs,
        children,
    })
}

fn attr_from_value(value: &Value, nums: &mut Vec<f64>) -> Result<(Arc<str>, AttrValue), SvgError> {
    let pair = value
        .items()
        .ok_or_else(|| SvgError::new("attribute must be a [key value] pair"))?;
    let [key, v] =
        exactly(pair).ok_or_else(|| SvgError::new("attribute must have exactly [key value]"))?;
    let key = shared_str(key).ok_or_else(|| SvgError::new("attribute key must be a string"))?;
    let attr = match (&*key, v) {
        (_, Value::Str(s)) => AttrValue::Str(Arc::clone(s)),
        ("points", v) => AttrValue::Points(points_from_value(v, nums)?),
        ("fill" | "stroke", Value::Num(n, t)) => AttrValue::ColorNum(push_num(nums, *n, t)),
        ("fill" | "stroke", v @ (Value::Cons(..) | Value::Nil)) => {
            let comps = v
                .items()
                .and_then(exactly::<4>)
                .ok_or_else(|| SvgError::new("rgba color must be [r g b a]"))?;
            let msg = "rgba components must be numbers";
            let [r, g, b, a] = comps;
            AttrValue::Rgba([
                num_tr(nums, r, msg)?,
                num_tr(nums, g, msg)?,
                num_tr(nums, b, msg)?,
                num_tr(nums, a, msg)?,
            ])
        }
        ("d", v) => AttrValue::Path(path_from_value(v, nums)?),
        ("transform", v) => AttrValue::Transform(transform_from_value(v, nums)?),
        (_, Value::Num(n, t)) => AttrValue::Num(push_num(nums, *n, t)),
        (k, other) => {
            return Err(SvgError::new(format!(
                "unsupported value for attribute `{k}`: {other}"
            )))
        }
    };
    Ok((key, attr))
}

fn points_from_value(value: &Value, nums: &mut Vec<f64>) -> Result<Vec<(NumTr, NumTr)>, SvgError> {
    let items = value
        .items()
        .ok_or_else(|| SvgError::new("points must be a list of [x y] pairs"))?;
    let mut pts = Vec::with_capacity(items.len());
    for item in items {
        let [x, y] = item
            .items()
            .and_then(exactly)
            .ok_or_else(|| SvgError::new("each point must be [x y]"))?;
        pts.push((
            num_tr(nums, x, "point x must be a number")?,
            num_tr(nums, y, "point y must be a number")?,
        ));
    }
    Ok(pts)
}

fn path_from_value(value: &Value, nums: &mut Vec<f64>) -> Result<Vec<PathCmd>, SvgError> {
    let mut items = value
        .items()
        .ok_or_else(|| SvgError::new("path data must be a flat list"))?;
    // Each command and its arguments are counted ahead, to size them.
    let commands = items.clone().filter(|v| matches!(v, Value::Str(_))).count();
    let is_num = |v: &&Value| matches!(v, Value::Num(..));
    let mut cmds: Vec<PathCmd> = Vec::with_capacity(commands);
    while let Some(item) = items.next() {
        match item {
            Value::Str(s) => cmds.push(PathCmd {
                cmd: Arc::clone(s),
                args: Vec::with_capacity(items.clone().take_while(is_num).count()),
            }),
            Value::Num(n, t) => {
                let cur = cmds
                    .last_mut()
                    .ok_or_else(|| SvgError::new("path data must start with a command"))?;
                cur.args.push(push_num(nums, *n, t));
            }
            other => {
                return Err(SvgError::new(format!(
                    "path data elements must be strings or numbers, found {other}"
                )))
            }
        }
    }
    Ok(cmds)
}

fn transform_from_value(value: &Value, nums: &mut Vec<f64>) -> Result<Vec<TransformCmd>, SvgError> {
    // Accept both a single command ['rotate' a cx cy] and a list of
    // commands [['rotate' …] ['translate' …]].
    let items = value
        .items()
        .ok_or_else(|| SvgError::new("transform must be a list"))?;
    let single = items
        .clone()
        .next()
        .is_some_and(|v| matches!(v, Value::Str(_)));
    if single {
        return Ok(vec![transform_cmd(value, nums)?]);
    }
    let mut out = Vec::with_capacity(items.len());
    for cmd in items {
        out.push(transform_cmd(cmd, nums)?);
    }
    Ok(out)
}

fn transform_cmd(cmd: &Value, nums: &mut Vec<f64>) -> Result<TransformCmd, SvgError> {
    let mut parts = cmd
        .items()
        .ok_or_else(|| SvgError::new("transform command must be a list"))?;
    let name = parts
        .next()
        .and_then(shared_str)
        .ok_or_else(|| SvgError::new("transform command must start with a name"))?;
    let mut args = Vec::with_capacity(parts.len());
    for p in parts {
        args.push(num_tr(nums, p, "transform arguments must be numbers")?);
    }
    Ok(TransformCmd { cmd: name, args })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::Program;

    /// The node of `src`'s output, and its value array.
    fn node_of(src: &str) -> (SvgNode, Vec<f64>) {
        let v = Program::parse(src).unwrap().eval().unwrap();
        let mut nums = Vec::new();
        let node = node_from_value(&v, &mut nums).unwrap();
        (node, nums)
    }

    #[test]
    fn rect_converts_with_traces() {
        let (n, nums) = node_of("(rect 'gold' 10 20 30 40)");
        assert_eq!(&*n.kind, "rect");
        let x = n.num_attr("x").unwrap();
        assert_eq!(x.value(&nums), 10.0);
        assert!(matches!(&*x.t, Trace::Loc(_)));
        assert!(matches!(n.attr("fill"), Some(AttrValue::Str(s)) if &**s == "gold"));
        // The values sit in canvas order: x, y, width, height.
        assert_eq!(nums, [10.0, 20.0, 30.0, 40.0]);
        assert_eq!(
            n.attr_nums().iter().map(|n| n.slot).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn polygon_points_are_structured() {
        let (n, nums) = node_of("(polygon 'red' 'black' 2 [[0 0] [100 0] [50 80]])");
        match n.attr("points").unwrap() {
            AttrValue::Points(pts) => {
                assert_eq!(pts.len(), 3);
                assert_eq!(pts[2].1.value(&nums), 80.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rgba_fill_is_recognized() {
        let (n, _) = node_of("(rect [255 0 0 1] 0 0 10 10)");
        assert!(matches!(n.attr("fill"), Some(AttrValue::Rgba(_))));
    }

    #[test]
    fn color_number_is_recognized() {
        let (n, nums) = node_of("(rect 150 0 0 10 10)");
        match n.attr("fill").unwrap() {
            AttrValue::ColorNum(c) => assert_eq!(c.value(&nums), 150.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn path_data_parses_into_commands() {
        let (n, _) = node_of("(path 'none' 'black' 2 ['M' 10 20 'C' 1 2 3 4 5 6 'Z'])");
        match n.attr("d").unwrap() {
            AttrValue::Path(cmds) => {
                assert_eq!(cmds.len(), 3);
                assert_eq!(&*cmds[0].cmd, "M");
                assert_eq!(cmds[1].args.len(), 6);
                assert_eq!(&*cmds[2].cmd, "Z");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transform_rotate_parses_with_traces() {
        let (n, nums) = node_of("(addAttr (rect 'red' 0 0 10 10) ['transform' ['rotate' 45 5 5]])");
        match n.attr("transform").unwrap() {
            AttrValue::Transform(cmds) => {
                assert_eq!(cmds.len(), 1);
                assert_eq!(&*cmds[0].cmd, "rotate");
                assert_eq!(cmds[0].args[0].value(&nums), 45.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transform_command_lists_parse() {
        let (n, _) = node_of(
            "(addAttr (rect 'red' 0 0 10 10) ['transform' [['rotate' 45 5 5] ['translate' 1 2]]])",
        );
        match n.attr("transform").unwrap() {
            AttrValue::Transform(cmds) => assert_eq!(cmds.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hidden_attribute_is_detected() {
        let (n, _) = node_of("(ghost (rect 'gold' 0 0 1 1))");
        assert!(n.hidden());
    }

    #[test]
    fn svg_canvas_has_children() {
        let (n, _) = node_of("(svg [(rect 'a' 0 0 1 1) (circle 'b' 5 5 2)])");
        assert_eq!(&*n.kind, "svg");
        assert_eq!(n.children.len(), 2);
    }

    #[test]
    fn text_node_has_text_child() {
        let (n, _) = node_of("(text 10 20 'hello')");
        assert!(matches!(&n.children[0], SvgChild::Text(s) if &**s == "hello"));
    }

    #[test]
    fn malformed_nodes_error() {
        let v = Program::parse("[1 2]").unwrap().eval().unwrap();
        assert!(node_from_value(&v, &mut Vec::new()).is_err());
        let v = Program::parse("['rect' 5 []]").unwrap().eval().unwrap();
        assert!(node_from_value(&v, &mut Vec::new()).is_err());
    }
}
