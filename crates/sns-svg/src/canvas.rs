//! The output canvas: the program's one SVG node tree, with every shape
//! in it given a stable identity for zone assignment and direct
//! manipulation. A shape is a view of its node in that tree, so each
//! traced number lives once.
//!
//! The tree holds each number's trace; the numbers' values live in one
//! flat array in canvas order ([`Canvas::nums`]), which every reader —
//! rendering, zone slots, trigger bases — indexes by [`NumTr::slot`]. So
//! a commit that sweeps new values from the traces writes that array,
//! each changed number by index ([`Canvas::write_nums`]), and leaves the
//! tree alone.

use sns_eval::Value;

use crate::node::{for_each_num, node_from_value, NumTr, SvgChild, SvgError, SvgNode};
use crate::render::{render, render_to, RenderOptions};
use crate::zones::{zones_of, ZoneSpec};

/// Stable identity of a shape within one canvas (pre-order index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(pub usize);

impl std::fmt::Display for ShapeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape#{}", self.0)
    }
}

/// One shape in the canvas: a view of its node in the canvas's tree, and
/// of the canvas's values.
#[derive(Debug, Clone, Copy)]
pub struct Shape<'a> {
    /// The shape's canvas identity.
    pub id: ShapeId,
    /// The underlying SVG node (traces preserved).
    pub node: &'a SvgNode,
    /// The canvas's values, which the node's numbers index.
    pub nums: &'a [f64],
}

impl Shape<'_> {
    /// The zones of this shape (Figure 5).
    pub fn zones(&self) -> Vec<ZoneSpec> {
        zones_of(self.node)
    }

    /// Whether this is a hidden helper shape.
    pub fn hidden(&self) -> bool {
        self.node.hidden()
    }

    /// The value of a number of this shape's tree.
    pub fn value(&self, num: &NumTr) -> f64 {
        num.value(self.nums)
    }

    /// The value of the numeric attribute `name`, if the node has one.
    pub fn num(&self, name: &str) -> Option<f64> {
        self.node.num_attr(name).map(|n| self.value(n))
    }
}

/// The rendered output of a program: the root `svg` node, the value of
/// each of its numbers, and where in it each shape is.
#[derive(Debug, Clone)]
pub struct Canvas {
    root: SvgNode,
    /// Every number's value, in [`Canvas::for_each_num`] order; a
    /// [`NumTr::slot`] indexes it.
    nums: Vec<f64>,
    /// Each shape's path from the root, by [`ShapeId`]: the indices of the
    /// children leading to its node.
    paths: Vec<Box<[u32]>>,
}

impl Canvas {
    /// Builds a canvas from a program's output value.
    ///
    /// # Errors
    ///
    /// Returns an [`SvgError`] if the value is not a well-formed SVG node
    /// tree rooted at an `'svg'` node.
    pub fn from_value(value: &Value) -> Result<Canvas, SvgError> {
        let mut nums = Vec::new();
        let root = node_from_value(value, &mut nums)?;
        if &*root.kind != "svg" {
            return Err(SvgError::new(format!(
                "program output must be an 'svg' node, found '{}'",
                root.kind
            )));
        }
        let mut paths = Vec::new();
        collect_shapes(&root, &mut Vec::new(), &mut paths);
        Ok(Canvas { root, nums, paths })
    }

    /// The root `svg` node.
    pub fn root(&self) -> &SvgNode {
        &self.root
    }

    /// The value of every traced number of the canvas, in
    /// [`Canvas::for_each_num`] order — the `w1 … wk` numeric outputs of
    /// the synthesis framework (§3). A number's [`NumTr::slot`] is its
    /// index here.
    pub fn nums(&self) -> &[f64] {
        &self.nums
    }

    /// All shapes in pre-order.
    pub fn shapes(&self) -> impl ExactSizeIterator<Item = Shape<'_>> {
        (0..self.paths.len()).map(|i| self.shape(ShapeId(i)).expect("a shape's path"))
    }

    /// Looks a shape up by id, following its path down the tree.
    pub fn shape(&self, id: ShapeId) -> Option<Shape<'_>> {
        let mut node = &self.root;
        for &i in self.paths.get(id.0)?.iter() {
            let SvgChild::Node(child) = &node.children[i as usize] else {
                unreachable!("a shape's path leads through elements only");
            };
            node = child;
        }
        Some(Shape {
            id,
            node,
            nums: &self.nums,
        })
    }

    /// Renders the canvas to SVG text (the editor's export feature).
    pub fn to_svg(&self, options: RenderOptions) -> String {
        render(&self.root, &self.nums, options)
    }

    /// Writes the SVG text [`Canvas::to_svg`] returns into `out`.
    ///
    /// # Errors
    ///
    /// Fails only when `out` does.
    pub fn write_svg(
        &self,
        out: &mut impl std::fmt::Write,
        options: RenderOptions,
    ) -> std::fmt::Result {
        render_to(out, &self.root, &self.nums, options)
    }

    /// Visits every traced number of the canvas once, depth first: a
    /// node's attributes, then its children's. The `i`-th number visited
    /// has slot `i`.
    pub fn for_each_num<'a>(&'a self, mut f: impl FnMut(&'a NumTr)) {
        for_each_num(&self.root, &mut f);
    }

    /// Rewrites values in place: the number in slot `i` becomes `value(i)`
    /// where that is `Some`. One pass over the flat value array; the tree
    /// — structure, strings and traces — is untouched, so this is for
    /// substitutions that provably leave control flow unchanged, with
    /// values swept from the traces (see [`sns_eval::TraceTape`]).
    pub fn write_nums(&mut self, mut value: impl FnMut(usize) -> Option<f64>) {
        for (i, n) in self.nums.iter_mut().enumerate() {
            if let Some(v) = value(i) {
                *n = v;
            }
        }
    }
}

/// Records, in pre-order, the path to every shape under `node`; `path`
/// is `node`'s own. Groups (`svg`, `g`) are not shapes, but shapes nested
/// in a shape are, so they are manipulable too.
fn collect_shapes(node: &SvgNode, path: &mut Vec<u32>, paths: &mut Vec<Box<[u32]>>) {
    for (i, child) in node.children.iter().enumerate() {
        if let SvgChild::Node(n) = child {
            path.push(i as u32);
            if !matches!(&*n.kind, "svg" | "g") {
                paths.push(path.as_slice().into());
            }
            collect_shapes(n, path, paths);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::Program;

    fn canvas_of(src: &str) -> Canvas {
        let v = Program::parse(src).unwrap().eval().unwrap();
        Canvas::from_value(&v).unwrap()
    }

    /// Every value of a canvas, as bits.
    fn bits(c: &Canvas) -> Vec<u64> {
        c.nums().iter().map(|n| n.to_bits()).collect()
    }

    #[test]
    fn flattens_shapes_in_order() {
        let c = canvas_of("(svg [(rect 'a' 0 0 1 1) (circle 'b' 5 5 2) (line 'c' 1 0 0 9 9)])");
        let kinds: Vec<&str> = c.shapes().map(|s| &*s.node.kind).collect();
        assert_eq!(kinds, vec!["rect", "circle", "line"]);
        assert_eq!(&*c.shape(ShapeId(1)).unwrap().node.kind, "circle");
    }

    #[test]
    fn nested_svg_groups_are_flattened() {
        let c = canvas_of("(svg [['svg' [] [(rect 'a' 0 0 1 1)]] (circle 'b' 5 5 2)])");
        assert_eq!(c.shapes().len(), 2);
    }

    #[test]
    fn requires_svg_root() {
        let v = Program::parse("(rect 'a' 0 0 1 1)")
            .unwrap()
            .eval()
            .unwrap();
        assert!(Canvas::from_value(&v).is_err());
    }

    #[test]
    fn numeric_outputs_cover_all_attrs() {
        let c = canvas_of("(svg [(rect 'a' 10 20 30 40)])");
        let mut slots = Vec::new();
        c.for_each_num(|n| slots.push(n.slot));
        assert_eq!(slots, vec![0, 1, 2, 3]);
        assert_eq!(c.nums(), [10.0, 20.0, 30.0, 40.0]);
    }

    /// Every node's kind and numbers' slots, depth first: a plain tree
    /// walk.
    fn walk<'a>(node: &'a SvgNode, kinds: &mut Vec<&'a str>, slots: &mut Vec<usize>) {
        kinds.push(&node.kind);
        slots.extend(node.attr_nums().iter().map(|n| n.slot));
        for child in &node.children {
            if let SvgChild::Node(n) = child {
                walk(n, kinds, slots);
            }
        }
    }

    #[test]
    fn nested_shapes_flatten_in_preorder_and_hold_each_number_once() {
        use sns_eval::TraceTape;
        use sns_lang::{LocId, Subst};

        // A rect holding a circle holding a line, then a group's ellipse.
        let src = "(def x 10) \
                   (svg [['rect' [['x' x] ['y' 20]] \
                           [['circle' [['cx' (+ x 5)] ['r' 3]] \
                              [['line' [['x1' x] ['x2' 7]] []]]]]] \
                         ['g' [] [['ellipse' [['rx' (* x 2)]] []]]]])";
        let p = Program::parse(src).unwrap();
        let mut canvas = Canvas::from_value(&p.eval().unwrap()).unwrap();
        let kinds: Vec<&str> = canvas.shapes().map(|s| &*s.node.kind).collect();
        assert_eq!(kinds, vec!["rect", "circle", "line", "ellipse"]);
        let ids: Vec<ShapeId> = canvas.shapes().map(|s| s.id).collect();
        assert_eq!(ids, (0..4).map(ShapeId).collect::<Vec<_>>());
        assert_eq!(&*canvas.shape(ShapeId(2)).unwrap().node.kind, "line");
        assert!(canvas.shape(ShapeId(4)).is_none());

        let (mut kinds, mut walked) = (Vec::new(), Vec::new());
        walk(canvas.root(), &mut kinds, &mut walked);
        assert_eq!(kinds, ["svg", "rect", "circle", "line", "g", "ellipse"]);
        let mut visited = Vec::new();
        canvas.for_each_num(|n| visited.push(n.slot));
        assert_eq!(visited, walked, "each number is visited once");
        assert_eq!(visited, (0..canvas.nums().len()).collect::<Vec<_>>());
        let in_shapes: usize = canvas.shapes().map(|s| s.node.attr_nums().len()).sum();
        assert_eq!(in_shapes, visited.len());

        // Sweep x from 10 to 12 and write it in: equal to re-evaluation.
        let rho0 = p.subst();
        let mut tape = TraceTape::builder(&rho0);
        let mut outputs = Vec::new();
        canvas.for_each_num(|num| outputs.push(tape.push(&num.t)));
        let mut tape = tape.finish();
        let x = LocId(p.next_loc() - 6);
        assert_eq!(rho0.get(x), Some(10.0));
        let subst = Subst::from_pairs([(x, 12.0)]);
        let sweep = tape.sweep(&subst).unwrap();
        canvas.write_nums(|i| sweep.get(outputs[i]));
        let full = Canvas::from_value(&p.with_subst(&subst).eval().unwrap()).unwrap();
        assert_eq!(bits(&canvas), bits(&full));
        assert_eq!(
            canvas.to_svg(RenderOptions::default()),
            full.to_svg(RenderOptions::default())
        );
        let line = canvas.shape(ShapeId(2)).unwrap();
        assert_eq!(line.num("x1"), Some(12.0));
    }

    #[test]
    fn patched_canvas_matches_full_reevaluation() {
        use sns_eval::TraceTape;
        use sns_lang::{LocId, Subst};

        let src = "(def [x0 sep] [40 25]) \
                   (svg (map (λ i (rect 'red' (+ x0 (* i sep)) 10 20 20)) (zeroTo 4!)))";
        let p = Program::parse(src).unwrap();
        let mut canvas = Canvas::from_value(&p.eval().unwrap()).unwrap();
        let rho0 = p.subst();
        let mut tape = TraceTape::builder(&rho0);
        let mut outputs = Vec::new();
        canvas.for_each_num(|num| outputs.push(tape.push(&num.t)));
        let mut tape = tape.finish();
        // User literals in order: x0, sep, y, w, h, 4! — six of them.
        let x0 = LocId(p.next_loc() - 6);
        let subst = Subst::from_pairs([(x0, 55.0)]);
        let sweep = tape.sweep(&subst).unwrap();
        canvas.write_nums(|i| sweep.get(outputs[i]));
        let full = Canvas::from_value(&p.with_subst(&subst).eval().unwrap()).unwrap();
        assert_eq!(
            canvas.to_svg(RenderOptions::default()),
            full.to_svg(RenderOptions::default())
        );
        // A shape reads the root tree's number itself, not a copy of it,
        // and its value from the canvas's one array.
        let shape = canvas.shape(ShapeId(3)).unwrap();
        let x3 = shape.node.num_attr("x").unwrap();
        assert_eq!(shape.value(x3), 130.0);
        assert!(std::ptr::eq(shape.nums, canvas.nums()));
        let SvgChild::Node(root_x3) = &canvas.root().children[3] else {
            panic!("the fourth child is a rect");
        };
        assert!(std::ptr::eq(x3, root_x3.num_attr("x").unwrap()));
        assert_eq!(bits(&canvas), bits(&full));
    }

    #[test]
    fn sine_wave_canvas_has_twelve_boxes() {
        let src = r#"
            (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
            (def n 12!{3-30})
            (def boxi (λ i
              (let xi (+ x0 (* i sep))
              (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
                (rect 'lightblue' xi yi w h)))))
            (svg (map boxi (zeroTo n)))
        "#;
        let c = canvas_of(src);
        assert_eq!(c.shapes().len(), 12);
        // First box: x = 50 + 0*30 = 50.
        assert_eq!(c.shape(ShapeId(0)).unwrap().num("x"), Some(50.0));
        // Third box: x = 50 + 2*30 = 110 (paper Equation 3).
        assert_eq!(c.shape(ShapeId(2)).unwrap().num("x"), Some(110.0));
    }
}
