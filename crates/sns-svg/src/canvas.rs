//! The output canvas: a flattened view of the SVG node tree, giving every
//! shape a stable identity for zone assignment and direct manipulation.

use sns_eval::Value;

use crate::node::{
    for_each_num, for_each_num_mut, node_from_value, NumTr, SvgChild, SvgError, SvgNode,
};
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

/// One shape in the canvas.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The shape's canvas identity.
    pub id: ShapeId,
    /// The underlying SVG node (traces preserved).
    pub node: SvgNode,
}

impl Shape {
    /// The zones of this shape (Figure 5).
    pub fn zones(&self) -> Vec<ZoneSpec> {
        zones_of(&self.node)
    }

    /// Whether this is a hidden helper shape.
    pub fn hidden(&self) -> bool {
        self.node.hidden()
    }
}

/// The rendered output of a program: the root `svg` node plus a flattened
/// shape list.
#[derive(Debug, Clone)]
pub struct Canvas {
    root: SvgNode,
    shapes: Vec<Shape>,
}

impl Canvas {
    /// Builds a canvas from a program's output value.
    ///
    /// # Errors
    ///
    /// Returns an [`SvgError`] if the value is not a well-formed SVG node
    /// tree rooted at an `'svg'` node.
    pub fn from_value(value: &Value) -> Result<Canvas, SvgError> {
        let root = node_from_value(value)?;
        if root.kind != "svg" {
            return Err(SvgError::new(format!(
                "program output must be an 'svg' node, found '{}'",
                root.kind
            )));
        }
        let mut shapes = Vec::new();
        collect_shapes(&root, &mut shapes);
        Ok(Canvas { root, shapes })
    }

    /// The root `svg` node.
    pub fn root(&self) -> &SvgNode {
        &self.root
    }

    /// All shapes in pre-order.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Looks a shape up by id.
    pub fn shape(&self, id: ShapeId) -> Option<&Shape> {
        self.shapes.get(id.0)
    }

    /// Renders the canvas to SVG text (the editor's export feature).
    pub fn to_svg(&self, options: RenderOptions) -> String {
        render(&self.root, options)
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
        render_to(out, &self.root, options)
    }

    /// Visits every traced number of the canvas: those of the root tree,
    /// then those of each shape's copy, shape by shape. This order indexes
    /// [`Canvas::write_nums`].
    pub fn for_each_num<'a>(&'a self, mut f: impl FnMut(&'a NumTr)) {
        for_each_num(&self.root, &mut f);
        for shape in &self.shapes {
            for_each_num(&shape.node, &mut f);
        }
    }

    /// Rewrites traced numbers in place: the `i`-th number in
    /// [`Canvas::for_each_num`] order becomes `value(i)` where that is
    /// `Some`. Structure, strings, and traces are untouched, so this is
    /// for substitutions that provably leave control flow unchanged, with
    /// values swept from the traces (see [`sns_eval::TraceTape`]).
    pub fn write_nums(&mut self, mut value: impl FnMut(usize) -> Option<f64>) {
        let mut i = 0;
        let mut write = |num: &mut NumTr| {
            if let Some(v) = value(i) {
                num.n = v;
            }
            i += 1;
        };
        for_each_num_mut(&mut self.root, &mut write);
        for shape in &mut self.shapes {
            for_each_num_mut(&mut shape.node, &mut write);
        }
    }

    /// Every traced number in every shape's attributes, in canvas order —
    /// the `w1 … wk` numeric outputs of the synthesis framework (§3).
    pub fn numeric_outputs(&self) -> Vec<NumTr> {
        self.shapes
            .iter()
            .flat_map(|s| s.node.attr_nums().into_iter().cloned())
            .collect()
    }
}

fn collect_shapes(node: &SvgNode, shapes: &mut Vec<Shape>) {
    for child in &node.children {
        if let SvgChild::Node(n) = child {
            if n.kind == "svg" || n.kind == "g" {
                collect_shapes(n, shapes);
            } else {
                shapes.push(Shape {
                    id: ShapeId(shapes.len()),
                    node: n.clone(),
                });
                // Shapes may themselves have children (rare); recurse so
                // nested shapes are manipulable too.
                collect_shapes(n, shapes);
            }
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

    #[test]
    fn flattens_shapes_in_order() {
        let c = canvas_of("(svg [(rect 'a' 0 0 1 1) (circle 'b' 5 5 2) (line 'c' 1 0 0 9 9)])");
        let kinds: Vec<&str> = c.shapes().iter().map(|s| s.node.kind.as_str()).collect();
        assert_eq!(kinds, vec!["rect", "circle", "line"]);
        assert_eq!(c.shape(ShapeId(1)).unwrap().node.kind, "circle");
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
        let nums: Vec<f64> = c.numeric_outputs().iter().map(|n| n.n).collect();
        assert_eq!(nums, vec![10.0, 20.0, 30.0, 40.0]);
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
        // The shapes' copies are rewritten along with the root tree.
        assert_eq!(canvas.shapes()[3].node.num_attr("x").unwrap().n, 130.0);
        let bits = |c: &Canvas| {
            let mut out = Vec::new();
            c.for_each_num(|num| out.push(num.n.to_bits()));
            out
        };
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
        assert_eq!(c.shapes()[0].node.num_attr("x").unwrap().n, 50.0);
        // Third box: x = 50 + 2*30 = 110 (paper Equation 3).
        assert_eq!(c.shapes()[2].node.num_attr("x").unwrap().n, 110.0);
    }
}
