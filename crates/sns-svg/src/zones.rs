//! Zones: the directly manipulable areas of each SVG shape kind, and the
//! attributes each zone controls (paper §4.2 and Figure 5).
//!
//! Each zone is tied to a set of attributes, and each attribute varies
//! either covariantly or contravariantly with the mouse offsets `dx`/`dy`.
//! For example the BOTLEFTCORNER of a rectangle controls `'x'` (+dx),
//! `'width'` (−dx), and `'height'` (+dy).
//!
//! One deliberate correction to the paper's Figure 5 as typeset: its
//! BOTLEFTCORNER row shows `'height'` varying with −dy, but a *bottom*
//! corner must grow the height as the mouse moves down (covariantly),
//! consistent with the figure's own BOTEDGE (+dy) and TOPLEFTCORNER (−dy)
//! rows. We implement the physically consistent table; DESIGN.md records
//! the substitution.

use std::fmt;

use crate::node::{AttrValue, SvgNode};

/// A zone of a shape: a named visual area the user can click and drag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Zone {
    /// The interior of a shape (translates it).
    Interior,
    /// Right edge of a rect (width) / of a circle or ellipse (radius).
    RightEdge,
    /// Bottom-right corner of a rect.
    BotRightCorner,
    /// Bottom edge.
    BotEdge,
    /// Bottom-left corner.
    BotLeftCorner,
    /// Left edge.
    LeftEdge,
    /// Top-left corner.
    TopLeftCorner,
    /// Top edge.
    TopEdge,
    /// Top-right corner.
    TopRightCorner,
    /// The i-th point of a line / polygon / polyline / path.
    Point(u32),
    /// The i-th edge of a polygon / polyline (drags both endpoints).
    Edge(u32),
    /// The entire stroke of a line (drags both endpoints together).
    WholeEdge,
    /// The rotation handle of a shape carrying a `transform` `rotate`
    /// command (the editor's built-in rotation zones, §5.2.2's discussion).
    Rotation,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Zone::Interior => write!(f, "Interior"),
            Zone::RightEdge => write!(f, "RightEdge"),
            Zone::BotRightCorner => write!(f, "BotRightCorner"),
            Zone::BotEdge => write!(f, "BotEdge"),
            Zone::BotLeftCorner => write!(f, "BotLeftCorner"),
            Zone::LeftEdge => write!(f, "LeftEdge"),
            Zone::TopLeftCorner => write!(f, "TopLeftCorner"),
            Zone::TopEdge => write!(f, "TopEdge"),
            Zone::TopRightCorner => write!(f, "TopRightCorner"),
            Zone::Point(i) => write!(f, "Point{i}"),
            Zone::Edge(i) => write!(f, "Edge{i}"),
            Zone::WholeEdge => write!(f, "Edge"),
            Zone::Rotation => write!(f, "Rotation"),
        }
    }
}

/// Error parsing a [`Zone`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseZoneError(String);

impl fmt::Display for ParseZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown zone `{}`", self.0)
    }
}

impl std::error::Error for ParseZoneError {}

impl std::str::FromStr for Zone {
    type Err = ParseZoneError;

    /// Parses zone names case-insensitively: `interior`, `rightedge`,
    /// `botrightcorner`, …, plus indexed `point<i>` and `edge<i>` (bare
    /// `edge` is a line's whole-stroke zone).
    fn from_str(s: &str) -> Result<Zone, ParseZoneError> {
        let lower = s.to_ascii_lowercase();
        Ok(match lower.as_str() {
            "interior" => Zone::Interior,
            "rightedge" => Zone::RightEdge,
            "botrightcorner" => Zone::BotRightCorner,
            "botedge" => Zone::BotEdge,
            "botleftcorner" => Zone::BotLeftCorner,
            "leftedge" => Zone::LeftEdge,
            "topleftcorner" => Zone::TopLeftCorner,
            "topedge" => Zone::TopEdge,
            "toprightcorner" => Zone::TopRightCorner,
            "edge" => Zone::WholeEdge,
            "rotation" => Zone::Rotation,
            _ => {
                if let Some(i) = lower.strip_prefix("point") {
                    Zone::Point(i.parse().map_err(|_| ParseZoneError(s.to_string()))?)
                } else if let Some(i) = lower.strip_prefix("edge") {
                    Zone::Edge(i.parse().map_err(|_| ParseZoneError(s.to_string()))?)
                } else {
                    return Err(ParseZoneError(s.to_string()));
                }
            }
        })
    }
}

/// Identifies one numeric attribute of a shape that a zone can control.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrRef {
    /// A plain named attribute (`x`, `cy`, `width`, …).
    Plain(&'static str),
    /// The x coordinate of the i-th point of a `points` attribute.
    PointX(u32),
    /// The y coordinate of the i-th point of a `points` attribute.
    PointY(u32),
    /// The x coordinate of the i-th numeric pair in a path `d` attribute.
    PathX(u32),
    /// The y coordinate of the i-th numeric pair in a path `d` attribute.
    PathY(u32),
    /// The i-th numeric argument (flat, across commands) of a `transform`
    /// attribute; argument 0 of a `rotate` is the angle in degrees.
    TransformArg(u32),
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrRef::Plain(s) => write!(f, "{s}"),
            AttrRef::PointX(i) => write!(f, "points[{i}].x"),
            AttrRef::PointY(i) => write!(f, "points[{i}].y"),
            AttrRef::PathX(i) => write!(f, "d[{i}].x"),
            AttrRef::PathY(i) => write!(f, "d[{i}].y"),
            AttrRef::TransformArg(i) => write!(f, "transform[{i}]"),
        }
    }
}

/// How an attribute responds to a mouse drag (Figure 5's ±dx / ±dy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Offset {
    /// Covariant with horizontal movement (`+dx`).
    PlusDx,
    /// Contravariant with horizontal movement (`−dx`).
    MinusDx,
    /// Covariant with vertical movement (`+dy`).
    PlusDy,
    /// Contravariant with vertical movement (`−dy`).
    MinusDy,
}

impl Offset {
    /// The attribute delta for a mouse movement of `(dx, dy)`.
    pub fn delta(self, dx: f64, dy: f64) -> f64 {
        match self {
            Offset::PlusDx => dx,
            Offset::MinusDx => -dx,
            Offset::PlusDy => dy,
            Offset::MinusDy => -dy,
        }
    }
}

/// One zone of a concrete shape, with the attributes it controls.
#[derive(Debug, Clone)]
pub struct ZoneSpec {
    /// The zone identity.
    pub zone: Zone,
    /// `(attribute, offset direction)` pairs affected by dragging the zone.
    pub effects: Vec<(AttrRef, Offset)>,
}

use Offset::{MinusDx, MinusDy, PlusDx, PlusDy};

fn rect_zones() -> Vec<ZoneSpec> {
    use AttrRef::Plain;
    vec![
        ZoneSpec {
            zone: Zone::Interior,
            effects: vec![(Plain("x"), PlusDx), (Plain("y"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::RightEdge,
            effects: vec![(Plain("width"), PlusDx)],
        },
        ZoneSpec {
            zone: Zone::BotRightCorner,
            effects: vec![(Plain("width"), PlusDx), (Plain("height"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::BotEdge,
            effects: vec![(Plain("height"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::BotLeftCorner,
            effects: vec![
                (Plain("x"), PlusDx),
                (Plain("width"), MinusDx),
                (Plain("height"), PlusDy),
            ],
        },
        ZoneSpec {
            zone: Zone::LeftEdge,
            effects: vec![(Plain("x"), PlusDx), (Plain("width"), MinusDx)],
        },
        ZoneSpec {
            zone: Zone::TopLeftCorner,
            effects: vec![
                (Plain("x"), PlusDx),
                (Plain("y"), PlusDy),
                (Plain("width"), MinusDx),
                (Plain("height"), MinusDy),
            ],
        },
        ZoneSpec {
            zone: Zone::TopEdge,
            effects: vec![(Plain("y"), PlusDy), (Plain("height"), MinusDy)],
        },
        ZoneSpec {
            zone: Zone::TopRightCorner,
            effects: vec![
                (Plain("y"), PlusDy),
                (Plain("width"), PlusDx),
                (Plain("height"), MinusDy),
            ],
        },
    ]
}

fn circle_zones() -> Vec<ZoneSpec> {
    use AttrRef::Plain;
    vec![
        ZoneSpec {
            zone: Zone::Interior,
            effects: vec![(Plain("cx"), PlusDx), (Plain("cy"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::RightEdge,
            effects: vec![(Plain("r"), PlusDx)],
        },
        ZoneSpec {
            zone: Zone::BotEdge,
            effects: vec![(Plain("r"), PlusDy)],
        },
    ]
}

fn ellipse_zones() -> Vec<ZoneSpec> {
    use AttrRef::Plain;
    vec![
        ZoneSpec {
            zone: Zone::Interior,
            effects: vec![(Plain("cx"), PlusDx), (Plain("cy"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::RightEdge,
            effects: vec![(Plain("rx"), PlusDx)],
        },
        ZoneSpec {
            zone: Zone::BotEdge,
            effects: vec![(Plain("ry"), PlusDy)],
        },
    ]
}

fn line_zones() -> Vec<ZoneSpec> {
    use AttrRef::Plain;
    vec![
        ZoneSpec {
            zone: Zone::Point(0),
            effects: vec![(Plain("x1"), PlusDx), (Plain("y1"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::Point(1),
            effects: vec![(Plain("x2"), PlusDx), (Plain("y2"), PlusDy)],
        },
        ZoneSpec {
            zone: Zone::WholeEdge,
            effects: vec![
                (Plain("x1"), PlusDx),
                (Plain("y1"), PlusDy),
                (Plain("x2"), PlusDx),
                (Plain("y2"), PlusDy),
            ],
        },
    ]
}

fn poly_zones(n_points: u32, closed: bool) -> Vec<ZoneSpec> {
    let mut zones = Vec::new();
    for i in 0..n_points {
        zones.push(ZoneSpec {
            zone: Zone::Point(i),
            effects: vec![(AttrRef::PointX(i), PlusDx), (AttrRef::PointY(i), PlusDy)],
        });
    }
    let n_edges = if closed {
        n_points
    } else {
        n_points.saturating_sub(1)
    };
    for i in 0..n_edges {
        let j = (i + 1) % n_points;
        zones.push(ZoneSpec {
            zone: Zone::Edge(i),
            effects: vec![
                (AttrRef::PointX(i), PlusDx),
                (AttrRef::PointY(i), PlusDy),
                (AttrRef::PointX(j), PlusDx),
                (AttrRef::PointY(j), PlusDy),
            ],
        });
    }
    if n_points > 0 {
        let mut effects = Vec::with_capacity(2 * n_points as usize);
        for i in 0..n_points {
            effects.push((AttrRef::PointX(i), PlusDx));
            effects.push((AttrRef::PointY(i), PlusDy));
        }
        zones.push(ZoneSpec {
            zone: Zone::Interior,
            effects,
        });
    }
    zones
}

fn path_zones(node: &SvgNode) -> Vec<ZoneSpec> {
    let Some(AttrValue::Path(cmds)) = node.attr("d") else {
        return Vec::new();
    };
    let n_pairs: u32 = cmds.iter().map(|c| (c.args.len() / 2) as u32).sum();
    let mut zones = Vec::new();
    for i in 0..n_pairs {
        zones.push(ZoneSpec {
            zone: Zone::Point(i),
            effects: vec![(AttrRef::PathX(i), PlusDx), (AttrRef::PathY(i), PlusDy)],
        });
    }
    if n_pairs > 0 {
        let mut effects = Vec::with_capacity(2 * n_pairs as usize);
        for i in 0..n_pairs {
            effects.push((AttrRef::PathX(i), PlusDx));
            effects.push((AttrRef::PathY(i), PlusDy));
        }
        zones.push(ZoneSpec {
            zone: Zone::Interior,
            effects,
        });
    }
    zones
}

fn text_zones() -> Vec<ZoneSpec> {
    use AttrRef::Plain;
    vec![ZoneSpec {
        zone: Zone::Interior,
        effects: vec![(Plain("x"), PlusDx), (Plain("y"), PlusDy)],
    }]
}

/// Returns the zones of a shape node, per Figure 5 (plus a Rotation zone
/// when the shape carries a `rotate` transform). Unknown shape kinds and
/// `'svg'` containers have no zones.
pub fn zones_of(node: &SvgNode) -> Vec<ZoneSpec> {
    let mut zones = base_zones(node);
    if let Some(spec) = rotation_zone(node) {
        zones.push(spec);
    }
    zones
}

/// The angle argument of the first `rotate` command, if any, as a Rotation
/// zone: dragging horizontally spins the shape.
fn rotation_zone(node: &SvgNode) -> Option<ZoneSpec> {
    let AttrValue::Transform(cmds) = node.attr("transform")? else {
        return None;
    };
    let mut flat = 0u32;
    for cmd in cmds {
        if &*cmd.cmd == "rotate" && !cmd.args.is_empty() {
            return Some(ZoneSpec {
                zone: Zone::Rotation,
                effects: vec![(AttrRef::TransformArg(flat), PlusDx)],
            });
        }
        flat += cmd.args.len() as u32;
    }
    None
}

fn base_zones(node: &SvgNode) -> Vec<ZoneSpec> {
    match &*node.kind {
        "rect" => rect_zones(),
        "circle" => circle_zones(),
        "ellipse" => ellipse_zones(),
        "line" => line_zones(),
        "polygon" | "polyline" => {
            let n = match node.attr("points") {
                Some(AttrValue::Points(pts)) => pts.len() as u32,
                _ => 0,
            };
            poly_zones(n, &*node.kind == "polygon")
        }
        "path" => path_zones(node),
        "text" => text_zones(),
        _ => Vec::new(),
    }
}

/// Resolves an [`AttrRef`] on a node to its traced number.
pub fn resolve_attr<'a>(node: &'a SvgNode, attr: &AttrRef) -> Option<&'a crate::node::NumTr> {
    match attr {
        AttrRef::Plain(name) => node.num_attr(name),
        AttrRef::PointX(i) | AttrRef::PointY(i) => {
            let Some(AttrValue::Points(pts)) = node.attr("points") else {
                return None;
            };
            let (x, y) = pts.get(*i as usize)?;
            Some(if matches!(attr, AttrRef::PointX(_)) {
                x
            } else {
                y
            })
        }
        AttrRef::TransformArg(i) => {
            let Some(AttrValue::Transform(cmds)) = node.attr("transform") else {
                return None;
            };
            let mut flat = 0u32;
            for cmd in cmds {
                if (*i as usize) < flat as usize + cmd.args.len() {
                    return cmd.args.get((*i - flat) as usize);
                }
                flat += cmd.args.len() as u32;
            }
            None
        }
        AttrRef::PathX(i) | AttrRef::PathY(i) => {
            let Some(AttrValue::Path(cmds)) = node.attr("d") else {
                return None;
            };
            let mut pair_idx = 0u32;
            for cmd in cmds {
                let pairs = cmd.args.len() / 2;
                if (*i as usize) < pair_idx as usize + pairs {
                    let off = (*i - pair_idx) as usize * 2;
                    let idx = if matches!(attr, AttrRef::PathX(_)) {
                        off
                    } else {
                        off + 1
                    };
                    return cmd.args.get(idx);
                }
                pair_idx += pairs as u32;
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::node_from_value;
    use sns_eval::Program;

    fn node_of(src: &str) -> SvgNode {
        node_and_nums(src).0
    }

    fn node_and_nums(src: &str) -> (SvgNode, Vec<f64>) {
        let v = Program::parse(src).unwrap().eval().unwrap();
        let mut nums = Vec::new();
        let node = node_from_value(&v, &mut nums).unwrap();
        (node, nums)
    }

    #[test]
    fn rect_has_nine_zones() {
        let n = node_of("(rect 'gold' 0 0 10 10)");
        assert_eq!(zones_of(&n).len(), 9);
    }

    #[test]
    fn botleft_corner_is_physically_consistent() {
        let n = node_of("(rect 'gold' 0 0 10 10)");
        let zones = zones_of(&n);
        let bl = zones
            .iter()
            .find(|z| z.zone == Zone::BotLeftCorner)
            .unwrap();
        let h = bl
            .effects
            .iter()
            .find(|(a, _)| matches!(a, AttrRef::Plain("height")))
            .unwrap();
        assert_eq!(h.1, PlusDy);
        let w = bl
            .effects
            .iter()
            .find(|(a, _)| matches!(a, AttrRef::Plain("width")))
            .unwrap();
        assert_eq!(w.1, MinusDx);
    }

    #[test]
    fn circle_zones_control_radius() {
        let n = node_of("(circle 'red' 5 5 2)");
        let zones = zones_of(&n);
        assert_eq!(zones.len(), 3);
        let re = zones.iter().find(|z| z.zone == Zone::RightEdge).unwrap();
        assert_eq!(re.effects, vec![(AttrRef::Plain("r"), PlusDx)]);
    }

    #[test]
    fn polygon_zone_count_matches_figure_5() {
        // k points + k edges + interior.
        let n = node_of("(polygon 'red' 'black' 2 [[0 0] [10 0] [5 8]])");
        assert_eq!(zones_of(&n).len(), 7);
    }

    #[test]
    fn polyline_has_open_edges() {
        let n = node_of("(polyline 'none' 'black' 2 [[0 0] [10 0] [5 8]])");
        // 3 points + 2 edges + interior.
        assert_eq!(zones_of(&n).len(), 6);
    }

    #[test]
    fn path_points_come_from_d_pairs() {
        let (n, nums) = node_and_nums("(path 'none' 'black' 2 ['M' 1 2 'L' 3 4 'Z'])");
        let zones = zones_of(&n);
        // 2 data points + interior.
        assert_eq!(zones.len(), 3);
        let p1 = resolve_attr(&n, &AttrRef::PathX(1)).unwrap();
        assert_eq!(p1.value(&nums), 3.0);
    }

    #[test]
    fn resolve_plain_and_point_attrs() {
        let (n, nums) = node_and_nums("(polygon 'red' 'black' 2 [[0 0] [10 0] [5 8]])");
        let y2 = resolve_attr(&n, &AttrRef::PointY(2)).unwrap();
        assert_eq!(y2.value(&nums), 8.0);
        let (n, nums) = node_and_nums("(rect 'gold' 1 2 3 4)");
        let height = resolve_attr(&n, &AttrRef::Plain("height")).unwrap();
        assert_eq!(height.value(&nums), 4.0);
    }

    #[test]
    fn offsets_apply_signs() {
        assert_eq!(PlusDx.delta(3.0, 5.0), 3.0);
        assert_eq!(MinusDx.delta(3.0, 5.0), -3.0);
        assert_eq!(PlusDy.delta(3.0, 5.0), 5.0);
        assert_eq!(MinusDy.delta(3.0, 5.0), -5.0);
    }

    #[test]
    fn svg_container_has_no_zones() {
        let n = node_of("(svg [])");
        assert!(zones_of(&n).is_empty());
    }

    #[test]
    fn zone_parse_roundtrips_display() {
        for zone in [
            Zone::Interior,
            Zone::RightEdge,
            Zone::BotRightCorner,
            Zone::BotEdge,
            Zone::BotLeftCorner,
            Zone::LeftEdge,
            Zone::TopLeftCorner,
            Zone::TopEdge,
            Zone::TopRightCorner,
            Zone::Point(3),
            Zone::Edge(1),
            Zone::WholeEdge,
        ] {
            let text = zone.to_string();
            assert_eq!(text.parse::<Zone>().unwrap(), zone, "{text}");
        }
        assert!("nope".parse::<Zone>().is_err());
        assert!("pointx".parse::<Zone>().is_err());
    }
}
