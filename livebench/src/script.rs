//! The seeded op script and its in-process shadow.
//!
//! Every session on the server has a [`Shadow`]: a `Session` built from
//! the same source and fed the same operations. The script is generated
//! from the seed *and* the shadow's state (which zones are active now,
//! which literals exist now), so it repeats exactly for a seed and never
//! asks for an operation the program would refuse. The shadow is also the
//! correctness oracle: the server's replies must equal its output bitwise.

use sns_eval::{FreezeMode, Program};
use sns_lang::{diff_exprs, AstDiff, LocId, Subst};
use sns_server::json::Json;
use sns_server::session::Session;
use sns_svg::{ShapeId, Zone};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream` (0 for the load, one
    /// per copy of the sessions in the recovery fixture).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A nonzero integer in `-m..=m`.
    pub fn nonzero(&mut self, m: i64) -> i64 {
        let v = (self.below(m as usize) as i64) + 1;
        if self.next_u64() & 1 == 0 {
            v
        } else {
            -v
        }
    }
}

/// The farthest a gesture may move a literal: twice the largest mouse
/// offset (24 px), so positions and sizes move freely and counts do not
/// jump (see [`Shadow::plan_gesture`]).
const MAX_LITERAL_SHIFT: f64 = 48.0;

/// The classes of code edit the script cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditClass {
    /// One numeric literal changes value.
    Literal,
    /// One operator changes, literal counts intact.
    Subtree,
    /// The program's shape changes.
    Structural,
}

impl EditClass {
    /// The class of the `n`-th edit of a run: a fixed cycle, so the
    /// mix — and with it the `set_code` median — does not depend on the
    /// seed.
    pub fn nth(n: usize) -> EditClass {
        [
            EditClass::Literal,
            EditClass::Subtree,
            EditClass::Structural,
        ][n % 3]
    }
}

/// How `diff_exprs` classified an edit (what `set_program_diffed` keys on).
pub fn classify(old: &str, new: &str) -> &'static str {
    let (Ok(a), Ok(b)) = (Program::parse(old), Program::parse(new)) else {
        return "unparsable";
    };
    match diff_exprs(a.user_expr(), b.user_expr()) {
        AstDiff::Identical => "identical",
        AstDiff::Literals(_) => "literals",
        AstDiff::Subtree { .. } => "subtree",
        AstDiff::Structural => "structural",
    }
}

/// The unused definition every session's program starts with: the anchor
/// the subtree and structural edits rewrite. Its two states are
/// independent bits — the operator (`*` ↔ `+`: one changed subtree, equal
/// literal counts) and a list wrapper (adds a literal: a reshape).
fn anchor(plus: bool, wrapped: bool) -> String {
    let core = format!("({} 7 1313)", if plus { "+" } else { "*" });
    if wrapped {
        format!("(def benchK [{core} 0])")
    } else {
        format!("(def benchK {core})")
    }
}

/// A program as the benchmark creates it: the anchor, then `body`.
pub fn with_anchor(body: &str) -> String {
    format!("{}\n{body}", anchor(false, false))
}

/// One planned drag gesture: a zone and its mouse positions (total
/// offsets from the gesture's start, as the editor sends them).
#[derive(Debug, Clone)]
pub struct Gesture {
    /// The dragged shape.
    pub shape: ShapeId,
    /// The dragged zone.
    pub zone: Zone,
    /// Mouse positions, the last one being where the mouse is released.
    pub steps: Vec<(f64, f64)>,
}

impl Gesture {
    /// The request body of step `i`.
    pub fn body(&self, i: usize) -> String {
        let (dx, dy) = self.steps[i];
        format!(
            "{{\"shape\":{},\"zone\":\"{}\",\"dx\":{dx},\"dy\":{dy}}}",
            self.shape.0, self.zone
        )
    }
}

/// A session as the client knows it.
pub struct Shadow {
    /// The server's id for the session.
    pub id: String,
    /// The in-process mirror.
    pub session: Session,
    /// Zones that are active in the mirror's current canvas.
    pub zones: Vec<(ShapeId, Zone)>,
    /// The mirror's `/canvas` body, as of the last refresh.
    pub canvas: String,
    /// Shapes on the canvas now, and when the session was (re)created.
    shapes: usize,
    created_shapes: usize,
    /// The program's literal values, as of the last refresh.
    values: Subst,
    /// Commits and code edits since the session was (re)created.
    pub writes: usize,
    /// The source the session was first created from.
    pub source: String,
    /// The locations the last commit changed.
    dragged: Vec<LocId>,
    /// Zone picks so far, and the session's seeded phase in the pick
    /// sequence (see [`Shadow::plan_gesture`]).
    picks: u64,
    phase: Option<f64>,
    plus: bool,
    wrapped: bool,
}

impl Shadow {
    /// Mirrors a session created from `source`.
    pub fn new(id: String, source: &str) -> Result<Shadow, String> {
        let session = Session::create(id.clone(), source).map_err(|e| e.msg)?;
        let mut shadow = Shadow {
            id,
            session,
            zones: Vec::new(),
            canvas: String::new(),
            shapes: 0,
            created_shapes: 0,
            values: Subst::new(),
            writes: 0,
            source: source.to_string(),
            dragged: Vec::new(),
            picks: 0,
            phase: None,
            plus: false,
            wrapped: false,
        };
        shadow.refresh();
        shadow.created_shapes = shadow.shapes;
        Ok(shadow)
    }

    /// Rebuilds the mirror from its original source under the server's
    /// new id, as the server does for a session created from that source.
    pub fn recreate(&mut self, id: String) -> Result<(), String> {
        self.session = Session::create(id.clone(), &self.source).map_err(|e| e.msg)?;
        self.id = id;
        self.writes = 0;
        self.dragged.clear();
        self.plus = false;
        self.wrapped = false;
        self.refresh();
        self.created_shapes = self.shapes;
        Ok(())
    }

    /// Re-reads the active zones, the shape count, the literal values and
    /// the canvas body after a mutation.
    pub fn refresh(&mut self) {
        let canvas = self.session.canvas_json();
        self.zones.clear();
        let shapes = canvas.get("shapes").and_then(Json::as_arr).unwrap_or(&[]);
        self.shapes = shapes.len();
        for shape in shapes {
            let id = shape.get("id").and_then(Json::as_f64).unwrap_or(-1.0);
            for z in shape.get("zones").and_then(Json::as_arr).unwrap_or(&[]) {
                let active = matches!(z.get("active"), Some(Json::Bool(true)));
                let zone = z
                    .get("zone")
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse().ok());
                if let (true, Some(zone)) = (active, zone) {
                    self.zones.push((ShapeId(id as usize), zone));
                }
            }
        }
        self.canvas = canvas.to_string();
        self.values =
            Program::parse(&self.session.code()).map_or_else(|_| Subst::new(), |p| p.subst());
    }

    /// Whether the session's canvas has grown past twice the shapes it was
    /// created with: a drag or edit has raised a loop count, and every
    /// later operation on the session would cost more than the workload
    /// means to measure. Such a session is recycled.
    pub fn overgrown(&self) -> bool {
        self.shapes > 2 * self.created_shapes.max(1)
    }

    /// How far the mirror's pending drag moves any literal from its value
    /// in the current program.
    fn largest_shift(&self) -> f64 {
        self.pending().map_or(0.0, |subst| {
            subst
                .iter()
                .map(|(loc, v)| self.values.get(loc).map_or(0.0, |old| (v - old).abs()))
                .fold(0.0, f64::max)
        })
    }

    /// The `/code` body the server must return.
    pub fn code_body(&self) -> String {
        Json::obj([("code", Json::str(self.session.code()))]).to_string()
    }

    /// Plans a gesture of `steps` mouse positions on a seeded active zone
    /// and performs its final position on the mirror, returning the drag
    /// reply body the server's last step must match. Zones the mirror
    /// refuses are skipped, so the server only ever sees drags that work.
    ///
    /// Zones are picked along a golden-ratio sequence from a seeded phase,
    /// not independently at random: every seed then spreads its gestures
    /// evenly over the session's zones (whose costs differ by an order of
    /// magnitude), and the mix a run measures depends little on the seed.
    ///
    /// A zone whose solved literals move much farther than the mouse (a
    /// loop count solved through a small factor: one ferris-wheel drag
    /// took a spoke count from 5 to 427, and the follower's replay of that
    /// commit overflowed its thread's stack) gets a shorter gesture, halved
    /// until no literal moves more than [`MAX_LITERAL_SHIFT`] or the mouse
    /// moves one pixel.
    pub fn plan_gesture(
        &mut self,
        rng: &mut Rng,
        steps: usize,
    ) -> Result<(Gesture, String), String> {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let phase = *self
            .phase
            .get_or_insert_with(|| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        for _ in 0..64 {
            if self.zones.is_empty() {
                break;
            }
            self.picks += 1;
            let at = (phase + self.picks as f64 * GOLDEN).fract();
            let (shape, zone) =
                self.zones[((at * self.zones.len() as f64) as usize).min(self.zones.len() - 1)];
            let (mut ax, mut ay) = (rng.nonzero(24) as f64, rng.nonzero(24) as f64);
            let mut reply = self.session.drag(shape, zone, ax, ay);
            while reply.is_ok()
                && self.largest_shift() > MAX_LITERAL_SHIFT
                && (ax.abs() > 1.0 || ay.abs() > 1.0)
            {
                // Dragging the same zone again re-solves from the drag's start.
                ax = (ax / 2.0).trunc();
                ay = (ay / 2.0).trunc();
                reply = self.session.drag(shape, zone, ax, ay);
            }
            if let Ok(reply) = reply {
                let steps = (1..=steps)
                    .map(|k| {
                        let f = k as f64 / steps as f64;
                        ((ax * f).round(), (ay * f).round())
                    })
                    .collect();
                return Ok((Gesture { shape, zone, steps }, reply.to_string()));
            }
        }
        Err(format!("session {} has no draggable zone", self.id))
    }

    /// The substitution the mirror's pending drag would commit.
    pub fn pending(&self) -> Option<Subst> {
        self.session.pending_commit()
    }

    /// Commits the mirror's drag and returns the commit reply body.
    pub fn commit(&mut self) -> Result<String, String> {
        self.dragged = self
            .pending()
            .map_or_else(Vec::new, |s| s.domain().collect());
        self.session.commit().map_err(|e| e.msg)?;
        self.writes += 1;
        self.refresh();
        Ok(self.code_body())
    }

    /// Produces an edit of class `class` from the mirror's current code
    /// and applies it to the mirror, returning the new source and the
    /// `PUT /code` reply body the server must match.
    pub fn plan_edit(
        &mut self,
        rng: &mut Rng,
        class: EditClass,
    ) -> Result<(String, String), String> {
        let code = self.session.code();
        let current = anchor(self.plus, self.wrapped);
        if !code.contains(&current) {
            return Err(format!("session {}: anchor missing from code", self.id));
        }
        let candidates: Vec<String> = match class {
            EditClass::Subtree => {
                vec![code.replacen(&current, &anchor(!self.plus, self.wrapped), 1)]
            }
            EditClass::Structural => {
                vec![code.replacen(&current, &anchor(self.plus, !self.wrapped), 1)]
            }
            EditClass::Literal => literal_edits(&code, rng, self.wrapped, &self.dragged)?,
        };
        for source in candidates {
            if let Ok(reply) = self.session.set_code(&source) {
                match class {
                    EditClass::Subtree => self.plus = !self.plus,
                    EditClass::Structural => self.wrapped = !self.wrapped,
                    EditClass::Literal => {}
                }
                self.writes += 1;
                self.refresh();
                return Ok((source, reply.to_string()));
            }
        }
        Err(format!("session {}: no {class:?} edit applies", self.id))
    }
}

/// Candidate literal edits of `code`, in seeded order: one changeable
/// user literal (never the anchor's) moved by ±1, chosen among the
/// literals the last drag changed when there are any. Those are positions
/// and sizes; a ±1 on an arbitrary literal can change a loop count, and
/// with it the cost of every later operation on the session.
fn literal_edits(
    code: &str,
    rng: &mut Rng,
    wrapped: bool,
    dragged: &[LocId],
) -> Result<Vec<String>, String> {
    let program = Program::parse(code).map_err(|e| e.to_string())?;
    let mode = FreezeMode::default();
    let mut locs: Vec<_> = program
        .subst()
        .iter()
        .filter(|(l, _)| !program.is_prelude_loc(*l))
        .collect();
    locs.sort_by_key(|(l, _)| *l);
    // The anchor comes first in the text, so its literals have the
    // smallest user location ids.
    let anchor_literals = if wrapped { 3 } else { 2 };
    let mut pool: Vec<_> = locs
        .into_iter()
        .skip(anchor_literals)
        .filter(|(l, _)| !program.is_frozen(*l, mode))
        .collect();
    if pool.iter().any(|(l, _)| dragged.contains(l)) {
        pool.retain(|(l, _)| dragged.contains(l));
    }
    let mut out = Vec::new();
    while !pool.is_empty() && out.len() < 8 {
        let (loc, value) = pool.swap_remove(rng.below(pool.len()));
        let delta = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        let edited = program
            .with_subst(&Subst::from_pairs([(loc, value + delta)]))
            .code();
        out.push(edited);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        sns_eval::with_big_stack(f)
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn edits_land_in_their_diff_class() {
        big_stack(|| {
            let src = with_anchor(sns_examples::by_slug("three_boxes").unwrap().source);
            let mut shadow = Shadow::new("s".into(), &src).unwrap();
            let mut rng = Rng::new(1, 0);
            for n in 0..6 {
                let class = EditClass::nth(n);
                let before = shadow.session.code();
                let (after, _) = shadow.plan_edit(&mut rng, class).unwrap();
                let want = match class {
                    EditClass::Literal => "literals",
                    EditClass::Subtree => "subtree",
                    EditClass::Structural => "structural",
                };
                assert_eq!(classify(&before, &after), want, "{after}");
            }
        });
    }

    #[test]
    fn gestures_repeat_for_a_seed() {
        big_stack(|| {
            let src = with_anchor(sns_examples::by_slug("three_boxes").unwrap().source);
            let plan = |seed| {
                let mut shadow = Shadow::new("s".into(), &src).unwrap();
                let mut rng = Rng::new(seed, 0);
                let (g, reply) = shadow.plan_gesture(&mut rng, 5).unwrap();
                (g.body(4), reply)
            };
            assert_eq!(plan(3), plan(3));
        });
    }

    /// Gestures on the ferris wheel, whose spoke count a drag can solve
    /// for, never move a literal past the limit unless the mouse moves a
    /// single pixel, and an overgrown session is reported.
    #[test]
    fn gestures_keep_literals_in_reach() {
        big_stack(|| {
            let src = with_anchor(sns_examples::by_slug("ferris_wheel").unwrap().source);
            let mut shadow = Shadow::new("s".into(), &src).unwrap();
            let mut rng = Rng::new(96, 0);
            for _ in 0..40 {
                let (g, _) = shadow.plan_gesture(&mut rng, 3).unwrap();
                let (dx, dy) = *g.steps.last().unwrap();
                assert!(
                    shadow.largest_shift() <= MAX_LITERAL_SHIFT
                        || (dx.abs() <= 1.0 && dy.abs() <= 1.0),
                    "shift {} at ({dx}, {dy})",
                    shadow.largest_shift()
                );
                shadow.commit().unwrap();
                if shadow.overgrown() {
                    shadow.recreate("s".into()).unwrap();
                }
                assert!(shadow.shapes <= 2 * shadow.created_shapes);
            }
        });
    }
}
