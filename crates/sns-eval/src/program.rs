//! Programs: user code + Prelude, with location metadata.
//!
//! A [`Program`] couples the user's `little` source with the Prelude it is
//! implicitly wrapped in, tracks per-location metadata (canonical name,
//! freeze/thaw annotation, range annotation, Prelude membership), and knows
//! how to evaluate itself and how to apply local updates.
//!
//! As in the paper, a program is a pair (e, ρ₀): the ASTs as parsed and one
//! substitution ρ₀, the current value of every literal, which evaluation
//! reads and a local update rebinds. The ASTs and the location metadata
//! are shared behind [`Arc`]s by every clone (an undo point, a preview
//! under ρ), which copies ρ₀ alone. The user code's text is unparsed once
//! and cached with each literal's span, so the text of an update is a
//! splice ([`Program::code_with`]), not a full unparse.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use sns_lang::{
    fmt_num, loc_names, parse_with_locs, program_subst, unparse_with_spans, Expr, FreezeAnnotation,
    LitSpan, LocId, ParseError, Pat, Subst,
};

use crate::env::Env;
use crate::eval::{named_rec, EvalError, Evaluator, Limits};
use crate::value::Value;

/// The `little` Prelude source embedded in every program (Appendix C).
pub const PRELUDE_SRC: &str = include_str!("prelude.little");

/// Metadata about one program location.
#[derive(Debug, Clone, PartialEq)]
pub struct LocInfo {
    /// Canonical name when the literal is bound directly to a variable.
    pub name: Option<String>,
    /// Freeze/thaw annotation written on the literal.
    pub annotation: FreezeAnnotation,
    /// Range annotation `{lo-hi}` (slider request).
    pub range: Option<(f64, f64)>,
    /// Whether the location lives in the Prelude.
    pub prelude: bool,
}

/// Controls which constants the synthesizer may change (§2.2, App. C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreezeMode {
    /// Treat every Prelude constant as frozen (the paper's default).
    pub prelude_frozen: bool,
    /// Freeze *all* constants except those explicitly thawed with `?`.
    pub all_except_thawed: bool,
}

impl Default for FreezeMode {
    fn default() -> Self {
        FreezeMode {
            prelude_frozen: true,
            all_except_thawed: false,
        }
    }
}

impl FreezeMode {
    /// The paper's default: Prelude frozen, user constants free unless `!`.
    pub fn annotated_only() -> Self {
        Self::default()
    }

    /// Everything frozen except `?`-thawed constants (App. C "Thawing and
    /// Freezing Constants").
    pub fn all_except_thawed() -> Self {
        FreezeMode {
            prelude_frozen: true,
            all_except_thawed: true,
        }
    }

    /// Nothing implicitly frozen — even the Prelude. Used to reproduce the
    /// full Figure 1D candidate set (which includes Prelude locations ℓ0
    /// and ℓ1 before the freezing discussion).
    pub fn nothing_frozen() -> Self {
        FreezeMode {
            prelude_frozen: false,
            all_except_thawed: false,
        }
    }
}

/// Location metadata by location.
type LocTable = HashMap<LocId, LocInfo>;

/// The parsed Prelude every program shares, with its half of the
/// location metadata and of ρ₀: built once per process, not once per
/// parse.
struct PreludeTemplate {
    expr: Arc<Expr>,
    next_loc: u32,
    loc_info: Arc<LocTable>,
    rho0: Subst,
}

fn prelude_template() -> &'static PreludeTemplate {
    static TEMPLATE: OnceLock<PreludeTemplate> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let parsed = sns_lang::parse(PRELUDE_SRC).expect("the embedded Prelude must always parse");
        PreludeTemplate {
            loc_info: Arc::new(loc_table(&parsed.expr, true)),
            rho0: program_subst(&parsed.expr),
            expr: Arc::new(parsed.expr),
            next_loc: parsed.next_loc,
        }
    })
}

/// The metadata of every literal in `expr`, the Prelude's or the user's.
fn loc_table(expr: &Expr, prelude: bool) -> LocTable {
    let names = loc_names(expr);
    let mut info = HashMap::new();
    expr.walk(&mut |e| {
        if let Expr::Num(n) = e {
            info.insert(
                n.loc,
                LocInfo {
                    name: names.get(&n.loc).cloned(),
                    annotation: n.annotation,
                    range: n.range,
                    prelude,
                },
            );
        }
    });
    info
}

/// The user code's text plus the span of every literal's value in it,
/// sorted by location for lookup.
#[derive(Debug)]
struct CodeText {
    text: String,
    spans: Vec<LitSpan>,
}

impl CodeText {
    fn new(expr: &Expr) -> CodeText {
        let (text, mut spans) = unparse_with_spans(expr);
        spans.sort_unstable_by_key(|s| s.loc);
        CodeText { text, spans }
    }

    fn span(&self, loc: LocId) -> Option<&LitSpan> {
        let i = self.spans.binary_search_by_key(&loc, |s| s.loc).ok()?;
        Some(&self.spans[i])
    }

    /// The text with the literals `rho` binds re-printed. Locations
    /// without a span (the Prelude's) are skipped. `edited` receives each
    /// re-printed literal's old span and its new `start..end`, in text
    /// order.
    fn splice(&self, rho: &Subst, mut edited: impl FnMut(&LitSpan, usize, usize)) -> String {
        let mut edits: Vec<(&LitSpan, f64)> = rho
            .iter()
            .filter_map(|(l, v)| self.span(l).map(|s| (s, v)))
            .collect();
        edits.sort_unstable_by_key(|(s, _)| s.start);
        let mut out = String::with_capacity(self.text.len());
        let mut at = 0;
        for (span, v) in edits {
            out.push_str(&self.text[at..span.start]);
            let start = out.len();
            out.push_str(&fmt_num(v));
            edited(span, start, out.len());
            at = span.end;
        }
        out.push_str(&self.text[at..]);
        out
    }

    /// The text and spans as they read after applying `rho`: each
    /// re-printed literal's span covers its new text, and every other
    /// span shifts by the length change of the literals before it.
    fn with_subst(&self, rho: &Subst) -> CodeText {
        // (old span, new start, new end) of each re-printed literal.
        let mut moved: Vec<(LitSpan, usize, usize)> = Vec::new();
        let text = self.splice(rho, |old, start, end| moved.push((*old, start, end)));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                // The re-printed literals before `s`, and `s` itself if it
                // was re-printed.
                let k = moved.partition_point(|(old, ..)| old.start < s.start);
                match (moved.get(k), k.checked_sub(1).map(|j| &moved[j])) {
                    (Some(&(old, start, end)), _) if old.loc == s.loc => {
                        LitSpan { start, end, ..*s }
                    }
                    (_, Some(&(old, _, end))) => LitSpan {
                        start: s.start - old.end + end,
                        end: s.end - old.end + end,
                        ..*s
                    },
                    (_, None) => *s,
                }
            })
            .collect();
        CodeText { text, spans }
    }
}

/// A complete program: Prelude + user code.
///
/// # Examples
///
/// ```
/// use sns_eval::Program;
///
/// let program = Program::parse("(svg [(rect 'gold' 10 20 30 40)])").unwrap();
/// let value = program.eval().unwrap();
/// assert!(value.to_vec().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    /// Shared with the Prelude template and every clone.
    prelude_expr: Arc<Expr>,
    /// Shared with every clone.
    user_expr: Arc<Expr>,
    prelude_next_loc: u32,
    next_loc: u32,
    /// The Prelude's location metadata, shared with the template.
    prelude_info: Arc<LocTable>,
    /// The user code's location metadata, shared with every clone.
    user_info: Arc<LocTable>,
    limits: Limits,
    /// ρ₀: the current value of every literal, the Prelude's and the
    /// user's. The ASTs keep the values as parsed.
    rho0: Subst,
    /// The unparsed user code, built on first use and re-anchored by
    /// [`Program::apply_subst`]. Until it is built, ρ₀ binds every user
    /// literal to its parsed value, so it is the unparse of `user_expr`.
    code: OnceLock<Arc<CodeText>>,
}

impl Program {
    /// Parses user source against the standard Prelude.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the user source is malformed.
    pub fn parse(user_src: &str) -> Result<Program, ParseError> {
        let prelude = prelude_template();
        let user = parse_with_locs(user_src, prelude.next_loc)?;
        Ok(Self::assemble(
            Arc::clone(&prelude.expr),
            prelude.next_loc,
            Arc::clone(&prelude.loc_info),
            prelude.rho0.clone(),
            user.expr,
            user.next_loc,
        ))
    }

    fn assemble(
        prelude_expr: Arc<Expr>,
        prelude_next_loc: u32,
        prelude_info: Arc<LocTable>,
        mut rho0: Subst,
        user_expr: Expr,
        next_loc: u32,
    ) -> Program {
        rho0.extend(program_subst(&user_expr).iter());
        Program {
            user_info: Arc::new(loc_table(&user_expr, false)),
            prelude_expr,
            user_expr: Arc::new(user_expr),
            prelude_next_loc,
            next_loc,
            prelude_info,
            limits: Limits::default(),
            rho0,
            code: OnceLock::new(),
        }
    }

    /// Every location's metadata, the Prelude's first, in no particular
    /// order within each half.
    fn loc_infos(&self) -> impl Iterator<Item = (LocId, &LocInfo)> {
        self.prelude_info
            .iter()
            .chain(self.user_info.iter())
            .map(|(l, i)| (*l, i))
    }

    /// Overrides the evaluation resource limits.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// The evaluation resource limits.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// The user-program AST (excluding the Prelude). Its literals hold
    /// their values as parsed; [`Program::subst`] gives the current ones.
    pub fn user_expr(&self) -> &Expr {
        &self.user_expr
    }

    /// The Prelude AST, its literals holding their values as parsed.
    pub fn prelude_expr(&self) -> &Expr {
        &self.prelude_expr
    }

    /// One past the largest location id in use.
    pub fn next_loc(&self) -> u32 {
        self.next_loc
    }

    /// Whether `loc` belongs to the Prelude.
    pub fn is_prelude_loc(&self, loc: LocId) -> bool {
        loc.0 < self.prelude_next_loc
    }

    /// Metadata for a location, if it exists in the program.
    pub fn loc_info(&self, loc: LocId) -> Option<&LocInfo> {
        if self.is_prelude_loc(loc) {
            self.prelude_info.get(&loc)
        } else {
            self.user_info.get(&loc)
        }
    }

    /// Canonical display name for a location (`x0` / `sep` / `l17`).
    pub fn display_loc(&self, loc: LocId) -> String {
        self.loc_info(loc)
            .and_then(|i| i.name.clone())
            .unwrap_or_else(|| loc.to_string())
    }

    /// Whether the given freeze mode forbids changing `loc` (§2.2).
    pub fn is_frozen(&self, loc: LocId, mode: FreezeMode) -> bool {
        let Some(info) = self.loc_info(loc) else {
            // Unknown locations are conservatively frozen.
            return true;
        };
        match info.annotation {
            FreezeAnnotation::Frozen => true,
            FreezeAnnotation::Thawed => false,
            FreezeAnnotation::None => {
                (info.prelude && mode.prelude_frozen) || mode.all_except_thawed
            }
        }
    }

    /// A copy of [`Program::rho0`].
    pub fn subst(&self) -> Subst {
        self.rho0.clone()
    }

    /// The substitution ρ₀ recording the current value of every literal.
    pub fn rho0(&self) -> &Subst {
        &self.rho0
    }

    /// Applies a local update: rebinds in ρ₀ every location of `rho` the
    /// program has, the Prelude's included, and splices the code text and
    /// re-anchors its spans, so the next [`Program::code`] needs no
    /// unparse. The ASTs are not touched.
    pub fn apply_subst(&mut self, rho: &Subst) {
        let code = self.code_text().with_subst(rho);
        self.code = OnceLock::from(Arc::new(code));
        for (loc, v) in rho.iter() {
            if self.rho0.contains(loc) {
                self.rho0.insert(loc, v);
            }
        }
    }

    /// Returns a copy of the program with `rho` applied (the paper's `ρe`).
    pub fn with_subst(&self, rho: &Subst) -> Program {
        // Unparsed in `self`, the text is shared by every later copy.
        self.code_text();
        let mut p = self.clone();
        p.apply_subst(rho);
        p
    }

    /// The current user-program source text.
    pub fn code(&self) -> String {
        self.code_str().to_string()
    }

    /// [`Program::code`], borrowed from the cached text.
    pub fn code_str(&self) -> &str {
        &self.code_text().text
    }

    /// The user-program text as it reads after applying `rho` — equal to
    /// `self.with_subst(rho).code()`, but spliced from the cached text:
    /// only the literals `rho` binds are re-printed, and Prelude
    /// locations (absent from the user text) are skipped.
    pub fn code_with(&self, rho: &Subst) -> String {
        self.code_text().splice(rho, |_, _, _| {})
    }

    fn code_text(&self) -> &CodeText {
        self.code
            .get_or_init(|| Arc::new(CodeText::new(&self.user_expr)))
    }

    /// Evaluates the program: Prelude definitions first, then user code.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] from either Prelude or user evaluation.
    pub fn eval(&self) -> Result<Value, EvalError> {
        self.eval_traced().map(|o| o.value)
    }

    /// Evaluates the program and additionally reports which locations
    /// escaped the trace system (flowed into comparisons, `=`, `toString`,
    /// or numeric patterns). A substitution whose domain avoids every
    /// escaped location cannot change control flow, so the output of the
    /// updated program is obtainable by sweeping its traces
    /// ([`crate::TraceTape`]) instead of re-evaluation.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] from either Prelude or user evaluation.
    pub fn eval_traced(&self) -> Result<EvalOutcome, EvalError> {
        let mut ev = Evaluator::new(self.limits, &self.rho0);
        let env = extend_with_defs(&mut ev, Env::new(), &self.prelude_expr)?;
        let value = ev.eval(&env, &self.user_expr)?;
        Ok(EvalOutcome {
            value,
            escaped: ev.take_escaped(),
        })
    }

    /// All locations that carry a range annotation, i.e. requested sliders
    /// (§2.4), in location order.
    pub fn slider_locs(&self) -> Vec<(LocId, (f64, f64))> {
        let mut out: Vec<(LocId, (f64, f64))> = self
            .loc_infos()
            .filter_map(|(l, i)| i.range.map(|r| (l, r)))
            .collect();
        out.sort_by_key(|(l, _)| *l);
        out
    }
}

/// A program's evaluation result together with its escape record.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The program's output value.
    pub value: Value,
    /// Locations whose values escaped the trace system during evaluation
    /// (see [`Evaluator::escaped_locs`]).
    pub escaped: crate::escape::Escapes,
}

/// Evaluates a chain of `def`/`defrec` bindings into an environment,
/// stopping at the first non-`let` expression (the Prelude's end marker).
pub(crate) fn extend_with_defs(
    ev: &mut Evaluator,
    env: Env,
    expr: &Expr,
) -> Result<Env, EvalError> {
    let mut env = env;
    let mut cur = expr;
    while let Expr::Let {
        recursive,
        pat,
        bound,
        body,
        ..
    } = cur
    {
        let bound_v = ev.eval(&env, bound)?;
        let bound_v = if *recursive {
            match (pat, bound_v) {
                (Pat::Var(name), Value::Closure(c)) => Value::Closure(named_rec(c, name)),
                _ => return Err(EvalError::new("defrec requires a function")),
            }
        } else {
            bound_v
        };
        env = ev
            .match_pat_in(pat, &bound_v, &env)
            .ok_or_else(|| EvalError::new("def pattern does not match value"))?;
        cur = body;
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_parses_and_evaluates() {
        let p = Program::parse("(map (λ x (* x x)) (zeroTo 4))").unwrap();
        let v = p.eval().unwrap();
        let nums: Vec<f64> = v
            .to_vec()
            .unwrap()
            .iter()
            .map(|x| x.as_num().unwrap().0)
            .collect();
        assert_eq!(nums, vec![0.0, 1.0, 4.0, 9.0]);
    }

    /// The location metadata as every parse used to build it: both halves
    /// from scratch.
    fn rebuilt_loc_info(p: &Program) -> HashMap<LocId, LocInfo> {
        let mut info = HashMap::new();
        let mut names = loc_names(p.prelude_expr());
        names.extend(loc_names(p.user_expr()));
        for (expr, prelude) in [(p.prelude_expr(), true), (p.user_expr(), false)] {
            expr.walk(&mut |e| {
                if let Expr::Num(n) = e {
                    info.insert(
                        n.loc,
                        LocInfo {
                            name: names.get(&n.loc).cloned(),
                            annotation: n.annotation,
                            range: n.range,
                            prelude,
                        },
                    );
                }
            });
        }
        info
    }

    #[test]
    fn shared_prelude_loc_info_equals_a_fresh_rebuild_on_the_corpus() {
        for ex in sns_examples::ALL {
            let p = Program::parse(ex.source).unwrap();
            let want = rebuilt_loc_info(&p);
            let got: HashMap<LocId, LocInfo> = p.loc_infos().map(|(l, i)| (l, i.clone())).collect();
            assert_eq!(
                got.len(),
                p.loc_infos().count(),
                "{}: no duplicates",
                ex.slug
            );
            assert_eq!(got, want, "{}", ex.slug);
            for l in (0..p.next_loc() + 2).map(LocId) {
                assert_eq!(p.loc_info(l), want.get(&l), "{} {l}", ex.slug);
            }
        }
    }

    #[test]
    fn prelude_locations_are_frozen_by_default() {
        let p = Program::parse("1").unwrap();
        let mode = FreezeMode::default();
        // Location 0 is in the Prelude.
        assert!(p.is_frozen(LocId(0), mode));
        // The user's literal is not frozen.
        let user_loc = LocId(p.next_loc() - 1);
        assert!(!p.is_frozen(user_loc, mode));
        // Unless everything is frozen.
        assert!(p.is_frozen(user_loc, FreezeMode::all_except_thawed()));
    }

    #[test]
    fn explicit_annotations_override_modes() {
        let p = Program::parse("[1! 2?]").unwrap();
        let frozen = LocId(p.next_loc() - 2);
        let thawed = LocId(p.next_loc() - 1);
        assert!(p.is_frozen(frozen, FreezeMode::default()));
        assert!(!p.is_frozen(thawed, FreezeMode::all_except_thawed()));
    }

    #[test]
    fn nothing_frozen_mode_thaws_prelude() {
        let p = Program::parse("1").unwrap();
        assert!(!p.is_frozen(LocId(10), FreezeMode::nothing_frozen()));
    }

    #[test]
    fn apply_subst_updates_code() {
        let mut p = Program::parse("(def sep 30) (* 2 sep)").unwrap();
        let sep_loc = LocId(p.next_loc() - 2);
        assert_eq!(p.display_loc(sep_loc), "sep");
        let rho = Subst::from_pairs([(sep_loc, 52.5)]);
        p.apply_subst(&rho);
        assert_eq!(p.code(), "(def sep 52.5) (* 2 sep)");
        assert_eq!(p.eval().unwrap().as_num().unwrap().0, 105.0);
    }

    #[test]
    fn prelude_edits_stay_private_to_the_edited_program() {
        let mut p = Program::parse("(zeroTo 3)").unwrap();
        let snapshot = p.clone();
        let loc = LocId(0);
        let old = snapshot.subst().get(loc).unwrap();
        p.apply_subst(&Subst::from_pairs([(loc, old + 1000.0)]));
        assert_eq!(p.subst().get(loc), Some(old + 1000.0));
        // Neither the clone nor the shared template saw the write.
        assert_eq!(snapshot.subst().get(loc), Some(old));
        let fresh = Program::parse("(zeroTo 3)").unwrap();
        assert_eq!(fresh.subst().get(loc), Some(old));
        // The write went to ρ₀ alone: both programs still share the
        // template Prelude and the user AST.
        let template = &prelude_template().expr;
        assert!(Arc::ptr_eq(&p.prelude_expr, template));
        assert!(Arc::ptr_eq(&snapshot.prelude_expr, template));
        assert!(Arc::ptr_eq(&p.user_expr, &snapshot.user_expr));
    }

    #[test]
    fn code_with_splices_only_user_literals() {
        let p = Program::parse("(def [x y] [10 -2.5!{-5-5}]) (+ x (* y 3?))").unwrap();
        let y = LocId(p.next_loc() - 2);
        let rho = Subst::from_pairs([(LocId(0), 7.0), (y, 1234.75)]);
        assert_eq!(
            p.code_with(&rho),
            "(def [x y] [10 1234.75!{-5-5}]) (+ x (* y 3?))"
        );
        assert_eq!(p.code_with(&rho), p.with_subst(&rho).code());
        assert_eq!(p.code_with(&Subst::new()), p.code());
    }

    #[test]
    fn subst_on_prelude_loc_changes_library_behaviour() {
        // This is exactly why the Prelude is frozen by default: changing l
        // of `1` in `range` changes every program's loop stride.
        let p = Program::parse("(zeroTo 3)").unwrap();
        let v = p.eval().unwrap();
        assert_eq!(v.to_vec().unwrap().len(), 3);
    }

    #[test]
    fn slider_locs_reports_ranges() {
        let p = Program::parse("(def n 12!{3-30}) n").unwrap();
        let sliders = p.slider_locs();
        assert_eq!(sliders.len(), 1);
        assert_eq!(sliders[0].1, (3.0, 30.0));
    }

    #[test]
    fn nstar_produces_polygon() {
        let p = Program::parse("(nStar 'gold' 'black' 2 6 50 20 0 100 100)").unwrap();
        let v = p.eval().unwrap();
        let node = v.to_vec().unwrap();
        assert_eq!(node[0].as_str(), Some("polygon"));
    }

    #[test]
    fn sliders_return_value_and_ghost_shapes() {
        let p = Program::parse("(numSlider 50 200 30 0 5 'n = ' 3.25)").unwrap();
        let pair = p.eval().unwrap().to_vec().unwrap();
        assert_eq!(pair[0].as_num().unwrap().0, 3.25);
        let shapes = pair[1].to_vec().unwrap();
        assert_eq!(shapes.len(), 5);
    }

    #[test]
    fn int_slider_rounds() {
        let p = Program::parse("(fst (intSlider 50 200 30 0 5 'i = ' 3.25))").unwrap();
        assert_eq!(p.eval().unwrap().as_num().unwrap().0, 3.0);
    }

    #[test]
    fn n_points_on_circle_matches_figure_4b() {
        // Index 0 must sit at the top of the circle: (cx, cy - r).
        let p = Program::parse("(nPointsOnCircle 4 0 100 200 50)").unwrap();
        let pts = p.eval().unwrap().to_vec().unwrap();
        let p0 = pts[0].to_vec().unwrap();
        let (x, _) = p0[0].as_num().unwrap();
        let (y, _) = p0[1].as_num().unwrap();
        assert!((x - 100.0).abs() < 1e-9);
        assert!((y - 150.0).abs() < 1e-9);
    }

    #[test]
    fn mult_has_addition_only_trace() {
        let p = Program::parse("(mult 3 7)").unwrap();
        let (n, t) = p
            .eval()
            .unwrap()
            .as_num()
            .map(|(n, t)| (n, t.clone()))
            .unwrap();
        assert_eq!(n, 21.0);
        assert!(t.is_addition_only());
    }
}
