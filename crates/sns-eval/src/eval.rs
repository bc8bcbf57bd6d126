//! The big-step, trace-instrumented evaluator (Figure 2's `e ⇓ v`).
//!
//! The single non-standard rule is E-OP-NUM: when a primitive operation is
//! applied to numbers `n1^t1 … nm^tm`, the result is `n^t` where
//! `n = ⟦(opm n1 … nm)⟧` and `t = (opm t1 … tm)` — evaluation computes the
//! value *and* grows the trace in parallel.
//!
//! Besides values, the evaluator records which locations *escape* the trace
//! system: locations whose numbers flow into comparisons, structural
//! equality, `toString`, or numeric literal patterns. Those are exactly the
//! sinks where a number can influence *control flow* (or a string), so a
//! substitution that avoids every escaped location is guaranteed to leave
//! the program's control flow — and hence its output structure and traces —
//! unchanged. The incremental re-evaluation fast path
//! ([`crate::patch::TraceTape`]) is sound precisely on such substitutions.

use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use sns_lang::{Expr, NumLit, Op, Pat, Subst};

use crate::env::Env;
use crate::escape::{EscapeMarker, Escapes};
use crate::trace::Trace;
use crate::value::{Closure, Value};

/// An error raised during evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalError {
    /// Human-readable description.
    pub msg: String,
}

impl EvalError {
    /// Creates an evaluation error.
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { msg: msg.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.msg)
    }
}

impl Error for EvalError {}

/// Resource limits for evaluation, so runaway programs fail cleanly instead
/// of hanging the editor.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of expression-evaluation steps.
    pub max_steps: u64,
    /// Maximum recursion depth of the interpreter.
    pub max_depth: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 50_000_000,
            max_depth: 20_000,
        }
    }
}

/// Binds nothing: a default evaluator reads each literal's value from the
/// expression.
static NO_SUBST: Subst = Subst::new();

/// The evaluator. Holds resource counters and the substitution ρ₀ the
/// literals' values are read from; create one per program run.
#[derive(Debug)]
pub struct Evaluator<'r> {
    steps_left: u64,
    depth: u32,
    max_depth: u32,
    escaped: EscapeMarker,
    rho0: &'r Subst,
    /// The value and trace of each literal evaluated so far, by location:
    /// ρ₀ is read once per location, and every number a literal evaluates
    /// to shares one leaf.
    leaves: Vec<Option<(f64, Arc<Trace>)>>,
}

/// Evaluated arguments of an application, a primitive or a list literal.
/// Up to two are held inline, so the common unary and binary cases
/// allocate no vector.
enum Args {
    Inline([Value; 2], usize),
    Heap(Vec<Value>),
}

impl Deref for Args {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            Args::Inline(vals, n) => &vals[..*n],
            Args::Heap(vals) => vals,
        }
    }
}

impl Args {
    /// Conses the arguments onto `tail`, last first.
    fn cons_onto(self, tail: Value) -> Value {
        let cons = |tail, head| Value::cons(head, tail);
        match self {
            Args::Inline(vals, n) => vals.into_iter().take(n).rev().fold(tail, cons),
            Args::Heap(vals) => vals.into_iter().rev().fold(tail, cons),
        }
    }
}

/// The closure `c` under the `letrec`/`defrec` name `name`. A closure no
/// one else holds yet (the λ just evaluated) is named in place.
pub(crate) fn named_rec(mut c: Rc<Closure>, name: &Arc<str>) -> Rc<Closure> {
    if let Some(unique) = Rc::get_mut(&mut c) {
        unique.rec_name = Some(Arc::clone(name));
        return c;
    }
    Rc::new(Closure {
        rec_name: Some(Arc::clone(name)),
        params: Arc::clone(&c.params),
        first_param: c.first_param,
        body: Arc::clone(&c.body),
        env: c.env.clone(),
    })
}

impl Default for Evaluator<'_> {
    fn default() -> Self {
        Evaluator::new(Limits::default(), &NO_SUBST)
    }
}

impl<'r> Evaluator<'r> {
    /// Creates an evaluator with the given resource limits that reads the
    /// value of each literal `rho0` binds from `rho0`, the program's ρ₀.
    pub fn new(limits: Limits, rho0: &'r Subst) -> Self {
        Evaluator {
            steps_left: limits.max_steps,
            depth: 0,
            max_depth: limits.max_depth,
            escaped: EscapeMarker::default(),
            rho0,
            leaves: Vec::new(),
        }
    }

    /// The locations whose values escaped the trace system during
    /// evaluation so far (see the module docs): flowing into a comparison,
    /// `=`, `toString`, or a numeric literal pattern. A substitution
    /// touching none of these cannot change control flow.
    pub fn escaped_locs(&self) -> &Escapes {
        self.escaped.escapes()
    }

    /// Consumes the evaluator, returning the escape record.
    pub fn take_escaped(self) -> Escapes {
        self.escaped.into_escapes()
    }

    /// Pattern matching that records trace escapes (numeric literal
    /// patterns observe the matched number's value). Use this instead of
    /// [`match_pat`] whenever the match happens *during* evaluation.
    pub fn match_pat_in(&mut self, pat: &Pat, value: &Value, env: &Env) -> Option<Env> {
        match_pat_escaping(pat, value, env, &mut self.escaped)
    }

    /// Evaluates `expr` in `env`.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on unbound variables, type mismatches,
    /// failed pattern matches, or exhausted resource limits.
    pub fn eval(&mut self, env: &Env, expr: &Expr) -> Result<Value, EvalError> {
        self.steps_left = self
            .steps_left
            .checked_sub(1)
            .filter(|_| self.steps_left > 0)
            .ok_or_else(|| EvalError::new("evaluation step limit exceeded"))?;
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(EvalError::new("evaluation recursion limit exceeded"));
        }
        let result = self.eval_inner(env, expr);
        self.depth -= 1;
        result
    }

    fn eval_inner(&mut self, env: &Env, expr: &Expr) -> Result<Value, EvalError> {
        match expr {
            Expr::Num(n) => Ok(self.literal(n)),
            Expr::Str(s) => Ok(Value::Str(Arc::clone(s))),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(x) => env
                .lookup(x)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("unbound variable `{x}`"))),
            Expr::List(elems, tail) => {
                let items = self.eval_args(env, elems)?;
                let tail = match tail {
                    Some(t) => self.eval(env, t)?,
                    None => Value::Nil,
                };
                Ok(items.cons_onto(tail))
            }
            Expr::Lambda(params, body) => Ok(Value::Closure(Rc::new(Closure {
                rec_name: None,
                params: Arc::clone(params),
                first_param: 0,
                body: Arc::clone(body),
                env: env.clone(),
            }))),
            Expr::App(head, args) => {
                let f = self.eval(env, head)?;
                let vals = self.eval_args(env, args)?;
                self.apply(f, &vals)
            }
            Expr::Prim(op, args) => {
                let vals = self.eval_args(env, args)?;
                let result = eval_prim(*op, &vals)?;
                self.record_escapes(*op, &vals);
                Ok(result)
            }
            Expr::Let {
                recursive,
                pat,
                bound,
                body,
                ..
            } => {
                let bound_v = self.eval(env, bound)?;
                let bound_v = if *recursive {
                    match (&pat, bound_v) {
                        (Pat::Var(name), Value::Closure(c)) => Value::Closure(named_rec(c, name)),
                        (Pat::Var(_), other) => {
                            return Err(EvalError::new(format!(
                                "letrec requires a function, found {}",
                                other.kind_name()
                            )))
                        }
                        _ => {
                            return Err(EvalError::new(
                                "letrec requires a variable pattern".to_string(),
                            ))
                        }
                    }
                } else {
                    bound_v
                };
                let env2 = self.match_pat_in(pat, &bound_v, env).ok_or_else(|| {
                    EvalError::new(format!(
                        "let pattern `{}` does not match value",
                        sns_lang::unparse_pat(pat)
                    ))
                })?;
                self.eval(&env2, body)
            }
            Expr::If(c, t, e) => match self.eval(env, c)? {
                Value::Bool(true) => self.eval(env, t),
                Value::Bool(false) => self.eval(env, e),
                other => Err(EvalError::new(format!(
                    "if condition must be a boolean, found {}",
                    other.kind_name()
                ))),
            },
            Expr::Case(scrut, branches) => {
                let v = self.eval(env, scrut)?;
                for (p, e) in branches {
                    if let Some(env2) = self.match_pat_in(p, &v, env) {
                        return self.eval(&env2, e);
                    }
                }
                Err(EvalError::new(format!("no case branch matched value {v}")))
            }
        }
    }

    /// The number literal `n` evaluates to: its value in ρ₀, traced by
    /// its location's shared leaf.
    fn literal(&mut self, n: &NumLit) -> Value {
        let slot = n.loc.0 as usize;
        if self.leaves.len() <= slot {
            self.leaves.resize(slot + 1, None);
        }
        let rho0 = self.rho0;
        let (value, leaf) = self.leaves[slot]
            .get_or_insert_with(|| (rho0.get(n.loc).unwrap_or(n.value), Trace::loc(n.loc)));
        Value::Num(*value, Arc::clone(leaf))
    }

    /// Evaluates `exprs` left to right.
    fn eval_args(&mut self, env: &Env, exprs: &[Expr]) -> Result<Args, EvalError> {
        if exprs.len() > 2 {
            return exprs
                .iter()
                .map(|e| self.eval(env, e))
                .collect::<Result<_, _>>()
                .map(Args::Heap);
        }
        let mut vals = [Value::Nil, Value::Nil];
        for (slot, e) in vals.iter_mut().zip(exprs) {
            *slot = self.eval(env, e)?;
        }
        Ok(Args::Inline(vals, exprs.len()))
    }

    /// Records trace escapes for one primitive application, *after* it
    /// succeeded: a comparison observes its operands' traces, `=` and
    /// `toString` every traced number inside their arguments.
    fn record_escapes(&mut self, op: Op, args: &[Value]) {
        match op {
            Op::Lt | Op::Gt | Op::Le | Op::Ge => {
                if let (Some((_, lhs)), Some((_, rhs))) = (args[0].as_num(), args[1].as_num()) {
                    self.escaped.mark_trace(lhs);
                    self.escaped.mark_trace(rhs);
                }
            }
            Op::Eq | Op::ToString => {
                for v in args {
                    self.escaped.mark_value(v);
                }
            }
            _ => {}
        }
    }

    /// Applies a closure to arguments, currying: missing arguments yield a
    /// partial closure, extra arguments are applied to the result.
    pub fn apply(&mut self, f: Value, args: &[Value]) -> Result<Value, EvalError> {
        let Value::Closure(clos) = f else {
            return Err(EvalError::new(format!(
                "cannot apply a {} as a function",
                f.kind_name()
            )));
        };
        let mut env = clos.env.clone();
        if let Some(name) = &clos.rec_name {
            env = env.bind(Arc::clone(name), Value::Closure(Rc::clone(&clos)));
        }
        let params = clos.remaining_params();
        let n = args.len().min(params.len());
        for (p, v) in params[..n].iter().zip(args) {
            env = self.match_pat_in(p, v, &env).ok_or_else(|| {
                EvalError::new(format!(
                    "argument does not match parameter pattern `{}`",
                    sns_lang::unparse_pat(p)
                ))
            })?;
        }
        if n < params.len() {
            // Partial application: capture bound arguments, keep the rest.
            return Ok(Value::Closure(Rc::new(Closure {
                rec_name: None,
                params: Arc::clone(&clos.params),
                first_param: clos.first_param + n,
                body: Arc::clone(&clos.body),
                env,
            })));
        }
        let result = self.eval(&env, &clos.body)?;
        if n == args.len() {
            Ok(result)
        } else {
            self.apply(result, &args[n..])
        }
    }
}

/// Pattern matching: returns `env` extended with the pattern's binders, or
/// `None` if the value does not match. Does not record trace escapes; use
/// [`Evaluator::match_pat_in`] during evaluation.
pub fn match_pat(pat: &Pat, value: &Value, env: &Env) -> Option<Env> {
    let mut scratch = EscapeMarker::default();
    match_pat_escaping(pat, value, env, &mut scratch)
}

/// Pattern matching that additionally records locations observed by numeric
/// literal patterns into `escaped` (a numeric pattern branches on the
/// matched number's value, so its trace locations escape).
fn match_pat_escaping(
    pat: &Pat,
    value: &Value,
    env: &Env,
    escaped: &mut EscapeMarker,
) -> Option<Env> {
    match pat {
        Pat::Var(x) => Some(env.bind(Arc::clone(x), value.clone())),
        Pat::Num(n) => match value {
            Value::Num(m, t) => {
                escaped.mark_trace(t);
                (m == n).then(|| env.clone())
            }
            _ => None,
        },
        Pat::Str(s) => match value {
            Value::Str(t) if &**t == s.as_str() => Some(env.clone()),
            _ => None,
        },
        Pat::Bool(b) => match value {
            Value::Bool(c) if c == b => Some(env.clone()),
            _ => None,
        },
        Pat::List(ps, tail) => {
            let mut cur = value;
            let mut env = env.clone();
            for p in ps {
                let Value::Cons(cell) = cur else {
                    return None;
                };
                env = match_pat_escaping(p, &cell.0, &env, escaped)?;
                cur = &cell.1;
            }
            match tail {
                Some(tp) => match_pat_escaping(tp, cur, &env, escaped),
                None => match cur {
                    Value::Nil => Some(env),
                    _ => None,
                },
            }
        }
    }
}

/// Applies a purely numeric primitive to already-unwrapped arguments;
/// `None` when `op`/arity is not a number→number operation.
///
/// This is the single source of truth for numeric semantics: rule E-OP-NUM
/// in [`eval_prim`] and trace re-evaluation in
/// [`crate::patch::TraceTape`] both call it, so a patched number is
/// bit-identical to what a from-scratch re-evaluation would produce.
pub fn apply_num_op(op: Op, args: &[f64]) -> Option<f64> {
    use Op::*;
    Some(match (op, args) {
        (Pi, []) => std::f64::consts::PI,
        (Cos, [a]) => a.cos(),
        (Sin, [a]) => a.sin(),
        (ArcCos, [a]) => a.acos(),
        (ArcSin, [a]) => a.asin(),
        (Round, [a]) => a.round(),
        (Floor, [a]) => a.floor(),
        (Ceiling, [a]) => a.ceil(),
        (Sqrt, [a]) => a.sqrt(),
        (Add, [a, b]) => a + b,
        (Sub, [a, b]) => a - b,
        (Mul, [a, b]) => a * b,
        (Div, [a, b]) => a / b,
        (Mod, [a, b]) => a % b,
        (Pow, [a, b]) => a.powf(*b),
        (ArcTan2, [a, b]) => a.atan2(*b),
        _ => return None,
    })
}

/// Evaluates a primitive operation (rule E-OP-NUM and friends).
///
/// Numeric operations on numbers build traces; `+` doubles as string
/// concatenation; comparisons yield booleans (no trace); `toString` renders
/// any value.
///
/// # Errors
///
/// Returns an [`EvalError`] when argument shapes do not fit the operation
/// (e.g. `(cos 'hi')`).
pub fn eval_prim(op: Op, args: &[Value]) -> Result<Value, EvalError> {
    use Op::*;
    let num = |i: usize| -> Result<(f64, Arc<Trace>), EvalError> {
        args[i]
            .as_num()
            .map(|(n, t)| (n, Arc::clone(t)))
            .ok_or_else(|| {
                EvalError::new(format!(
                    "`{}` expects a number for argument {}, found {}",
                    op.name(),
                    i + 1,
                    args[i].kind_name()
                ))
            })
    };
    match op {
        Pi => Ok(Value::Num(
            apply_num_op(Pi, &[]).expect("pi is numeric"),
            Trace::op(Pi, []),
        )),
        Cos | Sin | ArcCos | ArcSin | Round | Floor | Ceiling | Sqrt => {
            let (n, t) = num(0)?;
            let r = apply_num_op(op, &[n]).expect("unary numeric op");
            Ok(Value::Num(r, Trace::op(op, [t])))
        }
        Add => match (&args[0], &args[1]) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => {
                let (a, ta) = num(0)?;
                let (b, tb) = num(1)?;
                let r = apply_num_op(Add, &[a, b]).expect("binary numeric op");
                Ok(Value::Num(r, Trace::op(Add, [ta, tb])))
            }
        },
        Sub | Mul | Div | Mod | Pow | ArcTan2 => {
            let (a, ta) = num(0)?;
            let (b, tb) = num(1)?;
            let r = apply_num_op(op, &[a, b]).expect("binary numeric op");
            Ok(Value::Num(r, Trace::op(op, [ta, tb])))
        }
        Lt | Gt | Le | Ge => {
            let (a, _) = num(0)?;
            let (b, _) = num(1)?;
            Ok(Value::Bool(match op {
                Lt => a < b,
                Gt => a > b,
                Le => a <= b,
                _ => a >= b,
            }))
        }
        Eq => Ok(Value::Bool(args[0].structurally_eq(&args[1]))),
        Not => match &args[0] {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::new(format!(
                "`not` expects a boolean, found {}",
                other.kind_name()
            ))),
        },
        ToString => Ok(match &args[0] {
            Value::Str(s) => Value::Str(Arc::clone(s)),
            other => Value::str(other.to_string()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_lang::{parse, LocId};

    fn run(src: &str) -> Result<Value, EvalError> {
        let p = parse(src).expect("parse");
        Evaluator::default().eval(&Env::new(), &p.expr)
    }

    fn run_num(src: &str) -> f64 {
        run(src).unwrap().as_num().unwrap().0
    }

    #[test]
    fn arithmetic_and_traces() {
        let v = run("(+ 50 (* 2 30))").unwrap();
        let (n, t) = v.as_num().unwrap();
        assert_eq!(n, 110.0);
        assert_eq!(t.to_string(), "(+ l0 (* l1 l2))");
    }

    #[test]
    fn let_and_lambda() {
        assert_eq!(run_num("(let f (λ x (* x x)) (f 7))"), 49.0);
        assert_eq!(run_num("((λ(a b) (- a b)) 10 4)"), 6.0);
    }

    #[test]
    fn partial_application_is_supported() {
        assert_eq!(
            run_num("(let add (λ(a b) (+ a b)) (let inc (add 1) (inc 41)))"),
            42.0
        );
    }

    #[test]
    fn letrec_factorial() {
        assert_eq!(
            run_num("(letrec fac (λ n (if (< n 1) 1 (* n (fac (- n 1))))) (fac 5))"),
            120.0
        );
    }

    #[test]
    fn defrec_range_builds_list() {
        let v = run("(defrec range (λ(i j) (if (> i j) [] [i|(range (+ 1 i) j)]))) (range 0 3)")
            .unwrap();
        let items = v.to_vec().unwrap();
        let nums: Vec<f64> = items.iter().map(|v| v.as_num().unwrap().0).collect();
        assert_eq!(nums, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn trace_of_range_elements_matches_paper() {
        // Paper §2.1: the i-th index has trace (+ ℓ1 (+ ℓ1 … ℓ0)).
        let v = run("(defrec range (λ(i j) (if (> i j) [] [i|(range (+ 1 i) j)]))) (range 0 2)")
            .unwrap();
        let items = v.to_vec().unwrap();
        let traces: Vec<String> = items
            .iter()
            .map(|v| v.as_num().unwrap().1.to_string())
            .collect();
        // l0 is `1` in range, l1 is the `0` argument, l2 is the `2` argument.
        assert_eq!(traces, vec!["l1", "(+ l0 l1)", "(+ l0 (+ l0 l1))"]);
    }

    #[test]
    fn case_matching() {
        assert_eq!(run_num("(case [1 2] ([] 0) ([x|r] x))"), 1.0);
        assert_eq!(run_num("(case [] ([] 7) ([x|r] x))"), 7.0);
        assert_eq!(run_num("(case [1 2] ([a b] (+ a b)))"), 3.0);
    }

    #[test]
    fn string_concat_and_tostring() {
        let v = run("(+ 'n = ' (toString 3.5))").unwrap();
        assert_eq!(v.as_str(), Some("n = 3.5"));
    }

    #[test]
    fn comparisons_and_equality() {
        assert_eq!(run("(< 1 2)").unwrap().as_bool(), Some(true));
        assert_eq!(run("(= 'a' 'a')").unwrap().as_bool(), Some(true));
        assert_eq!(run("(= [1 2] [1 2])").unwrap().as_bool(), Some(true));
        assert_eq!(run("(= [1 2] [1 3])").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn unbound_variable_errors() {
        let err = run("nope").unwrap_err();
        assert!(err.msg.contains("unbound"));
    }

    #[test]
    fn if_requires_boolean() {
        assert!(run("(if 1 2 3)").is_err());
    }

    #[test]
    fn no_matching_branch_errors() {
        assert!(run("(case 5 ([] 0))").is_err());
    }

    #[test]
    fn step_limit_stops_infinite_recursion() {
        let p = parse("(letrec spin (λ n (spin n)) (spin 0))").unwrap();
        let limits = Limits {
            max_steps: 10_000,
            max_depth: 1_000_000,
        };
        let mut ev = Evaluator::new(limits, &NO_SUBST);
        let err = ev.eval(&Env::new(), &p.expr).unwrap_err();
        assert!(err.msg.contains("limit"));
    }

    #[test]
    fn depth_limit_stops_deep_recursion() {
        let p = parse("(letrec f (λ n (if (< n 1) 0 (+ 1 (f (- n 1))))) (f 100000))").unwrap();
        let limits = Limits {
            max_steps: u64::MAX - 1,
            max_depth: 5_000,
        };
        let mut ev = Evaluator::new(limits, &NO_SUBST);
        assert!(ev.eval(&Env::new(), &p.expr).is_err());
    }

    #[test]
    fn comparisons_escape_their_inputs_but_arithmetic_does_not() {
        let p = parse("(if (< 1 10) (+ 2 0) 3)").unwrap();
        let mut ev = Evaluator::default();
        ev.eval(&Env::new(), &p.expr).unwrap();
        let escaped: Vec<u32> = ev.escaped_locs().iter().map(|l| l.0).collect();
        // Only the comparison's inputs (the `1` and the `10`) escape; the
        // branch arithmetic stays inside the trace system.
        assert_eq!(escaped, vec![0, 1]);
    }

    #[test]
    fn numeric_patterns_escape_the_scrutinee() {
        let p = parse("(case (+ 1 2) (3 'yes') (_ 'no'))").unwrap();
        let mut ev = Evaluator::default();
        let v = ev.eval(&Env::new(), &p.expr).unwrap();
        assert_eq!(v.as_str(), Some("yes"));
        let escaped: Vec<u32> = ev.escaped_locs().iter().map(|l| l.0).collect();
        assert_eq!(escaped, vec![0, 1]);
    }

    #[test]
    fn tostring_and_eq_escape() {
        let p = parse("(+ (toString 5) (toString (= 6 7)))").unwrap();
        let mut ev = Evaluator::default();
        ev.eval(&Env::new(), &p.expr).unwrap();
        assert_eq!(ev.escaped_locs().len(), 3);
    }

    /// Evaluates `src` under the Prelude and returns the escaped set with
    /// each trace node marked once, and the set the tree walk marks.
    fn escape_sets(src: &str) -> (Vec<LocId>, Vec<LocId>) {
        let program = crate::Program::parse(src).unwrap();
        let mut ev = Evaluator::default();
        let env =
            crate::program::extend_with_defs(&mut ev, Env::new(), program.prelude_expr()).unwrap();
        ev.eval(&env, program.user_expr()).unwrap();
        let memoized = ev.escaped_locs().iter().copied().collect();
        let tree_walk = ev.escaped.tree_walk.iter().copied().collect();
        (memoized, tree_walk)
    }

    #[test]
    fn escape_marking_matches_the_tree_walk_on_the_corpus() {
        for ex in sns_examples::ALL {
            let (memoized, tree_walk) = escape_sets(ex.source);
            assert_eq!(memoized, tree_walk, "{}", ex.slug);
        }
    }

    #[test]
    fn escape_marking_matches_the_tree_walk_on_deep_counter_loops() {
        // Counters whose traces grow by a node per iteration, compared on
        // every iteration, nested and shared between loops; deterministic
        // sizes and literals (SplitMix64).
        let mut state = 0x5eed_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        for _ in 0..8 {
            let (n, k, step, inner) = (100 + next(200), next(50), 1 + next(3), 1 + next(6));
            let src = format!(
                "(defrec count (λ(i j acc) (if (> i j) acc (count (+ i {step}) j (+ acc i))))) \
                 (def total (count 0 {n} 0)) \
                 (map (λ i (if (< (+ i {k}) (mod total 97)) \
                              (count i (+ i {inner}) 0) \
                              (toString [i (* i 2)]))) \
                      (range {k} (+ {k} {n})))"
            );
            let (memoized, tree_walk) = escape_sets(&src);
            assert!(!memoized.is_empty(), "{src}");
            assert_eq!(memoized, tree_walk, "{src}");
        }
    }

    #[test]
    fn apply_num_op_rejects_non_numeric_shapes() {
        assert_eq!(apply_num_op(Op::Lt, &[1.0, 2.0]), None);
        assert_eq!(apply_num_op(Op::Add, &[1.0]), None);
        assert_eq!(apply_num_op(Op::Add, &[1.0, 2.0]), Some(3.0));
    }

    #[test]
    fn pi_has_trace() {
        let v = run("(* 2 (pi))").unwrap();
        let (n, t) = v.as_num().unwrap();
        assert!((n - std::f64::consts::TAU).abs() < 1e-12);
        assert_eq!(t.to_string(), "(* l0 (pi))");
    }
}
