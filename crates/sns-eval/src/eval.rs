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
use std::sync::Arc;

use sns_lang::{Expr, Op, Pat};

use crate::env::Env;
use crate::escape::Escapes;
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

/// The evaluator. Holds resource counters; create one per program run.
#[derive(Debug)]
pub struct Evaluator {
    steps_left: u64,
    depth: u32,
    max_depth: u32,
    escaped: Escapes,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new(Limits::default())
    }
}

impl Evaluator {
    /// Creates an evaluator with the given resource limits.
    pub fn new(limits: Limits) -> Self {
        Evaluator {
            steps_left: limits.max_steps,
            depth: 0,
            max_depth: limits.max_depth,
            escaped: Escapes::new(),
        }
    }

    /// The locations whose values escaped the trace system during
    /// evaluation so far (see the module docs): flowing into a comparison,
    /// `=`, `toString`, or a numeric literal pattern. A substitution
    /// touching none of these cannot change control flow.
    pub fn escaped_locs(&self) -> &Escapes {
        &self.escaped
    }

    /// Consumes the evaluator, returning the escape record.
    pub fn take_escaped(self) -> Escapes {
        self.escaped
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
            Expr::Num(n) => Ok(Value::Num(n.value, Trace::loc(n.loc))),
            Expr::Str(s) => Ok(Value::str(s.as_str())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Var(x) => env
                .lookup(x)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("unbound variable `{x}`"))),
            Expr::List(elems, tail) => {
                let mut items = Vec::with_capacity(elems.len());
                for e in elems {
                    items.push(self.eval(env, e)?);
                }
                let mut out = match tail {
                    Some(t) => self.eval(env, t)?,
                    None => Value::Nil,
                };
                for v in items.into_iter().rev() {
                    out = Value::Cons(Arc::new(v), Arc::new(out));
                }
                Ok(out)
            }
            Expr::Lambda(params, body) => Ok(Value::Closure(Arc::new(Closure {
                rec_name: None,
                params: params.clone(),
                body: Arc::clone(body),
                env: env.clone(),
            }))),
            Expr::App(head, args) => {
                let f = self.eval(env, head)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(env, a)?);
                }
                self.apply(f, vals)
            }
            Expr::Prim(op, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(env, a)?);
                }
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
                        (Pat::Var(name), Value::Closure(c)) => Value::Closure(Arc::new(Closure {
                            rec_name: Some(name.clone()),
                            params: c.params.clone(),
                            body: Arc::clone(&c.body),
                            env: c.env.clone(),
                        })),
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
    pub fn apply(&mut self, f: Value, args: Vec<Value>) -> Result<Value, EvalError> {
        let Value::Closure(clos) = f else {
            return Err(EvalError::new(format!(
                "cannot apply a {} as a function",
                f.kind_name()
            )));
        };
        let mut env = clos.env.clone();
        if let Some(name) = &clos.rec_name {
            env = env.bind(name.clone(), Value::Closure(Arc::clone(&clos)));
        }
        let n = args.len().min(clos.params.len());
        let mut args = args;
        let rest = args.split_off(n);
        for (p, v) in clos.params[..n].iter().zip(args) {
            env = self.match_pat_in(p, &v, &env).ok_or_else(|| {
                EvalError::new(format!(
                    "argument does not match parameter pattern `{}`",
                    sns_lang::unparse_pat(p)
                ))
            })?;
        }
        if n < clos.params.len() {
            // Partial application: capture bound arguments, keep the rest.
            return Ok(Value::Closure(Arc::new(Closure {
                rec_name: None,
                params: clos.params[n..].to_vec(),
                body: Arc::clone(&clos.body),
                env,
            })));
        }
        let result = self.eval(&env, &clos.body)?;
        if rest.is_empty() {
            Ok(result)
        } else {
            self.apply(result, rest)
        }
    }
}

/// Pattern matching: returns `env` extended with the pattern's binders, or
/// `None` if the value does not match. Does not record trace escapes; use
/// [`Evaluator::match_pat_in`] during evaluation.
pub fn match_pat(pat: &Pat, value: &Value, env: &Env) -> Option<Env> {
    let mut scratch = Escapes::new();
    match_pat_escaping(pat, value, env, &mut scratch)
}

/// Pattern matching that additionally records locations observed by numeric
/// literal patterns into `escaped` (a numeric pattern branches on the
/// matched number's value, so its trace locations escape).
pub fn match_pat_escaping(
    pat: &Pat,
    value: &Value,
    env: &Env,
    escaped: &mut Escapes,
) -> Option<Env> {
    match pat {
        Pat::Var(x) => Some(env.bind(x.clone(), value.clone())),
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
            let mut cur = value.clone();
            let mut env = env.clone();
            for p in ps {
                match cur {
                    Value::Cons(h, t) => {
                        env = match_pat_escaping(p, &h, &env, escaped)?;
                        cur = (*t).clone();
                    }
                    _ => return None,
                }
            }
            match tail {
                Some(tp) => match_pat_escaping(tp, &cur, &env, escaped),
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
            Trace::op(Pi, vec![]),
        )),
        Cos | Sin | ArcCos | ArcSin | Round | Floor | Ceiling | Sqrt => {
            let (n, t) = num(0)?;
            let r = apply_num_op(op, &[n]).expect("unary numeric op");
            Ok(Value::Num(r, Trace::op(op, vec![t])))
        }
        Add => match (&args[0], &args[1]) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => {
                let (a, ta) = num(0)?;
                let (b, tb) = num(1)?;
                let r = apply_num_op(Add, &[a, b]).expect("binary numeric op");
                Ok(Value::Num(r, Trace::op(Add, vec![ta, tb])))
            }
        },
        Sub | Mul | Div | Mod | Pow | ArcTan2 => {
            let (a, ta) = num(0)?;
            let (b, tb) = num(1)?;
            let r = apply_num_op(op, &[a, b]).expect("binary numeric op");
            Ok(Value::Num(r, Trace::op(op, vec![ta, tb])))
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
    use sns_lang::parse;

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
        let mut ev = Evaluator::new(Limits {
            max_steps: 10_000,
            max_depth: 1_000_000,
        });
        let err = ev.eval(&Env::new(), &p.expr).unwrap_err();
        assert!(err.msg.contains("limit"));
    }

    #[test]
    fn depth_limit_stops_deep_recursion() {
        let p = parse("(letrec f (λ n (if (< n 1) 0 (+ 1 (f (- n 1))))) (f 100000))").unwrap();
        let mut ev = Evaluator::new(Limits {
            max_steps: u64::MAX - 1,
            max_depth: 5_000,
        });
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
