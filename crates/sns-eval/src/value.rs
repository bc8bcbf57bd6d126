//! Run-time values of `little` (Figure 2's `v`), with traced numbers.

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use sns_lang::{fmt_num, Expr, Pat};

use crate::env::Env;
use crate::trace::Trace;

/// A run-time value.
///
/// Lists are cons cells as in the paper's core language; [`Value::items`]
/// walks a proper list in place and [`Value::to_vec`] copies it into a
/// `Vec`.
///
/// A value is `!Send` and `!Sync`: its cons cells and closures (and the
/// environments closures capture) are shared by `Rc`, not `Arc`. They are
/// evaluation-local — built and dropped by one evaluation on one thread —
/// and an atomic reference count costs several times a plain one on every
/// clone and drop. What outlives an evaluation and crosses threads (a
/// canvas, a session) keeps only a value's numbers and their traces, and
/// [`Trace`]s stay `Arc`.
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<sns_eval::Value>();
/// ```
#[derive(Debug, Clone)]
pub enum Value {
    /// A number with its run-time trace (`nᵗ`).
    Num(f64, Arc<Trace>),
    /// A string.
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
    /// The empty list `[]`.
    Nil,
    /// A cons cell `[v1|v2]`: head and tail in one allocation.
    Cons(Rc<(Value, Value)>),
    /// A function closure.
    Closure(Rc<Closure>),
}

/// A function closure: parameters, body, captured environment, and — for
/// `letrec`-bound functions — the name under which the closure can refer to
/// itself.
#[derive(Debug)]
pub struct Closure {
    /// For recursive closures, the self-reference name bound at application.
    pub rec_name: Option<Arc<str>>,
    /// The λ's parameter patterns, shared with it (multi-parameter lambdas
    /// are applied curried).
    pub params: Arc<[Pat]>,
    /// How many leading parameters a partial application has already
    /// bound: the closure expects `params[first_param..]`.
    pub first_param: usize,
    /// The function body, shared with the λ it was evaluated from.
    pub body: Arc<Expr>,
    /// The captured environment.
    pub env: Env,
}

impl Closure {
    /// The parameters the closure still expects.
    pub fn remaining_params(&self) -> &[Pat] {
        &self.params[self.first_param..]
    }
}

impl Value {
    /// Builds a cons cell `[head|tail]`.
    pub fn cons(head: Value, tail: Value) -> Value {
        Value::Cons(Rc::new((head, tail)))
    }

    /// Builds a traced number.
    pub fn num(n: f64, t: Arc<Trace>) -> Value {
        Value::Num(n, t)
    }

    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a proper list from a vector of values.
    pub fn from_vec(items: Vec<Value>) -> Value {
        let mut out = Value::Nil;
        for v in items.into_iter().rev() {
            out = Value::cons(v, out);
        }
        out
    }

    /// The items of a proper cons list, by reference and in order; `None`
    /// if the value is not a nil-terminated list. The list is walked once
    /// up front to check it and count its items.
    pub fn items(&self) -> Option<Items<'_>> {
        let mut len = 0;
        let mut cur = self;
        loop {
            match cur {
                Value::Nil => return Some(Items { cur: self, len }),
                Value::Cons(cell) => {
                    len += 1;
                    cur = &cell.1;
                }
                _ => return None,
            }
        }
    }

    /// Converts a proper cons list to a vector; `None` if the value is not a
    /// nil-terminated list.
    pub fn to_vec(&self) -> Option<Vec<Value>> {
        self.items().map(|items| items.cloned().collect())
    }

    /// The number and trace, if this is a numeric value.
    pub fn as_num(&self) -> Option<(f64, &Arc<Trace>)> {
        match self {
            Value::Num(n, t) => Some((*n, t)),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A short name for the value's shape, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Num(..) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::Nil => "empty list",
            Value::Cons(..) => "list",
            Value::Closure(_) => "function",
        }
    }

    /// Structural equality ignoring traces; closures are never equal.
    /// This is the dynamic behaviour of the `=` primitive on lists and the
    /// basis of value-context comparison in the synthesis framework.
    pub fn structurally_eq(&self, other: &Value) -> bool {
        let (mut a, mut b) = (self, other);
        loop {
            return match (a, b) {
                (Value::Num(x, _), Value::Num(y, _)) => x == y,
                (Value::Str(x), Value::Str(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                (Value::Nil, Value::Nil) => true,
                (Value::Cons(x), Value::Cons(y)) => {
                    if !x.0.structurally_eq(&y.0) {
                        return false;
                    }
                    (a, b) = (&x.1, &y.1);
                    continue;
                }
                _ => false,
            };
        }
    }
}

/// The items of a proper list, borrowed from its cons cells
/// ([`Value::items`]).
#[derive(Debug, Clone)]
pub struct Items<'a> {
    cur: &'a Value,
    len: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        let Value::Cons(cell) = self.cur else {
            return None;
        };
        self.cur = &cell.1;
        self.len -= 1;
        Some(&cell.0)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for Items<'_> {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n, _) => f.write_str(&fmt_num(*n)),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Nil => f.write_str("[]"),
            Value::Cons(..) => {
                f.write_str("[")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Value::Cons(cell) => {
                            if !first {
                                f.write_str(" ")?;
                            }
                            write!(f, "{}", cell.0)?;
                            first = false;
                            cur = &cell.1;
                        }
                        Value::Nil => break,
                        other => {
                            write!(f, "|{other}")?;
                            break;
                        }
                    }
                }
                f.write_str("]")
            }
            Value::Closure(_) => f.write_str("<function>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_lang::LocId;

    #[test]
    fn vec_roundtrip() {
        let v = Value::from_vec(vec![
            Value::num(1.0, Trace::loc(LocId(0))),
            Value::str("a"),
            Value::Bool(true),
        ]);
        let back = v.to_vec().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].as_str(), Some("a"));
    }

    #[test]
    fn improper_list_is_not_a_vec() {
        let v = Value::cons(Value::Bool(true), Value::Bool(false));
        assert!(v.to_vec().is_none());
        assert!(v.items().is_none());
    }

    #[test]
    fn items_borrow_a_proper_list_in_order() {
        let v = Value::from_vec(vec![Value::str("a"), Value::Bool(true), Value::Nil]);
        let mut items = v.items().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items.next().unwrap().as_str(), Some("a"));
        assert_eq!(items.len(), 2);
        let rest: Vec<&str> = items.map(Value::kind_name).collect();
        assert_eq!(rest, ["boolean", "empty list"]);
        assert_eq!(Value::Nil.items().unwrap().len(), 0);
        assert!(Value::Bool(true).items().is_none());
    }

    #[test]
    fn display_list() {
        let v = Value::from_vec(vec![
            Value::num(1.0, Trace::loc(LocId(0))),
            Value::num(2.5, Trace::loc(LocId(1))),
        ]);
        assert_eq!(v.to_string(), "[1 2.5]");
    }

    #[test]
    fn structural_equality_ignores_traces() {
        let a = Value::num(3.0, Trace::loc(LocId(0)));
        let b = Value::num(3.0, Trace::loc(LocId(9)));
        assert!(a.structurally_eq(&b));
        assert!(!a.structurally_eq(&Value::Bool(true)));
    }
}
