//! Persistent evaluation environments.
//!
//! Environments are immutable linked frames shared via `Rc`, so extending an
//! environment for a `let` body or a closure capture is O(1) and never
//! mutates the parent. This is what makes closures cheap in the interpreter
//! and keeps re-evaluation fast during live synchronization.
//!
//! Frames are evaluation-local: they live only as long as the closures and
//! environments of one evaluation on one thread, so their reference counts
//! are plain, not atomic. Only the binding names are `Arc<str>`, because
//! they are shared with the AST.

use std::rc::Rc;
use std::sync::Arc;

use crate::value::Value;

/// A persistent environment mapping names to values.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<Frame>>);

#[derive(Debug)]
struct Frame {
    name: Arc<str>,
    value: Value,
    parent: Env,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env(None)
    }

    /// Returns a new environment with `name` bound to `value`; the receiver
    /// is unchanged. Binding a name shared with the AST allocates only the
    /// frame.
    pub fn bind(&self, name: impl Into<Arc<str>>, value: Value) -> Env {
        Env(Some(Rc::new(Frame {
            name: name.into(),
            value,
            parent: self.clone(),
        })))
    }

    /// Looks up the innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        let mut cur = self;
        while let Env(Some(frame)) = cur {
            if *frame.name == *name {
                return Some(&frame.value);
            }
            cur = &frame.parent;
        }
        None
    }

    /// Number of frames (bindings, including shadowed ones).
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Env(Some(frame)) = cur {
            n += 1;
            cur = &frame.parent;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_innermost() {
        let env = Env::new()
            .bind("x", Value::Bool(false))
            .bind("x", Value::Bool(true));
        assert_eq!(env.lookup("x").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn binding_does_not_mutate_parent() {
        let base = Env::new().bind("x", Value::Bool(true));
        let _child = base.bind("y", Value::Bool(false));
        assert!(base.lookup("y").is_none());
        assert_eq!(base.depth(), 1);
    }

    #[test]
    fn missing_name_is_none() {
        assert!(Env::new().lookup("nope").is_none());
    }
}
