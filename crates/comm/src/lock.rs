//! The one lock of the comm layer: a `Mutex` that is only ever held for
//! the length of a closure, and never while another one is.
//!
//! [`Lock::with`] hands its closure `&mut T` and releases before it
//! returns, so no guard outlives a call or crosses a function boundary.
//! A thread-local records which `Lock` the thread holds, and taking a
//! second one panics, naming both. One lock at a time rules out every
//! lock-order cycle on every path a run executes, a closure's callees
//! included. The check is always on: the socket suites and the
//! benchmark run in release mode.
//!
//! A poisoned lock is recovered: no closure here leaves its value
//! half-updated when it panics, and the diagnostic state must stay
//! readable precisely when some rank has panicked.

#![allow(
    clippy::disallowed_types,
    reason = "`Lock` wraps the crate's one raw `Mutex`; clippy.toml refuses it everywhere else"
)]

use std::cell::Cell;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

thread_local! {
    /// The name of the [`Lock`] this thread holds, if any.
    static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Marks `name` held on this thread until dropped, unwinding included.
struct Held;

impl Held {
    fn enter(name: &'static str) -> Held {
        HELD.with(|held| {
            if let Some(outer) = held.get() {
                panic!("lock `{name}` taken while `{outer}` is held: comm locks are never nested");
            }
            held.set(Some(name));
        });
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(None));
    }
}

/// A named `Mutex` whose value is reached only through a closure.
#[derive(Debug)]
pub(crate) struct Lock<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> Lock<T> {
    /// `value` behind a lock called `name` in nesting reports.
    pub(crate) fn new(name: &'static str, value: T) -> Self {
        Lock {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Run `f` on the value with the lock held. Panics if this thread
    /// already holds a `Lock`.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _held = Held::enter(self.name);
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Run `ready` on the value; when it returns `None`, wait on `cv` for
    /// at most `tick` and run it once more. The lock is held throughout,
    /// except while waiting, so a notification sent after the first
    /// check is never missed.
    pub(crate) fn wait_tick<R>(
        &self,
        cv: &Condvar,
        tick: Duration,
        mut ready: impl FnMut(&mut T) -> Option<R>,
    ) -> Option<R> {
        let _held = Held::enter(self.name);
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(r) = ready(&mut guard) {
            return Some(r);
        }
        guard = match cv.wait_timeout(guard, tick) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
        ready(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn nested_with_panics_and_names_both_locks() {
        let outer = Lock::new("outer.slots", 1);
        let inner = Lock::new("inner.abort", 2);
        let got = catch_unwind(AssertUnwindSafe(|| {
            outer.with(|_| inner.with(|v| *v));
        }));
        let msg = panic_text(&*got.expect_err("a nested lock must panic"));
        assert!(msg.contains("inner.abort"), "{msg}");
        assert!(msg.contains("outer.slots"), "{msg}");
        // Re-entering the same lock is nesting too (std's Mutex would
        // deadlock instead).
        let got = catch_unwind(AssertUnwindSafe(|| outer.with(|_| outer.with(|v| *v))));
        assert!(panic_text(&*got.expect_err("re-entry must panic")).contains("outer.slots"));
    }

    #[test]
    fn a_panic_inside_with_leaves_the_thread_able_to_lock_again() {
        let a = Lock::new("a", vec![1]);
        let b = Lock::new("b", 0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            a.with(|v| {
                v.push(2);
                panic!("boom");
            })
        }));
        assert_eq!(panic_text(&*got.expect_err("the closure panics")), "boom");
        // Neither lock reads as held, and the poisoned value is recovered.
        assert_eq!(b.with(|v| *v), 0);
        assert_eq!(a.with(|v| v.clone()), [1, 2]);
    }
}
