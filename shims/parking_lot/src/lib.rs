//! Offline shim for the `parking_lot` crate (see `shims/README.md`).
//!
//! Wraps `std::sync` primitives with parking_lot's non-poisoning API:
//! `lock()`/`read()`/`write()` return guards directly instead of
//! `LockResult`s, and a poisoned lock (a panic while holding it) is
//! simply re-entered, matching parking_lot semantics.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock with `parking_lot`'s panic-transparent API.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
///
/// Holds an `Option` internally so [`Condvar::wait_for`] can temporarily
/// hand the inner std guard to `std::sync::Condvar` and put it back.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Returns a mutable reference to the underlying data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<'a, T: ?Sized> Deref for MutexGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard holds the lock")
    }
}

impl<'a, T: ?Sized> DerefMut for MutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard holds the lock")
    }
}

/// A reader-writer lock with `parking_lot`'s panic-transparent API.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

// Debug-only, thread-local count of `RwLock` acquisitions (`read` +
// `write`), mirroring `cc_primitives::fnv::key_hash_count`.
//
// This is a **shim-only extension** (the real `parking_lot` has no such
// counter — see `shims/README.md`): tests assert that hot paths claimed
// to be RwLock-free really acquire zero reader-writer locks, by reading
// the counter before and after the operation under test. Compiled out of
// release builds entirely.
#[cfg(debug_assertions)]
thread_local! {
    static RWLOCK_ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Returns this thread's running count of `RwLock::read`/`RwLock::write`
/// acquisitions. Debug builds only; see `RWLOCK_ACQUISITIONS`.
#[cfg(debug_assertions)]
pub fn rwlock_acquisition_count() -> u64 {
    RWLOCK_ACQUISITIONS.with(|c| c.get())
}

#[cfg(debug_assertions)]
fn note_rwlock_acquisition() {
    RWLOCK_ACQUISITIONS.with(|c| c.set(c.get() + 1));
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn note_rwlock_acquisition() {}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access, blocking until available.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        note_rwlock_acquisition();
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access, blocking until available.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        note_rwlock_acquisition();
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns a mutable reference to the underlying data without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Result of a timed [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable compatible with the shim [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Blocks on the guard's mutex until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard holds the lock");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// Blocks on the guard's mutex until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard holds the lock");
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r.timed_out()),
            Err(poisoned) => {
                let (g, r) = poisoned.into_inner();
                (g, r.timed_out())
            }
        };
        guard.0 = Some(inner);
        WaitTimeoutResult { timed_out: result }
    }

    /// Wakes all threads blocked on this condition variable.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Wakes one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_times_out_and_wakes() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let result = cv.wait_for(&mut guard, Duration::from_millis(5));
        assert!(result.timed_out());
        drop(guard);

        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_all();
        });
        let mut done = pair.0.lock();
        while !*done {
            pair.1.wait_for(&mut done, Duration::from_millis(50));
        }
        drop(done);
        handle.join().unwrap();
    }
}
