//! Zero-cost release-mode wrappers.
//!
//! In builds without `debug_assertions` or `--cfg ecpipe_sync_check`, the
//! sync wrappers are thin newtypes over the parking_lot shim: the
//! [`LockClass`] argument is dropped at construction, no held-set or graph
//! bookkeeping exists, and every method is an `#[inline]` forward. The
//! `release_wrappers_are_zero_cost` integration test pins the size claim.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

use crate::LockClass;

/// Mutual exclusion; the class tag is compile-time only in this build.
pub struct Mutex<T: ?Sized> {
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex. The class is unused in release builds.
    #[inline]
    pub fn new(_class: &'static LockClass, value: T) -> Self {
        Mutex {
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock(),
        }
    }

    /// Acquires the lock only if no other guard holds it.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        Some(MutexGuard {
            inner: self.inner.try_lock()?,
        })
    }

    /// Mutable access without locking.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Reader-writer lock; the class tag is compile-time only in this build.
pub struct RwLock<T: ?Sized> {
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock. The class is unused in release builds.
    #[inline]
    pub fn new(_class: &'static LockClass, value: T) -> Self {
        RwLock {
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read(),
        }
    }

    /// Acquires exclusive write access.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write(),
        }
    }

    /// Mutable access without locking.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable whose only wait operations are predicate-guarded
/// (same API as the checked build; see that doc for rationale).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    #[inline]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks while `condition` returns `true`.
    #[inline]
    pub fn wait_while<'a, T, F>(&self, guard: MutexGuard<'a, T>, condition: F) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        MutexGuard {
            inner: self
                .inner
                .wait_while(guard.inner, condition)
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Like [`Condvar::wait_while`], but re-checks the condition at least
    /// every `tick` even without a notification.
    #[inline]
    pub fn wait_while_tick<'a, T, F>(
        &self,
        guard: MutexGuard<'a, T>,
        tick: Duration,
        mut condition: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        let mut raw = guard.inner;
        loop {
            if !condition(&mut *raw) {
                break;
            }
            let (g, _timed_out) = self
                .inner
                .wait_timeout_while(raw, tick, &mut condition)
                .unwrap_or_else(PoisonError::into_inner);
            raw = g;
        }
        MutexGuard { inner: raw }
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
