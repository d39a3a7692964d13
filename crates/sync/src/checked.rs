//! Rank-checked lock wrappers (debug / `--cfg ecpipe_sync_check` builds).
//!
//! Same API as [`passthrough`](../passthrough.rs), but every acquisition is
//! validated against the acquiring thread's held set and the global
//! lock-order graph (see [`held`](crate::held)). Guards pop the held set on
//! drop; [`Condvar::wait_while`] releases the class for the duration of the
//! wait and re-checks on reacquisition.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::PoisonError;
use std::time::Duration;

use crate::{held, LockClass};

/// Mutual exclusion tagged with a [`LockClass`]; acquisition order is
/// checked in this build.
pub struct Mutex<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex belonging to `class`.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        Mutex {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock. Panics on a lock-order violation *before*
    /// blocking, so ordering bugs surface as panics rather than deadlocks.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        held::on_acquire(self.class, Location::caller());
        MutexGuard {
            class: self.class,
            inner: Some(self.inner.lock()),
        }
    }

    /// Acquires the lock only if no other guard holds it. An acquisition
    /// that succeeds is checked and recorded like [`Mutex::lock`]'s; one
    /// that fails leaves no trace, since it cannot wait.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let raw = self.inner.try_lock()?;
        held::on_acquire(self.class, Location::caller());
        Some(MutexGuard {
            class: self.class,
            inner: Some(raw),
        })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("class", &self.class.name())
            .finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releases the held-set entry on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    // `None` only transiently inside `Condvar` wait paths, which take the
    // raw guard out and defuse this guard's bookkeeping.
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken by condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken by condvar wait")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            held::on_release(self.class);
        }
    }
}

/// Reader-writer lock tagged with a [`LockClass`]; acquisition order is
/// checked in this build (read and write acquisitions are both ranked; a
/// thread may not hold two guards of the same class, even two readers,
/// because a writer queued between them still deadlocks).
pub struct RwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock belonging to `class`.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        RwLock {
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access with order checking.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        held::on_acquire(self.class, Location::caller());
        RwLockReadGuard {
            class: self.class,
            inner: self.inner.read(),
        }
    }

    /// Acquires exclusive write access with order checking.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        held::on_acquire(self.class, Location::caller());
        RwLockWriteGuard {
            class: self.class,
            inner: self.inner.write(),
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("class", &self.class.name())
            .finish_non_exhaustive()
    }
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        held::on_release(self.class);
    }
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        held::on_release(self.class);
    }
}

/// Condition variable whose only wait operations are predicate-guarded.
///
/// There is deliberately no bare `wait()`: every wait states the condition
/// it is waiting *out of*, so a missed wakeup or spurious wakeup can at
/// worst delay a waiter, never derail it — the missed-wakeup bug class is a
/// type error with this API.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks while `condition` returns `true`, releasing the lock class
    /// for the duration of the wait and re-checking order on reacquisition.
    #[track_caller]
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        condition: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        let class = guard.class;
        let at = Location::caller();
        let raw = guard.inner.take().expect("guard taken by condvar wait");
        held::on_release(class);
        let raw = self
            .inner
            .wait_while(raw, condition)
            .unwrap_or_else(PoisonError::into_inner);
        held::on_acquire(class, at);
        MutexGuard {
            class,
            inner: Some(raw),
        }
    }

    /// Like [`Condvar::wait_while`], but re-checks the condition at least
    /// every `tick` even without a notification. Use where a notification
    /// can race with state observed outside this lock (e.g. peer-closed
    /// flags) and a bounded poll is the liveness backstop.
    #[track_caller]
    pub fn wait_while_tick<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        tick: Duration,
        mut condition: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        let class = guard.class;
        let at = Location::caller();
        let mut raw = guard.inner.take().expect("guard taken by condvar wait");
        held::on_release(class);
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
        held::on_acquire(class, at);
        MutexGuard {
            class,
            inner: Some(raw),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
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
