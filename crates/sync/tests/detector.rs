//! Runtime tests for the lock-order detector.
//!
//! The panic-expecting tests only exist in checked builds
//! (`debug_assertions` or `--cfg ecpipe_sync_check`); in pure release
//! builds the wrappers are passthroughs and the size test in
//! `zero_cost.rs` takes over.

use ecpipe_sync::{lock_class, Mutex};

lock_class!(
    /// Low-rank test class.
    pub LOW = ("detector.low", rank = 910)
);
lock_class!(
    /// High-rank test class.
    pub HIGH = ("detector.high", rank = 920)
);
lock_class!(
    /// First of two equal-rank test classes.
    pub PEER_A = ("detector.peer_a", rank = 930)
);
lock_class!(
    /// Second of two equal-rank test classes.
    pub PEER_B = ("detector.peer_b", rank = 930)
);
lock_class!(
    /// Class used by the recursive-acquisition tests.
    pub RECURSIVE = ("detector.recursive", rank = 940)
);

#[cfg(any(debug_assertions, ecpipe_sync_check))]
mod checked {
    use super::*;
    use ecpipe_sync::RwLock;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn increasing_rank_order_is_fine() {
        let low = Mutex::new(&LOW, 1);
        let high = Mutex::new(&HIGH, 2);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn decreasing_rank_order_panics() {
        let low = Mutex::new(&LOW, 1);
        let high = Mutex::new(&HIGH, 2);
        let msg = panic_message(|| {
            let _h = high.lock();
            let _l = low.lock();
        });
        assert!(
            msg.contains("lock-order violation") && msg.contains("increasing rank order"),
            "unexpected panic message: {msg}"
        );
        assert!(
            msg.contains("detector.low") && msg.contains("detector.high"),
            "message should name both classes: {msg}"
        );
    }

    #[test]
    fn equal_rank_nesting_panics() {
        let a = Mutex::new(&PEER_A, ());
        let b = Mutex::new(&PEER_B, ());
        let msg = panic_message(|| {
            let _a = a.lock();
            let _b = b.lock();
        });
        assert!(
            msg.contains("equal-rank"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn same_class_two_locks_panics() {
        let first = Mutex::new(&RECURSIVE, ());
        let second = Mutex::new(&RECURSIVE, ());
        let msg = panic_message(|| {
            let _a = first.lock();
            let _b = second.lock();
        });
        assert!(
            msg.contains("recursive acquisition"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn self_deadlock_panics_instead_of_hanging() {
        // Re-locking the same mutex would deadlock forever with raw locks;
        // the check runs before blocking, so it panics instead.
        let m = Mutex::new(&RECURSIVE, ());
        let msg = panic_message(|| {
            let _a = m.lock();
            let _b = m.lock();
        });
        assert!(msg.contains("recursive acquisition"), "{msg}");
    }

    #[test]
    fn rwlock_read_then_read_same_class_panics() {
        let l = RwLock::new(&RECURSIVE, 0u8);
        let msg = panic_message(|| {
            let _a = l.read();
            let _b = l.read();
        });
        assert!(msg.contains("recursive acquisition"), "{msg}");
    }

    #[test]
    fn release_then_reacquire_is_fine() {
        let low = Mutex::new(&LOW, ());
        let high = Mutex::new(&HIGH, ());
        // Sequential (non-nested) acquisitions in any order are legal.
        drop(high.lock());
        drop(low.lock());
        drop(high.lock());
    }

    #[test]
    fn try_lock_is_ranked_when_it_succeeds_and_traceless_when_it_fails() {
        let low = Mutex::new(&LOW, ());
        let high = Mutex::new(&HIGH, ());
        // A failed attempt holds nothing, so it cannot count as nesting.
        let held = high.lock();
        assert!(high.try_lock().is_none());
        drop(held);
        let _l = low.lock();
        let _h = high.try_lock().expect("free lock");
        drop(_h);
        drop(_l);
        // A successful one is held like `lock()`'s guard, order checked.
        let msg = panic_message(|| {
            let _h = high.lock();
            let _l = low.try_lock();
        });
        assert!(msg.contains("increasing rank order"), "{msg}");
    }

    #[test]
    fn condvar_wait_while_releases_class_during_wait() {
        use ecpipe_sync::Condvar;
        use std::sync::Arc;
        use std::time::Duration;

        let pair = Arc::new((Mutex::new(&LOW, false), Condvar::new()));
        let waiter = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*waiter;
            let guard = m.lock();
            let guard = cv.wait_while(guard, |ready| !*ready);
            assert!(*guard);
        });
        std::thread::sleep(Duration::from_millis(20));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}

mod proptests {
    use super::*;
    use ecpipe_sync::LockClass;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random acyclic acquisition sequences never trip the detector:
        /// acquiring fresh classes in increasing-rank order (the legal
        /// discipline) must not false-positive, whatever the ranks and
        /// nesting depth.
        #[test]
        fn acyclic_sequences_never_false_positive(
            ranks in proptest::collection::vec(1u32..1_000_000, 1..8),
            reps in 1usize..4,
        ) {
            let mut ranks = ranks.clone();
            ranks.sort_unstable();
            ranks.dedup();
            let classes: Vec<&'static LockClass> = ranks
                .iter()
                .map(|r| {
                    let name: &'static str =
                        Box::leak(format!("proptest.rank_{r}_{reps}").into_boxed_str());
                    &*Box::leak(Box::new(LockClass::new(name, *r)))
                })
                .collect();
            let mutexes: Vec<Mutex<u32>> =
                classes.iter().map(|c| Mutex::new(c, c.rank())).collect();
            for _ in 0..reps {
                let guards: Vec<_> = mutexes.iter().map(|m| m.lock()).collect();
                let sum: u32 = guards.iter().map(|g| **g).sum();
                prop_assert_eq!(sum, ranks.iter().sum::<u32>());
                // Order checking only constrains acquisition, so the
                // outermost-first drop order of the Vec is fine.
            }
        }
    }
}
